"""Record tests/data/generator_golden.json, the seeded-output table of the
instance generator.

Each entry names a generator config and holds the SHA-256 of the
``serialize_instance`` document it produces. The grid covers n from 2 to
1000 at tree-only, sparse, degree-4, dense and complete-graph edge counts
(complete only up to n=100, where it takes milliseconds), several seeds,
a non-default demand set and a few regular instances.
``test_generated_instances_match_golden`` checks every entry; re-record
only when a change to the generator is meant to change its instances.

Run from the repository root:

    PYTHONPATH=src python tests/record_generator_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ostflow import serialize_instance

from helpers import generator_golden_instance

OUT = Path(__file__).parent / "data" / "generator_golden.json"

SEEDS = (0, 7, 2**64 - 1)
CUSTOM_DEMANDS = [[2.0, 0.125], [0.75, 0.375], [0.1, 0.5]]


def _spec(n, edges, k, seed, demand_set=None, regular_degree=None):
    # 2m/n is a float whose round(n * avg_degree / 2) is m again
    return {
        "node_count": n,
        "avg_degree": 2 * edges / n,
        "terminal_count": k,
        "seed": seed,
        "demand_set": demand_set,
        "regular_degree": regular_degree,
    }


def _edge_counts(n: int) -> list[int]:
    """Tree-only, sparse, degree 4, dense and complete, deduplicated."""
    full = n * (n - 1) // 2
    wanted = [n - 1, n - 1 + max(1, n // 8), 2 * n, 20 * n] + ([full] if n <= 100 else [])
    return list(dict.fromkeys(min(m, full) for m in wanted))


def corpus() -> list[dict]:
    """Instance specs, in table order."""
    entries = []
    for n in (2, 3, 5, 13, 50, 100, 1000):
        k = min(n - 1, 6)
        for m in _edge_counts(n):
            for seed in SEEDS:
                entries.append(_spec(n, m, k, seed))
    for n, seed in ((13, 3), (100, 4)):
        entries.append(_spec(n, 2 * n, n - 1, seed, demand_set=CUSTOM_DEMANDS))
    for n, degree, seed in ((5, 2, 1), (13, 4, 2), (20, 3, 5), (50, 4, 6)):
        entries.append(_spec(n, n * degree // 2, 4, seed, regular_degree=degree))
    return entries


def fingerprint(spec: dict) -> str:
    doc = serialize_instance(generator_golden_instance(spec))
    return hashlib.sha256(doc.encode()).hexdigest()


def main() -> None:
    rows = [{"instance": spec, "sha256": fingerprint(spec)} for spec in corpus()]
    OUT.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} entries to {OUT}")


if __name__ == "__main__":
    main()
