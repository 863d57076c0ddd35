"""Record tests/data/baseline_golden.json, the seeded-output table of the
five baselines (mst, spt, ga, aco, bco).

Each entry names an instance and a MetaheuristicParams set and holds, per
algorithm, repr(cost) and the SHA-256 of the solution document written
with runtime_ms=0. ``test_baselines_match_golden_table`` checks every
entry; re-record only when a change to the baselines is meant to change
their outputs.

Run from the repository root:

    PYTHONPATH=src python tests/record_baseline_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from ostflow import MetaheuristicParams

from helpers import BASELINES, golden_instance, solution_fingerprint

OUT = Path(__file__).parent / "data" / "baseline_golden.json"

DEFAULT = {}
FAST = {"population": 16, "iterations": 25, "ant_count": 8, "seed": 5}
FAST_ALPHA2 = {**FAST, "pheromone_weight": 2.0}


def _generated(n, degree, k, seed, round_weights=None):
    return {
        "node_count": n,
        "avg_degree": degree,
        "terminal_count": k,
        "seed": seed,
        "round_weights": round_weights,
    }


def corpus() -> list[tuple[dict, dict]]:
    """(instance spec, params) pairs, in table order."""
    entries = []
    grid = [(n, k) for n in (20, 30, 40, 60, 80, 100) for k in (2, 4, 6, 8)]
    for i, (n, k) in enumerate(grid):
        spec = _generated(n, 3.0 if i % 2 else 4.0, k, 100 + i)
        entries.append((spec, FAST))
        if n == 20:
            entries.append((spec, DEFAULT))
    for i, (n, k) in enumerate(((30, 4), (40, 6), (60, 8), (100, 8))):
        entries.append((_generated(n, 4.0, k, 200 + i), FAST_ALPHA2))
    for i, (n, k) in enumerate(((20, 4), (40, 6), (60, 8), (100, 8))):
        entries.append((_generated(n, 4.0, k, 300 + i, round_weights=1), FAST))
    entries.append((_generated(20, 4.0, 4, 300, round_weights=1), DEFAULT))
    entries.append(({"stray": True}, FAST))
    entries.append(({"stray": True}, DEFAULT))
    return entries


def main() -> None:
    rows = []
    for spec, params in corpus():
        inst = golden_instance(spec)
        p = MetaheuristicParams(**params)
        # a graph with a stray component has no spanning tree, so no mst
        names = [n for n in BASELINES if not (spec.get("stray") and n == "mst")]
        results = {n: solution_fingerprint(BASELINES[n](inst, p)) for n in names}
        rows.append({"instance": spec, "params": params, "results": results})
    OUT.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} entries to {OUT}")


if __name__ == "__main__":
    main()
