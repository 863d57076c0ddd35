"""Record tests/data/ost_tie_golden.json, the tie-heavy corpus of ``ost``
solution documents.

``ost_golden.json`` holds only U(0,1) weights, where two paths tie with
probability zero. This corpus makes ties common, so it pins the solver's
tie-breaking: weights rounded to one or two decimals, about 40% zero
weights (the rest rounded to one decimal), and unit weights on random
3-regular graphs. Each entry names an instance (see
``helpers.tie_golden_instance``) and holds repr(cost) and the SHA-256 of
the ``ost`` document written with runtime_ms=0.
``test_ost_documents_match_tie_golden_corpus`` checks every entry;
re-record only when a change to the solver is meant to change its
documents.

Run from the repository root:

    PYTHONPATH=src python tests/record_ost_tie_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from ostflow import solve_ost

from helpers import solution_fingerprint, tie_golden_instance

OUT = Path(__file__).parent / "data" / "ost_tie_golden.json"


def _spec(n, degree, k, seed, weights, regular_degree=None):
    return {
        "node_count": n,
        "avg_degree": degree,
        "terminal_count": k,
        "seed": seed,
        "weights": weights,
        "regular_degree": regular_degree,
    }


def corpus() -> list[dict]:
    """Instance specs, in table order: 60 of each weight rule."""
    entries = []
    sizes = (8, 12, 20, 30, 50, 80)
    for i in range(60):
        n, k = sizes[i % 6], 3 + i % 6
        rule = "round1" if i % 2 else "round2"
        entries.append(_spec(n, 3.0 if i % 3 else 4.0, k, 1000 + i, rule))
    for i in range(60):
        n, k = sizes[i % 6], 2 + i % 7
        entries.append(_spec(n, 2.5 if i % 2 else 3.5, min(k, n - 1), 2000 + i, "zero"))
    regular = (8, 10, 14, 20, 30, 50)
    for i in range(60):
        n, k = regular[i % 6], 3 + i % 5
        entries.append(_spec(n, 3.0, k, 3000 + i, "unit", regular_degree=3))
    # rows wide enough to split grow and merge into several chunks
    for i, (n, k) in enumerate(((400, 6), (1000, 5))):
        for rule in ("round1", "zero"):
            entries.append(_spec(n, 3.0, k, 4000 + i, rule))
    return entries


def main() -> None:
    rows = []
    for spec in corpus():
        fingerprint = solution_fingerprint(solve_ost(tie_golden_instance(spec)))
        rows.append({"instance": spec, **fingerprint})
    OUT.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} entries to {OUT}")


if __name__ == "__main__":
    main()
