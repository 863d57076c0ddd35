"""Record the reference costs that ``run.py`` checks every output against.

    python3 perfbench/record_reference.py

Run from the root of an ostflow checkout. For every workload, every one
of the ``SLOTS`` input batches and every instance in it, computes each
algorithm's cost through the library and writes a fresh
``perfbench/reference.json``, keyed by workload and generator seed, with
the commit it was recorded at. ``cli-chain`` costs come from
``generate_instance`` plus ``solve_ost``, the calls its CLI steps make.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import ostflow

    recorded = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        table = {}
        for slot in range(workloads.SLOTS):
            for gen_seed in workload.gen_seeds(slot):
                table[str(gen_seed)] = workload.costs(ostflow, gen_seed)
            print(f"{name}: slot {slot + 1}/{workloads.SLOTS}", file=sys.stderr, flush=True)
        recorded[name] = table

    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        done = None
    doc = {
        "produced_by": "python3 perfbench/record_reference.py",
        "tolerance": "abs(cost - reference) <= 1e-9 * max(1, abs(reference))",
        "slots": workloads.SLOTS,
        "recorded_at_commit": done.stdout.strip() if done and done.returncode == 0 else None,
        "workloads": recorded,
    }
    path = workloads.REFERENCE_PATH
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
