"""Checks of the benchmark's own checking, run by hand after changing it.

    python3 perfbench/selfcheck.py

Run from the root of an ostflow checkout. Takes a few seconds; prints
one line per check and exits 1 on the first failure.

1. A reference cost perturbed beyond the tolerance is a mismatch; one
   perturbed within it is not.
2. The timed loop counts an instance whose cost disagrees with the
   reference as failed, and only that instance.
3. A traced name that no longer exists gives a null metric and a note,
   not a crash.
4. Without ``src/`` beside it, ``run.py`` exits nonzero and prints no
   result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_tolerance(ostflow) -> None:
    chain = workloads.WORKLOADS["cli-chain"]
    gen_seed = chain.gen_seeds(0)[0]
    recorded = workloads.load_reference(chain.name)[gen_seed]
    costs = chain.costs(ostflow, gen_seed)
    expect(workloads.cost_mismatches(recorded, costs) == [], "recorded cost does not match")
    close = {"ost": recorded["ost"] * (1 + 1e-12)}
    expect(workloads.cost_mismatches(close, costs) == [], "mismatch within tolerance")
    far = {"ost": recorded["ost"] * (1 + 1e-6)}
    expect(len(workloads.cost_mismatches(far, costs)) == 1, "perturbed cost not reported")
    print("ok: perturbed reference cost is a mismatch")


def check_failure_counting(ostflow) -> None:
    tiny = workloads.ExactWorkload(
        "tiny", nodes=20, degree=3.0, terminals=3, batch=3, seed_base=0
    )
    state = tiny.inputs(ostflow, 0, run.WORK_ROOT)
    reference = {s: tiny.costs(ostflow, s) for s in state["seeds"]}
    bad = state["seeds"][1]
    reference[bad] = {"ost": reference[bad]["ost"] + 1e-3}
    clocks = run.warm_clocks(tiny)
    samples = run.run_passes(ostflow, tiny, state, reference, 1e-9, clocks)
    expect(samples["attempted"] == 3, f"attempted {samples['attempted']}, expected 3")
    expect(
        [f["instance"] for f in samples["failures"]] == [1],
        f"failures {samples['failures']}, expected instance 1 only",
    )
    print("ok: a reference mismatch counts as one failed instance")


def check_missing_name(ostflow) -> None:
    saved = dict(tracer.TARGETS)
    tracer.TARGETS["solver"] = saved["solver"][0], saved["solver"][1] + ("dp_gone",)
    try:
        t = tracer.Tracer()
        inst = ostflow.generate_instance(ostflow.GenConfig(20, 3.0, 3, seed=1))
        with t.active():
            ostflow.solve_ost(inst)
        values = run.layer_values(t, 1)
    finally:
        tracer.TARGETS.clear()
        tracer.TARGETS.update(saved)
    expect(values["solver.dp_gone.s"] is None, "missing name did not read null")
    expect(values["solver.dp_merge.s"] > 0, "present names stopped being timed")
    expect(any("dp_gone" in note for note in t.notes), "missing name has no note")
    expect(ostflow.solver.dp_merge.__name__ == "dp_merge", "wrappers were not removed")
    print("ok: a missing traced name reads null with a note")


def check_bare_directory() -> None:
    bare = run.WORK_ROOT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-deep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(run.WORK_ROOT, ignore_errors=True)
    expect(done.returncode != 0, "run.py succeeded without src/")
    expect('"correct"' not in done.stdout, "run.py printed a result without src/")
    print(f"ok: without src/ run.py exits {done.returncode} and prints no result")


def main() -> int:
    ostflow = run.import_ostflow()
    run.WORK_ROOT.mkdir(exist_ok=True)
    check_tolerance(ostflow)
    check_failure_counting(ostflow)
    check_missing_name(ostflow)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
