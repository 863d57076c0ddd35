"""Run one workload of the ostflow benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-deep --seed 3 --seconds 20 --trace 0

Run it from the root of an ostflow source checkout: the package is
imported from that checkout's ``src/``, never from an installed copy,
and without it the script exits 2 before printing a result.

Load is a closed loop with one caller, and numpy's BLAS runs on one
thread. The timed phase makes passes over the run's fixed inputs
(``workloads.py``) and stops starting passes once another would overrun
``--seconds``; every pass's outputs are checked after it. Times are
host-calibrated seconds (``hostclock.py``); the raw wall times are in
the report. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a separate traced run (see
``tracer.py``). The next-to-last line of standard output is a JSON
report with the machine facts, sample counts and raw samples; the last
line is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads here or in any child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostclock
import workloads
from tracer import SOLVER_CHILDREN, TABLE_STATS, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3    # setups per run: this process plus fresh probe processes
PROBE_SAMPLES = 3    # interpreter and import probes per traced run

END_TO_END = {
    "wall_s": "s",
    "instance_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    **{
        f"{layer}.{name}.s": "s"
        for layer, (_, names) in TARGETS.items()
        for name in names
    },
    "solver.self.s": "s",
    "solver.dp_merge.calls": "count",
    "solver.finite_states": "count",
    "solver.merge_decisions": "count",
    "solver.extend_decisions": "count",
    "solver.table_mb": "MiB",
    "serialize.bytes": "bytes",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.gen.s": "s",
    "cli.solve.s": "s",
    "cli.validate.s": "s",
    "trace.overhead_pct": "%",
}


class SourceMissing(Exception):
    """The checkout has no importable ostflow sources."""


def import_ostflow():
    """Import ostflow from this checkout's src/ and nowhere else."""
    if not (SRC / "ostflow" / "__init__.py").is_file():
        raise SourceMissing(f"no ostflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ostflow

    if Path(ostflow.__file__).resolve().parent != SRC / "ostflow":
        raise SourceMissing(f"imported ostflow from {ostflow.__file__}, not {SRC}")
    return ostflow


def blas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, if it can be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine_facts() -> dict:
    import numpy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_passes(ostflow, workload, state, reference, seconds, clocks, tracer=None, only=None):
    """Closed-loop passes over the batch until another would overrun ``seconds``.

    With a tracer, each instance runs with the layers wrapped; the
    checks after each pass never run traced. Returns the samples, with
    the timed steps of each instance by pass in ``steps``; ``scale``
    turns them into times once the run's readings are all taken.
    """
    samples = {"steps": [], "pass_wall_s": [], "outcomes": [], "attempted": 0, "failures": []}
    begin = time.perf_counter()
    indices = only or range(workload.batch)
    while True:
        outcomes, steps = [], []
        pass_start = time.perf_counter()
        for index in indices:
            try:
                if tracer is None:
                    outcome, instance_steps = workload.run(ostflow, state, index, False, clocks)
                else:
                    with tracer.active():
                        outcome, instance_steps = workload.run(ostflow, state, index, True, clocks)
                steps.append(instance_steps)
            except Exception:
                outcome = traceback.format_exc(limit=3)
            outcomes.append((index, outcome))
        samples["steps"].append(steps)
        samples["pass_wall_s"].append(time.perf_counter() - pass_start)
        for index, outcome in outcomes:
            samples["attempted"] += 1
            if isinstance(outcome, str):
                problems = [outcome]
            else:
                gen_seed = state["seeds"][index]
                try:
                    problems = workload.check(ostflow, state, index, outcome, reference.get(gen_seed))
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
                samples["outcomes"].append(outcome)
            if problems:
                samples["failures"].append({"instance": index, "problems": problems[:5]})
        if only is not None:
            return samples
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(samples["pass_wall_s"]) > seconds:
            return samples


def scale(samples: dict) -> None:
    """Add host-calibrated ``instance_s`` and ``pass_s``, and raw ``instance_wall_s``."""
    samples["instance_s"], samples["instance_wall_s"], samples["pass_s"] = [], [], []
    for steps in samples["steps"]:
        scaled = [sum(step.scaled_s() for step in instance) for instance in steps]
        samples["instance_s"] += scaled
        samples["instance_wall_s"] += [sum(step.wall_s for step in instance) for instance in steps]
        samples["pass_s"].append(sum(scaled))


def probe_setup(args) -> float:
    """Setup time of a fresh process doing this run's imports, inputs and warm-up."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def setup(args, workload, workdir):
    """Imports, inputs and warm-up, timed on the scalar host clock.

    Returns the host-calibrated set-up seconds, ``ostflow`` and the
    inputs. The kernel runs once untimed first, so that its own first
    run does not count as a slow host.
    """

    def work():
        ostflow = import_ostflow()
        state = workload.inputs(ostflow, args.seed, workdir)
        workload.warm_up(ostflow, state)
        return ostflow, state

    clock = hostclock.HostClock("scalar")
    clock.kernel()
    (ostflow, state), step = clock.time(work)
    return step.scaled_s(), ostflow, state


def warm_clocks(workload) -> dict:
    """The workload's host clocks, each kernel run once untimed."""
    clocks = {name: hostclock.HostClock(name) for name in workload.KERNELS}
    for clock in clocks.values():
        clock.kernel()
    return clocks


def untraced_run(args, workload, workdir):
    setup_s, ostflow, state = setup(args, workload, workdir)
    setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    reference = workloads.load_reference(workload.name)
    clocks = warm_clocks(workload)
    samples = run_passes(ostflow, workload, state, reference, args.seconds, clocks)
    scale(samples)
    if isinstance(workload, workloads.ChainWorkload):
        peak_kib = max((o["maxrss_kb"] for o in samples["outcomes"]), default=0)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(samples["pass_s"]),
        "instance_s_p50": statistics.median(samples["instance_s"]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_kib / 1024,
    }
    counts = {
        "wall_s": len(samples["pass_s"]),
        "instance_s_p50": len(samples["instance_s"]),
        "setup_s": len(setup_samples),
        "peak_rss_mb": 1,
    }
    raw = {
        "pass_s": samples["pass_s"],
        "instance_s": samples["instance_s"],
        "setup_s": setup_samples,
        "pass_wall_s": samples["pass_wall_s"],
        "instance_wall_s": samples["instance_wall_s"],
        "kernel_readings": {
            name: [[round(t, 4), v] for t, v in clock.readings] for name, clock in clocks.items()
        },
        "step_spans": [
            [step.clock.name, round(step.start, 4), round(step.end, 4)]
            for steps in samples["steps"] for instance in steps for step in instance
        ],
    }
    return values, counts, raw, samples, []


def median_child_seconds(argv: list[str], env: dict, workdir: Path) -> float:
    times = []
    for _ in range(PROBE_SAMPLES):
        code, elapsed, _, err = workloads.run_child(argv, env, workdir / "probe.out")
        if code != 0:
            raise RuntimeError(f"{argv[1:]} exited {code}: {err.strip()[-500:]}")
        times.append(elapsed)
    return statistics.median(times)


def traced_run(args, workload, workdir):
    """Interleaved passes: each instance runs untraced and traced, on the same input.

    Per-layer metrics come from the traced runs only. The untraced twin
    next to each traced run gives ``trace.overhead_pct`` as the median
    over instances of traced / untraced wall time: the twins run seconds
    apart, so they mostly see the same host speed, and the host clock's
    scaling would only add its own noise. The order alternates from one
    instance to the next, so that neither side always runs second.
    """
    ostflow = import_ostflow()
    tracer = Tracer()
    with tracer.active():
        state = workload.inputs(ostflow, args.seed, workdir)
    workload.warm_up(ostflow, state)
    reference = workloads.load_reference(workload.name)
    clocks = warm_clocks(workload)
    begin = time.perf_counter()
    twins, outcomes, attempted, failures, traced_count = [], [], 0, [], 0
    while True:
        pass_start = time.perf_counter()
        for index in range(workload.batch):
            runs = {}
            for with_tracer in (False, True) if index % 2 == 0 else (True, False):
                runs[with_tracer] = run_passes(
                    ostflow, workload, state, reference, args.seconds, clocks,
                    tracer=tracer if with_tracer else None, only=[index],
                )
            plain, traced = runs[False], runs[True]
            for done in (plain, traced):
                attempted += done["attempted"]
                failures += done["failures"]
            outcomes += traced["outcomes"]
            traced_count += len(traced["steps"][0])
            twins.append((plain, traced))
        elapsed = time.perf_counter() - begin
        if elapsed + (time.perf_counter() - pass_start) > args.seconds:
            break
    for outcome in outcomes:
        for raw in outcome.get("traces", ()):
            tracer.merge(raw)
    pairs = []
    for plain, traced in twins:
        scale(plain)
        scale(traced)
        if plain["instance_wall_s"] and traced["instance_wall_s"]:
            pairs.append((plain["instance_wall_s"][0], traced["instance_wall_s"][0]))

    env = workloads.child_env(ROOT)
    interpreter = median_child_seconds([sys.executable, "-c", "pass"], env, workdir)
    cli_import = median_child_seconds([sys.executable, "-c", "import ostflow.cli"], env, workdir)

    instances = traced_count or 1
    values = layer_values(tracer, instances)
    values["cli.interpreter_s"] = interpreter
    values["cli.import_s"] = cli_import - interpreter
    for step in workloads.ChainWorkload.STEPS:
        values[f"cli.{step}.s"] = sum(
            o["seconds"].get(step, 0.0) for o in outcomes if "seconds" in o
        ) / instances
    values["trace.overhead_pct"] = (
        (statistics.median(t / p for p, t in pairs) - 1.0) * 100.0 if pairs else None
    )
    samples = {"attempted": attempted, "failures": failures}
    counts = {"traced_instances": traced_count, "overhead_pairs": len(pairs), "probes": PROBE_SAMPLES}
    raw = {
        "untraced_wall_s": [p for p, _ in pairs],
        "traced_wall_s": [t for _, t in pairs],
    }
    return values, counts, raw, samples, tracer.notes


def layer_values(tracer: Tracer, instances: int) -> dict:
    """Per-layer metrics per traced instance; generator time per generated instance."""

    def seconds(key: str, per: int) -> float | None:
        if key in tracer.missing:
            return None
        return tracer.seconds.get(key, 0.0) / per

    values = {}
    for layer, (_, names) in TARGETS.items():
        for name in names:
            key = f"{layer}.{name}"
            per = (tracer.calls.get(key, 0) or 1) if layer == "generator" else instances
            values[f"{key}.s"] = seconds(key, per)
    total = values["solver.solve_ost.s"]
    children = [values[f"solver.{name}.s"] for name in SOLVER_CHILDREN]
    values["solver.self.s"] = None if total is None else total - sum(c for c in children if c)
    values["solver.dp_merge.calls"] = (
        None if "solver.dp_merge" in tracer.missing
        else tracer.calls.get("solver.dp_merge", 0) / instances
    )
    for stat in TABLE_STATS:
        values[f"solver.{stat}"] = (
            None if f"solver.{stat}" in tracer.missing or "solver.dp_init" in tracer.missing
            else tracer.table.get(stat, 0.0) / instances
        )
    values["serialize.bytes"] = tracer.serialized_bytes / instances
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the setup time (used by the benchmark)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup_s, _, _ = setup(args, workload, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = traced_run if args.trace else untraced_run
        values, counts, raw, samples, notes = run(args, workload, workdir)
        facts = machine_facts()
    except SourceMissing as exc:
        print(f"perfbench: {exc}; run from the root of an ostflow checkout", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    units = PER_LAYER if args.trace else END_TO_END
    failed = len(samples["failures"])
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "slot": args.seed % workloads.SLOTS,
        "generator_seeds": workload.gen_seeds(args.seed),
        "trace": args.trace,
        "machine": facts,
        "sample_counts": counts,
        "samples": raw,
        "failures": samples["failures"][:10],
        "notes": notes,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": samples["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
