"""The four benchmark workloads: inputs from a seed, one instance, its checks.

A run's inputs are a fixed batch of generated instances. The benchmark
seed picks one of ``SLOTS`` recorded batches (``seed % SLOTS``), so
every seed has reference costs in ``reference.json``; the program only
ever sees the generated instances or CLI arguments.

An *instance* is the unit that ``instance_s_p50`` times: one
``solve_ost`` call for ``exact-*``, one full bench cell for
``headline-cell`` and one ``gen -> solve -> validate`` CLI chain for
``cli-chain``. ``run`` times its steps with the run's host clocks (see
``hostclock.py``) and returns ``(outcome, steps)``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

SLOTS = 32
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
SHIM_PATH = Path(__file__).resolve().parent / "cli_shim.py"
CHILD_TIMEOUT_S = 120.0


def cost_mismatches(reference: dict[str, float] | None, costs: dict[str, float]) -> list[str]:
    """Costs that differ from the recorded ones by more than 1e-9*max(1, cost)."""
    if reference is None:
        return ["no reference costs recorded for this instance"]
    problems = []
    for algorithm, cost in sorted(costs.items()):
        expected = reference.get(algorithm)
        if expected is None:
            problems.append(f"{algorithm}: no reference cost")
        elif not abs(cost - expected) <= 1e-9 * max(1.0, abs(expected)):
            problems.append(f"{algorithm}: cost {cost!r} != reference {expected!r}")
    return problems


def load_reference(workload: str) -> dict[int, dict[str, float]]:
    """Recorded costs of one workload, keyed by generator seed."""
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    table = doc["workloads"].get(workload, {})
    return {int(seed): costs for seed, costs in table.items()}


def _optimum_problems(ostflow, inst, solution) -> list[str]:
    """Every check a minimal ``ost`` solution must pass."""
    problems = [f"ost {v}" for v in ostflow.check_constraints(inst, solution)]
    tree = ostflow.check_tree(inst, solution)
    problems += [f"ost {v}" for v in tree]
    if not tree:
        problems += [f"ost {v}" for v in ostflow.check_flow_law(inst, solution)]
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    degree: float
    terminals: int
    batch: int          # instances per pass over the run's inputs
    seed_base: int      # keeps generator seeds of different workloads apart

    def gen_seeds(self, seed: int) -> list[int]:
        slot = seed % SLOTS
        return [self.seed_base + slot * self.batch + i for i in range(self.batch)]

    def config(self, ostflow, gen_seed: int):
        return ostflow.GenConfig(
            node_count=self.nodes,
            avg_degree=self.degree,
            terminal_count=self.terminals,
            seed=gen_seed,
        )

    def inputs(self, ostflow, seed: int, workdir: Path) -> dict:
        """The run's fixed inputs: the batch of instances the seed selects."""
        seeds = self.gen_seeds(seed)
        instances = [ostflow.generate_instance(self.config(ostflow, s)) for s in seeds]
        return {"seeds": seeds, "instances": instances, "workdir": workdir}

    def costs(self, ostflow, gen_seed: int) -> dict[str, float]:
        """Reference costs of one instance, computed through the library."""
        inst = ostflow.generate_instance(self.config(ostflow, gen_seed))
        return {"ost": ostflow.solve_ost(inst).cost}

    def warm_config(self, ostflow):
        """A small instance of the same shape, solved once before timing."""
        return ostflow.GenConfig(node_count=30, avg_degree=self.degree, terminal_count=4, seed=1)


class ExactWorkload(Workload):
    """``solve_ost`` alone on each instance."""

    KERNELS = ("large",)

    def warm_up(self, ostflow, state: dict) -> None:
        ostflow.solve_ost(ostflow.generate_instance(self.warm_config(ostflow)))

    def run(self, ostflow, state: dict, index: int, traced: bool, clocks: dict):
        inst = state["instances"][index]
        solution, step = clocks["large"].time(lambda: ostflow.solve_ost(inst))
        return {"ost": solution}, [step]

    def check(self, ostflow, state: dict, index: int, outcome: dict, reference) -> list[str]:
        inst = state["instances"][index]
        solution = outcome["ost"]
        return _optimum_problems(ostflow, inst, solution) + cost_mismatches(
            reference, {"ost": solution.cost}
        )


class CellWorkload(Workload):
    """One ``ostflow bench`` cell: all six algorithms, each output checked.

    Each algorithm, with the check of its output, is one step of the
    small-array clock.
    """

    KERNELS = ("small",)

    def _solvers(self, ostflow, params):
        return {
            "ost": ostflow.solve_ost,
            "mst": ostflow.solve_mst_prune,
            "spt": ostflow.solve_sp_union,
            "ga": lambda inst: ostflow.solve_ga(inst, params),
            "aco": lambda inst: ostflow.solve_aco(inst, params),
            "bco": lambda inst: ostflow.solve_bco(inst, params),
        }

    def warm_up(self, ostflow, state: dict) -> None:
        warm = ostflow.generate_instance(self.warm_config(ostflow))
        params = ostflow.MetaheuristicParams(seed=0, iterations=5)
        for solve in self._solvers(ostflow, params).values():
            ostflow.check_constraints(warm, solve(warm))

    def run(self, ostflow, state: dict, index: int, traced: bool, clocks: dict):
        inst = state["instances"][index]
        params = ostflow.MetaheuristicParams(seed=state["seeds"][index])
        outcome, steps = {}, []
        for algorithm, solve in self._solvers(ostflow, params).items():
            def checked(solve=solve):
                solution = solve(inst)
                return solution, ostflow.check_constraints(inst, solution)

            outcome[algorithm], step = clocks["small"].time(checked)
            steps.append(step)
        return outcome, steps

    def costs(self, ostflow, gen_seed: int) -> dict[str, float]:
        inst = ostflow.generate_instance(self.config(ostflow, gen_seed))
        solvers = self._solvers(ostflow, ostflow.MetaheuristicParams(seed=gen_seed))
        return {algorithm: solve(inst).cost for algorithm, solve in solvers.items()}

    def check(self, ostflow, state: dict, index: int, outcome: dict, reference) -> list[str]:
        inst = state["instances"][index]
        problems = []
        for algorithm, (_, violations) in outcome.items():
            problems += [f"{algorithm} {v}" for v in violations]
        problems += _optimum_problems(ostflow, inst, outcome["ost"][0])
        costs = {a: solution.cost for a, (solution, _) in outcome.items()}
        return problems + cost_mismatches(reference, costs)


def run_child(argv: list[str], env: dict, stdout_path: Path) -> tuple[int, float, int, str]:
    """Run one child to completion: (exit code, wall s, max RSS KiB, stderr).

    ``os.wait4`` reaps the child so that its own ``ru_maxrss`` is read;
    a timer kills it if it outlives ``CHILD_TIMEOUT_S``.
    """
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.PIPE)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stderr.close()
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss, stderr.decode("utf-8", "replace")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ChainWorkload(Workload):
    """``gen -> solve --algorithm ost -> validate --tree --flow-law`` as processes.

    Steps run one at a time, so the chain never uses more than one core.
    Traced chains run each step through ``cli_shim.py``. A whole chain is
    one step of the process clock.
    """

    KERNELS = ("process",)
    STEPS = ("gen", "solve", "validate")

    def inputs(self, ostflow, seed: int, workdir: Path) -> dict:
        """The run's fixed inputs: generator seeds passed to ``gen``."""
        root = Path(ostflow.__file__).resolve().parents[2]
        return {"seeds": self.gen_seeds(seed), "env": child_env(root), "workdir": workdir}

    def warm_up(self, ostflow, state: dict) -> None:
        work = state["workdir"]
        code, _, _, err = run_child(
            [sys.executable, "-m", "ostflow.cli", "gen", "--nodes", "10", "--avg-degree", "2",
             "--terminals", "2", "--output", str(work / "warm.json")],
            state["env"], work / "warm.out",
        )
        if code != 0:
            raise RuntimeError(f"warm-up gen exited {code}: {err.strip()}")

    def _argv(self, state: dict, index: int) -> dict[str, list[str]]:
        work = state["workdir"]
        inst, sol = str(work / f"inst-{index}.json"), str(work / f"sol-{index}.json")
        return {
            "gen": ["gen", "--nodes", str(self.nodes), "--avg-degree", str(self.degree),
                    "--terminals", str(self.terminals), "--seed", str(state["seeds"][index]),
                    "--output", inst],
            "solve": ["solve", "--instance", inst, "--algorithm", "ost", "--output", sol],
            "validate": ["validate", "--instance", inst, "--solution", sol, "--tree", "--flow-law"],
        }

    def run(self, ostflow, state: dict, index: int, traced: bool, clocks: dict):
        outcome, step = clocks["process"].time(lambda: self._chain(state, index, traced))
        return outcome, [step]

    def _chain(self, state: dict, index: int, traced: bool) -> dict:
        work = state["workdir"]
        outcome = {"exit": {}, "seconds": {}, "maxrss_kb": 0, "stderr": {}, "traces": []}
        for step, args in self._argv(state, index).items():
            if traced:
                trace_path = work / f"trace-{index}-{step}.json"
                argv = [sys.executable, str(SHIM_PATH), str(trace_path)] + args
            else:
                argv = [sys.executable, "-m", "ostflow.cli"] + args
            code, elapsed, rss, err = run_child(argv, state["env"], work / f"{step}-{index}.out")
            outcome["exit"][step] = code
            outcome["seconds"][step] = elapsed
            outcome["maxrss_kb"] = max(outcome["maxrss_kb"], rss)
            outcome["stderr"][step] = err.strip()
            if traced and code == 0:
                outcome["traces"].append(json.loads(trace_path.read_text(encoding="utf-8")))
            if code != 0:
                break
        return outcome

    def check(self, ostflow, state: dict, index: int, outcome: dict, reference) -> list[str]:
        problems = [
            f"{step} exited {code}: {outcome['stderr'][step][-300:]}"
            for step, code in outcome["exit"].items() if code != 0
        ]
        if problems:
            return problems
        work = state["workdir"]
        report = (work / f"validate-{index}.out").read_text(encoding="utf-8")
        if report.strip():
            problems.append(f"validate reported: {report.strip()[:300]}")
        expected = ostflow.generate_instance(self.config(ostflow, state["seeds"][index]))
        inst = ostflow.parse_instance((work / f"inst-{index}.json").read_text(encoding="utf-8"))
        if inst != expected:
            problems.append("gen output differs from generate_instance for the same config")
        solution = ostflow.parse_solution((work / f"sol-{index}.json").read_text(encoding="utf-8"))
        problems += _optimum_problems(ostflow, expected, solution)
        return problems + cost_mismatches(reference, {"ost": solution.cost})


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ExactWorkload("exact-deep", nodes=100, degree=4.0, terminals=8, batch=11, seed_base=100_000),
        ExactWorkload("exact-wide", nodes=1000, degree=4.0, terminals=4, batch=12, seed_base=200_000),
        CellWorkload("headline-cell", nodes=100, degree=4.0, terminals=8, batch=3, seed_base=300_000),
        ChainWorkload("cli-chain", nodes=50, degree=4.0, terminals=6, batch=20, seed_base=400_000),
    )
}
