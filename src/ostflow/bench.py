"""Benchmark sweeps: generate instances, run algorithms, emit CSV tables.

A sweep varies one generator parameter over a list of values, runs every
(value, seed) cell through the configured algorithms, validates each
output, and collects rows. Cells are independent jobs; the table is
assembled in canonical (value, seed, algorithm) order so output does not
depend on scheduling. Runtime measurement is off by default because the
CSV contract is byte-identical reruns; pass measure_runtime (or --timing
on the CLI) to record wall-clock times instead of zeros.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .baselines import MetaheuristicParams
from .generator import GenConfig, generate_instance, generate_regular_instance
from .model import Instance
from .registry import SOLVERS, SWEEP_ALGORITHMS, SweepKind
from .validation import check_constraints

_log = logging.getLogger("ostflow")

DEFAULT_BASE = GenConfig(node_count=100, avg_degree=4.0, terminal_count=8)


@dataclass(frozen=True)
class SweepConfig:
    sweep_kind: SweepKind
    values: tuple[float, ...]
    trials: int = 30
    base: GenConfig = DEFAULT_BASE
    algorithms: tuple[str, ...] = SWEEP_ALGORITHMS
    params: MetaheuristicParams = MetaheuristicParams()
    ost_terminal_cap: int = 16
    measure_runtime: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.values:
            raise ValueError("values must be nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        unknown = [a for a in self.algorithms if a not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown algorithm(s): {unknown}")
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")


@dataclass(frozen=True)
class ResultRow:
    sweep_kind: str
    sweep_value: float
    seed: int
    algorithm: str
    cost: float
    runtime_ms: float
    feasible: bool


@dataclass(frozen=True)
class SummaryRow:
    sweep_value: float
    algorithm: str
    mean_cost: float
    std_cost: float
    improvement_pct: float | None  # None: ost did not run at this value


def _cell_instance(cfg: SweepConfig, value: float, seed: int) -> Instance:
    base = cfg.base
    kind = cfg.sweep_kind
    if kind in (SweepKind.NODE_COUNT, SweepKind.NODE_COUNT_SMALL):
        return generate_instance(replace(base, node_count=int(value), seed=seed))
    if kind is SweepKind.AVG_DEGREE:
        return generate_instance(replace(base, avg_degree=float(value), seed=seed))
    if kind is SweepKind.REGULAR_DEGREE:
        return generate_regular_instance(replace(base, seed=seed), int(value))
    if kind is SweepKind.USER_COUNT:
        return generate_instance(replace(base, terminal_count=int(value), seed=seed))
    if kind is SweepKind.DEMAND_VARIANCE:
        delta = float(value)
        spread = ((0.5 - delta, 1 / 3), (0.5, 1 / 3), (0.5 + delta, 1 / 3))
        return generate_instance(replace(base, demand_set=spread, seed=seed))
    raise ValueError(f"unhandled sweep kind {kind}")


def _run_cell(cfg: SweepConfig, value: float, seed: int) -> list[ResultRow]:
    inst = _cell_instance(cfg, value, seed)
    params = replace(cfg.params, seed=seed)
    rows = []
    for name in cfg.algorithms:
        if name == "ost" and inst.terminal_count > cfg.ost_terminal_cap:
            _log.warning(
                "skipping ost at value %s seed %s: %s terminals exceed cap %s",
                value, seed, inst.terminal_count, cfg.ost_terminal_cap,
            )
            continue
        sol = SOLVERS[name](inst, params)
        feasible = not check_constraints(inst, sol)
        rows.append(
            ResultRow(
                sweep_kind=cfg.sweep_kind.value,
                sweep_value=value,
                seed=seed,
                algorithm=name,
                cost=sol.cost,
                runtime_ms=sol.runtime_ms if cfg.measure_runtime else 0.0,
                feasible=feasible,
            )
        )
    return rows


def _worker(job: tuple[SweepConfig, float, int]) -> list[ResultRow]:
    return _run_cell(*job)


def worker_count(jobs: int) -> int:
    """Pool size for ``jobs`` jobs: min(requested, cores, jobs), at least 1.

    The request comes from OST_THREADS; 0, unset or unparsable means all
    cores. The pool starts every worker eagerly, so the cap keeps an
    oversized request from starting idle processes.
    """
    cores = os.cpu_count() or 1
    try:
        requested = int(os.environ.get("OST_THREADS", ""))
    except ValueError:
        requested = 0
    if requested <= 0:
        requested = cores
    return max(1, min(requested, cores, jobs))


def run_sweep(cfg: SweepConfig) -> list[ResultRow]:
    """Run every (value, seed) cell; deterministic for a given config."""
    jobs = [(cfg, value, seed) for value in cfg.values for seed in range(cfg.trials)]
    workers = worker_count(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_worker, jobs, chunksize=1))
    else:
        per_cell = [_run_cell(*job) for job in jobs]
    rows = [row for cell in per_cell for row in cell]
    rows.sort(key=lambda r: (r.sweep_value, r.seed, r.algorithm))
    return rows


def summarize(table: list[ResultRow]) -> list[SummaryRow]:
    """Per (value, algorithm) means and the improvement of ost over each
    algorithm: 100 * (mean_alg - mean_ost) / mean_alg.

    A value without ost rows (the terminal cap skipped it) gets None;
    a table without any ost rows has nothing to compare against.
    """
    groups: dict[tuple[float, str], list[float]] = {}
    for row in table:
        groups.setdefault((row.sweep_value, row.algorithm), []).append(row.cost)
    if not any(algorithm == "ost" for _, algorithm in groups):
        raise ValueError("missing ost rows: no sweep value ran ost")
    summary = []
    for value, algorithm in sorted(groups):
        costs = groups[(value, algorithm)]
        mean = sum(costs) / len(costs)
        var = sum((c - mean) ** 2 for c in costs) / len(costs)
        ost = groups.get((value, "ost"))
        if ost is None:
            improvement = None
        else:
            mean_ost = sum(ost) / len(ost)
            improvement = 0.0 if mean == 0 else 100.0 * (mean - mean_ost) / mean
        summary.append(
            SummaryRow(
                sweep_value=value,
                algorithm=algorithm,
                mean_cost=mean,
                std_cost=math.sqrt(var),
                improvement_pct=improvement,
            )
        )
    return summary


_RESULT_HEADER = "sweep_kind,sweep_value,seed,algorithm,cost,runtime_ms,feasible"
_SUMMARY_HEADER = "sweep_value,algorithm,mean_cost,std_cost,improvement_pct"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def emit_csv(table: list[ResultRow] | list[SummaryRow]) -> str:
    """Canonical CSV text; an empty table emits the result header only."""
    if table and isinstance(table[0], SummaryRow):
        lines = [_SUMMARY_HEADER]
        for row in sorted(table, key=lambda r: (r.sweep_value, r.algorithm)):
            lines.append(
                ",".join(
                    _fmt(x)
                    for x in (
                        row.sweep_value,
                        row.algorithm,
                        row.mean_cost,
                        row.std_cost,
                        row.improvement_pct,
                    )
                )
            )
    else:
        lines = [_RESULT_HEADER]
        for row in sorted(table, key=lambda r: (r.sweep_value, r.seed, r.algorithm)):
            lines.append(
                ",".join(
                    _fmt(x)
                    for x in (
                        row.sweep_kind,
                        row.sweep_value,
                        row.seed,
                        row.algorithm,
                        row.cost,
                        row.runtime_ms,
                        row.feasible,
                    )
                )
            )
    return "\n".join(lines) + "\n"
