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
from dataclasses import dataclass, fields, replace
from operator import attrgetter

from .baselines import MetaheuristicParams
from .generator import GenConfig, generate_instance, generate_regular_instance
from .model import Instance, as_float, require_fields, sum_left
from .registry import SOLVERS, SWEEP_ALGORITHMS, SweepKind
from .validation import check_constraints

_log = logging.getLogger("ostflow")

DEFAULT_BASE = GenConfig(node_count=100, avg_degree=4.0, terminal_count=8)

# Sweeps whose values are counts: each value must be an integer.
INTEGER_KINDS = frozenset({SweepKind.NODE_COUNT, SweepKind.NODE_COUNT_SMALL,
                           SweepKind.REGULAR_DEGREE, SweepKind.USER_COUNT})


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
        require_fields(self)
        if not isinstance(self.sweep_kind, SweepKind):
            raise ValueError(f"sweep_kind must be a SweepKind, got {self.sweep_kind!r}")
        if not self.values:
            raise ValueError("values must be nonempty")
        if None in map(as_float, self.values):
            raise ValueError(f"values must be numbers, got {self.values}")
        if not all(math.isfinite(as_float(v)) for v in self.values):
            raise ValueError(f"values must be finite, got {self.values}")
        fractions = [v for v in self.values if v != int(v)]
        if self.sweep_kind in INTEGER_KINDS and fractions:
            kind = self.sweep_kind.value
            raise ValueError(f"{kind} values must be integers, got {fractions[0]}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.ost_terminal_cap < 0:
            raise ValueError(f"ost_terminal_cap must be >= 0, got {self.ost_terminal_cap}")
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


# Canonical row order of both tables; a summary row has no seed.
_ROW_ORDER = ("sweep_value", "seed", "algorithm")


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
    delta = float(value)  # SweepKind.DEMAND_VARIANCE
    spread = ((0.5 - delta, 1 / 3), (0.5, 1 / 3), (0.5 + delta, 1 / 3))
    return generate_instance(replace(base, demand_set=spread, seed=seed))


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
            per_cell = list(pool.map(_run_cell, *zip(*jobs), chunksize=1))
    else:
        per_cell = [_run_cell(*job) for job in jobs]
    rows = [row for cell in per_cell for row in cell]
    rows.sort(key=attrgetter(*_ROW_ORDER))
    return rows


def summarize(table: list[ResultRow]) -> list[SummaryRow]:
    """Per (value, algorithm) means and the improvement of ost over each
    algorithm: 100 * (mean_alg - mean_ost) / mean_alg.

    A value without ost rows (the terminal cap skipped it) gets None.
    """
    groups: dict[tuple[float, str], list[float]] = {}
    for row in table:
        groups.setdefault((row.sweep_value, row.algorithm), []).append(row.cost)
    summary = []
    for value, algorithm in sorted(groups):
        costs = groups[(value, algorithm)]
        mean = sum_left(costs) / len(costs)
        var = sum_left((c - mean) ** 2 for c in costs) / len(costs)
        ost = groups.get((value, "ost"))
        if ost is None:
            improvement = None
        else:
            mean_ost = sum_left(ost) / len(ost)
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
    """Canonical CSV text: the row dataclass's fields as columns, rows in
    (sweep_value, seed, algorithm) order; an empty table emits the result
    header only."""
    columns = [f.name for f in fields(table[0] if table else ResultRow)]
    key = attrgetter(*(c for c in _ROW_ORDER if c in columns))
    lines = [",".join(columns)]
    for row in sorted(table, key=key):
        lines.append(",".join(_fmt(getattr(row, c)) for c in columns))
    return "\n".join(lines) + "\n"
