"""Names the CLI and the bench harness accept: solvers and sweep kinds.

Reading a name here imports no solver. Each ``SOLVERS`` entry imports
its module the first time it is called, so a command that runs one
solver loads only that solver's code.

It is also the one place solver runs are timed (see ``Solver``); the
solver functions themselves are pure and leave ``runtime_ms`` at 0.0.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from importlib import import_module


class SweepKind(enum.Enum):
    NODE_COUNT = "node-count"
    NODE_COUNT_SMALL = "node-count-small"
    AVG_DEGREE = "avg-degree"
    REGULAR_DEGREE = "regular-degree"
    USER_COUNT = "user-count"
    DEMAND_VARIANCE = "demand-variance"


@dataclass(frozen=True)
class Solver:
    """``solver(inst, params)``: ``module.function``, looked up at call time.

    ``tuned`` solvers take the MetaheuristicParams; the others ignore it.
    The returned solution's ``runtime_ms`` is the function call's wall
    time; importing the module on a first call is not counted.
    """

    module: str
    function: str
    tuned: bool = False

    def __call__(self, inst, params=None):
        fn = getattr(import_module(self.module, __package__), self.function)
        started = time.perf_counter()
        solution = fn(inst, params) if self.tuned else fn(inst)
        return replace(solution, runtime_ms=(time.perf_counter() - started) * 1e3)


SOLVERS = {
    "ost": Solver(".solver", "solve_ost"),
    "oracle": Solver(".oracle", "brute_force_optimum"),
    "mst": Solver(".baselines", "solve_mst_prune"),
    "spt": Solver(".baselines", "solve_sp_union"),
    "ga": Solver(".baselines", "solve_ga", tuned=True),
    "aco": Solver(".baselines", "solve_aco", tuned=True),
    "bco": Solver(".baselines", "solve_bco", tuned=True),
}

# A sweep runs every solver but the exhaustive oracle unless told otherwise.
SWEEP_ALGORITHMS = tuple(name for name in SOLVERS if name != "oracle")
