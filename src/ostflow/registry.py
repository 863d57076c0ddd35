"""Names the CLI and the bench harness accept: solvers and sweep kinds.

Reading a name here imports no solver. Each ``SOLVERS`` entry imports
its module the first time it is called, so a command that runs one
solver loads only that solver's code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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
    """

    module: str
    function: str
    tuned: bool = False

    def __call__(self, inst, params=None):
        fn = getattr(import_module(self.module, __package__), self.function)
        return fn(inst, params) if self.tuned else fn(inst)


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
