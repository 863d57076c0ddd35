"""ostflow: minimum-cost multicast flow with heterogeneous rate demands.

Exact dynamic-programming solver, brute-force oracle, feasibility and
structure validators, five comparison baselines, a seeded instance
generator, and a benchmark sweep harness with a CLI.

Every public name below is importable from the package root. Its
submodule loads on first use (PEP 562), so importing ``ostflow`` costs
nothing until a name is read, and numpy loads only with a module that
needs it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "baselines": (
        "MetaheuristicParams",
        "decode_node_subset",
        "solve_aco",
        "solve_bco",
        "solve_ga",
        "solve_mst_prune",
        "solve_sp_union",
    ),
    "bench": ("ResultRow", "SummaryRow", "SweepConfig", "emit_csv", "run_sweep", "summarize"),
    "generator": (
        "DEFAULT_DEMAND_SET",
        "GenConfig",
        "generate_instance",
        "generate_regular_instance",
    ),
    "model": (
        "FlowSolution",
        "Graph",
        "InfeasibleInstanceError",
        "Instance",
        "InstanceError",
        "make_solution",
        "validate_instance",
    ),
    "oracle": ("OracleLimits", "brute_force_optimum"),
    "registry": ("SweepKind",),
    "serialize": ("parse_instance", "parse_solution", "serialize_instance", "serialize_solution"),
    "solver": ("DpTable", "dp_grow", "dp_init", "dp_merge", "reconstruct", "solve_ost"),
    "validation": (
        "Code",
        "Violation",
        "check_constraints",
        "check_flow_law",
        "check_tree",
        "total_cost",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in the package namespace: the root always hands out what
    # the submodule holds now, so patching a submodule is seen here too.
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
