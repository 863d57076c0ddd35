"""Shared assertions and reference values for the suite."""

import hashlib
import os
from dataclasses import replace

import ostflow
from ostflow import (
    GenConfig,
    Graph,
    Instance,
    generate_instance,
    serialize_solution,
    solve_aco,
    solve_bco,
    solve_ga,
    solve_mst_prune,
    solve_sp_union,
)

W1_OPT_COST = 0.35
W1_OPT_FLOWS = {(0, 3): 1.0, (3, 1): 0.25, (1, 2): 0.25}


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


def flows_close(actual: dict, expected: dict, tol: float = 1e-9) -> bool:
    if set(actual) != set(expected):
        return False
    return all(abs(actual[k] - expected[k]) <= tol for k in expected)


def oversized_instance():
    """Path 0-1-...-40 with 40 terminals: an ost table of 41·2^40 states."""
    return Instance(
        graph=Graph(41, tuple((v, v + 1, 1.0) for v in range(40))),
        source=0,
        terminals={v: 1.0 for v in range(1, 41)},
    )


def child_env() -> dict:
    """Environment for a child Python that imports the ostflow under test.

    The package's absolute parent directory goes first on PYTHONPATH, so a
    relative entry such as ``src`` does not matter to a child in another
    working directory.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(ostflow.__file__)))
    pythonpath = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath)


def stray_component_instance():
    """Source component 0-1-2 plus a component 3-4-5 it cannot reach."""
    return Instance(
        graph=Graph(6, ((0, 1, 0.4), (1, 2, 0.3), (3, 4, 0.2), (4, 5, 0.1))),
        source=0,
        terminals={2: 1.0},
    )


def golden_instance(spec: dict):
    """Instance named by a baseline golden-table entry.

    ``{"stray": true}`` is :func:`stray_component_instance`; any other
    spec is a generator config, with every weight rounded to
    ``round_weights`` decimals when that key is not null (ties on purpose).
    """
    if spec.get("stray"):
        return stray_component_instance()
    keys = ("node_count", "avg_degree", "terminal_count", "seed")
    inst = generate_instance(GenConfig(**{k: spec[k] for k in keys}))
    digits = spec.get("round_weights")
    if digits is None:
        return inst
    edges = tuple((u, v, round(w, digits)) for u, v, w in inst.graph.edges)
    return Instance(
        graph=Graph(inst.graph.node_count, edges),
        source=inst.source,
        terminals=inst.terminals,
    )


def solution_fingerprint(sol) -> dict:
    """repr of the cost and SHA-256 of the document with runtime_ms=0."""
    doc = serialize_solution(replace(sol, runtime_ms=0.0))
    return {"cost": repr(sol.cost), "sha256": hashlib.sha256(doc.encode()).hexdigest()}


# the five baselines as fn(inst, params), keyed as in the golden table
BASELINES = {
    "mst": lambda inst, p: solve_mst_prune(inst),
    "spt": lambda inst, p: solve_sp_union(inst),
    "ga": solve_ga,
    "aco": solve_aco,
    "bco": solve_bco,
}
