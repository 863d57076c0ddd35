"""The per-layer tracer of ``perfbench/`` still finds everything it reads.

``perfbench/tracer.py`` wraps public functions by name and reads DpTable
fields after each solve; a renamed function or field, or a statistic that
is not finite, would make a traced benchmark run report null metrics.
The tracer is loaded from its file and used as is.
"""

import importlib.util
import math
from pathlib import Path

from ostflow import GenConfig, MetaheuristicParams, baselines, generate_instance, solver

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_every_layer_of_a_solve_and_the_baselines():
    tracer_module = _load_tracer()
    inst = generate_instance(GenConfig(node_count=12, avg_degree=3, terminal_count=3, seed=1))
    params = MetaheuristicParams(population=6, iterations=3, ant_count=3, seed=1)
    tracer = tracer_module.Tracer()
    with tracer.active():
        solver.solve_ost(inst)
        baselines.solve_mst_prune(inst)
        baselines.solve_sp_union(inst)
        baselines.solve_ga(inst, params)
        baselines.solve_aco(inst, params)
        baselines.solve_bco(inst, params)
    assert tracer.missing == set()
    assert tracer.notes == []
    for name in ("solve_ost", *tracer_module.SOLVER_CHILDREN):
        assert tracer.calls[f"solver.{name}"] >= 1, name
    for name in tracer_module.TARGETS["baselines"][1]:
        assert tracer.calls[f"baselines.{name}"] == 1, name
    assert set(tracer.table) == set(tracer_module.TABLE_STATS)
    assert all(math.isfinite(value) for value in tracer.table.values()), tracer.table
    assert tracer.table["finite_states"] > 0
    # the wrappers are gone again
    assert solver.solve_ost.__module__ == "ostflow.solver"
    assert solver.solve_ost.__qualname__ == "solve_ost"
