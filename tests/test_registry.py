from dataclasses import replace
from importlib import import_module

import pytest

from ostflow import GenConfig, MetaheuristicParams, generate_instance
from ostflow.registry import SOLVERS

PARAMS = MetaheuristicParams(population=8, iterations=5, ant_count=4, seed=3)


@pytest.mark.parametrize("name", list(SOLVERS))
def test_solver_functions_are_pure_and_the_registry_times_them(name):
    inst = generate_instance(GenConfig(node_count=8, avg_degree=2.5, terminal_count=3, seed=2))
    solver = SOLVERS[name]
    fn = getattr(import_module(solver.module, "ostflow"), solver.function)

    def direct():
        return fn(inst, PARAMS) if solver.tuned else fn(inst)

    first = direct()
    assert first == direct()
    assert first.runtime_ms == 0.0
    timed = solver(inst, PARAMS)
    assert timed.runtime_ms > 0
    assert replace(timed, runtime_ms=0.0) == first
