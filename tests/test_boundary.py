"""Outside input that is not an integer or a real number fails where it
enters the library, with an error that names the field, edge or terminal."""

import math
import re

import numpy as np
import pytest

from ostflow import (
    GenConfig,
    Graph,
    Instance,
    InstanceError,
    MetaheuristicParams,
    OracleLimits,
    SweepConfig,
    SweepKind,
    generate_regular_instance,
)
from ostflow.model import as_float, as_int, cost_ceiling

PATH = Graph(3, ((0, 1, 0.5), (1, 2, 0.5)))
MAX = 1.7976931348623157e308  # the largest float: finite, but no margin fits above it
GEN = dict(node_count=10, avg_degree=3, terminal_count=2)
SWEEP = dict(sweep_kind=SweepKind.NODE_COUNT, values=(10,), trials=1)


@pytest.mark.parametrize(
    "build,error,message",
    [
        # Instance demands
        (lambda: Instance(PATH, 0, {2: None}), InstanceError,
         "terminal 2 has non-numeric demand None"),
        (lambda: Instance(PATH, 0, {2: "abc"}), InstanceError,
         "terminal 2 has non-numeric demand 'abc'"),
        (lambda: Instance(PATH, 0, {2: "0.5"}), InstanceError,
         "terminal 2 has non-numeric demand '0.5'"),
        (lambda: Instance(PATH, 0, {2: 1 + 0j}), InstanceError,
         "terminal 2 has non-numeric demand (1+0j)"),
        (lambda: Instance(PATH, 0, {2: True}), InstanceError,
         "terminal 2 has non-numeric demand True"),
        (lambda: Instance(PATH, 0, {2: 10**400}), InstanceError,
         "terminal 2 has non-finite demand inf"),
        # weight x demand: the cost bound (model.cost_ceiling) must be finite
        (lambda: Instance(Graph(3, ((0, 1, 1e308), (1, 2, 1.0))), 0, {2: 10.0}), InstanceError,
         "total edge weight 1e+308 x largest demand 10.0 overflows a float cost bound;"
         " the heaviest edge is (0, 1) with weight 1e+308"),
        (lambda: Instance(Graph(3, ((0, 1, 1e308), (1, 2, 1e308))), 0, {2: 1e-300}),
         InstanceError,
         "total edge weight inf x largest demand 1e-300 overflows a float cost bound;"
         " the heaviest edge is (0, 1) with weight 1e+308"),
        (lambda: Instance(Graph(3, ((0, 1, 1.0), (1, 2, MAX))), 0, {1: 0.5, 2: 1.0}),
         InstanceError,
         f"total edge weight {MAX} x largest demand 1.0 overflows a float cost bound;"
         f" the heaviest edge is (1, 2) with weight {MAX}"),
        # Graph weights
        (lambda: Graph(3, ((0, 1, 10**400),)), InstanceError,
         "edge (0, 1) has non-finite weight inf"),
        (lambda: Graph(3, ((0, 1, True),)), InstanceError,
         "edge (0, 1, True) has non-numeric weight True"),
        (lambda: Graph(3, ((0, 1, "0.25"),)), InstanceError,
         "edge (0, 1, '0.25') has non-numeric weight '0.25'"),
        # GenConfig counts, seed, degree and demand set
        (lambda: GenConfig(**{**GEN, "node_count": 10.5}), InstanceError,
         "node_count must be an integer, got 10.5"),
        (lambda: GenConfig(**{**GEN, "terminal_count": 2.5}), InstanceError,
         "terminal_count must be an integer, got 2.5"),
        (lambda: GenConfig(**{**GEN, "seed": 1.5}), InstanceError,
         "seed must be an integer, got 1.5"),
        (lambda: GenConfig(**{**GEN, "seed": True}), InstanceError,
         "seed must be an integer, got True"),
        (lambda: GenConfig(True, 4, 2), InstanceError,
         "node_count must be an integer, got True"),
        (lambda: GenConfig(**GEN, demand_set=((None, 1.0),)), InstanceError,
         "demand_set must hold number pairs, got ((None, 1.0),)"),
        (lambda: GenConfig(**GEN, demand_set=((1.0, "1"),)), InstanceError,
         "demand_set must hold number pairs, got ((1.0, '1'),)"),
        (lambda: GenConfig(**{**GEN, "avg_degree": None}), InstanceError,
         "avg_degree must be a number, got None"),
        (lambda: GenConfig(**GEN, demand_set=((math.nan, 1.0),)), InstanceError,
         "demand value nan must be finite"),
        (lambda: GenConfig(**GEN, demand_set=((math.inf, 1.0),)), InstanceError,
         "demand value inf must be finite"),
        # regular degree: the one integer rule (a float, even 3.0, is none)
        *[(lambda d=d: generate_regular_instance(GenConfig(**GEN), d), InstanceError,
           f"regular degree must be an integer, got {d!r}") for d in (2.5, 3.0, "3", None, True)],
        # MetaheuristicParams counts, seed and rates
        (lambda: MetaheuristicParams(population=2.5), ValueError,
         "population must be an integer, got 2.5"),
        (lambda: MetaheuristicParams(iterations=1.5), ValueError,
         "iterations must be an integer, got 1.5"),
        (lambda: MetaheuristicParams(tournament_size=1.5), ValueError,
         "tournament_size must be an integer, got 1.5"),
        (lambda: MetaheuristicParams(ant_count=2.5), ValueError,
         "ant_count must be an integer, got 2.5"),
        (lambda: MetaheuristicParams(seed=1.5), ValueError,
         "seed must be an integer, got 1.5"),
        (lambda: MetaheuristicParams(abandonment_limit=2.5), ValueError,
         "abandonment_limit must be an integer, got 2.5"),
        (lambda: MetaheuristicParams(crossover_rate=None), ValueError,
         "crossover_rate must be a number, got None"),
        (lambda: MetaheuristicParams(evaporation="0.5"), ValueError,
         "evaporation must be a number, got '0.5'"),
        # SweepConfig counts and values
        (lambda: SweepConfig(**{**SWEEP, "trials": 1.5}), ValueError,
         "trials must be an integer, got 1.5"),
        (lambda: SweepConfig(**SWEEP, ost_terminal_cap=1.5), ValueError,
         "ost_terminal_cap must be an integer, got 1.5"),
        (lambda: SweepConfig(**{**SWEEP, "values": ("a",)}), ValueError,
         "values must be numbers, got ('a',)"),
        # OracleLimits caps
        (lambda: OracleLimits(max_nodes=None), ValueError,
         "max_nodes must be an integer, got None"),
        (lambda: OracleLimits(max_edges=2.5), ValueError,
         "max_edges must be an integer, got 2.5"),
        (lambda: OracleLimits(max_nodes=0), ValueError,
         "max_nodes must be positive, got 0"),
    ],
)
def test_bad_outside_input_fails_at_the_boundary(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error


def test_integer_and_number_rules():
    assert [as_int(x) for x in (3, np.int64(3), np.uint8(3))] == [3, 3, 3]
    assert all(type(as_int(x)) is int for x in (np.int64(3), 2**70))
    assert [as_int(x) for x in (True, 3.0, "3", None, np.float64(3))] == [None] * 5
    assert [as_float(x) for x in (0.25, 1, np.float32(0.25), np.int64(2))] == [0.25, 1.0, 0.25, 2.0]
    assert [as_float(x) for x in (10**400, -(10**400))] == [math.inf, -math.inf]
    assert [as_float(x) for x in (False, "0.5", None, 1j)] == [None] * 4
    assert math.isnan(as_float(math.nan))


def test_cost_bound_just_below_the_float_limit_is_accepted():
    # 2^-30 of the product fits above 1e308, so every solver has a finite
    # penalty; the same weight at the largest float does not
    inst = Instance(Graph(3, ((0, 1, 1e308), (1, 2, 1.0))), 0, {2: 1.0})
    assert inst.graph.total_weight == 1e308
    assert math.isfinite(cost_ceiling(inst.graph, inst.max_demand()))
    assert cost_ceiling(inst.graph, inst.max_demand()) > 1e308
