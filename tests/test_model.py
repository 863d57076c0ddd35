import math
import pickle

import numpy as np
import pytest

from ostflow import (
    Graph,
    Instance,
    InstanceError,
    make_solution,
    validate_instance,
)
from ostflow.model import InfeasibleInstanceError, flow_cost, require_feasible, sum_left


def test_graph_normalizes_and_sorts_edges():
    g = Graph(4, ((3, 0, 0.3), (2, 1, 0.1), (1, 0, 1.0)))
    assert g.edges == ((0, 1, 1.0), (0, 3, 0.3), (1, 2, 0.1))
    assert g.edge_count == 3
    assert flow_cost(g, {(3, 0): 1.0}) == 0.3
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)


def test_graph_total_weight_adds_in_sorted_edge_order():
    # sorted, 1.0 + 1.0 + 1e16 is 1e16 + 2; in the given order it reads 1e16
    g = Graph(3, ((1, 2, 1e16), (0, 1, 1.0), (0, 2, 1.0)))
    assert g.total_weight == sum_left(w for _, _, w in g.edges) == 1e16 + 2
    assert Graph(2, ()).total_weight == 0.0
    assert Graph(3, ((0, 1, 1e308), (1, 2, 1e308))).total_weight == math.inf


def test_graph_adjacency_is_symmetric_closure():
    g = Graph(3, ((0, 1, 0.5), (1, 2, 0.7)))
    assert g.adjacency[0] == ((1, 0.5),)
    assert g.adjacency[1] == ((0, 0.5), (2, 0.7))
    assert g.adjacency[2] == ((1, 0.7),)


@pytest.mark.parametrize(
    "edges,message",
    [
        (((0, 0, 0.3),), "self-loop"),
        (((0, 1, 0.5), (1, 0, 0.5)), "duplicate edge"),
        (((0, 5, 0.5),), "outside"),
        (((0, 1, -0.1),), "negative weight"),
        (((0, 1, float("nan")),), r"edge \(0, 1\) has non-finite weight nan"),
        (((1, 2, 0.5), (2, 0, float("inf"))), r"edge \(0, 2\) has non-finite weight inf"),
        (((0, 1, float("-inf")),), r"edge \(0, 1\) has non-finite weight -inf"),
    ],
)
def test_graph_rejects_bad_edges(edges, message):
    with pytest.raises(InstanceError, match=message):
        Graph(3, edges)


@pytest.mark.parametrize(
    "edges,message",
    [
        (((0, 1.7, 1.0),), r"edge \(0, 1\.7, 1\.0\) has non-integer node id 1\.7"),
        (((float("nan"), 1, 1.0),), r"edge \(nan, 1, 1\.0\) has non-integer node id nan"),
        (((None, 1, 1.0),), r"edge \(None, 1, 1\.0\) has non-integer node id None"),
        (((True, 1, 1.0),), r"edge \(True, 1, 1\.0\) has non-integer node id True"),
        (((0, 1, None),), r"edge \(0, 1, None\) has non-numeric weight None"),
        (((0, 1, "abc"),), r"edge \(0, 1, 'abc'\) has non-numeric weight 'abc'"),
        # the first bad edge is reported, whichever check it fails
        (((0, 2, -1.0), (0, 1.5, 1.0)), r"^edge \(0, 2\) has negative weight -1\.0$"),
        (((0, 1.5, 1.0), (0, 2, -1.0)), r"^edge \(0, 1\.5, 1\.0\) has non-integer node id 1\.5$"),
        (((0, 9, "abc"),), r"non-numeric weight 'abc'"),
        (((2, 1, float("nan")), (1, 2, 0.5)), r"^edge \(1, 2\) has non-finite weight nan$"),
        (((2, 1, 0.5), (1, 2, float("nan"))), r"^duplicate edge \(1, 2\)$"),
    ],
)
def test_graph_names_the_first_bad_edge(edges, message):
    with pytest.raises(InstanceError, match=message):
        Graph(3, edges)


def test_graph_accepts_integer_like_ids_as_ints():
    g = Graph(3, ((np.int64(2), np.int32(0), np.float64(0.5)), (1, 2, np.float32(0.25))))
    assert g.edges == ((0, 2, 0.5), (1, 2, 0.25))
    assert {type(x) for u, v, w in g.edges for x in (u, v)} == {int}
    assert type(g.edges[0][2]) is float


def test_graph_edges_and_adjacency_share_one_int_per_node():
    edges = tuple((v, v + 1, 1.0) for v in range(999))
    assert edges[500][1] is not edges[501][0]
    g = Graph(1000, edges)
    assert g.edges[500][1] is g.edges[501][0] is g.adjacency[500][1][0] is g.adjacency[502][0][0]


@pytest.mark.parametrize("count", [2.5, None, True])
def test_graph_rejects_non_integer_node_count(count):
    with pytest.raises(InstanceError, match=f"node_count must be an integer, got {count!r}"):
        Graph(count, ())


def test_reachable_from_returns_the_start_component_only():
    # components {0, 1, 2} and {3, 4}, and the isolated node 5
    g = Graph(6, ((0, 1, 0.5), (1, 2, 0.7), (3, 4, 0.2)))
    assert g.reachable_from(0) == {0, 1, 2}
    assert g.reachable_from(2) == {0, 1, 2}
    assert g.reachable_from(4) == {3, 4}
    assert g.reachable_from(5) == {5}


def test_graph_rejects_nonpositive_node_count():
    with pytest.raises(InstanceError):
        Graph(0, ())


def test_instance_rejects_source_in_terminals():
    g = Graph(2, ((0, 1, 0.5),))
    with pytest.raises(InstanceError, match="source in terminal set"):
        Instance(graph=g, source=0, terminals={0: 1.0, 1: 1.0})


def test_instance_rejects_empty_terminals():
    g = Graph(2, ((0, 1, 0.5),))
    with pytest.raises(InstanceError, match="empty"):
        Instance(graph=g, source=0, terminals={})


def test_instance_rejects_nonpositive_demand():
    g = Graph(2, ((0, 1, 0.5),))
    with pytest.raises(InstanceError, match="nonpositive demand"):
        Instance(graph=g, source=0, terminals={1: 0.0})


@pytest.mark.parametrize("demand", [float("nan"), float("inf"), float("-inf")])
def test_instance_rejects_non_finite_demand(demand):
    g = Graph(3, ((0, 1, 0.5), (1, 2, 0.5)))
    with pytest.raises(InstanceError, match=f"terminal 2 has non-finite demand {demand}"):
        Instance(graph=g, source=0, terminals={1: 1.0, 2: demand})


def test_instance_rejects_bad_source():
    g = Graph(2, ((0, 1, 0.5),))
    with pytest.raises(InstanceError, match="source"):
        Instance(graph=g, source=5, terminals={1: 1.0})


@pytest.mark.parametrize(
    "source,terminals,message",
    [
        (1.5, {2: 1.0}, r"^source 1\.5 is not an integer$"),
        (None, {2: 1.0}, r"^source None is not an integer$"),
        (True, {2: 1.0}, r"^source True is not an integer$"),
        (0, {1.5: 1.0}, r"^terminal 1\.5 is not an integer$"),
        (0, {"2": 1.0}, r"^terminal '2' is not an integer$"),
        (0, {None: 1.0}, r"^terminal None is not an integer$"),
        # a non-integer id is reported before any range check
        (0, {7: 1.0, 1.5: 1.0}, r"^terminal 1\.5 is not an integer$"),
        (0, {-1: 1.0}, r"^terminal -1 outside \[0, 3\)$"),
        (0, {3: 1.0}, r"^terminal 3 outside \[0, 3\)$"),
        (0, {1: 1.0, 2: 1.0, 9: 1.0}, r"^3 terminals exceed node_count - 1 = 2$"),
    ],
)
def test_instance_rejects_non_integer_ids(source, terminals, message):
    g = Graph(3, ((0, 1, 0.5), (1, 2, 0.5)))
    with pytest.raises(InstanceError, match=message):
        Instance(graph=g, source=source, terminals=terminals)


def test_validate_instance_path_graph_ok():
    inst = Instance(
        graph=Graph(4, ((0, 1, 0.2), (1, 2, 0.3))), source=0, terminals={2: 1.0}
    )
    assert validate_instance(inst) == []
    # require_feasible hands back the component its one search found
    assert require_feasible(inst) == {0, 1, 2}


def test_validate_instance_reports_unreachable_terminal():
    inst = Instance(
        graph=Graph(4, ((0, 1, 0.2), (2, 3, 0.3))), source=0, terminals={2: 1.0}
    )
    assert validate_instance(inst) == ["terminal 2 unreachable from source"]
    with pytest.raises(InfeasibleInstanceError) as exc:
        require_feasible(inst)
    assert exc.value.report == ["terminal 2 unreachable from source"]


def test_validate_instance_w1_empty(w1):
    assert validate_instance(w1) == []


def test_instance_terminals_are_a_read_only_copy(w1):
    given = {2: 0.25, 3: 1.0}
    inst = Instance(w1.graph, 0, given)
    with pytest.raises(TypeError):
        inst.terminals[2] = -1.0
    given[2] = -1.0
    assert inst.terminals == {2: 0.25, 3: 1.0} and inst == w1
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == inst
    with pytest.raises(TypeError):
        copy.terminals[2] = -1.0


def test_make_solution_computes_cost(w1):
    sol = make_solution(w1, {(0, 3): 1.0, (3, 1): 0.25, (1, 2): 0.25}, "x")
    assert abs(sol.cost - 0.35) <= 1e-12
    assert sol.algorithm == "x"


def test_make_solution_drops_zero_flows(w1):
    sol = make_solution(w1, {(0, 3): 1.0, (3, 1): 0.0}, "x")
    assert sol.flows == {(0, 3): 1.0}


def test_make_solution_rejects_negative_flow(w1):
    with pytest.raises(ValueError, match="negative flow"):
        make_solution(w1, {(0, 3): -1.0}, "x")


def test_make_solution_rejects_nonedge(w1):
    with pytest.raises(ValueError, match="absent"):
        make_solution(w1, {(0, 2): 1.0}, "x")


def test_instance_max_demand(w1):
    assert w1.max_demand() == 1.0
    assert w1.terminal_count == 2
