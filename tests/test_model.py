import pytest

from ostflow import (
    Graph,
    Instance,
    InstanceError,
    make_solution,
    validate_instance,
)


def test_graph_normalizes_and_sorts_edges():
    g = Graph(4, ((3, 0, 0.3), (2, 1, 0.1), (1, 0, 1.0)))
    assert g.edges == ((0, 1, 1.0), (0, 3, 0.3), (1, 2, 0.1))
    assert g.edge_count == 3
    assert g.weight(3, 0) == 0.3
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)


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


def test_validate_instance_path_graph_ok():
    inst = Instance(
        graph=Graph(3, ((0, 1, 0.2), (1, 2, 0.3))), source=0, terminals={2: 1.0}
    )
    assert validate_instance(inst) == []


def test_validate_instance_reports_unreachable_terminal():
    inst = Instance(
        graph=Graph(4, ((0, 1, 0.2), (2, 3, 0.3))), source=0, terminals={2: 1.0}
    )
    assert validate_instance(inst) == ["terminal 2 unreachable from source"]


def test_validate_instance_w1_empty(w1):
    assert validate_instance(w1) == []


def test_validate_instance_catches_post_construction_mutation(w1):
    w1.terminals[2] = -1.0
    assert any("nonpositive demand" in v for v in validate_instance(w1))


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
