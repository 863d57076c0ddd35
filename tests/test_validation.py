import pytest

from ostflow import (
    Code,
    FlowSolution,
    Graph,
    Instance,
    check_constraints,
    check_flow_law,
    check_tree,
)
from ostflow.model import flow_cost
from ostflow.validation import check_cost

from helpers import W1_OPT_FLOWS, close


def _sol(flows, algorithm="test"):
    return FlowSolution(flows=dict(flows), cost=0.0, algorithm=algorithm)


def codes(violations):
    return {v.code for v in violations}


def test_total_cost_empty_flow_map(w1):
    assert flow_cost(w1.graph, {}) == 0.0


def test_total_cost_w1_optimum(w1):
    assert close(flow_cost(w1.graph, W1_OPT_FLOWS), 0.35)


def test_total_cost_single_edge():
    assert close(flow_cost(Graph(2, ((0, 1, 0.5),)), {(0, 1): 0.5}), 0.25)


@pytest.mark.parametrize(
    "cost,flagged",
    [
        (0.35, False),
        (0.35 + 0.9e-9, False),
        (0.35 + 1.1e-9, True),
        (0.35 - 1.1e-9, True),
        (999.0, True),
    ],
)
def test_check_cost_tolerance(w1, cost, flagged):
    sol = FlowSolution(flows=dict(W1_OPT_FLOWS), cost=cost, algorithm="test")
    assert codes(check_cost(w1, sol)) == ({Code.COST_MISMATCH} if flagged else set())


def test_check_cost_tolerance_scales_with_large_costs():
    inst = Instance(graph=Graph(2, ((0, 1, 1.0),)), source=0, terminals={1: 1e4})
    exact = FlowSolution(flows={(0, 1): 1e4}, cost=1e4 + 0.9e-5, algorithm="test")
    assert check_cost(inst, exact) == []
    off = FlowSolution(flows={(0, 1): 1e4}, cost=1e4 + 1.1e-5, algorithm="test")
    assert codes(check_cost(inst, off)) == {Code.COST_MISMATCH}


def test_check_cost_leaves_nonedge_flows_to_constraints(w1):
    sol = FlowSolution(flows={(0, 2): 1.0}, cost=5.0, algorithm="test")
    assert check_cost(w1, sol) == []
    assert codes(check_constraints(w1, sol)) >= {Code.NONEDGE_FLOW}


def test_total_cost_rejects_nonedge(w1):
    with pytest.raises(ValueError, match=r"flow on edge \(0, 2\) absent from graph"):
        flow_cost(w1.graph, {(0, 2): 1.0})


def test_constraints_w1_optimum_clean(w1):
    assert check_constraints(w1, _sol(W1_OPT_FLOWS)) == []


def test_constraints_flag_starved_terminal(w1):
    flows = dict(W1_OPT_FLOWS)
    flows[(1, 2)] = 0.1
    report = check_constraints(w1, _sol(flows))
    assert codes(report) == {Code.TERMINAL_DEMAND}
    assert any("node 2" in v.location for v in report)


def test_constraints_flag_undersupply(w1):
    report = check_constraints(w1, _sol({(0, 3): 0.5}))
    assert Code.SOURCE_SUPPLY in codes(report)
    assert Code.TERMINAL_DEMAND in codes(report)


def test_constraints_flag_nonpositive_flow(w1):
    report = check_constraints(w1, _sol({(0, 3): -1.0, (3, 1): 0.0}))
    assert sum(1 for v in report if v.code is Code.NEG_FLOW) == 2


@pytest.mark.parametrize("pair", [(0, 2), (-1, 0), (0, 4), (0, 10**20), (0.0, 1.0), (True, 3)])
def test_constraints_flag_nonedge_flow(w1, pair):
    # w1 has 4 nodes and no edge {0, 2}; an id outside [0, 4), or one that
    # is no integer although it hashes like edge (0, 1) or (1, 3), is no
    # edge either, and is reported before any per-node list is indexed by it
    report = check_constraints(w1, _sol({**W1_OPT_FLOWS, pair: 1.0}))
    assert [(v.code, v.location) for v in report] == [
        (Code.NONEDGE_FLOW, f"({pair[0]},{pair[1]})")
    ]


def test_constraints_flag_relay_overdraw(w1):
    # node 3 pushes 1.0 while receiving only 0.5
    report = check_constraints(w1, _sol({(0, 3): 0.5, (3, 1): 1.0, (1, 2): 1.0}))
    assert Code.RELAY_CONSERVATION in codes(report)
    assert any("node 3" in v.location for v in report)


def test_constraints_accept_exact_equality(w1):
    # weak inequalities: supplying exactly the demands is feasible
    assert check_constraints(w1, _sol(W1_OPT_FLOWS)) == []


def test_tree_w1_optimum_clean_with_interior_terminal(w1):
    # node 3 is a terminal and an interior node; that is accepted
    assert check_tree(w1, _sol(W1_OPT_FLOWS)) == []


def test_tree_flags_cycle(w1):
    flows = dict(W1_OPT_FLOWS)
    flows[(0, 1)] = 0.25
    report = check_tree(w1, _sol(flows))
    assert codes(report) == {Code.NOT_TREE}


def test_tree_flags_missing_source(w1):
    report = check_tree(w1, _sol({(1, 2): 0.25}))
    assert codes(report) == {Code.NOT_TREE}
    assert "source" in report[0].detail


def test_tree_flags_missing_terminal(w1):
    report = check_tree(w1, _sol({(0, 3): 1.0}))
    assert codes(report) == {Code.NOT_TREE}
    assert "terminal" in report[0].detail


def test_tree_flags_bad_orientation(w1):
    flows = {(0, 3): 1.0, (1, 3): 0.25, (1, 2): 0.25}  # 1->3 points rootward
    report = check_tree(w1, _sol(flows))
    assert Code.BAD_ORIENTATION in codes(report)


def test_tree_flags_antiparallel_flows(w1):
    flows = dict(W1_OPT_FLOWS)
    flows[(3, 0)] = 0.5
    report = check_tree(w1, _sol(flows))
    assert codes(report) == {Code.NOT_TREE}
    assert "both directions" in report[0].detail


def test_tree_flags_non_terminal_leaf():
    inst = Instance(
        graph=Graph(4, ((0, 1, 0.2), (1, 2, 0.3), (1, 3, 0.4))),
        source=0,
        terminals={2: 1.0},
    )
    flows = {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0}
    report = check_tree(inst, _sol(flows))
    assert codes(report) == {Code.LEAF_NOT_TERMINAL}
    assert any("node 3" in v.location for v in report)


def test_flow_law_w1_optimum_clean(w1):
    assert check_flow_law(w1, _sol(W1_OPT_FLOWS)) == []


@pytest.mark.parametrize("relay", [1, 9])  # 9 is no node of the graph
def test_flow_law_flags_excess_flow(w1, relay):
    # the law reads the support's own parent map, so a relay id outside
    # the graph is judged like any other
    flows = {(0, 3): 1.0, (3, relay): 1.0, (relay, 2): 0.25}
    report = check_flow_law(w1, _sol(flows))
    assert codes(report) == {Code.FLOW_LAW}
    assert [v.location for v in report] == [f"(3,{relay})"]
    assert report[0].detail == "flow 1.0 but max demand below is 0.25"


def test_flow_law_reports_the_tree_violations_first(w1):
    # a non-tree gets no flow-law verdict, only its shape violations
    sol = _sol({(1, 2): 0.25})
    assert check_flow_law(w1, sol) == check_tree(w1, sol) != []


def test_violation_rendering(w1):
    report = check_constraints(w1, _sol({(0, 2): 1.0}))
    line = str(report[0])
    assert line.startswith("NONEDGE_FLOW")
    assert "(0,2)" in line
