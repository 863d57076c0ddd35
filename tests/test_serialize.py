import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostflow import (
    FlowSolution,
    GenConfig,
    InstanceError,
    generate_instance,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)

SMALLEST = """
{
  "nodes": 2,
  "edges": [[0, 1, 0.5]],
  "source": 0,
  "terminals": [{"node": 1, "demand": 1.0}]
}
"""


def test_parse_smallest_legal_instance():
    inst = parse_instance(SMALLEST)
    assert inst.graph.node_count == 2
    assert inst.terminal_count == 1
    assert inst.graph.edges == ((0, 1, 0.5),)
    assert inst.terminals == {1: 1.0}


def test_parse_rejects_source_in_terminals():
    doc = SMALLEST.replace('{"node": 1, "demand": 1.0}', '{"node": 0, "demand": 1.0}')
    with pytest.raises(InstanceError, match="source in terminal set"):
        parse_instance(doc)


def test_parse_rejects_self_loop():
    doc = SMALLEST.replace("[0, 1, 0.5]", "[0, 0, 0.3]")
    with pytest.raises(InstanceError, match="self-loop"):
        parse_instance(doc)


def test_parse_rejects_unknown_fields():
    doc = SMALLEST.replace('"source": 0,', '"source": 0, "extra": 1,')
    with pytest.raises(InstanceError, match="unknown field"):
        parse_instance(doc)


def test_parse_rejects_missing_fields():
    doc = SMALLEST.replace('"source": 0,', "")
    with pytest.raises(InstanceError, match="missing field"):
        parse_instance(doc)


def test_parse_rejects_malformed_json():
    with pytest.raises(InstanceError, match="malformed"):
        parse_instance("{nope")


def test_parse_rejects_non_integer_ids():
    doc = SMALLEST.replace("[0, 1, 0.5]", "[0.5, 1, 0.5]")
    with pytest.raises(InstanceError, match="integer"):
        parse_instance(doc)


@pytest.mark.parametrize(
    "old,new,where",
    [
        ("[0, 1, 0.5]", "[false, 1, 0.5]", r"edges\[0\]\[0\]"),
        ("[0, 1, 0.5]", "[0, true, 0.5]", r"edges\[0\]\[1\]"),
        ('"node": 1', '"node": true', r"terminals\[0\]\.node"),
        ('"source": 0', '"source": false', "source"),
        ('"nodes": 2', '"nodes": true', "nodes"),
    ],
)
def test_parse_rejects_boolean_ids(old, new, where):
    with pytest.raises(InstanceError, match=f"^{where}: expected integer, got (True|False)$"):
        parse_instance(SMALLEST.replace(old, new))


def test_parse_rejects_duplicate_terminal():
    doc = SMALLEST.replace(
        '[{"node": 1, "demand": 1.0}]',
        '[{"node": 1, "demand": 1.0}, {"node": 1, "demand": 0.5}]',
    )
    with pytest.raises(InstanceError, match="duplicate terminal"):
        parse_instance(doc)


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("[0, 1, 0.5]", "[0, 1, NaN]", r"edge \(0, 1\) has non-finite weight nan"),
        ("[0, 1, 0.5]", "[0, 1, Infinity]", r"edge \(0, 1\) has non-finite weight inf"),
        ('"demand": 1.0', '"demand": NaN', "terminal 1 has non-finite demand nan"),
        ('"demand": 1.0', '"demand": -Infinity', "terminal 1 has non-finite demand -inf"),
        # integers too large for a float read as inf
        ("[0, 1, 0.5]", "[0, 1, 1" + "0" * 400 + "]", r"edge \(0, 1\) has non-finite weight inf"),
        ('"demand": 1.0', '"demand": 1' + "0" * 400, "terminal 1 has non-finite demand inf"),
    ],
)
def test_parse_rejects_non_finite_numbers(old, new, message):
    with pytest.raises(InstanceError, match=message):
        parse_instance(SMALLEST.replace(old, new))


def test_instance_round_trip_is_identity(w1):
    text = serialize_instance(w1)
    again = parse_instance(text)
    assert again == w1
    assert serialize_instance(again) == text


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nodes=st.integers(4, 12),
    terminals=st.integers(1, 2),
)
def test_generated_instance_round_trip(seed, nodes, terminals):
    cfg = GenConfig(node_count=nodes, avg_degree=2.5, terminal_count=terminals, seed=seed)
    inst = generate_instance(cfg)
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert serialize_instance(parse_instance(text)) == text


def test_solution_round_trip():
    sol = FlowSolution(
        flows={(0, 3): 1.0, (3, 1): 0.25}, cost=0.325, algorithm="ost", runtime_ms=1.5
    )
    text = serialize_solution(sol)
    again = parse_solution(text)
    assert again == sol
    assert serialize_solution(again) == text


def test_solution_flows_sorted_canonically():
    sol = FlowSolution(flows={(3, 1): 0.25, (0, 3): 1.0}, cost=0.325, algorithm="ost")
    text = serialize_solution(sol)
    assert text.index('"from": 0') < text.index('"from": 3')


def test_parse_solution_rejects_unknown_fields():
    with pytest.raises(InstanceError, match="unknown field"):
        parse_solution('{"algorithm": "x", "cost": 0, "flows": [], "runtime_ms": 0, "z": 1}')


_SOLUTION = '{"algorithm": "x", "cost": 0.5, "flows": [{"from": 0, "to": 1, "flow": 1.0}], "runtime_ms": 0}'


@pytest.mark.parametrize(
    "old,new,message",
    [
        ('"cost": 0.5', '"cost": NaN', "cost: expected a finite number, got nan"),
        ('"cost": 0.5', '"cost": -Infinity', "cost: expected a finite number, got -inf"),
        ('"cost": 0.5', '"cost": 1' + "0" * 400, "cost: expected a finite number, got inf"),
        ('"runtime_ms": 0', '"runtime_ms": Infinity', "runtime_ms: expected a finite number"),
        ('"flow": 1.0', '"flow": NaN', r"flows\[0\]\.flow: expected a finite number, got nan"),
    ],
)
def test_parse_solution_rejects_non_finite_numbers(old, new, message):
    assert parse_solution(_SOLUTION).cost == 0.5
    with pytest.raises(InstanceError, match=message):
        parse_solution(_SOLUTION.replace(old, new))


@pytest.mark.parametrize(
    "old,new,where",
    [
        ('"from": 0', '"from": false', "from"),
        ('"to": 1', '"to": true', "to"),
        ('"from": 0', '"from": 0.0', "from"),
    ],
)
def test_parse_solution_rejects_non_integer_ids(old, new, where):
    with pytest.raises(InstanceError, match=rf"^flows\[0\]\.{where}: expected integer, got "):
        parse_solution(_SOLUTION.replace(old, new))
