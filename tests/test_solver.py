import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ostflow import (
    GenConfig,
    Graph,
    InfeasibleInstanceError,
    Instance,
    InstanceError,
    brute_force_optimum,
    check_flow_law,
    check_tree,
    dp_grow,
    dp_init,
    dp_merge,
    generate_instance,
    reconstruct,
    serialize_solution,
    solve_ost,
)
import ostflow.solver
from ostflow.solver import LEAF, MERGE, UNSET

from helpers import W1_OPT_COST, W1_OPT_FLOWS, close, flows_close, oversized_instance

D1 = 0b01  # terminal node 2 (demand 0.25), lower node id -> bit 0
D2 = 0b10  # terminal node 3 (demand 1.0)
FULL = 0b11

GOLDEN = Path(__file__).parent / "data" / "ost_golden.json"


def test_dp_init_boundaries(w1):
    table = dp_init(w1)
    assert table.terminal_index == {2: 0, 3: 1}
    assert table.cost[2, D1] == 0.0
    assert table.cost[3, D2] == 0.0
    assert table.kind[2, D1] == LEAF
    assert table.cost[0, D1] == math.inf
    assert table.kind[0, D1] == UNSET
    # the empty subset stays unreachable everywhere
    assert all(table.cost[v, 0] == math.inf for v in range(4))
    assert table.xmax[D1] == 0.25 and table.xmax[D2] == 1.0 and table.xmax[FULL] == 1.0


def test_dp_grow_singleton_d1(w1):
    table = dp_init(w1)
    dp_grow(table, w1, D1)
    assert close(table.cost[3, D1], 0.05)
    assert close(table.cost[1, D1], 0.025)
    assert close(table.cost[0, D1], 0.125)  # path 0-3-1-2 at rate 0.25


def test_dp_grow_singleton_d2(w1):
    table = dp_init(w1)
    dp_grow(table, w1, D2)
    assert close(table.cost[0, D2], 0.3)
    assert close(table.cost[1, D2], 0.1)


def test_dp_merge_full_mask(w1):
    table = dp_init(w1)
    for mask in (D1, D2):
        dp_grow(table, w1, mask)
    dp_merge(table, w1, FULL)
    # merging the finalized singleton solutions at node 3: 0.05 + 0
    assert close(table.cost[3, FULL], 0.05)
    assert table.kind[3, FULL] == MERGE
    # at the source the two sub-solutions share edge (0,3); merge adds
    # their costs (0.125 + 0.3), and only grow from node 3 reaches 0.35
    assert close(table.cost[0, FULL], 0.425)
    assert table.kind[0, FULL] == MERGE
    assert close(table.cost[1, FULL], 0.125)


def test_dp_merge_noop_when_a_half_is_unreachable(w1):
    # before any grow the singletons are finite only at their own terminal,
    # so every split of the full mask has an infinite half everywhere
    table = dp_init(w1)
    before = table.cost.copy()
    dp_merge(table, w1, FULL)
    assert (table.cost == before).all()


def test_dp_merge_ties_take_the_first_split_on_strict_improvement():
    inst = Instance(
        graph=Graph(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0))),
        source=0,
        terminals={1: 1.0, 2: 1.0, 3: 1.0},
    )
    table = dp_init(inst)
    # every split of the full set costs 1 + 2 = 3 at every node
    for mask in range(1, 0b111):
        table.cost[:, mask] = mask.bit_count()
    table.cost[2, 0b111] = 3.0  # already as cheap as any split
    dp_merge(table, inst, 0b111)
    for v in (0, 1, 3):
        assert table.cost[v, 0b111] == 3.0
        assert table.kind[v, 0b111] == MERGE
        assert table.arg[v, 0b111] == 0b001  # lowest of 0b001, 0b011, 0b101
    assert table.kind[2, 0b111] == UNSET


def test_dp_grow_full_mask_reaches_optimum(w1):
    table = dp_init(w1)
    for mask in (D1, D2):
        dp_grow(table, w1, mask)
    dp_merge(table, w1, FULL)
    dp_grow(table, w1, FULL)
    assert close(table.cost[0, FULL], 0.35)


def test_solve_ost_w1(w1):
    sol = solve_ost(w1)
    assert close(sol.cost, W1_OPT_COST)
    assert flows_close(sol.flows, W1_OPT_FLOWS)
    assert sol.algorithm == "ost"


def test_solve_ost_w1_homogeneous(w1):
    sol = solve_ost(w1.with_demands({2: 1.0, 3: 1.0}))
    assert close(sol.cost, 0.5)
    assert flows_close(sol.flows, {(0, 3): 1.0, (3, 1): 1.0, (1, 2): 1.0})


def test_solve_ost_single_edge():
    inst = Instance(graph=Graph(2, ((0, 1, 0.5),)), source=0, terminals={1: 0.5})
    sol = solve_ost(inst)
    assert close(sol.cost, 0.25)
    assert flows_close(sol.flows, {(0, 1): 0.5})


def test_solve_ost_chain_reconstruction(chain):
    sol = solve_ost(chain)
    assert close(sol.cost, 0.5)
    assert flows_close(sol.flows, {(0, 1): 0.5, (1, 2): 0.5})


def test_solve_ost_infeasible_raises_with_report():
    inst = Instance(
        graph=Graph(4, ((0, 1, 0.2), (2, 3, 0.3))), source=0, terminals={3: 1.0}
    )
    with pytest.raises(InfeasibleInstanceError) as exc:
        solve_ost(inst)
    assert exc.value.report == ["terminal 3 unreachable from source"]


def test_solve_ost_refuses_table_larger_than_memory():
    # 41 nodes x 2^40 subsets x 13 bytes; refused before anything is allocated
    need = 41 * 2**40 * 13
    with pytest.raises(InstanceError) as exc:
        solve_ost(oversized_instance())
    message = str(exc.value)
    assert message.startswith("state space too large: 41 nodes x 2^40 terminal subsets")
    assert f"({need} bytes)" in message and "of physical memory" in message


def test_table_memory_bound_is_inclusive(w1, monkeypatch):
    # w1: 4 nodes x 2^2 subsets x 13 bytes = 208 bytes
    monkeypatch.setattr(ostflow.solver, "_physical_memory", lambda: 207)
    with pytest.raises(InstanceError, match=r"\(208 bytes\), more than the"):
        solve_ost(w1)
    monkeypatch.setattr(ostflow.solver, "_physical_memory", lambda: 208)
    assert close(solve_ost(w1).cost, W1_OPT_COST)


def test_reconstruct_boundary_state(w1):
    table = dp_init(w1)
    sol = reconstruct(table, w1, 2, D1)
    assert sol.flows == {} and sol.cost == 0.0


def test_reconstruct_unreachable_state_errors(w1):
    table = dp_init(w1)
    with pytest.raises(ValueError, match="unreachable state"):
        reconstruct(table, w1, 0, FULL)


def test_reconstruction_matches_table_cost():
    inst = generate_instance(GenConfig(node_count=20, avg_degree=3, terminal_count=4, seed=5))
    sol = solve_ost(inst)
    table = dp_init(inst)
    masks = sorted(range(1, 16), key=lambda s: (bin(s).count("1"), s))
    for mask in masks:
        if mask & (mask - 1):
            dp_merge(table, inst, mask)
        dp_grow(table, inst, mask)
    assert close(sol.cost, float(table.cost[inst.source, 15]))
    again = reconstruct(table, inst, inst.source, 15)
    assert close(again.cost, float(table.cost[inst.source, 15]))


def test_subset_monotonicity_at_fixed_points():
    for seed in range(5):
        inst = generate_instance(
            GenConfig(node_count=12, avg_degree=3, terminal_count=3, seed=seed)
        )
        table = dp_init(inst)
        masks = sorted(range(1, 8), key=lambda s: (bin(s).count("1"), s))
        for mask in masks:
            if mask & (mask - 1):
                dp_merge(table, inst, mask)
            dp_grow(table, inst, mask)
        for small in range(1, 8):
            for big in range(1, 8):
                if small & big == small:
                    for v in range(12):
                        assert table.cost[v, small] <= table.cost[v, big] + 1e-9


def test_solve_ost_deterministic():
    inst = generate_instance(GenConfig(node_count=25, avg_degree=4, terminal_count=5, seed=3))
    a, b = solve_ost(inst), solve_ost(inst)
    assert a.cost == b.cost and a.flows == b.flows


def test_ost_documents_match_golden_corpus():
    # SHA-256 and cost of each solution document (runtime_ms=0) as written
    # by the earlier union-cost merge; the additive merge must reproduce
    # every document byte for byte
    keys = ("node_count", "avg_degree", "terminal_count", "seed")
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) == 40
    for row in rows:
        inst = generate_instance(GenConfig(**{k: row[k] for k in keys}))
        doc = serialize_solution(replace(solve_ost(inst), runtime_ms=0.0))
        assert json.loads(doc)["cost"] == row["cost"], row
        assert hashlib.sha256(doc.encode()).hexdigest() == row["sha256"], row


def _zero_heavy_instance(seed: int) -> Instance:
    """Desk-size instance with about 40% of its edge weights set to 0."""
    rng = np.random.default_rng(seed)
    inst = generate_instance(
        GenConfig(
            node_count=int(rng.integers(6, 11)),
            avg_degree=3.0,
            terminal_count=int(rng.integers(2, 5)),
            seed=seed,
        )
    )
    edges = tuple(
        (u, v, 0.0 if rng.random() < 0.4 else w) for u, v, w in inst.graph.edges
    )
    return Instance(
        graph=Graph(inst.graph.node_count, edges),
        source=inst.source,
        terminals=inst.terminals,
    )


def test_zero_weight_ties_stay_exact_and_tree_shaped():
    for seed in range(150):
        inst = _zero_heavy_instance(seed)
        sol = solve_ost(inst)
        assert close(sol.cost, brute_force_optimum(inst).cost), seed
        assert check_tree(inst, sol) == [], seed
        assert check_flow_law(inst, sol) == [], seed


def test_demand_scale_equivariance_power_of_two():
    inst = generate_instance(GenConfig(node_count=15, avg_degree=3, terminal_count=4, seed=8))
    base = solve_ost(inst)
    for lam in (0.5, 2.0, 4.0):
        scaled = solve_ost(inst.with_demands({t: d * lam for t, d in inst.terminals.items()}))
        assert scaled.cost == base.cost * lam
        assert set(scaled.flows) == set(base.flows)
