import hashlib
import heapq
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
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
    generate_instance,
    serialize_solution,
    solve_ost,
    validate_instance,
)
import ostflow.solver
from ostflow.solver import (
    EXTEND,
    LEAF,
    MERGE,
    STATE_BYTES,
    UNSET,
    _splits,
    decision,
    dp_grow,
    dp_init,
    dp_merge,
    reconstruct,
)

from helpers import (
    W1_OPT_COST,
    W1_OPT_FLOWS,
    child_env,
    close,
    flows_close,
    oversized_instance,
    reference_grow_chunk,
    slow,
    solution_fingerprint,
    tie_golden_instance,
    with_demands,
)

D1 = 0b01  # terminal node 2 (demand 0.25), lower node id -> bit 0
D2 = 0b10  # terminal node 3 (demand 1.0)
FULL = 0b11

GOLDEN = Path(__file__).parent / "data" / "ost_golden.json"
TIE_GOLDEN = Path(__file__).parent / "data" / "ost_tie_golden.json"


def test_dp_init_boundaries(w1):
    table = dp_init(w1)
    assert table.terminal_index == {2: 0, 3: 1}
    assert table.cost[D1, 2] == 0.0
    assert table.cost[D2, 3] == 0.0
    assert table.kind[D1, 2] == LEAF
    assert table.cost[D1, 0] == math.inf
    assert table.kind[D1, 0] == UNSET
    # the empty subset stays unreachable everywhere
    assert all(table.cost[0, v] == math.inf for v in range(4))
    assert table.xmax[D1] == 0.25 and table.xmax[D2] == 1.0 and table.xmax[FULL] == 1.0


def test_dp_grow_singleton_d1(w1):
    table = dp_init(w1)
    dp_grow(table, [D1])
    assert close(table.cost[D1, 3], 0.05)
    assert close(table.cost[D1, 1], 0.025)
    assert close(table.cost[D1, 0], 0.125)  # path 0-3-1-2 at rate 0.25


def test_dp_grow_singleton_d2(w1):
    table = dp_init(w1)
    dp_grow(table, [D2])
    assert close(table.cost[D2, 0], 0.3)
    assert close(table.cost[D2, 1], 0.1)


def test_dp_merge_full_mask(w1):
    table = dp_init(w1)
    dp_grow(table, [D1, D2])
    dp_merge(table, [FULL])
    # merging the finalized singleton solutions at node 3: 0.05 + 0
    assert close(table.cost[FULL, 3], 0.05)
    assert table.kind[FULL, 3] == MERGE
    # at the source the two sub-solutions share edge (0,3); merge adds
    # their costs (0.125 + 0.3), and only grow from node 3 reaches 0.35
    assert close(table.cost[FULL, 0], 0.425)
    assert table.kind[FULL, 0] == MERGE
    assert close(table.cost[FULL, 1], 0.125)


def test_dp_merge_noop_when_a_half_is_unreachable(w1):
    # before any grow the singletons are finite only at their own terminal,
    # so every split of the full mask has an infinite half everywhere
    table = dp_init(w1)
    before = table.cost.copy()
    dp_merge(table, [FULL])
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
        table.cost[mask] = mask.bit_count()
    table.cost[0b111, 2] = 3.0  # already as cheap as any split
    dp_merge(table, [0b111])
    for v in (0, 1, 3):
        assert table.cost[0b111, v] == 3.0
        assert table.kind[0b111, v] == MERGE
        assert decision(table, v, 0b111) == 0b001  # lowest of 0b001, 0b011, 0b101


def test_dp_grow_full_mask_reaches_optimum(w1):
    table = dp_init(w1)
    dp_grow(table, [D1, D2])
    dp_merge(table, [FULL])
    dp_grow(table, [FULL])
    assert close(table.cost[FULL, 0], 0.35)


def test_solve_ost_w1(w1):
    sol = solve_ost(w1)
    assert close(sol.cost, W1_OPT_COST)
    assert flows_close(sol.flows, W1_OPT_FLOWS)
    assert sol.algorithm == "ost"


def test_solve_ost_w1_homogeneous(w1):
    sol = solve_ost(with_demands(w1, {2: 1.0, 3: 1.0}))
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
    # 41 nodes x 2^40 subsets x STATE_BYTES; refused before anything is allocated
    need = 41 * 2**40 * STATE_BYTES
    with pytest.raises(InstanceError) as exc:
        solve_ost(oversized_instance())
    message = str(exc.value)
    assert message.startswith("state space too large: 41 nodes x 2^40 terminal subsets")
    assert f"({need} bytes)" in message and "of physical memory" in message


def test_solve_ost_reports_every_unreachable_terminal_as_the_validator_does():
    inst = Instance(
        graph=Graph(6, ((0, 1, 0.5), (1, 2, 0.5), (4, 5, 0.5))),
        source=0,
        terminals={5: 1.0, 2: 0.5, 3: 0.25},
    )
    with pytest.raises(InfeasibleInstanceError) as exc:
        solve_ost(inst)
    assert exc.value.report == validate_instance(inst) == [
        "terminal 3 unreachable from source",
        "terminal 5 unreachable from source",
    ]


def test_solve_ost_reports_an_oversized_infeasible_instance_as_infeasible():
    # the table is refused for its size, but infeasibility is reported first
    big = oversized_instance()
    inst = Instance(Graph(42, big.graph.edges), 0, {**big.terminals, 41: 1.0})
    with pytest.raises(InfeasibleInstanceError) as exc:
        solve_ost(inst)
    assert exc.value.report == ["terminal 41 unreachable from source"]


def test_solve_ost_on_an_overflowing_edge_cost_is_refused_at_the_boundary():
    # 1e308 x demand 10 is inf: the instance is refused, naming the edge
    graph = Graph(3, ((0, 1, 1e308), (1, 2, 1.0)))
    message = (
        "total edge weight 1e+308 x largest demand 10.0 overflows a float cost bound;"
        " the heaviest edge is (0, 1) with weight 1e+308"
    )
    with pytest.raises(InstanceError) as exc:
        Instance(graph, 0, {2: 10.0})
    assert str(exc.value) == message


def test_solve_ost_below_the_overflow_bound_is_exact_without_warnings():
    # candidates that revisit a 6e307 edge overflow to inf and lose quietly
    inst = Instance(Graph(3, ((0, 1, 6e307), (0, 2, 6e307))), 0, {1: 1.0, 2: 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ost(inst)
    assert sol.cost == 1.2e308
    assert sol.flows == {(0, 1): 1.0, (0, 2): 1.0}


def test_solve_ost_runs_no_reachability_search(monkeypatch):
    inst = generate_instance(GenConfig(node_count=60, avg_degree=4, terminal_count=5, seed=3))
    expected = solve_ost(inst)

    def search(graph, start):
        raise AssertionError("reachability searched")

    monkeypatch.setattr(Graph, "reachable_from", search)
    assert solve_ost(inst) == expected


def test_table_memory_bound_is_inclusive(w1, monkeypatch):
    # w1: 4 nodes x 2^2 subsets x STATE_BYTES (12 bytes: 192); the
    # refusal names the limit that bound it
    need = 4 * 2**2 * STATE_BYTES
    monkeypatch.setattr(ostflow.solver, "_memory_limit", lambda: (need - 1, "the soft RLIMIT_AS"))
    refusal = rf"\({need} bytes\), more than the 0\.0 GiB of the soft RLIMIT_AS$"
    with pytest.raises(InstanceError, match=refusal):
        solve_ost(w1)
    monkeypatch.setattr(ostflow.solver, "_memory_limit", lambda: (need, "the soft RLIMIT_AS"))
    assert close(solve_ost(w1).cost, W1_OPT_COST)
    monkeypatch.setattr(ostflow.solver, "_memory_limit", lambda: None)
    assert close(solve_ost(w1).cost, W1_OPT_COST)


def _fake_limits(monkeypatch, physical, rlimit_as=None, rlimit_data=None):
    # None stands for an unlimited soft limit
    resource = pytest.importorskip("resource")
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": physical // 4096}
    monkeypatch.setattr(ostflow.solver.os, "sysconf", pages.__getitem__)
    soft = {resource.RLIMIT_AS: rlimit_as, resource.RLIMIT_DATA: rlimit_data}
    unlimited = resource.RLIM_INFINITY
    monkeypatch.setattr(resource, "getrlimit", lambda which: (
        unlimited if soft[which] is None else soft[which], unlimited))


@pytest.mark.parametrize("v2", [True, False])
def test_memory_limit_reads_the_own_cgroup(tmp_path, monkeypatch, v2):
    _fake_limits(monkeypatch, 2**34)
    own = "/app/job" if v2 else "/job"
    self_cgroup = tmp_path / "cgroup"
    self_cgroup.write_text(f"0::{own}\n" if v2 else f"5:cpu:/other\n4:memory:{own}\n0::/\n")
    folder = tmp_path / "fs" / ("" if v2 else "memory") / own.lstrip("/")
    folder.mkdir(parents=True)
    file = folder / ("memory.max" if v2 else "memory.limit_in_bytes")
    read = ostflow.solver._memory_limit.__wrapped__
    file.write_text(f"{2**30}\n")
    assert read(str(self_cgroup), str(tmp_path / "fs")) == (2**30, f"the cgroup limit {file}")
    # an ancestor's limit binds too: v2's parent /app, v1's hierarchy root
    parent = folder.parent / file.name
    parent.write_text(f"{2**29}\n")
    assert read(str(self_cgroup), str(tmp_path / "fs")) == (2**29, f"the cgroup limit {parent}")
    parent.write_text(f"{2**31}\n")
    assert read(str(self_cgroup), str(tmp_path / "fs")) == (2**30, f"the cgroup limit {file}")
    file.write_text("max\n")
    assert read(str(self_cgroup), str(tmp_path / "fs")) == (2**31, f"the cgroup limit {parent}")
    parent.unlink()
    assert read(str(self_cgroup), str(tmp_path / "fs")) == (2**34, "physical memory")
    file.unlink()
    assert read(str(self_cgroup), str(tmp_path / "fs")) == (2**34, "physical memory")
    assert read(str(tmp_path / "absent"), str(tmp_path / "fs")) == (2**34, "physical memory")


def test_memory_limit_takes_the_tightest_soft_rlimit(tmp_path, monkeypatch):
    read = ostflow.solver._memory_limit.__wrapped__
    _fake_limits(monkeypatch, 2**34, rlimit_as=2**33, rlimit_data=2**32)
    assert read(str(tmp_path / "absent"), str(tmp_path)) == (2**32, "the soft RLIMIT_DATA")
    _fake_limits(monkeypatch, 2**34, rlimit_as=2**33)
    assert read(str(tmp_path / "absent"), str(tmp_path)) == (2**33, "the soft RLIMIT_AS")


def test_reconstruct_boundary_state(w1):
    table = dp_init(w1)
    sol = reconstruct(table, w1, 2, D1)
    assert sol.flows == {} and sol.cost == 0.0


def test_reconstruct_unreachable_state_errors(w1):
    table = dp_init(w1)
    with pytest.raises(ValueError, match="unreachable state"):
        reconstruct(table, w1, 0, FULL)


def test_decision_refuses_an_unreached_state_of_two_terminals(w1):
    # every split of an unreached state can have unreached halves, and
    # inf + inf == inf: the state still reads UNSET and has no decision
    table = dp_init(w1)
    assert table.kind[FULL, 0] == UNSET
    with pytest.raises(ValueError, match=r"^inconsistent table: .* \(node 0, subset 0x3\)$"):
        decision(table, 0, FULL)


def test_reconstruct_refuses_a_record_cycle(w1):
    # hand-made records: (0, D1) and (1, D1) are EXTEND states changed in
    # the same sweep, at a value so large that edge 0-1 adds nothing to it;
    # each reaches the other's value, but neither changed earlier, so
    # neither is the other's predecessor
    table = dp_init(w1)
    table.cost[D1, [0, 1]] = 1e17
    table.arg[D1, [0, 1]] = 1
    with pytest.raises(ValueError, match=r"reproduces the cost at \(node 0, subset 0x1\)$"):
        reconstruct(table, w1, 0, D1)


def test_reconstruct_names_a_state_that_no_decision_reproduces(w1):
    table = _filled(w1, per_subset=False)
    assert table.kind[FULL, 3] == MERGE and table.kind[FULL, 0] == EXTEND
    # no split sums to the merged value at node 3 any more, and node 0's
    # extension from node 3 no longer adds up either
    table.cost[FULL, 3] += 0.01
    for node in (3, 0):
        message = ("inconsistent table: no split or neighbour reproduces the cost at "
                   f"(node {node}, subset 0x3)")
        with pytest.raises(ValueError) as exc:
            reconstruct(table, w1, node, FULL)
        assert str(exc.value) == message


def _layers(k: int) -> list[list[int]]:
    """Nonempty subsets of k terminals, grouped by popcount, ascending."""
    return [[s for s in range(1, 1 << k) if s.bit_count() == p] for p in range(1, k + 1)]


def _filled(inst: Instance, per_subset: bool):
    """The finished table, filled one layer or one subset per call (merge
    leaves singletons alone)."""
    table = dp_init(inst)
    for layer in _layers(len(inst.terminals)):
        for batch in ([s] for s in layer) if per_subset else [layer]:
            dp_merge(table, batch)
            dp_grow(table, batch)
    return table


BATCH_CASES = [(12, 3, 4, 1), (20, 3, 5, 2), (40, 4, 6, 3), (25, 2.2, 6, 4), (60, 5, 5, 5)]


def _assert_same_tables(a, b):
    # cost and arg determine every state's kind
    assert a.cost.tobytes() == b.cost.tobytes()
    assert a.arg.tobytes() == b.arg.tobytes()


@pytest.mark.parametrize("n, degree, k, seed", BATCH_CASES)
def test_layer_calls_match_per_subset_calls(n, degree, k, seed):
    inst = generate_instance(
        GenConfig(node_count=n, avg_degree=degree, terminal_count=k, seed=seed)
    )
    _assert_same_tables(_filled(inst, per_subset=False), _filled(inst, per_subset=True))


def _best_first_grow(table, inst: Instance, subset: int) -> dict[int, int]:
    """Reference grow for one subset: a heapq Dijkstra seeded with every
    finite entry; ties settle lower node ids first and only a strict
    improvement counts. Returns each improved node's predecessor."""
    xm = table.xmax[subset]
    dist = table.cost[subset].tolist()
    heap = [(d, v) for v, d in enumerate(dist) if d < math.inf]
    heapq.heapify(heap)
    settled = [False] * len(dist)
    improved = {}
    while heap:
        d, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        for u, w in inst.graph.adjacency[v]:
            if d + xm * w < dist[u]:
                dist[u] = d + xm * w
                improved[u] = v
                heapq.heappush(heap, (dist[u], u))
    table.cost[subset] = dist
    return improved


def _proper_halves(subset: int) -> list[int]:
    """Every proper subset F of ``subset`` holding its lowest bit, ascending."""
    low = subset & -subset
    return [f for f in range(low, subset) if f & subset == f and f & low]


@pytest.mark.parametrize("k", range(1, 7))
def test_split_plan_gives_every_proper_half_in_ascending_order(k):
    # each popcount layer is planned at once, as dp_merge plans it, and one
    # subset alone, as decision plans it
    for layer in _layers(k):
        places, pattern = _splits(np.array(layer))
        assert pattern.shape == (layer[0].bit_count(), (1 << (layer[0].bit_count() - 1)) - 1)
        assert np.matmul(places, pattern).tolist() == [_proper_halves(s) for s in layer]
        for subset in layer:
            assert np.matmul(*_splits(np.array([subset])))[0].tolist() == _proper_halves(subset)


def _first_least_split(cost: np.ndarray, node: int, subset: int) -> int:
    """Half F of the first least split of ``subset`` at ``node``, F holding
    the subset's lowest bit, by ascending F."""
    halves = _proper_halves(subset)
    sums = [cost[f, node] + cost[subset ^ f, node] for f in halves]
    return halves[sums.index(min(sums))]


@pytest.mark.parametrize("n, degree, k, seed", BATCH_CASES + [(300, 4, 5, 6)])
@pytest.mark.parametrize("integer_weights", [False, True])
def test_grow_matches_best_first_records(n, degree, k, seed, integer_weights):
    inst = generate_instance(
        GenConfig(node_count=n, avg_degree=degree, terminal_count=k, seed=seed)
    )
    if integer_weights:
        # weights 1, 2, 3: many neighbours reach a node at the same value
        edges = tuple((u, v, float(1 + int(3 * w))) for u, v, w in inst.graph.edges)
        inst = replace(inst, graph=Graph(inst.graph.node_count, edges))
    reference = dp_init(inst)
    predecessor = {}
    for layer in _layers(k):
        dp_merge(reference, layer)
        for subset in layer:
            predecessor[subset] = _best_first_grow(reference, inst, subset)
    table = _filled(inst, per_subset=False)
    assert table.cost.tobytes() == reference.cost.tobytes()
    for subset in range(1, 1 << k):
        # grow's sweep record is nonzero exactly at the states it improved
        assert np.flatnonzero(table.arg[subset] > 0).tolist() == sorted(predecessor[subset])
    kinds = table.kind
    for subset, node in zip(*map(np.ndarray.tolist, np.nonzero(kinds >= MERGE))):
        if kinds[subset, node] == EXTEND:
            expected = predecessor[subset][node]
        else:
            expected = _first_least_split(table.cost, node, subset)
        assert decision(table, node, subset) == expected, (subset, node)


# the last case has more nodes than CHUNK_ELEMENTS, and so more arcs: even
# at the default budget one grow row and one merge split row exceed it
@pytest.mark.parametrize("n, degree, k, seed", BATCH_CASES + [(66000, 2.2, 3, 1)])
def test_tables_do_not_depend_on_chunk_size(n, degree, k, seed, monkeypatch):
    inst = generate_instance(
        GenConfig(node_count=n, avg_degree=degree, terminal_count=k, seed=seed)
    )
    whole = _filled(inst, per_subset=False)
    # one subset (and one split) per chunk
    monkeypatch.setattr(ostflow.solver, "CHUNK_ELEMENTS", 1)
    _assert_same_tables(whole, _filled(inst, per_subset=False))
    # with one subset (and one split) per chunk, the two chunk buffers
    # hold one grow row, and the row buffers and the flags one node row
    workspace = dp_init(inst).workspace
    row = max(n, 2 * inst.graph.edge_count)
    assert [b.size for b in workspace.real] == [row, row, n, n, n]
    assert workspace.flag.size == n


@pytest.mark.parametrize("chunk", [ostflow.solver.CHUNK_ELEMENTS, 1])
def test_grow_matches_row_compacting_reference(chunk, monkeypatch):
    # the in-place grow relaxes converged rows and unmoved tails too; the
    # sweep record in arg, not only the documents, must come out the same
    monkeypatch.setattr(ostflow.solver, "CHUNK_ELEMENTS", chunk)
    insts = [generate_instance(GenConfig(node_count=n, avg_degree=d, terminal_count=k, seed=s))
             for n, d, k, s in BATCH_CASES]
    insts += [tie_golden_instance(row["instance"]) for row in json.loads(TIE_GOLDEN.read_text())]
    for inst in insts:
        table = _filled(inst, per_subset=False)
        with monkeypatch.context() as patch:
            patch.setattr(ostflow.solver, "_grow_chunk", reference_grow_chunk)
            _assert_same_tables(table, _filled(inst, per_subset=False))


def _path_table():
    """Table of the path 0-1-...-5, source 2, terminals 0 (D1) and 5 (D2)."""
    edges = tuple((v, v + 1, 0.1 * (v + 1)) for v in range(5))
    return dp_init(Instance(graph=Graph(6, edges), source=2, terminals={0: 0.25, 5: 1.0}))


@pytest.mark.parametrize("chunk", [ostflow.solver.CHUNK_ELEMENTS, 1])
def test_grow_records_sweeps_past_255(chunk, monkeypatch):
    # the path 0-1-...-299 with its terminal at node 299: node v last falls
    # in sweep 299 - v, more sweeps than an 8-bit record could hold
    monkeypatch.setattr(ostflow.solver, "CHUNK_ELEMENTS", chunk)
    edges = tuple((v, v + 1, 1.0) for v in range(299))
    table = dp_init(Instance(graph=Graph(300, edges), source=0, terminals={299: 1.0}))
    dp_grow(table, [1])
    assert table.arg[1].tolist() == list(range(299, -1, -1))


def test_dp_grow_returns_at_once_on_an_unreached_row():
    table = _path_table()
    table.cost[FULL] = math.inf
    table.arg[FULL] = 7
    table.workspace.real[0].fill(-1.0)
    dp_grow(table, [FULL])
    assert np.isinf(table.cost[FULL]).all()
    assert not table.arg[FULL].any()
    # no sweep gathered a candidate
    assert (table.workspace.real[0] == -1.0).all()


def test_dp_grow_chunk_with_a_settled_row_matches_growing_each_alone():
    together, alone = _path_table(), _path_table()
    for table in (together, alone):
        dp_grow(table, [D1])
    dp_grow(together, [D1, D2])
    for subset in (D1, D2):
        dp_grow(alone, [subset])
    _assert_same_tables(together, alone)
    # D1 was at its fixed point; D2 falls from node 5 to node 0 in five sweeps
    assert not together.arg[D1].any()
    assert together.arg[D2].tolist() == [5, 4, 3, 2, 1, 0]


def test_workspace_bounds_solve_memory():
    # exact-wide shape: the table, a workspace sized to the solve's largest
    # chunk and little else; the excess read 2.9 units when every chunk
    # allocated its own temporaries, 3.3 with eleven chunk-sized workspace
    # buffers and 1.6 with two, the others sized to a chunk's rows
    inst = generate_instance(GenConfig(node_count=1000, avg_degree=4, terminal_count=4, seed=2))
    table_bytes = (1 << 4) * 1000 * ostflow.solver.STATE_BYTES
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_ost(inst)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= table_bytes + 2 * ostflow.solver.CHUNK_ELEMENTS * 8, peak


FAULT_PROBE = """
import resource
from ostflow import GenConfig, generate_instance, solve_ost
insts = [generate_instance(GenConfig(node_count=1000, avg_degree=4.0, terminal_count=4, seed=s))
         for s in range(4)]
solve_ost(insts[0])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for inst in insts[1:]:
    solve_ost(inst)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
def test_solves_reuse_their_memory_instead_of_faulting_pages():
    # a fresh process, so the allocator starts clean; after one warm-up
    # solve, three n=1000, K=4 solves took about 5,200 minor faults when
    # every chunk temporary was allocated afresh, and about 110 with one
    # workspace per solve
    resource = pytest.importorskip("resource")
    if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
        pytest.skip("getrusage reports no minor faults here")
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True,
        env=child_env(), check=True,
    )
    assert int(proc.stdout) <= 500, proc.stdout


def test_reconstruction_matches_table_cost():
    inst = generate_instance(GenConfig(node_count=20, avg_degree=3, terminal_count=4, seed=5))
    sol = solve_ost(inst)
    table = _filled(inst, per_subset=False)
    assert close(sol.cost, float(table.cost[15, inst.source]))
    again = reconstruct(table, inst, inst.source, 15)
    assert close(again.cost, float(table.cost[15, inst.source]))


def test_subset_monotonicity_at_fixed_points():
    for seed in range(5):
        inst = generate_instance(
            GenConfig(node_count=12, avg_degree=3, terminal_count=3, seed=seed)
        )
        table = _filled(inst, per_subset=True)
        for small in range(1, 8):
            for big in range(1, 8):
                if small & big == small:
                    for v in range(12):
                        assert table.cost[small, v] <= table.cost[big, v] + 1e-9


def test_solve_ost_deterministic():
    inst = generate_instance(GenConfig(node_count=25, avg_degree=4, terminal_count=5, seed=3))
    a, b = solve_ost(inst), solve_ost(inst)
    assert a == b and a.runtime_ms == 0.0


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


def test_ost_documents_match_tie_golden_corpus():
    # rounded, zero and unit weights make equal-cost alternatives common,
    # so this pins the tie-breaking of the decisions reconstruct derives
    rows = json.loads(TIE_GOLDEN.read_text())
    assert len(rows) == 184
    for row in rows:
        assert solution_fingerprint(solve_ost(tie_golden_instance(row["instance"]))) == {
            "cost": row["cost"], "sha256": row["sha256"]
        }, row["instance"]


@slow
def test_ost_document_at_k16_matches_recorded_hash():
    # merge's one-subset, split-chunked path at its largest layers; recorded
    # with solution_fingerprint before merge and grow wrote into a workspace
    inst = generate_instance(GenConfig(node_count=100, avg_degree=4.0, terminal_count=16, seed=1))
    assert solution_fingerprint(solve_ost(inst)) == {
        "cost": "4.848253578820061",
        "sha256": "0edc768563299def91545dc734adb9f0468a4c586ea44ea1cd64faa47229efad",
    }


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
        scaled = solve_ost(with_demands(inst, {t: d * lam for t, d in inst.terminals.items()}))
        assert scaled.cost == base.cost * lam
        assert set(scaled.flows) == set(base.flows)
