import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ostflow import (
    GenConfig,
    Graph,
    Instance,
    MetaheuristicParams,
    check_constraints,
    generate_instance,
    solve_aco,
    solve_bco,
    solve_ga,
    solve_mst_prune,
    solve_ost,
    solve_sp_union,
)
from ostflow.baselines import _ant_walk, _SubsetDecoder
from ostflow.model import flow_cost, sum_left

from helpers import (
    BASELINES,
    W1_OPT_FLOWS,
    close,
    decode_node_subset,
    flows_close,
    golden_instance,
    overflowing_star_instance,
    reference_ant_walk,
    reference_genome_flows,
    reference_kruskal,
    reference_tree_flows,
    reference_uniform_draws,
    solution_fingerprint,
    stray_component_instance,
    tie_golden_instance,
)

FAST = MetaheuristicParams(population=16, iterations=25, ant_count=8, seed=5)
GOLDEN = Path(__file__).parent / "data" / "baseline_golden.json"


def test_mst_w1(w1):
    sol = solve_mst_prune(w1)
    assert close(sol.cost, 0.5)
    assert flows_close(sol.flows, {(0, 3): 1.0, (3, 1): 1.0, (1, 2): 1.0})


def test_mst_k1_chain_is_path(chain):
    sol = solve_mst_prune(chain)
    assert flows_close(sol.flows, {(0, 1): 0.5, (1, 2): 0.5})


def test_mst_prunes_unused_spur():
    # star around 1 with spur node 3 that serves nobody
    inst = Instance(
        graph=Graph(4, ((0, 1, 0.1), (1, 2, 0.2), (1, 3, 0.3))),
        source=0,
        terminals={2: 1.0},
    )
    sol = solve_mst_prune(inst)
    assert flows_close(sol.flows, {(0, 1): 1.0, (1, 2): 1.0})


def test_mst_errors_on_disconnected_graph():
    inst = Instance(
        graph=Graph(4, ((0, 1, 0.1), (2, 3, 0.1))), source=0, terminals={1: 1.0}
    )
    with pytest.raises(ValueError, match="disconnected"):
        solve_mst_prune(inst)


def test_sp_union_w1(w1):
    sol = solve_sp_union(w1)
    assert close(sol.cost, 0.35)
    assert flows_close(sol.flows, W1_OPT_FLOWS)


def test_sp_union_shared_prefix_carries_one_stream():
    # both terminals reached through edge (0,1); it carries max demand once
    inst = Instance(
        graph=Graph(4, ((0, 1, 0.5), (1, 2, 0.3), (1, 3, 0.4))),
        source=0,
        terminals={2: 0.25, 3: 1.0},
    )
    sol = solve_sp_union(inst)
    assert flows_close(sol.flows, {(0, 1): 1.0, (1, 2): 0.25, (1, 3): 1.0})


def test_sp_union_k1_is_scaled_shortest_path(chain):
    sol = solve_sp_union(chain)
    assert close(sol.cost, 0.5 * (0.4 + 0.6))
    assert flows_close(sol.flows, {(0, 1): 0.5, (1, 2): 0.5})


def test_sp_union_matches_ost_on_k1():
    for seed in range(10):
        inst = generate_instance(
            GenConfig(node_count=20, avg_degree=3, terminal_count=1, seed=seed)
        )
        assert close(solve_sp_union(inst).cost, solve_ost(inst).cost)


def test_decode_full_node_set_w1(w1):
    sol = decode_node_subset(w1, {0, 1, 2, 3})
    assert close(sol.cost, 0.35)
    assert flows_close(sol.flows, W1_OPT_FLOWS)


def test_decode_disconnected_subset_is_infeasible(w1):
    assert decode_node_subset(w1, {0, 2, 3}) is None


def test_decode_path_instance_is_the_path(chain):
    sol = decode_node_subset(chain, {0, 1, 2})
    assert flows_close(sol.flows, {(0, 1): 0.5, (1, 2): 0.5})


def test_decode_requires_required_nodes(w1):
    with pytest.raises(ValueError, match="must include"):
        decode_node_subset(w1, {0, 1, 2})


@pytest.mark.parametrize("solver", [solve_ga, solve_aco, solve_bco])
def test_metaheuristics_on_w1(w1, solver):
    sol = solver(w1, FAST)
    assert sol.cost <= 0.5 + 1e-9
    assert check_constraints(w1, sol) == []


@pytest.mark.parametrize("solver", [solve_ga, solve_aco, solve_bco])
def test_metaheuristics_deterministic(w1, solver):
    a = solver(w1, FAST)
    b = solver(w1, FAST)
    assert a == b and a.runtime_ms == 0.0


def test_bco_single_bit_neighborhood_keeps_w1_optimum(w1):
    # the only free node is 1; excluding it is infeasible, so the all-ones
    # site cannot be improved and the best stays at the decoded optimum
    sol = solve_bco(w1, MetaheuristicParams(population=4, iterations=30, seed=1))
    assert close(sol.cost, 0.35)


def test_ga_beats_decoded_required_only_bound():
    # the required nodes alone induce a connected subgraph
    inst = Instance(
        graph=Graph(4, ((0, 1, 0.4), (1, 2, 0.3), (0, 3, 0.9), (2, 3, 0.8))),
        source=0,
        terminals={1: 1.0, 2: 0.5},
    )
    bound = decode_node_subset(inst, {0, 1, 2})
    sol = solve_ga(inst, FAST)
    assert sol.cost <= bound.cost + 1e-9


def test_ga_decodes_each_genome_once(monkeypatch):
    # the elite is carried with its cost, so every generation after the
    # first decodes only its population - 1 children
    genomes = []
    cost = _SubsetDecoder.cost
    monkeypatch.setattr(_SubsetDecoder, "cost", lambda self, g: genomes.append(g) or cost(self, g))
    inst = generate_instance(GenConfig(node_count=30, avg_degree=4, terminal_count=4, seed=2))
    solve_ga(inst, MetaheuristicParams(population=10, iterations=5))
    assert len(genomes) == 10 + (5 - 1) * (10 - 1)


def test_all_baselines_feasible_and_dominated():
    baselines = (
        solve_mst_prune,
        solve_sp_union,
        lambda i: solve_ga(i, FAST),
        lambda i: solve_aco(i, FAST),
        lambda i: solve_bco(i, FAST),
    )
    for seed in (0, 1):
        inst = generate_instance(
            GenConfig(node_count=20, avg_degree=4, terminal_count=4, seed=seed)
        )
        best = solve_ost(inst).cost
        for solver in baselines:
            sol = solver(inst)
            assert check_constraints(inst, sol) == []
            assert sol.cost >= best - 1e-9


def test_metaheuristics_survive_stray_component():
    # a component unreachable from the source must not break feasibility
    inst = stray_component_instance()
    for solver in (solve_ga, solve_aco, solve_bco):
        sol = solver(inst, FAST)
        assert check_constraints(inst, sol) == []


def test_params_validate_domains():
    with pytest.raises(ValueError):
        MetaheuristicParams(evaporation=1.5)
    with pytest.raises(ValueError):
        MetaheuristicParams(population=0)
    with pytest.raises(ValueError):
        MetaheuristicParams(crossover_rate=1.5)
    for bad in (math.nan, math.inf, -5.0):
        with pytest.raises(ValueError, match="finite and >= 0"):
            MetaheuristicParams(pheromone_weight=bad)
        with pytest.raises(ValueError, match="finite and >= 0"):
            MetaheuristicParams(heuristic_weight=bad)
    MetaheuristicParams(pheromone_weight=0.0, heuristic_weight=0.0)


def test_aco_weight_overflow_names_the_edge():
    # desirability (1 / 1e-3)^beta passes 1.8e308 at beta 103; at beta 102
    # the hop weight overflows once the first deposit lifts the pheromone,
    # as a product (alpha 10) or inside the power (alpha 2000)
    inst = Instance(Graph(3, ((0, 1, 1e-3), (1, 2, 1.0))), source=0, terminals={2: 1.0})
    cases = (
        ({"heuristic_weight": 103.0}, "desirability"),
        ({"heuristic_weight": 102.0, "pheromone_weight": 10.0}, "hop weight"),
        ({"heuristic_weight": 102.0, "pheromone_weight": 2000.0}, "hop weight"),
    )
    for knobs, what in cases:
        params = MetaheuristicParams(iterations=2, ant_count=1, **knobs)
        with pytest.raises(ValueError, match=rf"^ACO {what} of edge \(0, 1\) overflows"):
            solve_aco(inst, params)
    assert close(solve_aco(inst, MetaheuristicParams(iterations=2, heuristic_weight=102.0)).cost, 1.001)


def test_aco_hop_total_overflow_names_the_node():
    # every hop weight is finite (3.16e307), but six of them at the source
    # add up to inf, which would leave a walk's draw at r * inf
    params = MetaheuristicParams(iterations=3, pheromone_weight=0.0, heuristic_weight=102.5)
    with pytest.raises(ValueError, match=r"^ACO hop total at node 0 overflows a float; "):
        solve_aco(overflowing_star_instance(), params)
    # five of them still fit in a float
    assert close(solve_aco(overflowing_star_instance(5), params).cost, 1.0)


def test_baselines_match_golden_table():
    # repr(cost) and document SHA-256 of every baseline, recorded by
    # tests/record_baseline_golden.py: a seed must reproduce its run bit
    # for bit, including the alpha != 1 walk, tied weights and a stray
    # component unreachable from the source
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) == 39
    for row in rows:
        inst = golden_instance(row["instance"])
        params = MetaheuristicParams(**row["params"])
        for name, expected in row["results"].items():
            got = solution_fingerprint(BASELINES[name](inst, params))
            assert got == expected, (name, row["instance"], row["params"])


def test_sum_left_adds_left_to_right():
    # a compensated sum (Python >= 3.12's sum) gives 1.0 here
    assert sum_left([0.1] * 10) == 0.9999999999999999
    assert sum_left(iter([0.5, 0.25])) == 0.75
    assert sum_left([]) == 0.0


def test_decoder_start_and_incumbent():
    # free nodes 2, 3, 4 in genome order, one byte each; 0-2-1 is the
    # cheapest route to terminal 1, and node 4 hangs off free node 3
    edges = ((0, 1, 1.0), (0, 2, 0.1), (1, 2, 0.1), (0, 3, 0.5), (3, 4, 0.5))
    inst = Instance(Graph(5, edges), source=0, terminals={1: 1.0})
    decoder = _SubsetDecoder(inst)
    assert decoder.best == (decoder.penalty, None)
    rng, twin = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
    genomes = decoder.first_genomes(rng, 4)
    assert genomes[0] == b"\x01\x01\x01"
    assert genomes[1:] == [bytes(twin.integers(0, 2, size=3).tolist()) for _ in range(3)]
    assert decoder.random_genome(rng) == bytes(twin.integers(0, 2, size=3).tolist())
    # the seeded start decodes nothing; its first genome's decode does
    assert decoder.best == (decoder.penalty, None)
    decoder.cost(genomes[0])
    first = decoder.best
    assert first[1] == {(0, 2): 1.0, (2, 1): 1.0} and close(first[0], 0.2)
    assert decoder.cost(b"\x01\x01\x01") == first[0]
    # equal cost, dearer, infeasible: none replaces the first least-cost decode
    assert decoder.cost(b"\x01\x00\x00") == first[0]
    assert close(decoder.cost(b"\x00\x00\x00"), 1.0)
    assert decoder.cost(b"\x00\x00\x01") == decoder.penalty
    assert decoder.best is first
    # offered trees, given by parent (the source its own, -1 off the tree),
    # follow the same rule: an equal-cost tree (its spare edge 0-3 carries
    # nothing) and a dearer one leave the first in place
    assert decoder.offer([0, 2, 0, 0, -1]) == first[0]
    assert decoder.offer([0, 0, 0, -1, -1]) == 1.0
    assert decoder.best is first
    # an infeasible decode never becomes the incumbent, even with none yet
    fresh = _SubsetDecoder(inst)
    assert fresh.cost(b"\x00\x00\x01") == fresh.penalty
    assert fresh.best == (fresh.penalty, None)
    # a cheaper offered tree replaces the incumbent
    assert fresh.offer([0, 0, -1, -1, -1]) == 1.0 and fresh.best[1] == {(0, 1): 1.0}
    assert fresh.offer([0, 2, 0, -1, -1]) == first[0]
    assert fresh.best == first
    # where a + 1.0 would be lost to rounding, the penalty still lies
    # strictly above a feasible cost
    big = _SubsetDecoder(Instance(Graph(2, ((0, 1, 1e17),)), source=0, terminals={1: 1.0}))
    assert big.first_genomes(rng, 1) == [b""]
    assert big.best == (big.penalty, None)
    assert big.cost(b"") < big.penalty
    assert big.best[1] == {(0, 1): 1.0} and big.best[0] < big.penalty


def test_decoder_memory_is_flat_in_iterations():
    # the decoder keeps only the incumbent's flows, so a solve's memory does
    # not grow with iterations: tracemalloc peaks of one seeded run each,
    # n=200, K=8, population 20, read under 72 KiB. A per-genome cost memo
    # reads 458 (GA) and 870 KiB (BCO) at 80 iterations
    inst = generate_instance(GenConfig(node_count=200, avg_degree=4, terminal_count=8, seed=1))
    for iterations in (20, 80):
        params = MetaheuristicParams(population=20, iterations=iterations)
        for solver, bound in ((solve_ga, 320), (solve_bco, 384)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                solver(inst, params)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= bound * 1024, (solver.__name__, iterations, peak)


def _random_hops(rng, n: int, rule: str, alpha: float):
    """A hop table as solve_aco builds one, on a random connected graph: a
    random tree, so dead ends are common, plus up to n extra edges.
    ``rule`` sets the edge weights: "random", "equal" (all 1.0) or "zero"
    (rounded so most are 0.0, whose desirability is 1e24)."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(0, n + 1))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v))
    hops = [[] for _ in range(n)]
    for i, (u, v) in enumerate(sorted(edges)):
        w = 1.0 if rule == "equal" else rng.random()
        if rule == "zero":
            w = round(0.6 * w)
        weight = (0.5 + rng.random()) ** alpha * (1.0 / max(w, 1e-12)) ** 2.0
        hops[u].append((v, i, weight))
        hops[v].append((u, i, weight))
    for entries in hops:
        entries.sort()
    return hops


def test_ant_walk_matches_reference():
    # same edges and same draws as the set-and-sum walk, walk after walk on
    # one stream of more than two 4096-blocks, so block edges fall inside walks
    rng = np.random.default_rng(2024)
    stream = reference_uniform_draws(np.random.Generator(np.random.PCG64(7)))
    used = reference_used = 0

    def draw():
        nonlocal used
        used += 1
        return next(stream)

    def counted(stream):
        nonlocal reference_used
        for r in stream:
            reference_used += 1
            yield r

    reference = counted(reference_uniform_draws(np.random.Generator(np.random.PCG64(7))))
    walks = 0
    for table in range(200):
        n = int(rng.integers(5, 61))
        hops = _random_hops(rng, n, ("random", "equal", "zero")[table % 3], (1.0, 2.0)[table % 2])
        for target in rng.choice(np.arange(1, n), size=3).tolist():
            expected = reference_ant_walk(reference, 0, target, hops)
            assert _ant_walk(draw, 0, target, hops) == expected, (table, target)
            assert used == reference_used, (table, target)
            walks += 1
    assert walks >= 500 and used > 2 * 4096


def _tree_instance(rule: str, seed: int):
    """An instance for the tree references: generated weights ("random"),
    tie-prone rewrites of them (see ``tie_golden_instance``) or the
    stray-component instance ("stray")."""
    if rule == "stray":
        return stray_component_instance()
    spec = dict(node_count=40, avg_degree=4, terminal_count=6, seed=seed)
    if rule == "random":
        return generate_instance(GenConfig(**spec))
    return tie_golden_instance({**spec, "regular_degree": None, "weights": rule})


def _recorded_calls(monkeypatch, inst, name: str, solver) -> list:
    """The arguments of every ``_SubsetDecoder.<name>`` call in one solve."""
    calls = []
    method = getattr(_SubsetDecoder, name)

    def record(self, *args):
        calls.append(args)
        return method(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(_SubsetDecoder, name, record)
        solver(inst, MetaheuristicParams(population=12, iterations=12, ant_count=6, seed=3))
    return calls


@pytest.mark.parametrize("rule", ["random", "round1", "round2", "unit", "zero", "stray"])
def test_rooted_prim_matches_kruskal_and_bfs_reference(monkeypatch, rule):
    # same cost for every genome GA and BCO decode and every ant support
    # ACO offers, and the same incumbent flows, as Kruskal plus a BFS
    for seed in (0, 1):
        inst = _tree_instance(rule, seed)
        for solver in (solve_ga, solve_bco):
            decoder = _SubsetDecoder(inst)
            best = (decoder.penalty, None)
            for (genome,) in _recorded_calls(monkeypatch, inst, "cost", solver):
                flows = reference_genome_flows(inst, genome)
                cost = decoder.penalty if flows is None else flow_cost(inst.graph, flows)
                assert decoder.cost(genome) == cost, (rule, seed, solver.__name__)
                if cost < best[0]:
                    best = (cost, flows)
            assert decoder.best == best and best[1] is not None
        decoder = _SubsetDecoder(inst)
        best = (decoder.penalty, None)
        supports = _recorded_calls(monkeypatch, inst, "rooted", solve_aco)
        assert supports
        for (allowed,) in supports:
            ids = [i for i in range(len(decoder.ends)) if allowed >> i & 1]
            tree = reference_kruskal(inst.graph.node_count, [decoder.ends[i] for i in ids], len(ids))
            flows = reference_tree_flows(inst, tree)
            cost = flow_cost(inst.graph, flows)
            assert decoder.offer(decoder.rooted(allowed)) == cost, (rule, seed)
            if cost < best[0]:
                best = (cost, flows)
        assert decoder.best == best


@pytest.mark.parametrize("rule", ["random", "round1", "stray"])
def test_decoder_matches_reference_on_every_genome(rule):
    # every genome of an instance with at most 12 free nodes, in order:
    # the bitset decode costs what Kruskal plus a BFS gives (or the
    # penalty) and ends on the reference's first least-cost incumbent
    spec = dict(node_count=14, avg_degree=4, terminal_count=3, seed=4)
    if rule == "stray":
        inst = stray_component_instance()
    elif rule == "random":
        inst = generate_instance(GenConfig(**spec))
    else:
        inst = tie_golden_instance({**spec, "regular_degree": None, "weights": rule})
    decoder = _SubsetDecoder(inst)
    assert 1 <= len(decoder.free) <= 12
    best = (decoder.penalty, None)
    for genome in map(bytes, itertools.product((0, 1), repeat=len(decoder.free))):
        flows = reference_genome_flows(inst, genome)
        cost = decoder.penalty if flows is None else flow_cost(inst.graph, flows)
        assert decoder.cost(genome) == cost, (rule, genome)
        if cost < best[0]:
            best = (cost, flows)
    assert decoder.best == best and best[1] is not None


@pytest.mark.parametrize("solver", ["mst", "ga", "aco", "bco"])
def test_tree_baselines_search_reachability_once(monkeypatch, solver):
    # require_feasible's search also gives the decoder its free nodes
    starts = []
    search = Graph.reachable_from
    monkeypatch.setattr(Graph, "reachable_from", lambda g, start: starts.append(start) or search(g, start))
    inst = generate_instance(GenConfig(node_count=30, avg_degree=4, terminal_count=4, seed=2))
    BASELINES[solver](inst, MetaheuristicParams(population=6, iterations=2, ant_count=2))
    assert starts == [inst.source]


def _twin_streams(seed: int, prefix: int) -> list[np.random.Generator]:
    """Two PCG64 generators on one seed after a ``prefix``-long bounded
    draw; an odd prefix leaves a buffered 32-bit half (``has_uint32``)."""
    twins = [np.random.Generator(np.random.PCG64(seed)) for _ in range(2)]
    for rng in twins:
        rng.integers(0, 3, size=prefix)
    return twins


@pytest.mark.parametrize("seed", [0, 5, 300000])
def test_merged_draws_equal_split_draws(seed):
    # GA draws both tournaments in one integers call, BCO every employed
    # flip bit in one, and GA the crossover test with its first mask in
    # one random call; the seeded goldens hold only while these hold
    for prefix in (0, 1):
        assert _twin_streams(seed, prefix)[0].bit_generator.state["has_uint32"] == prefix
        for n in (1, 2, 3, 50, 91, 2**32):
            for k in range(1, 6):
                one, two = _twin_streams(seed, prefix)
                halves = two.integers(0, n, size=k).tolist() + two.integers(0, n, size=k).tolist()
                assert one.integers(0, n, size=2 * k).tolist() == halves, (prefix, n, k)
                assert one.bit_generator.state == two.bit_generator.state
                one, two = _twin_streams(seed, prefix)
                scalars = [int(two.integers(0, n)) for _ in range(k)]
                assert one.integers(0, n, size=k).tolist() == scalars, (prefix, n, k)
                assert one.bit_generator.state == two.bit_generator.state
        for length in (0, 1, 2, 91):
            one, two = _twin_streams(seed, prefix)
            split = [two.random(), *two.random(length).tolist()]
            assert one.random(1 + length).tolist() == split, (prefix, length)
            assert one.bit_generator.state == two.bit_generator.state
