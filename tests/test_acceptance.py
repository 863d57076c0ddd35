"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with:  PYTHONPATH=src pytest tests/test_acceptance.py -v -s
(from a checkout without an install; see README "Install and test").
The full suite takes a few minutes; the headline benchmark (criterion 6)
runs thirty seeds of every algorithm at its default parameters.
"""

import heapq
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ostflow import (
    GenConfig,
    Graph,
    Instance,
    MetaheuristicParams,
    SweepConfig,
    SweepKind,
    brute_force_optimum,
    check_constraints,
    check_flow_law,
    check_tree,
    generate_instance,
    run_sweep,
    solve_mst_prune,
    solve_ost,
    solve_sp_union,
    summarize,
)

from helpers import W1_OPT_FLOWS, child_env, close, flows_close, with_demands

TOL = 1e-9


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def corpus_configs():
    """300 instances: the full 5..10 x {2.5,3,4} x K 1..4 grid, seeds 0..3,
    plus seed 4 on the first twelve combos."""
    combos = [
        (n, d, k)
        for n in range(5, 11)
        for d in (2.5, 3.0, 4.0)
        for k in range(1, 5)
    ]
    configs = [
        GenConfig(node_count=n, avg_degree=d, terminal_count=k, seed=s)
        for n, d, k in combos
        for s in range(4)
    ]
    configs += [
        GenConfig(node_count=n, avg_degree=d, terminal_count=k, seed=4)
        for n, d, k in combos[:12]
    ]
    assert len(configs) == 300
    return configs


@pytest.fixture(scope="module")
def exactness_corpus():
    """(instance, ost solution, oracle solution) for criterion 1/4 plus the
    elapsed wall-clock seconds."""
    started = time.perf_counter()
    rows = []
    for cfg in corpus_configs():
        inst = generate_instance(cfg)
        rows.append((inst, solve_ost(inst), brute_force_optimum(inst)))
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def headline_table():
    """Criterion 6 benchmark: 100 nodes, degree 4, 8 terminals, 30 seeds,
    every algorithm at its default metaheuristic parameters."""
    cfg = SweepConfig(
        sweep_kind=SweepKind.NODE_COUNT,
        values=(100,),
        trials=30,
        base=GenConfig(node_count=100, avg_degree=4.0, terminal_count=8),
        algorithms=("ost", "mst", "spt", "ga", "aco", "bco"),
        params=MetaheuristicParams(),
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def w1_instance():
    return Instance(
        graph=Graph(4, ((0, 1, 1.0), (1, 2, 0.1), (1, 3, 0.1), (0, 3, 0.3))),
        source=0,
        terminals={2: 0.25, 3: 1.0},
    )


def test_criterion_1_oracle_exactness(exactness_corpus):
    rows, elapsed = exactness_corpus
    worst = max(abs(ost.cost - oracle.cost) for _, ost, oracle in rows)
    ok = len(rows) == 300 and worst <= TOL and elapsed < 60.0
    report(
        1,
        "oracle exactness",
        ok,
        f"300 instances, max |ost-oracle| = {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_worked_instance_regression(w1_instance):
    ost = solve_ost(w1_instance)
    mst = solve_mst_prune(w1_instance)
    spt = solve_sp_union(w1_instance)
    ok = (
        close(ost.cost, 0.35)
        and flows_close(ost.flows, W1_OPT_FLOWS)
        and close(mst.cost, 0.5)
        and close(spt.cost, 0.35)
    )
    report(
        2,
        "worked-instance regression",
        ok,
        f"ost {ost.cost:.6f}, mst {mst.cost:.6f}, spt {spt.cost:.6f}",
    )


def _dijkstra_distance(graph: Graph, source: int, target: int) -> float:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    seen = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in seen:
            continue
        seen.add(v)
        if v == target:
            return d
        for u, w in graph.adjacency[v]:
            nd = d + w
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return math.inf


def test_criterion_3_degenerations():
    worst_sp = 0.0
    for seed in range(100):
        inst = generate_instance(
            GenConfig(node_count=25, avg_degree=3.0, terminal_count=1, seed=seed)
        )
        (terminal, demand), = inst.terminals.items()
        expected = demand * _dijkstra_distance(inst.graph, inst.source, terminal)
        worst_sp = max(worst_sp, abs(solve_ost(inst).cost - expected))
    worst_homog = 0.0
    for seed in range(100):
        level = (0.25, 0.5, 1.0)[seed % 3]
        inst = generate_instance(
            GenConfig(
                node_count=6 + seed % 3,
                avg_degree=3.0,
                terminal_count=3,
                demand_set=((level, 1.0),),
                seed=seed,
            )
        )
        steiner = brute_force_optimum(
            with_demands(inst, {t: 1.0 for t in inst.terminals})
        ).cost
        worst_homog = max(worst_homog, abs(solve_ost(inst).cost - level * steiner))
    ok = worst_sp <= TOL and worst_homog <= TOL
    report(
        3,
        "degeneration suite",
        ok,
        f"K=1 max err {worst_sp:.2e}, homogeneous max err {worst_homog:.2e}",
    )


def test_criterion_4_structural_invariants(exactness_corpus):
    rows, _ = exactness_corpus
    bad = 0
    for inst, ost, _ in rows:
        if check_constraints(inst, ost) or check_tree(inst, ost) or check_flow_law(inst, ost):
            bad += 1
    report(
        4,
        "structural invariants",
        bad == 0,
        f"{len(rows)} solutions through constraints/tree/flow-law, {bad} failures",
    )


def test_criterion_5_dominance(headline_table):
    extra_cfg = SweepConfig(
        sweep_kind=SweepKind.AVG_DEGREE,
        values=(3.0, 5.0),
        trials=3,
        base=GenConfig(node_count=30, avg_degree=4.0, terminal_count=5),
        algorithms=("ost", "mst", "spt", "ga", "aco", "bco"),
        params=MetaheuristicParams(population=20, iterations=30, ant_count=10),
    )
    rows = list(headline_table) + run_sweep(extra_cfg)
    cells: dict[tuple, dict[str, float]] = {}
    for row in rows:
        cells.setdefault((row.sweep_kind, row.sweep_value, row.seed), {})[
            row.algorithm
        ] = row.cost
    violations = 0
    checked = 0
    for cell in cells.values():
        for name, cost in cell.items():
            if name != "ost":
                checked += 1
                if cell["ost"] > cost + TOL:
                    violations += 1
    report(
        5,
        "dominance",
        violations == 0 and all(r.feasible for r in rows),
        f"{checked} row pairs, {violations} violations",
    )


def test_criterion_6_headline_improvement(headline_table):
    summary = {s.algorithm: s for s in summarize(headline_table)}
    baselines = ("mst", "spt", "ga", "aco", "bco")
    lines = []
    for name in baselines:
        s = summary[name]
        lines.append(f"{name}: mean {s.mean_cost:.4f}, improvement {s.improvement_pct:+.2f}%")
    print("criterion 6 means: ost", f"{summary['ost'].mean_cost:.4f};", "; ".join(lines))
    hard_ok = all(summary[n].improvement_pct >= -1e-9 for n in baselines)
    soft_ok = any(summary[n].improvement_pct > 10.0 for n in ("ga", "aco", "bco", "spt"))
    detail = (
        f"improvement >= 0 vs all: {hard_ok}; "
        f"soft >10% vs a metaheuristic/spt: {soft_ok} (soft target, not gated)"
    )
    report(6, "headline improvement", hard_ok, detail)


def test_criterion_7_complexity_scaling():
    runtimes = {}
    for k in (4, 6, 8, 10):
        inst = generate_instance(
            GenConfig(node_count=50, avg_degree=4.0, terminal_count=k, seed=1)
        )
        # a solve at K=4 or 6 takes 2-4 ms, close to timer and scheduler
        # jitter: each sample times a batch of 10 solves, and the runtime
        # is the least of 5 samples per solve, so one hiccup cannot break
        # the strict-growth check
        samples = []
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(10):
                solve_ost(inst)
            samples.append((time.perf_counter() - started) / 10)
        runtimes[k] = min(samples)
    under = all(t < 10.0 for t in runtimes.values())
    growing = runtimes[6] > runtimes[4] and runtimes[8] > runtimes[6] and runtimes[10] > runtimes[8]
    detail = ", ".join(f"K={k}: {t:.3f}s" for k, t in runtimes.items())
    report(7, "complexity scaling", under and growing, detail)


def _random_small_instance(rng: np.random.Generator) -> Instance:
    return generate_instance(
        GenConfig(
            node_count=int(rng.integers(8, 15)),
            avg_degree=3.0,
            terminal_count=int(rng.integers(2, 5)),
            seed=int(rng.integers(0, 2**32)),
        )
    )


def test_criterion_8_property_suite():
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(100):
        inst = _random_small_instance(rng)
        base = solve_ost(inst)
        lam = float(rng.choice((0.25, 0.5, 2.0, 4.0)))
        scaled = solve_ost(
            with_demands(inst, {t: d * lam for t, d in inst.terminals.items()})
        )
        if scaled.cost != base.cost * lam or set(scaled.flows) != set(base.flows):
            failures.append(("scale", trial))
    for trial in range(100):
        inst = _random_small_instance(rng)
        base = solve_ost(inst).cost
        target = sorted(inst.terminals)[int(rng.integers(0, inst.terminal_count))]
        bumped = dict(inst.terminals)
        bumped[target] *= 1.0 + float(rng.random())
        if solve_ost(with_demands(inst, bumped)).cost < base - TOL:
            failures.append(("demand-monotone", trial))
    for trial in range(100):
        inst = _random_small_instance(rng)
        n = inst.graph.node_count
        absent = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not inst.graph.has_edge(u, v)
        ]
        if not absent:
            continue
        base = solve_ost(inst).cost
        u, v = absent[int(rng.integers(0, len(absent)))]
        extended = Instance(
            graph=Graph(n, inst.graph.edges + ((u, v, float(rng.random())),)),
            source=inst.source,
            terminals=inst.terminals,
        )
        if solve_ost(extended).cost > base + TOL:
            failures.append(("edge-add", trial))
    for trial in range(100):
        inst = _random_small_instance(rng)
        base = solve_ost(inst).cost
        perm = [int(x) for x in rng.permutation(inst.graph.node_count)]
        relabeled = Instance(
            graph=Graph(
                inst.graph.node_count,
                tuple((perm[u], perm[v], w) for u, v, w in inst.graph.edges),
            ),
            source=perm[inst.source],
            terminals={perm[t]: d for t, d in inst.terminals.items()},
        )
        if abs(solve_ost(relabeled).cost - base) > TOL:
            failures.append(("relabel", trial))
    report(
        8,
        "property suite",
        not failures,
        f"4 properties x 100 trials, failures: {failures[:5] or 'none'}",
    )


def _cli(tmp_path, *argv: str) -> bytes:
    env = dict(child_env(), OST_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ostflow.cli", *argv],
        capture_output=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    gen_args = ("gen", "--nodes", "25", "--avg-degree", "4", "--terminals", "4",
                "--seed", "9", "--output", "inst.json")
    first = _cli(tmp_path, *gen_args)
    inst_bytes = (tmp_path / "inst.json").read_bytes()
    assert _cli(tmp_path, *gen_args) == first
    assert (tmp_path / "inst.json").read_bytes() == inst_bytes

    outputs = {}
    for algorithm in ("ost", "mst", "ga"):
        args = ("solve", "--instance", "inst.json", "--algorithm", algorithm,
                "--iters", "10", "--pop", "10")
        outputs[algorithm] = _cli(tmp_path, *args)
        assert _cli(tmp_path, *args) == outputs[algorithm]

    (tmp_path / "sol.json").write_bytes(outputs["ost"])
    val_args = ("validate", "--instance", "inst.json", "--solution", "sol.json")
    assert _cli(tmp_path, *val_args) == _cli(tmp_path, *val_args) == b""

    bench_args = ("bench", "--sweep", "user-count", "--values", "1,2", "--trials", "1",
                  "--algorithms", "ost,spt,ga", "--nodes", "10", "--avg-degree", "3",
                  "--terminals", "2", "--iters", "5", "--pop", "6",
                  "--csv", "r.csv", "--summary", "s.csv")
    _cli(tmp_path, *bench_args)
    csv1 = (tmp_path / "r.csv").read_bytes(), (tmp_path / "s.csv").read_bytes()
    _cli(tmp_path, *bench_args)
    csv2 = (tmp_path / "r.csv").read_bytes(), (tmp_path / "s.csv").read_bytes()
    ok = csv1 == csv2
    report(9, "CLI determinism", ok, "gen/solve/validate/bench rerun byte-identical")
