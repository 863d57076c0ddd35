"""Shared assertions and reference values for the suite."""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

import ostflow
from ostflow import generator
from ostflow import (
    GenConfig,
    Graph,
    Instance,
    generate_instance,
    generate_regular_instance,
    serialize_solution,
    solve_aco,
    solve_bco,
    solve_ga,
    solve_mst_prune,
    solve_sp_union,
)
from ostflow.baselines import _SubsetDecoder
from ostflow.model import make_solution, sum_left

W1_OPT_COST = 0.35
W1_OPT_FLOWS = {(0, 3): 1.0, (3, 1): 0.25, (1, 2): 0.25}


# the slow tier: tests that run only with OSTFLOW_SLOW=1 in the environment
slow = pytest.mark.skipif(
    os.environ.get("OSTFLOW_SLOW") != "1", reason="slow tier; set OSTFLOW_SLOW=1 to run"
)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


def flows_close(actual: dict, expected: dict, tol: float = 1e-9) -> bool:
    if set(actual) != set(expected):
        return False
    return all(abs(actual[k] - expected[k]) <= tol for k in expected)


def oversized_instance():
    """Path 0-1-...-40 with 40 terminals: an ost table of 41·2^40 states."""
    return Instance(
        graph=Graph(41, tuple((v, v + 1, 1.0) for v in range(40))),
        source=0,
        terminals={v: 1.0 for v in range(1, 41)},
    )


def overflowing_star_instance(count: int = 6):
    """Source 0 joined to ``count`` leaves by weight-1e-3 edges and to the
    terminal 7 by a weight-1 edge. At beta 102.5 each light edge's hop
    weight is 3.16e307, so six of them total more than a float holds."""
    edges = tuple((0, v, 1e-3) for v in range(1, count + 1)) + ((0, 7, 1.0),)
    return Instance(graph=Graph(8, edges), source=0, terminals={7: 1.0})


def child_env() -> dict:
    """Environment for a child Python that imports the ostflow under test.

    The package's absolute parent directory goes first on PYTHONPATH, so a
    relative entry such as ``src`` does not matter to a child in another
    working directory.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(ostflow.__file__)))
    pythonpath = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath)


def with_demands(inst: Instance, terminals: dict[int, float]) -> Instance:
    """``inst`` with its terminals and demands replaced."""
    return replace(inst, terminals=terminals)


def decode_node_subset(inst: Instance, selected: set[int]):
    """The metaheuristics' decoding of an explicit node subset: the pruned
    MST of the induced subgraph with demand-law flows, or None when that
    subgraph is disconnected. A node outside the source's component (or
    outside the graph) disconnects it; any other subset is a genome."""
    selected = set(selected)
    required = {inst.source} | set(inst.terminals)
    if not required <= selected:
        raise ValueError("selected nodes must include the source and all terminals")
    decoder = _SubsetDecoder(inst)
    free = decoder.free
    if not selected <= required | set(free):
        return None
    decoder.cost(bytes(x in selected for x in free))
    flows = decoder.best[1]
    return None if flows is None else make_solution(inst, flows, "decode")


def stray_component_instance():
    """Source component 0-1-2 plus a component 3-4-5 it cannot reach."""
    return Instance(
        graph=Graph(6, ((0, 1, 0.4), (1, 2, 0.3), (3, 4, 0.2), (4, 5, 0.1))),
        source=0,
        terminals={2: 1.0},
    )


def golden_instance(spec: dict):
    """Instance named by a baseline golden-table entry.

    ``{"stray": true}`` is :func:`stray_component_instance`; any other
    spec is a generator config, with every weight rounded to
    ``round_weights`` decimals when that key is not null (ties on purpose).
    """
    if spec.get("stray"):
        return stray_component_instance()
    keys = ("node_count", "avg_degree", "terminal_count", "seed")
    inst = generate_instance(GenConfig(**{k: spec[k] for k in keys}))
    digits = spec.get("round_weights")
    if digits is None:
        return inst
    edges = tuple((u, v, round(w, digits)) for u, v, w in inst.graph.edges)
    return Instance(
        graph=Graph(inst.graph.node_count, edges),
        source=inst.source,
        terminals=inst.terminals,
    )


def solution_fingerprint(sol) -> dict:
    """repr of the cost and SHA-256 of the document with runtime_ms=0."""
    doc = serialize_solution(replace(sol, runtime_ms=0.0))
    return {"cost": repr(sol.cost), "sha256": hashlib.sha256(doc.encode()).hexdigest()}


# the five baselines as fn(inst, params), keyed as in the golden table
BASELINES = {
    "mst": lambda inst, p: solve_mst_prune(inst),
    "spt": lambda inst, p: solve_sp_union(inst),
    "ga": solve_ga,
    "aco": solve_aco,
    "bco": solve_bco,
}


def reference_uniform_draws(rng: np.random.Generator):
    """rng.random() values one at a time, drawn from the generator in
    blocks; the stream is the same as that of scalar calls, and as the
    one ``solve_aco`` hands its walks as ``draw``."""
    while True:
        yield from rng.random(4096).tolist()


def reference_ant_walk(
    draws,
    source: int,
    target: int,
    hops: list[list[tuple[int, int, float]]],
) -> list[int]:
    """The ant walk as a set-and-list loop, kept as the reference for
    ``baselines._ant_walk``: it draws from a ``reference_uniform_draws``
    iterator and must return the same edge ids after the same draws.
    Its total adds left to right (``model.sum_left``) on every Python."""
    path = [source]
    via: list[int] = []
    visited = {source}
    while True:
        u = path[-1]
        if u == target:
            return via
        options = [hop for hop in hops[u] if hop[0] not in visited]
        if not options:
            path.pop()
            via.pop()
            continue
        r = next(draws)
        if len(options) == 1:
            v, e, _ = options[0]
        else:
            weights = [hop[2] for hop in options]
            r *= sum_left(weights)
            j = 0
            acc = weights[0]
            while acc < r and j + 1 < len(weights):
                j += 1
                acc += weights[j]
            v, e, _ = options[j]
        visited.add(v)
        path.append(v)
        via.append(e)


def generator_golden_instance(spec: dict):
    """Instance named by a generator golden-table entry.

    The spec holds the ``GenConfig`` fields (``demand_set`` null for the
    default); a ``regular_degree`` that is not null asks for
    :func:`generate_regular_instance` with that degree.
    """
    keys = ("node_count", "avg_degree", "terminal_count", "seed")
    fields = {k: spec[k] for k in keys}
    if spec["demand_set"] is not None:
        fields["demand_set"] = tuple(map(tuple, spec["demand_set"]))
    cfg = GenConfig(**fields)
    if spec["regular_degree"] is None:
        return generate_instance(cfg)
    return generate_regular_instance(cfg, spec["regular_degree"])


def reference_regular_instance(cfg: GenConfig, degree: int):
    """``generate_regular_instance`` with the pairing checked pair by pair
    in Python, the reference for its vectorised check (valid degrees only).
    Returns ``(instance, sampler)``, the sampler being ``"pairing"`` or
    ``"sequential"``, or None where both run out of attempts."""
    n = cfg.node_count
    stream = generator.NumpyStream(cfg.seed)
    stubs = np.repeat(np.arange(n), degree)

    def connected(pairs):
        return len(Graph(n, tuple((u, v, 1.0) for u, v in pairs)).reachable_from(0)) == n

    for _ in range(generator._REGULAR_ATTEMPTS):
        shuffled = stubs[stream.rng.permutation(len(stubs))].tolist()
        pairs = set()
        for u, v in zip(shuffled[::2], shuffled[1::2]):
            if u == v or (min(u, v), max(u, v)) in pairs:
                break
            pairs.add((min(u, v), max(u, v)))
        else:
            if connected(pairs):
                return generator._finish_instance(stream, cfg, *zip(*sorted(pairs))), "pairing"
    for _ in range(generator._REGULAR_ATTEMPTS):
        pairs = generator._sequential_pairing(stream, n, degree)
        if pairs is not None and connected(pairs):
            return generator._finish_instance(stream, cfg, *zip(*pairs)), "sequential"
    return None


def reference_kruskal(node_count: int, pairs, need: int) -> list[tuple[int, int]]:
    """Minimum spanning forest by union-find from (u, v) pairs already in
    (weight, u, v) order, stopped once ``need`` edges are in it: the tree
    baselines' spanning-tree step before ``_SubsetDecoder.rooted``."""
    root = list(range(node_count))
    tree = []
    for u, v in pairs:
        a, b = u, v
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[a] = b
            tree.append((u, v))
            if len(tree) == need:
                break
    return tree


def reference_tree_flows(inst: Instance, tree: list[tuple[int, int]]) -> dict:
    """Demand-law flows on ``tree`` after a BFS orients all of it away from
    the source: the tree baselines' flow step before the parent array."""
    neighbors = [[] for _ in range(inst.graph.node_count)]
    for u, v in tree:
        neighbors[u].append(v)
        neighbors[v].append(u)
    parent = [-1] * inst.graph.node_count
    parent[inst.source] = inst.source
    order = [inst.source]
    for x in order:
        for y in neighbors[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    flows = {}
    for t, demand in inst.terminals.items():
        x = t
        while x != inst.source and flows.get((parent[x], x), 0.0) < demand:
            flows[(parent[x], x)] = demand
            x = parent[x]
    return flows


def reference_genome_flows(inst: Instance, genome: bytes):
    """A genome's decode by Kruskal and BFS, the reference for
    ``_SubsetDecoder.cost``: the flows on the pruned MST of the subgraph
    induced by the source, the terminals and the free nodes the genome
    selects, or None when fewer edges than selected nodes minus one join."""
    required = {inst.source, *inst.terminals}
    free = sorted(inst.graph.reachable_from(inst.source) - required)
    selected = required | {x for x, bit in zip(free, genome) if bit}
    pairs = [(u, v) for _, u, v in sorted((w, u, v) for u, v, w in inst.graph.edges)
             if u in selected and v in selected]
    tree = reference_kruskal(inst.graph.node_count, pairs, len(selected) - 1)
    return reference_tree_flows(inst, tree) if len(tree) == len(selected) - 1 else None


def reference_positive_uniform(stream) -> float:
    """One U(0, 1) draw open at 0, redrawing an exact zero, one double at
    a time: the draw that ``generator._positive_uniforms`` must match in
    values and in the number of draws taken."""
    w = stream.random(1)[0]
    while w == 0.0:
        w = stream.random(1)[0]
    return w


def reference_generate_instance(cfg: GenConfig):
    """``generate_instance`` with a set of tree pairs, numpy's binary
    searches, a sort of pair tuples and one weight draw per edge, kept as
    the reference for its bulk draws and merge-walk rank decode (valid
    configs only). Both must return the same instance for every config."""
    n, m = cfg.node_count, cfg.edge_count
    stream = generator.NumpyStream(cfg.seed)
    tree = {(min(u, v), max(u, v)) for u, v in generator._pruefer_tree(stream, n)}
    pairs = list(tree)
    if m > len(tree):
        nodes = np.arange(n)
        start = nodes * (2 * n - nodes - 1) // 2
        tu, tv = np.array(sorted(tree)).T
        t = start[tu] + tv - tu - 1
        picked = np.array(stream.sample(n * (n - 1) // 2 - len(tree), m - len(tree)))
        ranks = picked + np.searchsorted(t - np.arange(len(t)), picked, side="right")
        u = np.searchsorted(start, ranks, side="right") - 1
        pairs.extend(zip(u.tolist(), (ranks - start[u] + u + 1).tolist()))
    edges = [(u, v, reference_positive_uniform(stream)) for u, v in sorted(pairs)]
    graph = Graph(node_count=n, edges=tuple(edges))
    perm = stream.permutation(n)
    values = [v for v, _ in cfg.demand_set]
    picks = stream.weighted([p for _, p in cfg.demand_set], n - 1)
    chosen = perm[1 : cfg.terminal_count + 1]
    terminals = {t: values[k] for t, k in zip(chosen, picks)}
    return Instance(graph=graph, source=perm[0], terminals=terminals)


class ScriptedStream:
    """Stand-in for a generator draw stream (``generator.NumpyStream``,
    ``pcg64.PCG64Stream``) whose ``random(size)`` returns the next ``size``
    scripted doubles as a list and counts the draws; drawing past the
    script fails."""

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def random(self, size):
        if self.drawn + size > len(self.values):
            raise AssertionError("drew past the script")
        out = self.values[self.drawn : self.drawn + size]
        self.drawn += size
        return out


def tie_golden_instance(spec: dict):
    """Instance named by an ``ost`` tie golden-table entry.

    The spec holds the ``GenConfig`` fields; a ``regular_degree`` that is
    not null asks for :func:`generate_regular_instance`. ``weights``
    rewrites every edge weight to make ties likely: ``"round1"`` and
    ``"round2"`` round to that many decimals, ``"zero"`` rounds to one
    decimal and then sets about 40% of the weights to 0, ``"unit"`` sets
    all of them to 1.
    """
    keys = ("node_count", "avg_degree", "terminal_count", "seed")
    cfg = GenConfig(**{k: spec[k] for k in keys})
    if spec["regular_degree"] is None:
        inst = generate_instance(cfg)
    else:
        inst = generate_regular_instance(cfg, spec["regular_degree"])
    weights = [w for _, _, w in inst.graph.edges]
    rule = spec["weights"]
    if rule == "unit":
        weights = [1.0] * len(weights)
    elif rule == "zero":
        zero = np.random.default_rng(spec["seed"]).random(len(weights)) < 0.4
        weights = [0.0 if z else round(w, 1) for w, z in zip(weights, zero.tolist())]
    else:
        digits = {"round1": 1, "round2": 2}[rule]
        weights = [round(w, digits) for w in weights]
    edges = tuple((u, v, w) for (u, v, _), w in zip(inst.graph.edges, weights))
    return replace(inst, graph=Graph(inst.graph.node_count, edges))


def reference_grow_chunk(table, subsets: np.ndarray, xmax: np.ndarray) -> None:
    """Grow of one chunk as a row-compacting Bellman-Ford, kept as the
    reference for ``solver._grow_chunk``: each sweep gathers the rows that
    changed in the sweep before, relaxes the arcs leaving the nodes that
    changed into that copy, and scatters it back. Both must leave the
    same ``cost`` and ``arg`` bits."""
    src, dst, weight = table.arcs
    c, n = len(subsets), table.cost.shape[1]
    value = table.cost[subsets]
    sweep_of = np.zeros((c, n), dtype=np.int32)
    rows = np.arange(c)
    moved = np.isfinite(value).any(axis=0)
    sweep = 0
    while rows.size:
        sweep += 1
        arcs = np.flatnonzero(moved[src])
        current = value[rows]
        candidates = current[:, src[arcs]]
        np.add(candidates, xmax[rows][:, None] * weight[arcs], out=candidates)
        index = (np.arange(rows.size) * n)[:, None] + dst[arcs]
        np.minimum.at(current.reshape(-1), index.reshape(-1), candidates.reshape(-1))
        better = current < value[rows]
        value[rows] = current
        last = sweep_of[rows]
        np.copyto(last, sweep, where=better)
        sweep_of[rows] = last
        moved = better.any(axis=0)
        rows = rows[better.any(axis=1)]
    table.cost[subsets] = value
    table.arg[subsets] = sweep_of
