"""Seeded random instance generation.

Topology: a uniform random spanning tree (decoded from a random Pruefer
sequence) plus extra edges drawn uniformly among the absent node pairs,
so the graph is always connected. Extra edges are sampled by pair rank,
without listing the absent pairs: O(m log m) time and O(n + m) memory
for m edges. Weights are i.i.d. uniform on (0, 1).
All randomness flows from a single PCG64 generator seeded by the config,
so identical configs produce bit-identical instances. Its draws come in
this order: the Pruefer sequence (``integers``), the extra pairs' ranks
(``choice`` without replacement), one weight per edge in ascending
(u, v) order (``random`` in a block, redrawing an exact zero), the node
permutation (``permutation``) and one demand pick per non-source node
(``choice`` with the demand probabilities).

Source and terminals come from one random node permutation: the source is
the first entry and terminals the next ``terminal_count`` entries, with
demands drawn in permutation order. For a fixed seed this makes terminal
sets (and their demands) nested across increasing ``terminal_count``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .model import Graph, Instance, InstanceError, as_float, as_int, require_fields, sum_left

# pairings of each kind generate_regular_instance tries before it gives up
_REGULAR_ATTEMPTS = 2000

DEFAULT_DEMAND_SET: tuple[tuple[float, float], ...] = (
    (1.0, 1 / 3),
    (0.5, 1 / 3),
    (0.25, 1 / 3),
)


@dataclass(frozen=True)
class GenConfig:
    """Parameters for random instance generation.

    ``demand_set`` is a discrete distribution given as (value, probability)
    pairs; the default models three stream resolutions at rates 1, 0.5 and
    0.25 with equal probability.
    """

    node_count: int
    avg_degree: float
    terminal_count: int
    demand_set: tuple[tuple[float, float], ...] = DEFAULT_DEMAND_SET
    seed: int = 0

    def __post_init__(self):
        require_fields(self, InstanceError)
        demand_set = tuple((as_float(v), as_float(p)) for v, p in self.demand_set)
        if any(None in pair for pair in demand_set):
            raise InstanceError(f"demand_set must hold number pairs, got {self.demand_set!r}")
        object.__setattr__(self, "demand_set", demand_set)
        if self.node_count < 1:
            raise InstanceError("node_count must be positive")
        if self.avg_degree <= 0:
            raise InstanceError("avg_degree must be positive")
        if not math.isfinite(self.node_count * as_float(self.avg_degree)):
            raise InstanceError(
                f"node_count x avg_degree = {self.node_count} x {self.avg_degree} is not finite"
            )
        if not (1 <= self.terminal_count <= self.node_count - 1):
            raise InstanceError(
                f"terminal_count {self.terminal_count} outside [1, {self.node_count - 1}]"
            )
        full = self.node_count * (self.node_count - 1) // 2
        if self.edge_count > full:
            raise InstanceError(
                f"requested node_count x avg_degree / 2 = {self.node_count} x {self.avg_degree}"
                f" / 2 edges, more than the complete graph's {full} on {self.node_count} nodes"
            )
        for value, prob in self.demand_set:
            if not math.isfinite(value):
                raise InstanceError(f"demand value {value} must be finite")
            if value <= 0:
                raise InstanceError(f"demand value {value} must be positive")
            if not (0 <= prob <= 1):
                raise InstanceError(f"demand probability {prob} outside [0, 1]")
        total = sum_left(p for _, p in self.demand_set)
        if abs(total - 1.0) > 1e-9:
            raise InstanceError(f"demand probabilities sum to {total}, expected 1")
        if not (0 <= self.seed < 2**64):
            raise InstanceError("seed must be a 64-bit unsigned integer")

    @property
    def edge_count(self) -> int:
        return round(self.node_count * self.avg_degree / 2)


def _pruefer_tree(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n nodes via Pruefer decoding."""
    if n == 1:
        return []
    seq = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    # Classic O(n) decode: sweep a pointer over ascending leaves.
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def _positive_uniforms(rng: np.random.Generator, count: int) -> list[float]:
    """``count`` draws of U(0, 1) open at 0: the first ``count`` nonzero
    values of ``rng.random()``'s stream, so an exact zero (measure zero) is
    redrawn and the stream advances by as many doubles as scalar calls
    that redraw a zero would take."""
    draws = rng.random(count).tolist()
    while 0.0 in draws:
        draws = [w for w in draws if w != 0.0]
        draws += rng.random(count - len(draws)).tolist()
    return draws


def _finish_instance(
    rng: np.random.Generator, cfg: GenConfig, tails: list[int], heads: list[int]
) -> Instance:
    """Draw weights, source, terminals and demands for a fixed topology:
    edges (tails[i], heads[i]), tail < head, in ascending (u, v) order."""
    n = cfg.node_count
    weights = _positive_uniforms(rng, len(tails))
    graph = Graph(node_count=n, edges=tuple(zip(tails, heads, weights)))
    perm = rng.permutation(n).tolist()
    values = [v for v, _ in cfg.demand_set]
    probs = [p for _, p in cfg.demand_set]
    # Draw a demand for every non-source node so that, for a fixed seed,
    # each terminal keeps its demand as terminal_count grows.
    picks = rng.choice(len(values), size=n - 1, p=probs).tolist()
    chosen = perm[1 : cfg.terminal_count + 1]
    terminals = {t: values[k] for t, k in zip(chosen, picks)}
    return Instance(graph=graph, source=perm[0], terminals=terminals)


def generate_instance(cfg: GenConfig) -> Instance:
    """Generate a connected random instance; deterministic per config."""
    n = cfg.node_count
    m = cfg.edge_count
    if m < n - 1:
        raise InstanceError(
            f"cannot guarantee connectivity: {m} edges < {n - 1} required for {n} nodes"
        )
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    # Pair (u, v), u < v, has rank start[u] + v - u - 1 in ascending
    # (u, v) order, so sorted ranks decode to sorted pairs.
    ranks = []
    for u, v in _pruefer_tree(rng, n):
        if u > v:
            u, v = v, u
        ranks.append(u * (2 * n - u - 1) // 2 + v - u - 1)
    ranks.sort()
    nodes = np.arange(n)
    start = nodes * (2 * n - nodes - 1) // 2
    if m > len(ranks):
        # Absent pair i has rank i plus the number of tree ranks below it,
        # which t - arange counts by a binary search.
        t = np.array(ranks)
        picked = rng.choice(n * (n - 1) // 2 - len(ranks), size=m - len(ranks), replace=False)
        picked += np.searchsorted(t - np.arange(len(t)), picked, side="right")
        ranks = sorted(ranks + picked.tolist())
    ranks = np.array(ranks)
    u = np.searchsorted(start, ranks, side="right") - 1
    return _finish_instance(rng, cfg, u.tolist(), (ranks - start[u] + u + 1).tolist())


def _connected(n: int, pairs) -> bool:
    """Whether the edges ``pairs`` join all of nodes 0..n-1."""
    graph = Graph(node_count=n, edges=tuple((u, v, 1.0) for u, v in pairs))
    return len(graph.reachable_from(0)) == n


def _sequential_pairing(
    rng: np.random.Generator, n: int, degree: int
) -> list[tuple[int, int]] | None:
    """One Steger-Wormald sequential pairing (Steger & Wormald, Combinatorics,
    Probability and Computing 1999): draw two free stubs uniformly and join
    them when their nodes are distinct and not yet adjacent, until every
    stub is joined. Returns the edges (u, v), u < v, in ascending order, or
    None when free stubs are left but no two of them may be joined."""
    stubs = [v for v in range(n) for _ in range(degree)]
    neighbours: list[set[int]] = [set() for _ in range(n)]
    while stubs:
        i, j = rng.integers(len(stubs), size=2).tolist()
        u, v = stubs[i], stubs[j]
        if u != v and v not in neighbours[u]:
            neighbours[u].add(v)
            neighbours[v].add(u)
            for k in sorted((i, j), reverse=True):
                stubs[k] = stubs[-1]
                stubs.pop()
        elif all(b in neighbours[a] for a, b in combinations(set(stubs), 2)):
            return None
    return [(u, v) for u in range(n) for v in sorted(neighbours[u]) if u < v]


def generate_regular_instance(cfg: GenConfig, degree: int) -> Instance:
    """Generate a connected random d-regular instance; deterministic per config.

    Uses the pairing model: shuffle d copies of every node, pair them up,
    and retry whenever the pairing has self-loops or duplicates or the
    graph is disconnected. A pairing is rarely simple at d >= 6, so when
    the attempts run out the same generator goes on with sequential
    pairing (``_sequential_pairing``), retried likewise. ``cfg.avg_degree``
    is ignored.
    """
    if as_int(degree) is None:
        raise InstanceError(f"regular degree must be an integer, got {degree!r}")
    n, degree = cfg.node_count, as_int(degree)
    if degree < 1 or degree >= n:
        raise InstanceError(f"regular degree {degree} outside [1, {n - 1}]")
    if n * degree % 2 != 0:
        raise InstanceError(f"node_count * degree = {n * degree} must be even")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(_REGULAR_ATTEMPTS):
        ends = np.sort(stubs[rng.permutation(len(stubs))].reshape(-1, 2), axis=1)
        if (ends[:, 0] == ends[:, 1]).any():
            continue
        # keys u * n + v sort as the pairs (u, v) do; a repeat is a duplicate
        keys = np.sort(ends[:, 0] * n + ends[:, 1])
        if (keys[1:] == keys[:-1]).any():
            continue
        tails, heads = (keys // n).tolist(), (keys % n).tolist()
        if _connected(n, zip(tails, heads)):
            return _finish_instance(rng, cfg, tails, heads)
    for _ in range(_REGULAR_ATTEMPTS):
        pairs = _sequential_pairing(rng, n, degree)
        if pairs is not None and _connected(n, pairs):
            return _finish_instance(rng, cfg, *zip(*pairs))
    raise InstanceError(
        f"no simple connected {degree}-regular graph found in {_REGULAR_ATTEMPTS} attempts"
        " of each sampler"
    )
