"""Comparison solvers: spanning-tree, shortest-path union, and three
metaheuristics (genetic, ant colony, bee colony).

All emit FlowSolution and are pure functions of (instance, params), with
``runtime_ms`` 0.0 (``ostflow.registry`` times solver calls); the
metaheuristics draw every random number from one seeded PCG64 stream, so
a fixed seed reproduces the run bit for bit.

GA and BCO share a genotype: ``bytes`` with one 0/1 byte per free node
(nodes in the source's component that are neither source nor terminal).
A genome decodes to the minimum spanning tree of the induced subgraph,
pruned of non-required leaves, with each edge carrying the largest demand
below it; MST is the decode of the all-ones genome. The decoder memoises
nothing: it keeps only the incumbent, and GA and BCO carry their own
costs. ACO builds one guided path per terminal, merges the paths into a
tree and offers that tree to the same incumbent.

Every such tree comes from one routine, ``_SubsetDecoder.rooted``: Prim
from the source over edge-rank bitsets, which returns the parent array
the demand walk-up (``model.tree_flows``) reads; a genome's edges are
such a bitset too, so a decode makes no numpy call. SPT's shortest-path
tree feeds the same walk-up. Consecutive draws merge into one call (GA's
two tournaments of a child, its crossover test with the first mask,
BCO's employed flip bits) on the same stream: numpy's bounded draws
below 2**32 take 32-bit halves from the bit generator's ``has_uint32``
buffer, so one draw of size 2k equals two of size k, and ``random(n)``
yields n scalar draws; ACO's walks read theirs one at a time from one
iterator over ``random(4096)`` blocks.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate, chain, compress

import numpy as np

from .model import (FlowSolution, Instance, cost_ceiling, flow_cost, make_solution, require_feasible,
                    require_fields, sum_left, tree_flows)


@dataclass(frozen=True)
class MetaheuristicParams:
    """Knobs for the randomized baselines; defaults are standard textbook
    settings, exposed so benchmark claims never hinge on hidden tuning."""

    population: int = 50
    iterations: int = 100
    seed: int = 0
    # genetic algorithm
    crossover_rate: float = 0.8
    mutation_rate: float = 0.02
    tournament_size: int = 3
    # ant colony
    ant_count: int = 20
    evaporation: float = 0.1
    pheromone_weight: float = 1.0
    heuristic_weight: float = 2.0
    # bee colony
    scout_fraction: float = 0.1
    abandonment_limit: int = 10

    def __post_init__(self):
        require_fields(self)
        if self.population < 1 or self.iterations < 1 or self.ant_count < 1:
            raise ValueError("population, iterations and ant_count must be positive")
        if not (0 <= self.crossover_rate <= 1 and 0 <= self.mutation_rate <= 1):
            raise ValueError("GA rates must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be positive")
        if not (0 < self.evaporation < 1):
            raise ValueError("evaporation must lie in (0, 1)")
        if not (0 <= self.pheromone_weight < math.inf and 0 <= self.heuristic_weight < math.inf):
            raise ValueError("pheromone_weight and heuristic_weight must be finite and >= 0")
        if not (0 <= self.scout_fraction <= 1):
            raise ValueError("scout_fraction must lie in [0, 1]")
        if self.abandonment_limit < 1:
            raise ValueError("abandonment_limit must be positive")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


def solve_mst_prune(inst: Instance) -> FlowSolution:
    """Spanning-tree baseline: MST of the whole graph, pruned of unused
    leaves, every remaining edge carrying the overall maximum demand.

    Deliberately wasteful on purpose: the flow is not differentiated per
    subtree, which is exactly what this baseline models.
    """
    decoder = _SubsetDecoder(inst)
    # the source's component is the source, the terminals and the free nodes
    if len(decoder.free) + 1 + len(inst.terminals) < inst.graph.node_count:
        raise ValueError("graph is disconnected; spanning tree does not exist")
    decoder.cost(b"\x01" * len(decoder.free))
    return make_solution(inst, dict.fromkeys(decoder.best[1], inst.max_demand()), "mst")


def _lexmin_shortest_path_tree(inst: Instance) -> list[int]:
    """The parent of every node reachable from the source (the source is
    its own, -1 for the rest) on the lexicographically smallest shortest
    paths. The paths are prefix-consistent (each settled node has one
    final path, reused by everything routed through it), so they form a
    tree."""
    adjacency = inst.graph.adjacency
    parent = [-1] * inst.graph.node_count
    settled = 0
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (inst.source,))]
    while heap and settled < len(parent):
        d, path = heapq.heappop(heap)
        v = path[-1]
        if parent[v] >= 0:
            continue
        parent[v] = path[-2] if len(path) > 1 else v
        settled += 1
        for u, w in adjacency[v]:
            if parent[u] < 0:
                heapq.heappush(heap, (d + w, path + (u,)))
    return parent


def solve_sp_union(inst: Instance) -> FlowSolution:
    """Shortest-path baseline: union the per-terminal shortest paths, each
    edge carrying the maximum demand among the terminals routed over it."""
    require_feasible(inst)
    flows = tree_flows(_lexmin_shortest_path_tree(inst), inst.source, inst.terminals)
    return make_solution(inst, flows, "spt")


class _SubsetDecoder:
    """Decode node subsets into flow solutions, keeping only the incumbent.

    Its free nodes come from ``require_feasible``'s reachability search.
    ``edges`` is the graph's edges sorted (weight, u, v); an edge's rank is
    its index there. A genome is ``bytes``, one 0/1 byte per free node. The
    decoded solution is the pruned MST of the induced subgraph with
    demand-law flows, or the penalty when the induced subgraph is
    disconnected; its induced edges are the rank bits of the source
    component's edges less those at unselected free nodes. Nothing is
    memoised: every ``cost`` call decodes.
    ``offer`` turns a rooted tree into flows and keeps the incumbent
    ``best``: the first offered tree of least cost, or ``(penalty, None)``
    before one. The penalty is ``model.cost_ceiling``, strictly above
    every feasible cost.

    ``rooted`` grows the one tree every caller needs, by Prim from the
    source over edge ranks. Ranks order the edges strictly, and under a
    strict order a connected graph has one MST, so Prim finds the edges
    Kruskal would, already rooted at the source.
    """

    _FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # a genome's complement

    def __init__(self, inst: Instance):
        self.inst = inst
        reachable = require_feasible(inst)
        self._required = required = [inst.source, *inst.terminals]
        self.free = sorted(reachable.difference(required))
        self.edges = sorted((w, u, v) for u, v, w in inst.graph.edges)
        self.ends = ends = [(u, v) for _, u, v in self.edges]
        # the rank bits of the edges at each node
        self._incident = incident = [0] * inst.graph.node_count
        for rank, (u, v) in enumerate(ends):
            bit = 1 << rank
            incident[u] |= bit
            incident[v] |= bit
        self._component = 0
        for v in reachable:
            self._component |= incident[v]
        self.penalty = cost_ceiling(inst.graph, inst.max_demand())
        self.best: tuple[float, dict[tuple[int, int], float] | None] = (self.penalty, None)

    def random_genome(self, rng: np.random.Generator) -> bytes:
        """A genome of fair coin flips, from one ``rng.integers`` draw."""
        return rng.integers(0, 2, size=len(self.free)).astype(np.uint8).tobytes()

    def first_genomes(self, rng: np.random.Generator, count: int) -> list[bytes]:
        """The seeded start: the all-ones genome, which always decodes
        feasibly on a valid instance, followed by ``count - 1`` random
        genomes; none is decoded here."""
        all_ones = b"\x01" * len(self.free)
        return [all_ones] + [self.random_genome(rng) for _ in range(count - 1)]

    def cost(self, genome: bytes) -> float:
        """The decoded cost of a genome; the penalty when infeasible."""
        incident, free = self._incident, self.free
        dropped = 0
        for v in compress(free, genome.translate(self._FLIP)):
            dropped |= incident[v]
        allowed = self._component & ~dropped
        # a selected node on no induced edge disconnects the subgraph
        for v in chain(self._required, compress(free, genome)):
            if not incident[v] & allowed:
                return self.penalty
        parent = self.rooted(allowed)
        # the tree spans the selection exactly when it has as many nodes
        if len(parent) - parent.count(-1) < 1 + len(self.inst.terminals) + genome.count(1):
            return self.penalty
        return self.offer(parent)

    def rooted(self, allowed: int) -> list[int]:
        """The parent of each node (the source its own, -1 off the tree) on
        the MST of the source's component among the edges whose rank bits
        are set in ``allowed``, grown by Prim. The cut holds the allowed
        edges with one end on the tree: when v joins, ``cut ^=
        incident[v] & allowed`` drops v's edges back into the tree and
        adds those to new nodes. The cheapest edge across is the cut's
        lowest rank bit."""
        source, ends, incident = self.inst.source, self.ends, self._incident
        parent = [-1] * len(incident)
        parent[source] = source
        cut = incident[source] & allowed
        while cut:
            u, v = ends[(cut & -cut).bit_length() - 1]
            if parent[v] >= 0:
                u, v = v, u
            parent[v] = u
            cut ^= incident[v] & allowed
        return parent

    def offer(self, parent: list[int]) -> float:
        """The cost of the demand-law flows on a source-rooted tree given by
        ``parent``; the tree becomes the incumbent when that cost is
        strictly below the incumbent's."""
        flows = tree_flows(parent, self.inst.source, self.inst.terminals)
        cost = flow_cost(self.inst.graph, flows)
        if cost < self.best[0]:
            self.best = (cost, flows)
        return cost


def solve_ga(inst: Instance, p: MetaheuristicParams | None = None) -> FlowSolution:
    """Genetic algorithm over node-inclusion genomes.

    The population starts from the decoder's seeded start (the all-ones
    genome, every free node selected, plus random genomes) and the result
    is the decoder's incumbent. Elitism keeps the incumbent alive: the
    elite is carried with its cost, so each generation after the first
    decodes only its children. The first mask a child draws is its
    crossover mask, or its mutation mask when there is no crossover.
    """
    p = p or MetaheuristicParams()
    decoder = _SubsetDecoder(inst)
    rng = np.random.Generator(np.random.PCG64(p.seed))
    length, k = len(decoder.free), p.tournament_size
    population = decoder.first_genomes(rng, p.population)
    fits: list[float] = []

    def fitness(i: int) -> tuple[float, int]:
        return fits[i], i

    for _ in range(p.iterations):
        fits += [decoder.cost(genome) for genome in population[len(fits) :]]
        elite = min(range(len(population)), key=fitness)
        children = [population[elite]]
        while len(children) < p.population:
            picks = rng.integers(0, len(fits), size=2 * k).tolist()
            genes = np.frombuffer(population[min(picks[:k], key=fitness)], dtype=bool)
            draws = rng.random(1 + length)
            mask = draws[1:]
            if draws[0] < p.crossover_rate:
                b = population[min(picks[k:], key=fitness)]
                genes = np.where(mask < 0.5, genes, np.frombuffer(b, dtype=bool))
                mask = rng.random(length)
            children.append((genes ^ (mask < p.mutation_rate)).tobytes())
        population = children
        fits = [fits[elite]]
    return make_solution(inst, decoder.best[1], "ga")


def solve_bco(inst: Instance, p: MetaheuristicParams | None = None) -> FlowSolution:
    """Bee colony over node-inclusion sites.

    Employed bees flip one bit of their site, onlookers sample sites in
    proportion to inverse cost, and scouts reinitialize the stalest sites
    once they exceed the abandonment limit (at most a scout_fraction of
    the population per iteration). The sites start from the decoder's
    seeded start, scouts draw the decoder's random genomes (decoded in the
    next employed pass), and the result is the decoder's incumbent."""
    p = p or MetaheuristicParams()
    decoder = _SubsetDecoder(inst)
    length = len(decoder.free)
    if not length:  # every site is b"", so the incumbent is its one decode
        decoder.cost(b"")
        return make_solution(inst, decoder.best[1], "bco")
    rng = np.random.Generator(np.random.PCG64(p.seed))
    sites = decoder.first_genomes(rng, p.population)
    costs: list[float | None] = [None] * p.population
    stale = [0] * p.population

    def improve(i: int, bit: int) -> bool:
        """Move site i to its flip at ``bit`` if that costs less."""
        trial = sites[i]
        trial = trial[:bit] + bytes((trial[bit] ^ 1,)) + trial[bit + 1 :]
        t_cost = decoder.cost(trial)
        if t_cost < costs[i]:
            sites[i], costs[i], stale[i] = trial, t_cost, 0
            return True
        stale[i] += 1
        return False

    max_scouts = max(1, math.ceil(p.scout_fraction * p.population))
    for _ in range(p.iterations):
        for i, bit in enumerate(rng.integers(0, length, size=p.population).tolist()):
            if costs[i] is None:
                costs[i] = decoder.cost(sites[i])
            improve(i, bit)
        # onlookers take the first site whose running weight reaches
        # r * total, or the last site if rounding leaves none
        running = list(accumulate(1.0 / (1.0 + c) for c in costs))
        for _ in range(p.population):
            j = min(bisect_left(running, rng.random() * running[-1]), p.population - 1)
            if improve(j, int(rng.integers(0, length))):
                running = list(accumulate(1.0 / (1.0 + c) for c in costs))
        stuck = sorted(
            (i for i in range(p.population) if stale[i] > p.abandonment_limit),
            key=lambda i: (-stale[i], i),
        )
        for i in stuck[:max_scouts]:
            sites[i] = decoder.random_genome(rng)
            costs[i] = None
            stale[i] = 0
    return make_solution(inst, decoder.best[1], "bco")


def _ant_walk(
    draw: Callable[[], float],
    source: int,
    target: int,
    hops: list[list[tuple[int, int, float]]],
) -> list[int]:
    """Randomized depth-first walk from the source to the target. ``hops[u]``
    lists (neighbour, edge id, pheromone^alpha * desirability) by
    neighbour; the next hop is drawn among the unvisited ones in
    proportion to the weight. Every forward step calls ``draw`` once for a
    uniform value in [0, 1), even with a single option. Complete: dead
    ends backtrack, without a draw, so any reachable target is found.
    Returns the ids of the path's edges.

    A step builds no option list: one pass over ``hops[u]`` adds the
    unvisited weights left to right and keeps the last unvisited hop, and
    with several options a second pass takes the first unvisited hop whose
    running sum reaches ``r * total`` (the last one if none does)."""
    path = [source]
    via: list[int] = []
    visited = [False] * len(hops)
    visited[source] = True
    u = source
    while u != target:
        total = 0.0
        last = None
        several = False
        for hop in hops[u]:
            if not visited[hop[0]]:
                total += hop[2]
                several = last is not None
                last = hop
        if last is None:
            path.pop()
            via.pop()
            u = path[-1]
            continue
        r = draw()
        hop = last
        if several:
            r *= total
            acc = 0.0
            for option in hops[u]:
                if not visited[option[0]]:
                    acc += option[2]
                    if acc >= r:
                        hop = option
                        break
        u = hop[0]
        visited[u] = True
        path.append(u)
        via.append(hop[1])
    return via


def _edge_values(ends: list[tuple[int, int]], values, what: str) -> list[float]:
    """The per-edge ``values``, in edge id order, as a list; a value that
    overflows a float is a ValueError naming its edge."""
    finite: list[float] = []
    try:
        for x in values:
            if x == math.inf:
                break
            finite.append(x)
    except OverflowError:  # float ** raises it; an overflowing product is inf
        pass
    if len(finite) == len(ends):
        return finite
    u, v = ends[len(finite)]
    raise ValueError(
        f"ACO {what} of edge ({u}, {v}) overflows a float; "
        "lower pheromone_weight or heuristic_weight"
    )


def solve_aco(inst: Instance, p: MetaheuristicParams | None = None) -> FlowSolution:
    """Ant colony over per-terminal path construction.

    Each ant routes every terminal with a pheromone-guided walk; the walks
    are merged like the shortest-path union (shared edges carry one stream
    at the larger demand). The union of an ant's walks is cut to its
    minimum spanning tree (``_SubsetDecoder.rooted``, which drops the
    dearest removable cycle edges), then pruned of non-required leaves,
    and offered to the decoder's incumbent. The incumbent deposits pheromone each iteration
    after evaporation."""
    p = p or MetaheuristicParams()
    rng = np.random.Generator(np.random.PCG64(p.seed))
    # rng.random() values one at a time from blocks: the scalar calls' stream
    draw = chain.from_iterable(iter(lambda: rng.random(4096).tolist(), None)).__next__
    decoder = _SubsetDecoder(inst)
    # edge ids are the decoder's edge ranks
    ordered, ends = decoder.edges, decoder.ends
    edge_id = {edge: i for i, edge in enumerate(ends)}
    bits = [1 << i for i in range(len(ends))]
    desir = _edge_values(
        ends, ((1.0 / max(w, 1e-12)) ** p.heuristic_weight for w, _, _ in ordered), "desirability"
    )
    pheromone = [1.0] * len(ordered)
    incident = [[(v, edge_id[(min(u, v), max(u, v))]) for v, _ in nb]
                for u, nb in enumerate(inst.graph.adjacency)]
    alpha = p.pheromone_weight
    terminals = sorted(inst.terminals)
    for _ in range(p.iterations):
        powered = (x ** alpha * d for x, d in zip(pheromone, desir))
        weight = _edge_values(ends, powered, "hop weight")
        hops = [[(v, i, weight[i]) for v, i in nb] for nb in incident]
        # a walk's total over the unvisited hops never exceeds the full one
        for u, nb in enumerate(hops):
            if sum_left(hop[2] for hop in nb) == math.inf:
                raise ValueError(
                    f"ACO hop total at node {u} overflows a float; "
                    "lower pheromone_weight or heuristic_weight"
                )
        for _ in range(p.ant_count):
            support: set[int] = set()
            for t in terminals:
                support.update(_ant_walk(draw, inst.source, t, hops))
            decoder.offer(decoder.rooted(sum(map(bits.__getitem__, support))))
        pheromone = [x * (1.0 - p.evaporation) for x in pheromone]
        deposit = 1.0 / max(decoder.best[0], 1e-12)
        # a tree's edges are distinct, so each id gets one deposit
        for u, v in decoder.best[1]:
            pheromone[edge_id[(min(u, v), max(u, v))]] += deposit
    return make_solution(inst, decoder.best[1], "aco")
