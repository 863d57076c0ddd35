"""Data model: weighted graphs, problem instances, and flow solutions.

A problem instance is an undirected weighted graph, a single source node,
and a set of terminal nodes each with a positive rate demand. A solution
assigns positive flows to directed edges so that every terminal receives
at least its demanded rate from the source; on a source-rooted tree the
least such flows are :func:`tree_flows`. The module imports no numpy.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import types
from collections.abc import Mapping
from dataclasses import dataclass, field, fields


class InstanceError(ValueError):
    """Raised when a graph or instance violates a structural invariant."""


class InfeasibleInstanceError(ValueError):
    """Raised when a solver is handed an instance with no feasible solution.

    Carries the validation report that explains why.
    """

    def __init__(self, report: list[str]):
        super().__init__("infeasible instance: " + "; ".join(report))
        self.report = report


def as_int(x) -> int | None:
    """``x`` as an int if it is an integer id or count (``operator.index``
    accepts it and it is no bool, although bool is an int), else None."""
    try:
        return None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        return None


def as_float(x) -> float | None:
    """``x`` as a float if it is a real number (``numbers.Real``, no bool),
    else None; an integer too large for a float reads as +-inf."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


_FIELD_RULES = {"int": (as_int, "an integer"), "float": (as_float, "a number")}


def require_fields(obj, error=ValueError) -> None:
    """Raise ``error`` naming the first init field of dataclass ``obj``
    annotated ``int`` that holds no integer (:func:`as_int`), or ``float``
    that holds no number (:func:`as_float`). Annotations must be strings,
    as under ``from __future__ import annotations``."""
    for f in fields(obj):
        rule, kind = _FIELD_RULES.get(f.type, (None, None))
        if f.init and rule and rule(getattr(obj, f.name)) is None:
            raise error(f"{f.name} must be {kind}, got {getattr(obj, f.name)!r}")


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on nodes 0..node_count-1.

    Node ids are integers (:func:`as_int`), stored as one shared int per
    node. Edge weights are real numbers (:func:`as_float`) stored as floats:
    finite, nonnegative unit transmission costs. Edges are stored normalized
    (u < v) and sorted; ``adjacency`` and ``total_weight`` (the weights added
    in that order; inf where they overflow) are derived at construction, the
    weight lookup at first use (``flow_cost``, ``has_edge``): the solver's
    page-fault test reads where it lands. Every field is a tuple or a
    number, so a graph cannot change after construction.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    adjacency: tuple[tuple[tuple[int, float], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    total_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_fields(self, InstanceError)
        n = as_int(self.node_count)
        if n < 1:
            raise InstanceError(f"node_count must be positive, got {n}")
        # one int object per node id, shared by every edge and adjacency entry
        ids = list(range(n))
        inf = math.inf
        normalized = []
        seen = set()
        for edge in self.edges:
            try:
                u, v, w = edge
            except (TypeError, ValueError):
                raise InstanceError(f"edge {edge!r} is not a (u, v, weight) triple")
            if type(u) is not int or type(v) is not int:
                bad = [x for x in (u, v) if as_int(x) is None]
                if bad:
                    raise InstanceError(f"edge {edge!r} has non-integer node id {bad[0]!r}")
                u, v = as_int(u), as_int(v)
            if type(w) is not float:
                weight = as_float(w)
                if weight is None:
                    raise InstanceError(f"edge {edge!r} has non-numeric weight {w!r}")
                w = weight
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge ({u}, {v}) has node id outside [0, {n})")
            if u == v:
                raise InstanceError(f"self-loop at node {u}")
            if u > v:
                u, v = v, u
            key = u * n + v
            if key in seen:
                raise InstanceError(f"duplicate edge ({u}, {v})")
            if not 0.0 <= w < inf:
                if not math.isfinite(w):
                    raise InstanceError(f"edge ({u}, {v}) has non-finite weight {w}")
                raise InstanceError(f"edge ({u}, {v}) has negative weight {w}")
            seen.add(key)
            normalized.append((ids[u], ids[v], w))
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))
        # in sorted edge order a node's lower neighbours come first, each
        # side ascending, so every list is in neighbour order as built
        adj: list[list[tuple[int, float]]] = [[] for _ in ids]
        total = 0.0
        for u, v, w in normalized:
            adj[u].append((v, w))
            adj[v].append((u, w))
            total += w
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))
        object.__setattr__(self, "total_weight", total)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether integer ids (:func:`as_int`, so no float or bool) share an edge."""
        u, v = as_int(u), as_int(v)
        return u is not None and v is not None and (min(u, v), max(u, v)) in self._weights

    @functools.cached_property
    def _weights(self) -> dict[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}

    def reachable_from(self, start: int) -> set[int]:
        """Nodes reachable from ``start`` by BFS."""
        seen = [False] * self.node_count
        seen[start] = True
        order = [start]
        for u in order:  # the loop reads the nodes it appends
            for v, _ in self.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    order.append(v)
        return set(order)


@dataclass(frozen=True)
class Instance:
    """A routing problem: graph, source node, and per-terminal demands.

    ``terminals`` maps terminal node id to its finite, positive demand, in a
    read-only copy of the mapping given, so the invariants checked here hold
    for the instance's life. The source is never a terminal. Reachability
    of terminals is a semantic check done by :func:`validate_instance`, not
    a construction invariant.
    """

    graph: Graph
    source: int
    terminals: Mapping[int, float]

    def __post_init__(self):
        terminals = types.MappingProxyType(dict(self.terminals))
        object.__setattr__(self, "terminals", terminals)
        n, source = self.graph.node_count, self.source
        if as_int(source) is None:
            raise InstanceError(f"source {source!r} is not an integer")
        if not 0 <= source < n:
            raise InstanceError(f"source {source} outside [0, {n})")
        if source in terminals:
            raise InstanceError("source in terminal set")
        if not terminals:
            raise InstanceError("terminal set is empty")
        if len(terminals) > n - 1:
            raise InstanceError(f"{len(terminals)} terminals exceed node_count - 1 = {n - 1}")
        for t in terminals:
            if as_int(t) is None:
                raise InstanceError(f"terminal {t!r} is not an integer")
        for t in sorted(terminals):
            demand = terminals[t]
            number = as_float(demand)
            if not 0 <= t < n:
                raise InstanceError(f"terminal {t} outside [0, {n})")
            if number is None:
                raise InstanceError(f"terminal {t} has non-numeric demand {demand!r}")
            if not math.isfinite(number):
                raise InstanceError(f"terminal {t} has non-finite demand {number}")
            if demand <= 0:
                raise InstanceError(f"terminal {t} has nonpositive demand {demand}")
        if cost_ceiling(self.graph, self.max_demand()) == math.inf:
            u, v, w = max(self.graph.edges, key=lambda e: e[2])
            raise InstanceError(
                f"total edge weight {self.graph.total_weight} x largest demand {self.max_demand()}"
                f" overflows a float cost bound; the heaviest edge is ({u}, {v}) with weight {w}"
            )

    def __reduce__(self):
        # a mappingproxy does not pickle; unpickling checks the copy again
        return Instance, (self.graph, self.source, dict(self.terminals))

    @property
    def terminal_count(self) -> int:
        return len(self.terminals)

    def max_demand(self) -> float:
        return max(self.terminals.values())


def cost_ceiling(graph: Graph, demand: float) -> float:
    """A cost strictly above that of any flow of at most ``demand`` per
    edge: ``graph.total_weight * demand`` plus a margin no rounding can
    lose, 1.0 or 2^-30 of the product where that is larger (from 2^30
    on). inf where it overflows, which :class:`Instance` refuses at the
    largest demand."""
    base = graph.total_weight * demand
    return base + max(1.0, base * 2**-30)


def validate_instance(inst: Instance) -> list[str]:
    """Feasibility report, empty = feasible: each terminal the source cannot
    reach, in ascending id order, from one BFS. That is the one way left for
    an instance, whose invariants hold from construction, to have no solution."""
    reachable = inst.graph.reachable_from(inst.source)
    return [f"terminal {t} unreachable from source" for t in sorted(inst.terminals)
            if t not in reachable]


def require_feasible(inst: Instance) -> set[int]:
    """The nodes reachable from the source, from the one search a valid
    instance needs; else InfeasibleInstanceError carrying
    :func:`validate_instance`'s report."""
    reachable = inst.graph.reachable_from(inst.source)
    if reachable.issuperset(inst.terminals):
        return reachable
    raise InfeasibleInstanceError(validate_instance(inst))


@dataclass(frozen=True)
class FlowSolution:
    """Directed edge flows with their total weighted cost.

    Keys of ``flows`` are (parent, child) pairs oriented away from the
    source; every flow is positive and every keyed edge exists undirected
    in the instance graph. ``cost`` is the sum of weight * flow.
    ``runtime_ms`` is the wall time ``ostflow.registry`` measured for the
    solver call; a solver function called directly leaves it 0.0.
    """

    flows: dict[tuple[int, int], float]
    cost: float
    algorithm: str
    runtime_ms: float = 0.0

    def sorted_flows(self) -> list[tuple[int, int, float]]:
        return [(u, v, f) for (u, v), f in sorted(self.flows.items())]


def sum_left(values) -> float:
    """Float sum added left to right. Seeded totals and bench means use it,
    not ``sum``, which compensates rounding on Python >= 3.12 and so would
    make a run's draws, costs and summaries depend on the interpreter."""
    total = 0.0
    for x in values:
        total += x
    return total


def flow_cost(graph: Graph, flows: dict[tuple[int, int], float]) -> float:
    """The objective: sum of weight * flow, added in sorted edge order.

    Raises ValueError on a flow over an edge absent from the graph.
    """
    weights = graph._weights
    cost = 0.0
    for (u, v), f in sorted(flows.items()):
        w = weights.get((u, v) if u < v else (v, u))
        if w is None:
            raise ValueError(f"flow on edge ({u}, {v}) absent from graph")
        cost += w * f
    return cost


def tree_flows(parent, source: int, terminals: dict[int, float]) -> dict[tuple[int, int], float]:
    """Demand-law flows on a source-rooted tree: each terminal's path up to
    the source carries the largest demand below it. ``parent`` maps each
    node on those paths to its parent (a list by node id, or a dict). Edges
    with no terminal below carry nothing and are left out, which is what
    pruning non-required leaves removes."""
    flows: dict[tuple[int, int], float] = {}
    for t, demand in terminals.items():
        # every edge above one that already carries >= demand does too
        x = t
        while x != source:
            key = (parent[x], x)
            if flows.get(key, 0.0) >= demand:
                break
            flows[key] = demand
            x = key[0]
    return flows


def make_solution(
    inst: Instance, flows: dict[tuple[int, int], float], algorithm: str
) -> FlowSolution:
    """Build a FlowSolution, computing cost from the flows.

    Zero flows are dropped; negative flows or flows on absent edges are
    construction bugs and raise.
    """
    kept: dict[tuple[int, int], float] = {}
    for (u, v), f in sorted(flows.items()):
        if f < 0:
            raise ValueError(f"negative flow {f} on edge ({u}, {v})")
        if f != 0:
            kept[(u, v)] = f
    return FlowSolution(flows=kept, cost=flow_cost(inst.graph, kept), algorithm=algorithm)
