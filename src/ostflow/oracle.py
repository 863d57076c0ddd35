"""Independent brute-force optimum for desk-size instances.

Enumerates every tree rooted at the source (canonical edge-order growth,
so each tree is visited exactly once), keeps those that span all
terminals with every leaf a terminal or the source, assigns each tree
edge the only minimal feasible flow (the maximum demand among terminals
below it), and returns the cheapest. Deliberately dumb: no shared code
with the dynamic-programming solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model import (
    FlowSolution,
    InfeasibleInstanceError,
    Instance,
    make_solution,
    require_feasible,
    require_fields,
)


@dataclass(frozen=True)
class OracleLimits:
    """Instance size caps; enumeration is bounded by 2^max_edges subsets.

    Both are positive integers (ValueError naming the field otherwise).
    """

    max_nodes: int = 10
    max_edges: int = 20

    def __post_init__(self):
        require_fields(self)
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive, got {getattr(self, f.name)}")


def brute_force_optimum(inst: Instance, lim: OracleLimits | None = None) -> FlowSolution:
    """Exact optimum by exhaustive tree enumeration; ties prefer the
    lexicographically smallest sorted edge list."""
    lim = lim or OracleLimits()
    n = inst.graph.node_count
    if n > lim.max_nodes or inst.graph.edge_count > lim.max_edges:
        raise ValueError(
            f"oracle limit: instance has {n} nodes / {inst.graph.edge_count} edges, "
            f"limits are {lim.max_nodes} / {lim.max_edges}"
        )
    require_feasible(inst)

    edges = inst.graph.edges
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v, _) in enumerate(edges):
        incident[u].append((i, v))
        incident[v].append((i, u))
    source = inst.source
    required_mask = 1 << source
    for t in inst.terminals:
        required_mask |= 1 << t
    min_demand = min(inst.terminals.values())

    best_cost = math.inf
    best_key: tuple[tuple[int, int], ...] | None = None
    best_flows: dict[tuple[int, int], float] | None = None

    tree_nodes = [source]
    tree_edges: list[int] = []
    degree = [0] * n

    def tree_cost() -> tuple[float, dict[tuple[int, int], float]]:
        # Root at the source; every edge carries the max demand below it.
        local: dict[int, list[tuple[int, float]]] = {x: [] for x in tree_nodes}
        for ei in tree_edges:
            u, v, w = edges[ei]
            local[u].append((v, w))
            local[v].append((u, w))
        parent: dict[int, tuple[int, float]] = {source: (-1, 0.0)}
        order = [source]
        stack = [source]
        while stack:
            x = stack.pop()
            for y, w in local[x]:
                if y not in parent:
                    parent[y] = (x, w)
                    order.append(y)
                    stack.append(y)
        submax = {x: inst.terminals.get(x, 0.0) for x in order}
        for x in reversed(order):
            p, _ = parent[x]
            if p != -1 and submax[x] > submax[p]:
                submax[p] = submax[x]
        cost = 0.0
        flows: dict[tuple[int, int], float] = {}
        for x in order:
            p, w = parent[x]
            if p != -1:
                flows[(p, x)] = submax[x]
                cost += w * submax[x]
        return cost, flows

    def consider() -> None:
        nonlocal best_cost, best_key, best_flows
        for node in tree_nodes:
            if degree[node] == 1 and not (required_mask >> node) & 1:
                return
        cost, flows = tree_cost()
        key = tuple(sorted((min(edges[ei][0], edges[ei][1]), max(edges[ei][0], edges[ei][1])) for ei in tree_edges))
        if cost < best_cost or (cost == best_cost and (best_key is None or key < best_key)):
            best_cost = cost
            best_key = key
            best_flows = flows

    def explore(node_mask: int, banned: int, weight_sum: float) -> None:
        # Extension edges in ascending index; each branch bans its earlier
        # siblings so every tree is generated exactly once.
        candidates = []
        for node in tree_nodes:
            for ei, other in incident[node]:
                if not (node_mask >> other) & 1 and not (banned >> ei) & 1:
                    candidates.append((ei, other))
        candidates.sort()
        for ei, other in candidates:
            u, v, w = edges[ei]
            new_sum = weight_sum + w
            # Every completion costs at least new_sum * min_demand.
            if new_sum * min_demand <= best_cost:
                tree_nodes.append(other)
                tree_edges.append(ei)
                degree[u] += 1
                degree[v] += 1
                if required_mask & ~(node_mask | (1 << other)) == 0:
                    consider()
                explore(node_mask | (1 << other), banned, new_sum)
                degree[u] -= 1
                degree[v] -= 1
                tree_edges.pop()
                tree_nodes.pop()
            banned |= 1 << ei

    explore(1 << source, 0, 0.0)
    if best_flows is None:
        raise InfeasibleInstanceError(["no spanning tree over the required nodes"])
    return make_solution(inst, best_flows, algorithm="oracle")
