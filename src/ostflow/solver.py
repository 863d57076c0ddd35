"""Exact minimum-cost multicast flow via dynamic programming over terminal subsets.

State H(v, S) is the cheapest flow network delivering every terminal in
subset S its demanded rate from node v. Boundaries: H(d, {d}) = 0 for a
terminal d, H(v, {}) = +inf. Two transitions drive the table, processed
per subset in increasing population count (the Dreyfus-Wagner recurrence
with rate-weighted edges):

* merge: H(v, S) = min over splits {F, S - F} of H(v, F) + H(v, S - F),
  the two sub-networks joined at v with their costs added;
* grow: extend a solution for S across one edge, which carries the
  subset's maximum demand; computed as a best-first relaxation seeded
  with all finite entries (same fixed point as exhaustive relaxation
  since weights are nonnegative, but one pass per subset).

The optimum for the full terminal set at the source is exact. Each table
value is at least the cost of the feasible network its decisions
describe (an edge used by both halves of a merge is paid by each), so
H(source, full set) is never below the optimum. An optimal network is a
tree rooted at the source: at each of its nodes the branches towards
disjoint terminal sets share no edge, and each edge carries the maximum
demand of the terminals below it, so by induction over subsets the
recurrence reaches that tree's cost. Flows are reconstructed from
per-state decision records (an edge met twice keeps the larger flow)
instead of storing per-state edge sets.
"""

from __future__ import annotations

import heapq
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    FlowSolution,
    InfeasibleInstanceError,
    Instance,
    InstanceError,
    make_solution,
    validate_instance,
)

# Decision codes: how cost[v, S] was last improved.
UNSET, LEAF, MERGE, EXTEND = 0, 1, 2, 3

# Bytes per (node, subset) state: float64 cost, int8 kind, int32 arg.
STATE_BYTES = 13


@dataclass
class DpTable:
    """Dense DP state over (node, terminal-subset) pairs.

    Subsets are bitmasks; bit i stands for the i-th terminal in ascending
    node-id order (``terminal_index`` maps node id -> bit). ``kind`` and
    ``arg`` together encode the reconstruction decision per state: a MERGE
    stores the chosen submask, an EXTEND stores the neighbor extended to.
    ``cost`` holds the additive recurrence's values: a MERGE state costs
    the sum of its two halves, which is exact at (source, full set).
    """

    terminal_index: dict[int, int]
    xmax: list[float]   # per-subset max demand; xmax[0] = 0.0
    cost: np.ndarray    # (M, 2^K) float64, +inf where unreached
    kind: np.ndarray    # (M, 2^K) int8
    arg: np.ndarray     # (M, 2^K) int32

    def bit_of(self, terminal: int) -> int:
        return 1 << self.terminal_index[terminal]

    @property
    def full_mask(self) -> int:
        return (1 << len(self.terminal_index)) - 1


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def dp_init(inst: Instance) -> DpTable:
    """Table with boundary states only: each terminal costs 0 to itself.

    Raises InstanceError, before allocating anything, when the table
    would not fit in the machine's physical memory.
    """
    terms = sorted(inst.terminals)
    k = len(terms)
    m = inst.graph.node_count
    need = m * (1 << k) * STATE_BYTES
    have = _physical_memory()
    if have is not None and need > have:
        raise InstanceError(
            f"state space too large: {m} nodes x 2^{k} terminal subsets need a "
            f"{need / 2**30:.1f} GiB table ({need} bytes), more than the "
            f"{have / 2**30:.1f} GiB of physical memory"
        )
    terminal_index = {t: i for i, t in enumerate(terms)}
    demands = [inst.terminals[t] for t in terms]
    xmax = [0.0] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        xmax[mask] = max(xmax[mask ^ low], demands[low.bit_length() - 1])
    cost = np.full((m, 1 << k), math.inf)
    kind = np.zeros((m, 1 << k), dtype=np.int8)
    arg = np.zeros((m, 1 << k), dtype=np.int32)
    for t, i in terminal_index.items():
        cost[t, 1 << i] = 0.0
        kind[t, 1 << i] = LEAF
    return DpTable(
        terminal_index=terminal_index, xmax=xmax, cost=cost, kind=kind, arg=arg
    )


def _state_flows(table: DpTable, roots: list[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """Union the flow networks of the given (node, subset) states.

    Follows decision records; edges shared between branches keep the
    maximum of their flows. All referenced states must be reachable.
    """
    kind = table.kind
    arg = table.arg
    xmax = table.xmax
    flows: dict[tuple[int, int], float] = {}
    stack = list(roots)
    while stack:
        node, mask = stack.pop()
        k = kind[node, mask]
        if k == LEAF:
            continue
        if k == MERGE:
            sub = int(arg[node, mask])
            stack.append((node, sub))
            stack.append((node, mask ^ sub))
        elif k == EXTEND:
            nxt = int(arg[node, mask])
            f = xmax[mask]
            key = (node, nxt)
            if flows.get(key, 0.0) < f:
                flows[key] = f
            stack.append((nxt, mask))
        else:
            raise ValueError(f"unreachable state (node {node}, subset {mask:#x})")
    return flows


def dp_merge(table: DpTable, inst: Instance, subset: int) -> None:
    """Merge phase for one subset: the cheapest split at every node.

    A split {F, S - F} costs cost[v, F] + cost[v, S - F] at node v. Splits
    are enumerated with the half containing the subset's lowest bit, in
    increasing numeric order, so each unordered pair is tried once; all of
    them are costed in one (nodes x splits) array. ``argmin`` picks the
    first minimum, and a node takes it only on strict improvement, so
    tie-breaking is deterministic.
    """
    low = subset & -subset
    splits = []
    sub = (subset - 1) & subset
    while sub:
        if sub & low:
            splits.append(sub)
        sub = (sub - 1) & subset
    splits = np.array(splits[::-1])
    cost = table.cost
    candidates = cost[:, splits] + cost[:, subset ^ splits]
    best = candidates.argmin(axis=1)
    values = candidates[np.arange(len(best)), best]
    improved = values < cost[:, subset]
    cost[improved, subset] = values[improved]
    table.kind[improved, subset] = MERGE
    table.arg[improved, subset] = splits[best[improved]]


def dp_grow(table: DpTable, inst: Instance, subset: int) -> None:
    """Grow phase: settle the subset's column to its least fixed point.

    One multi-source best-first pass seeded with every finite entry; each
    relaxation pays the subset's maximum demand times the edge weight.
    Ties settle lower node ids first and never displace a decision.
    """
    xm = table.xmax[subset]
    column = table.cost[:, subset]
    dist = column.tolist()
    adjacency = inst.graph.adjacency
    heap = [(d, v) for v, d in enumerate(dist) if d < math.inf]
    heapq.heapify(heap)
    settled = [False] * len(dist)
    improved: dict[int, int] = {}
    while heap:
        d, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        for u, w in adjacency[v]:
            nd = d + xm * w
            if nd < dist[u]:
                dist[u] = nd
                improved[u] = v
                heapq.heappush(heap, (nd, u))
    column[:] = dist
    for v, u in improved.items():
        table.kind[v, subset] = EXTEND
        table.arg[v, subset] = u


def reconstruct(table: DpTable, inst: Instance, v: int, subset: int) -> FlowSolution:
    """Flow network behind cost[v, subset]; error if the state is unreached."""
    if not math.isfinite(table.cost[v, subset]):
        raise ValueError(f"unreachable state (node {v}, subset {subset:#x})")
    flows = _state_flows(table, [(v, subset)])
    return make_solution(inst, flows, algorithm="ost")


def solve_ost(inst: Instance) -> FlowSolution:
    """Exact minimum-cost solution for the full terminal set at the source.

    Deterministic for a given instance. Raises InfeasibleInstanceError when
    some terminal is unreachable.
    """
    started = time.perf_counter()
    report = validate_instance(inst)
    if report:
        raise InfeasibleInstanceError(report)
    table = dp_init(inst)
    k = len(table.terminal_index)
    masks = sorted(range(1, 1 << k), key=lambda s: (s.bit_count(), s))
    for subset in masks:
        if subset & (subset - 1):
            dp_merge(table, inst, subset)
        dp_grow(table, inst, subset)
    solution = reconstruct(table, inst, inst.source, table.full_mask)
    runtime_ms = (time.perf_counter() - started) * 1e3
    return replace(solution, runtime_ms=runtime_ms)
