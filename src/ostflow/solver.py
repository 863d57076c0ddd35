"""Exact minimum-cost multicast flow via dynamic programming over terminal subsets.

State H(v, S) is the cheapest flow network delivering every terminal in
subset S its demanded rate from node v. Boundaries: H(d, {d}) = 0 for a
terminal d, H(v, {}) = +inf. Two transitions drive the table (the
Dreyfus-Wagner recurrence with rate-weighted edges):

* merge: H(v, S) = min over splits {F, S - F} of H(v, F) + H(v, S - F),
  the two sub-networks joined at v with their costs added;
* grow: extend a solution for S across one edge, which carries the
  subset's maximum demand.

Merge at S reads only proper subsets of S and grow at S reads only row S,
so all subsets of one population count form an antichain: the table is
filled one popcount layer at a time, merging the whole layer in one
vectorised step and growing it with a Bellman-Ford that relaxes, sweep
after sweep, only the arcs leaving nodes whose value just changed. Its
fixed point, and with positive edge weights its decision records, are
those of a best-first (Dijkstra) pass per subset seeded with every finite
entry.

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

import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import FlowSolution, Instance, InstanceError, make_solution, require_feasible

# Decision codes: how cost[S, v] was last improved.
UNSET, LEAF, MERGE, EXTEND = 0, 1, 2, 3

# Bytes per (subset, node) state: float64 cost, int8 kind, int32 arg.
STATE_BYTES = 13

# Elements in any one temporary array of a merge or grow step; a layer is
# processed in chunks of subsets (and of splits) that stay within it, down
# to one subset (and one split) per chunk on graphs too large for that.
# Blocks of 2^16 float64 (512 KiB) ran faster than 2^20 at K=12-14.
CHUNK_ELEMENTS = 1 << 16


@dataclass
class DpTable:
    """Dense DP state over (terminal-subset, node) pairs, one row per subset.

    Subsets are bitmasks; bit i stands for the i-th terminal in ascending
    node-id order (``terminal_index`` maps node id -> bit). ``kind`` and
    ``arg`` together encode the reconstruction decision per state: a MERGE
    stores the chosen submask, an EXTEND stores the neighbor extended to.
    ``cost`` holds the additive recurrence's values: a MERGE state costs
    the sum of its two halves, which is exact at (source, full set).
    ``arcs`` lists both directions of every edge as (src, dst, weight).
    """

    terminal_index: dict[int, int]
    xmax: list[float]   # per-subset max demand; xmax[0] = 0.0
    cost: np.ndarray    # (2^K, M) float64, +inf where unreached
    kind: np.ndarray    # (2^K, M) int8
    arg: np.ndarray     # (2^K, M) int32
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray]

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
    cost = np.full((1 << k, m), math.inf)
    kind = np.zeros((1 << k, m), dtype=np.int8)
    arg = np.zeros((1 << k, m), dtype=np.int32)
    for t, i in terminal_index.items():
        cost[1 << i, t] = 0.0
        kind[1 << i, t] = LEAF
    edges = np.fromiter(chain.from_iterable(inst.graph.edges), np.float64).reshape(-1, 3)
    u, v = edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp)
    arcs = (np.concatenate([u, v]), np.concatenate([v, u]), np.tile(edges[:, 2], 2))
    return DpTable(
        terminal_index=terminal_index, xmax=xmax, cost=cost, kind=kind, arg=arg, arcs=arcs
    )


def dp_merge(table: DpTable, subsets) -> None:
    """Merge phase for subsets of one popcount: the cheapest split at every node.

    A split {F, S - F} costs cost[F, v] + cost[S - F, v] at node v. Every
    subset of popcount p has the 2^(p-1) - 1 splits whose half F holds its
    lowest bit: F places the bits of an odd r < 2^p - 1 at the subset's
    bit positions, so ascending r gives ascending F. ``argmin`` picks the
    first minimum, and a node takes it only on strict improvement, so
    tie-breaking is deterministic and independent of how the work is
    chunked.

    ``subsets`` is a 1-d sequence of masks of one popcount whose proper
    subsets are final; candidates are costed in chunks of at most
    CHUNK_ELEMENTS (subset, split, node) triples, or one split's row.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    p = int(subsets[0]).bit_count() if subsets.size else 0
    if p < 2:
        return
    k = len(table.terminal_index)
    bits = (subsets[:, None] >> np.arange(k)) & 1
    positions = np.nonzero(bits)[1].reshape(-1, p)
    r = np.arange(1, (1 << p) - 1, 2)
    splits = (1 << positions) @ ((r[:, None] >> np.arange(p)) & 1).T  # (L, splits)
    cost, kind, arg = table.cost, table.kind, table.arg
    n = cost.shape[1]
    rows = max(1, CHUNK_ELEMENTS // (splits.shape[1] * n))
    cols = max(1, CHUNK_ELEMENTS // (rows * n))
    for i in range(0, len(subsets), rows):
        chunk = subsets[i:i + rows]
        for j in range(0, splits.shape[1], cols):
            halves = splits[i:i + rows, j:j + cols]
            candidates = cost[halves]
            candidates += cost[chunk[:, None] ^ halves]
            best = candidates.argmin(axis=1)
            values = np.take_along_axis(candidates, best[:, None, :], axis=1)[:, 0]
            at, v = np.nonzero(values < cost[chunk])
            cost[chunk[at], v] = values[at, v]
            kind[chunk[at], v] = MERGE
            arg[chunk[at], v] = halves[at, best[at, v]]


def dp_grow(table: DpTable, subsets) -> None:
    """Grow phase: settle each subset's row to its least fixed point.

    Per subset the row is relaxed, each arc paying the subset's maximum
    demand times its weight, until nothing changes; each sweep relaxes
    only the arcs leaving nodes that changed in the sweep before. The
    values are the same float sums a best-first pass seeded with every
    finite entry computes. A node whose value fell below its seed records
    EXTEND to the predecessor that pass settles first: the least
    (value, node id) among neighbours that reach the value from strictly
    below. Where only equal-valued neighbours reach it (zero weights), the
    predecessor is the least node id among those that reached their final
    value in an earlier sweep, so records never form a cycle.

    ``subsets`` is a 1-d sequence of masks whose rows are merged; rows are
    grown in chunks of at most CHUNK_ELEMENTS (subset, arc) pairs, or one
    row.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    src, dst, weight = table.arcs
    if not (subsets.size and src.size):
        return
    xmax = np.asarray(table.xmax)
    rows = max(1, CHUNK_ELEMENTS // src.size)
    for i in range(0, len(subsets), rows):
        chunk = subsets[i:i + rows]
        _grow_chunk(table, chunk, xmax[chunk][:, None] * weight, src, dst)


def _row_min(shape: tuple[int, int], heads: np.ndarray, values: np.ndarray,
             fill: float) -> np.ndarray:
    """Per row, the least of ``values`` landing on each node (``fill`` if none)."""
    out = np.full(shape, fill, dtype=values.dtype)
    index = np.arange(shape[0])[:, None] * shape[1] + heads
    np.minimum.at(out.reshape(-1), index.reshape(-1), values.reshape(-1))
    return out


def _grow_chunk(table: DpTable, subsets: np.ndarray, step: np.ndarray,
                src: np.ndarray, dst: np.ndarray) -> None:
    """Bellman-Ford over the rows of ``subsets``; ``step`` is xmax(S) * w per arc."""
    seed = table.cost[subsets]
    value = seed.copy()
    sweep_of = np.zeros(value.shape, dtype=np.int32)  # sweep of the last change
    rows = np.arange(len(subsets))
    moved = np.isfinite(value).any(axis=0)
    sweep = 0
    while rows.size:
        sweep += 1
        arcs = np.flatnonzero(moved[src])
        current = value[rows]
        reached = _row_min(current.shape, dst[arcs],
                           current[:, src[arcs]] + step[rows[:, None], arcs], math.inf)
        better = reached < current
        at, v = np.nonzero(better)
        value[rows[at], v] = reached[at, v]
        sweep_of[rows[at], v] = sweep
        moved = better.any(axis=0)
        rows = rows[better.any(axis=1)]
    table.cost[subsets] = value

    improved = value < seed
    if not improved.any():
        return
    n = value.shape[1]
    tail, head = value[:, src], value[:, dst]
    # the least value among neighbours that reach a node's value: below the
    # node's own value unless only equal-valued neighbours reach it
    reaches = tail + step == head
    key = np.where(reaches, tail, math.inf)
    lowest = _row_min(value.shape, dst, key, math.inf)
    pred = _row_min(value.shape, dst, np.where(key == lowest[:, dst], src, n), n)
    tied = improved & (lowest == value)
    if tied.any():
        earlier = reaches & (sweep_of[:, src] < sweep_of[:, dst])
        pred = np.where(tied, _row_min(value.shape, dst, np.where(earlier, src, n), n), pred)
    at, v = np.nonzero(improved)
    table.kind[subsets[at], v] = EXTEND
    table.arg[subsets[at], v] = pred[at, v]


def reconstruct(table: DpTable, inst: Instance, v: int, subset: int) -> FlowSolution:
    """Flow network behind cost[subset, v], read from the decision records.

    An edge met on several branches keeps the largest of its flows. Raises
    ValueError at a state with no record (unreached) or at a state met
    twice: a record tree's branches carry disjoint subsets, so that means
    the records form a cycle.
    """
    kind, arg, xmax = table.kind, table.arg, table.xmax
    flows: dict[tuple[int, int], float] = {}
    stack = [(v, subset)]
    visited = set()
    while stack:
        state = stack.pop()
        if state in visited:
            raise ValueError(f"decision records form a cycle at (node {state[0]}, "
                             f"subset {state[1]:#x})")
        visited.add(state)
        node, mask = state
        k = kind[mask, node]
        if k == LEAF:
            continue
        if k == MERGE:
            sub = int(arg[mask, node])
            stack.append((node, sub))
            stack.append((node, mask ^ sub))
        elif k == EXTEND:
            nxt = int(arg[mask, node])
            f = xmax[mask]
            key = (node, nxt)
            if flows.get(key, 0.0) < f:
                flows[key] = f
            stack.append((nxt, mask))
        else:
            raise ValueError(f"unreachable state (node {node}, subset {mask:#x})")
    return make_solution(inst, flows, algorithm="ost")


def solve_ost(inst: Instance) -> FlowSolution:
    """Exact minimum-cost solution for the full terminal set at the source.

    A pure function of the instance (``runtime_ms`` is 0.0; the solver
    registry times the call). Raises InfeasibleInstanceError when some
    terminal is unreachable.
    """
    require_feasible(inst)
    table = dp_init(inst)
    k = len(table.terminal_index)
    masks = np.arange(1, 1 << k)
    popcount = sum((masks >> i) & 1 for i in range(k))
    for p in range(1, k + 1):
        layer = masks[popcount == p]
        if p > 1:
            dp_merge(table, layer)
        dp_grow(table, layer)
    return reconstruct(table, inst, inst.source, table.full_mask)
