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
entry. Both steps work in chunks of CHUNK_ELEMENTS elements, and every
(subset, split, node), (subset, arc) and (subset, node) temporary is a
view of one per-solve Workspace that dp_init allocates.

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
# Blocks of 2^16 float64 (512 KiB) ran faster than 2^20 at K=12-14. The
# temporaries are views of one per-solve Workspace, allocated by dp_init,
# whose buffers hold the largest chunk of the solve: at most this many
# elements, unless one row alone is larger.
CHUNK_ELEMENTS = 1 << 16


class Workspace:
    """Flat buffers that every merge and grow chunk of one solve writes into.

    Allocating them once per solve, rather than each chunk temporary
    afresh, spares a solve the allocator's mmap/munmap and first-touch
    page faults on every chunk. Each buffer holds ``budget`` elements:
    the largest chunk the solve takes, so that a small solve does not pay
    for the whole CHUNK_ELEMENTS. Each is also its own allocation, no
    larger than a chunk temporary: freeing one block as large as all of
    them would raise the allocator's mmap threshold for the whole process,
    which kept about 2 MiB more resident in a bench cell's baselines.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.real = [np.empty(budget, dtype=np.float64) for _ in range(4)]
        self.index = [np.empty(budget, dtype=np.intp) for _ in range(3)]
        self.flag = [np.empty(budget, dtype=bool) for _ in range(4)]


def _merge_block(budget: int, splits: int, n: int) -> tuple[int, int]:
    """(subsets, splits) per merge chunk within ``budget`` elements, at least one each."""
    rows = max(1, budget // (splits * n))
    return rows, max(1, budget // (rows * n))


def _grow_block(budget: int, row: int) -> int:
    """Subsets per grow chunk within ``budget`` elements, at least one."""
    return max(1, budget // row)


def _solve_budget(k: int, n: int, arcs: int) -> int:
    """Elements in the largest chunk that the layers of a solve take under
    CHUNK_ELEMENTS, and at least one grow row. Where that is at most
    CHUNK_ELEMENTS, chunking to it gives every layer the same chunks."""
    row = max(n, arcs)
    budget = row
    for p in range(1, k + 1):
        layer = math.comb(k, p)
        budget = max(budget, min(layer, _grow_block(CHUNK_ELEMENTS, row)) * row)
        if p > 1:
            splits = (1 << (p - 1)) - 1
            rows, cols = _merge_block(CHUNK_ELEMENTS, splits, n)
            budget = max(budget, min(layer, rows) * min(splits, cols) * n)
    return budget


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
    ``workspace`` holds the merge and grow temporaries.
    """

    terminal_index: dict[int, int]
    xmax: list[float]   # per-subset max demand; xmax[0] = 0.0
    cost: np.ndarray    # (2^K, M) float64, +inf where unreached
    kind: np.ndarray    # (2^K, M) int8
    arg: np.ndarray     # (2^K, M) int32
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray]
    workspace: Workspace

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
        terminal_index=terminal_index, xmax=xmax, cost=cost, kind=kind, arg=arg, arcs=arcs,
        workspace=Workspace(_solve_budget(k, m, 2 * len(edges))),
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
    subsets are final; candidates are costed in chunks of at most the
    table's chunk budget of (subset, split, node) triples, or one split's
    row, in the table's workspace.
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
    cost, kind, arg, ws = table.cost, table.kind, table.arg, table.workspace
    n = cost.shape[1]
    rows, cols = _merge_block(ws.budget, splits.shape[1], n)
    for i in range(0, len(subsets), rows):
        chunk = subsets[i:i + rows]
        for j in range(0, splits.shape[1], cols):
            halves = splits[i:i + rows, j:j + cols]
            shape = (len(chunk), halves.shape[1], n)
            candidates = _take(cost, halves, ws.real[0], shape)
            np.add(candidates, _take(cost, chunk[:, None] ^ halves, ws.real[1], shape),
                   out=candidates)
            # split axis last, as argmin would copy it, but into the workspace
            by_node = _view(ws.real[1], (shape[0], n, shape[1]))
            np.copyto(by_node.transpose(0, 2, 1), candidates)
            best = np.argmin(by_node, axis=2, out=_view(ws.index[0], shape[::2]))
            values = np.minimum.reduce(by_node, axis=2, out=_view(ws.real[0], shape[::2]))
            here = _take(cost, chunk, ws.real[2], shape[::2])
            better = np.less(values, here, out=_view(ws.flag[0], shape[::2]))
            if not better.any():
                continue
            np.add(best, (np.arange(shape[0]) * shape[1])[:, None], out=best)
            chosen = _take(halves, best, ws.index[1], best.shape, axis=None)
            np.copyto(here, values, where=better)
            cost[chunk] = here
            _put_rows(kind, chunk, MERGE, better, ws.flag[1].view(np.int8))
            _put_rows(arg, chunk, chosen, better, ws.index[0].view(np.int32))


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
    grown in chunks of at most the table's chunk budget of (subset, arc)
    and (subset, node) pairs, or one row, in the table's workspace.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    if not (subsets.size and table.arcs[0].size):
        return
    xmax = np.asarray(table.xmax)
    rows = _grow_block(table.workspace.budget, max(table.arcs[0].size, table.cost.shape[1]))
    for i in range(0, len(subsets), rows):
        chunk = subsets[i:i + rows]
        _grow_chunk(table, chunk, xmax[chunk])


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of a flat workspace buffer, as an array of ``shape``."""
    return buffer[:math.prod(shape)].reshape(shape)


def _take(array: np.ndarray, indices: np.ndarray, buffer: np.ndarray,
          shape: tuple[int, ...], axis: int | None = 0) -> np.ndarray:
    """``np.take`` into a workspace buffer. The indices are in range, so
    ``clip`` mode changes nothing but skips the default mode's temporary
    copy of the output."""
    return np.take(array, indices, axis=axis, out=_view(buffer, shape), mode="clip")


def _put_rows(array: np.ndarray, rows: np.ndarray, new, where: np.ndarray,
              buffer: np.ndarray) -> None:
    """array[rows] takes ``new`` where ``where`` is set, through a workspace buffer."""
    old = _take(array, rows, buffer, where.shape)
    np.copyto(old, new, where=where)
    array[rows] = old


def _row_min(out: np.ndarray, fill, index: np.ndarray, heads: np.ndarray,
             values: np.ndarray) -> np.ndarray:
    """Per row of ``out``, the least of ``values`` landing on each node (``fill``
    if none); ``index`` is a buffer of ``values``' shape."""
    out.fill(fill)
    np.add((np.arange(out.shape[0]) * out.shape[1])[:, None], heads, out=index)
    np.minimum.at(out.reshape(-1), index.reshape(-1), values.reshape(-1))
    return out


def _grow_chunk(table: DpTable, subsets: np.ndarray, xmax: np.ndarray) -> None:
    """Bellman-Ford over the rows of ``subsets``; an arc costs xmax(S) * w in row S."""
    src, dst, weight = table.arcs
    ws = table.workspace
    c, n, e = len(subsets), table.cost.shape[1], src.size
    small = ws.index[2].view(np.int32)  # int32 scratch, two (c, n) or (c, e) arrays long
    # real[3], which merge leaves untouched: the (c, e) arrays below then
    # reuse pages that merge has touched instead of adding to them
    value = _take(table.cost, subsets, ws.real[3], (c, n))
    # sweep of each node's last change, then the recorded predecessors
    sweep_of, pred = _view(ws.index[0].view(np.int32), (2, c, n))
    sweep_of.fill(0)
    rows = np.arange(c)
    moved = np.isfinite(value, out=_view(ws.flag[0], (c, n))).any(axis=0)
    sweep = 0
    while rows.size:
        sweep += 1
        arcs = np.flatnonzero(moved[src])
        shape = (rows.size, arcs.size)
        tails = _view(ws.index[1], shape)
        np.add((rows * n)[:, None], src[arcs], out=tails)
        candidates = _take(value, tails, ws.real[1], shape, axis=None)
        step = np.multiply(xmax[rows][:, None], weight[arcs], out=_view(ws.real[2], shape))
        np.add(candidates, step, out=candidates)
        reached = _row_min(_view(ws.real[2], (rows.size, n)), math.inf, tails, dst[arcs],
                           candidates)
        current = _take(value, rows, ws.real[1], reached.shape)
        better = np.less(reached, current, out=_view(ws.flag[0], reached.shape))
        np.copyto(current, reached, where=better)
        value[rows] = current
        _put_rows(sweep_of, rows, sweep, better, small)
        moved = better.any(axis=0)
        rows = rows[better.any(axis=1)]

    seed = _take(table.cost, subsets, ws.real[1], (c, n))
    improved = np.less(value, seed, out=_view(ws.flag[0], (c, n)))
    table.cost[subsets] = value
    if not improved.any():
        return
    tail = _take(value, src, ws.real[1], (c, e), axis=1)
    arrival = np.multiply(xmax[:, None], weight, out=_view(ws.real[2], (c, e)))
    np.add(tail, arrival, out=arrival)
    head = _take(value, dst, ws.real[0], (c, e), axis=1)
    reaches = np.equal(arrival, head, out=_view(ws.flag[1], (c, e)))
    # the least value among neighbours that reach a node's value: below the
    # node's own value unless only equal-valued neighbours reach it
    key = arrival
    key.fill(math.inf)
    np.copyto(key, tail, where=reaches)
    index = _view(ws.index[1], (c, e))
    lowest = _row_min(_view(ws.real[1], (c, n)), math.inf, index, dst, key)
    lowest_at_head = _take(lowest, dst, ws.real[0], (c, e), axis=1)
    choice = np.equal(key, lowest_at_head, out=_view(ws.flag[2], (c, e)))
    candidates = _view(small, (c, e))
    candidates.fill(n)
    np.copyto(candidates, src, where=choice)
    _row_min(pred, n, index, dst, candidates)
    tied = np.equal(lowest, value, out=_view(ws.flag[2], (c, n)))
    np.logical_and(tied, improved, out=tied)
    if tied.any():
        tail_sweep, head_sweep = _view(small, (2, c, e))
        earlier = np.less(np.take(sweep_of, src, axis=1, out=tail_sweep, mode="clip"),
                          np.take(sweep_of, dst, axis=1, out=head_sweep, mode="clip"),
                          out=_view(ws.flag[3], (c, e)))
        np.logical_and(earlier, reaches, out=earlier)
        candidates.fill(n)
        np.copyto(candidates, src, where=earlier)
        # sweep_of is read; its buffer takes the tied predecessors
        np.copyto(pred, _row_min(sweep_of, n, index, dst, candidates), where=tied)
    _put_rows(table.kind, subsets, EXTEND, improved, ws.flag[1].view(np.int8))
    _put_rows(table.arg, subsets, pred, improved, small)


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
