"""Exact minimum-cost multicast flow via dynamic programming over terminal subsets.

State H(v, S) is the cheapest flow network delivering every terminal in
subset S its demanded rate from node v. Boundaries: H(d, {d}) = 0 for a
terminal d, H(v, {}) = +inf. Two transitions drive the table (the
Dreyfus-Wagner recurrence with rate-weighted edges):

* merge: H(v, S) = min over splits {F, S - F} of H(v, F) + H(v, S - F),
  the two sub-networks joined at v with their costs added;
* grow: extend a solution for S across one edge, which carries the
  subset's maximum demand.

Merge at S reads only proper subsets of S and grow at S reads only row S, so
all subsets of one population count form an antichain: the table is filled
one popcount layer at a time, merging the whole layer in one vectorised step
and growing it with a Bellman-Ford: each sweep relaxes in place, in all rows
of a chunk, the arcs leaving nodes that just changed. Its fixed point is
that of a best-first (Dijkstra) pass per subset seeded with every finite
entry. Both steps work in the chunks that one per-solve Workspace plans
from CHUNK_ELEMENTS, and every (subset, split, node), (subset, arc) and
(subset, node) temporary is a view of that workspace's buffers.

The optimum for the full terminal set at the source is exact. Each table
value is at least the cost of the feasible network its decisions
describe (an edge used by both halves of a merge is paid by each), so
H(source, full set) is never below the optimum. An optimal network is a
tree rooted at the source: at each of its nodes the branches towards
disjoint terminal sets share no edge, and each edge carries the maximum
demand of the terminals below it, so by induction over subsets the
recurrence reaches that tree's cost. The table stores values, not
decisions: ``reconstruct`` derives the split or predecessor of only the
states on the optimum's path, as a best-first pass would record it (an
edge met twice keeps the larger flow).

Feasibility is decided in ``solve_ost`` from the table, with no search of
its own: ``Instance`` holds its invariants from construction on, and the
one-terminal layer is a shortest-path pass from each terminal, so once it
is grown a terminal reaches the source exactly where its row is finite
there. The full validator (``require_feasible``, a BFS) runs only where
that reads inf, to report which terminals are unreachable.

Every reachable state costs at most ``model.cost_ceiling`` at the largest
demand, which ``Instance`` keeps finite. A merge or grow
candidate above it may still overflow to inf; that never wins a minimum,
so ``solve_ost`` lets it pass without a numpy warning.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import FlowSolution, Instance, InstanceError, make_solution, require_feasible

# Kinds of state: how cost[S, v] was last improved (``state_kind``).
UNSET, LEAF, MERGE, EXTEND = 0, 1, 2, 3

# Bytes per (subset, node) state: float64 cost, int32 arg.
STATE_BYTES = 12

# Elements in any one temporary array of a merge or grow step: Workspace
# plans each layer's chunks of subsets (and of splits) within it, down to
# one subset (and one split) per chunk on graphs too large for that.
# Blocks of 2^16 float64 (512 KiB) ran faster than 2^20 at K=12-14.
CHUNK_ELEMENTS = 1 << 16


class Workspace:
    """The chunk plan of one solve, and the flat buffers its chunks write into.

    ``merge_block`` and ``grow_block`` turn ``chunk`` (CHUNK_ELEMENTS) into
    every chunk's shape; the buffers are sized by asking them for each
    popcount layer. Allocating the buffers once per solve spares each chunk
    the allocator's mmap/munmap and first-touch page faults. Each is its own
    allocation, no larger than a chunk temporary: freeing one block as large
    as all of them would raise the allocator's mmap threshold for the whole
    process (about 2 MiB more resident in a bench cell). ``real`` buffers
    are float64; a step that needs integers views one as intp or int32. The
    first two hold the solve's largest chunk, at least one ``row``: merge's
    two (subset, split, node) arrays, then grow's two (subset, arc) arrays
    on the same pages. The rest, and ``flag``, hold the largest (subset,
    node) or (subset, split) array of a chunk: a grow chunk's rows stay in
    place there for its whole grow (see ``_grow_chunk``).
    """

    def __init__(self, k: int, n: int, arcs: int):
        self.chunk, self.n, self.row = CHUNK_ELEMENTS, n, max(n, arcs)
        largest, rows = self.row, n
        for p in range(1, k + 1):
            layer = math.comb(k, p)
            subsets = min(layer, self.grow_block())
            largest, rows = max(largest, subsets * self.row), max(rows, subsets * n)
            if p > 1:
                splits = (1 << (p - 1)) - 1
                subsets, cols = self.merge_block(splits)
                subsets, cols = min(layer, subsets), min(splits, cols)
                largest = max(largest, subsets * cols * n)
                rows = max(rows, subsets * n, subsets * cols)
        self.real = [np.empty(size) for size in (largest, largest, rows, rows, rows)]
        self.flag = np.empty(rows, dtype=bool)

    def merge_block(self, splits: int) -> tuple[int, int]:
        """(subsets, splits) per merge chunk at ``splits`` splits per subset, at least one each."""
        subsets = max(1, self.chunk // (splits * self.n))
        return subsets, max(1, self.chunk // (subsets * self.n))

    def grow_block(self) -> int:
        """Subsets per grow chunk within ``chunk`` elements, at least one."""
        return max(1, self.chunk // self.row)


@dataclass
class DpTable:
    """Dense DP state over (terminal-subset, node) pairs, one row per subset.

    Subsets are bitmasks; bit i stands for the i-th terminal in ascending
    node-id order (``terminal_index`` maps node id -> bit). ``cost`` holds
    the additive recurrence's values: a MERGE state costs the sum of its
    two halves, which is exact at (source, full set). ``arg`` holds the
    grow sweep in which a state last changed (0 where grow did not lower
    it); with ``cost`` it gives each state's kind (``state_kind``). The
    split or neighbour a state came from is derived by ``decision``.
    ``arcs`` lists both directions of every edge as (src, dst, weight) for
    grow; ``adjacency`` is the instance graph's own, which ``decision``
    reads. ``workspace`` holds the merge and grow temporaries.
    """

    terminal_index: dict[int, int]
    xmax: list[float]   # per-subset max demand; xmax[0] = 0.0
    cost: np.ndarray    # (2^K, M) float64, +inf where unreached
    arg: np.ndarray     # (2^K, M) int32, grow sweep of EXTEND states
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray]
    adjacency: tuple[tuple[tuple[int, float], ...], ...]
    workspace: Workspace

    @property
    def kind(self) -> np.ndarray:
        """Every state's kind (``state_kind``), a new read-only int8 array."""
        kinds = state_kind(self.cost, self.arg, np.arange(len(self.cost))[:, None]).astype(np.int8)
        kinds.flags.writeable = False
        return kinds


def state_kind(cost, arg, subset):
    """Kinds of states from their cost, arg and subset, as Python scalars or
    arrays that broadcast: EXTEND where grow lowered the value (arg > 0);
    else UNSET where the cost is inf, LEAF at a one-terminal subset (a
    terminal's own 0) and MERGE elsewhere."""
    # plain operators: on reconstruct's Python scalars 0.5 us, np.select 30 us
    one_bit = (subset & (subset - 1)) == 0
    return (arg > 0) * EXTEND + (arg <= 0) * (cost < math.inf) * (MERGE - one_bit)


@functools.cache
def _memory_limit(self_cgroup="/proc/self/cgroup", cgroup_root="/sys/fs/cgroup"):
    """The tightest memory limit of this process, as (bytes, what sets it):
    physical memory, the limits of the own cgroup (found through
    ``self_cgroup``) and of each ancestor up to the root, which bind too
    (v2 ``memory.max`` or v1 ``memory.limit_in_bytes``), the soft
    RLIMIT_AS and RLIMIT_DATA. Unlimited values and limits that cannot be
    read are skipped; None where none is left. Read once per process: the
    cgroup files take tens of microseconds."""
    limits = []
    try:
        limits.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"))
    except (AttributeError, ValueError, OSError):
        pass
    try:
        with open(self_cgroup) as f:
            entries = [line.split(":", 2) for line in f.read().splitlines()]
    except OSError:
        entries = []
    for _, controllers, own in entries:
        if controllers and "memory" not in controllers.split(","):
            continue
        name = "memory.limit_in_bytes" if controllers else "memory.max"
        base = os.path.join(cgroup_root, "memory" if controllers else "")
        parts = [part for part in own.split("/") if part]
        for depth in range(len(parts), -1, -1):
            path = os.path.join(base, *parts[:depth], name)
            try:
                with open(path) as f:
                    value = f.read().strip()
            except OSError:
                continue
            if value.isdigit():  # not "max"
                limits.append((int(value), f"the cgroup limit {path}"))
    try:
        import resource
        for name in ("RLIMIT_AS", "RLIMIT_DATA"):
            soft = resource.getrlimit(getattr(resource, name))[0]
            if soft != resource.RLIM_INFINITY:
                limits.append((soft, f"the soft {name}"))
    except ImportError:
        pass
    return min(limits, key=lambda limit: limit[0], default=None)


def dp_init(inst: Instance) -> DpTable:
    """Table with boundary states only: each terminal costs 0 to itself.

    Raises InstanceError, before allocating anything, when the table
    would not fit in the tightest memory limit of the process
    (``_memory_limit``).
    """
    terms = sorted(inst.terminals)
    k = len(terms)
    m = inst.graph.node_count
    need = m * (1 << k) * STATE_BYTES
    limit = _memory_limit()
    if limit is not None and need > limit[0]:
        raise InstanceError(
            f"state space too large: {m} nodes x 2^{k} terminal subsets need a "
            f"{need / 2**30:.1f} GiB table ({need} bytes), more than the "
            f"{limit[0] / 2**30:.1f} GiB of {limit[1]}"
        )
    terminal_index = {t: i for i, t in enumerate(terms)}
    demands = [inst.terminals[t] for t in terms]
    xmax = [0.0]
    for d in demands:
        xmax += [max(x, d) for x in xmax]
    cost = np.full((1 << k, m), math.inf)
    arg = np.zeros((1 << k, m), dtype=np.int32)
    for t, i in terminal_index.items():
        cost[1 << i, t] = 0.0
    edges = inst.graph.edges
    e = len(edges)
    us, vs, ws = zip(*edges) if e else ((), (), ())
    u, v = np.fromiter(us, np.intp, count=e), np.fromiter(vs, np.intp, count=e)
    arcs = (np.concatenate([u, v]), np.concatenate([v, u]),
            np.tile(np.fromiter(ws, np.float64, count=e), 2))
    return DpTable(
        terminal_index=terminal_index, xmax=xmax, cost=cost, arg=arg, arcs=arcs,
        adjacency=inst.graph.adjacency, workspace=Workspace(k, m, 2 * e),
    )


def _halves(subsets: np.ndarray, start: int, stop: int,
            buffer: np.ndarray | None = None) -> np.ndarray:
    """Half F of splits start..stop-1 of each subset, a (subsets, stop - start)
    int64 array, written into ``buffer`` when one is given.

    The subsets share one popcount p and have the 2^(p-1) - 1 splits
    {F, S - F} whose half F holds the subset's lowest bit: split j places
    the bits of r = 2j + 1 at the subset's bit positions, so ascending j
    gives ascending F.
    """
    p = int(subsets[0]).bit_count()
    bits = (subsets[:, None] >> np.arange(int(subsets.max()).bit_length())) & 1
    places = 1 << np.nonzero(bits)[1].reshape(-1, p)  # (subsets, p) bit values
    r = np.arange(2 * start + 1, 2 * stop, 2)
    pattern = (r >> np.arange(p)[:, None]) & 1  # (p, splits)
    out = None if buffer is None else _view(buffer, (len(subsets), r.size))
    return np.matmul(places, pattern, out=out)


def dp_merge(table: DpTable, subsets) -> None:
    """Merge phase for subsets of one popcount: the cheapest split at every node.

    A split {F, S - F} costs cost[F, v] + cost[S - F, v] at node v (see
    ``_halves`` for the splits of a subset). A node takes the least of them
    where that is below its value.

    ``subsets`` is a 1-d sequence of masks of one popcount whose proper
    subsets are final; candidates are costed in the chunks that the
    table's workspace plans (``Workspace.merge_block``), in its buffers.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    p = int(subsets[0]).bit_count() if subsets.size else 0
    if p < 2:
        return
    cost, ws = table.cost, table.workspace
    n = ws.n
    splits = (1 << (p - 1)) - 1
    rows, cols = ws.merge_block(splits)
    for i in range(0, len(subsets), rows):
        chunk = subsets[i:i + rows]
        for j in range(0, splits, cols):
            halves = _halves(chunk, j, min(j + cols, splits), ws.real[2].view(np.intp))
            shape = (len(chunk), halves.shape[1], n)
            candidates = _take(cost, halves, ws.real[0], shape)
            others = np.bitwise_xor(halves, chunk[:, None], out=halves)
            np.add(candidates, _take(cost, others, ws.real[1], shape), out=candidates)
            values = np.minimum.reduce(candidates, axis=1, out=_view(ws.real[1], shape[::2]))
            here = _take(cost, chunk, ws.real[0], shape[::2])
            cost[chunk] = np.minimum(here, values, out=here)


def dp_grow(table: DpTable, subsets) -> None:
    """Grow phase: settle each subset's row to its least fixed point.

    Per subset the row is relaxed, each arc paying the subset's maximum
    demand times its weight, until nothing changes; each sweep relaxes
    only the arcs leaving nodes that changed in the sweep before. The
    values are the same float sums a best-first pass seeded with every
    finite entry computes. ``arg`` takes the sweep in which each node last
    changed: nonzero exactly where the value fell below its seed (EXTEND).

    ``subsets`` is a 1-d sequence of masks whose rows are merged, not yet
    grown; each is grown once, in place, in the chunks that the table's
    workspace plans (``Workspace.grow_block``).
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    xmax = np.asarray(table.xmax)
    rows = table.workspace.grow_block()
    for i in range(0, len(subsets), rows):
        chunk = subsets[i:i + rows]
        _grow_chunk(table, chunk, xmax[chunk])


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of a contiguous workspace buffer, as an array of ``shape``."""
    return buffer.reshape(-1)[:math.prod(shape)].reshape(shape)


def _take(array: np.ndarray, indices: np.ndarray, buffer: np.ndarray,
          shape: tuple[int, ...]) -> np.ndarray:
    """Rows of ``array`` into a workspace buffer. The indices are in range,
    so ``clip`` mode changes nothing but skips the default mode's temporary
    copy of the output."""
    return np.take(array, indices, axis=0, out=_view(buffer, shape), mode="clip")


def _grow_chunk(table: DpTable, subsets: np.ndarray, xmax: np.ndarray) -> None:
    """Bellman-Ford over the rows of ``subsets``; an arc costs xmax(S) * w in row S.

    Workspace: real[2] the (c, n) values, grown in place; real[3] the values
    before the sweep; real[4] as int32 the sweep record; real[0] a sweep's
    (c, arcs) candidates; real[1] their arc costs, then their flat heads.
    A converged row or an unmoved tail changes nothing: its candidates were
    applied when the tail last fell, and values only fall.
    """
    src, dst, weight = table.arcs
    ws = table.workspace
    c, n = len(subsets), table.cost.shape[1]
    flat, cand, aux = ws.real[2][:c * n], ws.real[0], ws.real[1]
    value = table.cost.take(subsets, axis=0, out=flat.reshape(c, n), mode="clip")
    before, better = ws.real[3][:c * n].reshape(c, n), ws.flag[:c * n].reshape(c, n)
    sweep_of = ws.real[4].view(np.int32)[:c * n].reshape(c, n)
    sweep_of.fill(0)
    moved = np.isfinite(value, out=better).any(axis=0)
    step, offset = xmax[:, None], (np.arange(c) * n)[:, None]
    sweep = 0
    while (arcs := np.flatnonzero(moved[src])).size:
        sweep += 1
        size = c * arcs.size
        candidates = value.take(src[arcs], axis=1, out=cand[:size].reshape(c, -1), mode="clip")
        candidates += np.multiply(step, weight[arcs], out=aux[:size].reshape(c, -1))
        # each row's least arrival at each head, into the row itself
        index = np.add(offset, dst[arcs], out=aux.view(np.intp)[:size].reshape(c, -1))
        np.copyto(before, value)
        np.minimum.at(flat, index.reshape(-1), candidates.reshape(-1))
        np.less(value, before, out=better)
        np.copyto(sweep_of, sweep, where=better)
        moved = better.any(axis=0)
    table.cost[subsets] = value
    table.arg[subsets] = sweep_of


def decision(table: DpTable, node: int, subset: int) -> int:
    """The half F of a MERGE state's split, or an EXTEND state's predecessor,
    derived from the finished table (kinds as ``state_kind`` reads them).

    MERGE: the first split in ``_halves`` order with cost[F, node] +
    cost[subset - F, node] == cost[subset, node], the first least split.
    EXTEND: the least (value, node id) among the neighbours u of ``node``
    in the graph's adjacency, joined by an edge of weight w, that reach
    the state's value, cost[subset, u] + xmax(subset) * w ==
    cost[subset, node], and are either strictly below it or changed in an
    earlier grow sweep (a node grow did not improve counts as sweep 0).
    That is the predecessor a best-first pass settles first, and each step
    lowers (value, sweep), so the decisions never form a cycle.

    Raises ValueError when no split or neighbour reproduces the value,
    as at an unreached state. ``solve_ost`` asks only on a table whose
    one-terminal rows showed every terminal reaching the source.
    """
    cost, arg = table.cost, table.arg
    value = float(cost[subset, node])
    kind = state_kind(value, arg.item(subset, node), subset)
    if kind == MERGE:
        halves = _halves(np.array([subset]), 0, (1 << (subset.bit_count() - 1)) - 1)[0]
        found = np.flatnonzero(cost[halves, node] + cost[subset ^ halves, node] == value)
        if found.size:
            return int(halves[found[0]])
    elif kind == EXTEND:
        step, sweep = table.xmax[subset], arg.item(subset, node)
        options = [(t, u) for u, w in table.adjacency[node]
                   if (t := cost.item(subset, u)) + step * w == value
                   and (t < value or arg.item(subset, u) < sweep)]
        if options:
            return min(options)[1]
    raise ValueError(f"inconsistent table: no split or neighbour reproduces the cost at "
                     f"(node {node}, subset {subset:#x})")


def reconstruct(table: DpTable, inst: Instance, v: int, subset: int) -> FlowSolution:
    """Flow network behind cost[subset, v], following ``decision`` from it.

    An edge met on several branches keeps the largest of its flows. Raises
    ValueError at a state with no decision (unreached) or one whose value
    no split or neighbour reproduces. No state is met twice: a merge's
    branches carry disjoint subsets, and an extension lowers (value, sweep).
    """
    cost, arg, xmax = table.cost, table.arg, table.xmax
    flows: dict[tuple[int, int], float] = {}
    stack = [(v, subset)]
    while stack:
        node, mask = stack.pop()
        k = state_kind(cost.item(mask, node), arg.item(mask, node), mask)
        if k == LEAF:
            continue
        if k == MERGE:
            sub = decision(table, node, mask)
            stack.append((node, sub))
            stack.append((node, mask ^ sub))
        elif k == EXTEND:
            nxt = decision(table, node, mask)
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
    registry times the call). Raises InfeasibleInstanceError, with
    ``validate_instance``'s report, when some terminal is unreachable (read
    from the grown one-terminal rows at the source). The full validator
    runs only where such a row is inf or where ``dp_init`` refuses the
    table, so infeasibility is reported ahead of the table's size.
    """
    try:
        table = dp_init(inst)
    except InstanceError:
        require_feasible(inst)
        raise
    k = len(table.terminal_index)
    masks = np.arange(1, 1 << k)
    popcount = sum((masks >> i) & 1 for i in range(k))
    with np.errstate(over="ignore"):
        for p in range(1, k + 1):
            layer = masks[popcount == p]
            if p > 1:
                dp_merge(table, layer)
            dp_grow(table, layer)
            if p == 1 and np.isinf(table.cost[layer, inst.source]).any():
                require_feasible(inst)
    return reconstruct(table, inst, inst.source, (1 << k) - 1)
