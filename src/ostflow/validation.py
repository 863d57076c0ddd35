"""Feasibility and structure checks for flow solutions.

Three batteries, plus ``check_cost`` for documents whose cost is stated
rather than computed:

* ``check_constraints``: the feasibility constraints every solution must
  satisfy (positive flows on real edges, relay nodes never push more than
  they receive, source supply covers the largest demand, every terminal
  receives its demand). Streams replicate at relays, so conservation is
  max-out <= max-in rather than sum conservation.
* ``check_tree``: structural shape of minimal solutions (flow support is
  a tree rooted at the source, oriented away from it, every leaf required).
* ``check_flow_law``: on a tree, each edge must carry exactly the largest
  demand among the terminals below it (``model.tree_flows`` on the
  support's parent map). It runs the ``check_tree`` checks first and
  reports their violations instead where the shape is wrong. A test
  oracle for minimal solver outputs, not a feasibility requirement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .model import FlowSolution, Instance, flow_cost, tree_flows

TOL = 1e-9


class Code(enum.Enum):
    NEG_FLOW = "NEG_FLOW"
    NONEDGE_FLOW = "NONEDGE_FLOW"
    RELAY_CONSERVATION = "RELAY_CONSERVATION"
    SOURCE_SUPPLY = "SOURCE_SUPPLY"
    TERMINAL_DEMAND = "TERMINAL_DEMAND"
    NOT_TREE = "NOT_TREE"
    LEAF_NOT_TERMINAL = "LEAF_NOT_TERMINAL"
    BAD_ORIENTATION = "BAD_ORIENTATION"
    FLOW_LAW = "FLOW_LAW"
    COST_MISMATCH = "COST_MISMATCH"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Violation:
    code: Code
    location: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code} {self.location} {self.detail}"


def check_cost(inst: Instance, sol: FlowSolution) -> list[Violation]:
    """The stated cost must equal sum(weight * flow) within
    TOL * max(1, |cost|). Flows on non-edges have no cost to compare;
    ``check_constraints`` reports them."""
    try:
        actual = flow_cost(inst.graph, sol.flows)
    except ValueError:
        return []
    if abs(sol.cost - actual) > TOL * max(1.0, abs(sol.cost)):
        return [
            Violation(
                Code.COST_MISMATCH,
                "cost",
                f"stated cost {sol.cost} but sum of weight * flow is {actual}",
            )
        ]
    return []


def check_constraints(inst: Instance, sol: FlowSolution) -> list[Violation]:
    """Feasibility constraints; violations are data, the list may be empty."""
    violations = []
    max_in = [0.0] * inst.graph.node_count
    max_out = [0.0] * inst.graph.node_count
    for (u, v), f in sorted(sol.flows.items()):
        loc = f"({u},{v})"
        if f <= 0:
            violations.append(Violation(Code.NEG_FLOW, loc, f"flow {f} is not positive"))
            continue
        if not inst.graph.has_edge(u, v):
            violations.append(Violation(Code.NONEDGE_FLOW, loc, "edge absent from graph"))
            continue
        max_out[u] = max(max_out[u], f)
        max_in[v] = max(max_in[v], f)
    for i in range(inst.graph.node_count):
        if i == inst.source:
            continue
        if max_out[i] > max_in[i] + TOL:
            violations.append(
                Violation(
                    Code.RELAY_CONSERVATION,
                    f"node {i}",
                    f"max outflow {max_out[i]} exceeds max inflow {max_in[i]}",
                )
            )
    top_demand = inst.max_demand()
    if max_out[inst.source] + TOL < top_demand:
        violations.append(
            Violation(
                Code.SOURCE_SUPPLY,
                f"node {inst.source}",
                f"max outflow {max_out[inst.source]} below max demand {top_demand}",
            )
        )
    for t, demand in sorted(inst.terminals.items()):
        if max_in[t] + TOL < demand:
            violations.append(
                Violation(
                    Code.TERMINAL_DEMAND,
                    f"node {t}",
                    f"max inflow {max_in[t]} below demand {demand}",
                )
            )
    return violations


def _not_tree(location: str, detail: str):
    return None, [Violation(Code.NOT_TREE, location, detail)]


def _rooted_support(inst: Instance, sol: FlowSolution):
    """The flow support rooted at the source, and its shape violations.

    Returns (parent, violations): ``parent`` maps each support node to its
    parent (-1 at the source) by a search rooted at the source, with the
    orientation and leaf violations; or (None, [NOT_TREE violation]) when
    the support is not a tree containing source and terminals.
    """
    nodes = set()
    undirected = set()
    for u, v in sol.flows:
        nodes.add(u)
        nodes.add(v)
        key = (min(u, v), max(u, v))
        if key in undirected:
            return _not_tree(f"({u},{v})", "edge carries flow in both directions")
        undirected.add(key)
    if inst.source not in nodes:
        return _not_tree(f"node {inst.source}", "source not in support")
    missing = [t for t in sorted(inst.terminals) if t not in nodes]
    if missing:
        return _not_tree(f"node {missing[0]}", "terminal not in support")
    neighbors: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in sorted(undirected):
        neighbors[a].append(b)
        neighbors[b].append(a)
    parent: dict[int, int] = {inst.source: -1}
    order = [inst.source]
    for u in order:
        for v in neighbors[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
    if len(parent) != len(nodes):
        stranded = min(n for n in nodes if n not in parent)
        return _not_tree(f"node {stranded}", "support is disconnected from the source")
    if len(undirected) != len(nodes) - 1:
        return _not_tree("support", "support contains a cycle")
    violations = [
        Violation(Code.BAD_ORIENTATION, f"({u},{v})", "flow points toward the source")
        for u, v in sorted(sol.flows) if parent[v] != u
    ]
    inner = set(parent.values())
    violations += [
        Violation(Code.LEAF_NOT_TERMINAL, f"node {node}", "leaf is not a terminal")
        for node in sorted(parent)
        if node not in inner and node != inst.source and node not in inst.terminals
    ]
    return parent, violations


def check_tree(inst: Instance, sol: FlowSolution) -> list[Violation]:
    """Rooted-tree shape of minimal solutions (support, orientation, leaves)."""
    return _rooted_support(inst, sol)[1]


def check_flow_law(inst: Instance, sol: FlowSolution) -> list[Violation]:
    """Each tree edge must carry the max demand among terminals below it.

    Runs the ``check_tree`` checks first: where the shape is wrong the law
    has no meaning, so their violations are returned instead.
    """
    parent, violations = _rooted_support(inst, sol)
    if violations:
        return violations
    # every leaf is a terminal, so every flow edge has a terminal below it
    law = tree_flows(parent, inst.source, inst.terminals)
    return [
        Violation(Code.FLOW_LAW, f"({u},{v})", f"flow {f} but max demand below is {law[u, v]}")
        for (u, v), f in sorted(sol.flows.items()) if abs(f - law[u, v]) > TOL
    ]
