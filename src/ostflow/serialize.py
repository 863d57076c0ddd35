"""Canonical JSON documents for instances and solutions.

Instance documents carry ``nodes``, ``edges``, ``source``, ``terminals``;
solution documents carry ``algorithm``, ``cost``, ``flows``, ``runtime_ms``.
Serialization is canonical: edges sorted by (min(u,v), max(u,v)), terminals
by node id, flows by (from, to). Floats are written with Python's shortest
round-tripping repr, so parse(serialize(x)) == x holds exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .model import FlowSolution, Graph, Instance, InstanceError, as_float, as_int

_INSTANCE_KEYS = {"nodes", "edges", "source", "terminals"}
_TERMINAL_KEYS = {"node", "demand"}
_SOLUTION_KEYS = {"algorithm", "cost", "flows", "runtime_ms"}
_FLOW_KEYS = {"from", "to", "flow"}


def _load_object(text: str, what: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed {what} document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError(f"{what} document must be a JSON object")
    return doc


def _reject_unknown(doc: dict[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise InstanceError(f"unknown field(s) {unknown} in {where}")
    missing = sorted(allowed - set(doc))
    if missing:
        raise InstanceError(f"missing field(s) {missing} in {where}")


def parse_instance(text: str) -> Instance:
    """Parse an instance document; raises InstanceError on any defect."""
    doc = _load_object(text, "instance")
    _reject_unknown(doc, _INSTANCE_KEYS, "instance document")
    nodes = _integer(doc["nodes"], "nodes")
    edges_raw = doc["edges"]
    if not isinstance(edges_raw, list):
        raise InstanceError("edges: expected an array of [u, v, weight] triples")
    edges = []
    for i, entry in enumerate(edges_raw):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InstanceError(f"edges[{i}]: expected [u, v, weight] triple, got {entry!r}")
        u, v, w = entry
        w = _number(w, f"edges[{i}][2]")
        edges.append((_integer(u, f"edges[{i}][0]"), _integer(v, f"edges[{i}][1]"), w))
    source = _integer(doc["source"], "source")
    terminals_raw = doc["terminals"]
    if not isinstance(terminals_raw, list):
        raise InstanceError("terminals: expected an array of {node, demand} objects")
    terminals: dict[int, float] = {}
    for i, entry in enumerate(terminals_raw):
        if not isinstance(entry, dict):
            raise InstanceError(f"terminals[{i}]: expected an object")
        _reject_unknown(entry, _TERMINAL_KEYS, f"terminals[{i}]")
        node = _integer(entry["node"], f"terminals[{i}].node")
        demand = _number(entry["demand"], f"terminals[{i}].demand")
        if node in terminals:
            raise InstanceError(f"terminals[{i}]: duplicate terminal node {node}")
        terminals[node] = demand
    graph = Graph(node_count=nodes, edges=tuple(edges))
    return Instance(graph=graph, source=source, terminals=terminals)


def _join_block(entries: list[str]) -> str:
    if not entries:
        return "[]"
    body = ",\n    ".join(entries)
    return f"[\n    {body}\n  ]"


def serialize_instance(inst: Instance) -> str:
    num = json.dumps
    edges = _join_block(
        [f"[{u}, {v}, {num(w)}]" for u, v, w in inst.graph.edges]
    )
    terminals = _join_block(
        [
            f'{{"node": {t}, "demand": {num(d)}}}'
            for t, d in sorted(inst.terminals.items())
        ]
    )
    return (
        "{\n"
        f'  "nodes": {inst.graph.node_count},\n'
        f'  "edges": {edges},\n'
        f'  "source": {inst.source},\n'
        f'  "terminals": {terminals}\n'
        "}\n"
    )


def _integer(value: Any, where: str) -> int:
    """``value`` as a node id or count by :func:`as_int`, so JSON ``true`` is none."""
    number = as_int(value)
    if number is None:
        raise InstanceError(f"{where}: expected integer, got {value!r}")
    return number


def _number(value: Any, where: str, finite: bool = False) -> float:
    """``value`` as a float by :func:`as_float`, so JSON ``true`` is none and
    a too large integer is inf; with ``finite``, NaN and +-inf are refused."""
    number = as_float(value)
    if number is None:
        raise InstanceError(f"{where}: expected number")
    if finite and not math.isfinite(number):
        raise InstanceError(f"{where}: expected a finite number, got {number}")
    return number


def parse_solution(text: str) -> FlowSolution:
    """Parse a solution document; raises InstanceError on any defect."""
    doc = _load_object(text, "solution")
    _reject_unknown(doc, _SOLUTION_KEYS, "solution document")
    if not isinstance(doc["algorithm"], str):
        raise InstanceError("algorithm: expected string")
    cost = _number(doc["cost"], "cost", finite=True)
    runtime_ms = _number(doc["runtime_ms"], "runtime_ms", finite=True)
    flows_raw = doc["flows"]
    if not isinstance(flows_raw, list):
        raise InstanceError("flows: expected an array of {from, to, flow} objects")
    flows: dict[tuple[int, int], float] = {}
    for i, entry in enumerate(flows_raw):
        if not isinstance(entry, dict):
            raise InstanceError(f"flows[{i}]: expected an object")
        _reject_unknown(entry, _FLOW_KEYS, f"flows[{i}]")
        u = _integer(entry["from"], f"flows[{i}].from")
        v = _integer(entry["to"], f"flows[{i}].to")
        f = _number(entry["flow"], f"flows[{i}].flow", finite=True)
        if (u, v) in flows:
            raise InstanceError(f"flows[{i}]: duplicate flow edge ({u}, {v})")
        flows[(u, v)] = f
    return FlowSolution(
        flows=flows, cost=cost, algorithm=doc["algorithm"], runtime_ms=runtime_ms
    )


def serialize_solution(sol: FlowSolution) -> str:
    num = json.dumps
    flows = _join_block(
        [
            f'{{"from": {u}, "to": {v}, "flow": {num(f)}}}'
            for u, v, f in sol.sorted_flows()
        ]
    )
    return (
        "{\n"
        f'  "algorithm": {json.dumps(sol.algorithm)},\n'
        f'  "cost": {num(sol.cost)},\n'
        f'  "flows": {flows},\n'
        f'  "runtime_ms": {num(sol.runtime_ms)}\n'
        "}\n"
    )
