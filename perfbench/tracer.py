"""Per-layer timing of ostflow from outside the package.

Each public function named in ``TARGETS`` is replaced, in every loaded
``ostflow`` module that binds it, by a wrapper that adds the call's wall
time and count to a ``Tracer``. Wrapping every binding, not only the
defining module, is what catches calls made through a ``from .x import
f`` name, such as ``ostflow.solver.make_solution``.

A name that no longer exists (a planned refactor may remove or un-export
it) is skipped with a note; the metrics built on it read ``None``.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# layer -> (defining module, public functions timed there)
TARGETS = {
    "solver": ("ostflow.solver", ("solve_ost", "dp_merge", "dp_grow", "dp_init", "reconstruct")),
    "model": ("ostflow.model", ("validate_instance", "make_solution")),
    "baselines": (
        "ostflow.baselines",
        ("solve_aco", "solve_ga", "solve_bco", "solve_mst_prune", "solve_sp_union"),
    ),
    "validation": ("ostflow.validation", ("check_constraints", "check_tree", "check_flow_law")),
    "serialize": (
        "ostflow.serialize",
        ("serialize_instance", "parse_instance", "serialize_solution", "parse_solution"),
    ),
    "generator": ("ostflow.generator", ("generate_instance",)),
}

# Children of solve_ost; solver.self.s is solve_ost minus these.
SOLVER_CHILDREN = ("dp_merge", "dp_grow", "dp_init", "reconstruct")

# Values read from the DpTable that dp_init returns, once per solve.
TABLE_STATS = ("finite_states", "merge_decisions", "extend_decisions", "table_mb")


class Tracer:
    """Sums of wall time, calls and table statistics over wrapped calls.

    ``raw()`` is a JSON-able snapshot; ``merge()`` adds another tracer's
    snapshot, which is how traced CLI subprocesses report back.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.missing: set[str] = set()
        self.notes: list[str] = []
        self.serialized_bytes = 0
        self.table: dict[str, float] = {}
        self._table = None
        self._patched: list[tuple[object, str, object]] = []

    def raw(self) -> dict:
        return {
            "seconds": self.seconds,
            "calls": self.calls,
            "missing": sorted(self.missing),
            "notes": self.notes,
            "serialized_bytes": self.serialized_bytes,
            "table": self.table,
        }

    def merge(self, raw: dict) -> None:
        for key, value in raw["seconds"].items():
            self.seconds[key] = self.seconds.get(key, 0.0) + value
        for key, value in raw["calls"].items():
            self.calls[key] = self.calls.get(key, 0) + value
        for key, value in raw["table"].items():
            self.table[key] = self.table.get(key, 0.0) + value
        self.missing.update(raw["missing"])
        self.notes.extend(n for n in raw["notes"] if n not in self.notes)
        self.serialized_bytes += raw["serialized_bytes"]

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    @contextlib.contextmanager
    def active(self):
        """Wrap every target while the block runs; restore them after."""
        self._install()
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._patched):
                setattr(module, attr, original)
            self._patched.clear()

    def _install(self) -> None:
        for layer, (module_name, names) in TARGETS.items():
            try:
                home = importlib.import_module(module_name)
            except ImportError as exc:
                self._note(f"{module_name} not importable ({exc}); its metrics are null")
                self.missing.update(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                key = f"{layer}.{name}"
                original = getattr(home, name, None)
                if not callable(original):
                    self._note(f"{module_name}.{name} not found; {key}.s is null")
                    self.missing.add(key)
                    continue
                wrapper = self._wrap(key, original)
                for module in list(sys.modules.values()):
                    module_id = getattr(module, "__name__", "")
                    if module_id != "ostflow" and not module_id.startswith("ostflow."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def _wrap(self, key: str, original):
        seconds, calls = self.seconds, self.calls
        seconds.setdefault(key, 0.0)
        calls.setdefault(key, 0)
        after = {
            "solver.dp_init": self._keep_table,
            "solver.solve_ost": self._read_table,
        }.get(key)
        counts_bytes = key.startswith("serialize.serialize_")

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - started
                calls[key] += 1
            if counts_bytes and isinstance(result, str):
                self.serialized_bytes += len(result.encode("utf-8"))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _keep_table(self, table) -> None:
        self._table = table

    def _read_table(self, _solution) -> None:
        """Add the finished table's statistics, then drop the reference."""
        table, self._table = self._table, None
        if table is None:
            return
        try:
            import numpy as np

            solver = sys.modules["ostflow.solver"]
            cost, kind, arg = table.cost, table.kind, table.arg
            stats = {
                "finite_states": int(np.isfinite(cost).sum()),
                "merge_decisions": int((kind == solver.MERGE).sum()),
                "extend_decisions": int((kind == solver.EXTEND).sum()),
                "table_mb": (cost.nbytes + kind.nbytes + arg.nbytes) / 2**20,
            }
        except (AttributeError, KeyError, TypeError) as exc:
            self._note(f"DpTable statistics unavailable ({exc!r}); solver table metrics are null")
            self.missing.update(f"solver.{name}" for name in TABLE_STATS)
            return
        for name, value in stats.items():
            self.table[name] = self.table.get(name, 0.0) + value
