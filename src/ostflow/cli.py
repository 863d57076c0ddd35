"""Command-line interface: solve, gen, validate, bench.

Exit statuses are the machine-readable failure channel:
0 success, 1 usage/IO/parse error, 2 infeasible instance,
3 infeasible solution (solve refuses to emit it; validate found
violations). Outputs are byte-identical across reruns unless --timing
is given (runtime fields are written as 0 by default).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .model import InfeasibleInstanceError, InstanceError, require_feasible
from .registry import SOLVERS, SweepKind
from .serialize import (
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .validation import check_constraints, check_cost, check_flow_law, check_tree

# Each command imports the rest of the package (and numpy with it) when
# it runs, so start-up pays only for the command given.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE_INSTANCE = 2
EXIT_INFEASIBLE_SOLUTION = 3

# Metaheuristic flags by the MetaheuristicParams field each one sets:
# (type, flag, aliases...). A flag not given stays off the namespace, so
# the dataclass's default applies and parsing never imports it (or numpy).
_METAHEURISTIC_FLAGS = {
    "population": (int, "--pop", "--ga-pop"),
    "iterations": (int, "--iters"),
    "seed": (int, "--seed"),
    "crossover_rate": (float, "--ga-crossover"),
    "mutation_rate": (float, "--ga-mutation"),
    "tournament_size": (int, "--ga-tournament"),
    "ant_count": (int, "--aco-ants"),
    "evaporation": (float, "--aco-evaporation"),
    "pheromone_weight": (float, "--aco-alpha"),
    "heuristic_weight": (float, "--aco-beta"),
    "scout_fraction": (float, "--bco-scouts"),
    "abandonment_limit": (int, "--bco-abandonment"),
}


# GenConfig and SweepConfig fields by the dest of the flag that sets them;
# bench leaves a flag not given off the namespace, so the base GenConfig
# (bench.DEFAULT_BASE) or the SweepConfig default applies.
_GEN_FLAGS = {"node_count": "nodes", "avg_degree": "avg_degree", "terminal_count": "terminals"}
_SWEEP_FLAGS = {"trials": "trials", "algorithms": "algorithms", "ost_terminal_cap": "ost_cap"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {what}: {exc}") from exc


def _write_output(text: str, path: str | None) -> None:
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write output: {exc}") from exc


def _gen_config(args, seed: int, base=None):
    """GenConfig from --nodes, --avg-degree, --terminals and --demands
    ('value:prob,value:prob,...'; probs accept fractions like 1/3). A flag
    not given keeps its value in ``base`` (or the GenConfig default)."""
    from .generator import GenConfig

    def number(token: str) -> float:
        token = token.strip()
        if "/" in token:
            num, den = (float(x) for x in token.split("/", 1))
            if den == 0:
                raise InstanceError(f"demand entry {token!r} divides by zero")
            return num / den
        return float(token)

    given = vars(args)
    fields = {field: given[dest] for field, dest in _GEN_FLAGS.items() if dest in given}
    if args.demands:
        pairs = []
        for chunk in args.demands.split(","):
            if ":" not in chunk:
                raise InstanceError(f"demand entry {chunk!r} is not value:probability")
            value, prob = chunk.split(":", 1)
            pairs.append((number(value), number(prob)))
        fields["demand_set"] = tuple(pairs)
    fields["seed"] = seed
    return GenConfig(**fields) if base is None else replace(base, **fields)


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(","))


def _metaheuristic_params(args):
    from .baselines import MetaheuristicParams

    given = vars(args)
    return MetaheuristicParams(**{f: given[f] for f in _METAHEURISTIC_FLAGS if f in given})


def _add_metaheuristic_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "metaheuristic parameters",
        "read by ga, aco and bco; a flag not given keeps its MetaheuristicParams default",
    )
    for field, (kind, *flags) in _METAHEURISTIC_FLAGS.items():
        group.add_argument(*flags, dest=field, type=kind, default=argparse.SUPPRESS,
                           help=f"MetaheuristicParams.{field}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ostflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--instance", required=True, help="instance document path")
    solve.add_argument("--algorithm", required=True,
                       choices=list(SOLVERS))
    solve.add_argument("--output", default=None,
                       help="solution document path (default stdout)")
    solve.add_argument("--timing", action="store_true",
                       help="record wall-clock runtime_ms (breaks byte-identical reruns)")
    _add_metaheuristic_flags(solve)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--nodes", required=True, type=int)
    gen.add_argument("--avg-degree", required=True, type=float)
    gen.add_argument("--terminals", required=True, type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--demands", default=None,
                     help="demand distribution value:prob,... (default: GenConfig.demand_set)")
    gen.add_argument("--output", default=None, help="instance path (default stdout)")

    val = sub.add_parser("validate", help="validate a solution against an instance")
    val.add_argument("--instance", required=True)
    val.add_argument("--solution", required=True)
    val.add_argument("--tree", action="store_true",
                     help="also check the rooted-tree shape of minimal solutions")
    val.add_argument("--flow-law", action="store_true",
                     help="also check per-edge flows against subtree demands (implies --tree)")

    bench = sub.add_parser("bench", help="run a benchmark sweep to CSV")
    bench.add_argument("--sweep", required=True,
                       choices=[k.value for k in SweepKind])
    bench.add_argument("--values", required=True,
                       help="comma-separated sweep values, strictly increasing")
    unset = argparse.SUPPRESS
    bench.add_argument("--trials", type=int, default=unset,
                       help="seeds per sweep value (default: SweepConfig.trials)")
    bench.add_argument("--algorithms", type=_names, default=unset,
                       help="comma-separated algorithm names (default: SweepConfig.algorithms)")
    bench.add_argument("--nodes", type=int, default=unset,
                       help="base node count (default: bench.DEFAULT_BASE)")
    bench.add_argument("--avg-degree", type=float, default=unset,
                       help="base average degree (default: bench.DEFAULT_BASE)")
    bench.add_argument("--terminals", type=int, default=unset,
                       help="base terminal count (default: bench.DEFAULT_BASE)")
    bench.add_argument("--demands", default=None,
                       help="base demand distribution (default: bench.DEFAULT_BASE)")
    bench.add_argument("--csv", default="results.csv", help="results CSV path")
    bench.add_argument("--summary", default="summary.csv", help="summary CSV path")
    bench.add_argument("--ost-cap", type=int, default=unset,
                       help="skip ost above this terminal count "
                            "(default: SweepConfig.ost_terminal_cap)")
    bench.add_argument("--timing", action="store_true",
                       help="record wall-clock runtimes (breaks byte-identical reruns)")
    _add_metaheuristic_flags(bench)
    return parser


def cmd_solve(args) -> int:
    inst = parse_instance(_read_text(args.instance, "instance"))
    # instance errors are reported before knob errors
    require_feasible(inst)
    solver = SOLVERS[args.algorithm]
    solution = solver(inst, _metaheuristic_params(args) if solver.tuned else None)
    violations = check_constraints(inst, solution)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        print("ostflow: refusing to emit an infeasible solution", file=sys.stderr)
        return EXIT_INFEASIBLE_SOLUTION
    if not args.timing:
        solution = replace(solution, runtime_ms=0.0)
    _write_output(serialize_solution(solution), args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    from .generator import generate_instance

    inst = generate_instance(_gen_config(args, args.seed))
    _write_output(serialize_instance(inst), args.output)
    return EXIT_OK


def cmd_validate(args) -> int:
    inst = parse_instance(_read_text(args.instance, "instance"))
    solution = parse_solution(_read_text(args.solution, "solution"))
    violations = check_constraints(inst, solution) + check_cost(inst, solution)
    if args.flow_law:
        violations += check_flow_law(inst, solution)
    elif args.tree:
        violations += check_tree(inst, solution)
    for v in violations:
        print(str(v))
    return EXIT_OK if not violations else EXIT_INFEASIBLE_SOLUTION


def _sweep_config(args):
    from .bench import DEFAULT_BASE, SweepConfig

    given = vars(args)
    return SweepConfig(
        sweep_kind=SweepKind(args.sweep),
        values=tuple(float(v) for v in args.values.split(",")),
        base=_gen_config(args, 0, DEFAULT_BASE),
        params=_metaheuristic_params(args),
        measure_runtime=args.timing,
        **{field: given[dest] for field, dest in _SWEEP_FLAGS.items() if dest in given},
    )


def cmd_bench(args) -> int:
    from .bench import emit_csv, run_sweep, summarize

    table = run_sweep(_sweep_config(args))
    _write_output(emit_csv(table), args.csv)
    _write_output(emit_csv(summarize(table)), args.summary)
    return EXIT_OK


_COMMANDS = {"solve": cmd_solve, "gen": cmd_gen, "validate": cmd_validate, "bench": cmd_bench}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; its errors become exit statuses here.

    An infeasible instance exits 2 with one line per report entry; any
    other ValueError (InstanceError among them), a failed read or write or
    a failed allocation exits 1 with its message.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except InfeasibleInstanceError as exc:
        for line in exc.report:
            print(f"ostflow: infeasible instance: {line}", file=sys.stderr)
        return EXIT_INFEASIBLE_INSTANCE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"ostflow: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
