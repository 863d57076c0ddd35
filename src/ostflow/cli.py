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

from .model import InfeasibleInstanceError, InstanceError, validate_instance
from .registry import SOLVERS, SWEEP_ALGORITHMS, SweepKind
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


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _parse_demand_set(spec: str) -> tuple[tuple[float, float], ...]:
    """Parse 'value:prob,value:prob,...'; probs accept fractions like 1/3."""

    def number(token: str) -> float:
        token = token.strip()
        if "/" in token:
            num, den = token.split("/", 1)
            return float(num) / float(den)
        return float(token)

    pairs = []
    for chunk in spec.split(","):
        if ":" not in chunk:
            raise InstanceError(f"demand entry {chunk!r} is not value:probability")
        value, prob = chunk.split(":", 1)
        pairs.append((number(value), number(prob)))
    return tuple(pairs)


def _metaheuristic_params(args):
    from .baselines import MetaheuristicParams

    return MetaheuristicParams(
        population=args.pop,
        iterations=args.iters,
        seed=args.seed,
        crossover_rate=args.ga_crossover,
        mutation_rate=args.ga_mutation,
        tournament_size=args.ga_tournament,
        ant_count=args.aco_ants,
        evaporation=args.aco_evaporation,
        pheromone_weight=args.aco_alpha,
        heuristic_weight=args.aco_beta,
        scout_fraction=args.bco_scouts,
        abandonment_limit=args.bco_abandonment,
    )


def _add_metaheuristic_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("metaheuristic parameters")
    group.add_argument("--pop", "--ga-pop", dest="pop", type=int, default=50,
                       help="population size for ga/bco (default 50)")
    group.add_argument("--iters", type=int, default=100,
                       help="iterations for ga/aco/bco (default 100)")
    group.add_argument("--seed", type=int, default=0,
                       help="metaheuristic RNG seed (default 0)")
    group.add_argument("--ga-crossover", type=float, default=0.8)
    group.add_argument("--ga-mutation", type=float, default=0.02)
    group.add_argument("--ga-tournament", type=int, default=3)
    group.add_argument("--aco-ants", type=int, default=20)
    group.add_argument("--aco-evaporation", type=float, default=0.1)
    group.add_argument("--aco-alpha", type=float, default=1.0)
    group.add_argument("--aco-beta", type=float, default=2.0)
    group.add_argument("--bco-scouts", type=float, default=0.1)
    group.add_argument("--bco-abandonment", type=int, default=10)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ostflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", parents=[], help="solve an instance file")
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
                     help="demand distribution value:prob,... (default 1:1/3,0.5:1/3,0.25:1/3)")
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
    bench.add_argument("--trials", type=int, default=30)
    bench.add_argument("--algorithms", default=",".join(SWEEP_ALGORITHMS),
                       help="comma-separated algorithm names")
    bench.add_argument("--nodes", type=int, default=100, help="base node count")
    bench.add_argument("--avg-degree", type=float, default=4.0, help="base average degree")
    bench.add_argument("--terminals", type=int, default=8, help="base terminal count")
    bench.add_argument("--demands", default=None, help="base demand distribution")
    bench.add_argument("--csv", default="results.csv", help="results CSV path")
    bench.add_argument("--summary", default="summary.csv", help="summary CSV path")
    bench.add_argument("--ost-cap", type=int, default=16,
                       help="skip ost above this terminal count (default 16)")
    bench.add_argument("--timing", action="store_true",
                       help="record wall-clock runtimes (breaks byte-identical reruns)")
    _add_metaheuristic_flags(bench)
    return parser


def cmd_solve(args) -> int:
    try:
        text = _read_text(args.instance)
    except OSError as exc:
        print(f"ostflow: cannot read instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        inst = parse_instance(text)
    except InstanceError as exc:
        print(f"ostflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = validate_instance(inst)
    if report:
        for line in report:
            print(f"ostflow: infeasible instance: {line}", file=sys.stderr)
        return EXIT_INFEASIBLE_INSTANCE
    solver = SOLVERS[args.algorithm]
    try:
        params = _metaheuristic_params(args) if solver.tuned else None
        solution = solver(inst, params)
    except InfeasibleInstanceError as exc:
        print(f"ostflow: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_INSTANCE
    except ValueError as exc:
        print(f"ostflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violations = check_constraints(inst, solution)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        print("ostflow: refusing to emit an infeasible solution", file=sys.stderr)
        return EXIT_INFEASIBLE_SOLUTION
    if not args.timing:
        solution = replace(solution, runtime_ms=0.0)
    try:
        _write_output(serialize_solution(solution), args.output)
    except OSError as exc:
        print(f"ostflow: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_gen(args) -> int:
    from .generator import DEFAULT_DEMAND_SET, GenConfig, generate_instance

    try:
        demand_set = (
            _parse_demand_set(args.demands) if args.demands else DEFAULT_DEMAND_SET
        )
        cfg = GenConfig(
            node_count=args.nodes,
            avg_degree=args.avg_degree,
            terminal_count=args.terminals,
            demand_set=demand_set,
            seed=args.seed,
        )
        inst = generate_instance(cfg)
    except (InstanceError, ValueError) as exc:
        print(f"ostflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _write_output(serialize_instance(inst), args.output)
    except OSError as exc:
        print(f"ostflow: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        inst = parse_instance(_read_text(args.instance))
        solution = parse_solution(_read_text(args.solution))
    except (OSError, InstanceError) as exc:
        print(f"ostflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violations = check_constraints(inst, solution) + check_cost(inst, solution)
    if args.tree or args.flow_law:
        tree_violations = check_tree(inst, solution)
        violations.extend(tree_violations)
        if args.flow_law and not tree_violations:
            violations.extend(check_flow_law(inst, solution))
    for v in violations:
        print(str(v))
    return EXIT_OK if not violations else EXIT_INFEASIBLE_SOLUTION


def cmd_bench(args) -> int:
    from .bench import SweepConfig, emit_csv, run_sweep, summarize
    from .generator import DEFAULT_DEMAND_SET, GenConfig

    try:
        values = tuple(float(v) for v in args.values.split(","))
        demand_set = (
            _parse_demand_set(args.demands) if args.demands else DEFAULT_DEMAND_SET
        )
        base = GenConfig(
            node_count=args.nodes,
            avg_degree=args.avg_degree,
            terminal_count=args.terminals,
            demand_set=demand_set,
            seed=0,
        )
        cfg = SweepConfig(
            sweep_kind=SweepKind(args.sweep),
            values=values,
            trials=args.trials,
            base=base,
            algorithms=tuple(a.strip() for a in args.algorithms.split(",")),
            params=_metaheuristic_params(args),
            ost_terminal_cap=args.ost_cap,
            measure_runtime=args.timing,
        )
    except (InstanceError, ValueError) as exc:
        print(f"ostflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        table = run_sweep(cfg)
        summary = summarize(table)
    except (InstanceError, ValueError) as exc:
        print(f"ostflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        Path(args.csv).write_text(emit_csv(table), encoding="utf-8")
        Path(args.summary).write_text(emit_csv(summary), encoding="utf-8")
    except OSError as exc:
        print(f"ostflow: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "gen": cmd_gen,
        "validate": cmd_validate,
        "bench": cmd_bench,
    }
    return handlers[args.subcommand](args)


if __name__ == "__main__":
    sys.exit(main())
