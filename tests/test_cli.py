import hashlib
import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

from ostflow import (
    GenConfig,
    MetaheuristicParams,
    SweepConfig,
    SweepKind,
    generate_instance,
    serialize_instance,
    serialize_solution,
    solve_ost,
)
from ostflow.cli import _gen_config, _metaheuristic_params, _sweep_config, build_parser, main
from ostflow.pcg64 import PCG64Stream
from ostflow.registry import SOLVERS
from ostflow.solver import STATE_BYTES

from helpers import child_env, close, overflowing_star_instance, oversized_instance


@pytest.fixture
def w1_path(tmp_path, w1):
    path = tmp_path / "w1.json"
    path.write_text(serialize_instance(w1))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_ost_w1(capsys, w1_path):
    code, out, _ = run(capsys, "solve", "--instance", w1_path, "--algorithm", "ost")
    assert code == 0
    doc = json.loads(out)
    assert close(doc["cost"], 0.35)
    assert doc["flows"] == [
        {"from": 0, "to": 3, "flow": 1.0},
        {"from": 1, "to": 2, "flow": 0.25},
        {"from": 3, "to": 1, "flow": 0.25},
    ]
    assert doc["runtime_ms"] == 0


def test_solve_mst_w1(capsys, w1_path):
    code, out, _ = run(capsys, "solve", "--instance", w1_path, "--algorithm", "mst")
    assert code == 0
    assert close(json.loads(out)["cost"], 0.5)


def test_solve_writes_output_file(capsys, tmp_path, w1_path):
    out_path = tmp_path / "sol.json"
    code, out, _ = run(
        capsys, "solve", "--instance", w1_path, "--algorithm", "ost",
        "--output", out_path,
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["algorithm"] == "ost"


def test_solve_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "solve", "--instance", tmp_path / "nope.json", "--algorithm", "ost"
    )
    assert code == 1 and "cannot read" in err


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("0.3", "NaN", "edge (0, 3) has non-finite weight nan"),
        ('"demand": 0.25', '"demand": Infinity', "terminal 2 has non-finite demand inf"),
        ("0.3", "1" + "0" * 400, "edge (0, 3) has non-finite weight inf"),
        ('"demand": 0.25', '"demand": 1' + "0" * 400, "terminal 2 has non-finite demand inf"),
    ],
)
def test_solve_non_finite_instance_exits_1(capsys, tmp_path, w1_path, old, new, message):
    path = tmp_path / "bad.json"
    path.write_text(w1_path.read_text().replace(old, new, 1))
    code, out, err = run(capsys, "solve", "--instance", path, "--algorithm", "ost")
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("algorithm", ["ost", "mst", "spt", "ga", "aco", "bco"])
def test_solve_overflowing_cost_bound_exits_1(capsys, tmp_path, algorithm):
    # 1e308 x demand 10 overflows: refused on reading, before any solver
    doc = {
        "nodes": 3,
        "edges": [[0, 1, 1e308], [1, 2, 1.0]],
        "source": 0,
        "terminals": [{"node": 2, "demand": 10.0}],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--instance", path, "--algorithm", algorithm)
    assert code == 1 and out == ""
    assert err == ("ostflow: total edge weight 1e+308 x largest demand 10.0 overflows a float"
                   " cost bound; the heaviest edge is (0, 1) with weight 1e+308\n")


def test_solve_infeasible_instance_exits_2(capsys, tmp_path):
    doc = {
        "nodes": 4,
        "edges": [[0, 1, 0.5], [2, 3, 0.5]],
        "source": 0,
        "terminals": [{"node": 3, "demand": 1.0}],
    }
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", "--instance", path, "--algorithm", "ost")
    assert code == 2 and "unreachable" in err


def test_solve_unknown_algorithm_exits_1(capsys, w1_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", str(w1_path), "--algorithm", "magic"])
    assert exc.value.code == 1


def test_solve_oracle_limit_exits_1(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "--nodes", 15, "--avg-degree", 3,
                     "--terminals", 2, "--seed", 1, "--output", tmp_path / "big.json")
    assert code == 0
    code, _, err = run(
        capsys, "solve", "--instance", tmp_path / "big.json", "--algorithm", "oracle"
    )
    assert code == 1 and "oracle limit" in err


@pytest.mark.parametrize("algorithm", list(SOLVERS))
def test_solve_timing_records_every_solvers_runtime(capsys, w1_path, algorithm):
    code, out, _ = run(capsys, "solve", "--instance", w1_path, "--algorithm", algorithm,
                       "--iters", 3, "--pop", 4, "--timing")
    assert code == 0
    assert json.loads(out)["runtime_ms"] > 0


def test_solve_refuses_infeasible_solution(capsys, w1_path, monkeypatch):
    import ostflow.baselines

    def broken(inst):
        from ostflow import FlowSolution

        return FlowSolution(flows={(0, 3): 0.1}, cost=0.03, algorithm="mst")

    # the solver registry looks the function up when it runs
    monkeypatch.setattr(ostflow.baselines, "solve_mst_prune", broken)
    code, _, err = run(capsys, "solve", "--instance", w1_path, "--algorithm", "mst")
    assert code == 3 and "refusing to emit" in err


def test_solve_bad_metaheuristic_knob_exits_1(capsys, w1_path):
    code, out, err = run(capsys, "solve", "--instance", w1_path, "--algorithm", "ga",
                         "--pop", 0)
    assert code == 1 and out == ""
    assert err == "ostflow: population, iterations and ant_count must be positive\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--aco-beta", "nan", "pheromone_weight and heuristic_weight must be finite and >= 0"),
        ("--aco-alpha", "-5", "pheromone_weight and heuristic_weight must be finite and >= 0"),
        ("--aco-beta", "400", "ACO desirability of edge (1, 2) overflows a float; "
                              "lower pheromone_weight or heuristic_weight"),
    ],
)
def test_solve_bad_aco_weight_exits_1(capsys, w1_path, flag, value, message):
    code, out, err = run(capsys, "solve", "--instance", w1_path, "--algorithm", "aco", flag, value)
    assert code == 1 and out == ""
    assert err == f"ostflow: {message}\n"


def test_solve_aco_hop_total_overflow_exits_1(capsys, tmp_path):
    path = tmp_path / "star.json"
    path.write_text(serialize_instance(overflowing_star_instance()))
    code, out, err = run(capsys, "solve", "--instance", path, "--algorithm", "aco",
                         "--aco-alpha", "0", "--aco-beta", "102.5")
    assert code == 1 and out == ""
    assert err == ("ostflow: ACO hop total at node 0 overflows a float; "
                   "lower pheromone_weight or heuristic_weight\n")


def test_solve_oversized_state_space_exits_1(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(serialize_instance(oversized_instance()))
    code, out, err = run(capsys, "solve", "--instance", path, "--algorithm", "ost")
    assert code == 1 and out == ""
    assert err.startswith("ostflow: state space too large: 41 nodes x 2^40 terminal subsets")
    assert f"({41 * 2**40 * STATE_BYTES} bytes)" in err


def test_unknown_flag_rejected(capsys, w1_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", str(w1_path), "--algorithm", "ost", "--bogus"])
    assert exc.value.code == 1


def test_gen_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "--nodes", 10, "--avg-degree", 3,
                         "--terminals", 2, "--seed", 42)
    assert code == 0
    code, second, _ = run(capsys, "gen", "--nodes", 10, "--avg-degree", 3,
                          "--terminals", 2, "--seed", 42)
    assert first == second


def test_gen_rejects_impossible_connectivity(capsys):
    code, _, err = run(capsys, "gen", "--nodes", 4, "--avg-degree", 0.5,
                       "--terminals", 1)
    assert code == 1 and "cannot guarantee connectivity" in err


@pytest.mark.parametrize(
    "nodes,degree,terminals,seed,demands",
    [
        (2, 1, 1, 0, None),
        (10, 3, 2, 42, None),
        (50, 4, 6, 400_000, None),
        (300, 6, 8, 2**64 - 1, None),
        (40, 39, 5, 7, "2:0.1,0.7:0.6,0.3:0.3"),
    ],
)
def test_gen_writes_the_library_instance(capsys, nodes, degree, terminals, seed, demands):
    # gen draws from the pure-Python stream, the library from numpy's
    argv = ["gen", "--nodes", nodes, "--avg-degree", degree, "--terminals", terminals,
            "--seed", seed]
    cfg = GenConfig(nodes, degree, terminals, seed=seed)
    if demands is not None:
        argv += ["--demands", demands]
        cfg = replace(cfg, demand_set=((2.0, 0.1), (0.7, 0.6), (0.3, 0.3)))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == serialize_instance(generate_instance(cfg))


def test_gen_custom_demands(capsys):
    code, out, _ = run(capsys, "gen", "--nodes", 10, "--avg-degree", 3,
                       "--terminals", 4, "--seed", 3,
                       "--demands", "2:1/2,1:1/2")
    assert code == 0
    demands = {t["demand"] for t in json.loads(out)["terminals"]}
    assert demands <= {1.0, 2.0}


def test_validate_clean_solution(capsys, tmp_path, w1_path, w1):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(serialize_solution(solve_ost(w1)))
    code, out, _ = run(
        capsys, "validate", "--instance", w1_path, "--solution", sol_path,
        "--tree", "--flow-law",
    )
    assert code == 0 and out == ""


def test_validate_reports_violations(capsys, tmp_path, w1_path):
    sol_path = tmp_path / "bad.json"
    sol_path.write_text(json.dumps({
        "algorithm": "x", "cost": -0.1,
        "flows": [{"from": 0, "to": 3, "flow": -1.0}],
        "runtime_ms": 0.0,
    }))
    code, out, _ = run(capsys, "validate", "--instance", w1_path, "--solution", sol_path)
    assert code == 3
    assert out.startswith("NEG_FLOW")


def test_validate_nonedge_flow(capsys, tmp_path, w1_path):
    sol_path = tmp_path / "bad.json"
    sol_path.write_text(json.dumps({
        "algorithm": "x", "cost": 0.2,
        "flows": [{"from": 0, "to": 2, "flow": 1.0}],
        "runtime_ms": 0.0,
    }))
    code, out, _ = run(capsys, "validate", "--instance", w1_path, "--solution", sol_path)
    assert code == 3 and "NONEDGE_FLOW" in out


def _w1_optimum_doc(**changes):
    doc = {
        "algorithm": "x",
        "cost": 0.35,
        "flows": [
            {"from": 0, "to": 3, "flow": 1.0},
            {"from": 1, "to": 2, "flow": 0.25},
            {"from": 3, "to": 1, "flow": 0.25},
        ],
        "runtime_ms": 0.0,
    }
    doc.update(changes)
    return json.dumps(doc)


def test_validate_reports_cost_mismatch(capsys, tmp_path, w1_path):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(_w1_optimum_doc())
    args = ("validate", "--instance", w1_path, "--solution", sol_path, "--flow-law")
    assert run(capsys, *args)[:2] == (0, "")
    sol_path.write_text(_w1_optimum_doc(cost=999))
    code, out, _ = run(capsys, *args)
    assert code == 3
    assert len(out.splitlines()) == 1
    assert out.startswith("COST_MISMATCH cost stated cost 999.0 but sum of weight")


def test_validate_flow_law_reports_shape_then_law(capsys, tmp_path, w1_path):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(_w1_optimum_doc(cost=0.025, flows=[{"from": 1, "to": 2, "flow": 0.25}]))
    args = ("validate", "--instance", w1_path, "--solution", sol_path)
    code, out, _ = run(capsys, *args, "--flow-law")
    assert "NOT_TREE" in out and (code, out) == run(capsys, *args, "--tree")[:2]
    assert code == 3
    sol_path.write_text(_w1_optimum_doc(cost=0.425, flows=[
        {"from": 0, "to": 3, "flow": 1.0},
        {"from": 1, "to": 2, "flow": 0.25},
        {"from": 3, "to": 1, "flow": 1.0},
    ]))
    assert run(capsys, *args, "--flow-law")[:2] == (
        3, "FLOW_LAW (3,1) flow 1.0 but max demand below is 0.25\n"
    )


@pytest.mark.parametrize(
    "changes,field",
    [
        ({"cost": -math.inf}, "cost"),
        ({"cost": math.inf}, "cost"),
        ({"runtime_ms": math.nan}, "runtime_ms"),
        (
            {
                "cost": -math.inf,
                "flows": [{"from": 0, "to": 3, "flow": math.inf}],
            },
            "cost",
        ),
        (
            {
                "flows": [
                    {"from": 0, "to": 3, "flow": 1.0},
                    {"from": 1, "to": 2, "flow": math.nan},
                    {"from": 3, "to": 1, "flow": 0.25},
                ]
            },
            r"flows[1].flow",
        ),
    ],
)
def test_validate_rejects_non_finite_numbers(capsys, tmp_path, w1_path, changes, field):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(_w1_optimum_doc(**changes))
    code, out, err = run(
        capsys, "validate", "--instance", w1_path, "--solution", sol_path
    )
    assert code == 1 and out == ""
    assert err.startswith(f"ostflow: {field}: expected a finite number, got ")


def test_validate_parse_failure_exits_1(capsys, tmp_path, w1_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    code, _, err = run(capsys, "validate", "--instance", w1_path, "--solution", bad)
    assert code == 1 and "malformed" in err


def test_emitted_solutions_round_trip_via_validator(capsys, tmp_path, w1_path):
    for algorithm in ("ost", "oracle", "mst", "spt", "ga", "aco", "bco"):
        sol_path = tmp_path / f"{algorithm}.json"
        code, _, _ = run(
            capsys, "solve", "--instance", w1_path, "--algorithm", algorithm,
            "--iters", 5, "--pop", 8, "--output", sol_path,
        )
        assert code == 0
        code, out, _ = run(
            capsys, "validate", "--instance", w1_path, "--solution", sol_path
        )
        assert code == 0 and out == "", algorithm


def test_bench_writes_csvs(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    csv = tmp_path / "r.csv"
    summary = tmp_path / "s.csv"
    code, _, _ = run(
        capsys, "bench", "--sweep", "user-count", "--values", "1,2",
        "--trials", 2, "--algorithms", "ost,spt",
        "--nodes", 12, "--avg-degree", 3, "--terminals", 3,
        "--csv", csv, "--summary", summary,
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "sweep_kind,sweep_value,seed,algorithm,cost,runtime_ms,feasible"
    assert len(lines) == 1 + 2 * 2 * 2
    assert summary.read_text().startswith("sweep_value,algorithm,")


def test_bench_rerun_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    outputs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"r{tag}.csv"
        summary = tmp_path / f"s{tag}.csv"
        code, _, _ = run(
            capsys, "bench", "--sweep", "node-count", "--values", "10,12",
            "--trials", 1, "--algorithms", "ost,mst,ga",
            "--nodes", 10, "--avg-degree", 3, "--terminals", 2,
            "--iters", 5, "--pop", 8,
            "--csv", csv, "--summary", summary,
        )
        assert code == 0
        outputs.append((csv.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]


def test_bench_ost_cap_leaves_improvement_empty(capsys, tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("OST_THREADS", "1")
    common = ("bench", "--sweep", "user-count", "--trials", 2, "--algorithms", "ost,spt",
              "--nodes", 12, "--avg-degree", 3, "--terminals", 3, "--ost-cap", 3)
    csv, summary = tmp_path / "r.csv", tmp_path / "s.csv"
    code, _, _ = run(capsys, *common, "--values", "2,5", "--csv", csv, "--summary", summary)
    assert code == 0
    skips = [r.getMessage() for r in caplog.records if r.name == "ostflow"]
    assert skips == [
        f"skipping ost at value 5.0 seed {seed}: 5 terminals exceed cap 3" for seed in (0, 1)
    ]
    # value 2 ran ost: its lines are those of a sweep over value 2 alone
    assert summary.read_text() == (
        "sweep_value,algorithm,mean_cost,std_cost,improvement_pct\n"
        "2,ost,0.698919209,0.0200609658,0\n"
        "2,spt,0.824214703,0.105234528,15.2018028\n"
        "5,spt,1.58319537,0.0779651468,\n"
    )
    alone = tmp_path / "r2.csv"
    code, _, _ = run(capsys, *common, "--values", "2", "--csv", alone,
                     "--summary", tmp_path / "s2.csv")
    assert code == 0
    rows = csv.read_text().splitlines()
    assert [r for r in rows if ",5," not in r] == alone.read_text().splitlines()
    assert [r.split(",")[3] for r in rows if ",5," in r] == ["spt", "spt"]


def test_bench_negative_ost_cap_exits_1(capsys, tmp_path):
    csv, summary = tmp_path / "r.csv", tmp_path / "s.csv"
    code, out, err = run(
        capsys, "bench", "--sweep", "user-count", "--values", "4", "--trials", 1,
        "--algorithms", "ost", "--ost-cap", -1, "--csv", csv, "--summary", summary,
    )
    assert code == 1 and out == ""
    assert err == "ostflow: ost_terminal_cap must be >= 0, got -1\n"
    assert not csv.exists() and not summary.exists()


def test_bench_fractional_count_exits_1(capsys, tmp_path):
    csv, summary = tmp_path / "r.csv", tmp_path / "s.csv"
    code, out, err = run(
        capsys, "bench", "--sweep", "node-count", "--values", "10.5,12.9", "--trials", 1,
        "--algorithms", "spt", "--csv", csv, "--summary", summary,
    )
    assert code == 1 and out == ""
    assert err == "ostflow: node-count values must be integers, got 10.5\n"
    assert not csv.exists() and not summary.exists()


def test_bench_fully_capped_sweep_writes_both_csvs(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    csv, summary = tmp_path / "r.csv", tmp_path / "s.csv"
    code, _, _ = run(
        capsys, "bench", "--sweep", "user-count", "--values", "5", "--trials", 2,
        "--algorithms", "ost,spt", "--nodes", 12, "--avg-degree", 3, "--terminals", 3,
        "--ost-cap", 3, "--csv", csv, "--summary", summary,
    )
    assert code == 0
    assert [r.split(",")[3] for r in csv.read_text().splitlines()[1:]] == ["spt", "spt"]
    assert summary.read_text() == (
        "sweep_value,algorithm,mean_cost,std_cost,improvement_pct\n"
        "5,spt,1.58319537,0.0779651468,\n"
    )


# SHA-256 of both CSVs of one sweep, recorded before emit_csv took its
# columns from the row dataclasses: value 4 exceeds --ost-cap, so the
# summary has empty improvement_pct cells as well as numbers.
_GOLDEN_BENCH_ARGS = (
    "bench", "--sweep", "user-count", "--values", "2,4", "--trials", 2,
    "--algorithms", "ost,mst,spt,ga,aco,bco", "--nodes", 12, "--avg-degree", 3,
    "--terminals", 3, "--ost-cap", 3, "--iters", 5, "--pop", 8,
)
_GOLDEN_RESULTS_SHA256 = "ac3584056c85bdcab28f2a453f034dafb42737cae69c504bed2361cafb34c5b3"
_GOLDEN_SUMMARY_SHA256 = "c5c65001bc9d8dd4918d9fc359dcc07357db65cee05ec8af581d8f627cba3826"


def test_bench_csvs_match_golden_hashes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    csv, summary = tmp_path / "r.csv", tmp_path / "s.csv"
    code, _, _ = run(capsys, *_GOLDEN_BENCH_ARGS, "--csv", csv, "--summary", summary)
    assert code == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == _GOLDEN_RESULTS_SHA256
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == _GOLDEN_SUMMARY_SHA256


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_metaheuristic_knobs_default_to_the_dataclass(command):
    required = {
        "solve": ["--instance", "i.json", "--algorithm", "ga"],
        "bench": ["--sweep", "user-count", "--values", "1"],
    }[command]
    parser = build_parser()
    args = parser.parse_args([command, *required])
    assert _metaheuristic_params(args) == MetaheuristicParams()
    args = parser.parse_args([command, *required, "--ga-pop", "7", "--aco-beta", "3",
                              "--bco-abandonment", "4"])
    assert _metaheuristic_params(args) == replace(
        MetaheuristicParams(), population=7, heuristic_weight=3.0, abandonment_limit=4
    )


def test_bench_flags_default_to_the_dataclasses():
    parser = build_parser()
    required = ["bench", "--sweep", "user-count", "--values", "1"]
    base = SweepConfig(sweep_kind=SweepKind.USER_COUNT, values=(1.0,))
    assert _sweep_config(parser.parse_args(required)) == base
    args = parser.parse_args([*required, "--trials", "3", "--algorithms", "ost, spt",
                              "--ost-cap", "5", "--nodes", "20", "--terminals", "4"])
    assert _sweep_config(args) == replace(
        base, trials=3, algorithms=("ost", "spt"), ost_terminal_cap=5,
        base=replace(base.base, node_count=20, terminal_count=4),
    )


def test_gen_flags_build_the_generator_config():
    args = build_parser().parse_args(["gen", "--nodes", "12", "--avg-degree", "3",
                                      "--terminals", "2", "--seed", "4"])
    assert _gen_config(args, args.seed) == GenConfig(
        node_count=12, avg_degree=3.0, terminal_count=2, seed=4
    )


def test_bench_timing_records_oracle_runtime(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    csv = tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "bench", "--sweep", "user-count", "--values", "2", "--trials", 1,
        "--algorithms", "oracle,ost", "--nodes", 8, "--avg-degree", 3, "--terminals", 2,
        "--timing", "--csv", csv, "--summary", tmp_path / "s.csv",
    )
    assert code == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == ["oracle", "ost"]
    assert all(float(row[5]) > 0 for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--nodes", 10, "--avg-degree", "inf", "--terminals", 2),
        ("gen", "--nodes", 10, "--avg-degree", "1e308", "--terminals", 2),
        ("gen", "--nodes", 10, "--avg-degree", 3, "--terminals", 2, "--demands", "1:1/0"),
        ("gen", "--nodes", 10, "--avg-degree", 3, "--terminals", 2,
         "--demands", "1:0.5,0.5/0:0.5"),
        ("bench", "--sweep", "user-count", "--values", "inf"),
        ("bench", "--sweep", "avg-degree", "--values", "1e400"),
    ],
    ids=["degree-inf", "degree-1e308", "prob-over-0", "value-over-0", "values-inf",
         "values-1e400"],
)
def test_non_finite_generator_and_sweep_numbers_exit_1(capsys, tmp_path, argv):
    if argv[0] == "bench":
        argv += ("--csv", tmp_path / "r.csv", "--summary", tmp_path / "s.csv")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("ostflow: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_non_finite_demand_value_exits_1_naming_it(capsys, value):
    code, out, err = run(capsys, "gen", "--nodes", 10, "--avg-degree", 3, "--terminals", 2,
                         "--demands", f"{value}:1")
    assert code == 1 and out == ""
    assert err == f"ostflow: demand value {value} must be finite\n"


def test_gen_overfull_degree_names_the_complete_graph_limit(capsys):
    code, out, err = run(capsys, "gen", "--nodes", 10, "--avg-degree", "1e300", "--terminals", 2)
    assert code == 1 and out == ""
    assert err.startswith("ostflow: ") and err.count("\n") == 1
    assert "45" in err and len(err) < 200
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "error,line",
    [
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "ostflow: Unable to allocate 74.5 GiB for an array\n"),
        (MemoryError(), "ostflow: MemoryError\n"),
    ],
)
def test_gen_out_of_memory_exits_1(capsys, monkeypatch, error, line):
    # a failed allocation, as a draw's result list raises for a huge
    # --nodes, is one line
    import ostflow.generator

    def exhausted(cfg, stream):
        assert stream is PCG64Stream
        raise error

    monkeypatch.setattr(ostflow.generator, "generate_instance", exhausted)
    code, out, err = run(capsys, "gen", "--nodes", 10**10, "--avg-degree", 2, "--terminals", 1)
    assert (code, out, err) == (1, "", line)


def test_bench_invalid_sweep_exits_1(capsys, tmp_path):
    code, _, _ = run(
        capsys, "bench", "--sweep", "user-count", "--values", "2,1",
        "--csv", tmp_path / "r.csv", "--summary", tmp_path / "s.csv",
    )
    assert code == 1


# Runs one CLI command in a fresh interpreter and reports the modules it loaded.
_FOOTPRINT = """
import json, sys
from ostflow.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    json.dump({"code": code, "modules": sorted(sys.modules)}, f)
"""


def _modules_loaded(tmp_path, *argv) -> set:
    report = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(report), *map(str, argv)],
        capture_output=True, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(report.read_text())
    assert doc["code"] == 0
    return set(doc["modules"])


def test_validate_never_imports_numpy(tmp_path, w1_path, w1):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(serialize_solution(solve_ost(w1)))
    loaded = _modules_loaded(tmp_path, "validate", "--instance", w1_path,
                             "--solution", sol_path, "--tree", "--flow-law")
    assert "ostflow.validation" in loaded
    assert "numpy" not in loaded


def test_gen_never_imports_numpy(tmp_path):
    loaded = _modules_loaded(tmp_path, "gen", "--nodes", 30, "--avg-degree", 3,
                             "--terminals", 4, "--seed", 1, "--output", "i.json")
    assert {"ostflow.generator", "ostflow.pcg64"} <= loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize(
    "argv,runs",
    [
        (("gen", "--nodes", 10, "--avg-degree", 3, "--terminals", 2, "--output", "i.json"),
         "ostflow.generator"),
        (("solve", "--algorithm", "ost", "--output", "s.json"), "ostflow.solver"),
    ],
)
def test_gen_and_solve_ost_import_only_what_they_run(tmp_path, w1_path, argv, runs):
    if argv[0] == "solve":
        argv += ("--instance", w1_path)
    loaded = _modules_loaded(tmp_path, *argv)
    assert runs in loaded
    assert not loaded & {"ostflow.bench", "ostflow.baselines", "ostflow.oracle",
                         "concurrent.futures"}
