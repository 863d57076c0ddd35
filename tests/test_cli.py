import json
import math
import subprocess
import sys

import pytest

from ostflow import serialize_instance, serialize_solution, solve_ost
from ostflow.cli import main

from helpers import child_env, close, oversized_instance


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
    ],
)
def test_solve_non_finite_instance_exits_1(capsys, tmp_path, w1_path, old, new, message):
    path = tmp_path / "bad.json"
    path.write_text(w1_path.read_text().replace(old, new, 1))
    code, out, err = run(capsys, "solve", "--instance", path, "--algorithm", "ost")
    assert code == 1 and out == ""
    assert message in err


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


def test_solve_oversized_state_space_exits_1(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(serialize_instance(oversized_instance()))
    code, out, err = run(capsys, "solve", "--instance", path, "--algorithm", "ost")
    assert code == 1 and out == ""
    assert err.startswith("ostflow: state space too large: 41 nodes x 2^40 terminal subsets")
    assert f"({41 * 2**40 * 13} bytes)" in err


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
