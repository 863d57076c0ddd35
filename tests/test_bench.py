import pytest

from ostflow import (
    GenConfig,
    MetaheuristicParams,
    ResultRow,
    SweepConfig,
    SweepKind,
    emit_csv,
    run_sweep,
    summarize,
)

SMALL_BASE = GenConfig(node_count=12, avg_degree=3, terminal_count=3)
FAST = MetaheuristicParams(population=10, iterations=10, ant_count=5)


def small_cfg(**overrides):
    kwargs = dict(
        sweep_kind=SweepKind.NODE_COUNT,
        values=(10, 14),
        trials=2,
        base=SMALL_BASE,
        algorithms=("ost", "spt"),
        params=FAST,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def test_run_sweep_row_count_and_order(monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    table = run_sweep(small_cfg())
    assert len(table) == 2 * 2 * 2
    keys = [(r.sweep_value, r.seed, r.algorithm) for r in table]
    assert keys == sorted(keys)
    assert all(r.feasible for r in table)
    assert all(r.runtime_ms == 0.0 for r in table)


def test_run_sweep_dominance(monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    table = run_sweep(small_cfg(algorithms=("ost", "mst", "spt")))
    by_cell = {}
    for row in table:
        by_cell.setdefault((row.sweep_value, row.seed), {})[row.algorithm] = row.cost
    for cell in by_cell.values():
        for name, cost in cell.items():
            assert cell["ost"] <= cost + 1e-9, name


def test_run_sweep_k1_degeneration(monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    cfg = small_cfg(sweep_kind=SweepKind.USER_COUNT, values=(1,), trials=3)
    table = run_sweep(cfg)
    by_cell = {}
    for row in table:
        by_cell.setdefault(row.seed, {})[row.algorithm] = row.cost
    for cell in by_cell.values():
        assert abs(cell["ost"] - cell["spt"]) <= 1e-9


def test_run_sweep_deterministic(monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    cfg = small_cfg()
    assert run_sweep(cfg) == run_sweep(cfg)


def test_run_sweep_schedule_independent(monkeypatch):
    cfg = small_cfg()
    monkeypatch.setenv("OST_THREADS", "1")
    sequential = run_sweep(cfg)
    monkeypatch.setenv("OST_THREADS", "2")
    parallel = run_sweep(cfg)
    assert sequential == parallel


def test_run_sweep_user_count_monotone_means(monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    cfg = small_cfg(sweep_kind=SweepKind.USER_COUNT, values=(1, 3, 5), trials=3)
    table = run_sweep(cfg)
    means = {}
    for value in (1, 3, 5):
        costs = [r.cost for r in table if r.algorithm == "ost" and r.sweep_value == value]
        means[value] = sum(costs) / len(costs)
    assert means[1] <= means[3] + 1e-9 <= means[5] + 2e-9


def test_run_sweep_skips_ost_above_cap(monkeypatch, caplog):
    monkeypatch.setenv("OST_THREADS", "1")
    cfg = small_cfg(
        sweep_kind=SweepKind.USER_COUNT,
        values=(2, 5),
        trials=1,
        ost_terminal_cap=3,
    )
    table = run_sweep(cfg)
    assert [r.algorithm for r in table if r.sweep_value == 2] == ["ost", "spt"]
    assert [r.algorithm for r in table if r.sweep_value == 5] == ["spt"]
    # the skip is a warning on the "ostflow" logger, one per skipped cell
    warnings = [r for r in caplog.records if r.name == "ostflow"]
    assert [r.levelname for r in warnings] == ["WARNING"]
    assert warnings[0].getMessage() == (
        "skipping ost at value 5 seed 0: 5 terminals exceed cap 3"
    )


def test_run_sweep_demand_variance_spread(monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    cfg = small_cfg(
        sweep_kind=SweepKind.DEMAND_VARIANCE,
        values=(0.1, 0.4),
        trials=1,
        algorithms=("ost",),
    )
    table = run_sweep(cfg)
    assert len(table) == 2


def test_run_sweep_regular_degree(monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    cfg = small_cfg(
        sweep_kind=SweepKind.REGULAR_DEGREE,
        values=(3, 4),
        trials=1,
        algorithms=("ost", "mst"),
    )
    table = run_sweep(cfg)
    assert len(table) == 4
    assert all(r.feasible for r in table)


def test_run_sweep_small_nodes_ost_matches_oracle(monkeypatch):
    monkeypatch.setenv("OST_THREADS", "1")
    cfg = small_cfg(
        sweep_kind=SweepKind.NODE_COUNT_SMALL,
        values=(6, 8, 10),
        trials=20,
        algorithms=("oracle", "ost"),
    )
    table = run_sweep(cfg)
    assert len(table) == 3 * 20 * 2
    by_cell = {}
    for row in table:
        by_cell.setdefault((row.sweep_value, row.seed), {})[row.algorithm] = row.cost
    assert all(abs(c["ost"] - c["oracle"]) <= 1e-9 for c in by_cell.values())


def test_worker_count_env(monkeypatch):
    # a pure function of OST_THREADS, the core count and the job count:
    # min(requested, cores, jobs), at least 1; no pool is started
    from ostflow.bench import worker_count

    cases = [
        # OST_THREADS, cores, jobs, expected
        ("3", 8, 100, 3),
        ("0", 8, 100, 8),  # 0 means all cores
        ("-5", 4, 10, 4),  # so does a negative request
        ("many", 8, 100, 8),  # and an unparsable one
        (None, 8, 100, 8),  # and an unset one
        ("100000", 2, 60, 2),  # capped by the cores
        ("100000", None, 60, 1),  # core count unknown: one worker
        ("4", 64, 3, 3),  # capped by the jobs
        ("2", 4, 0, 1),  # never below one
    ]
    for requested, cores, jobs, expected in cases:
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        if requested is None:
            monkeypatch.delenv("OST_THREADS", raising=False)
        else:
            monkeypatch.setenv("OST_THREADS", requested)
        assert worker_count(jobs) == expected, (requested, cores, jobs)


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="nonempty"):
        small_cfg(values=())
    with pytest.raises(ValueError, match="strictly increasing"):
        small_cfg(values=(5, 5))
    with pytest.raises(ValueError, match="unknown algorithm"):
        small_cfg(algorithms=("ost", "dijkstra"))
    with pytest.raises(ValueError, match="trials"):
        small_cfg(trials=0)
    with pytest.raises(ValueError, match="ost_terminal_cap must be >= 0"):
        small_cfg(ost_terminal_cap=-1)
    assert small_cfg(ost_terminal_cap=0).ost_terminal_cap == 0
    # count sweeps take integers only; a float with no fraction is one
    with pytest.raises(ValueError, match="^node-count values must be integers, got 10.5$"):
        small_cfg(values=(10.5, 12.9))
    for kind in (SweepKind.NODE_COUNT_SMALL, SweepKind.REGULAR_DEGREE, SweepKind.USER_COUNT):
        with pytest.raises(ValueError, match=f"^{kind.value} values must be integers, got 3.7$"):
            small_cfg(sweep_kind=kind, values=(3, 3.7))
    assert small_cfg(values=(10.0,)).values == (10.0,)
    assert small_cfg(sweep_kind=SweepKind.AVG_DEGREE, values=(2.5,)).values == (2.5,)
    assert small_cfg(sweep_kind=SweepKind.DEMAND_VARIANCE, values=(0.1,)).values == (0.1,)
    # a plain string is refused here, not inside a (worker's) cell
    with pytest.raises(ValueError, match="^sweep_kind must be a SweepKind, got 'node-count'$"):
        small_cfg(sweep_kind="node-count")


def _row(value, seed, algorithm, cost):
    return ResultRow(
        sweep_kind="node-count",
        sweep_value=value,
        seed=seed,
        algorithm=algorithm,
        cost=cost,
        runtime_ms=0.0,
        feasible=True,
    )


def test_summarize_improvement_arithmetic():
    table = [_row(10, 0, "ost", 0.35), _row(10, 0, "mst", 0.5)]
    summary = {s.algorithm: s for s in summarize(table)}
    assert abs(summary["mst"].improvement_pct - 30.0) <= 1e-9
    assert summary["ost"].improvement_pct == 0.0
    assert summary["mst"].mean_cost == 0.5
    assert summary["mst"].std_cost == 0.0


def test_summarize_adds_left_to_right():
    # a compensated sum (Python >= 3.12's sum) gives a mean of 0.1 here
    table = [_row(10, s, "mst", 0.1) for s in range(10)]
    assert summarize(table)[0].mean_cost == 0.09999999999999999


def test_summarize_equal_costs_zero_improvement():
    table = [_row(10, s, a, 1.25) for s in range(3) for a in ("ost", "spt")]
    for s in summarize(table):
        assert s.improvement_pct == 0.0


def test_summarize_without_ost_leaves_improvement_empty():
    # a sweep whose every value exceeded --ost-cap still gets its means
    table = [_row(10, 0, "mst", 0.5), _row(10, 1, "mst", 1.5), _row(20, 0, "spt", 2.0)]
    summary = summarize(table)
    assert [(s.sweep_value, s.algorithm, s.mean_cost) for s in summary] == [
        (10, "mst", 1.0), (20, "spt", 2.0)
    ]
    assert all(s.improvement_pct is None for s in summary)


def test_emit_csv_empty_table_is_header_only():
    assert emit_csv([]) == "sweep_kind,sweep_value,seed,algorithm,cost,runtime_ms,feasible\n"


def test_emit_csv_one_row():
    text = emit_csv([_row(20, 0, "ost", 0.123456789123)])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1] == "node-count,20,0,ost,0.123456789,0,true"


def test_emit_csv_deterministic():
    table = [_row(10, 0, "ost", 0.35), _row(10, 0, "mst", 0.5)]
    assert emit_csv(table) == emit_csv(table)


def test_emit_csv_summary_header():
    table = [_row(10, 0, "ost", 0.35), _row(10, 0, "mst", 0.5)]
    text = emit_csv(summarize(table))
    assert text.splitlines()[0] == "sweep_value,algorithm,mean_cost,std_cost,improvement_pct"
