"""Experiment driver tests: sweeps, CSV outputs, and trace replay."""

import csv
from concurrent.futures import Future

import pytest

import dartsim.experiments as experiments
from dartsim.experiments import (expand_sweep, replay_trace, run_scenario,
                                 run_sweep)
from dartsim.metrics import (AGGREGATE_CSV_COLUMNS, RUN_CSV_COLUMNS,
                             format_run_row, read_trace)
from dartsim.scenario import (Scenario, ScenarioError, apply_setting,
                              validate)
from dartsim.simkernel import Simulation


def small_scenario(**kw):
    sc = Scenario()
    sc.nodes = 8
    sc.sim_time = 10.0
    sc.seed = 1
    for key, value in kw.items():
        setattr(sc, key, value)
    validate(sc)
    return sc


def test_run_scenario_writes_a_replayable_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    meta, records, metrics = run_scenario(small_scenario(), trace_path=trace)
    assert meta["nodes"] == 8 and meta["seed"] == 1
    meta2, records2 = read_trace(trace)
    assert meta2 == meta
    assert records2 == records


def test_replay_reproduces_the_metrics_row(tmp_path):
    trace = tmp_path / "trace.csv"
    meta, _, metrics = run_scenario(small_scenario(), trace_path=trace)
    r_meta, _, r_metrics, row = replay_trace(trace)
    assert r_metrics == metrics
    assert row == format_run_row(meta, metrics)


def test_expand_sweep_orders_points_with_seeds_fastest():
    base = small_scenario()
    points = expand_sweep(base, [("deadline_ms", ["6", "8"]),
                                 ("interval_s", ["1", "2"])], [4, 5])
    combos = [(p.deadline_ms, p.interval_s, p.seed) for p in points]
    assert combos == [(6.0, 1.0, 4), (6.0, 1.0, 5),
                      (6.0, 2.0, 4), (6.0, 2.0, 5),
                      (8.0, 1.0, 4), (8.0, 1.0, 5),
                      (8.0, 2.0, 4), (8.0, 2.0, 5)]
    assert base.seed == 1                      # base untouched


def test_expand_sweep_validates_every_point():
    with pytest.raises(ScenarioError, match="deadline_ms"):
        expand_sweep(small_scenario(), [("deadline_ms", ["6", "-1"])], [1])


def test_sweep_writes_runs_and_aggregate(tmp_path):
    runs_path, agg_path, failures = run_sweep(
        small_scenario(), [("deadline_ms", ["6", "8"])], [4, 5],
        tmp_path / "out")
    assert not failures
    runs = runs_path.read_text().splitlines()
    assert runs[0] == ",".join(RUN_CSV_COLUMNS)
    assert len(runs) == 5
    # rows appear in product order and agree with direct runs
    for line, (dl, seed) in zip(runs[1:], [(6.0, 4), (6.0, 5),
                                           (8.0, 4), (8.0, 5)]):
        cells = line.split(",")
        assert float(cells[2]) == dl
        assert int(cells[4]) == seed
        direct = Simulation(small_scenario(deadline_ms=dl, seed=seed)).run()[1]
        assert cells[6] == ("" if direct.pdr is None else repr(direct.pdr))

    agg = agg_path.read_text().splitlines()
    assert agg[0] == ",".join(AGGREGATE_CSV_COLUMNS)
    assert len(agg) == 3                       # one group per deadline
    assert "incomplete" not in runs_path.read_text()


def test_sweep_parallel_results_match_serial(tmp_path):
    base = small_scenario()
    axes = [("deadline_ms", ["6", "8"])]
    serial, _, _ = run_sweep(base, axes, [4, 5], tmp_path / "serial", jobs=1)
    parallel, _, _ = run_sweep(base, axes, [4, 5], tmp_path / "par", jobs=2)
    assert serial.read_text() == parallel.read_text()


def test_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    started = []

    class InlinePool:
        """Records its size and runs each task at once, in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    runs_path, _, failures = run_sweep(
        small_scenario(), [("deadline_ms", ["6"])], [4, 5], tmp_path / "out",
        jobs=8)
    assert started == [2] and not failures
    assert len(runs_path.read_text().splitlines()) == 3


def test_swept_cell_with_a_comma_is_quoted(tmp_path):
    runs_path, agg_path, _ = run_sweep(
        small_scenario(), [("sink_pos", ["0,0", "10,20"])], [4],
        tmp_path / "out")
    with open(runs_path) as fh:
        runs = list(csv.reader(fh))
    assert runs[0][5] == "sink_pos"
    assert [row[5] for row in runs[1:]] == ["0.0,0.0", "10.0,20.0"]
    with open(agg_path) as fh:
        assert [row[4] for row in csv.reader(fh)] == [
            "sink_pos", "0.0,0.0", "10.0,20.0"]


def test_swept_cells_parse_back_to_their_points(tmp_path):
    axes = [("cbr_sources", ["auto", "3"]), ("cbr_stop_s", ["none", "4"]),
            ("sink_pos", ["0,0", "10,20"])]
    base = small_scenario()
    runs_path, _, _ = run_sweep(base, axes, [4], tmp_path / "out")
    with open(runs_path) as fh:
        runs = list(csv.reader(fh))
    points = expand_sweep(base, axes, [4])
    assert runs[0][5:8] == ["cbr_sources", "cbr_stop_s", "sink_pos"]
    assert len(runs) - 1 == len(points) == 8
    assert [row[5:7] for row in runs[1::2]] == [
        ["auto", "none"], ["auto", "4.0"], ["3", "none"], ["3", "4.0"]]
    for row, point in zip(runs[1:], points):
        for col, key in enumerate(runs[0][5:8], start=5):
            parsed = Scenario()
            apply_setting(parsed, key, row[col])
            assert getattr(parsed, key) == getattr(point, key)


def test_failed_points_leave_a_marker_and_partial_rows(tmp_path, monkeypatch):
    real = experiments._run_point

    def flaky(scenario):
        if scenario.seed == 5:
            raise RuntimeError("synthetic failure")
        return real(scenario)

    monkeypatch.setattr(experiments, "_run_point", flaky)
    runs_path, agg_path, failures = run_sweep(
        small_scenario(), [("deadline_ms", ["6"])], [4, 5, 6],
        tmp_path / "out")
    assert len(failures) == 1
    assert failures[0][0].seed == 5
    text = runs_path.read_text()
    lines = text.splitlines()
    assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2
    assert lines[-1] == "# incomplete: 1 of 3 runs failed"
    assert "# incomplete" in agg_path.read_text()
