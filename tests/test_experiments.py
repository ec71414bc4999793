"""Experiment driver tests: sweeps, CSV outputs, and trace replay."""

import csv
import multiprocessing
import os
import signal
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import dartsim.experiments as experiments
from dartsim.experiments import (expand_sweep, replay_trace, run_scenario,
                                 run_sweep)
from dartsim.metrics import (AGGREGATE_CSV_COLUMNS, CBR_EMIT, DROP,
                             METRIC_SNAPSHOT, PACKET_ARRIVAL, RUN_CSV_COLUMNS,
                             detail_fields, format_run_row, read_trace)
from dartsim.scenario import Scenario, ScenarioError, apply_setting
from dartsim.simkernel import Simulation
from corpus import scenario


def small_scenario(**settings):
    return scenario(**{"nodes": 8, "sim_time": 10.0, "seed": 1, **settings})


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


# Written by this scenario with snapshot_period_s = 1, when runs still
# wrote a METRIC_SNAPSHOT record every period.
SNAPSHOTS_V1 = Path(__file__).parent / "data" / "snapshots-v1.trace"
SNAPSHOTS_V1_SETTINGS = dict(nodes=6, sim_time=6.0, seed=5, area_width=250.0,
                             area_height=250.0, loss=0.2, interval_s=0.5)


def test_a_trace_with_snapshots_replays_and_they_restate_its_records(
        tmp_path):
    """Each snapshot's three counts are those of the CBR_EMIT,
    PACKET_ARRIVAL and DROP records before it, and the rest of the file
    is what the same run writes today."""
    trace = tmp_path / "run.trace"
    meta, _, metrics = run_scenario(small_scenario(**SNAPSHOTS_V1_SETTINGS),
                                    trace_path=trace)
    assert replay_trace(SNAPSHOTS_V1)[3] == format_run_row(meta, metrics)
    lines = SNAPSHOTS_V1.read_bytes().splitlines(keepends=True)
    assert b"".join(line for line in lines
                    if b",METRIC_SNAPSHOT," not in line) == trace.read_bytes()
    seen, snapshots = Counter(), 0
    for rec in read_trace(SNAPSHOTS_V1)[1]:
        if rec.kind == METRIC_SNAPSHOT:
            snapshots += 1
            assert detail_fields(rec.detail) == {
                "emitted": str(seen[CBR_EMIT]),
                "arrived": str(seen[PACKET_ARRIVAL]),
                "dropped": str(seen[DROP])}
        seen[rec.kind] += 1
    assert snapshots == 6


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


@pytest.mark.parametrize("axes, seeds, jobs, message", [
    ([("seed", ["1", "2"])], [1], 1, "--axis seed"),
    ([("loss", ["0.1"]), ("loss", ["0.3"])], [1], 1,
     "--axis loss is given more"),
    ([("sink_pos", ["0,0", "0.0, 0"])], [1], 1,
     "--axis sink_pos lists the value"),
    # unchecked, these two wrote header-only CSVs and jobs < 1 ran serially
    ([("loss", [])], [1], 1, "--axis loss has no values$"),
    ([("loss", ["0.1"])], [], 1, "--seeds expects at least one seed$"),
    ([("loss", ["0.1"])], [1], 0, "--jobs must be at least 1, got 0$"),
], ids=["seed-axis", "repeated-key", "repeated-value", "empty-axis",
        "no-seeds", "jobs-0"])
def test_run_sweep_rejects_axes_that_drop_or_repeat_points(axes, seeds, jobs,
                                                            message, tmp_path):
    with pytest.raises(ScenarioError, match=message):
        run_sweep(small_scenario(), axes, seeds, tmp_path / "out", jobs=jobs)
    assert not (tmp_path / "out").exists()


def test_run_sweep_rejects_a_repeated_seed(tmp_path):
    # unchecked, the same run is written twice and its std reads 0.0
    with pytest.raises(ScenarioError,
                       match="--seeds lists the seed 1 more than once"):
        run_sweep(Scenario(nodes=10, sim_time=5.0),
                  [("deadline_ms", ["6"])], [1, 1], tmp_path / "out")
    assert not (tmp_path / "out").exists()


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


# run_points forks its children on Linux alone, and only forked children
# see what a test patches
forked = pytest.mark.skipif(sys.platform != "linux",
                            reason="children are not forked here")


@pytest.fixture
def started(monkeypatch):
    """Logs each process start as (start method, threads alive then),
    with spawn as the default start method: a platform default that is
    not fork, as forkserver is on Linux from CPython 3.14."""
    log = []
    real = multiprocessing.process.BaseProcess.start

    def start(process):
        log.append((process._start_method, threading.active_count()))
        real(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    yield log
    multiprocessing.set_start_method(default, force=True)


def test_sweep_starts_no_more_workers_than_points(
        tmp_path, monkeypatch, started):
    """The caller runs points too, so it counts toward the cap."""
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})    # three usable CPUs
    runs_path, _, failures = run_sweep(
        small_scenario(), [("deadline_ms", ["6"])], [4, 5], tmp_path / "out",
        jobs=8)
    assert len(started) == 1 and not failures     # 2 points: one child
    assert len(runs_path.read_text().splitlines()) == 3
    # more points than CPUs: the CPUs cap the processes, not jobs or points
    runs_path, _, failures = run_sweep(
        small_scenario(), [("deadline_ms", ["6", "8"])], [4, 5],
        tmp_path / "cpus", jobs=8)
    assert len(started) == 3 and not failures     # 3 CPUs: two children
    assert len(runs_path.read_text().splitlines()) == 5
    _, _, failures = run_sweep(small_scenario(), [("deadline_ms", ["6"])],
                               [4, 5], tmp_path / "one", jobs=1)
    assert len(started) == 3 and not failures     # one job: no child
    # no other thread is alive when a child starts, so its fork() is safe,
    # and on Linux the start method is fork whatever the default is
    method = "fork" if sys.platform == "linux" else None
    assert all(threads == 1 for _, threads in started)
    assert all(how == (method or how) for how, _ in started)
    assert multiprocessing.active_children() == []


def test_points_are_claimed_longest_first(tmp_path, monkeypatch):
    """Seen in-process at one job; runs.csv keeps point order."""
    real, claimed = experiments._run_point, []

    def logged(scenario):
        claimed.append((scenario.nodes, scenario.seed))
        return real(scenario)

    monkeypatch.setattr(experiments, "_run_point", logged)
    runs_path, _, failures = run_sweep(
        small_scenario(), [("nodes", ["8", "12"])], [4, 5],
        tmp_path / "nodes", jobs=1)
    assert not failures
    assert claimed == [(12, 4), (12, 5), (8, 4), (8, 5)]
    with open(runs_path) as fh:
        assert [(row["nodes"], row["seed"]) for row in csv.DictReader(fh)] == [
            ("8", "4"), ("8", "5"), ("12", "4"), ("12", "5")]


@forked
def test_a_raising_point_comes_back_in_its_own_slot(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})
    real = experiments._run_point

    def flaky(scenario):
        if scenario.nodes == 12 and scenario.seed == 5:
            raise RuntimeError("synthetic failure")
        return real(scenario)

    monkeypatch.setattr(experiments, "_run_point", flaky)
    points = expand_sweep(small_scenario(), [("nodes", ["8", "12"])], [4, 5])
    results = experiments.run_points(points, jobs=8)
    assert [type(r).__name__ for r in results] == [
        "RunMetrics", "RunMetrics", "RunMetrics", "RuntimeError"]
    assert results[:3] == [run_scenario(point)[2] for point in points[:3]]
    _, _, failures = run_sweep(small_scenario(), [("nodes", ["8", "12"])],
                               [4, 5], tmp_path / "flaky", jobs=8)
    assert [(p.nodes, p.seed, str(e)) for p, e in failures] == [
        (12, 5, "synthetic failure")]
    assert multiprocessing.active_children() == []


def test_sweep_without_sched_getaffinity_counts_cpus(tmp_path, monkeypatch,
                                                     started):
    """Where os has no sched_getaffinity (macOS, Windows), os.cpu_count()
    caps the processes, and one job starts no child."""
    monkeypatch.delattr(experiments.os, "sched_getaffinity")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    axes = [("deadline_ms", ["6", "8"])]
    _, _, failures = run_sweep(small_scenario(), axes, [4, 5],
                               tmp_path / "serial", jobs=1)
    assert started == [] and not failures
    runs_path, _, failures = run_sweep(small_scenario(), axes, [4, 5],
                                       tmp_path / "pool", jobs=8)
    assert len(started) == 2 and not failures   # and the caller: three
    assert len(runs_path.read_text().splitlines()) == 5
    # an unknown CPU count means one CPU
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    run_sweep(small_scenario(), axes, [4, 5], tmp_path / "none", jobs=8)
    assert len(started) == 2
    assert multiprocessing.active_children() == []


def wait_for_children():
    """Block until every child has exited (at most 60 s)."""
    deadline = time.monotonic() + 60
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def six_points(monkeypatch):
    """Six small points, with three usable CPUs whatever the host has."""
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})
    return expand_sweep(small_scenario(), [("nodes", ["8", "12"])],
                        [4, 5, 6])


@forked
def test_a_child_that_dies_loses_only_its_unreported_points(monkeypatch):
    """The child runs one point, then exits on claiming its second; the
    caller's first point waits until it has gone.  Both of the child's
    points come back naming its exit code, and every other point runs."""
    points = six_points(monkeypatch)
    caller, real = os.getpid(), experiments._run_point
    calls = []

    def dying(scenario):
        calls.append(scenario)
        if os.getpid() != caller and len(calls) == 2:
            os._exit(3)
        if os.getpid() == caller and len(calls) == 1:
            wait_for_children()
        return real(scenario)

    monkeypatch.setattr(experiments, "_run_point", dying)
    results = experiments.run_points(points, jobs=2)
    lost = [r for r in results if isinstance(r, Exception)]
    assert len(lost) == 2, results
    assert all(isinstance(r, RuntimeError) and "code 3" in str(r)
               for r in lost), lost
    assert [r for r in results if r not in lost] == [
        run_scenario(point)[2] for point, r in zip(points, results)
        if r not in lost]
    assert multiprocessing.active_children() == []


class Unpicklable(Exception):
    """An exception that holds a lambda, so pickle refuses it."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


@forked
def test_an_exception_that_will_not_pickle_comes_back_in_its_own_slot(
        monkeypatch):
    """The caller runs one point and waits; the child takes the other
    five, and each raises an exception its pipe cannot carry."""
    points = six_points(monkeypatch)
    caller, real = os.getpid(), experiments._run_point

    def raising(scenario):
        if os.getpid() == caller:
            wait_for_children()
            return real(scenario)
        raise Unpicklable(f"point {scenario.nodes}/{scenario.seed}")

    monkeypatch.setattr(experiments, "_run_point", raising)
    results = experiments.run_points(points, jobs=2)
    assert [type(r).__name__ for r in results].count("RunMetrics") == 1
    for point, result in zip(points, results):
        if isinstance(result, Exception):
            assert type(result) is RuntimeError
            assert str(result) == (f"Unpicklable: point {point.nodes}/"
                                   f"{point.seed}")
    assert multiprocessing.active_children() == []


@forked
def test_every_point_is_claimed_once_by_more_processes_than_cores(
        monkeypatch):
    """Six processes on whatever cores the host has race for 100,000
    instant points; a claim lost between reading and bumping the counter
    would run a point twice."""
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: set(range(6)))
    runs = multiprocessing.get_context("fork").Value("l", 0)

    def counted(scenario):
        with runs.get_lock():
            runs.value += 1
        return scenario

    monkeypatch.setattr(experiments, "_run_point", counted)
    points = [small_scenario(seed=seed) for seed in range(4)] * 25_000
    began = time.monotonic()
    assert experiments.run_points(points, jobs=6) == points
    assert time.monotonic() - began < 60
    assert runs.value == len(points)
    assert multiprocessing.active_children() == []


@forked
def test_an_interrupt_in_the_callers_share_kills_the_children(monkeypatch):
    points, caller = six_points(monkeypatch), os.getpid()

    def interrupted(scenario):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)          # a child left running outlives the test

    monkeypatch.setattr(experiments, "_run_point", interrupted)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        experiments.run_points(points, jobs=3)
    assert time.monotonic() - began < 30
    assert multiprocessing.active_children() == []


@forked
def test_a_child_leaves_ctrl_c_to_the_caller(monkeypatch):
    """Ctrl-C reaches every process in the group.  A child ignores it, so
    it prints no traceback of its own; the caller's interrupt kills it."""
    points, caller = six_points(monkeypatch), os.getpid()
    own = signal.getsignal(signal.SIGINT)

    def handler(scenario):
        if os.getpid() == caller:
            wait_for_children()
        return os.getpid() == caller, signal.getsignal(signal.SIGINT)

    monkeypatch.setattr(experiments, "_run_point", handler)
    results = experiments.run_points(points, jobs=2)
    assert Counter(results) == {(True, own): 1, (False, signal.SIG_IGN): 5}
    assert signal.getsignal(signal.SIGINT) is own


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
