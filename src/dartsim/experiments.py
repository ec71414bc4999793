"""Experiment drivers: single runs, point batches, sweeps and replay.

A sweep is the cartesian product of axis value lists applied to a base
scenario, each point run once per seed.  Results land in two CSV files:
runs.csv with one row per (point, seed) and aggregate.csv with the
per-point mean and standard deviation across seeds.  Each swept key
that the run meta does not name gets a column of its own in both files,
right after the meta columns, so its points stay apart.  If any run
fails, the other rows are still written, both files end with an
`# incomplete` marker, and the failures go back to the caller.
"""

from __future__ import annotations

import copy
import csv
import itertools
import multiprocessing
import os
import pickle
import signal
import sys
from contextlib import suppress
from pathlib import Path

from .metrics import (AGGREGATE_CSV_COLUMNS, RUN_CSV_COLUMNS, RUN_META,
                      aggregate_runs, compute_run_metrics, format_run_row,
                      read_trace, run_meta, write_trace)
from .scenario import ScenarioError, apply_setting, format_setting, validate
from .simkernel import Simulation


def _check_writable(path):
    """Raise a ScenarioError if path cannot be written; make no file."""
    try:
        created = not os.path.lexists(path)
        open(path, "a").close()
        if created:
            os.remove(path)
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc.strerror}") from None


def run_scenario(scenario, trace_path=None):
    """Run one scenario; returns (meta, records, metrics).

    When trace_path is given the full trace is written there once the run
    is done; a path it cannot open is a ScenarioError before the run.
    """
    if trace_path is not None:
        _check_writable(trace_path)
    sim = Simulation(scenario)
    records, metrics = sim.run()
    meta = run_meta(scenario)
    if trace_path is not None:
        write_trace(trace_path, meta, records)
    return meta, records, metrics


def _run_point(scenario):
    """Batch worker: run one point and return only its RunMetrics."""
    return run_scenario(scenario)[2]


def _claims(points, order, claimed, owners, conn=None):
    """Run points claimed in order from the shared counter until none is
    left; return the (index, result) pairs, or send them on a child's
    conn.  An exception that would not pickle becomes a RuntimeError."""
    if conn:        # a child leaves Ctrl-C to the caller, which kills it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    done = []
    while True:
        with claimed.get_lock():
            k = claimed.value
            claimed.value = k + 1
        if k >= len(order):
            return conn.send(done) if conn else done
        owners[order[k]] = os.getpid()
        try:
            done.append((order[k], _run_point(points[order[k]])))
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            done.append((order[k], exc))


def run_points(points, jobs=1):
    """Run scenario points; one result per point, in point order: its
    RunMetrics or the exception it raised.  This process and up to jobs
    - 1 forked children, no more in all than points or usable CPUs,
    claim the longest (nodes x sim_time) first.  The points a child
    took and did not report are RuntimeErrors naming its exit code."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    ctx = multiprocessing.get_context("fork" if sys.platform == "linux"
                                      else None)
    order = sorted(range(len(points)),
                   key=lambda i: -points[i].nodes * points[i].sim_time)
    claimed = ctx.Value("l", 0)
    owners = ctx.Array("l", len(points), lock=False)
    args, children = (points, order, claimed, owners), []
    try:    # no thread runs here, so each fork is safe
        for _ in range(min(jobs, len(points), cpus) - 1):
            conn, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_claims, args=(*args, send))
            child.start()
            send.close()
            children.append((child, conn))
        results = dict(_claims(*args))
        for child, conn in children:
            with conn, suppress(EOFError):  # EOF: it died unreported
                results.update(conn.recv())
            child.join()
    finally:
        for child, _ in children:
            child.kill()                # a no-op on one already joined
            child.join()
    codes = {child.pid: child.exitcode for child, _ in children}
    return [results[i] if i in results else RuntimeError(
                f"the worker process running it exited with code "
                f"{codes[owners[i]]}") for i in range(len(points))]


def expand_sweep(base, axes, seeds):
    """All scenario points of a sweep, seeds varying fastest.

    axes is a list of (key, [raw textual values]); values are applied
    through the normal scenario parser, so sweeping any settable key
    works.  Every point is validated before anything runs.  No seeds, an
    axis with no values, a seed listed twice, a seed axis, a key given
    twice, or a value listed twice in one axis (compared after parsing)
    is a ScenarioError: it would drop or repeat points.
    """
    if not seeds:
        raise ScenarioError("--seeds expects at least one seed")
    for n, seed in enumerate(seeds):
        if seed in seeds[:n]:
            raise ScenarioError(f"--seeds lists the seed {seed} more "
                                f"than once")
    probe, parsed = copy.deepcopy(base), []
    for n, (key, raws) in enumerate(axes):
        if not raws:
            raise ScenarioError(f"--axis {key} has no values")
        if key == "seed":
            raise ScenarioError("--axis seed would be overwritten by each "
                                "point's seed; list the seeds in --seeds")
        if any(key == seen for seen, _ in axes[:n]):
            raise ScenarioError(f"--axis {key} is given more than once")
        values = []
        for raw in raws:
            apply_setting(probe, key, raw)
            if getattr(probe, key) in values:
                raise ScenarioError(f"--axis {key} lists the value "
                                    f"{raw} more than once")
            values.append(getattr(probe, key))
        parsed.append([(key, value) for value in values])
    out = []
    for settings in itertools.product(*parsed, [("seed", s) for s in seeds]):
        for key, value in settings:
            setattr(probe, key, value)
        point = copy.deepcopy(probe)    # no two points share a list value
        validate(point)
        out.append(point)
    return out


def run_sweep(base, axes, seeds, out_dir, jobs=1):
    """Run a sweep and write runs.csv and aggregate.csv under out_dir.

    run_points runs the points with jobs.  Bad input (see expand_sweep,
    or jobs < 1) is a ScenarioError before out_dir is made, and an
    out_dir or CSV path that cannot be written is one before any run.

    Returns (runs_path, aggregate_path, failures) where failures is a
    list of (scenario, exception) for points that did not finish.
    """
    if jobs < 1:
        raise ScenarioError(f"--jobs must be at least 1, got {jobs}")
    points = expand_sweep(base, axes, seeds)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot make {out}: {exc.strerror}") from None
    runs_path = out / "runs.csv"
    agg_path = out / "aggregate.csv"
    for path in (runs_path, agg_path):
        _check_writable(path)
    results = run_points(points, jobs)
    failures = [(point, result) for point, result in zip(points, results)
                if isinstance(result, Exception)]

    swept = [key for key, _ in axes if key not in RUN_META]
    n = len(RUN_META)                   # the meta columns, the seed last
    runs = [RUN_CSV_COLUMNS[:n] + swept + RUN_CSV_COLUMNS[n:]]
    grouped = []
    for point, metrics in zip(points, results):
        if not isinstance(metrics, Exception):
            row = format_run_row(run_meta(point), metrics)
            # swept settings in the scenario grammar, after the meta
            row[n:n] = [format_setting(key, getattr(point, key))
                        for key in swept]
            runs.append(row)
            # a group is the cells before the metrics but the seed
            grouped.append((row[:n - 1] + row[n:n + len(swept)], metrics))
    aggregate = [AGGREGATE_CSV_COLUMNS[:n - 1] + swept
                 + AGGREGATE_CSV_COLUMNS[n - 1:]]
    aggregate += aggregate_runs(grouped)
    for path, rows in ((runs_path, runs), (agg_path, aggregate)):
        with open(path, "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(rows)
            if failures:
                writer.writerow([f"# incomplete: {len(failures)} of "
                                 f"{len(points)} runs failed"])
    return runs_path, agg_path, failures


def replay_trace(path):
    """Recompute a run's metrics row from its trace file.

    Returns (meta, records, metrics, row).  The row is byte-identical
    to the one the original run produced, since traces serialize floats
    exactly.
    """
    meta, records = read_trace(path)
    metrics = compute_run_metrics(records)
    row = format_run_row(meta, metrics)
    return meta, records, metrics, row
