"""Experiment drivers: single runs, seeded sweeps, and trace replay.

A sweep is the cartesian product of axis value lists applied to a base
scenario, each point run once per seed.  Results land in two CSV files:
runs.csv with one row per (point, seed) and aggregate.csv with the
per-point mean and standard deviation across seeds.  Each swept key
that the run meta does not name gets a column of its own in both files,
right after the meta columns, so its points stay apart.  If any run fails,
the completed rows are still written, a trailing `# incomplete` marker
is appended, and the failures are reported to the caller.
"""

from __future__ import annotations

import copy
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .metrics import (AGGREGATE_CSV_COLUMNS, GROUP_KEY_COLUMNS,
                      RUN_CSV_COLUMNS, RUN_META, aggregate_runs,
                      compute_run_metrics, format_aggregate_row,
                      format_run_row, read_trace, run_meta, write_trace)
from .scenario import apply_setting, format_setting, validate
from .simkernel import Simulation


def run_scenario(scenario, trace_path=None):
    """Run one scenario; returns (meta, records, metrics).

    When trace_path is given the full event trace is written there,
    ready for later replay.
    """
    sim = Simulation(scenario)
    records, metrics = sim.run()
    meta = run_meta(scenario)
    if trace_path is not None:
        write_trace(trace_path, meta, records)
    return meta, records, metrics


def _run_point(scenario):
    """Sweep worker: run one point and return only the compact results."""
    sim = Simulation(scenario)
    _, metrics = sim.run()
    return run_meta(scenario), metrics


def expand_sweep(base, axes, seeds):
    """All scenario points of a sweep, seeds varying fastest.

    axes is a list of (key, [raw textual values]); values are applied
    through the normal scenario parser, so sweeping any settable key
    works.  Every point is validated before anything runs.
    """
    points = [copy.deepcopy(base)]
    for key, raws in axes:
        grown = []
        for point in points:
            for raw in raws:
                child = copy.deepcopy(point)
                apply_setting(child, key, raw)
                grown.append(child)
        points = grown
    out = []
    for point in points:
        for seed in seeds:
            child = copy.deepcopy(point)
            child.seed = seed
            validate(child)
            out.append(child)
    return out


def _swept_cell(point, key) -> str:
    """A swept setting in the scenario grammar, quoted if it holds a comma."""
    text = format_setting(key, getattr(point, key))
    return f'"{text}"' if "," in text else text


def run_sweep(base, axes, seeds, out_dir, jobs=1):
    """Run a sweep and write runs.csv and aggregate.csv under out_dir.

    Returns (runs_path, aggregate_path, failures) where failures is a
    list of (scenario, exception) for points that did not finish.
    """
    points = expand_sweep(base, axes, seeds)
    results = [None] * len(points)
    failures = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            futures = [pool.submit(_run_point, p) for p in points]
            for idx, fut in enumerate(futures):
                try:
                    results[idx] = fut.result()
                except Exception as exc:
                    failures.append((points[idx], exc))
    else:
        for idx, point in enumerate(points):
            try:
                results[idx] = _run_point(point)
            except Exception as exc:
                failures.append((point, exc))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / "runs.csv"
    agg_path = out / "aggregate.csv"
    marker = f"# incomplete: {len(failures)} of {len(points)} runs failed"

    swept = [key for key in dict.fromkeys(key for key, _ in axes)
             if key not in RUN_META]
    cut, group_cut = len(RUN_META), len(GROUP_KEY_COLUMNS)
    grouped = []
    with open(runs_path, "w") as fh:
        fh.write(",".join(RUN_CSV_COLUMNS[:cut] + swept
                          + RUN_CSV_COLUMNS[cut:]) + "\n")
        for point, result in zip(points, results):
            if result is None:
                continue
            meta, metrics = result
            cells = [_swept_cell(point, key) for key in swept]
            row = format_run_row(meta, metrics)
            fh.write(",".join(row[:cut] + cells + row[cut:]) + "\n")
            key = tuple(meta[k] for k in GROUP_KEY_COLUMNS) + tuple(cells)
            grouped.append((key, metrics))
        if failures:
            fh.write(marker + "\n")

    with open(agg_path, "w") as fh:
        fh.write(",".join(GROUP_KEY_COLUMNS + swept
                          + AGGREGATE_CSV_COLUMNS[group_cut:]) + "\n")
        for key, metrics in aggregate_runs(grouped):
            fh.write(",".join(format_aggregate_row(key, metrics)) + "\n")
        if failures:
            fh.write(marker + "\n")

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
