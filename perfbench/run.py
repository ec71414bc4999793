"""dartsim benchmark: batch workloads driven through the public API.

    python3 perfbench/run.py --workload control-dense --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  Each workload is a base scenario file plus sweep axes; --seed
draws the scenario seeds, so the simulator only ever sees the generated
Scenario objects.  Runs are a closed loop: each scenario run starts
when the previous one ends, and only run_sweep keeps `jobs` (the CPUs
this process may use) runs in flight.

--trace 0 prints the end-to-end metrics and --trace 1 the per-layer
metrics of a separately traced run.  Every run is checked outside the
timed regions (see gate.py).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import heapq
import importlib
import json
import logging
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One batch shape.  The reasons for each choice are in README.md."""

    scenario_file: str      # base scenario, in the scenario file grammar
    axes: tuple             # sweep axes: ((key, (raw value, ...)), ...)
    seeds: int              # scenario seeds drawn from the workload seed
    sweep_share: float      # share of the measured time given to run_sweep
    overrides: tuple = ()   # (key, raw value) pairs applied after the file


WORKLOADS = {
    "control-dense": Workload("control-dense.scn", (), 16, 0.45),
    "data-heavy": Workload("data-heavy.scn", (), 12, 0.35),
    "sweep-small": Workload(
        "sweep-small.scn", (("deadline_ms", ("6", "8")),), 40, 0.5),
}
SETUP_SAMPLES = 9
# median reference_loop() time on a 2-vCPU Xeon with Python 3.11 (README.md)
REFERENCE_S = 0.008


def point_seeds(seed, count):
    """Scenario seeds for one workload seed; same seed, same list."""
    return random.Random(seed).sample(range(1, 1_000_000), count)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_dartsim():
    """Import dartsim from src/, executing its modules afresh."""
    for name in [m for m in sys.modules
                 if m == "dartsim" or m.startswith("dartsim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dartsim")
    if Path(pkg.__file__).resolve().parent != SRC / "dartsim":
        raise ImportError(f"dartsim was imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return pkg


class Bench:
    """One workload at one seed: set-up, timed loops, checks, report."""

    def __init__(self, name, workload, seed, seconds, workdir):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.jobs = cpu_count()
        self.seeds = point_seeds(seed, workload.seeds)
        self.axes = [(key, list(raws)) for key, raws in workload.axes]
        self.attempted = 0
        self.failures = []          # one line per failed operation
        self.digests = {}           # point index -> sha256 of trace + row
        self.rows = {}              # point index -> in-process CSV row
        self.counts = {}            # point index -> gate.simulated_counts
        self.metrics = {}           # point index -> RunMetrics
        self.notes = []             # report lines printed before the metrics

    # -- set-up ---------------------------------------------------------

    def load(self, ds):
        """The workload's scenario points, built and validated."""
        base = ds.scenario.load_scenario(
            HERE / "workloads" / self.workload.scenario_file,
            list(self.workload.overrides))
        return base, ds.experiments.expand_sweep(base, self.axes, self.seeds)

    def setup_once(self):
        """Everything before the first event; returns (seconds, ds, base, points)."""
        t0 = perf_counter()
        ds = import_dartsim()
        base, points = self.load(ds)
        for point in points:
            ds.simkernel.Simulation(point)
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            for fut in [pool.submit(os.getpid) for _ in range(self.jobs)]:
                fut.result()
            elapsed = perf_counter() - t0
        finally:
            pool.shutdown()
        return elapsed, ds, base, points

    # -- one run ----------------------------------------------------------

    def run_point(self, ds, idx, point, tracer=None):
        """Run one point, round-trip its trace and check it.

        Returns (run seconds, trace round-trip seconds, records) or None
        when the run failed.
        """
        self.attempted += 1
        path = self.workdir / f"point{idx}.trace"
        try:
            if tracer is not None:
                tracer.install(layers.RUN_HOOKS)
            try:
                sim = ds.simkernel.Simulation(point)
                if tracer is not None:
                    tracer.attach(sim)
                t0 = perf_counter()
                records, metrics = sim.run()
                t1 = perf_counter()
                meta = ds.metrics.run_meta(point)
                ds.metrics.write_trace(path, meta, records)
                replayed = ds.experiments.replay_trace(path)
                t2 = perf_counter()
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems = gate.check_run(meta, records, metrics, replayed,
                                      point.sink)
        except Exception as exc:        # a failed run is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if not problems:
            row = ds.metrics.format_run_row(meta, metrics)
            digest = hashlib.sha256(path.read_bytes())
            digest.update((",".join(row) + "\n").encode())
            digest = digest.hexdigest()
            if idx not in self.digests:
                self.digests[idx] = digest
                self.rows[idx] = row
                self.counts[idx] = gate.simulated_counts(records)
                self.metrics[idx] = metrics
            elif digest != self.digests[idx]:
                problems = ["trace or row differs from the earlier run of "
                            "the same scenario"]
        if problems:
            self.failures.append(f"point {idx} (seed {point.seed}): "
                                 + "; ".join(problems[:3]))
            return None
        return t1 - t0, t2 - t1, records

    def sweep(self, ds, base, seeds):
        """One run_sweep over the points of some seeds.

        Returns (points finished, seconds, (seeds, runs.csv rows)).
        """
        t0 = perf_counter()
        runs_path, _, failures = ds.experiments.run_sweep(
            base, self.axes, seeds, self.workdir / "sweep", jobs=self.jobs)
        elapsed = perf_counter() - t0
        npoints = len(seeds) * math.prod(len(raws) for _, raws in self.axes)
        self.attempted += npoints
        for point, exc in failures:
            self.failures.append(f"sweep point seed {point.seed}: {exc!r}")
        rows = [line.split(",") for line in runs_path.read_text().splitlines()[1:]
                if not line.startswith("#")]
        return npoints - len(failures), elapsed, (seeds, rows)

    def check_sweep_rows(self, points, sweeps):
        """Each sweep's runs.csv rows must equal the in-process rows."""
        for n, (seeds, rows) in enumerate(sweeps):
            expected = [self.rows.get(idx) for idx, point in enumerate(points)
                        if point.seed in seeds]
            if rows != expected:
                self.failures.append(f"sweep {n}: runs.csv rows differ from "
                                     f"the in-process rows")

    # -- modes ------------------------------------------------------------

    def measure(self):
        """--trace 0: the end-to-end metrics with tracing off.

        Every timed sample follows one reference_loop(); host times are
        reported in reference seconds (see steady()).
        """
        setups = []
        for _ in range(SETUP_SAMPLES):
            ref = reference_loop()
            elapsed, ds, base, points = self.setup_once()
            setups.append((elapsed, ref))
        # Sweeps of 2 * jobs seeds each, cycling through the seeds: many
        # short sweeps average the machine's drift better than a few long.
        step = 2 * self.jobs
        chunks = [self.seeds[i:i + step] for i in range(0, len(self.seeds), step)]
        start = perf_counter()
        sweeps, sweep_rows = [], []     # (points finished, seconds, ref)
        while (not sweeps or perf_counter() - start
               < self.seconds * self.workload.sweep_share):
            before = parallel_reference_loop(self.jobs)
            done, elapsed, rows = self.sweep(
                ds, base, chunks[len(sweeps) % len(chunks)])
            ref = (before + parallel_reference_loop(self.jobs)) / 2
            sweeps.append((done, elapsed, ref))
            sweep_rows.append(rows)
        runs = []                       # (run s, round-trip s, events, ref)
        first_cycle = True
        while first_cycle or perf_counter() - start < self.seconds:
            for idx, point in enumerate(points):
                if not first_cycle and perf_counter() - start >= self.seconds:
                    break
                ref = reference_loop()
                result = self.run_point(ds, idx, point)
                if result is not None:
                    runs.append((result[0], result[1],
                                 self.counts[idx]["events"], ref))
            first_cycle = False
        self.check_sweep_rows(points, sweep_rows)

        refs = [r for *_, r in setups + sweeps + runs]
        self.notes.append(
            f"reference_loop median {statistics.median(refs) * 1e3:.3f} ms "
            f"over {len(refs)} samples; unscaled: set-up median "
            f"{statistics.median(e for e, _ in setups):.6g} s, run median "
            f"{_median([t for t, *_ in runs]):.6g} s, sweep "
            f"{sum(n for n, _, _ in sweeps) / sum(e for _, e, _ in sweeps):.6g}"
            " runs/s")
        per_run = f"median of {len(runs)} runs over {len(points)} points"
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "setup_s": (statistics.median(steady(e, r) for e, r in setups),
                        f"median of {len(setups)} set-ups"),
            "run_s": (_median([steady(t, r) for t, _, _, r in runs]), per_run),
            "events_per_s": (_median([e / steady(t, r)
                                      for t, _, e, r in runs]), per_run),
            "trace_roundtrip_s": (_median([steady(t, r)
                                           for _, t, _, r in runs]), per_run),
            "sweep_runs_per_s": (
                sum(n for n, _, _ in sweeps)
                / sum(steady(e, r) for _, e, r in sweeps),
                f"{len(sweeps)} sweeps of up to {step} seeds' points, "
                f"jobs={self.jobs}"),
            "peak_rss_mb": (rss_kb / 1024.0,
                            "max of this process and its sweep workers"),
        }
        values.update(self.modelled())
        return values

    def modelled(self):
        """Simulated outcomes pooled over the distinct points."""
        ms = list(self.metrics.values())
        sent = sum(m.sent_events for m in ms)
        received = sum(m.received_events for m in ms)
        missed = sum(round(m.deadline_miss_ratio * m.sent_events)
                     for m in ms if m.sent_events)
        delay = sum(m.avg_e2e_delay * m.received_events
                    for m in ms if m.received_events)
        pooled = f"pooled over {len(ms)} points"
        return {
            "pdr": (received / sent if sent else 0.0,
                    f"{received} of {sent} events delivered, {pooled}"),
            "deadline_miss_ratio": (missed / sent if sent else 0.0,
                                    f"{missed} of {sent} events, {pooled}"),
            "avg_e2e_delay_ms": (1000.0 * delay / received if received else 0.0,
                                 f"first copies of {received} events, {pooled}"),
        }

    def traced(self, spans_path):
        """--trace 1: per-layer metrics, and the tracing overhead.

        Each point runs untraced and then traced, for as many whole
        passes over the points as fit in the time (at least one).
        Per-run values are per pass.
        """
        tracer = layers.Tracer()
        ds = import_dartsim()
        tracer.install(layers.BATCH_HOOKS)
        try:
            base, points = self.load(ds)
            done, _, rows = self.sweep(ds, base, self.seeds)
        finally:
            tracer.uninstall()
        batch_secs = dict(tracer.secs)
        start = perf_counter()
        plain = traced = 0.0
        passes = records = trace_bytes = probed = applied = 0
        while passes == 0 or (perf_counter() - start) * (passes + 1) / passes \
                <= self.seconds:
            for idx, point in enumerate(points):
                untraced = self.run_point(ds, idx, point)
                result = self.run_point(ds, idx, point, tracer)
                if untraced is None or result is None:
                    continue
                plain += untraced[0]
                traced += result[0]
                records += len(result[2])
                trace_bytes += (self.workdir / f"point{idx}.trace").stat().st_size
                p, a = gate.echo_counts(result[2])
                probed += p
                applied += a
            passes += 1
        self.check_sweep_rows(points, [rows])
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)

        self_s, span_events, top_s = tracer.self_times()
        calls, secs = tracer.calls, tracer.secs
        decisions = max(1, calls["protocol.decide_forward"])
        values = {
            "trace_overhead_ratio": traced / plain if plain else 0.0,
            "simkernel.events": sum(c["events"] for c in self.counts.values()),
            "simkernel.records": records / passes,
            "simkernel.heap_peak": tracer.heap_peak,
            "simkernel.loop.self_s":
                (traced - top_s - secs["metrics.compute_run_metrics"]) / passes,
            "simkernel.control_plane.share": _share(
                sum(self_s[n] for n in layers.CONTROL_PLANE), traced),
            "simkernel.data_path.share": _share(
                sum(self_s[n] for n in layers.DATA_PATH), traced),
            "protocol.decide_forward.routed_ratio": tracer.routed / decisions,
            "protocol.decide_forward.dup_ratio": tracer.duplicated / decisions,
            "protocol.echo.applied_ratio": applied / max(1, probed),
            "protocol.echo.probed": probed / passes,
            "metrics.trace_bytes": trace_bytes / passes,
            "scenario.load.s": batch_secs.get("scenario.load", 0.0),
            "experiments.expand_sweep.s":
                batch_secs.get("experiments.expand_sweep", 0.0),
            "experiments.run_sweep.s": batch_secs.get("experiments.run_sweep", 0.0),
            "metrics.aggregate_runs.s": batch_secs.get("metrics.aggregate_runs", 0.0),
            "experiments.sweep.runs": done,
            "experiments.sweep.failed": len(points) - done,
        }
        for name in layers.HANDLERS.values():
            values[f"simkernel.{name}.self_s"] = self_s[name] / passes
            values[f"simkernel.events.{name}"] = span_events[name] / passes
        for _, _, metric, timed in layers.RUN_HOOKS:
            values[f"{metric}.calls"] = calls[metric] / passes
            if timed:
                values[f"{metric}.s"] = secs[metric] / passes
        self.notes = [f"{passes} passes over {len(points)} points; spans in "
                      f"{spans_path.relative_to(HERE.parent)}",
                      "ratio bases: decide_forward.routed_ratio and dup_ratio "
                      f"over {calls['protocol.decide_forward'] // passes} "
                      "decisions per pass; echo.applied_ratio over "
                      f"{probed // passes} probed neighbours per pass"]
        if tracer.missing:
            self.notes.append("missing hooks (their metrics read 0): "
                              + ", ".join(sorted(tracer.missing)))
        return values

    def fingerprint(self):
        """sha256 over every point's trace bytes and CSV row, and totals."""
        digest = hashlib.sha256()
        totals = {}
        for idx in sorted(self.digests):
            digest.update(self.digests[idx].encode())
            for key, n in self.counts[idx].items():
                totals[key] = totals.get(key, 0) + n
        return digest.hexdigest(), totals


@dataclasses.dataclass(frozen=True)
class _Row:
    key: int
    dist: float
    delay: float = 0.0


def reference_loop():
    """Seconds taken by a fixed piece of pure-Python work.

    The mix resembles a simulator's inner loops (frozen dataclass rows
    rebuilt with replace, a bounded heap, seeded random draws, dict
    updates), so the machine's drift slows it as much as it slows a
    run.  It uses no dartsim code and never changes.
    """
    t0 = perf_counter()
    rng = random.Random(7)
    table = {}
    heap = []
    for i in range(1500):
        old = table.get(i % 300)
        row = _Row(i % 300, rng.random(), old.delay if old else 0.0)
        table[row.key] = dataclasses.replace(
            row, delay=0.5 * row.dist + 0.5 * row.delay)
        heapq.heappush(heap, (row.dist, i))
        if len(heap) > 500:
            heapq.heappop(heap)
    return perf_counter() - t0


def _worker_reference_loop(_):
    return statistics.median(reference_loop() for _ in range(3))


def parallel_reference_loop(jobs):
    """reference_loop() time as seen by `jobs` worker processes at once.

    A sweep's throughput is the sum of its workers' speeds, so this is
    the harmonic mean over the workers.
    """
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return statistics.harmonic_mean(
            pool.map(_worker_reference_loop, range(jobs)))


def steady(seconds, ref):
    """seconds measured next to a reference_loop() that took ref seconds,
    rescaled to a machine where reference_loop() takes REFERENCE_S.

    Other tenants of a shared machine slow it by up to half for tens of
    seconds at a time; the rescaling cancels that drift.
    """
    return seconds * REFERENCE_S / ref


def _median(values):
    return statistics.median(values) if values else 0.0


def _share(part, whole):
    return part / whole if whole else 0.0


def load_units():
    """Metric name -> unit, for each mode, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_one(name, workload, seed, seconds, trace):
    """Run one workload; prints the report, returns the result object."""
    end_to_end, per_layer = load_units()
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(name, workload, seed, seconds, workdir)
    try:
        if trace:
            units = per_layer
            values = {k: (v, "") for k, v in bench.traced(
                HERE / ".out" / f"spans-{name}-seed{seed}.jsonl").items()}
        else:
            units = end_to_end
            values = bench.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {name}, seed {seed}, point seeds {bench.seeds}, "
          f"trace {int(trace)}")
    for note in bench.notes:
        print(f"# {note}")
    metrics = {}
    for metric, unit in units.items():
        value, base = values.get(metric, (0.0, "missing"))
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{metric:40s} {value:14.6g} {unit:6s} {base}")
    digest, totals = bench.fingerprint()
    print(f"# fingerprint sha256 {digest}")
    print("# simulated " + " ".join(f"{k}={v}" for k, v in totals.items()))
    failed = len(bench.failures)
    print(f"# failed {failed} of {bench.attempted} operations "
          f"({100.0 * failed / max(1, bench.attempted):.1f}%)")
    for line in bench.failures[:20]:
        print(f"# FAILED {line}")
    return {"correct": failed == 0, "attempted": bench.attempted,
            "failed": failed, "metrics": metrics}


def run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, WORKLOADS[args.workload], args.seed,
                         args.seconds, args.trace)
    print(json.dumps(result))


sys.path.insert(0, str(SRC))
try:
    import gate
    import layers
except ImportError as exc:
    if __name__ == "__main__":
        raise SystemExit(f"cannot import dartsim from {SRC}: {exc}")
    raise

if __name__ == "__main__":
    logging.getLogger("dartsim").setLevel(logging.ERROR)
    main()
