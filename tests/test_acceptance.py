"""Acceptance suite: ten criteria, one test (and one PASS/FAIL line) each.

Criteria 1-5 reproduce the headline trends on fixed seed sets; 6-10 are
exact oracles, invariants, determinism, and a hand-walked topology.
The grids of the trend criteria a session selects go to one run_points
batch, on every core the process may use, so the whole suite stays
inside a few minutes.  One more test pins each grid point's runs row,
so a change that keeps every trend but moves a row names the point.
"""

import hashlib
import json
import math
import random
import statistics
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import pytest

from dartsim.experiments import run_points, run_scenario
from dartsim.metrics import (PACKET_ARRIVAL, detail_fields, format_run_row,
                             run_meta)
from dartsim.protocol import (DataPacket, ForwardingEntry, NodeState,
                              decide_forward, record_echo_rtts)
from dartsim.scenario import Scenario, validate
from dartsim.simkernel import Simulation, channel, retries
from forwarding_oracle import brute_force
from trace_invariants import criterion_8_violations, gate

NODE_COUNTS = (50, 100, 150)
SEEDS = (11, 12, 13, 14, 15)
SLACK = 0.02

# Each trend criterion's grid, declared once: the settings it holds
# fixed, the node counts of its rows, the swept key and values of its
# columns, and the seeds each cell is the mean over.
GRIDS = {
    1: ({}, NODE_COUNTS, ("deadline_ms", (6.0, 7.0, 8.0, 9.0, 10.0)), SEEDS),
    2: (dict(sim_time=150.0, cbr_start_s=10.0), NODE_COUNTS,
        ("interval_s", (1.0, 2.0, 3.0, 4.0, 5.0)), tuple(range(11, 19))),
    3: ({}, (50, 150), ("deadline_ms", (6.0,)), SEEDS),
    4: (dict(deadline_ms=50.0), NODE_COUNTS,
        ("sim_time", (100.0, 200.0, 300.0, 400.0, 500.0)), SEEDS),
    5: (dict(deadline_ms=50.0), NODE_COUNTS, ("sim_time", (100.0, 500.0)),
        SEEDS),
}


def scenario(**kw):
    sc = Scenario()
    for k, v in kw.items():
        setattr(sc, k, v)
    validate(sc)
    return sc


def grid(criterion):
    """Per row: its node count and, per column, each seed's settings."""
    fixed, node_counts, (key, values), seeds = GRIDS[criterion]
    return [(n, [[dict(fixed, nodes=n, **{key: v}, seed=s) for s in seeds]
                 for v in values]) for n in node_counts]


def settings_key(kw):
    """A grid point's settings as text, sorted by key: its name in the
    runs and in the pins."""
    return " ".join(f"{key}={value}" for key, value in sorted(kw.items()))


def grid_points(criteria):
    """{settings key: scenario} of every distinct point of the criteria's
    grids; criteria 3 and 5 hold no point that 1 and 4 do not."""
    return {settings_key(kw): scenario(**kw) for criterion in sorted(criteria)
            for _, row in grid(criterion) for cell in row for kw in cell}


def row_texts(points, results):
    """{settings key: its runs row as CSV text, or what it raised}."""
    return {key: ",".join(format_run_row(run_meta(sc), result))
            if not isinstance(result, Exception) else f"raised {result!r}"
            for (key, sc), result in zip(points.items(), results)}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# {"points": {settings key: sha256 of its row}, "all": sha256 of every
# row in key order, one a line}; `PYTHONPATH=src python
# tests/test_golden.py` rewrites them after a deliberate change
DIGESTS = Path(__file__).parent / "data" / "digests.json"
PIN_TEST = "test_acceptance_rows_match_their_pins"


@pytest.fixture(scope="session")
def grid_runs(request):
    """Runs the grids of the trend criteria this session selected, or all
    five when it selected the pin test, in one run_points batch; returns
    {settings key: (scenario, RunMetrics or the exception it raised)}.

    Runs are keyed on their settings, so criteria 3 and 5 share the runs
    of criteria 1 and 4.  They are deterministic, so each equals a
    serial run's.
    """
    names = {item.name for item in request.session.items}
    chosen = GRIDS.keys() if PIN_TEST in names else GRIDS.keys() & {
        int(name.split("_")[2]) for name in names
        if name.startswith("test_criterion_")}
    points = grid_points(chosen)
    results = run_points(list(points.values()), len(points))
    return {key: (sc, result)
            for (key, sc), result in zip(points.items(), results)}


@pytest.fixture(scope="session")
def means(grid_runs):
    """means(criterion, metric): per row of the criterion's grid, its
    node count and the mean over the seeds of each column.  A point that
    raised fails the criterion, naming it."""

    def metric_of(criterion, metric, kw):
        result = grid_runs[settings_key(kw)][1]
        if isinstance(result, Exception):
            check(False, f"criterion {criterion}: the point {kw} raised "
                         f"{result!r}")
        return getattr(result, metric)

    def table(criterion, metric):
        return [(n, [statistics.mean(metric_of(criterion, metric, kw)
                                     for kw in cell) for cell in row])
                for n, row in grid(criterion)]
    return table


def check(ok, line):
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


# -- criterion 1: miss ratio falls as the deadline grows ----------------

@pytest.mark.slow
def test_criterion_01_miss_ratio_falls_with_deadline(means):
    ok = True
    detail = []
    for n, row in means(1, "deadline_miss_ratio"):
        rises = [b - a for a, b in zip(row, row[1:]) if b > a]
        row_ok = len(rises) <= 1 and all(r <= SLACK for r in rises)
        ok = ok and row_ok
        detail.append(f"n={n}: " + "->".join(f"{v:.3f}" for v in row))
    check(ok, "criterion 1: deadline miss ratio non-increasing over "
              f"deadlines 6..10 ms (slack {SLACK}); " + "; ".join(detail))


# -- criterion 2: miss ratio falls as the packet interval grows ---------

@pytest.mark.slow
def test_criterion_02_miss_ratio_falls_with_packet_interval(means):
    ok = True
    detail = []
    for n, row in means(2, "deadline_miss_ratio"):
        row_ok = (row[-1] <= row[0]
                  and all(b <= a + SLACK for a, b in zip(row, row[1:])))
        ok = ok and row_ok
        detail.append(f"n={n}: " + "->".join(f"{v:.3f}" for v in row))
    check(ok, "criterion 2: deadline miss ratio falls from interval 1 s "
              f"to 5 s and is non-increasing within {SLACK}; "
              + "; ".join(detail))


# -- criterion 3: more nodes, more missed deadlines ---------------------

@pytest.mark.slow
def test_criterion_03_miss_ratio_grows_with_node_count(means):
    (_, [sparse]), (_, [dense]) = means(3, "deadline_miss_ratio")
    check(dense > sparse,
          f"criterion 3: miss ratio at 150 nodes ({dense:.3f}) strictly "
          f"above 50 nodes ({sparse:.3f}) at the 6 ms deadline")


# -- criterion 4: delivery ratio grows with simulation time -------------

@pytest.mark.slow
def test_criterion_04_pdr_grows_with_simulation_time(means):
    ok = True
    detail = []
    for n, row in means(4, "pdr"):
        row_ok = (row[-1] >= row[0]
                  and all(b >= a - SLACK for a, b in zip(row, row[1:])))
        ok = ok and row_ok
        detail.append(f"n={n}: " + "->".join(f"{v:.4f}" for v in row))
    check(ok, "criterion 4: delivery ratio rises from 100 s to 500 s and "
              f"is monotone within {SLACK}; " + "; ".join(detail))


# -- criterion 5: average delay falls with simulation time --------------

@pytest.mark.slow
def test_criterion_05_delay_falls_with_simulation_time(means):
    ok = True
    detail = []
    for n, (first, last) in means(5, "avg_e2e_delay"):
        ok = ok and last <= first
        detail.append(f"n={n}: {first*1000:.3f}ms->{last*1000:.3f}ms")
    check(ok, "criterion 5: average end-to-end delay at 500 s is at most "
              "the 100 s value; " + "; ".join(detail))


# -- the rows behind criteria 1-5, pinned -------------------------------

@pytest.mark.slow
def test_acceptance_rows_match_their_pins(grid_runs):
    """The trends allow slack; the pins do not.  A change that moves any
    grid point's runs row, even in the trend's own direction, fails here
    and names each point it moved by its settings."""
    pinned = json.loads(DIGESTS.read_text())["acceptance"]
    rows = row_texts({key: sc for key, (sc, _) in grid_runs.items()},
                     [result for _, result in grid_runs.values()])
    changed = [f"{key}: {rows.get(key, 'not run')}"
               for key in sorted(pinned["points"].keys() | rows.keys())
               if sha256(rows.get(key, "")) != pinned["points"].get(key)]
    assert not changed, (f"{len(changed)} of {len(pinned['points'])} "
                         f"acceptance rows changed:\n" + "\n".join(changed))
    assert sha256("\n".join(rows[key] for key in sorted(rows))) == \
        pinned["all"]


# -- criterion 6: speed and delay equations against hand values ---------

def test_criterion_06_equation_oracles():
    # a 4 ms echo round trip is a 2 ms one-way link delay
    state = NodeState(my_id=1, dist_to_sink=500.0)
    state.forwarding_table[2] = ForwardingEntry(dist_to_sink=400.0)
    state.pending.add(2)
    record_echo_rtts(state, [(2, 0.004)], alpha=0.5)
    link = state.forwarding_table[2].link_delay
    # (1 ms MAC + 1 queued send at 2000/s + 0.5 ms transmission) x 6 tries
    sc = Scenario(base_mac_delay_ms=1.0, contention_coeff_ms=0.0,
                  jitter_ms=0.0, queue_service_rate=2000.0, tx_delay_ms=0.5,
                  loss=0.5, max_retries=5)
    # stub streams of random() values: none (no jitter), 5 failed tries
    per_try = channel(sc, SimpleNamespace(random=None))(0.0, 1.0)(
        deque([1.0]))
    draws = SimpleNamespace(random=iter([0.0] * 5 + [0.9]).__next__)
    tries = 1 if draws.random() >= sc.loss else retries(sc, draws)()

    # 500 m to go in 10 ms needs 50000 m/s; 100 m over the 2 ms link
    # provides 50000 m/s: taken at that requirement, refused 1e-12 above
    def hop(v_req):
        pkt = DataPacket(event_id=1, source_id=9, t_l=500.0 / v_req,
                         created_at=0.0)
        return decide_forward(state, pkt)
    at, above = hop(50000.0), hop(50000.0 * (1.0 + 1e-12))
    cases = [(link, 0.002), (per_try * tries, 0.012), (at.v_req, 50000.0)]
    provided = at.primary_next_hop == 2 and above.primary_next_hop is None
    ok = provided and all(math.isclose(got, want, rel_tol=1e-12)
                          for got, want in cases)
    check(ok, "criterion 6: link delay, one-way delay, required speed and "
              "provided speed match hand-computed values to 1e-12 relative; "
              + "; ".join(f"{got!r}~{want!r}" for got, want in cases)
              + f"; provided 50000.0 m/s {'held' if provided else 'failed'}")


# -- criterion 7: forwarding decision vs brute force ---------------------

def test_criterion_07_forwarding_matches_brute_force():
    rng = random.Random(2024)
    mismatches = 0
    for trial in range(1000):
        sink = (0.0, 0.0)
        my_pos = (rng.uniform(50, 600), rng.uniform(50, 400))
        my_id = 1000
        table = {}
        positions = {}
        for nid in range(rng.randint(0, 8)):
            pos = positions[nid] = (rng.uniform(0, 650),
                                    rng.uniform(0, 450))
            link = rng.choice([0.0, rng.uniform(1e-5, 5e-3)])
            table[nid] = ForwardingEntry(
                dist_to_sink=math.dist(pos, sink), link_delay=link)
        d_here = math.dist(my_pos, sink)
        state = NodeState(my_id=my_id, dist_to_sink=d_here,
                          forwarding_table=table)
        src = my_id if rng.random() < 0.5 else 1
        pkt = DataPacket(event_id=trial, source_id=src,
                         t_l=rng.choice([0.0, rng.uniform(5e-4, 2e-2)]),
                         created_at=0.0, is_duplicate=rng.random() < 0.2)
        want_primary, want_dup, want_set = brute_force(
            state, pkt, my_pos, sink, positions)
        got = decide_forward(state, pkt)
        got_set = set()
        for nid, entry in table.items():
            solo = NodeState(my_id=my_id, dist_to_sink=d_here,
                             forwarding_table={nid: entry})
            if decide_forward(solo, pkt).primary_next_hop is not None:
                got_set.add(nid)
        if (got.primary_next_hop != want_primary
                or got.duplicate_next_hop != want_dup
                or got_set != want_set):
            mismatches += 1
    check(mismatches == 0,
          f"criterion 7: decide_forward matches brute force on 1000 random "
          f"tables ({mismatches} mismatches)")


# -- criterion 8: invariants over a full 100-node trace ------------------

def test_criterion_08_trace_invariants():
    sc = Scenario()
    sc.nodes = 100
    sc.seed = 11
    validate(sc)
    records, _ = Simulation(sc).run()
    emitted, violations = criterion_8_violations(records)
    violations += gate.trace_invariants(records, sc.sink)
    check(not violations and emitted > 400,
          f"criterion 8: loop freedom, budget decay, copy bound and "
          f"conservation over {emitted} events "
          f"({len(violations)} violations)")


# -- criterion 9: byte-identical determinism -----------------------------

def test_criterion_09_determinism(tmp_path):
    sc = Scenario()
    sc.nodes = 50
    sc.sim_time = 50.0
    sc.seed = 11
    validate(sc)
    rows = []
    blobs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        meta, _, metrics = run_scenario(sc, trace_path=path)
        rows.append(",".join(format_run_row(meta, metrics)))
        blobs.append(path.read_bytes())
    check(blobs[0] == blobs[1] and rows[0] == rows[1],
          "criterion 9: identical seed and scenario give byte-identical "
          "trace files and CSV rows")


# -- criterion 10: hand-walked line topology -----------------------------

def test_criterion_10_hand_walked_line():
    sc = Scenario()
    for k, v in dict(nodes=3, placement="explicit",
                     positions=[(0.0, 0.0), (250.0, 0.0), (500.0, 0.0)],
                     sink=0, cbr_sources=[2], sim_time=8.0, cbr_start_s=5.0,
                     interval_s=10.0, deadline_ms=6.0, loss=0.0,
                     jitter_ms=0.0, contention_coeff_ms=0.0,
                     base_mac_delay_ms=0.74, tx_delay_ms=0.26).items():
        setattr(sc, k, v)
    validate(sc)
    records, metrics = Simulation(sc).run()
    arrivals = [r for r in records if r.kind == PACKET_ARRIVAL]
    ok = len(arrivals) == 1 and metrics.sent_events == 1
    delay = t_l = None
    if ok:
        f = detail_fields(arrivals[0].detail)
        delay, t_l = float(f["delay"]), float(f["tl"])
        ok = (abs(delay - 0.002) <= 1e-9 and abs(t_l - 0.004) <= 1e-9)
    check(ok, f"criterion 10: 2-hop line with 1 ms links delivers in "
              f"{delay} s (want 0.002 +/- 1e-9) with budget {t_l} s left "
              f"(want 0.004)")
