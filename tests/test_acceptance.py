"""Acceptance suite: ten criteria, one test (and one PASS/FAIL line) each.

Criteria 1-5 reproduce the headline trends on fixed seed sets; 6-10 are
exact oracles, invariants, determinism, and a hand-walked topology.
Runs are cached across criteria, and each trend criterion runs its
grid ahead on every core the process may use, so the whole suite stays
inside a few minutes.
"""

import math
import os
import random
import statistics
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from types import SimpleNamespace

import pytest

from dartsim.experiments import _run_point, run_scenario
from dartsim.metrics import PACKET_ARRIVAL, detail_fields, format_run_row
from dartsim.protocol import (DataPacket, ForwardingEntry, NodeState,
                              decide_forward, record_echo_rtts)
from dartsim.scenario import Scenario, validate
from dartsim.simkernel import Simulation, attempt_counts, hop_delay
from trace_invariants import criterion_8_violations

NODE_COUNTS = (50, 100, 150)
SEEDS = (11, 12, 13, 14, 15)
SEEDS_INTERVAL = tuple(range(11, 19))
DEADLINES_MS = (6.0, 7.0, 8.0, 9.0, 10.0)
INTERVALS_S = (1.0, 2.0, 3.0, 4.0, 5.0)
SIM_TIMES = (100.0, 200.0, 300.0, 400.0, 500.0)
SLACK = 0.02

_CACHE = {}


def scenario(**kw):
    sc = Scenario()
    for k, v in kw.items():
        setattr(sc, k, v)
    validate(sc)
    return sc


def metrics_for(**kw):
    run_ahead([kw])
    return _CACHE[repr(scenario(**kw))]


def run_ahead(grid):
    """Cache the runs of a criterion's grid, on every core available.

    Runs are deterministic, so each cached metric equals a serial run's.
    The longest runs start first, so the workers finish together.
    """
    todo = {}
    for kw in grid:
        sc = scenario(**kw)
        # keyed on the whole scenario, so settings spelled out at their
        # defaults share a run with the points that leave them out
        if repr(sc) not in _CACHE:
            todo[repr(sc)] = sc
    points = sorted(todo.values(), key=lambda sc: -sc.nodes * sc.sim_time)
    workers = min(len(os.sched_getaffinity(0)), len(points))
    if workers > 1:
        with ProcessPoolExecutor(workers,
                                 mp_context=get_context("spawn")) as pool:
            results = list(pool.map(_run_point, points))
    else:
        results = map(_run_point, points)
    for sc, (_, metrics) in zip(points, results):
        _CACHE[repr(sc)] = metrics


def mean_over_seeds(metric, seeds, **kw):
    return statistics.mean(
        getattr(metrics_for(seed=s, **kw), metric) for s in seeds)


def check(ok, line):
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


# -- criterion 1: miss ratio falls as the deadline grows ----------------

@pytest.mark.slow
def test_criterion_01_miss_ratio_falls_with_deadline():
    run_ahead(dict(seed=s, nodes=n, deadline_ms=d)
              for n in NODE_COUNTS for d in DEADLINES_MS for s in SEEDS)
    ok = True
    detail = []
    for n in NODE_COUNTS:
        row = [mean_over_seeds("deadline_miss_ratio", SEEDS, nodes=n,
                               deadline_ms=d) for d in DEADLINES_MS]
        rises = [b - a for a, b in zip(row, row[1:]) if b > a]
        row_ok = len(rises) <= 1 and all(r <= SLACK for r in rises)
        ok = ok and row_ok
        detail.append(f"n={n}: " + "->".join(f"{v:.3f}" for v in row))
    check(ok, "criterion 1: deadline miss ratio non-increasing over "
              f"deadlines 6..10 ms (slack {SLACK}); " + "; ".join(detail))


# -- criterion 2: miss ratio falls as the packet interval grows ---------

@pytest.mark.slow
def test_criterion_02_miss_ratio_falls_with_packet_interval():
    run_ahead(dict(seed=s, nodes=n, interval_s=iv, sim_time=150.0,
                   cbr_start_s=10.0)
              for n in NODE_COUNTS for iv in INTERVALS_S
              for s in SEEDS_INTERVAL)
    ok = True
    detail = []
    for n in NODE_COUNTS:
        row = [mean_over_seeds("deadline_miss_ratio", SEEDS_INTERVAL,
                               nodes=n, interval_s=iv, sim_time=150.0,
                               cbr_start_s=10.0) for iv in INTERVALS_S]
        row_ok = (row[-1] <= row[0]
                  and all(b <= a + SLACK for a, b in zip(row, row[1:])))
        ok = ok and row_ok
        detail.append(f"n={n}: " + "->".join(f"{v:.3f}" for v in row))
    check(ok, "criterion 2: deadline miss ratio falls from interval 1 s "
              f"to 5 s and is non-increasing within {SLACK}; "
              + "; ".join(detail))


# -- criterion 3: more nodes, more missed deadlines ---------------------

@pytest.mark.slow
def test_criterion_03_miss_ratio_grows_with_node_count():
    run_ahead(dict(seed=s, nodes=n) for n in (50, 150) for s in SEEDS)
    sparse = mean_over_seeds("deadline_miss_ratio", SEEDS, nodes=50)
    dense = mean_over_seeds("deadline_miss_ratio", SEEDS, nodes=150)
    check(dense > sparse,
          f"criterion 3: miss ratio at 150 nodes ({dense:.3f}) strictly "
          f"above 50 nodes ({sparse:.3f}) at the 6 ms deadline")


# -- criterion 4: delivery ratio grows with simulation time -------------

@pytest.mark.slow
def test_criterion_04_pdr_grows_with_simulation_time():
    run_ahead(dict(seed=s, nodes=n, sim_time=t, deadline_ms=50.0)
              for n in NODE_COUNTS for t in SIM_TIMES for s in SEEDS)
    ok = True
    detail = []
    for n in NODE_COUNTS:
        row = [mean_over_seeds("pdr", SEEDS, nodes=n, sim_time=t,
                               deadline_ms=50.0) for t in SIM_TIMES]
        row_ok = (row[-1] >= row[0]
                  and all(b >= a - SLACK for a, b in zip(row, row[1:])))
        ok = ok and row_ok
        detail.append(f"n={n}: " + "->".join(f"{v:.4f}" for v in row))
    check(ok, "criterion 4: delivery ratio rises from 100 s to 500 s and "
              f"is monotone within {SLACK}; " + "; ".join(detail))


# -- criterion 5: average delay falls with simulation time --------------

@pytest.mark.slow
def test_criterion_05_delay_falls_with_simulation_time():
    run_ahead(dict(seed=s, nodes=n, sim_time=t, deadline_ms=50.0)
              for n in NODE_COUNTS for t in (100.0, 500.0) for s in SEEDS)
    ok = True
    detail = []
    for n in NODE_COUNTS:
        first = mean_over_seeds("avg_e2e_delay", SEEDS, nodes=n,
                                sim_time=100.0, deadline_ms=50.0)
        last = mean_over_seeds("avg_e2e_delay", SEEDS, nodes=n,
                               sim_time=500.0, deadline_ms=50.0)
        ok = ok and last <= first
        detail.append(f"n={n}: {first*1000:.3f}ms->{last*1000:.3f}ms")
    check(ok, "criterion 5: average end-to-end delay at 500 s is at most "
              "the 100 s value; " + "; ".join(detail))


# -- criterion 6: speed and delay equations against hand values ---------

def test_criterion_06_equation_oracles():
    # a 4 ms echo round trip is a 2 ms one-way link delay
    state = NodeState(my_id=1, dist_to_sink=500.0)
    state.forwarding_table[2] = ForwardingEntry(dist_to_sink=400.0)
    record_echo_rtts(state, {2}, [(2, 0.004)], alpha=0.5)
    link = state.forwarding_table[2].link_delay
    # (1 ms MAC + 1 queued send at 2000/s + 0.5 ms transmission) x 6 tries
    sc = Scenario(base_mac_delay_ms=1.0, contention_coeff_ms=0.0,
                  jitter_ms=0.0, queue_service_rate=2000.0, tx_delay_ms=0.5,
                  loss=0.5, max_retries=5)
    # stub streams of random() values: none (no jitter), 5 failed tries
    per_try = hop_delay(sc, 0.0, 1.0, SimpleNamespace(random=None))(
        deque([1.0]))
    draws = iter([0.0] * 5 + [0.9])
    tries = next(attempt_counts(sc, SimpleNamespace(random=draws.__next__)))

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

def _brute_force(state, pkt, my_pos, sink, positions):
    # every distance from a position kept here, none from the table or state
    d_here = math.dist(my_pos, sink)
    if pkt.t_l <= 0.0:
        return None, None, set()
    v_req = d_here / pkt.t_l
    eligible = {}
    for nid, entry in state.forwarding_table.items():
        if entry.link_delay <= 0.0:
            continue
        d_n = math.dist(positions[nid], sink)
        if d_n >= d_here:
            continue
        v_prov = (d_here - d_n) / entry.link_delay
        if v_prov >= v_req:
            eligible[nid] = v_prov
    ranked = sorted(eligible, key=lambda nid: (-eligible[nid], nid))
    primary = ranked[0] if ranked else None
    duplicate = None
    if (primary is not None and state.my_id == pkt.source_id
            and not pkt.is_duplicate and len(ranked) >= 2):
        duplicate = ranked[1]
    return primary, duplicate, set(eligible)


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
        want_primary, want_dup, want_set = _brute_force(
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
