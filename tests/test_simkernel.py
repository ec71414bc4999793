"""Simulator kernel tests: channel draws, topology, and whole small runs."""

import hashlib
import logging
import math
import random
from collections import Counter, defaultdict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartsim.metrics import (CBR_EMIT, DROP, DUPLICATE, ECHO_PROBE, ECHO_REPLY,
                             FORWARD, HELLO_ROUND, PACKET_ARRIVAL, RUN_END,
                             detail_fields)
from dartsim.protocol import DataPacket
from dartsim.scenario import Scenario, ScenarioError, validate
from dartsim import simkernel
from dartsim.simkernel import (Simulation, build_topology, retries,
                               select_sources)
from trace_invariants import gate


def make_scenario(**kw):
    sc = Scenario()
    for key, value in kw.items():
        setattr(sc, key, value)
    validate(sc)
    return sc


def line_scenario(**kw):
    """Three nodes in a row, deterministic 1 ms links, one emission."""
    base = dict(nodes=3, placement="explicit",
                positions=[(0.0, 0.0), (250.0, 0.0), (500.0, 0.0)],
                sink=0, cbr_sources=[2], sim_time=8.0, cbr_start_s=5.0,
                interval_s=10.0, deadline_ms=6.0, loss=0.0, jitter_ms=0.0,
                contention_coeff_ms=0.0, base_mac_delay_ms=0.74,
                tx_delay_ms=0.26)
    base.update(kw)
    return make_scenario(**base)


def by_kind(records):
    out = defaultdict(list)
    for rec in records:
        out[rec.kind].append(rec)
    return out


# -- channel draws -------------------------------------------------------


def channel(loss=0.0, **kw):
    """A Scenario whose channel draws are easy to compute by hand."""
    base = dict(base_mac_delay_ms=0.3, queue_service_rate=4000.0,
                queue_window_s=0.5, tx_delay_ms=0.26, contention_coeff_ms=0.1,
                max_retries=4, jitter_ms=0.0)
    base.update(kw)
    return Scenario(loss=loss, **base)


def unicast(sc, rng):
    """Draw one unicast's tries per call as the kernel does: the first try
    inline, the rest from retries(); 0 when every try failed."""
    random, loss, retry = rng.random, sc.loss, retries(sc, rng)
    return lambda: 1 if random() >= loss else retry()


def attempts_or_budget(sc, attempts):
    """Tries of one unicast, a give-up counting as the whole budget."""
    return attempts() or sc.max_retries + 1


def queued(n):
    """The transmission deque of a sender with n sends in its window."""
    return deque([1.0] * n)


def test_tx_count_without_loss_is_single_attempt():
    attempts = unicast(channel(), random.Random(1))
    for _ in range(100):
        assert attempts() == 1


def test_tx_count_support_is_capped_by_retry_budget():
    sc = channel(0.5, max_retries=3)
    attempts = unicast(sc, random.Random(2))
    seen = Counter()
    failures_at = set()
    for _ in range(4000):
        n = attempts()
        seen[n or sc.max_retries + 1] += 1
        if not n:
            failures_at.add(sc.max_retries + 1)
    assert set(seen) == {1, 2, 3, 4}
    assert failures_at == {4}          # giving up uses the full budget


def test_tx_count_mean_matches_truncated_geometric():
    p, retries, n = 0.3, 4, 100_000
    sc = channel(p, max_retries=retries)
    attempts = unicast(sc, random.Random(3))
    total = sum(attempts_or_budget(sc, attempts) for _ in range(n))
    expected = sum(p ** k for k in range(retries + 1))   # 1.4251
    assert abs(total / n - expected) < 0.02


def test_link_delay_is_exact_when_nothing_is_random():
    sc = channel()
    rng = random.Random(4)
    delay = simkernel.channel(sc, rng)(0.0, 1.0)(queued(0))
    n = unicast(sc, rng)()
    tx_delay = sc.tx_delay_ms / 1000.0      # the run's ms -> s conversion
    assert n == 1
    assert tx_delay == pytest.approx(0.00026, rel=1e-12)
    assert delay == 0.0003 + 0.0 + tx_delay
    assert delay * n == (0.0003 + 0.0 + tx_delay) * 1
    assert delay * n == pytest.approx(0.00056, abs=0)


def test_link_delay_load_and_occupancy_terms():
    sc, rng = channel(), random.Random(5)
    idle = simkernel.channel(sc, rng)(0.0, 1.0)(queued(0))
    loaded = simkernel.channel(sc, rng)(3.0, 1.0)(queued(0))
    busy = simkernel.channel(sc, rng)(0.0, 1.0)(queued(2))
    assert loaded - idle == pytest.approx(0.0003, rel=1e-12)  # 3 x 0.1 ms
    assert busy - idle == pytest.approx(0.0005, rel=1e-12)    # 2 / 4000


def test_ms_settings_are_converted_with_the_runs_expressions():
    sc = channel(base_mac_delay_ms=0.37, contention_coeff_ms=0.13,
                 tx_delay_ms=0.29)
    delay = simkernel.channel(sc, random.Random(11))(3.0, 1.0)(queued(0))
    mac_delay = 0.37 / 1000.0 + 0.13 / 1000.0 * 3.0
    assert delay == mac_delay + 0.0 + 0.29 / 1000.0


def test_link_delay_mean_matches_analytic_value():
    sc, rng = channel(0.3, jitter_ms=0.05), random.Random(6)
    delay_of = simkernel.channel(sc, rng)(3.0, 1.0)
    attempts = unicast(sc, rng)
    n = 100_000
    total = 0.0
    delivered_count = 0
    for _ in range(n):
        delay, tries = delay_of(queued(2)), attempts()
        total += delay * (tries or sc.max_retries + 1)
        delivered_count += tries > 0
    # (base + coeff*load + jitter + occ/rate + tx) * sum(p^k, k=0..4)
    assert total / n == pytest.approx(0.002009391, rel=0.01)
    assert delivered_count / n == pytest.approx(1 - 0.3 ** 5, abs=0.002)


def test_queue_window_expires_old_transmissions_and_keeps_the_rest():
    sc = channel()
    q = deque([0.1, 0.5, 0.9, 1.0])
    delay = simkernel.channel(sc, random.Random(7))(0.0, 1.0)(q)
    assert q == deque([0.9, 1.0])      # 0.5 sits on the window's edge
    assert delay == 0.0003 + 2 / 4000.0 + sc.tx_delay_ms / 1000.0


def test_each_leg_is_the_one_way_equation_of_its_parts():
    rng = random.Random(8)
    for _ in range(200):
        sc = channel(rng.uniform(0.0, 0.9),
                     base_mac_delay_ms=rng.uniform(0.0, 2.0),
                     queue_service_rate=rng.uniform(100.0, 8000.0),
                     tx_delay_ms=rng.uniform(0.0, 1.0),
                     contention_coeff_ms=rng.uniform(0.0, 0.5),
                     max_retries=rng.randint(0, 5),
                     jitter_ms=rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        load = float(rng.randint(0, 40))
        q = queued(rng.randint(0, 6))
        attempts = unicast(sc, random.Random(rng.random()))
        twin = random.Random()
        twin.setstate(rng.getstate())   # replays the jitter draws
        delay_of = simkernel.channel(sc, rng)(load, 1.0)
        # the broadcast leg, then five unicast legs
        legs = [(delay_of(q), 1)] + [
            (delay_of(q), attempts_or_budget(sc, attempts)) for _ in range(5)]
        for delay, n in legs:
            mac_delay = (sc.base_mac_delay_ms / 1000.0
                         + sc.contention_coeff_ms / 1000.0 * load)
            if sc.jitter_ms > 0.0:
                mac_delay += twin.expovariate(1.0 / (sc.jitter_ms / 1000.0))
            assert delay * n == (mac_delay + len(q) / sc.queue_service_rate
                                 + sc.tx_delay_ms / 1000.0) * n


def test_an_ack_draws_its_attempts_and_no_mac_jitter():
    sc = channel(0.5, jitter_ms=0.2, contention_coeff_ms=1.0)
    rng, twin = random.Random(9), random.Random(9)
    attempts = unicast(sc, rng)
    for _ in range(50):
        for _ in range(attempts_or_budget(sc, attempts)):
            twin.random()
        assert rng.getstate() == twin.getstate()


def test_a_broadcast_draws_its_jitter_and_no_attempts():
    sc = channel(0.5, jitter_ms=0.2)
    rng, twin = random.Random(10), random.Random(10)
    delay = simkernel.channel(sc, rng)(0.0, 1.0)(queued(0))
    mac_delay = 0.0003 + twin.expovariate(1.0 / (0.2 / 1000.0))
    assert delay == mac_delay + 0.0 + sc.tx_delay_ms / 1000.0
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("jitter_ms", [1e-6, 0.05, 0.2, 1.0, 37.5])
def test_the_jitter_is_expovariate_on_a_twin_bit_for_bit(jitter_ms):
    # no other delay term, so the delay is the jitter draw itself
    sc = channel(jitter_ms=jitter_ms, base_mac_delay_ms=0.0,
                 contention_coeff_ms=0.0, tx_delay_ms=0.0)
    rng, twin = random.Random(14), random.Random(14)
    delay_of = simkernel.channel(sc, rng)(0.0, 1.0)
    rate = 1.0 / (jitter_ms / 1000.0)
    for _ in range(300):
        assert delay_of(queued(0)).hex() == twin.expovariate(rate).hex()
        assert rng.getstate() == twin.getstate()


def accumulated_delay(sc, rng, load, now, q):
    """One attempt's delay as the MAC delay was once accumulated: the
    contention, then `+=` of the jitter's expovariate expression."""
    base = sc.base_mac_delay_ms / 1000.0
    coeff = sc.contention_coeff_ms / 1000.0
    jitter, tx_delay = sc.jitter_ms / 1000.0, sc.tx_delay_ms / 1000.0
    lambd = 1.0 / jitter if jitter > 0.0 else math.inf
    cut = now - sc.queue_window_s
    while q and q[0] <= cut:
        q.popleft()
    mac_delay = base + coeff * load
    if jitter > 0.0:
        mac_delay += -math.log(1.0 - rng.random()) / lambd
    return mac_delay + len(q) / sc.queue_service_rate + tx_delay


# sha256 over math.log(1.0 - u).hex(), one a line, for the first 100,000
# draws u of random.Random(1)
MATH_LOG_SHA = "07d4cd105ed4451dc4dc1436ad35e84e236db99bf2050b0d4f0b9f4163a79789"


def test_math_log_rounds_as_pinned():
    """The channel's jitter is the one libm call on the run path, and IEEE
    754 does not fix the last bit of a log.  A libm that rounds any of
    these draws differently fails here, by name, and not only as changed
    golden and corpus traces."""
    rng = random.Random(1)
    text = "\n".join(math.log(1.0 - rng.random()).hex()
                     for _ in range(100_000))
    assert hashlib.sha256(text.encode()).hexdigest() == MATH_LOG_SHA, (
        "math.log rounds differently from the libm the traces were pinned "
        "with, so every trace with jitter will differ")


_ms = st.floats(0.0, 50.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(jitter_ms=st.just(0.0) | st.floats(1e-9, 100.0), base_ms=_ms,
       coeff_ms=_ms, tx_ms=_ms, load=st.integers(0, 2000),
       rate=st.floats(1.0, 1e5), sends=st.lists(st.floats(0.0, 2.0)),
       seed=st.integers(0, 2 ** 32))
def test_delay_is_the_accumulated_mac_expression_bit_for_bit(
        jitter_ms, base_ms, coeff_ms, tx_ms, load, rate, sends, seed):
    """delay(q) subtracts the jitter's log term in one expression; that
    is a + (-x)/b written as a - x/b, equal in IEEE arithmetic, and it
    draws exactly what the accumulated form drew, none at zero jitter."""
    sc = channel(jitter_ms=jitter_ms, base_mac_delay_ms=base_ms,
                 contention_coeff_ms=coeff_ms, tx_delay_ms=tx_ms,
                 queue_service_rate=rate)
    rng, twin = random.Random(seed), random.Random(seed)
    delay_of = simkernel.channel(sc, rng)(float(load), 1.0)
    q, twin_q = deque(sorted(sends)), deque(sorted(sends))
    for _ in range(3):
        got = delay_of(q)
        want = accumulated_delay(sc, twin, float(load), 1.0, twin_q)
        assert got.hex() == want.hex()
        assert q == twin_q
        assert rng.getstate() == twin.getstate()


class CountingScenario:
    """A Scenario that counts the reads of its keys."""

    def __init__(self, scenario):
        self.scenario, self.reads = scenario, 0

    def __getattr__(self, key):
        self.reads += 1
        return getattr(self.scenario, key)


def test_a_load_snapshot_reads_no_scenario_key():
    """channel binds the settings once per run: building a snapshot's
    delay and drawing hops from it read none of them."""
    sc = CountingScenario(channel(jitter_ms=0.05))
    hop_delay = simkernel.channel(sc, random.Random(15))
    assert sc.reads > 0
    sc.reads = 0
    delay_of = hop_delay(3.0, 1.0)
    assert sc.reads == 0
    for q in (queued(0), queued(2), deque([0.1, 0.9])):
        assert delay_of(q) > 0.0
    assert sc.reads == 0


def retry_loop(sc, twin):
    """A unicast's attempts drawn on the twin as one for ... else loop
    over every try; 0 when every try fails."""
    for attempts in range(1, sc.max_retries + 2):
        if twin.random() >= sc.loss:
            break
    else:
        attempts = 0
    return attempts


@pytest.mark.parametrize("max_retries", [0, 1, 3])
@pytest.mark.parametrize("loss", [0.0, 0.4, 1.0])
def test_attempt_counts_match_the_retry_loop_on_a_twin(loss, max_retries):
    sc = channel(loss, max_retries=max_retries)
    rng, twin = random.Random(15), random.Random(15)
    attempts = unicast(sc, rng)
    seen = set()
    for _ in range(400):
        n = attempts()
        assert n == retry_loop(sc, twin)
        assert rng.getstate() == twin.getstate()
        seen.add(n)
    # every outcome the budget allows shows up, and no other
    assert seen == {0.0: {1}, 0.4: set(range(max_retries + 2)),
                    1.0: {0}}[loss]


def lossy_pair():
    """A jittery, lossy 2-node run and a twin of its random stream."""
    sc = make_scenario(nodes=2, placement="explicit", cbr_count=0,
                       positions=[(0.0, 0.0), (200.0, 0.0)], loss=0.4,
                       jitter_ms=0.2, max_retries=2, seed=12)
    sim = Simulation(sc)
    twin = random.Random()
    twin.setstate(sim.rng.getstate())
    return sc, sim, twin


def test_a_hello_round_draws_each_acks_attempts_and_no_jitter():
    sc, sim, twin = lossy_pair()
    heard, retried = 0, 0
    for k in range(40):
        sim._on_hello_round(1.0 + k, 0, False)
        if twin.random() >= sc.loss:          # node 1 heard the HELLO
            heard += 1
            retried += retry_loop(sc, twin) != 1   # its ACK
        assert sim.rng.getstate() == twin.getstate()
    assert 0 < heard < 40 and retried > 0


def test_an_echo_probe_draws_the_broadcast_jitter_and_no_attempts():
    sc, sim, twin = lossy_pair()
    rate = 1.0 / (sc.jitter_ms / 1000.0)
    heard, retried = 0, 0
    for k in range(40):
        sim._on_echo_probe(1.0 + k, 0, False)
        twin.expovariate(rate)                # the broadcast: jitter only
        if twin.random() >= sc.loss:          # node 1 heard the probe
            heard += 1
            twin.expovariate(rate)            # the reply: jitter, attempts
            retried += retry_loop(sc, twin) != 1
        assert sim.rng.getstate() == twin.getstate()
    assert 0 < heard < 40 and retried > 0


def test_a_measured_link_delay_survives_later_hello_rounds():
    """HELLO rounds only insert rows for unknown senders, so on a lossy
    pair a row measured by an echo reply keeps its object and its delay
    through every later HELLO round, bootstrap and steady."""
    sc = make_scenario(nodes=2, placement="explicit", cbr_count=0,
                       positions=[(0.0, 0.0), (200.0, 0.0)], loss=0.4,
                       jitter_ms=0.2, max_retries=2, seed=12, sim_time=60.0)
    sim = Simulation(sc)
    hello_round = sim._on_hello_round
    measured_rounds = 0

    def checked(now, i, steady):
        nonlocal measured_rounds
        rows = [(row, row.link_delay) for state in sim.states
                for row in state.forwarding_table.values()]
        hello_round(now, i, steady)
        after = [row for state in sim.states
                 for row in state.forwarding_table.values()]
        for row, link_delay in rows:
            assert any(row is kept for kept in after)
            assert row.link_delay == link_delay
        measured_rounds += any(link_delay > 0.0 for _, link_delay in rows)
    sim._on_hello_round = checked        # bound before run() schedules
    sim.run()
    assert measured_rounds > 5
    assert all(row.link_delay > 0.0 for state in sim.states
               for row in state.forwarding_table.values())


# -- topology -----------------------------------------------------------


def test_uniform_topology_is_seeded_and_in_bounds():
    sc = make_scenario(nodes=12, seed=5)
    positions, adjacency = build_topology(sc, random.Random(sc.seed))
    positions_b, adjacency_b = build_topology(sc, random.Random(sc.seed))
    assert positions == positions_b
    assert adjacency == adjacency_b
    assert positions[0] == (0.0, 0.0)   # sink pinned
    for pos in positions[1:]:
        assert 0.0 <= pos[0] <= sc.area_width
        assert 0.0 <= pos[1] <= sc.area_height


def test_adjacency_matches_pairwise_distances():
    """Every placement gives (x, y) tuples, linked as the inline hypot
    of the coordinates says, exact boundary cases included."""
    for sc in (make_scenario(nodes=12, seed=5),
               make_scenario(nodes=60, seed=9),
               make_scenario(nodes=30, placement="grid", tx_range=120.0),
               make_scenario(nodes=5, placement="explicit", tx_range=100.0,
                             positions=[(0.0, 0.0), (-60.0, 80.0),
                                        (100.0, 0.0), (100.0, -1e-13),
                                        (0.0, 100.0000000000001)])):
        positions, adjacency = build_topology(sc, random.Random(sc.seed))
        assert all(type(p) is tuple and len(p) == 2 for p in positions)
        for i in range(sc.nodes):
            assert adjacency[i] == sorted(adjacency[i])
            assert i not in adjacency[i]
            for j in range(sc.nodes):
                if i == j:
                    continue
                d = math.hypot(positions[i][0] - positions[j][0],
                               positions[i][1] - positions[j][1])
                assert (j in adjacency[i]) == (d <= sc.tx_range)
                assert (j in adjacency[i]) == (i in adjacency[j])


def test_grid_topology_fills_the_area():
    sc = make_scenario(nodes=6, placement="grid", area_width=100.0,
                       area_height=100.0)
    positions, _ = build_topology(sc, random.Random(sc.seed))
    assert positions[0] == (0.0, 0.0)
    assert positions[2] == (100.0, 0.0)
    assert positions[5] == (100.0, 100.0)


def test_a_two_node_grid_is_one_row():
    # cols = 2, rows = 1: the row spacing must not divide by rows - 1
    sc = make_scenario(nodes=2, placement="grid", area_width=100.0)
    positions, adjacency = build_topology(sc, random.Random(sc.seed))
    assert positions == [(0.0, 0.0), (100.0, 0.0)]
    assert adjacency == [[1], [0]]


def test_explicit_positions_pass_through():
    pts = [(1.0, 2.0), (3.0, 4.0)]
    sc = make_scenario(nodes=2, placement="explicit", positions=pts)
    positions, _ = build_topology(sc, random.Random(sc.seed))
    assert positions == [(1.0, 2.0), (3.0, 4.0)]


def test_dist_is_the_inline_hypot_bit_for_bit():
    """math.dist and a two-argument math.hypot share one float routine,
    so the topology's distances are the ones the old inline form gave."""
    rng = random.Random(17)
    for k in range(2000):
        a = (rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
        b = (rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
        if k % 4 == 1:
            b = (a[0], b[1])              # zero width in x
        elif k % 4 == 2:
            b = (b[0], a[1])              # zero width in y
        elif k % 8 == 3:
            b = a                         # the same point
        want = math.hypot(a[0] - b[0], a[1] - b[1])
        assert math.dist(a, b).hex() == want.hex(), (a, b)


@pytest.mark.parametrize("key, value", [
    ("interval_s", 0.0), ("loss", 1.5), ("deadline_ms", -3.0),
    pytest.param("placement", "ring", id="placement-ring"),
    pytest.param("sink_pos", (math.nan, 0.0), id="sink_pos-nan"),
    pytest.param("sink_pos", (1.0, 2.0, 3.0), id="sink_pos-3d"),
    pytest.param("positions", [(0.0, 0.0), (math.nan, 0.0)],
                 id="positions-nan")])
def test_simulation_refuses_an_invalid_scenario(key, value):
    """A run is checked where it is built: interval_s = 0 would emit
    forever at one instant, a bad loss, deadline or NaN point would run
    in silence, and an unknown placement or a 3-d sink_pos would crash
    while the topology is built."""
    sc = Scenario(**{key: value})
    if key == "positions":               # read only by explicit placement
        sc.nodes, sc.placement = len(value), "explicit"
    with pytest.raises(ScenarioError, match=key):
        Simulation(sc)


def test_auto_sources_are_the_farthest_nodes():
    pts = [(0.0, 0.0), (10.0, 0.0), (40.0, 0.0), (40.0, 0.0), (5.0, 0.0)]
    sc = make_scenario(nodes=5, placement="explicit", positions=pts,
                       cbr_count=2, tx_range=100.0)
    positions, _ = build_topology(sc, random.Random(sc.seed))
    dist_to_sink = [math.dist(p, positions[sc.sink]) for p in positions]
    assert select_sources(sc, dist_to_sink) == [2, 3]


def test_explicit_sources_pass_through():
    sc = line_scenario()
    positions, _ = build_topology(sc, random.Random(sc.seed))
    dist_to_sink = [math.dist(p, positions[sc.sink]) for p in positions]
    assert select_sources(sc, dist_to_sink) == [2]


# -- whole small runs ---------------------------------------------------


def test_line_delivers_one_packet_end_to_end():
    records, metrics = Simulation(line_scenario()).run()
    kinds = by_kind(records)
    assert len(kinds[CBR_EMIT]) == 1
    assert len(kinds[PACKET_ARRIVAL]) == 1
    assert not kinds[DROP] and not kinds[DUPLICATE]

    hops = [(rec.node, detail_fields(rec.detail)) for rec in kinds[FORWARD]]
    assert [(node, int(f["to"])) for node, f in hops] == [(2, 1), (1, 0)]
    assert float(hops[0][1]["d"]) == pytest.approx(500.0)
    assert float(hops[1][1]["tl"]) == pytest.approx(0.005, abs=1e-9)

    arrival = detail_fields(kinds[PACKET_ARRIVAL][0].detail)
    assert float(arrival["delay"]) == pytest.approx(0.002, abs=1e-9)
    assert float(arrival["tl"]) == pytest.approx(0.004, abs=1e-9)
    assert arrival["hops"] == "2"

    assert metrics.sent_events == 1
    assert metrics.pdr == 1.0
    assert metrics.deadline_miss_ratio == 0.0
    assert metrics.avg_e2e_delay == pytest.approx(0.002, abs=1e-9)


def test_line_with_deadline_equal_to_path_delay_still_forwards():
    # v_prov == v_req at every hop; the boundary is eligible.  (The
    # measured arrival can land a few ulps past the deadline, so only
    # the forwarding behavior is asserted, not the miss verdict.)
    records, metrics = Simulation(line_scenario(deadline_ms=2.0)).run()
    kinds = by_kind(records)
    assert len(kinds[FORWARD]) == 2
    assert len(kinds[PACKET_ARRIVAL]) == 1
    assert metrics.pdr == 1.0
    arrival = detail_fields(kinds[PACKET_ARRIVAL][0].detail)
    assert float(arrival["tl"]) == pytest.approx(0.0, abs=1e-9)


def test_line_with_hopeless_deadline_drops_at_source():
    records, metrics = Simulation(line_scenario(deadline_ms=1.2)).run()
    kinds = by_kind(records)
    assert not kinds[PACKET_ARRIVAL] and not kinds[FORWARD]
    assert len(kinds[DROP]) == 1
    drop = kinds[DROP][0]
    assert drop.node == 2
    assert detail_fields(drop.detail)["reason"] == "no_route"
    assert metrics.pdr == 0.0
    assert metrics.deadline_miss_ratio == 1.0
    assert metrics.no_route_drops == 1


def test_forwarding_with_spent_budget_is_a_no_budget_drop():
    sim = Simulation(line_scenario())
    sim.run()
    pkt = DataPacket(event_id=999, source_id=2, t_l=0.0, created_at=7.0,
                     hop_count=3)
    sim._forward_from(2, pkt, 7.5)
    drop = sim.records[-1]
    assert drop.kind == DROP
    assert detail_fields(drop.detail)["reason"] == "no_budget"
    # a budget left, however small, is no spent budget even when the
    # required speed overflows to infinity: that drop is a routing void
    sim._forward_from(2, pkt._replace(t_l=5e-324), 7.5)
    assert detail_fields(sim.records[-1].detail)["reason"] == "no_route"


def test_zero_cbr_run_completes_with_undefined_ratios():
    sc = make_scenario(nodes=8, seed=9, sim_time=12.0, cbr_count=0)
    records, metrics = Simulation(sc).run()
    kinds = by_kind(records)
    assert not kinds[CBR_EMIT]
    assert kinds[HELLO_ROUND] and kinds[RUN_END]
    assert metrics.sent_events == 0
    assert metrics.pdr is None and metrics.avg_e2e_delay is None


def test_a_cbr_window_of_one_instant_emits_once():
    """cbr_start_s == cbr_stop_s: the first source emits at that instant,
    the others' interleaved first emissions fall after it."""
    sc = make_scenario(nodes=8, seed=1, sim_time=6.0, cbr_count=3,
                       cbr_start_s=2.5, cbr_stop_s=2.5)
    sim = Simulation(sc)
    records, _ = sim.run()
    emits = [(rec.time, rec.node) for rec in records if rec.kind == CBR_EMIT]
    assert emits == [(2.5, sim.sources[0])]


def test_disconnected_source_warns_and_drops_everything(caplog):
    """Source 2 is cut off; source 3 reaches the sink through node 1, two
    hops, so it does not warn."""
    sc = make_scenario(nodes=4, placement="explicit",
                       positions=[(0.0, 0.0), (200.0, 0.0), (1000.0, 0.0),
                                  (400.0, 0.0)],
                       sink=0, cbr_sources=[2, 3], sim_time=4.0,
                       interval_s=1.0)
    with caplog.at_level(logging.WARNING, logger="dartsim.simkernel"):
        sim = Simulation(sc)
    want = "source 2 has no path to sink 0; its packets will all be dropped"
    assert [(rec.name, rec.levelname, rec.getMessage())
            for rec in caplog.records] == [("dartsim.simkernel", "WARNING",
                                            want)]
    records, _ = sim.run()
    emitted = {rec.event_id for rec in records
               if rec.kind == CBR_EMIT and rec.node == 2}
    assert len(emitted) == 5
    assert [(rec.event_id, rec.kind, rec.detail) for rec in records
            if rec.event_id in emitted and rec.kind != CBR_EMIT] == [
                (eid, DROP, "reason=no_route dup=0") for eid in sorted(emitted)]


def test_echo_rounds_measure_the_configured_link_delay():
    # loss-free, jitter-free, contention-free: the estimate must equal
    # (base_mac_delay + tx_delay) * 1 exactly on both sides
    sc = make_scenario(nodes=2, placement="explicit",
                       positions=[(0.0, 0.0), (200.0, 0.0)], sink=0,
                       cbr_count=0, sim_time=12.0, loss=0.0, jitter_ms=0.0,
                       contention_coeff_ms=0.0)
    sim = Simulation(sc)
    sim.run()
    expected = (sc.base_mac_delay_ms + sc.tx_delay_ms) / 1000.0
    assert sim.states[1].forwarding_table[0].link_delay == \
        pytest.approx(expected, abs=1e-12)
    assert sim.states[0].forwarding_table[1].link_delay == \
        pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("after_probe, reply_recorded", [
    (0.0005, False),        # the reply would land 1.12 ms after the probe
    (0.002, True),
])
def test_echo_reply_past_the_horizon_is_not_recorded(after_probe,
                                                     reply_recorded):
    # node 0 probes once, at 1/3 + 1 s; node 1's first probe is at 5/3 s
    kw = dict(nodes=2, placement="explicit", cbr_count=0,
              positions=[(0.0, 0.0), (200.0, 0.0)], loss=0.0, jitter_ms=0.0,
              contention_coeff_ms=0.0)
    probe_at = 1.0 / 3.0 + 1.0
    records, _ = Simulation(make_scenario(
        sim_time=probe_at + after_probe, **kw)).run()
    kinds = by_kind(records)
    [probe] = kinds[ECHO_PROBE]
    assert (probe.node, probe.time) == (0, probe_at)
    assert detail_fields(probe.detail)["replies"] == "1"
    assert len(kinds[ECHO_REPLY]) == int(reply_recorded)
    assert records[-1].kind == RUN_END


@pytest.mark.parametrize("kind", [HELLO_ROUND, ECHO_REPLY, CBR_EMIT,
                                  ECHO_PROBE])
def test_a_record_due_exactly_at_the_horizon_is_recorded(kind):
    """sim_time is inclusive: a bootstrap HELLO round, an echo reply, a
    CBR emission and a steady echo probe that fall exactly on it still
    happen.  Events before the horizon do not depend on it, so a shorter
    run replays the long one up to there."""
    kw = dict(nodes=10, cbr_count=2, seed=5)
    records, _ = Simulation(make_scenario(sim_time=30.0, **kw)).run()
    hello_period_s = Scenario().hello_period_s
    # steady HELLO rounds start after hello_period_s; bootstrap ones before
    due = [rec for rec in records if rec.kind == kind
           and (kind != HELLO_ROUND or rec.time < hello_period_s)][-1]
    records, _ = Simulation(make_scenario(sim_time=due.time, **kw)).run()
    assert due in records


def test_an_echo_reply_applies_only_the_probes_still_pending():
    """Three quick probes are all answered before the first reply fires,
    so that reply applies both neighbors' RTTs and the next two none."""
    sc = make_scenario(nodes=3, placement="explicit",
                       positions=[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)],
                       sink=0, bootstrap_rounds=3, bootstrap_gap_s=1e-4,
                       loss=0.0, jitter_ms=0.0, sim_time=2.0)
    records, _ = Simulation(sc).run()
    replies = [rec.detail for rec in records
               if rec.kind == ECHO_REPLY and rec.node == 0]
    assert replies == ["measured=2", "measured=0", "measured=0"]


def test_a_simulation_runs_only_once():
    sim = Simulation(line_scenario())
    sim.run()
    with pytest.raises(RuntimeError, match="only run once"):
        sim.run()


def test_trace_times_are_sorted():
    sc = make_scenario(nodes=15, seed=3, sim_time=15.0)
    records, _ = Simulation(sc).run()
    times = [rec.time for rec in records]
    assert times == sorted(times)


def test_identical_scenarios_replay_identically():
    sc_a = make_scenario(nodes=15, seed=3, sim_time=15.0)
    sc_b = make_scenario(nodes=15, seed=3, sim_time=15.0)
    records_a, metrics_a = Simulation(sc_a).run()
    records_b, metrics_b = Simulation(sc_b).run()
    assert records_a == records_b
    assert metrics_a == metrics_b


def test_copy_conservation_on_a_busy_run():
    sc = make_scenario(nodes=25, seed=7, sim_time=30.0)
    records, metrics = Simulation(sc).run()
    # duplicates only at the source, at most two copies, one outcome per
    # node a copy reaches, arrivals only at the sink
    assert gate.trace_invariants(records, sc.sink) == []
    kinds = Counter(rec.kind for rec in records)
    assert metrics.sent_events == kinds[CBR_EMIT] > 0
    assert kinds[DUPLICATE] > 0             # the mechanism actually fires


@pytest.mark.parametrize("kw", [
    dict(nodes=30, sim_time=10.0, seed=2),
    dict(nodes=40, cbr_count=6, interval_s=0.1, deadline_ms=50.0, loss=0.2,
         max_retries=3, sim_time=5.0, seed=6),
    dict(nodes=30, ctl_window_s=1.0, flow_window_s=0.05, interval_s=0.2,
         sim_time=10.0, seed=3),
], ids=["default", "lossy-fast-cbr", "wide-ctl-narrow-flow"])
def test_neighborhood_load_matches_a_recount_of_the_trace(kw):
    """Each load query equals the rounds and data transmissions in the
    neighborhood, counted afresh from the records written so far."""
    sc = make_scenario(**kw)
    sim = Simulation(sc)
    load = sim._neighborhood_load
    seen = []

    def recount(i, now):
        nbhd = {i, *sim.neighbors[i]}
        ctl_cut = now - sc.ctl_window_s
        flow_cut = now - sc.flow_window_s
        rounds = data = 0
        for rec in reversed(sim.records):      # records are time-sorted
            if rec.time <= min(ctl_cut, flow_cut):
                break
            if rec.node not in nbhd:
                continue
            if rec.kind in (HELLO_ROUND, ECHO_PROBE):
                rounds += rec.time > ctl_cut
            elif rec.kind == FORWARD or (
                    rec.kind == DROP
                    and detail_fields(rec.detail)["reason"] == "loss"):
                data += rec.time > flow_cut
        got = load(i, now)
        assert got == float(rounds + data), (i, now, rounds, data)
        seen.append(data)
        return got
    sim._neighborhood_load = recount
    sim.run()
    assert len(seen) > 200
    assert sum(d > 0 for d in seen) > 50    # data load is exercised too
