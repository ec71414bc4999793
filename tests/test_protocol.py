"""Forwarding-rule, table-maintenance and value-type checks against
hand-computed values, and the package's public names."""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import fields
from types import SimpleNamespace

import pytest

import dartsim
from dartsim import protocol
from dartsim.metrics import HELLO_ROUND
from dartsim.protocol import (
    SPENT,
    DataPacket,
    ForwardingEntry,
    NodeState,
    decide_forward,
    on_data_arrival_update,
    record_echo_rtts,
)
from dartsim.scenario import Scenario
from dartsim.simkernel import Simulation, channel, retries
from forwarding_oracle import brute_force

SINK = (0.0, 0.0)


def make_state(my_id=1, dist_to_sink=300.0):
    return NodeState(my_id=my_id, dist_to_sink=dist_to_sink)


def add_neighbor(state, nid, dist_to_sink, link_delay):
    state.forwarding_table[nid] = ForwardingEntry(
        dist_to_sink=dist_to_sink, link_delay=link_delay)


def make_packet(source_id=1, t_l=0.006, is_duplicate=False):
    return DataPacket(event_id=1, source_id=source_id, t_l=t_l,
                      created_at=0.0, is_duplicate=is_duplicate)


# ---------------------------------------------------------------- equations

def test_echo_reply_with_a_non_positive_rtt_leaves_the_link_unmeasured():
    # the pending probe is cleared and counted; the row stays unmeasured
    state = make_state()
    add_neighbor(state, 2, 100.0, 0.0)
    for rtt in (0.0, -0.001):
        assert reply(state, (2, rtt)) == 1
        assert state.forwarding_table[2].link_delay == 0.0


def test_hop_delay_scales_with_the_attempt_count():
    # 1 ms MAC + 2 queued sends at 1000/s + 3 ms transmission, per attempt
    sc = Scenario(base_mac_delay_ms=1.0, contention_coeff_ms=0.0,
                  jitter_ms=0.0, queue_service_rate=1000.0, tx_delay_ms=3.0,
                  loss=0.5, max_retries=4)
    no_draws = SimpleNamespace(random=None)   # no jitter: nothing is drawn
    delay = channel(sc, no_draws)(0.0, 1.0)(deque([1.0, 1.0]))
    for values, n in (([0.9], 1), ([0.0, 0.9], 2)):
        draws = SimpleNamespace(random=iter(values).__next__)
        # the first try inline, as the kernel draws it, then retry()
        assert (1 if draws.random() >= sc.loss else retries(sc, draws)()) == n
        assert delay * n == (0.001 + 0.002 + 0.003) * n
    assert delay * 2 == 0.012


def test_decide_forward_requires_distance_over_budget():
    assert decide_forward(make_state(), make_packet(t_l=0.006)).v_req == 50000.0
    at_sink = make_state(dist_to_sink=0.0)
    assert decide_forward(at_sink, make_packet(t_l=0.006)).v_req == 0.0


def test_decide_forward_with_no_budget_left_is_spent():
    state = make_state()
    add_neighbor(state, 2, 200.0, 0.001)
    for t_l in (0.0, -0.001):
        d = decide_forward(state, make_packet(t_l=t_l))
        assert d is SPENT and d.v_req == math.inf


def test_decide_forward_provided_speed_is_progress_over_link_delay():
    # 100 m of progress over a 2 ms link provides 50000 m/s: the neighbor
    # qualifies when 50000 m/s is required, not when a few ulps more is
    state = make_state()
    add_neighbor(state, 2, 200.0, 0.002)
    at = decide_forward(state, make_packet(t_l=0.006))
    above = decide_forward(state, make_packet(t_l=0.006 * (1.0 - 1e-15)))
    assert at.v_req == 50000.0 and at.primary_next_hop == 2
    assert above.v_req > 50000.0 and above.primary_next_hop is None


def test_decide_forward_routes_nowhere_over_an_unmeasured_link():
    # an unmeasured row offers no speed: skipped, not an error
    state = make_state()
    add_neighbor(state, 2, 200.0, 0.0)
    d = decide_forward(state, make_packet(t_l=0.006))
    assert d == (None, None, 50000.0)


# -------------------------------------------------------------- value types

def test_data_packet_defaults():
    pkt = DataPacket(event_id=7, source_id=3, t_l=0.006, created_at=12.5)
    assert pkt.hop_count == 0
    assert not pkt.is_duplicate


@pytest.mark.parametrize("name", ["event_id", "source_id", "t_l",
                                  "created_at", "hop_count", "is_duplicate"])
def test_data_packet_fields_cannot_be_assigned(name):
    pkt = DataPacket(event_id=7, source_id=3, t_l=0.006, created_at=12.5)
    with pytest.raises(AttributeError):
        setattr(pkt, name, 0)


def test_forwarding_entry_starts_unmeasured():
    e = ForwardingEntry(dist_to_sink=10.0)
    assert e.link_delay == 0.0


def test_public_names_resolve_and_are_sorted():
    assert dartsim.__all__ == sorted(dartsim.__all__)
    for name in dartsim.__all__:
        assert getattr(dartsim, name) is not None


# ------------------------------------------------------- table maintenance

def hello_pair(loss=0.0, seed=12):
    """Two nodes 200 m apart, node 0 the sink, ready for HELLO rounds."""
    sim = Simulation(Scenario(nodes=2, placement="explicit", cbr_count=0,
                              positions=[(0.0, 0.0), (200.0, 0.0)],
                              loss=loss, seed=seed))
    return sim, [state.forwarding_table for state in sim.states]


def test_hello_inserts_unknown_neighbor_and_acks():
    sim, (sink_table, table) = hello_pair()
    sim._on_hello_round(1.0, 1, False)
    assert sim.records[-1][1:] == (HELLO_ROUND, 1, -1, "acks=1")
    # the HELLO teaches the sink node 1; the ACK teaches node 1 the sink
    assert sink_table == {1: ForwardingEntry(200.0, 0.0)}
    assert table == {0: ForwardingEntry(0.0, 0.0)}


def test_repeated_hello_is_idempotent():
    sim, tables = hello_pair()
    sim._on_hello_round(1.0, 1, False)
    rows = [dict(table) for table in tables]
    for k, i in enumerate((1, 0, 1, 0)):
        sim._on_hello_round(2.0 + k, i, False)
    assert [len(table) for table in tables] == [1, 1]
    for table, before in zip(tables, rows):
        assert all(table[nid] is row for nid, row in before.items())


def test_hello_refresh_keeps_link_delay():
    # a repeat leaves the known row itself alone, even if it differed
    sim, (sink_table, table) = hello_pair()
    table[0] = entry = ForwardingEntry(dist_to_sink=7.0, link_delay=0.003)
    for k, i in enumerate((0, 1, 0, 1)):
        sim._on_hello_round(1.0 + k, i, False)
    assert table == {0: entry}
    assert (entry.dist_to_sink, entry.link_delay) == (7.0, 0.003)
    assert sink_table[1] == ForwardingEntry(200.0, 0.0)


def test_hello_ack_handshake_populates_both_sides():
    """Over a lossy channel the HELLO and its ACK each teach one side:
    the sink learns node 1 when the HELLO got through, and node 1 learns
    the sink only when an ACK did, which then counts in acks=."""
    sim, (sink_table, table) = hello_pair(loss=0.5)
    acked = False
    for k in range(40):
        sim._on_hello_round(1.0 + k, 1, False)
        acked = acked or sim.records[-1].detail == "acks=1"
        assert (0 in table) == acked
        if acked:
            assert 1 in sink_table
    assert acked
    assert sink_table[1].dist_to_sink == math.dist((200.0, 0.0), SINK)
    assert table[0].dist_to_sink == 0.0


def test_node_state_holds_its_id_distance_table_and_pending_echoes():
    """The rule is distance-based: a node keeps no position of its own;
    best only caches the ranking of its table, and pending holds the
    echoes still due, so two states compare by id, distance and table."""
    assert [f.name for f in fields(NodeState)] == [
        "my_id", "dist_to_sink", "forwarding_table", "best", "pending"]
    best, pending = fields(NodeState)[-2:]
    assert best.default is None and not best.compare and not best.repr
    assert pending.default_factory is set
    assert not pending.compare and not pending.repr
    assert not hasattr(make_state(), "__dict__")          # slots
    assert not hasattr(protocol, "distance")
    assert not hasattr(protocol, "NodePos")


def test_table_never_contains_self():
    sim, tables = hello_pair(loss=0.3)
    for k in range(20):
        sim._on_hello_round(1.0 + k, k % 2, False)
    assert [list(table) for table in tables] == [[1], [0]]


# --------------------------------------------------------- echo smoothing

def reply(state, *samples, alpha=0.5):
    """One echo reply whose (neighbor, rtt) samples are all still pending."""
    state.pending.update(j for j, _ in samples)
    return record_echo_rtts(state, list(samples), alpha)


def test_first_echo_sample_is_stored_directly():
    state = make_state()
    add_neighbor(state, 2, 100.0, 0.0)
    reply(state, (2, 0.004))
    assert state.forwarding_table[2].link_delay == 0.002


def test_second_echo_sample_is_smoothed():
    state = make_state()
    add_neighbor(state, 2, 100.0, 0.0)
    reply(state, (2, 0.004))
    reply(state, (2, 0.008))
    # 0.5 * 0.004 + 0.5 * 0.002
    assert state.forwarding_table[2].link_delay == pytest.approx(0.003, rel=1e-12)


def test_bad_rtt_keeps_previous_estimate():
    state = make_state()
    add_neighbor(state, 2, 100.0, 0.0)
    reply(state, (2, 0.004))
    reply(state, (2, 0.0))
    reply(state, (2, -1.0))
    assert state.forwarding_table[2].link_delay == 0.002


def test_echo_for_unknown_neighbor_is_ignored():
    state = make_state()
    reply(state, (9, 0.004))
    assert state.forwarding_table == {}


def test_echo_sample_for_a_neighbor_no_longer_pending_is_skipped():
    state = make_state()
    add_neighbor(state, 2, 100.0, 0.0)
    add_neighbor(state, 3, 120.0, 0.001)
    state.pending.add(2)
    applied = record_echo_rtts(state, [(3, 0.004), (2, 0.006)], alpha=0.5)
    assert applied == 1
    assert state.pending == set()
    assert state.forwarding_table[3].link_delay == 0.001   # untouched
    assert state.forwarding_table[2].link_delay == 0.003
    # a second reply finds nothing pending: no state, no count
    assert record_echo_rtts(state, [(2, 0.008)], alpha=0.5) == 0
    assert state.pending == set()
    assert state.forwarding_table[2].link_delay == 0.003


def test_echo_reply_counts_exactly_the_probes_it_removes():
    rng = random.Random(17)
    for _ in range(300):
        state = make_state()
        for nid in range(2, 10):
            if rng.random() < 0.7:
                add_neighbor(state, nid, 100.0, rng.choice([0.0, 0.002]))
        state.pending = {nid for nid in range(2, 12) if rng.random() < 0.6}
        before = set(state.pending)
        sampled = rng.sample(range(2, 12), rng.randint(0, 10))
        measurements = [(j, rng.choice([-1.0, 0.0, rng.uniform(1e-4, 1e-2)]))
                        for j in sampled]
        applied = record_echo_rtts(state, measurements, alpha=0.3)
        assert state.pending == before - set(sampled)
        assert applied == len(before) - len(state.pending)


def test_first_echo_sample_is_half_the_rtt_exactly():
    rng = random.Random(18)
    for _ in range(500):
        rtt = rng.choice([rng.uniform(1e-9, 1.0), rng.expovariate(1e3),
                          5e-324, 1e300])
        state = make_state()
        add_neighbor(state, 2, 100.0, 0.0)
        assert reply(state, (2, rtt), alpha=rng.random()) == 1
        assert state.forwarding_table[2].link_delay == rtt / 2.0


# ------------------------------------------------------------- forwarding

def test_decide_forward_boundary_speed_is_eligible():
    state = make_state()
    add_neighbor(state, 2, 200.0, 0.002)  # provided exactly 50000 = required
    d = decide_forward(state, make_packet())
    assert d.primary_next_hop == 2
    assert d.v_req == 50000.0


def test_decide_forward_source_duplicates_to_runner_up():
    state = make_state()
    add_neighbor(state, 5, 240.0, 0.001)   # 60000 m/s
    add_neighbor(state, 2, 190.0, 0.002)   # 55000 m/s
    add_neighbor(state, 9, 40.0, 0.005)    # 52000 m/s
    d = decide_forward(state, make_packet(source_id=1))
    assert d.primary_next_hop == 5
    assert d.duplicate_next_hop == 2


def test_decide_forward_duplicates_to_a_runner_up_at_exactly_the_speed():
    # exact binary values: v_req = 256 / 0.5 = 512 = (256 - 192) / 0.125
    state = make_state(dist_to_sink=256.0)
    add_neighbor(state, 5, 128.0, 0.125)   # 1024 m/s
    add_neighbor(state, 2, 192.0, 0.125)   # 512 m/s, the required speed
    d = decide_forward(state, make_packet(source_id=1, t_l=0.5))
    assert d == (5, 2, 512.0)


def test_decide_forward_intermediate_never_duplicates():
    state = make_state()
    add_neighbor(state, 5, 240.0, 0.001)
    add_neighbor(state, 2, 190.0, 0.002)
    d = decide_forward(state, make_packet(source_id=7))
    assert d.primary_next_hop == 5
    assert d.duplicate_next_hop is None


def test_decide_forward_duplicate_copy_is_not_reduplicated():
    state = make_state()
    add_neighbor(state, 5, 240.0, 0.001)
    add_neighbor(state, 2, 190.0, 0.002)
    d = decide_forward(state, make_packet(source_id=1, is_duplicate=True))
    assert d.primary_next_hop == 5
    assert d.duplicate_next_hop is None


def test_decide_forward_single_eligible_neighbor_no_duplicate():
    state = make_state()
    add_neighbor(state, 5, 240.0, 0.001)
    d = decide_forward(state, make_packet(source_id=1))
    assert d.primary_next_hop == 5
    assert d.duplicate_next_hop is None


def test_decide_forward_speed_tie_breaks_to_lower_id():
    state = make_state()
    add_neighbor(state, 8, 200.0, 0.002)
    add_neighbor(state, 3, 200.0, 0.002)
    d = decide_forward(state, make_packet(source_id=7))
    assert d.primary_next_hop == 3


def test_decide_forward_skips_unmeasured_and_farther_neighbors():
    state = make_state()
    add_neighbor(state, 2, 10.0, 0.0)     # huge progress but unmeasured
    add_neighbor(state, 3, 350.0, 0.001)  # farther from the sink than us
    d = decide_forward(state, make_packet())
    assert d.primary_next_hop is None
    assert d.duplicate_next_hop is None


def test_decide_forward_empty_table_yields_none():
    state = make_state()
    d = decide_forward(state, make_packet())
    assert d.primary_next_hop is None


def test_decide_forward_too_slow_neighbor_is_rejected():
    state = make_state()
    add_neighbor(state, 2, 200.0, 0.0021)  # 47619 m/s < 50000 m/s required
    d = decide_forward(state, make_packet())
    assert d.primary_next_hop is None


def test_decide_forward_spent_budget_reports_infinite_requirement():
    state = make_state()
    add_neighbor(state, 2, 200.0, 0.001)
    d = decide_forward(state, make_packet(t_l=0.0))
    assert d.primary_next_hop is None
    assert math.isinf(d.v_req)


# -------------------------------------------------------- arrival updates

def test_arrival_update_decrements_budget_and_counts_hop():
    pkt = make_packet(t_l=0.006)
    out = on_data_arrival_update(pkt, 0.001)
    assert out.t_l == pytest.approx(0.005, abs=1e-15)
    assert out.hop_count == 1


def test_arrival_update_clamps_at_zero():
    pkt = make_packet(t_l=0.0005)
    out = on_data_arrival_update(pkt, 0.001)
    assert out.t_l == 0.0


def test_arrival_update_leaves_its_input_unchanged_and_carries_the_rest():
    def packet():
        return DataPacket(event_id=9, source_id=4, t_l=0.004,
                          created_at=3.25, hop_count=2, is_duplicate=True)
    pkt = packet()
    out = on_data_arrival_update(pkt, 0.001)
    assert pkt == packet()
    assert (out.event_id, out.source_id, out.created_at,
            out.is_duplicate) == (9, 4, 3.25, True)
    assert (out.t_l, out.hop_count) == (0.004 - 0.001, 3)


@pytest.mark.parametrize("name", ["primary_next_hop", "duplicate_next_hop",
                                  "v_req"])
def test_forward_decision_fields_cannot_be_assigned(name):
    state = make_state()
    add_neighbor(state, 2, 200.0, 0.001)
    d = decide_forward(state, make_packet())
    with pytest.raises(AttributeError):
        setattr(d, name, 0)


# -------------------------------------------------- brute-force decision oracle

def test_decide_forward_matches_oracle_on_random_tables():
    rng = random.Random(42)
    for trial in range(300):
        my_pos = (rng.uniform(0, 600), rng.uniform(0, 400))
        state = make_state(my_id=100, dist_to_sink=math.dist(my_pos, SINK))
        positions = {}
        for nid in range(rng.randint(0, 8)):
            pos = positions[nid] = (rng.uniform(0, 600), rng.uniform(0, 400))
            delay = rng.choice([0.0, rng.uniform(1e-4, 5e-3)])
            state.forwarding_table[nid] = ForwardingEntry(
                dist_to_sink=math.dist(pos, SINK), link_delay=delay)
        source_id = rng.choice([100, 55])
        pkt = make_packet(source_id=source_id,
                          t_l=rng.uniform(0.001, 0.02),
                          is_duplicate=rng.random() < 0.3)
        got = decide_forward(state, pkt)
        want_primary, want_duplicate, _ = brute_force(
            state, pkt, my_pos, SINK, positions)
        assert got.primary_next_hop == want_primary
        assert got.duplicate_next_hop == want_duplicate


def test_decide_forward_matches_oracle_over_table_histories():
    """Learning, echo replies and decisions interleaved on one node: each
    decision equals a fresh scan of the table as it stands."""
    rng = random.Random(43)
    decisions = 0
    for _ in range(200):
        my_pos = (rng.uniform(0, 600), rng.uniform(0, 400))
        d_here = math.dist(my_pos, SINK)
        state = make_state(my_id=100, dist_to_sink=d_here)
        positions = {}
        for _ in range(40):
            op = rng.random()
            if op < 0.25:
                pos = (rng.uniform(0, 600), rng.uniform(0, 400))
                nid = rng.randrange(12)
                if nid not in state.forwarding_table:  # as a HELLO inserts
                    positions[nid] = pos
                    state.forwarding_table[nid] = ForwardingEntry(
                        math.dist(pos, SINK))
            elif op < 0.5:
                known = list(state.forwarding_table)
                state.pending.update(
                    rng.sample(known, rng.randint(0, len(known))))
                samples = [(nid, rng.choice([0.0, rng.uniform(1e-4, 1e-2)]))
                           for nid in rng.sample(range(12), rng.randint(0, 4))]
                record_echo_rtts(state, samples, alpha=0.3)
            else:
                pkt = make_packet(source_id=rng.choice([100, 55]),
                                  t_l=rng.choice([0.0, rng.uniform(1e-3, 2e-2)]),
                                  is_duplicate=rng.random() < 0.3)
                got = decide_forward(state, pkt)
                assert got[:2] == brute_force(state, pkt, my_pos, SINK,
                                              positions)[:2]
                decisions += 1
    assert decisions > 3000
