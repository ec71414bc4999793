"""Property tests for the forwarding rule's structural guarantees."""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dartsim.protocol import (DataPacket, ForwardingEntry, NodeState,
                              decide_forward, on_data_arrival_update)

SINK = (0.0, 0.0)


def line_state(my_id, x, table_entries):
    state = NodeState(my_id=my_id,
                      dist_to_sink=math.dist((x, 0.0), SINK))
    for nid, nx, delay in table_entries:
        state.forwarding_table[nid] = ForwardingEntry(
            dist_to_sink=nx, link_delay=delay)
    return state


@st.composite
def line_topologies(draw):
    """A chain of nodes on the x axis, sink at the origin."""
    hops = draw(st.integers(min_value=1, max_value=6))
    xs = sorted(draw(st.lists(
        st.floats(min_value=1.0, max_value=700.0, allow_nan=False),
        min_size=hops, max_size=hops, unique=True)))
    delays = draw(st.lists(
        st.floats(min_value=1e-5, max_value=5e-3, allow_nan=False),
        min_size=hops, max_size=hops))
    t_set = draw(st.floats(min_value=1e-3, max_value=5e-2, allow_nan=False))
    return xs, delays, t_set


@given(line_topologies())
@settings(max_examples=200, deadline=None)
def test_eligible_chain_respects_budget_and_distance(topo):
    """Whenever every hop passes the speed check, the packet arrives in budget
    and the distance to the sink shrinks strictly at every hop."""
    xs, delays, t_set = topo
    # node ids: sink is 0, then 1..n from the sink outward; source is node n
    n = len(xs)
    pkt = DataPacket(event_id=1, source_id=n, t_l=t_set, created_at=0.0)
    spent = 0.0
    raw_t_l = t_set
    prev_dist = float("inf")
    for i in range(n, 0, -1):
        down_id = i - 1
        down_x = 0.0 if down_id == 0 else xs[down_id - 1]
        state = line_state(i, xs[i - 1], [(down_id, down_x, delays[i - 1])])
        d_here = math.dist((xs[i - 1], 0.0), SINK)
        assert state.dist_to_sink == d_here
        assert d_here < prev_dist
        prev_dist = d_here
        decision = decide_forward(state, pkt)
        if decision.primary_next_hop is None:
            return  # chain not speed-feasible; nothing to assert
        assert decision.primary_next_hop == down_id
        link = delays[i - 1]
        spent += link
        raw_t_l -= link
        pkt = on_data_arrival_update(pkt, link)
    # arrived at the sink: total time within the deadline, budget never
    # meaningfully overdrawn (a few ulps of slack for float division)
    assert spent <= t_set * (1.0 + 1e-9)
    assert raw_t_l >= -1e-12
    assert pkt.t_l >= 0.0
    assert pkt.hop_count == n


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_arrival_update_never_increases_budget(t_l, delay):
    pkt = DataPacket(event_id=1, source_id=1, t_l=t_l, created_at=0.0)
    out = on_data_arrival_update(pkt, delay)
    assert 0.0 <= out.t_l <= t_l


@given(st.integers(min_value=0, max_value=200), st.booleans(), st.booleans())
@settings(max_examples=100)
def test_duplication_happens_only_at_the_source(seed, at_source, dup_copy):
    rng = random.Random(seed)
    my_id = 50
    state = NodeState(my_id=my_id,
                      dist_to_sink=math.dist((rng.uniform(50, 600), 0.0),
                                             SINK))
    for nid in range(rng.randint(0, 8)):
        x = rng.uniform(0.0, 700.0)
        state.forwarding_table[nid] = ForwardingEntry(
            dist_to_sink=x, link_delay=rng.uniform(1e-4, 5e-3))
    pkt = DataPacket(event_id=1, source_id=my_id if at_source else 7,
                     t_l=0.01, created_at=0.0,
                     is_duplicate=dup_copy)
    decision = decide_forward(state, pkt)
    if decision.duplicate_next_hop is not None:
        assert at_source and not dup_copy
        assert decision.primary_next_hop is not None
        assert decision.duplicate_next_hop != decision.primary_next_hop
