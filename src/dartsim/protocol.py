"""Node-local routing state and the deadline-driven forwarding rule.

Each node learns its neighbors from the beacons exchanged in HELLO
rounds (a node's HELLO and its ACKs carry the same constant beacon) and
keeps a per-neighbor link delay estimate refreshed by periodic echo
probes.  A data packet carries a shrinking time budget; it is handed to
the neighbor that is closer to the sink and offers the highest progress
speed, provided that speed covers what the remaining budget demands.
At the packet's source a second copy goes to the runner-up neighbor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .core import Beacon, DataPacket, ForwardingEntry, NodeId


class NoBudget(Exception):
    """The packet's remaining time budget is already spent."""


@dataclass
class NodeState:
    """Everything one node knows: its id, sink distance and neighbor table.

    The forwarding table is keyed by neighbor id, so there is never more
    than one row per neighbor, and the node itself is never inserted.
    Nodes never move, so the kernel computes dist_to_sink once, from the
    topology.  The decision logic is fully deterministic.
    """

    my_id: NodeId
    dist_to_sink: float
    forwarding_table: dict[NodeId, ForwardingEntry] = field(default_factory=dict)


class ForwardDecision(NamedTuple):
    """Outcome of one forwarding decision.

    v_req is infinite when the budget was already spent.
    """

    primary_next_hop: Optional[NodeId]
    duplicate_next_hop: Optional[NodeId]
    v_req: float


def make_beacon(state: NodeState) -> Beacon:
    """Build this node's beacon, sent as its HELLO and as its ACKs."""
    return Beacon(state.my_id, state.dist_to_sink)


def learn_neighbor(state: NodeState, beacon: Beacon) -> None:
    """Insert an unknown sender as an unmeasured row; a known row is kept.

    A beacon never changes, so a row already holds what a repeat would
    carry, and its link delay estimate is left alone.  The sender must
    not be the node itself.
    """
    table = state.forwarding_table
    if beacon.node_id not in table:
        table[beacon.node_id] = ForwardingEntry(beacon.dist_to_sink)


def estimate_link_delay(rtt: float) -> float:
    """One-way link delay from an echo round trip: half the RTT."""
    if rtt <= 0.0:
        raise ValueError("rtt must be positive")
    return rtt / 2.0


def record_echo_rtt(state: NodeState, neighbor_id: NodeId, rtt: float,
                    alpha: float) -> None:
    """Fold one echo RTT sample into a neighbor's link delay estimate.

    Non-positive samples and unknown neighbors are ignored, keeping the
    previous estimate.  After the first sample, new measurements are
    exponentially smoothed with weight alpha on the newest one.
    """
    entry = state.forwarding_table.get(neighbor_id)
    if entry is None or rtt <= 0.0:
        return
    sample = estimate_link_delay(rtt)
    if entry.link_delay > 0.0:
        sample = alpha * sample + (1.0 - alpha) * entry.link_delay
    entry.link_delay = sample


def synthesize_one_way_delay(c) -> float:
    """Total one-way delay from its components, scaled by attempts used."""
    return (c.mac_delay + c.queue_delay + c.tx_delay) * c.tx_count


def required_speed(dist_to_sink: float, time_left: float) -> float:
    """Progress speed (m/s) the remaining budget demands."""
    if time_left <= 0.0:
        raise NoBudget(f"no time budget left ({time_left!r} s)")
    return dist_to_sink / time_left


def provided_speed(dist_here: float, dist_neighbor: float,
                   link_delay: float) -> float:
    """Progress speed (m/s) a neighbor's link offers."""
    if link_delay <= 0.0:
        raise ValueError("link delay must be a positive measurement")
    return (dist_here - dist_neighbor) / link_delay


def decide_forward(state: NodeState, pkt: DataPacket) -> ForwardDecision:
    """Pick the next hop(s) for a packet held by this (non-sink) node.

    A neighbor is eligible when it is strictly closer to the sink than
    this node and its measured link sustains at least the required
    speed; equal speed qualifies.  The fastest eligible neighbor wins,
    ties going to the lower id.  Only the original copy at its source
    node fans out a duplicate, and only when a runner-up exists.
    """
    d_here = state.dist_to_sink
    try:
        v_req = required_speed(d_here, pkt.t_l)
    except NoBudget:
        return ForwardDecision(None, None, math.inf)

    ranked = []
    for nid, entry in state.forwarding_table.items():
        if entry.link_delay <= 0.0:
            continue  # not measured yet
        if entry.dist_to_sink >= d_here:
            continue
        v_prov = provided_speed(d_here, entry.dist_to_sink, entry.link_delay)
        if v_prov >= v_req:
            ranked.append((-v_prov, nid))
    if not ranked:
        return ForwardDecision(None, None, v_req)

    ranked.sort()
    primary = ranked[0][1]
    duplicate = None
    if (state.my_id == pkt.source_id and not pkt.is_duplicate
            and len(ranked) >= 2):
        duplicate = ranked[1][1]
    return ForwardDecision(primary, duplicate, v_req)


def on_data_arrival_update(pkt: DataPacket, traversed_link_delay: float) -> DataPacket:
    """Charge a traversed link against the packet's budget, count the hop."""
    return pkt._replace(t_l=max(0.0, pkt.t_l - traversed_link_delay),
                        hop_count=pkt.hop_count + 1)
