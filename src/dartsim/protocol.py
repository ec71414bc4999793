"""Node-local routing state and the deadline-driven forwarding rule.

Each node learns its neighbors through HELLO/ACK exchanges and keeps a
per-neighbor link delay estimate refreshed by periodic echo probes.  A
data packet carries a shrinking time budget; it is handed to the
neighbor that is closer to the sink and offers the highest progress
speed, provided that speed covers what the remaining budget demands.
At the packet's source a second copy goes to the runner-up neighbor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .core import (
    AckPacket,
    DataPacket,
    ForwardingEntry,
    HelloPacket,
    NodeId,
    NodePos,
    distance,
)

# weight of the newest RTT sample when smoothing link delay estimates
ECHO_ALPHA = 0.5


class NoBudget(Exception):
    """The packet's remaining time budget is already spent."""


@dataclass
class NodeState:
    """Everything one node knows: identity, geometry and its neighbor table.

    The forwarding table is keyed by neighbor id, so there is never more
    than one row per neighbor, and the node itself is never inserted.
    The decision logic is fully deterministic.
    """

    my_id: NodeId
    my_pos: NodePos
    sink_id: NodeId
    sink_pos: NodePos
    residual_energy: float = 100.0
    forwarding_table: dict[NodeId, ForwardingEntry] = field(default_factory=dict)


@dataclass(frozen=True)
class ForwardDecision:
    """Outcome of one forwarding decision.

    updated_t_l is the budget the packet will carry after traversing the
    primary link, predicted from that link's measured delay; it equals
    the packet's current budget when no next hop exists.  v_req is
    infinite when the budget was already spent.
    """

    primary_next_hop: Optional[NodeId]
    duplicate_next_hop: Optional[NodeId]
    v_req: float
    updated_t_l: float


def make_hello(state: NodeState) -> HelloPacket:
    """Build this node's discovery beacon."""
    return HelloPacket(source_id=state.my_id, source_pos=state.my_pos,
                       dist_to_sink=distance(state.my_pos, state.sink_pos))


def make_ack(state: NodeState) -> AckPacket:
    """Build this node's reply to a received HELLO."""
    return AckPacket(neighbor_id=state.my_id, neighbor_pos=state.my_pos,
                     dist_to_sink=distance(state.my_pos, state.sink_pos),
                     residual_energy=state.residual_energy)


def on_hello(state: NodeState, hello: HelloPacket) -> AckPacket:
    """Learn or refresh the HELLO sender, then answer with our own ACK.

    Position and advertised distance are refreshed; an existing link
    delay estimate and energy reading survive the refresh.  The sender
    must not be the node itself.
    """
    old = state.forwarding_table.get(hello.source_id)
    state.forwarding_table[hello.source_id] = ForwardingEntry(
        neighbor_id=hello.source_id,
        neighbor_pos=hello.source_pos,
        dist_to_sink=hello.dist_to_sink,
        link_delay=old.link_delay if old else 0.0,
        residual_energy=old.residual_energy if old else 0.0,
    )
    return make_ack(state)


def on_ack(state: NodeState, ack: AckPacket) -> None:
    """Fold an ACK into the table; the link delay estimate is untouched."""
    old = state.forwarding_table.get(ack.neighbor_id)
    state.forwarding_table[ack.neighbor_id] = ForwardingEntry(
        neighbor_id=ack.neighbor_id,
        neighbor_pos=ack.neighbor_pos,
        dist_to_sink=ack.dist_to_sink,
        link_delay=old.link_delay if old else 0.0,
        residual_energy=ack.residual_energy,
    )


def estimate_link_delay(rtt: float) -> float:
    """One-way link delay from an echo round trip: half the RTT."""
    if rtt <= 0.0:
        raise ValueError("rtt must be positive")
    return rtt / 2.0


def record_echo_rtt(state: NodeState, neighbor_id: NodeId, rtt: float,
                    alpha: float = ECHO_ALPHA) -> None:
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
    state.forwarding_table[neighbor_id] = replace(entry, link_delay=sample)


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
    d_here = distance(state.my_pos, state.sink_pos)
    try:
        v_req = required_speed(d_here, pkt.t_l)
    except NoBudget:
        return ForwardDecision(None, None, math.inf, pkt.t_l)

    ranked = []
    for entry in state.forwarding_table.values():
        if entry.link_delay <= 0.0:
            continue  # not measured yet
        if entry.dist_to_sink >= d_here:
            continue
        v_prov = provided_speed(d_here, entry.dist_to_sink, entry.link_delay)
        if v_prov >= v_req:
            ranked.append((-v_prov, entry.neighbor_id))
    if not ranked:
        return ForwardDecision(None, None, v_req, pkt.t_l)

    ranked.sort()
    primary = ranked[0][1]
    duplicate = None
    if (state.my_id == pkt.source_id and not pkt.is_duplicate
            and len(ranked) >= 2):
        duplicate = ranked[1][1]
    updated_t_l = pkt.t_l - state.forwarding_table[primary].link_delay
    return ForwardDecision(primary, duplicate, v_req, updated_t_l)


def on_data_arrival_update(pkt: DataPacket, traversed_link_delay: float) -> DataPacket:
    """Charge a traversed link against the packet's budget, count the hop."""
    return replace(pkt,
                   t_l=max(0.0, pkt.t_l - traversed_link_delay),
                   hop_count=pkt.hop_count + 1)
