"""Node-local routing state and the deadline-driven forwarding rule.

Each node learns its neighbors from the beacons exchanged in HELLO
rounds (a node's HELLO and its ACKs carry the same constant beacon) and
keeps a per-neighbor link delay estimate refreshed by periodic echo
probes.  A data packet carries a shrinking time budget; it is handed to
the neighbor that is closer to the sink and offers the highest progress
speed, provided that speed covers what the remaining budget demands.
At the packet's source a second copy goes to the runner-up neighbor.
A link delay changes only when an echo reply is folded in, so each node
ranks its closer neighbors once per echo reply, not once per packet.

Packets and beacons are NamedTuples, cheap to build on every hop; a
changed copy of a packet is made with _replace.  Distances are meters,
times are seconds, speeds are meters per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

NodeId = int


class Beacon(NamedTuple):
    """What a node advertises to its neighbors: its id and sink distance.

    Nodes never move, so each node's beacon is a constant; it serves as
    both the HELLO broadcast and the ACK that answers one.
    """

    node_id: NodeId
    dist_to_sink: float


class DataPacket(NamedTuple):
    """An application packet with its end-to-end deadline bookkeeping.

    t_l is the remaining budget: the deadline granted at creation,
    reduced by each traversed link's delay.  A duplicate copy shares the
    event_id of the original.
    """

    event_id: int
    source_id: NodeId
    t_l: float
    created_at: float
    hop_count: int = 0
    is_duplicate: bool = False


@dataclass(slots=True)
class ForwardingEntry:
    """One neighbor row in a node's forwarding table, updated in place.

    The table's key is the neighbor id.  link_delay of 0.0 means the link
    has not been measured yet; such neighbors are never chosen as next
    hops.
    """

    dist_to_sink: float
    link_delay: float = 0.0


@dataclass
class NodeState:
    """Everything one node knows: its id, sink distance and neighbor table.

    The forwarding table is keyed by neighbor id, so there is never more
    than one row per neighbor, and the node itself is never inserted.
    Nodes never move, so the kernel computes dist_to_sink once, from the
    topology.  The decision logic is fully deterministic.

    best caches the two fastest (-v_prov, id) pairs over the measured
    rows closer to the sink, built by decide_forward on first use and
    reset to None by record_echo_rtts, the only writer of a link delay.
    Code that writes a link_delay by hand must set best to None.
    """

    my_id: NodeId
    dist_to_sink: float
    forwarding_table: dict[NodeId, ForwardingEntry] = field(default_factory=dict)
    best: Optional[list] = field(default=None, compare=False, repr=False)


class ForwardDecision(NamedTuple):
    """Outcome of one forwarding decision; v_req is the required speed."""

    primary_next_hop: Optional[NodeId]
    duplicate_next_hop: Optional[NodeId]
    v_req: float


# the one decision for a spent budget: the kernel tells its drop apart from
# a routing void by identity, so the budget is tested only in decide_forward
SPENT = ForwardDecision(None, None, math.inf)


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


def record_echo_rtts(state: NodeState, pending: set, measurements,
                     alpha: float) -> int:
    """Fold one echo reply's (neighbor_id, rtt) samples; return the count.

    Each neighbor still in pending is removed from it and counted.  A
    known neighbor's positive sample is stored, exponentially smoothed
    with weight alpha on it once the neighbor has an estimate.
    """
    table, before = state.forwarding_table, len(pending)
    for neighbor_id, rtt in measurements:
        if neighbor_id in pending:
            pending.remove(neighbor_id)
            entry = table.get(neighbor_id)
            if entry is not None and rtt > 0.0:
                sample = rtt / 2.0            # one way: half the round trip
                if entry.link_delay > 0.0:
                    sample = alpha * sample + (1.0 - alpha) * entry.link_delay
                entry.link_delay = sample
    state.best = None                     # rank again at the next packet
    return before - len(pending)


def decide_forward(state: NodeState, pkt: DataPacket) -> ForwardDecision:
    """Pick the next hop(s) for a packet held by this (non-sink) node.

    A neighbor is eligible when it is strictly closer to the sink than
    this node and its measured link sustains at least the required
    speed; equal speed qualifies.  The fastest eligible neighbor wins,
    ties going to the lower id.  Only the original copy at its source
    node fans out a duplicate, and only when a runner-up exists.  A
    packet whose budget is spent (t_l <= 0) gets SPENT.
    """
    if pkt.t_l <= 0.0:
        return SPENT
    d_here = state.dist_to_sink
    v_req = d_here / pkt.t_l              # the speed the budget demands
    best = state.best
    if best is None:                      # unranked since the last echo reply
        best = state.best = sorted(
            (-((d_here - entry.dist_to_sink) / entry.link_delay), nid)
            for nid, entry in state.forwarding_table.items()
            if entry.link_delay > 0.0 and entry.dist_to_sink < d_here)[:2]
    # sorted by falling speed, so the eligible neighbors are a prefix
    ranked = [nid for neg_v_prov, nid in best if -neg_v_prov >= v_req]
    if not ranked:
        return ForwardDecision(None, None, v_req)
    duplicate = None
    if (state.my_id == pkt.source_id and not pkt.is_duplicate
            and len(ranked) >= 2):
        duplicate = ranked[1]
    return ForwardDecision(ranked[0], duplicate, v_req)


def on_data_arrival_update(pkt: DataPacket, traversed_link_delay: float) -> DataPacket:
    """Charge a traversed link against the packet's budget, count the hop."""
    return pkt._replace(t_l=max(0.0, pkt.t_l - traversed_link_delay),
                        hop_count=pkt.hop_count + 1)
