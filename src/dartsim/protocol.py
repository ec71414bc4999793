"""Node-local routing state and the deadline-driven forwarding rule.

The kernel (simkernel) fills a node's table in HELLO rounds, where the
sender and each receiver insert an unmeasured ForwardingEntry for a peer
they do not know yet, and probes link delays with periodic echoes that
record_echo_rtts folds in; NodeState also holds the echoes still due.
A data packet carries a shrinking time budget; it is handed to the
neighbor that is closer to the sink and offers the highest progress
speed, provided that speed covers what the remaining budget demands.
At the packet's source a second copy goes to the runner-up neighbor.
A link delay changes only when an echo reply is folded in, so each node
ranks its closer neighbors once per echo reply, not once per packet.

Packets and decisions are NamedTuples.  The per-hop builders pass every
field to tuple.__new__, which skips the class's generated __new__ and
costs less than it or _replace.  Distances are meters, times are
seconds, speeds are meters per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

NodeId = int


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


@dataclass(slots=True)
class NodeState:
    """Everything one node knows: id, sink distance, table, pending echoes.

    The forwarding table is keyed by neighbor id, so there is never more
    than one row per neighbor, and the node itself is never inserted.
    Nodes never move, so the kernel computes dist_to_sink once, from the
    topology.  The decision logic is fully deterministic.

    best caches the two fastest (-v_prov, id) pairs over the measured
    rows closer to the sink, built by decide_forward on first use and
    reset to None by record_echo_rtts, the only writer of a link delay.
    Code that writes a link_delay by hand must set best to None.
    pending holds the probed neighbors whose echo sample is still due.
    """

    my_id: NodeId
    dist_to_sink: float
    forwarding_table: dict[NodeId, ForwardingEntry] = field(default_factory=dict)
    best: Optional[list] = field(default=None, compare=False, repr=False)
    pending: set = field(default_factory=set, compare=False, repr=False)


class ForwardDecision(NamedTuple):
    """Outcome of one forwarding decision; v_req is the required speed."""

    primary_next_hop: Optional[NodeId]
    duplicate_next_hop: Optional[NodeId]
    v_req: float


# the one decision for a spent budget: the kernel tells its drop apart from
# a routing void by identity, so the budget is tested only in decide_forward
SPENT = ForwardDecision(None, None, math.inf)


def record_echo_rtts(state: NodeState, measurements, alpha: float) -> int:
    """Fold one echo reply's (neighbor_id, rtt) samples; return the count.

    Each neighbor still in state.pending is removed from it and counted.
    A known neighbor's positive sample is stored, exponentially smoothed
    with weight alpha on it once the neighbor has an estimate.
    """
    table, pending = state.forwarding_table, state.pending
    before, beta = len(pending), 1.0 - alpha
    for neighbor_id, rtt in measurements:
        if neighbor_id in pending:
            pending.remove(neighbor_id)
            entry = table.get(neighbor_id)
            if entry is not None and rtt > 0.0:
                old = entry.link_delay        # one way: half the round trip
                entry.link_delay = (alpha * (rtt / 2.0) + beta * old
                                    if old > 0.0 else rtt / 2.0)
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
    if not (best and -best[0][0] >= v_req):
        return tuple.__new__(ForwardDecision, (None, None, v_req))
    duplicate = None
    if (state.my_id == pkt.source_id and not pkt.is_duplicate
            and len(best) >= 2 and -best[1][0] >= v_req):
        duplicate = best[1][1]
    return tuple.__new__(ForwardDecision, (best[0][1], duplicate, v_req))


def on_data_arrival_update(pkt: DataPacket, traversed_link_delay: float) -> DataPacket:
    """Charge a traversed link against the packet's budget, count the hop."""
    eid, src, t_l, created_at, hops, dup = pkt
    return tuple.__new__(DataPacket, (eid, src,
                                      max(0.0, t_l - traversed_link_delay),
                                      created_at, hops + 1, dup))
