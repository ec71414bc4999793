"""Shared value types: positions, packets, and forwarding table rows.

Everything here is a plain immutable value, except ForwardingEntry: a
node updates its table rows in place.  Packets and beacons are
NamedTuples, cheap to build on every hop; a changed copy of a packet is
made with _replace.  Distances are meters, times are seconds, speeds
are meters per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

NodeId = int


@dataclass(frozen=True)
class NodePos:
    """A planar position in meters."""

    x: float
    y: float


def distance(a: NodePos, b: NodePos) -> float:
    """Euclidean distance between two positions, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


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
