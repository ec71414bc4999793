"""Geometry and value-type checks for the core module."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dartsim
from dartsim.core import (
    DataPacket,
    ForwardingEntry,
    NodePos,
    distance,
)

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def test_distance_zero():
    assert distance(NodePos(0.0, 0.0), NodePos(0.0, 0.0)) == 0.0


def test_distance_pythagorean_triple():
    assert distance(NodePos(0.0, 0.0), NodePos(3.0, 4.0)) == 5.0


def test_distance_field_diagonal():
    # sqrt(600^2 + 400^2), frozen independently
    assert distance(NodePos(600.0, 400.0), NodePos(0.0, 0.0)) == 721.1102550927978


@given(coord, coord, coord, coord)
def test_distance_symmetry_is_exact(ax, ay, bx, by):
    a, b = NodePos(ax, ay), NodePos(bx, by)
    assert distance(a, b) == distance(b, a)


@given(coord, coord, coord, coord, coord, coord)
def test_distance_triangle_inequality(ax, ay, bx, by, cx, cy):
    a, b, c = NodePos(ax, ay), NodePos(bx, by), NodePos(cx, cy)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


@given(coord, coord, coord, coord)
def test_distance_non_negative(ax, ay, bx, by):
    assert distance(NodePos(ax, ay), NodePos(bx, by)) >= 0.0


def test_positions_are_hashable_values():
    assert NodePos(1.0, 2.0) == NodePos(1.0, 2.0)
    assert len({NodePos(1.0, 2.0), NodePos(1.0, 2.0)}) == 1


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
