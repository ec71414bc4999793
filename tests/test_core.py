"""Value-type checks: packets, table rows and the package's public names."""

from __future__ import annotations

import pytest

import dartsim
from dartsim.protocol import DataPacket, ForwardingEntry


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
