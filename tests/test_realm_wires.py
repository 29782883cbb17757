"""Unit tests for same-cycle wires."""

import pytest

from repro.realm import Wire, WireBundle
from repro.sim import SimulationError


def test_wire_send_recv_same_cycle():
    w = Wire("w")
    assert w.can_send()
    w.send(42)
    assert not w.can_send()
    assert w.can_recv()
    assert w.peek() == 42
    assert w.recv() == 42
    assert w.can_send()


def test_wire_full_and_empty_errors():
    w = Wire("w")
    w.send(1)
    with pytest.raises(SimulationError):
        w.send(2)
    w.recv()
    with pytest.raises(SimulationError):
        w.recv()
    with pytest.raises(SimulationError):
        w.peek()


def test_wire_occupancy_and_reset():
    w = Wire("w")
    assert w.occupancy == 0
    w.send(1)
    assert w.occupancy == 1


def test_wire_bundle_has_five_channels():
    wb = WireBundle("link")
    assert len(wb.channels) == 5
