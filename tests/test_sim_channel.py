"""Unit tests for registered valid/ready channels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Channel, Component, SimulationError, Simulator, drain


def make_channel(capacity=2):
    sim = Simulator()
    return sim, Channel(sim, "ch", capacity=capacity)


def test_send_visible_next_cycle_only():
    sim, ch = make_channel()
    ch.send("a")
    assert not ch.can_recv()
    sim.step()
    assert ch.can_recv()
    assert ch.peek() == "a"
    assert ch.recv() == "a"
    assert not ch.can_recv()


def test_fifo_order_preserved():
    sim, ch = make_channel(capacity=8)
    for i in range(5):
        ch.send(i)
    sim.step()
    assert drain(ch) == [0, 1, 2, 3, 4]


def test_can_send_respects_capacity():
    sim, ch = make_channel(capacity=2)
    ch.send(1)
    ch.send(2)
    assert not ch.can_send()
    with pytest.raises(SimulationError):
        ch.send(3)


def test_pop_does_not_free_space_same_cycle():
    # Determinism: the sender's view is the snapshot at the clock edge.
    sim, ch = make_channel(capacity=1)
    ch.send(1)
    sim.step()
    assert ch.recv() == 1
    assert not ch.can_send()  # freed space only visible after commit
    sim.step()
    assert ch.can_send()


def test_capacity_2_sustains_one_beat_per_cycle():
    """A skid-buffered channel must not halve throughput in steady state."""
    sim = Simulator()
    ch = Channel(sim, "ch", capacity=2)

    class Producer(Component):
        def __init__(self):
            super().__init__()
            self.n = 0

        def tick(self, cycle):
            if ch.can_send():
                ch.send(self.n)
                self.n += 1

    class Consumer(Component):
        def __init__(self):
            super().__init__()
            self.got = []

        def tick(self, cycle):
            if ch.can_recv():
                self.got.append(ch.recv())

    prod = sim.add(Producer())
    cons = sim.add(Consumer())
    sim.run(100)
    # one-cycle ramp-up, then one beat per cycle
    assert len(cons.got) >= 98
    assert cons.got == sorted(cons.got)


def test_throughput_independent_of_tick_order():
    """Consumer-before-producer must give the same count as the reverse."""
    counts = []
    for order in ("pc", "cp"):
        sim = Simulator()
        ch = Channel(sim, "ch", capacity=2)
        got = []

        class P(Component):
            def __init__(self):
                super().__init__()
                self.n = 0

            def tick(self, cycle):
                if ch.can_send():
                    ch.send(self.n)
                    self.n += 1

        class C(Component):
            def tick(self, cycle):
                if ch.can_recv():
                    got.append(ch.recv())

        if order == "pc":
            sim.add(P())
            sim.add(C())
        else:
            sim.add(C())
            sim.add(P())
        sim.run(50)
        counts.append(len(got))
    assert counts[0] == counts[1]


def test_peek_and_recv_on_empty_raise():
    _, ch = make_channel()
    with pytest.raises(SimulationError):
        ch.peek()
    with pytest.raises(SimulationError):
        ch.recv()


def test_occupancy_counts_pending_and_committed():
    sim, ch = make_channel(capacity=4)
    ch.send(1)
    assert ch.occupancy == 1
    sim.step()
    ch.send(2)
    assert ch.occupancy == 2


def test_stats_counters():
    sim, ch = make_channel(capacity=4)
    ch.send(1)
    ch.send(2)
    sim.step()
    ch.recv()
    assert ch.sent_total == 2
    assert ch.recv_total == 1
    assert ch.busy_cycles == 1


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, "bad", capacity=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=0, max_size=200))
def test_property_everything_sent_is_received_in_order(items):
    """No beat is ever lost, duplicated, or reordered."""
    sim = Simulator()
    ch = Channel(sim, "ch", capacity=3)
    sent = []
    got = []
    pending = list(items)

    class P(Component):
        def tick(self, cycle):
            if pending and ch.can_send():
                item = pending.pop(0)
                ch.send(item)
                sent.append(item)

    class C(Component):
        def tick(self, cycle):
            if ch.can_recv():
                got.append(ch.recv())

    sim.add(P())
    sim.add(C())
    sim.run(len(items) * 3 + 10)
    assert sent == list(items)
    assert got == list(items)


# ----------------------------------------------------------------------
# batch API: send_many / recv_up_to / move_to
# ----------------------------------------------------------------------
def test_send_many_is_one_commit_of_the_whole_run():
    sim = Simulator()
    ch = Channel(sim, "c", capacity=4)
    ch.send_many(["a", "b", "c"])
    assert ch.sent_total == 3
    assert not ch.can_recv()  # registered: visible only after the commit
    sim.step()
    assert [ch.recv() for _ in range(3)] == ["a", "b", "c"]


def test_send_many_respects_headroom():
    import pytest

    sim = Simulator()
    ch = Channel(sim, "c", capacity=2)
    with pytest.raises(SimulationError):
        ch.send_many([1, 2, 3])
    ch.send_many([])  # empty run is a no-op
    assert ch.sent_total == 0


def test_recv_up_to_drains_committed_beats_only():
    sim = Simulator()
    ch = Channel(sim, "c", capacity=4)
    ch.send_many([1, 2, 3])
    sim.step()
    ch.send(4)  # pending this cycle: must not be drained
    assert ch.recv_up_to(2) == [1, 2]
    assert ch.recv_up_to() == [3]
    assert ch.recv_up_to() == []
    assert ch.recv_total == 3


def test_batch_counters_match_per_beat_counters():
    sim = Simulator()
    a = Channel(sim, "a", capacity=4)
    b = Channel(sim, "b", capacity=4)
    a.send_many([1, 2, 3])
    for item in (1, 2, 3):
        b.send(item)
    sim.step()
    assert (a.sent_total, a.occupancy) == (b.sent_total, b.occupancy)
    assert a.recv_up_to() == [b.recv() for _ in range(3)]
    assert a.recv_total == b.recv_total


def test_move_to_relays_one_beat_with_full_accounting():
    sim = Simulator()
    src = Channel(sim, "src")
    dst = Channel(sim, "dst", capacity=1)
    assert not src.move_to(dst)  # nothing committed yet
    src.send("x")
    src.send("y")
    sim.step()
    assert src.move_to(dst)
    assert (src.recv_total, dst.sent_total) == (1, 1)
    assert not src.move_to(dst)  # dst headroom exhausted
    sim.step()
    assert dst.recv() == "x"
    sim.step()  # snapshot refresh: the freed slot becomes sendable
    assert src.move_to(dst, transform=str.upper)
    sim.step()
    assert dst.recv() == "Y"


def test_wire_move_to_hands_off_in_the_same_cycle():
    from repro.realm.wires import Wire

    a = Wire("a")
    b = Wire("b")
    assert not a.move_to(b)
    a.send("beat")
    assert a.move_to(b)
    assert a.can_send() and b.peek() == "beat"
    a.send("next")
    assert not a.move_to(b)  # b still full
