"""Unit tests for the simulation kernel."""

import pytest

from repro.sim import Channel, Component, SimulationError, Simulator

from helpers import every_boundary


class Counter(Component):
    def __init__(self):
        super().__init__("counter")
        self.ticks = 0
        self.seen_cycles = []

    def tick(self, cycle):
        self.ticks += 1
        self.seen_cycles.append(cycle)


def test_run_advances_cycle():
    sim = Simulator()
    assert sim.run(10) == 10
    assert sim.cycle == 10


def test_components_tick_once_per_cycle():
    sim = Simulator()
    c = sim.add(Counter())
    sim.run(5)
    assert c.ticks == 5
    assert c.seen_cycles == [0, 1, 2, 3, 4]


def test_adding_component_twice_raises():
    sim = Simulator()
    c = Counter()
    sim.add(c)
    with pytest.raises(SimulationError):
        sim.add(c)


def test_run_until_returns_cycle_condition_became_true():
    sim = Simulator()
    c = sim.add(Counter())
    cycle = sim.run_until(lambda: c.ticks >= 7)
    assert cycle == 7
    assert c.ticks == 7


def test_run_until_timeout_raises():
    sim = Simulator()
    with pytest.raises(SimulationError, match="timeout"):
        sim.run_until(lambda: False, max_cycles=10, what="never")


def test_boundary_hook_chain_runs_after_each_commit():
    sim = Simulator()
    seen = []
    every_boundary(sim, lambda cyc: seen.append(cyc))
    sim.run(3)
    assert seen == [0, 1, 2]


def test_find_component_by_name():
    sim = Simulator()
    c = sim.add(Counter())
    assert sim.find("counter") is c
    assert sim.find("nope") is None


def test_channel_registered_with_simulator_commits():
    sim = Simulator()
    ch = Channel(sim, "x")
    ch.send(1)
    assert not ch.can_recv()  # not committed yet
    sim.step()
    assert ch.can_recv()


# ----------------------------------------------------------------------
# active-set scheduling
# ----------------------------------------------------------------------
class Sleeper(Component):
    """Ticks only while it has work; sleeps when its inbox is empty."""

    def __init__(self, inbox):
        super().__init__("sleeper")
        self.inbox = inbox
        inbox.add_listener(self, "recv")  # pure receiver
        self.ticks = 0
        self.got = []

    def tick(self, cycle):
        self.ticks += 1
        while self.inbox.can_recv():
            self.got.append((cycle, self.inbox.recv()))

    def is_idle(self):
        return not self.inbox.can_recv()


def test_idle_component_is_not_ticked():
    sim = Simulator()
    ch = Channel(sim, "inbox")
    sleeper = sim.add(Sleeper(ch))
    sim.run(10)
    assert sleeper.ticks == 1  # initial tick, then asleep
    assert sleeper not in sim.active_components


def test_channel_event_wakes_receiver_next_cycle():
    sim = Simulator()
    ch = Channel(sim, "inbox")
    sleeper = sim.add(Sleeper(ch))
    sim.run(5)
    ch.send("ping")  # external event while the component sleeps
    sim.run(5)
    # The beat committed at cycle 5 and was consumed in cycle 6's tick,
    # exactly as if the component had been ticked every cycle.
    assert sleeper.got == [(6, "ping")]
    assert sleeper.ticks == 2


def test_wake_at_schedules_timed_wakeup():
    sim = Simulator()

    class Timed(Component):
        def __init__(self):
            super().__init__("timed")
            self.tick_cycles = []

        def tick(self, cycle):
            self.tick_cycles.append(cycle)
            self.wake_at(cycle + 7)

        def is_idle(self):
            return True

    timed = sim.add(Timed())
    sim.run(30)
    assert timed.tick_cycles == [0, 7, 14, 21, 28]


# ----------------------------------------------------------------------
# run loop: run and run_until share one loop; cover it from both
# ----------------------------------------------------------------------
ENTRIES = pytest.mark.parametrize("entry", ["run", "run_until"])


def _advance(entry, sim, cycles):
    """Advance *cycles* through *entry*.  ``run_until`` waits on a
    predicate that never holds, so it stops at its deadline by raising
    the timeout."""
    if entry == "run":
        assert sim.run(cycles) == sim.cycle
        return
    with pytest.raises(SimulationError, match="timeout"):
        sim.run_until(lambda: False, max_cycles=cycles, what="never")


@ENTRIES
def test_fast_forward_skips_quiescent_stretches(entry):
    sim = Simulator()
    ch = Channel(sim, "inbox")
    sim.add(Sleeper(ch))
    _advance(entry, sim, 10_000)
    assert sim.cycle == 10_000
    assert sim.cycles_fast_forwarded > 9_000


@ENTRIES
def test_run_loop_stops_exactly_at_limit(entry):
    sim = Simulator()
    counter = sim.add(Counter())
    sim.add(Sleeper(Channel(sim, "inbox")))
    _advance(entry, sim, 7)
    assert sim.cycle == 7
    assert counter.seen_cycles == list(range(7))


@ENTRIES
def test_poll_seam_runs_only_while_its_gate_is_open(entry):
    sim = Simulator()
    sim.add(Counter())
    inbox = []
    polls = []

    def poll():
        polls.append(sim.cycle)
        inbox.clear()

    sim.set_poll(poll, gate=inbox)
    _advance(entry, sim, 5)
    assert polls == []  # closed gate: the callback never runs
    inbox.append("command")
    _advance(entry, sim, 5)
    assert polls == [5]  # once, at the first commit boundary it saw
    sim.clear_poll()
    inbox.append("command")
    _advance(entry, sim, 5)
    assert polls == [5]


def test_fast_forward_still_fires_a_boundary_hook_chain_every_cycle():
    sim = Simulator()
    seen = []
    every_boundary(sim, seen.append)
    sim.run(1000)
    assert seen == list(range(1000))


def test_fast_forward_preserves_channel_busy_cycles():
    sim = Simulator()
    ch = Channel(sim, "inbox", capacity=4)
    sim.add(Sleeper(ch))

    class KeepOne(Component):
        """Holds one committed beat in a channel nobody consumes."""

    stale = Channel(sim, "stale")
    stale.send("x")
    sim.run(100)
    assert stale.busy_cycles == 100  # accounted across the fast-forward


def test_run_until_timeout_with_quiescent_system():
    sim = Simulator()
    ch = Channel(sim, "inbox")
    sim.add(Sleeper(ch))
    with pytest.raises(SimulationError, match="timeout"):
        sim.run_until(lambda: False, max_cycles=1_000_000, what="never")
    assert sim.cycle == 1_000_000  # fast-forwarded to the deadline


def test_naive_mode_ticks_everything():
    sim = Simulator(active_set=False)
    ch = Channel(sim, "inbox")
    sleeper = sim.add(Sleeper(ch))
    sim.run(10)
    assert sleeper.ticks == 10
    assert sim.cycles_fast_forwarded == 0


def test_default_component_stays_active():
    # Components without an is_idle override must tick every cycle.
    sim = Simulator()
    counter = sim.add(Counter())
    ch = Channel(sim, "inbox")
    sim.add(Sleeper(ch))
    sim.run(50)
    assert counter.ticks == 50


# ----------------------------------------------------------------------
# express routes (batched datapath)
# ----------------------------------------------------------------------
def test_express_route_forwards_middles_and_hands_back_the_boundary():
    from dataclasses import dataclass

    from repro.sim import Channel, ExpressRoute

    @dataclass
    class Beat:
        index: int
        last: bool = False

    class Owner(Component):
        def __init__(self):
            super().__init__("owner")
            self.ticks = 0

        def tick(self, cycle):
            self.ticks += 1

        def is_idle(self):
            return True  # only express completion/cancel wakes us

    sim = Simulator()
    owner = sim.add(Owner())
    src = Channel(sim, "src", capacity=8)
    dst = Channel(sim, "dst", capacity=8)
    src.add_listener(owner, "recv")
    dst.add_listener(owner, "send")
    order = ExpressRoute(src, dst, owner).install(sim)
    assert not src._recv_listeners  # suppressed while installed
    sim.run(1)  # drain the owner's initial activation tick
    src.send_many([Beat(0), Beat(1), Beat(2), Beat(3, last=True)])
    ticks_before = owner.ticks
    sim.run(4)
    # Three middles crossed without the owner ticking...
    assert len(dst._queue) + len(dst._pending) == 3
    assert owner.ticks == ticks_before
    # ...and the boundary beat cancelled the order and woke the owner.
    assert order not in sim._express
    assert src._recv_listeners == (owner,)  # subscription restored
    assert src.peek().last  # the boundary beat is left for the owner
    sim.run(1)
    assert owner.ticks > ticks_before
