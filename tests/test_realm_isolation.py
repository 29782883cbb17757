"""Stage-level tests for the isolation block (driven directly)."""

import pytest

from repro.axi import ARBeat, AWBeat, AxiBundle, BBeat, RBeat, WBeat
from repro.realm import IsolationMode, IsolationStage, WireBundle
from repro.sim import Simulator


class Harness:
    """Ticks a lone isolation stage between a bundle and a wire bundle."""

    def __init__(self):
        self.sim = Simulator()
        self.up = AxiBundle(self.sim, "up")
        self.down = WireBundle("down")
        self.stage = IsolationStage(self.up, self.down)

    def cycle(self, n=1):
        for _ in range(n):
            self.stage.tick_request(self.sim.cycle)
            self.stage.tick_response(self.sim.cycle)
            # Drain request wires (downstream always ready).
            self.taken = {}
            for name in ("aw", "w", "ar"):
                wire = getattr(self.down, name)
                if wire.can_recv():
                    self.taken[name] = wire.recv()
            self.sim.step()


def test_pass_mode_forwards_and_counts():
    h = Harness()
    h.up.aw.send(AWBeat(id=0, addr=0, beats=2, size=3))
    h.up.ar.send(ARBeat(id=0, addr=0, beats=1, size=3))
    h.sim.step()
    h.cycle()
    assert h.stage.outstanding_writes == 1
    assert h.stage.outstanding_reads == 1
    assert h.stage.outstanding == 2


def test_responses_decrement_outstanding():
    h = Harness()
    h.up.ar.send(ARBeat(id=0, addr=0, beats=1, size=3))
    h.sim.step()
    h.cycle()
    h.down.r.send(RBeat(id=0, last=True))
    h.cycle()
    assert h.stage.outstanding_reads == 0
    assert h.up.r.can_recv()


def test_isolate_blocks_new_addresses():
    h = Harness()
    h.stage.request_isolate("user")
    h.up.aw.send(AWBeat(id=0, addr=0, beats=1, size=3))
    h.sim.step()
    h.cycle(3)
    assert not h.down.aw.can_recv()
    assert h.stage.blocked_aw > 0
    assert h.stage.isolated  # nothing outstanding: immediately isolated


def test_isolate_drains_before_reporting_isolated():
    h = Harness()
    h.up.ar.send(ARBeat(id=0, addr=0, beats=1, size=3))
    h.sim.step()
    h.cycle()  # AR forwarded: 1 outstanding
    h.stage.request_isolate("user")
    h.cycle()
    assert h.stage.mode == IsolationMode.DRAINING
    h.down.r.send(RBeat(id=0, last=True))
    h.cycle()
    assert h.stage.isolated


def test_w_data_of_forwarded_burst_flows_while_draining():
    h = Harness()
    h.up.aw.send(AWBeat(id=0, addr=0, beats=2, size=3))
    h.sim.step()
    h.cycle()  # AW forwarded; W burst now owed
    h.stage.request_isolate("user")
    h.up.w.send(WBeat(last=False))
    h.sim.step()
    h.cycle()
    assert "w" in h.taken  # data still flowed
    h.up.w.send(WBeat(last=True))
    h.sim.step()
    h.cycle()
    h.down.b.send(BBeat(id=0))
    h.cycle()
    assert h.stage.isolated


def test_multiple_reasons_all_must_release():
    h = Harness()
    h.stage.request_isolate("user")
    h.stage.request_isolate("budget")
    h.stage.release("user")
    assert h.stage.mode != IsolationMode.PASS
    h.stage.release("budget")
    assert h.stage.mode == IsolationMode.PASS


def test_isolation_events_counted_once_per_engagement():
    h = Harness()
    h.stage.request_isolate("a")
    h.stage.request_isolate("b")  # already engaged: no second event
    assert h.stage.isolation_events == 1
    h.stage.release("a")
    h.stage.release("b")
    h.stage.request_isolate("a")
    assert h.stage.isolation_events == 2
