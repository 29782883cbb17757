"""On-chip SRAM / scratchpad memory model.

Serves one read burst and one write burst at a time (independent read and
write ports, as a dual-ported scratchpad macro would).  Bursts stream at
one beat per cycle after a fixed access latency; this per-burst
serialisation at the subordinate is what turns a 256-beat DMA burst into a
~256-cycle blackout for every other manager, the contention mechanism the
paper's evaluation is built around.
"""

from __future__ import annotations

from typing import Optional

from repro.axi.beats import ARBeat, AWBeat, BBeat, RBeat
from repro.axi.ports import AxiBundle
from repro.axi.transaction import beat_addresses
from repro.axi.types import AtomicOp, BurstType, Resp, bytes_per_beat
from repro.mem.backing import BackingStore
from repro.sim.kernel import Component
from repro.sim.span import UNBOUNDED, SpanOffer, consume, produce


class SramMemory(Component):
    """Fixed-latency AXI subordinate backed by a byte array."""

    _STATE_FIELDS = (
        "_rd", "_rd_addrs", "_rd_index", "_rd_ready", "_rd_error",
        "_wr", "_wr_addrs", "_wr_index", "_wr_ready", "_wr_error",
        "_wr_done", "_atomic_r", "reads_served", "writes_served",
        "read_beats", "write_beats", "atomics_served",
    )

    def __init__(
        self,
        port: AxiBundle,
        base: int,
        size: int,
        name: str = "sram",
        read_latency: int = 1,
        write_latency: int = 1,
    ) -> None:
        super().__init__(name)
        if read_latency < 0 or write_latency < 0:
            raise ValueError("latencies must be non-negative")
        self.port = port
        self.store = BackingStore(base, size)
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.watch(port, role="device")

        # Read state machine.
        self._rd: Optional[ARBeat] = None
        self._rd_addrs: list[bytes] = []
        self._rd_index = 0
        self._rd_ready = 0  # first-serve cycle
        self._rd_error = False
        # Write state machine.
        self._wr: Optional[AWBeat] = None
        self._wr_addrs: list[int] = []
        self._wr_index = 0
        self._wr_ready = 0  # B-response cycle
        self._wr_error = False
        self._wr_done = False
        # Pending read-data response of an atomic operation (old value).
        self._atomic_r: Optional[RBeat] = None

        # Statistics.
        self.reads_served = 0
        self.writes_served = 0
        self.read_beats = 0
        self.write_beats = 0
        self.atomics_served = 0

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._tick_read(cycle)
        self._tick_write(cycle)

    def is_idle(self) -> bool:
        # A latency window's ticks are pure comparisons, so the memory
        # sleeps until the ready cycle, and through blocked ports until a
        # channel event.  W beats that arrive ahead of their AW are
        # ignored until the AW shows up, so they do not make it busy.
        port = self.port
        now = self._sim.cycle
        wake = None
        if self._atomic_r is not None:
            if port.r.can_send():
                return False
        elif self._rd is None:
            if port.ar.can_recv():
                return False
        elif now < self._rd_ready:
            wake = self._rd_ready
        elif port.r.can_send():
            return False
        if self._wr is None:
            if port.aw.can_recv():
                return False
        elif not self._wr_done:
            if port.w.can_recv():
                return False
        elif now < self._wr_ready:
            if wake is None or self._wr_ready < wake:
                wake = self._wr_ready
        elif port.b.can_send():
            return False
        if wake is not None:
            self.wake_at(wake)
        return True

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {**super().state_capture(), "store": self.store.state_capture()}

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self.store.state_restore(state["store"])

    # ------------------------------------------------------------------
    # span-replay (DESIGN.md section 11)
    # ------------------------------------------------------------------
    def span_offer(self, cycle: int, bound: int) -> Optional[SpanOffer]:
        """Linear mid-burst streaming on either port: consume one W beat
        and/or produce one R beat per cycle (or sit silently inside a
        latency window), with every burst boundary — AR/AW acceptance,
        last beat, B response, atomics — outside the span."""
        if self._atomic_r is not None:
            return None
        port = self.port
        flows = []
        horizon = UNBOUNDED
        r_template = None
        if self._rd is None:
            if port.ar._queue:
                return None  # an AR would be accepted this cycle
        elif cycle < self._rd_ready:
            # Latency window: ticks are no-ops until the serve cycle.
            horizon = min(horizon, self._rd_ready - cycle)
        else:
            beat = self._rd
            limit = min(beat.beats - 1 - self._rd_index, bound)
            if limit < 1:
                return None  # next R beat closes the burst
            nbytes = bytes_per_beat(beat.size)
            addr = self._rd_addrs[self._rd_index]
            data, resp = self._read_beat(addr, nbytes)
            r_template = RBeat(
                id=beat.id, data=data, resp=resp, last=False, txn=beat.txn,
            )
            horizon = min(horizon, self._r_horizon(limit, nbytes, data, resp))
            flows.append(produce(port.r, r_template))
        w_template = None
        if self._wr is None:
            if port.aw._queue:
                return None  # an AW would be accepted this cycle
        elif not self._wr_done:
            if port.w._queue:
                if self._wr.atop != AtomicOp.NONE:
                    return None
                w_template = port.w._queue[0]
                if w_template.last:
                    return None
                flows.append(consume(port.w, w_template))
            # else: waiting for write data, a pure no-op each tick.
        elif cycle < self._wr_ready:
            horizon = min(horizon, self._wr_ready - cycle)
        else:
            return None  # the B response would be sent this cycle
        if r_template is not None and w_template is not None:
            # Reads run before writes inside one tick; a closed-form
            # replay is only exact when the streams cannot interact.
            # W beats past the burst's length write its last address.
            wr_addrs = self._wr_addrs
            rd_lo, rd_hi = _extent(self._rd, self._rd_addrs, self._rd_index)
            wr_lo, wr_hi = _extent(
                self._wr, wr_addrs, min(self._wr_index, len(wr_addrs) - 1)
            )
            if (rd_lo < wr_hi + bytes_per_beat(self._wr.size)
                    and wr_lo < rd_hi + bytes_per_beat(self._rd.size)):
                return None

        wr_index = self._wr_index
        rd_index = self._rd_index

        def apply(n: int) -> None:
            if r_template is not None:
                self.read_beats += n
                self._rd_index = rd_index + n
            if w_template is not None:
                data, strb = w_template.data, w_template.strb
                if data is not None and not self._write_run(
                    wr_index, n, data, strb
                ):
                    addrs = self._wr_addrs
                    top = len(addrs) - 1
                    for j in range(wr_index, wr_index + n):
                        try:
                            self.store.write(addrs[min(j, top)], data, strb)
                        except IndexError:
                            self._wr_error = True
                self.write_beats += n
                self._wr_index = wr_index + n

        return SpanOffer(flows=tuple(flows), horizon=horizon, apply=apply)

    def _r_horizon(
        self, limit: int, nbytes: int, data: bytes, resp: Resp
    ) -> int:
        """How many of the next *limit* R beats repeat the first one's
        *data* and *resp*: one slice compare when they read one contiguous
        in-range run without error, else a per-beat scan."""
        addrs = self._rd_addrs
        start = self._rd_index
        if resp == Resp.OKAY:
            base = _run_base(addrs, start, limit, nbytes)
            if base is not None:
                try:
                    if self.store.read(base, limit * nbytes) == data * limit:
                        return limit
                except IndexError:
                    pass  # partly out of range: those beats are SLVERR
        horizon = 1
        for j in range(start + 1, start + limit):
            if self._read_beat(addrs[j], nbytes) != (data, resp):
                break
            horizon += 1
        return horizon

    def _write_run(self, start: int, n: int, data: bytes, strb: int) -> bool:
        """Write W beats ``start .. start + n - 1`` of the current burst in
        one slice assignment if they form one contiguous in-range run with
        every byte lane enabled; otherwise write nothing, return False."""
        nbytes = len(data)
        lanes = (1 << nbytes) - 1
        if not nbytes or (strb & lanes) != lanes:
            return False
        base = _run_base(self._wr_addrs, start, n, nbytes)
        if base is None:
            return False
        try:
            self.store.write_run(base, data, n)
        except IndexError:
            return False  # the per-beat loop writes the in-range beats
        return True

    def _read_beat(self, addr: int, nbytes: int) -> tuple[bytes, Resp]:
        """One R beat's payload and response, without side effects."""
        try:
            data = self.store.read(addr, nbytes)
            resp = Resp.OKAY
        except IndexError:
            data = bytes(nbytes)
            resp = Resp.SLVERR
        if self._rd_error:
            resp = Resp.SLVERR
        return data, resp

    # ------------------------------------------------------------------
    # read port
    # ------------------------------------------------------------------
    def _tick_read(self, cycle: int) -> None:
        if self._rd is None:
            # The read-data response of a completed atomic goes out when
            # the read port is otherwise idle, so R bursts stay contiguous.
            if self._atomic_r is not None:
                if self.port.r.can_send():
                    self.port.r.send(self._atomic_r)
                    self._atomic_r = None
                return
            if not self.port.ar.can_recv():
                return
            beat = self.port.ar.recv()
            self._rd = beat
            self._rd_index = 0
            self._rd_ready = cycle + self.read_latency + 1
            try:
                self._rd_addrs = beat_addresses(beat)
                self._rd_error = False
            except Exception:
                self._rd_addrs = [beat.addr] * beat.beats
                self._rd_error = True
            return
        if cycle < self._rd_ready or not self.port.r.can_send():
            return
        beat = self._rd
        addr = self._rd_addrs[self._rd_index]
        nbytes = bytes_per_beat(beat.size)
        try:
            data = self.store.read(addr, nbytes)
            resp = Resp.OKAY
        except IndexError:
            data = bytes(nbytes)
            resp = Resp.SLVERR
        if self._rd_error:
            resp = Resp.SLVERR
        last = self._rd_index == beat.beats - 1
        self.port.r.send(
            RBeat(id=beat.id, data=data, resp=resp, last=last, txn=beat.txn)
        )
        self.read_beats += 1
        self._rd_index += 1
        if last:
            self._rd = None
            self.reads_served += 1

    # ------------------------------------------------------------------
    # write port
    # ------------------------------------------------------------------
    def _tick_write(self, cycle: int) -> None:
        if self._wr is None:
            if not self.port.aw.can_recv():
                return
            beat = self.port.aw.recv()
            self._wr = beat
            self._wr_index = 0
            self._wr_done = False
            try:
                self._wr_addrs = beat_addresses(beat)
                self._wr_error = False
            except Exception:
                self._wr_addrs = [beat.addr] * beat.beats
                self._wr_error = True
            return
        if not self._wr_done:
            if not self.port.w.can_recv():
                return
            wbeat = self.port.w.recv()
            addr = self._wr_addrs[min(self._wr_index, len(self._wr_addrs) - 1)]
            if self._wr.atop != AtomicOp.NONE:
                self._apply_atomic(addr, wbeat)
            elif wbeat.data is not None:
                try:
                    self.store.write(addr, wbeat.data, wbeat.strb)
                except IndexError:
                    self._wr_error = True
            self.write_beats += 1
            self._wr_index += 1
            if wbeat.last:
                self._wr_done = True
                self._wr_ready = cycle + self.write_latency + 1
            return
        if cycle < self._wr_ready or not self.port.b.can_send():
            return
        resp = Resp.SLVERR if self._wr_error else Resp.OKAY
        self.port.b.send(BBeat(id=self._wr.id, resp=resp, txn=self._wr.txn))
        self.writes_served += 1
        self._wr = None

    # ------------------------------------------------------------------
    # atomics (AXI5-style AWATOP, single-beat)
    # ------------------------------------------------------------------
    def _apply_atomic(self, addr: int, wbeat) -> None:
        """Execute an atomic beat: read-modify-write the target location.

        Semantics: STORE and LOAD perform an atomic add (the most common
        ALU encoding); SWAP exchanges; LOAD and SWAP additionally return
        the old value on the R channel.  COMPARE is not supported and
        yields SLVERR, matching a subordinate without CAS support.
        """
        nbytes = len(wbeat.data) if wbeat.data else 8
        op = self._wr.atop
        if op == AtomicOp.COMPARE or wbeat.data is None:
            self._wr_error = True
            return
        try:
            old = self.store.read(addr, nbytes)
        except IndexError:
            self._wr_error = True
            return
        operand = int.from_bytes(wbeat.data, "little")
        old_value = int.from_bytes(old, "little")
        mask = (1 << (8 * nbytes)) - 1
        if op in (AtomicOp.STORE, AtomicOp.LOAD):
            new_value = (old_value + operand) & mask
        else:  # SWAP
            new_value = operand
        self.store.write(addr, new_value.to_bytes(nbytes, "little"))
        self.atomics_served += 1
        if op in (AtomicOp.LOAD, AtomicOp.SWAP):
            self._atomic_r = RBeat(
                id=self._wr.id, data=old, resp=Resp.OKAY, last=True,
                txn=self._wr.txn,
            )


def _extent(
    beat: ARBeat | AWBeat, addrs: list[int], start: int
) -> tuple[int, int]:
    """Lowest and highest of the non-empty ``addrs[start:]``.  INCR
    addresses rise from the first beat to the last, so their ends bound
    them without a scan."""
    if beat.burst == BurstType.INCR:
        return addrs[start], addrs[-1]
    rest = addrs[start:]
    return min(rest), max(rest)


def _run_base(
    addrs: list[int], start: int, count: int, stride: int
) -> Optional[int]:
    """First address of ``addrs[start:start + count]`` if those beats are
    back to back, *stride* bytes apart, else ``None``.

    Every step of a burst's address list has the same size (the beat
    width for INCR and WRAP, 0 for FIXED) except at most one: an INCR
    burst's first, from an unaligned start, or a WRAP burst's jump back
    to its container's base.  So the window is a run exactly when its
    first step and the distance from its first to its last address agree
    with *stride*: a backward WRAP jump makes that distance too short."""
    if start + count > len(addrs):
        return None
    base = addrs[start]
    if count > 1 and (
        addrs[start + 1] - base != stride
        or addrs[start + count - 1] - base != (count - 1) * stride
    ):
        return None
    return base
