"""Last-level cache model (set-associative, write-back, write-allocate).

Fronts the DRAM: the front AXI port faces the system crossbar, the back
port faces the memory controller.  One front transaction is processed at a
time (a blocking cache); hits stream at one beat per cycle after a small
hit latency, misses run a victim-writeback / line-refill sequence against
the back port.  In the paper's evaluation the LLC is hot, so the steady
state is hit streaming — the cache's role in the experiments is to be the
shared subordinate both managers contend for.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.axi.beats import ARBeat, AWBeat, BBeat, RBeat, WBeat
from repro.axi.ports import AxiBundle
from repro.axi.transaction import beat_addresses
from repro.axi.types import BurstType, Resp, bytes_per_beat
from repro.sim.kernel import Component, SimulationError
from repro.sim.span import SpanOffer, produce


class _Line:
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytearray, dirty: bool = False) -> None:
        self.data = data
        self.dirty = dirty


class CacheLLC(Component):
    """Blocking write-back LLC between the crossbar and the DRAM."""

    _STATE_FIELDS = (
        "_sets", "_state", "_txn", "_is_read", "_addrs", "_index", "_wait",
        "_latency_ready", "_resume", "_rr_read_first", "_staged",
        "_staged_is_read", "_staged_wait", "_staged_ready", "_now",
        "_wb_addr", "_wb_widx", "_refill_addr", "_refill_buf",
        "_pending_wbeat", "_w_error", "_after_refill", "hits", "misses",
        "writebacks", "refills", "reads_served", "writes_served",
    )

    def __init__(
        self,
        front: AxiBundle,
        back: AxiBundle,
        name: str = "llc",
        line_bytes: int = 64,
        ways: int = 8,
        capacity: int = 64 * 1024,
        hit_latency: int = 1,
        back_beat_size: int = 3,
    ) -> None:
        super().__init__(name)
        if line_bytes < 1 or line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        if capacity % (line_bytes * ways):
            raise ValueError("capacity must be a multiple of line_bytes * ways")
        if line_bytes % bytes_per_beat(back_beat_size):
            raise ValueError("line size must be a multiple of the back beat size")
        self.front = front
        self.back = back
        self.watch(front, role="device")
        self.watch(back, role="manager")
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = capacity // (line_bytes * ways)
        self.hit_latency = hit_latency
        self.back_beat_size = back_beat_size
        self._back_beats_per_line = line_bytes // bytes_per_beat(back_beat_size)
        # Per set: OrderedDict tag -> _Line; iteration order is LRU order
        # (least recently used first).
        self._sets: list[OrderedDict[int, _Line]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]

        # FSM state.
        self._state = "idle"
        self._txn: Optional[ARBeat | AWBeat] = None
        self._is_read = True
        self._addrs: list[int] = []
        self._index = 0
        self._wait = 0
        self._latency_ready = 0  # batched: first-serve cycle
        self._resume = "idle"
        self._rr_read_first = True
        # Front-end staging: the next transaction is accepted and its tag
        # lookup started while the current one is still streaming, so
        # back-to-back short transactions are served without dead cycles.
        self._staged: Optional[ARBeat | AWBeat] = None
        self._staged_is_read = True
        self._staged_wait = 0
        self._staged_ready = 0  # batched: lookup-complete cycle
        self._now = 0
        self._batch_mode = False  # repro: lint-ok[snapshot-coverage] recomputed from the kernel's datapath mode every tick
        # Miss-handling scratch.
        self._wb_addr = 0
        # repro: lint-ok[snapshot-coverage] captured as the 'wb_live' flag; restore re-aliases the resident set entry (see state_capture)
        self._wb_line: Optional[_Line] = None
        self._wb_widx = 0
        self._refill_addr = 0
        self._refill_buf = bytearray()
        self._pending_wbeat: Optional[WBeat] = None
        self._w_error = False
        # Set after a refill so the replayed beat is not also counted as a
        # hit in the statistics.
        self._after_refill = False

        # Statistics.
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.refills = 0
        self.reads_served = 0
        self.writes_served = 0

    # ------------------------------------------------------------------
    # cache bookkeeping
    # ------------------------------------------------------------------
    def _set_tag(self, line_addr: int) -> tuple[int, int]:
        index = line_addr // self.line_bytes
        return index % self.n_sets, index // self.n_sets

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[_Line]:
        set_idx, tag = self._set_tag(line_addr)
        line = self._sets[set_idx].get(tag)
        if line is not None and touch:
            self._sets[set_idx].move_to_end(tag)
        return line

    def install_line(
        self, line_addr: int, data: bytes, dirty: bool = False
    ) -> Optional[tuple[int, bytearray]]:
        """Install a line; returns ``(victim_addr, victim_data)`` if a dirty
        victim was evicted, else ``None``.  Also used to pre-warm the cache.
        """
        if len(data) != self.line_bytes:
            raise ValueError("line data length mismatch")
        set_idx, tag = self._set_tag(line_addr)
        ways = self._sets[set_idx]
        victim = None
        if tag not in ways and len(ways) >= self.ways:
            victim_tag, victim_line = ways.popitem(last=False)
            if victim_line.dirty:
                victim_addr = (victim_tag * self.n_sets + set_idx) * self.line_bytes
                victim = (victim_addr, victim_line.data)
        ways[tag] = _Line(bytearray(data), dirty)
        ways.move_to_end(tag)
        return victim

    def _victim_for(self, line_addr: int) -> Optional[tuple[int, _Line]]:
        """Dirty victim that installing *line_addr* would evict, if any."""
        set_idx, _ = self._set_tag(line_addr)
        ways = self._sets[set_idx]
        if len(ways) < self.ways:
            return None
        victim_tag = next(iter(ways))
        victim_line = ways[victim_tag]
        if not victim_line.dirty:
            return None
        victim_addr = (victim_tag * self.n_sets + set_idx) * self.line_bytes
        return victim_addr, victim_line

    def contains(self, addr: int) -> bool:
        return self.lookup(addr & ~(self.line_bytes - 1), touch=False) is not None

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    # ------------------------------------------------------------------
    # FSM
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._now = cycle
        self._batch_mode = self._sim._batched
        self._front_accept()
        handler = self._HANDLERS.get(self._state)
        if handler is None:  # pragma: no cover - defensive
            raise SimulationError(f"unknown cache state {self._state!r}")
        handler(self)

    def is_idle(self) -> bool:
        if not self._batch_mode:
            return (
                self._state == "idle"
                and self._staged is None
                and not self.front.ar.can_recv()
                and not self.front.aw.can_recv()
            )
        return self._is_idle_batched()

    def _is_idle_batched(self) -> bool:
        """Blocked-state sleeping: every FSM state whose tick is provably
        a no-op until a channel event (or the scheduled lookup completion)
        lets the cache leave the active set."""
        front = self.front
        if self._staged is None and (
            front.ar.can_recv() or front.aw.can_recv()
        ):
            return False  # a new front transaction would be staged
        state = self._state
        if state == "idle":
            return self._staged is None
        if state == "latency":
            self.wake_at(self._latency_ready)
            return True
        if state == "r_serve":
            beat = self._txn
            if self._index >= beat.beats or front.r.can_send():
                return False
            addr = self._addrs[self._index]
            line_addr = addr & ~(self.line_bytes - 1)
            # A resident line streams as soon as front.r frees; a miss
            # would start the writeback/refill sequence right away.
            return self.lookup(line_addr, touch=False) is not None
        if state == "w_collect":
            return self._pending_wbeat is None and not front.w.can_recv()
        if state == "b_resp":
            return not front.b.can_send()
        back = self.back
        if state == "wb_aw":
            return not back.aw.can_send()
        if state == "wb_w":
            return not back.w.can_send()
        if state == "wb_b":
            return not back.b.can_recv()
        if state == "refill_ar":
            return not back.ar.can_send()
        if state == "refill_r":
            return not back.r.can_recv()
        return False  # pragma: no cover - unknown state stays active

    def _front_accept(self) -> None:
        """Stage the next front transaction and run its lookup latency in
        parallel with the current transaction."""
        if self._staged is not None:
            if not self._batch_mode and self._staged_wait > 0:
                self._staged_wait -= 1
            return
        want_read = self.front.ar.can_recv()
        want_write = self.front.aw.can_recv()
        if not want_read and not want_write:
            return
        take_read = want_read and (self._rr_read_first or not want_write)
        self._rr_read_first = not take_read
        self._staged = (
            self.front.ar.recv() if take_read else self.front.aw.recv()
        )
        self._staged_is_read = take_read
        self._staged_wait = self.hit_latency
        self._staged_ready = self._now + self.hit_latency

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        # _wb_line aliases a resident line during the writeback states
        # (wb_b clears its dirty bit in place); it is captured as a
        # reference (recomputed from _wb_addr) so the restored scratch
        # aliases the restored set entry exactly.
        wb_live = self._state in ("wb_aw", "wb_w", "wb_b")
        return {**super().state_capture(), "wb_live": wb_live}

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        if state["wb_live"]:
            set_idx, tag = self._set_tag(self._wb_addr)
            self._wb_line = self._sets[set_idx][tag]
        else:
            self._wb_line = None

    # -- idle: promote the staged front transaction --------------------
    def _st_idle(self) -> None:
        if self._staged is None:
            return
        self._txn = self._staged
        self._is_read = self._staged_is_read
        self._staged = None
        self._addrs = beat_addresses(self._txn)
        self._index = 0
        if self._batch_mode:
            self._wait = max(0, self._staged_ready - self._now)
        else:
            self._wait = self._staged_wait
        self._latency_ready = self._now + self._wait
        self._w_error = False
        self._state = "latency"
        if self._wait == 0:
            # Lookup already completed while the previous transaction was
            # streaming: start serving on the next handler dispatch.
            self._state = "r_serve" if self._is_read else "w_collect"

    def _st_latency(self) -> None:
        if self._batch_mode:
            if self._now < self._latency_ready:
                return
            self._state = "r_serve" if self._is_read else "w_collect"
            self.tick_current()
            return
        if self._wait > 0:
            self._wait -= 1
        if self._wait == 0:
            self._state = "r_serve" if self._is_read else "w_collect"
            self.tick_current()

    def tick_current(self) -> None:
        """Re-dispatch after a same-cycle state change (keeps hit streaming
        at one beat per cycle without a dead cycle between states)."""
        self._HANDLERS[self._state](self)

    # ------------------------------------------------------------------
    # span-replay (DESIGN.md section 11)
    # ------------------------------------------------------------------
    def span_offer(self, cycle: int, bound: int) -> Optional[SpanOffer]:
        """Linear hit streaming: one value-identical R beat per cycle.

        Only the middle of a read-hit stream qualifies: every beat in the
        window must hit a resident line *and* carry the same payload as
        the first (the span protocol replays one constant template), and
        the window stops before the burst's last beat.  The front end must
        be unable to change state (staged transaction parked, or nothing
        arriving)."""
        if self._state != "r_serve" or self._after_refill:
            return None
        if self._staged is None and (
            self.front.ar._queue or self.front.aw._queue
        ):
            return None  # _front_accept would stage a transaction
        txn = self._txn
        index = self._index
        # Template from the current beat; extend while the stream stays
        # resident and value-identical, excluding the last beat.
        limit = min(txn.beats - 1 - index, bound)
        if limit < 1:
            return None
        nbytes = bytes_per_beat(txn.size)
        line_mask = ~(self.line_bytes - 1)
        addrs = self._addrs
        addr = addrs[index]
        line = self.lookup(addr & line_mask, touch=False)
        if line is None:
            return None
        offset = addr & ~line_mask
        template_data = bytes(line.data[offset : offset + nbytes])
        # INCR beats after the first are back to back and never straddle
        # a line, so the rest of the window is checked once per line.
        runs = txn.burst == BurstType.INCR and nbytes <= self.line_bytes
        if runs:
            horizon = self._run_horizon(index + 1, limit - 1, nbytes,
                                        template_data)
        else:
            horizon = self._beat_horizon(index + 1, limit - 1, nbytes,
                                         template_data)
        template = RBeat(
            id=txn.id, data=template_data, resp=Resp.OKAY, last=False,
            txn=txn.txn,
        )

        def apply(n: int) -> None:
            self.hits += n
            self._now = cycle + n - 1
            # LRU touches, once per line in beat order.
            if runs:
                first = addrs[index] & line_mask
                last = addrs[index + n - 1] & line_mask
                for line_addr in range(first, last + 1, self.line_bytes):
                    self.lookup(line_addr)
            else:
                touched = None
                for j in range(index, index + n):
                    line_addr = addrs[j] & line_mask
                    if line_addr != touched:
                        self.lookup(line_addr)
                        touched = line_addr
            self._index = index + n

        return SpanOffer(
            flows=(produce(self.front.r, template),),
            horizon=1 + horizon,
            apply=apply,
        )

    def _run_horizon(
        self, start: int, count: int, nbytes: int, template: bytes
    ) -> int:
        """How many of the *count* back-to-back beats from ``start`` hit
        and repeat *template*: one slice compare per resident line."""
        line_bytes = self.line_bytes
        line_mask = ~(line_bytes - 1)
        addr = self._addrs[start]
        done = 0
        while done < count:
            line_addr = addr & line_mask
            line = self.lookup(line_addr, touch=False)
            if line is None:
                break
            offset = addr - line_addr
            k = min(count - done, (line_bytes - offset) // nbytes)
            data = line.data
            if data[offset : offset + k * nbytes] != template * k:
                for i in range(offset, offset + k * nbytes, nbytes):
                    if data[i : i + nbytes] != template:
                        break
                    done += 1
                break
            done += k
            addr += k * nbytes
        return done

    def _beat_horizon(
        self, start: int, count: int, nbytes: int, template: bytes
    ) -> int:
        """How many of the *count* beats from ``start`` hit and repeat
        *template*, one lookup per beat (WRAP and FIXED bursts, and beats
        wider than a line)."""
        line_mask = ~(self.line_bytes - 1)
        addrs = self._addrs
        done = 0
        for j in range(start, start + count):
            addr = addrs[j]
            line = self.lookup(addr & line_mask, touch=False)
            if line is None:
                break
            offset = addr & ~line_mask
            if line.data[offset : offset + nbytes] != template:
                break
            done += 1
        return done

    # -- read streaming ------------------------------------------------
    def _st_r_serve(self) -> None:
        beat = self._txn
        if self._index >= beat.beats:
            self._state = "idle"
            self.reads_served += 1
            return
        addr = self._addrs[self._index]
        line_addr = addr & ~(self.line_bytes - 1)
        line = self.lookup(line_addr)
        if line is None:
            self.misses += 1
            self._start_miss(line_addr, resume="r_serve")
            return
        if not self.front.r.can_send():
            return
        if self._after_refill:
            self._after_refill = False
        else:
            self.hits += 1
        nbytes = bytes_per_beat(beat.size)
        offset = addr - line_addr
        data = bytes(line.data[offset : offset + nbytes])
        last = self._index == beat.beats - 1
        self.front.r.send(
            RBeat(id=beat.id, data=data, resp=Resp.OKAY, last=last, txn=beat.txn)
        )
        self._index += 1
        if last:
            self._state = "idle"
            self.reads_served += 1
            # Pipelined front end: accept the next transaction in the same
            # cycle the previous one retires (no dead cycle between bursts).
            self._st_idle()

    # -- write collection -----------------------------------------------
    def _st_w_collect(self) -> None:
        beat = self._txn
        if self._pending_wbeat is None:
            if not self.front.w.can_recv():
                return
            self._pending_wbeat = self.front.w.recv()
        wbeat = self._pending_wbeat
        addr = self._addrs[min(self._index, len(self._addrs) - 1)]
        line_addr = addr & ~(self.line_bytes - 1)
        line = self.lookup(line_addr)
        if line is None:
            self.misses += 1
            self._start_miss(line_addr, resume="w_collect")
            return
        if self._after_refill:
            self._after_refill = False
        else:
            self.hits += 1
        if wbeat.data is not None:
            nbytes = bytes_per_beat(beat.size)
            offset = addr - line_addr
            data = wbeat.data[:nbytes]
            if wbeat.strb == -1:
                line.data[offset : offset + len(data)] = data
            else:
                for i, byte in enumerate(data):
                    if wbeat.strb & (1 << i):
                        line.data[offset + i] = byte
            line.dirty = True
        self._index += 1
        was_last = wbeat.last
        self._pending_wbeat = None
        if was_last:
            self._state = "b_resp"

    def _st_b_resp(self) -> None:
        if not self.front.b.can_send():
            return
        resp = Resp.SLVERR if self._w_error else Resp.OKAY
        self.front.b.send(BBeat(id=self._txn.id, resp=resp, txn=self._txn.txn))
        self._state = "idle"
        self.writes_served += 1
        self._st_idle()

    # -- miss handling ---------------------------------------------------
    def _start_miss(self, line_addr: int, resume: str) -> None:
        self._resume = resume
        self._refill_addr = line_addr
        victim = self._victim_for(line_addr)
        if victim is not None:
            self._wb_addr, self._wb_line = victim
            self._wb_widx = 0
            self._state = "wb_aw"
        else:
            self._state = "refill_ar"

    def _st_wb_aw(self) -> None:
        if not self.back.aw.can_send():
            return
        self.back.aw.send(
            AWBeat(
                id=0,
                addr=self._wb_addr,
                beats=self._back_beats_per_line,
                size=self.back_beat_size,
            )
        )
        self.writebacks += 1
        self._state = "wb_w"

    def _st_wb_w(self) -> None:
        if not self.back.w.can_send():
            return
        nbytes = bytes_per_beat(self.back_beat_size)
        offset = self._wb_widx * nbytes
        data = bytes(self._wb_line.data[offset : offset + nbytes])
        last = self._wb_widx == self._back_beats_per_line - 1
        self.back.w.send(WBeat(data=data, last=last))
        self._wb_widx += 1
        if last:
            self._state = "wb_b"

    def _st_wb_b(self) -> None:
        if not self.back.b.can_recv():
            return
        bbeat = self.back.b.recv()
        if bbeat.resp.is_error:
            self._w_error = True
        self._wb_line.dirty = False  # clean now; eviction happens at install
        self._state = "refill_ar"

    def _st_refill_ar(self) -> None:
        if not self.back.ar.can_send():
            return
        self.back.ar.send(
            ARBeat(
                id=0,
                addr=self._refill_addr,
                beats=self._back_beats_per_line,
                size=self.back_beat_size,
            )
        )
        self._refill_buf = bytearray()
        self._state = "refill_r"

    def _st_refill_r(self) -> None:
        while self.back.r.can_recv():
            rbeat = self.back.r.recv()
            nbytes = bytes_per_beat(self.back_beat_size)
            self._refill_buf.extend(rbeat.data or bytes(nbytes))
            if rbeat.last:
                self.install_line(self._refill_addr, bytes(self._refill_buf))
                self.refills += 1
                self._after_refill = True
                self._state = self._resume
                return

    #: FSM state name -> handler, gathered from the ``_st_<state>``
    #: methods above, so a tick dispatches without building the method
    #: name and a new state needs only its method.
    _HANDLERS = {
        name[len("_st_"):]: handler
        for name, handler in list(locals().items())
        if name.startswith("_st_")
    }
