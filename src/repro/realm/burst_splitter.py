"""Granular burst splitter (Figure 3a).

Fragments incoming bursts to a runtime-configurable granularity so that
round-robin arbitration downstream happens on short transfers, restoring
fairness against managers that issue long bursts:

* the **AW/AR fragmenters** store a burst's meta information and emit one
  fragment address beat per cycle with updated address and length;
* the **W fragmenter** rewrites ``w.last`` at fragment boundaries;
* the **B coalescer** merges the fragment write responses into a single
  response for the original burst (keeping the most severe response);
* **R responses** pass through except ``r.last``, which is gated so only
  the final fragment's last beat is visible upstream.

Bursts that the AXI4 spec forbids splitting (atomics, non-modifiable
transfers of sixteen beats or fewer, FIXED/WRAP) pass through whole; see
:func:`repro.axi.transaction.is_fragmentable`.  The splitter can be
disabled entirely for managers that only issue single-word transactions.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Optional

from repro.axi.beats import ARBeat, AWBeat, BBeat, RBeat
from repro.axi.transaction import fragment_burst
from repro.axi.types import Resp, merge_resp
from repro.sim.kernel import Stateful


class BurstSplitterStage(Stateful):
    """Second stage of the REALM unit pipeline."""

    _STATE_FIELDS = (
        "_aw_fragments", "_ar_fragments", "_w_boundaries", "_w_beats_left",
        "_b_acc", "bursts_split", "fragments_emitted",
    )

    def __init__(self, up, down, config, name: str = "splitter") -> None:
        self.name = name
        self.up = up
        self.down = down
        self.config = config  # provides .granularity and .splitter_enabled
        # AW fragment emission in progress.
        self._aw_fragments: deque[AWBeat] = deque()
        # AR fragment emission in progress.
        self._ar_fragments: deque[ARBeat] = deque()
        # Per-burst fragment beat counts for W last rewriting, FIFO in AW
        # order; head entry is the burst currently streaming write data.
        self._w_boundaries: deque[deque[int]] = deque()
        self._w_beats_left: Optional[int] = None
        # B coalescing: FIFO per id of fragment counts.
        self._b_expect: dict[int, deque[int]] = defaultdict(deque)
        self._b_acc: dict[int, tuple[int, Resp]] = {}
        # R last gating: FIFO per id of fragment counts.
        self._r_expect: dict[int, deque[int]] = defaultdict(deque)
        self._r_seen: dict[int, int] = defaultdict(int)
        # Statistics.
        self.bursts_split = 0
        self.fragments_emitted = 0

    # ------------------------------------------------------------------
    @property
    def _enabled(self) -> bool:
        return self.config.splitter_enabled

    def _granularity_ar(self) -> int:
        return self.config.granularity

    def _granularity_aw(self) -> int:
        """Write-path granularity.

        "The splitting granularity is runtime-configurable from one to 256
        beats if the write buffer is parametrized large enough or is not
        present" — the write buffer must hold one complete fragmented write
        burst before forwarding, so write fragments are clamped to the
        buffer depth.  Reads do not traverse the buffer and may pass whole.
        """
        return getattr(self.config, "granularity_aw", self.config.granularity)

    # ------------------------------------------------------------------
    def tick_request(self, cycle: int) -> None:
        self._tick_aw()
        self._tick_w()
        self._tick_ar()

    def tick_response(self, cycle: int) -> None:
        self._tick_b()
        self._tick_r()

    # ------------------------------------------------------------------
    # write address path
    # ------------------------------------------------------------------
    def _tick_aw(self) -> None:
        if not self._aw_fragments and self.up.aw.can_recv():
            beat: AWBeat = self.up.aw.recv()
            if not self._enabled:
                frags = fragment_burst(beat, beat.beats)  # single fragment
            else:
                frags = fragment_burst(beat, self._granularity_aw())
            if len(frags) > 1:
                self.bursts_split += 1
            boundaries = deque()
            for frag in frags:
                fragment = beat.copy()
                fragment.addr = frag.addr
                fragment.beats = frag.beats
                self._aw_fragments.append(fragment)
                boundaries.append(frag.beats)
            self._w_boundaries.append(boundaries)
            self._b_expect[beat.id].append(len(frags))
        if self._aw_fragments and self.down.aw.can_send():
            self.down.aw.send(self._aw_fragments.popleft())
            self.fragments_emitted += 1

    # ------------------------------------------------------------------
    # write data path: rewrite last at fragment boundaries
    # ------------------------------------------------------------------
    def _tick_w(self) -> None:
        if not self.up.w.can_recv() or not self.down.w.can_send():
            return
        if self._w_beats_left is None:
            if not self._w_boundaries:
                return  # W data before its AW: hold until the AW arrives
            current = self._w_boundaries[0]
            if not current:
                return
            self._w_beats_left = current.popleft()
        beat = self.up.w.recv()
        out = beat.copy()
        self._w_beats_left -= 1
        if self._w_beats_left == 0:
            out.last = True
            self._w_beats_left = None
            if not self._w_boundaries[0]:
                self._w_boundaries.popleft()  # original burst fully streamed
        else:
            out.last = False
        self.down.w.send(out)

    # ------------------------------------------------------------------
    # read address path
    # ------------------------------------------------------------------
    def _tick_ar(self) -> None:
        if not self._ar_fragments and self.up.ar.can_recv():
            beat: ARBeat = self.up.ar.recv()
            if not self._enabled:
                frags = fragment_burst(beat, beat.beats)
            else:
                frags = fragment_burst(beat, self._granularity_ar())
            if len(frags) > 1:
                self.bursts_split += 1
            for frag in frags:
                fragment = beat.copy()
                fragment.addr = frag.addr
                fragment.beats = frag.beats
                self._ar_fragments.append(fragment)
            self._r_expect[beat.id].append(len(frags))
        if self._ar_fragments and self.down.ar.can_send():
            self.down.ar.send(self._ar_fragments.popleft())
            self.fragments_emitted += 1

    # ------------------------------------------------------------------
    # write response path: coalesce fragment responses
    # ------------------------------------------------------------------
    def _tick_b(self) -> None:
        if not self._b_expect:
            # No split write burst in flight yet: pure pass-through via
            # the batch API's single-call hand-off.
            self.down.b.move_to(self.up.b)
            return
        if not self.down.b.can_recv():
            return
        beat: BBeat = self.down.b.peek()
        expected = self._b_expect.get(beat.id)
        if not expected:
            # Response the splitter never saw a request for; pass through.
            if self.up.b.can_send():
                self.up.b.send(self.down.b.recv())
            return
        seen, resp = self._b_acc.get(beat.id, (0, Resp.OKAY))
        seen += 1
        resp = merge_resp(resp, beat.resp)
        if seen >= expected[0]:
            if not self.up.b.can_send():
                return  # hold the final fragment until upstream is ready
            self.down.b.recv()
            expected.popleft()
            if not expected:
                # Drop the drained FIFO so the pass-through fast path
                # revives once no split burst is in flight.
                del self._b_expect[beat.id]
            self._b_acc.pop(beat.id, None)
            merged = BBeat(id=beat.id, resp=resp, user=beat.user, txn=beat.txn)
            self.up.b.send(merged)
        else:
            self.down.b.recv()
            self._b_acc[beat.id] = (seen, resp)

    # ------------------------------------------------------------------
    # read response path: gate r.last
    # ------------------------------------------------------------------
    def _tick_r(self) -> None:
        if not self._r_expect:
            # No split read burst in flight yet: pure pass-through.
            self.down.r.move_to(self.up.r)
            return
        if not self.down.r.can_recv() or not self.up.r.can_send():
            return
        beat: RBeat = self.down.r.recv()
        expected = self._r_expect.get(beat.id)
        if not expected:
            self.up.r.send(beat)
            return
        if beat.last:
            self._r_seen[beat.id] += 1
            if self._r_seen[beat.id] >= expected[0]:
                expected.popleft()
                if not expected:
                    del self._r_expect[beat.id]
                self._r_seen.pop(beat.id, None)
                self.up.r.send(beat)  # genuine last beat
            else:
                gated = RBeat(
                    id=beat.id, data=beat.data, resp=beat.resp,
                    last=False, user=beat.user, txn=beat.txn,
                )
                self.up.r.send(gated)
        else:
            self.up.r.send(beat)

    # ------------------------------------------------------------------
    # snapshot contract: the per-ID defaultdicts travel as plain dicts
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {
            **super().state_capture(),
            "b_expect": dict(self._b_expect),
            "r_expect": dict(self._r_expect),
            "r_seen": dict(self._r_seen),
        }

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self._b_expect = defaultdict(deque, state["b_expect"])
        self._r_expect = defaultdict(deque, state["r_expect"])
        self._r_seen = defaultdict(int, state["r_seen"])
