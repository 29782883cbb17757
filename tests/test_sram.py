"""Unit tests for the SRAM model (driven directly, no crossbar)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi import AxiBundle, BurstType, Resp
from repro.axi.beats import ARBeat, AWBeat, WBeat
from repro.axi.transaction import beat_addresses
from repro.mem import SramMemory
from repro.mem.sram import _run_base
from repro.sim import Simulator
from repro.sim.span import UNBOUNDED
from repro.traffic.driver import ManagerDriver


def make(read_latency=1, write_latency=1, size=0x1000):
    sim = Simulator()
    port = AxiBundle(sim, "mem")
    sram = sim.add(
        SramMemory(port, base=0, size=size, read_latency=read_latency,
                   write_latency=write_latency)
    )
    drv = sim.add(ManagerDriver(port))
    return sim, sram, drv


def finish(sim, drv, max_cycles=10_000):
    sim.run_until(lambda: drv.idle, max_cycles=max_cycles, what="driver")


def test_write_then_read_roundtrip():
    sim, sram, drv = make()
    payload = bytes(range(8))
    drv.write(0x100, payload)
    op = drv.read(0x100)
    finish(sim, drv)
    assert op.resp == Resp.OKAY
    assert op.rdata == payload


def test_burst_write_read_roundtrip():
    sim, sram, drv = make()
    payload = bytes(range(32))  # 4 beats x 8 B
    drv.write(0x200, payload, beats=4)
    op = drv.read(0x200, beats=4)
    finish(sim, drv)
    assert op.rdata == payload


def test_uninitialized_memory_reads_zero():
    sim, sram, drv = make()
    op = drv.read(0x0)
    finish(sim, drv)
    assert op.rdata == bytes(8)


def test_out_of_range_read_is_slverr():
    sim, sram, drv = make(size=0x100)
    op = drv.read(0x1000 - 8, beats=1)  # beyond the 0x100 window
    finish(sim, drv)
    assert op.resp == Resp.SLVERR


def test_read_latency_affects_completion():
    lat_fast = lat_slow = None
    for latency in (1, 10):
        sim, sram, drv = make(read_latency=latency)
        op = drv.read(0x0)
        finish(sim, drv)
        if latency == 1:
            lat_fast = op.latency
        else:
            lat_slow = op.latency
    assert lat_slow - lat_fast == 9


def test_burst_streams_one_beat_per_cycle():
    sim, sram, drv = make()
    op1 = drv.read(0x0, beats=1)
    op2 = drv.read(0x0, beats=64)
    finish(sim, drv)
    # The 64-beat burst takes ~63 more cycles than the single-beat read.
    assert op2.latency - op1.latency == 63


def test_fixed_burst_reads_same_address():
    sim, sram, drv = make()
    drv.write(0x40, bytes([0xAB] * 8))
    op = drv.read(0x40, beats=4, burst=BurstType.FIXED, size=3)
    finish(sim, drv)
    assert op.rdata == bytes([0xAB] * 8) * 4


def test_wrap_burst_roundtrip():
    sim, sram, drv = make()
    drv.write(0x100, bytes(range(32)), beats=4)
    op = drv.read(0x110, beats=4, burst=BurstType.WRAP)
    finish(sim, drv)
    # Beats: 0x110, 0x118, 0x100, 0x108
    assert op.rdata == bytes(range(32))[16:] + bytes(range(32))[:16]


def test_counters():
    sim, sram, drv = make()
    drv.write(0x0, bytes(8))
    drv.read(0x0)
    drv.read(0x0, beats=4)
    finish(sim, drv)
    assert sram.reads_served == 2
    assert sram.writes_served == 1
    assert sram.read_beats == 5
    assert sram.write_beats == 1


def test_negative_latency_rejected():
    sim = Simulator()
    port = AxiBundle(sim, "mem")
    with pytest.raises(ValueError):
        SramMemory(port, base=0, size=64, read_latency=-1)


def test_reads_and_writes_progress_concurrently():
    sim, sram, drv = make()
    # Interleave from two drivers on separate bundles is covered by the
    # crossbar tests; here just confirm r/w state machines are independent:
    # a long read burst does not block a write's completion forever.
    drv2 = sim.add(ManagerDriver(sram.port, name="drv2"))
    # NOTE: two drivers sharing one bundle is only safe because driver 1
    # only reads and driver 2 only writes.
    drv.read(0x0, beats=64)
    wop = drv2.write(0x80, bytes(8))
    finish(sim, drv)
    sim.run_until(lambda: drv2.idle, max_cycles=1000, what="writer")
    rop = drv.completed[0]
    assert wop.done_cycle < rop.done_cycle


# ----------------------------------------------------------------------
# span replay: the bulk run paths equal the per-beat loop (DESIGN.md §11)
# ----------------------------------------------------------------------
@st.composite
def _bursts(draw):
    """A burst over an SRAM whose contents repeat one beat-wide pattern
    (so read windows are often uniform), sometimes with one byte near
    the burst flipped.  INCR bursts may start unaligned; any burst may
    run partly outside the SRAM's window."""
    base = draw(st.integers(1, 16)) * 0x100
    size = draw(st.sampled_from([0x80, 0x400, 0x1000]))
    axsize = draw(st.integers(0, 4))
    nbytes = 1 << axsize
    kind = draw(st.sampled_from(list(BurstType)))
    if kind is BurstType.WRAP:
        beats = draw(st.sampled_from([2, 4, 8, 16]))
    else:
        beats = draw(st.integers(2, 64 if kind is BurstType.INCR else 16))
    offset = draw(st.integers(-0x80, size + 0x40))
    if kind is not BurstType.INCR or draw(st.booleans()):
        offset -= offset % nbytes
    first = draw(st.integers(0, 255))
    pattern = bytes((first + i) % 256 for i in range(nbytes))  # no symmetry
    content = bytearray(pattern * (size // nbytes))
    if draw(st.booleans()):
        span = beats * nbytes  # a WRAP burst's container lies within
        flip = offset + draw(st.integers(-span, span - 1))
        if 0 <= flip < size:
            content[flip] ^= 0xFF
    return dict(base=base, size=size, content=bytes(content),
                addr=base + offset, beats=beats, axsize=axsize, kind=kind)


def _loaded_pair(case):
    """Two identical zero-latency SRAMs holding the case's contents."""
    pair = []
    for _ in range(2):
        sim = Simulator()
        sram = sim.add(SramMemory(
            AxiBundle(sim, "mem"), base=case["base"], size=case["size"],
            read_latency=0, write_latency=0,
        ))
        sram.store.write(case["base"], case["content"])
        pair.append(sram)
    return pair


def _push(channel, beat):
    channel.send(beat)
    channel.commit()


def _state(sram):
    return (sram.store.read(sram.store.base, sram.store.size),
            sram._wr_error, sram.write_beats, sram._wr_index)


@settings(max_examples=300, deadline=None)
@given(case=_bursts(), data=st.data())
def test_span_write_apply_equals_per_beat_writes(case, data):
    """A replayed W span leaves the bytes, error flag and beat counters
    exactly as the per-beat write path: full-strobe contiguous runs in
    one slice, partial strobes, WRAP/FIXED bursts, data narrower or
    wider than the beat, and beats outside the store per beat."""
    nbytes = 1 << case["axsize"]
    length = data.draw(st.one_of(st.just(nbytes), st.integers(1, 16)))
    lanes = (1 << length) - 1
    strb = data.draw(
        st.one_of(st.just(-1), st.just(lanes), st.integers(0, lanes))
    )
    wbeat = WBeat(data=data.draw(st.binary(min_size=length,
                                           max_size=length)), strb=strb)
    beats = case["beats"]
    start = data.draw(st.one_of(st.just(0), st.integers(0, beats - 1)))
    n = data.draw(st.integers(1, beats - start + 2))
    aw = AWBeat(id=1, addr=case["addr"], beats=beats, size=case["axsize"],
                burst=case["kind"])
    bulk, ref = _loaded_pair(case)
    for sram in (bulk, ref):
        _push(sram.port.aw, aw.copy())
        sram._tick_write(0)
        for _ in range(start):
            _push(sram.port.w, wbeat.copy())
            sram._tick_write(0)
    _push(bulk.port.w, wbeat.copy())
    bulk.span_offer(0, UNBOUNDED).apply(n)
    for _ in range(n):
        _push(ref.port.w, wbeat.copy())
        ref._tick_write(0)
    assert _state(bulk) == _state(ref)


@settings(max_examples=300, deadline=None)
@given(case=_bursts(), data=st.data())
def test_span_read_offer_equals_per_beat_reads(case, data):
    """The R offer's horizon and template (data and resp) are what the
    per-beat read path serves: the leading beats that repeat the first
    one, up to the bound and short of the last beat — whether the window
    is one uniform in-range run, non-uniform, wrapping, fixed, partly
    out of range (SLVERR), or the burst was malformed (``_rd_error``)."""
    beats = case["beats"]
    start = data.draw(st.one_of(st.just(0), st.integers(0, beats - 2)))
    bound = data.draw(st.one_of(st.integers(1, 70), st.just(UNBOUNDED)))
    rd_error = data.draw(st.booleans())
    ar = ARBeat(id=2, addr=case["addr"], beats=beats, size=case["axsize"],
                burst=case["kind"], txn=7)
    bulk, ref = _loaded_pair(case)
    for sram in (bulk, ref):
        _push(sram.port.ar, ar.copy())
        sram._tick_read(0)
        sram._rd_error = rd_error
        for _ in range(start):
            sram._tick_read(0)
            sram.port.r.commit()
            sram.port.r.recv()
    offer = bulk.span_offer(1, bound)
    (flow,) = offer.flows
    served = []
    for _ in range(min(beats - 1 - start, bound)):
        ref._tick_read(0)
        ref.port.r.commit()
        served.append(ref.port.r.recv())
    first = served[0]
    horizon = 1
    while horizon < len(served) and (
        (served[horizon].data, served[horizon].resp) == (first.data,
                                                          first.resp)
    ):
        horizon += 1
    assert flow.template_out == first
    assert offer.horizon == horizon


@pytest.mark.parametrize("burst", list(BurstType))
@pytest.mark.parametrize("axsize", range(4))
def test_run_test_matches_the_full_window(axsize, burst):
    """The contiguity test reads three addresses of the window; it agrees
    with comparing the whole window against a run, for every start
    (unaligned INCR and WRAP starts included), burst length, window and
    stride (W data may be narrower or wider than the beat)."""
    nbytes = 1 << axsize
    lengths = [2, 4, 8, 16] if burst == BurstType.WRAP else range(1, 7)
    for skew in range(nbytes):
        for beats in lengths:
            for offset in range(0, beats * nbytes, nbytes):
                addrs = beat_addresses(ARBeat(
                    id=0, addr=0x100 + offset + skew, beats=beats,
                    size=axsize, burst=burst,
                ))
                for start, count, stride in itertools.product(
                    range(beats), range(1, beats + 1), range(1, 2 * nbytes + 1)
                ):
                    window = addrs[start : start + count]
                    run = list(range(window[0], window[0] + count * stride,
                                     stride))
                    expected = window[0] if window == run else None
                    assert _run_base(addrs, start, count, stride) == expected


_PAIRED_KINDS = ("incr", "incr-unaligned", "wrap", "fixed")


def _paired_burst(data, kind, beat_type, **fields):
    """A burst of *kind* inside the first 0x200 bytes of the SRAM, so a
    read and a write burst drawn this way often overlap."""
    axsize = data.draw(st.integers(1 if kind == "incr-unaligned" else 0, 3))
    nbytes = 1 << axsize
    if kind == "wrap":
        beats = data.draw(st.sampled_from([2, 4, 8, 16]))
    else:
        beats = data.draw(st.integers(2, 32 if kind.startswith("incr")
                                      else 16))
    offset = data.draw(st.integers(0, 0xFF)) // nbytes * nbytes
    if kind == "incr-unaligned":
        offset += data.draw(st.integers(1, nbytes - 1))
    burst = {"wrap": BurstType.WRAP, "fixed": BurstType.FIXED}.get(
        kind, BurstType.INCR
    )
    return beat_type(addr=0x100 + offset, beats=beats, size=axsize,
                     burst=burst, **fields)


@pytest.mark.parametrize("wr_kind", _PAIRED_KINDS)
@pytest.mark.parametrize("rd_kind", _PAIRED_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_span_offer_refuses_exactly_overlapping_read_and_write(
    rd_kind, wr_kind, data
):
    """With both ports mid-burst, the offer is refused exactly when the
    rest of the read burst and the rest of the write burst touch a common
    byte, computed here from their full address lists.  W beats past a
    write burst's length (the manager did not mark the last one) keep
    writing its last address."""
    ar = _paired_burst(data, rd_kind, ARBeat, id=1, txn=3)
    aw = _paired_burst(data, wr_kind, AWBeat, id=2, txn=4)
    rd_start = data.draw(st.integers(0, ar.beats - 2))
    written = data.draw(st.integers(0, aw.beats))
    sim = Simulator()
    sram = sim.add(SramMemory(AxiBundle(sim, "mem"), base=0x100,
                              size=0x400, read_latency=0, write_latency=0))
    port = sram.port
    _push(port.ar, ar)
    _push(port.aw, aw)
    sram._tick_read(0)
    sram._tick_write(0)
    for _ in range(rd_start):
        sram._tick_read(0)
        port.r.commit()
        port.r.recv()
    wbytes = 1 << aw.size
    for _ in range(written):
        _push(port.w, WBeat(data=bytes(wbytes)))
        sram._tick_write(0)
    _push(port.w, WBeat(data=bytes(wbytes)))  # the next, non-last W beat
    rd_rest = beat_addresses(ar)[rd_start:]
    wr_rest = beat_addresses(aw)[min(written, aw.beats - 1):]
    overlap = (min(rd_rest) < max(wr_rest) + wbytes
               and min(wr_rest) < max(rd_rest) + (1 << ar.size))
    offer = sram.span_offer(1, UNBOUNDED)
    assert (offer is None) == overlap
    if offer is not None:
        assert len(offer.flows) == 2
