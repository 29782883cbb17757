"""Live telemetry: wire framing, tap cadence and equivalence, the
socket control loop, and the sinks.

The two contracts under test (DESIGN.md section 12):

* **Tap equivalence** — frames pushed to a live consumer are
  byte-identical to the post-hoc ``[probes]`` timeseries of the same
  run, on both kernels; and
* **Observational transparency** — attaching, watching, pausing, and
  checkpointing over the socket never change a simulated observable: a
  paused knob write lands exactly like the equivalent scheduled one,
  and a detached tap leaves the kernel hook-for-hook untouched.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.control import ProbeError
from repro.realm import RegionConfig
from repro.scenario import (
    ScenarioError,
    expand,
    loads,
    run_campaign,
    run_point,
)
from repro.snapshot import capture_simulator, load_checkpoint
from repro.system import SystemBuilder
from repro.telemetry import (
    MAX_MESSAGE,
    CsvSink,
    JsonlSink,
    MemorySink,
    MessageDecoder,
    ProbeTap,
    TapError,
    TelemetryClient,
    TelemetryClientError,
    TelemetryError,
    TelemetryServer,
    WireError,
    encode_message,
    encode_payload,
    parse_target,
    recv_message,
    send_message,
)
from repro.telemetry.wire import HEADER
from repro.traffic import BandwidthHog, DmaEngine

PATTERNS = ("realm.dma.region0.total_bytes", "traffic.hog.bytes_stolen")
KNOB = "realm.dma.region0.budget_bytes"


def _system(active_set: bool = True, batched: bool = True):
    """The bench_control_overhead workload: dma + hog through a REALM."""
    system = (
        SystemBuilder(name="tele", active_set=active_set, batched=batched)
        .add_manager("dma", protect=True, granularity=16, regions=[
            RegionConfig(0x0, 0x20000, 1 << 40, 1000)
        ])
        .add_manager("hog")
        .add_sram("mem", base=0x0, size=0x20000)
        .add_sram("spm", base=0x100000, size=0x20000)
        .build()
    )
    system.attach("dma", lambda port: DmaEngine(
        port, src_base=0x0, src_size=0x8000,
        dst_base=0x100000, dst_size=0x8000, burst_beats=64,
    ))
    system.attach("hog", lambda port: BandwidthHog(port, window=0x8000))
    return system


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
def test_wire_roundtrip_byte_by_byte():
    payload = {"cycle": 5, "values": {"x": 1}}
    assert encode_payload(payload) == b'{"cycle":5,"values":{"x":1}}'
    stream = encode_message(payload) + encode_message({"type": "ok"})
    decoder = MessageDecoder()
    received = []
    for i in range(len(stream)):  # worst-case fragmentation
        received.extend(decoder.feed(stream[i:i + 1]))
    assert received == [payload, {"type": "ok"}]
    # Whole stream in one feed decodes identically.
    assert MessageDecoder().feed(stream) == received


def test_wire_rejects_corrupt_framing():
    with pytest.raises(WireError, match="corrupt"):
        MessageDecoder().feed(HEADER.pack(MAX_MESSAGE + 1))
    with pytest.raises(WireError, match="undecodable"):
        MessageDecoder().feed(HEADER.pack(3) + b"\xff\xff\xff")
    with pytest.raises(WireError, match="not a JSON object"):
        MessageDecoder().feed(HEADER.pack(3) + b"[1]")
    with pytest.raises(WireError, match="exceeds"):
        encode_message({"x": "a" * MAX_MESSAGE})


def test_wire_blocking_helpers_over_a_socketpair():
    a, b = socket.socketpair()
    try:
        # Two messages land in one TCP chunk; the decoder must hand the
        # second one back on the next call instead of dropping it.
        a.sendall(encode_message({"n": 1}) + encode_message({"n": 2}))
        decoder = MessageDecoder()
        assert recv_message(b, decoder) == {"n": 1}
        send_message(a, {"n": 3})
        assert recv_message(b, decoder) == {"n": 2}
        assert recv_message(b, decoder) == {"n": 3}
        a.close()
        assert recv_message(b, decoder) is None  # clean EOF
    finally:
        b.close()


def test_wire_keeps_every_message_of_one_chunk():
    # Three messages in one chunk: the two stashed extras come back out
    # of the buffer together on the next call, and neither may be lost
    # (a lost extra was a lost telemetry frame).
    a, b = socket.socketpair()
    b.settimeout(5.0)
    try:
        a.sendall(b"".join(encode_message({"n": n}) for n in (1, 2, 3)))
        a.close()
        decoder = MessageDecoder()
        received = []
        while (message := recv_message(b, decoder)) is not None:
            received.append(message["n"])
        assert received == [1, 2, 3]
    finally:
        b.close()


def test_parse_target():
    assert parse_target("9999") == ("127.0.0.1", 9999)
    assert parse_target("example:12") == ("example", 12)
    with pytest.raises(TelemetryClientError, match="malformed"):
        parse_target("no-port")


# ----------------------------------------------------------------------
# tap: cadence, equivalence, transparency
# ----------------------------------------------------------------------
@pytest.mark.parametrize("active_set,batched", [(True, True),
                                                (False, False)])
def test_tap_frames_match_schedule_sampler(active_set, batched):
    """The tap-equivalence contract, in-process, on both kernels: a tap
    with the sampler's cadence streams the sampler's exact timeseries."""
    sampled = _system(active_set, batched)
    sampled.control.sampler(list(PATTERNS), every=200)
    sampled.sim.run(2000)
    series = sampled.control.schedule.series["probes"]

    tapped = _system(active_set, batched)
    tap = ProbeTap(tapped.sim, tapped.control.probes)
    sink = MemorySink()
    tap.subscribe(sink, PATTERNS, every=200)
    tapped.sim.run(2000)

    assert len(series) == 9  # cycles 200..1800
    assert sink.dumps() == json.dumps(series, separators=(",", ":"))
    # The tap never perturbed the run: both systems end identically.
    assert tapped.control.sample("*") == sampled.control.sample("*")


def test_tap_detached_is_hookless_and_validates_subscriptions():
    system = _system()
    sim = system.sim
    baseline_hooks = len(sim._hook_heap)
    tap = ProbeTap(sim, system.control.probes)
    # Zero residue with nothing subscribed: no hooks, no poll callback.
    assert len(sim._hook_heap) == baseline_hooks
    assert sim._transient_hooks == 0
    assert sim._poll_fn is None

    sink = MemorySink()
    with pytest.raises(TapError, match=">= 1 cycle"):
        tap.subscribe(sink, PATTERNS, every=0)
    with pytest.raises(TapError, match="start must be"):
        tap.subscribe(sink, PATTERNS, every=10, start=-1)
    with pytest.raises(TapError, match="at least one"):
        tap.subscribe(sink, [], every=10)
    with pytest.raises(ProbeError):
        tap.subscribe(sink, ["no.such.probe"], every=10)
    assert sim._transient_hooks == 0  # rejected subscriptions armed nothing

    sub = tap.subscribe(sink, PATTERNS, every=100)
    assert sim._transient_hooks == 1
    tap.unsubscribe(sub)
    with pytest.raises(TapError, match="not attached"):
        tap.unsubscribe(sub)
    # The orphaned hook fires once as a no-op and does not re-arm.
    sim.run(250)
    assert sink.frames == []
    assert sim._transient_hooks == 0
    assert len(sim._hook_heap) == baseline_hooks


def test_tap_mid_run_subscription_joins_the_lattice():
    system = _system()
    system.sim.run(500)
    tap = ProbeTap(system.sim, system.control.probes)
    sink = MemorySink()
    sub = tap.subscribe(sink, PATTERNS, every=200)
    assert sub.first_cycle == 200
    system.sim.run(1500)  # now at cycle 2000
    # Late attach loses the early frames but never shifts the phase:
    # the first firing is the next lattice point at or after cycle 500.
    assert [f["cycle"] for f in sink.frames] == [600, 800, 1000, 1200,
                                                 1400, 1600, 1800]


def test_capture_tolerates_tap_hooks_and_restore_drops_them():
    """A checkpoint taken while a consumer watches is legal, and
    restoring it into a telemetry-free build continues bit-identically
    — the tap's transient hooks are execution, not simulated state."""
    watched = _system()
    tap = ProbeTap(watched.sim, watched.control.probes)
    sink = MemorySink()
    tap.subscribe(sink, PATTERNS, every=300)
    watched.sim.run(1000)
    state = capture_simulator(watched.sim)  # raises before this PR

    plain = _system()
    plain.restore(state)
    assert plain.sim.cycle == 1000
    assert plain.sim._transient_hooks == 0  # telemetry never restores

    reference = _system()
    reference.sim.run(2000)
    watched.sim.run(1000)
    plain.sim.run(1000)
    expected = reference.control.sample("*")
    assert watched.control.sample("*") == expected
    assert plain.control.sample("*") == expected


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
def test_sinks_write_report_layer_shapes(tmp_path):
    system = _system()
    system.control.sampler(list(PATTERNS), every=200)
    tap = ProbeTap(system.sim, system.control.probes)
    csv_path = tmp_path / "live.csv"
    jsonl_path = tmp_path / "live.jsonl"
    with CsvSink(csv_path, point="pt") as csv_sink, \
            JsonlSink(jsonl_path) as jsonl_sink:
        def both(frame):
            csv_sink(frame)
            jsonl_sink(frame)
        tap.subscribe(both, PATTERNS, every=200)
        system.sim.run(1000)
    series = system.control.schedule.series["probes"]

    # JSONL: each line is the compact dump of one timeseries entry.
    lines = jsonl_path.read_text().splitlines()
    assert lines == [
        json.dumps(entry, separators=(",", ":")) for entry in series
    ]
    # CSV: header + the write_timeseries_csv row layout.
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "label,rule,cycle,probe,value"
    first = series[0]
    first_probe = next(iter(first["values"]))
    assert rows[1] == (f"pt,probes,{first['cycle']},{first_probe},"
                       f"{first['values'][first_probe]}")
    assert len(rows) == 1 + len(series) * len(PATTERNS)


# ----------------------------------------------------------------------
# socket server: stream, pause/inspect/resume, checkpoint
# ----------------------------------------------------------------------
def test_server_stream_pause_set_checkpoint_resume(tmp_path):
    """The full control loop over a real socket, checked against the
    equivalent scheduled-knob run: pause at C + knob write + resume
    must reproduce ``schedule.at(C, set=...)`` exactly."""
    reference = _system()
    reference.control.sampler(list(PATTERNS), every=200)
    reference.control.at(1000, set={KNOB: 8192})
    reference.sim.run(4000)
    ref_series = reference.control.schedule.series["probes"]

    server = TelemetryServer()
    server.start()
    host, port = server.address
    system = _system()
    cp_path = tmp_path / "live.ckpt"
    runner = None
    try:
        with server.live_point(system, label="pt",
                               default_watch=(list(PATTERNS), 200, None)
                               ) as session:
            client = TelemetryClient(host, port)
            hello = client.connect()
            assert hello["live"] is True
            assert hello["point"] == "pt"
            assert hello["probes"] == list(PATTERNS)

            # Queue watch + pause + an unpaused knob write *before* the
            # run starts: commands drain at the first commit boundary, so
            # nothing races once the server thread has moved all three
            # into the inbox.  (A command sent while the run streams on
            # would race the run's end: nothing drains the inbox after.)
            send_message(client._sock, {"id": 101, "type": "watch"})
            send_message(client._sock, {"id": 102, "type": "pause",
                                        "at": 1000})
            send_message(client._sock, {"id": 103, "type": "set",
                                        "path": KNOB, "value": 4096})
            deadline = time.monotonic() + 10
            while len(session._inbox) < 3:
                assert time.monotonic() < deadline, "commands never queued"
                time.sleep(0.001)
            runner = threading.Thread(target=lambda: system.sim.run(4000))
            runner.start()

            frames = []
            watch_reply = paused_reply = refused = None
            while paused_reply is None:
                message = client._next()
                assert message is not None
                if message.get("id") == 101:
                    watch_reply = message
                elif message.get("id") == 102:
                    paused_reply = message
                elif message.get("id") == 103:
                    refused = message
                elif message.get("type") == "frame":
                    frames.append(message)
            assert watch_reply["type"] == "ok"
            assert watch_reply["paths"] == list(PATTERNS)
            # Knob writes outside a pause are refused.
            assert refused["type"] == "error"
            assert "paused" in refused["message"]
            # Pause at C parks with cycle == C + 1: the exact instant a
            # schedule.at(C) rule observes.  Frames through C arrived
            # before the pause notification.
            assert paused_reply["cycle"] == 1001
            assert [f["cycle"] for f in frames] == [200, 400, 600, 800,
                                                    1000]

            # Inspect and steer while parked at the boundary.
            assert client.get(KNOB) == 1 << 40
            assert client.set(KNOB, 8192)["value"] == 8192
            sampled = client.sample(*PATTERNS)
            assert sampled["cycle"] == 1001
            assert sampled["values"] == frames[-1]["values"]
            checkpointed = client.checkpoint(str(cp_path))
            assert checkpointed["cycle"] == 1001
            resumed_reply = client.resume()
            assert resumed_reply["type"] == "resumed"
            assert resumed_reply["cycle"] == 1001

            # 14 frames remain (1200..3800); the "end" event only fires
            # when this live_point block exits, so count, don't wait.
            frames.extend(client.frames(count=14))
            runner.join(timeout=30)
            assert not runner.is_alive()
            client.close()
    finally:
        if runner is not None and runner.is_alive():  # unwedge on failure
            server.stop()
            runner.join(timeout=10)
        server.stop()

    # Live run == scheduled run, frame for frame and in the end state.
    live_series = [{"cycle": f["cycle"], "values": f["values"]}
                   for f in frames]
    assert (json.dumps(live_series, separators=(",", ":"))
            == json.dumps(ref_series, separators=(",", ":")))
    assert system.control.sample("*") == reference.control.sample("*")
    assert system.control.get(KNOB) == 8192

    # The socket-written checkpoint resumes into the same trajectory.
    _meta, state = load_checkpoint(cp_path)
    resumed = _system()
    resumed.restore(state)
    assert resumed.sim.cycle == 1001
    assert resumed.control.get(KNOB) == 8192
    resumed.sim.run(4000 - resumed.sim.cycle)
    assert resumed.control.sample("*") == reference.control.sample("*")


def test_abandoned_pause_auto_resumes():
    """A client that pauses and vanishes must not wedge the run."""
    server = TelemetryServer()
    server.start()
    host, port = server.address
    system = _system()
    try:
        with server.live_point(system, label="pt"):
            client = TelemetryClient(host, port)
            client.connect()
            send_message(client._sock, {"id": 1, "type": "pause"})
            runner = threading.Thread(target=lambda: system.sim.run(3000))
            runner.start()
            reply = client._next()
            assert reply["type"] == "paused"
            client.close()  # last client gone -> session auto-resumes
            runner.join(timeout=30)
            assert not runner.is_alive()
            assert system.sim.cycle == 3000
    finally:
        server.stop()


def test_live_point_guards_and_unattached_transparency():
    server = TelemetryServer()
    with pytest.raises(TelemetryError, match="not running"):
        with server.live_point(_system(), label="x"):
            pass
    server.start()
    try:
        uncontrolled = SystemBuilder(control=False).add_manager(
            "hog").add_sram("mem", base=0x0, size=0x10000).build()
        with pytest.raises(TelemetryError, match="control plane"):
            with server.live_point(uncontrolled, label="x"):
                pass

        # Attached-but-unwatched: the only residue is the poll seam —
        # no hooks, no schedule rules, and a clean detach afterwards.
        system = _system()
        baseline_hooks = len(system.sim._hook_heap)
        with server.live_point(system, label="pt") as session:
            assert system.sim._poll_fn.__self__ is session
            assert len(system.sim._hook_heap) == baseline_hooks
            assert system.sim._transient_hooks == 0
            assert not system.control.configured  # nothing in the digest
            with pytest.raises(TelemetryError, match="already attached"):
                with server.live_point(system, label="again"):
                    pass
            system.sim.run(500)
        assert system.sim._poll_fn is None

        # Telemetry forces sequential campaign execution.
        spec = loads("""
[scenario]
name = "mini"
seed = 1
[run]
horizon = 100
[topology]
[[topology.managers]]
name = "hog"
[[topology.memories]]
name = "mem"
kind = "sram"
base = 0x0
size = 0x10000
[traffic.hog]
kind = "hog"
window = 0x8000
""")
        with pytest.raises(ScenarioError, match="sequential"):
            run_campaign(spec, jobs=2, telemetry=server)
    finally:
        server.stop()


# ----------------------------------------------------------------------
# scenario runner integration
# ----------------------------------------------------------------------
STREAMED = """
[scenario]
name = "streamed"
seed = 3

[run]
horizon = 40_000

[topology]
[[topology.managers]]
name = "hog"

[[topology.memories]]
name = "mem"
kind = "sram"
base = 0x0
size = 0x1_0000

[traffic.hog]
kind = "hog"
window = 0x8000
beats = 16

[probes]
every = 2_000
start = 30_000
sample = ["traffic.hog.bytes_stolen", "port.hog.r.recv"]
"""


def test_run_point_streams_the_recorded_timeseries():
    """End-to-end tap equivalence through the runner: a socket watcher
    of a ``[probes]`` point receives, byte for byte, the timeseries the
    point records.  The late ``start`` leaves the watcher tens of
    thousands of cycles to subscribe, so the test cannot race."""
    spec = loads(STREAMED)
    server = TelemetryServer()
    server.start()
    host, port = server.address
    collected: list[dict] = []
    failures: list[BaseException] = []
    connected = threading.Event()

    def consume() -> None:
        try:
            client = TelemetryClient(host, port, timeout=60.0)
            client.connect()
            connected.set()
            while True:  # the point attaches moments after we connect
                try:
                    client.watch()
                    break
                except TelemetryClientError as exc:
                    if "no live point" not in str(exc):
                        raise
                    time.sleep(0.01)
            collected.extend(client.frames())
            client.close()
        except BaseException as exc:  # surface in the main thread
            failures.append(exc)
            connected.set()

    watcher = threading.Thread(target=consume, daemon=True)
    watcher.start()
    try:
        assert connected.wait(10)
        assert not failures
        result = run_point(expand(spec)[0], telemetry=server)
        watcher.join(timeout=60)
        assert not watcher.is_alive()
    finally:
        server.stop()
    assert not failures

    series = result.timeseries["probes"]
    assert series and series[0]["cycle"] == 30_000
    live = [{"cycle": f["cycle"], "values": f["values"]}
            for f in collected]
    assert (json.dumps(live, separators=(",", ":"))
            == json.dumps(series, separators=(",", ":")))
    for frame in collected:
        assert frame["point"] == "streamed"
