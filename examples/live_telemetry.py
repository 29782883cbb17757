#!/usr/bin/env python3
"""Live telemetry demo: stream, pause, steer, and resume a running SoC.

Drives the full telemetry loop in one process (DESIGN.md section 12):
a DMA and a bandwidth hog stream through a REALM-protected SRAM while

* a :class:`~repro.telemetry.ProbeTap` subscription renders live
  terminal sparklines straight from the simulation thread,
* a :class:`~repro.telemetry.TelemetryServer` serves the same frames
  over a socket, and
* a :class:`~repro.telemetry.TelemetryClient` — the library behind
  ``python -m repro watch`` — pauses the run at a commit boundary,
  halves the DMA's REALM budget while the machine is parked (landing
  exactly like a ``schedule.at`` rule would), and resumes.

The equivalent shell session against a real campaign:

    python -m repro run scenarios/stream_steady.toml --telemetry 7321 &
    python -m repro watch 127.0.0.1:7321 --pause-at 50000 \\
        --set realm.dma.region0.budget_bytes=8192

Run:  python examples/live_telemetry.py
"""

import sys
import threading

from repro.realm import RegionConfig
from repro.system import SystemBuilder
from repro.telemetry import (
    Dashboard,
    ProbeTap,
    TelemetryClient,
    TelemetryServer,
)
from repro.traffic import BandwidthHog, DmaEngine

PATTERNS = ["realm.dma.region0.total_bytes", "traffic.hog.bytes_stolen"]
KNOB = "realm.dma.region0.budget_bytes"
HORIZON = 6_000
PAUSE_AT = 3_000


def build_system():
    system = (
        SystemBuilder(name="live")
        .add_manager("dma", protect=True, granularity=16, regions=[
            RegionConfig(0x0, 0x20000, 4096, 500)
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


def main() -> None:
    system = build_system()

    # In-process consumer: frames straight to a terminal gauge panel.
    dashboard = Dashboard(sys.stdout, redraw=sys.stdout.isatty())
    tap = ProbeTap(system.sim, system.control.probes)
    tap.subscribe(lambda f: dashboard.update(f.payload()), PATTERNS,
                  every=200, label="demo")

    # Socket consumer: the same frames through the wire protocol.
    server = TelemetryServer()
    host, port = server.start()
    print(f"telemetry on {host}:{port}; streaming {HORIZON} cycles\n")

    with server.live_point(system, label="demo",
                           default_watch=(PATTERNS, 200, None)) as session:

        def simulate() -> None:
            # Start only once the client's pause request is queued: a
            # run started first can pass PAUSE_AT before it lands.
            if session.wait_for_command(timeout=10.0):
                system.sim.run(HORIZON)

        runner = threading.Thread(target=simulate, name="sim")
        runner.start()

        with TelemetryClient(host, port) as client:
            paused = client.pause(at=PAUSE_AT)
            # Parked at PAUSE_AT's commit boundary: cycle == PAUSE_AT+1,
            # the instant a schedule.at(PAUSE_AT) rule would observe.
            before = client.get(KNOB)
            client.set(KNOB, before // 2)
            print(f"\npaused at cycle {paused['cycle']}: "
                  f"{KNOB} {before} -> {client.get(KNOB)}; resuming\n")
            client.resume()

        runner.join()

    server.stop()
    final = system.control.sample(*PATTERNS)
    print(f"\ndone at cycle {system.sim.cycle}:")
    for path, value in final.items():
        print(f"  {path} = {value}")


if __name__ == "__main__":
    main()
