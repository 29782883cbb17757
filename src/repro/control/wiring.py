"""Probe/knob publication for every component a built system contains.

This module is the control plane's one map of the component zoo: given a
:class:`repro.system.System`, it registers the probes and knobs each part
publishes, under a stable dotted-path namespace:

====================  ==================================================
prefix                published by
====================  ==================================================
``port.<mgr>.<ch>``   the five manager-side AXI channels (counters,
                      occupancy gauge, and the handshake event source)
``realm.<mgr>``       REALM unit status/denial counters and, per region,
                      bookkeeping counters and ``budget_remaining``;
                      knobs for CTRL bits, granularity, and region
                      base/size/budget/period — all routed through the
                      register file behind the bus guard
``xbar`` / ``noc``    interconnect counters; per-router occupancy on the
                      NoC (``noc.r<x>c<y>.occupancy``); with QoS
                      arbitration, per-manager ``xbar.<mgr>.qos`` knobs
``mem.<name>``        SRAM/DRAM service counters
``cache.<name>``      LLC hit/miss/writeback/refill counters
``traffic.<mgr>``     generator progress counters and rate/enable knobs
                      (registered when traffic attaches)
====================  ==================================================

Registration happens once at build time; probes are lazy closures, so an
unused registry costs nothing per simulated cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.control.knobs import RegfilePort
from repro.control.plane import ControlPlane
from repro.interconnect.crossbar import AxiCrossbar
from repro.interconnect.noc import AxiNoc
from repro.mem.dram import DramModel
from repro.mem.sram import SramMemory
from repro.realm import register_file as rf
from repro.realm.unit import RealmUnit
from repro.traffic.core_model import CoreModel
from repro.traffic.dma import DmaEngine
from repro.traffic.driver import ManagerDriver
from repro.traffic.malicious import (
    BandwidthHog,
    StallingWriter,
    TricklingWriter,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system.builder import System


# ----------------------------------------------------------------------
# system-level registration (called once by SystemBuilder.build)
# ----------------------------------------------------------------------
def register_system(control: ControlPlane, system: "System") -> None:
    """Publish every built component's probes and knobs."""
    for name, bundle in system.ports.items():
        for channel_name in ("aw", "w", "b", "ar", "r"):
            control.probes.register_channel(
                f"port.{name}.{channel_name}",
                getattr(bundle, channel_name),
            )
    if system.regfile is not None:
        control.regfile_port = RegfilePort(system.regfile)
        for index, (name, unit) in enumerate(system.realms.items()):
            _register_realm(control, name, index, unit)
    _register_interconnect(control, system)
    for name, memory in system.memories.items():
        _register_memory(control, name, memory)
    for name, cache in system.caches.items():
        _register_cache(control, name, cache)


# ----------------------------------------------------------------------
# REALM units: probes read the unit, knobs go through the register file
# ----------------------------------------------------------------------
def _register_realm(
    control: ControlPlane, name: str, unit_index: int, unit: RealmUnit
) -> None:
    probes, knobs = control.probes, control.knobs
    port = control.regfile_port
    assert port is not None
    prefix = f"realm.{name}"
    unit_off = rf.unit_base(unit_index)

    probes.register(f"{prefix}.isolated", lambda u=unit: int(u.isolated),
                    kind="flag", doc="isolation engaged")
    probes.register(f"{prefix}.outstanding", lambda u=unit: u.outstanding,
                    kind="gauge", doc="downstream transactions in flight")
    # The synced RealmUnit accessors (not the raw mr/isolation fields):
    # during a frozen-stall sleep the raw counters lag until the wake-up
    # replay, and a probe must read the same value on both kernels.
    probes.register(f"{prefix}.denied_by_budget",
                    lambda u=unit: u.denied_by_budget,
                    doc="address beats refused for lack of budget")
    probes.register(f"{prefix}.denied_by_throttle",
                    lambda u=unit: u.denied_by_throttle,
                    doc="address beats refused by the throttle cap")
    probes.register(f"{prefix}.blocked_aw",
                    lambda u=unit: u.blocked_aw,
                    doc="AW beats held at the isolation stage")
    probes.register(f"{prefix}.blocked_ar",
                    lambda u=unit: u.blocked_ar,
                    doc="AR beats held at the isolation stage")
    # Span-replay statistics.  Scheduled hooks clamp spans to the commit
    # boundary they fire on, so a sampled read always sees counters that
    # are current as of the probed cycle (DESIGN.md section 11).  The
    # values describe the execution strategy, not the modelled hardware:
    # they differ across kernels and must stay out of golden schedules.
    probes.register(f"{prefix}.span_hits",
                    lambda u=unit: u.span_hits,
                    doc="spans this unit has joined (execution stat)")
    probes.register(f"{prefix}.span_cycles",
                    lambda u=unit: u.span_cycles,
                    doc="cycles replayed in closed form (execution stat)")

    # CTRL bits and the (intrusive) splitter granularity.
    ctrl = unit_off + rf.CTRL
    for bit, field, doc in (
        (rf.CTRL_REGULATION_EN, "regulation", "budget regulation enable"),
        (rf.CTRL_USER_ISOLATE, "isolate", "user-commanded isolation"),
        (rf.CTRL_THROTTLE_EN, "throttle", "outstanding-txn throttle enable"),
        (rf.CTRL_SPLITTER_EN, "splitter", "burst splitter enable"),
    ):
        knobs.register(
            f"{prefix}.ctrl.{field}",
            read=lambda b=bit, o=ctrl: bool(port.read(o) & b),
            write=lambda v, b=bit, o=ctrl: port.rmw_bit(o, b, v),
            kind="bool",
            doc=doc,
            intrusive=(bit == rf.CTRL_SPLITTER_EN),
        )
    knobs.register(
        f"{prefix}.granularity",
        read=lambda o=unit_off + rf.GRANULARITY: port.read(o),
        write=lambda v, o=unit_off + rf.GRANULARITY: port.write(o, v),
        doc="splitter fragment size in beats (drains the unit)",
        intrusive=True,
    )

    for region in range(unit.params.n_regions):
        _register_region(control, prefix, unit, unit_off, region)


def _register_region(
    control: ControlPlane,
    prefix: str,
    unit: RealmUnit,
    unit_off: int,
    region: int,
) -> None:
    probes, knobs = control.probes, control.knobs
    port = control.regfile_port
    base = unit_off + rf.region_base(region)
    rp = f"{prefix}.region{region}"

    for field, doc in (
        ("bytes_this_period", "bytes forwarded in the running period"),
        ("total_bytes", "bytes forwarded since reset"),
        ("read_bytes", "read bytes since reset"),
        ("write_bytes", "written bytes since reset"),
        ("txn_count", "transactions completed"),
        ("latency_sum", "summed transaction latency"),
        ("latency_max", "worst transaction latency"),
        ("stall_cycles", "address beats stalled by regulation"),
    ):
        probes.register(
            f"{rp}.{field}",
            lambda u=unit, r=region, f=field: getattr(u.region_snapshot(r), f),
            doc=doc,
        )
    probes.register(
        f"{rp}.bandwidth_milli",
        lambda u=unit, r=region: int(u.region_snapshot(r).bandwidth * 1000),
        kind="gauge",
        doc="bytes/cycle this period, fixed-point x1000",
    )
    probes.register(
        f"{rp}.budget_remaining",
        lambda u=unit, r=region: u.region_remaining(r),
        kind="gauge",
        doc="budget credit left this period",
    )

    for offset, field, doc, intrusive in (
        (rf.BUDGET, "budget_bytes", "bytes granted per period", False),
        (rf.PERIOD, "period_cycles", "reservation period length", False),
        (rf.REGION_BASE, "base", "region base address (drains)", True),
        (rf.REGION_SIZE, "size", "region size in bytes (drains)", True),
    ):
        knobs.register(
            f"{rp}.{field}",
            read=lambda o=base + offset: port.read(o),
            write=lambda v, o=base + offset: port.write(o, v),
            doc=doc,
            intrusive=intrusive,
        )


# ----------------------------------------------------------------------
# interconnect
# ----------------------------------------------------------------------
def _register_interconnect(control: ControlPlane, system: "System") -> None:
    probes, knobs = control.probes, control.knobs
    fabric = system.interconnect
    if isinstance(fabric, AxiCrossbar):
        probes.register("xbar.aw_forwarded", lambda: fabric.aw_forwarded,
                        doc="write bursts forwarded")
        probes.register("xbar.ar_forwarded", lambda: fabric.ar_forwarded,
                        doc="read bursts forwarded")
        probes.register("xbar.decode_errors", lambda: fabric.decode_errors,
                        doc="requests answered with DECERR")
        if fabric.qos_arbitration:
            for index, name in enumerate(system.ports):
                knobs.register(
                    f"xbar.{name}.qos",
                    read=lambda i=index: fabric.qos_override.get(i, -1),
                    write=lambda v, i=index: (
                        fabric.qos_override.pop(i, None)
                        if v < 0
                        else fabric.qos_override.__setitem__(i, v)
                    ),
                    doc="QoS override at the arbiters (-1 = per-beat AxQOS)",
                )
    elif isinstance(fabric, AxiNoc):
        probes.register("noc.flits_injected", lambda: fabric.flits_injected,
                        doc="flits injected into either network")
        probes.register(
            "noc.flits",
            lambda: fabric.request_net.flits + fabric.response_net.flits,
            kind="gauge",
            doc="flits anywhere in either network",
        )
        for node in fabric.request_net.routers:
            x, y = node
            req = fabric.request_net.routers[node]
            rsp = fabric.response_net.routers[node]
            probes.register(
                f"noc.r{x}c{y}.occupancy",
                lambda a=req, b=rsp: a.held + b.held,
                kind="gauge",
                doc="flits queued or staged in this router (both nets)",
            )
            probes.register(
                f"noc.r{x}c{y}.flits_routed",
                lambda a=req, b=rsp: a.flits_routed + b.flits_routed,
                doc="flits this router has forwarded (both nets)",
            )


# ----------------------------------------------------------------------
# memories and caches
# ----------------------------------------------------------------------
def _register_memory(control: ControlPlane, name: str, memory) -> None:
    probes = control.probes
    prefix = f"mem.{name}"
    if isinstance(memory, SramMemory):
        fields = ("reads_served", "writes_served", "read_beats",
                  "write_beats", "atomics_served")
    elif isinstance(memory, DramModel):
        fields = ("reads_served", "writes_served", "row_hits", "row_misses")
    else:  # pragma: no cover - future backend
        return
    for field in fields:
        probes.register(f"{prefix}.{field}",
                        lambda m=memory, f=field: getattr(m, f))


def _register_cache(control: ControlPlane, name: str, cache) -> None:
    for field in ("hits", "misses", "writebacks", "refills",
                  "reads_served", "writes_served"):
        control.probes.register(
            f"cache.{name}.{field}",
            lambda c=cache, f=field: getattr(c, f),
        )


# ----------------------------------------------------------------------
# traffic generators (registered as they attach)
# ----------------------------------------------------------------------
def register_traffic(control: ControlPlane, manager: str, component) -> None:
    """Publish one attached traffic generator's probes and knobs."""
    probes, knobs = control.probes, control.knobs
    prefix = (
        f"driver.{manager}"
        if isinstance(component, ManagerDriver)
        else f"traffic.{manager}"
    )
    if any(p == prefix or p.startswith(prefix + ".") for p in probes.paths()):
        return  # one generator per manager publishes; extras stay silent
    if isinstance(component, CoreModel):
        probes.register(f"{prefix}.progress", lambda c=component: c.progress,
                        doc="trace accesses completed")
        probes.register(f"{prefix}.done", lambda c=component: int(c.done),
                        kind="flag", doc="trace finished")
        probes.register(f"{prefix}.worst_latency",
                        lambda c=component: c.worst_case_latency,
                        kind="gauge", doc="worst access latency so far")
    elif isinstance(component, DmaEngine):
        for field in ("bytes_read", "bytes_written", "read_bursts",
                      "write_bursts"):
            probes.register(f"{prefix}.{field}",
                            lambda c=component, f=field: getattr(c, f))
        knobs.register(
            f"{prefix}.enabled",
            read=lambda c=component: c.enabled,
            write=lambda v, c=component: c.start() if v else c.stop(),
            kind="bool", doc="issue new read bursts",
        )
        knobs.register(
            f"{prefix}.inter_burst_gap",
            read=lambda c=component: c.inter_burst_gap,
            write=lambda v, c=component: (
                setattr(c, "inter_burst_gap", v), c.wake(),
            ),
            doc="idle cycles between bursts (rate control)",
        )
    elif isinstance(component, BandwidthHog):
        probes.register(f"{prefix}.bytes_stolen",
                        lambda c=component: c.bytes_stolen)
        knobs.register(
            f"{prefix}.enabled",
            read=lambda c=component: c.enabled,
            write=lambda v, c=component: c.start() if v else c.stop(),
            kind="bool", doc="issue new read bursts",
        )
        knobs.register(
            f"{prefix}.max_outstanding",
            read=lambda c=component: c.max_outstanding,
            write=lambda v, c=component: (
                setattr(c, "max_outstanding", v), c.wake(),
            ),
            doc="read bursts kept in flight",
        )
    elif isinstance(component, StallingWriter):
        probes.register(f"{prefix}.aws_sent", lambda c=component: c.aws_sent)
        knobs.register(
            f"{prefix}.repeat",
            read=lambda c=component: c.repeat,
            write=lambda v, c=component: (setattr(c, "repeat", v), c.wake()),
            kind="bool", doc="keep re-issuing poisoned bursts",
        )
    elif isinstance(component, TricklingWriter):
        probes.register(f"{prefix}.bursts_completed",
                        lambda c=component: c.bursts_completed)
        knobs.register(
            f"{prefix}.gap",
            read=lambda c=component: c.gap,
            write=lambda v, c=component: (setattr(c, "gap", v), c.wake()),
            doc="cycles between trickled write beats",
        )
    elif isinstance(component, ManagerDriver):
        probes.register(f"{prefix}.completed",
                        lambda c=component: len(c.completed),
                        doc="scripted operations finished")
        probes.register(f"{prefix}.pending",
                        lambda c=component: c.pending_ops,
                        kind="gauge", doc="scripted operations outstanding")
