"""Flight recorder: execution-side observability (DESIGN.md section 15).

``repro.obs`` is the one home for *how the engine ran*: a typed
metrics registry, a bounded event journal, and a Chrome-trace-event
exporter.  Everything in here is execution strategy — never simulated
state, never snapshot-captured, never part of digests or goldens.
"""

from repro.obs.journal import EventJournal
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    profile_rows,
    span_stats_view,
)
from repro.obs.recorder import PHASE_STRIDE, FlightRecorder
from repro.obs.trace_export import campaign_trace, write_trace

__all__ = [
    "Counter",
    "EventJournal",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PHASE_STRIDE",
    "campaign_trace",
    "profile_rows",
    "span_stats_view",
    "write_trace",
]
