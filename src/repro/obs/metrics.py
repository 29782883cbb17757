"""Typed execution-metrics registry (DESIGN.md section 15).

Counters, gauges, and histograms for *execution-side* measurements:
how the engine ran, never what it simulated.  The registry is hung off
:class:`~repro.sim.kernel.Simulator` through the flight recorder and is
deliberately outside the snapshot/digest contract — capturing or
restoring these objects from a ``state_capture``/``state_restore`` hook
is a lint error (``obs-isolation``).

A registry snapshot is a plain JSON-safe dict::

    {
        "counters":   {name: int | float, ...},
        "gauges":     {name: int | float, ...},
        "histograms": {name: {"counts": {bucket: count, ...}}, ...},
    }

Names are dotted paths (``kernel.ticks_executed``,
``wake.channel.<component>``); consumers parse by fixed prefix/suffix
only, so component names containing dots stay unambiguous.
"""

from __future__ import annotations

from typing import Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "profile_rows",
    "span_stats_view",
]

Number = Union[int, float]


class Counter:
    """A monotonically accumulated value (int or float seconds)."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Exact small-domain histogram: occurrence count per bucket value."""

    __slots__ = ("name", "counts")
    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: dict = {}

    def observe(self, value: Number, count: int = 1) -> None:
        counts = self.counts
        counts[value] = counts.get(value, 0) + count

    def total(self) -> int:
        return sum(self.counts.values())


class MetricsRegistry:
    """Name -> metric map with get-or-create typed accessors."""

    def __init__(self) -> None:
        self._metrics: dict = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """Serialize every registered metric into a JSON-safe dict."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if type(metric) is Counter:
                counters[name] = metric.value
            elif type(metric) is Gauge:
                gauges[name] = metric.value
            else:
                histograms[name] = {
                    "counts": {
                        str(bucket): metric.counts[bucket]
                        for bucket in sorted(metric.counts)
                    }
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


# ----------------------------------------------------------------------
# registry views: the legacy report shapes, parsed back out of a
# snapshot dict so every printer reads from one source of truth.
# ----------------------------------------------------------------------
def profile_rows(metrics: dict) -> list:
    """``(component name, seconds, ticks)`` rows, slowest first.

    The per-component tick-time rows ``--profile`` prints, read from
    the ``tick.<name>.seconds`` / ``tick.<name>.ticks`` counters —
    estimates scaled up from the recorder's 1-in-``PHASE_STRIDE``
    sampled steps.  Returns ``[]`` when no step was sampled.
    """
    counters = metrics.get("counters", {})
    seconds: dict = {}
    ticks: dict = {}
    for name, value in counters.items():
        if name.startswith("tick.") and name.endswith(".seconds"):
            seconds[name[len("tick."):-len(".seconds")]] = value
        elif name.startswith("tick.") and name.endswith(".ticks"):
            ticks[name[len("tick."):-len(".ticks")]] = value
    rows = [
        (name, value, ticks.get(name, 0))
        for name, value in seconds.items()
    ]
    rows.sort(key=lambda row: row[1], reverse=True)
    return rows


def span_stats_view(metrics: dict) -> dict:
    """The legacy ``span_stats`` dict, reconstructed from a snapshot."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    aborts: dict = {}
    units: dict = {}
    for name, value in counters.items():
        if name.startswith("span.abort."):
            aborts[name[len("span.abort."):]] = value
        elif name.startswith("span.unit."):
            unit, _, field = name[len("span.unit."):].rpartition(".")
            entry = units.setdefault(unit, {"span_hits": 0, "span_cycles": 0})
            if field == "hits":
                entry["span_hits"] = value
            elif field == "cycles":
                entry["span_cycles"] = value
    return {
        "enabled": bool(gauges.get("span.enabled", 0)),
        "spans_entered": counters.get("span.entered", 0),
        "span_cycles_replayed": counters.get("span.cycles_replayed", 0),
        "aborts": dict(sorted(aborts.items())),
        "units": dict(sorted(units.items())),
    }
