"""Typed scenario specifications and their canonical dict form.

A scenario file describes one complete experiment declaratively:

* ``[scenario]``  — name, master seed, kernel choice;
* ``[run]``       — how long to simulate (until traffic finishes, or a
  fixed horizon) and the watchdog limit;
* ``[topology]``  — managers (REALM-protected, baseline-regulated, or
  bare, each with its own regulator parameterization — heterogeneous
  realms included), the interconnect flavor, and the memory backends;
* ``[traffic]``   — one generator binding per manager (core trace, DMA
  pattern, or a malicious generator);
* ``[[warm]]``    — cache pre-loading directives;
* ``[campaign]``  — explicit variant points and cartesian sweep axes
  expanded by :mod:`repro.scenario.sweep`;
* ``[smoke]``     — overrides applied for quick CI / golden-trace runs.

Each spec class declares its fields once: the dataclass field carries
an :class:`Entry` (accepted types, default, choices, bounds, nested
spec) as metadata, and one loader (:func:`_load`) and one serialiser
(:func:`_dump`) walk those tables.  The dict form lists the fields in
declaration order and leaves optional fields (default ``None`` or
empty) out at their default.  Rules that relate two or more fields
live in the class's ``_check``.

Validation is strict: unknown fields, wrong types, out-of-range values
and inconsistent cross-field combinations all raise
:class:`ScenarioError` with the offending path.
``from_dict(to_dict(spec)) == spec`` holds for every valid spec (the
round-trip property the test suite checks).
"""

from __future__ import annotations

import difflib
from dataclasses import KW_ONLY, MISSING, dataclass, field, fields, replace
from functools import cache
from typing import Any, Mapping, Optional

from repro.control.paths import is_path_segment
from repro.mem.dram import DramTiming
from repro.realm.config import RealmUnitParams
from repro.realm.regions import RegionConfig, UNLIMITED
from repro.scenario.errors import ScenarioError

INTERCONNECTS = ("auto", "direct", "crossbar", "noc")
MEMORY_KINDS = ("sram", "dram", "cached_dram")
TRAFFIC_KINDS = ("core", "dma", "hog", "staller", "trickler")
REGULATOR_KINDS = ("abu", "abe", "cnf")
CORE_PATTERNS = ("susan", "sequential", "random", "strided")

_REQUIRED = object()  # an entry default: the field must be given


# ----------------------------------------------------------------------
# field tables
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Entry:
    """How one field of a spec's dict form is read, checked and written.

    * *types* — accepted value types; ``float`` alone also takes an int
      and stores a float; empty accepts any value.
    * *default* — the value when the key is absent (``_REQUIRED``: the
      field must be given).
    * *key* — the dict key, the field name unless given; a dotted key
      (``scenario.name``) names a field of a sub-table.
    * *kinds* — the field exists only for these values of the spec's
      ``kind`` field, mapped to its default for each.
    * *choices*, *lo*, *hi* — allowed values and inclusive bounds.
    * *name* — the value becomes a dotted-path segment.
    * *unlimited* — the string ``"unlimited"`` spells ``UNLIMITED``.
    * *spec* — a nested spec class (a sub-table).
    * *many* — an array of *spec* tables or of *types* items, *length*
      items long if given.
    * *by_name* — a table of *spec* tables, each key stored in this
      field of its spec.
    * *pairs* — a table of overrides, stored as sorted (key, value)
      pairs.
    * *omit* — whether the dict form leaves the field out at its
      default; by default only a ``None`` or empty default is left out.
    """

    types: Any = ()
    default: Any = _REQUIRED
    _: KW_ONLY
    key: str = ""
    kinds: Optional[dict] = None
    choices: Optional[tuple] = None
    lo: Optional[int] = None
    hi: Optional[int] = None
    name: bool = False
    unlimited: bool = False
    spec: Optional[type] = None
    many: bool = False
    length: Optional[int] = None
    by_name: str = ""
    pairs: bool = False
    omit: Optional[bool] = None

    def __post_init__(self) -> None:
        if not isinstance(self.types, tuple):
            self.types = (self.types,)

    def default_for(self, kind: Optional[str]) -> Any:
        return self.default if self.kinds is None else self.kinds[kind]

    def omits(self, value: Any, kind: Optional[str]) -> bool:
        default = self.default_for(kind)
        omit = default in (None, ()) if self.omit is None else self.omit
        return omit and value == default


def entry(types: Any = (), default: Any = _REQUIRED, **rules: Any) -> Any:
    """A dataclass field declared by its :class:`Entry`.

    A field that only some kinds have defaults to ``None`` on the
    others.
    """
    e = Entry(types, default, **rules)
    if e.kinds:
        default = None
    return field(default=MISSING if default is _REQUIRED else default,
                 metadata={"entry": e})


# RegionConfig (realm/regions.py) spells its no-limit sentinel
# "unlimited".
_REGION_TABLE = {
    "base": Entry(int, 0),
    "size": Entry(int),
    "budget_bytes": Entry(int, UNLIMITED, unlimited=True),
    "period_cycles": Entry(int, UNLIMITED, unlimited=True, lo=1),
}


@cache
def _table(cls: type) -> dict[str, Entry]:
    """The field table of *cls*: field name -> entry, in dict order.

    Other dataclasses defined outside this module (RealmUnitParams,
    DramTiming) take all their fields, typed by their defaults.
    """
    if cls is RegionConfig:
        table = _REGION_TABLE
    else:
        table = {}
        for f in fields(cls):
            if "entry" in f.metadata:
                table[f.name] = f.metadata["entry"]
            elif not issubclass(cls, _Spec):
                table[f.name] = Entry(type(f.default), f.default)
    for name, e in table.items():
        e.key = e.key or name
    return table


# ----------------------------------------------------------------------
# the loader and the serialiser
# ----------------------------------------------------------------------
def _type_name(value: Any) -> str:
    return type(value).__name__


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_table(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"expected a table, got {_type_name(value)}",
                            path=path)
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"expected an array, got {_type_name(value)}",
                            path=path)
    return value


def _check_type(value: Any, types: tuple, path: str) -> Any:
    # bool is an int subclass: only accept it where bool is asked for.
    if isinstance(value, bool) and bool not in types:
        raise ScenarioError(f"expected {_expected(types)}, got bool", path=path)
    if not isinstance(value, types):
        raise ScenarioError(
            f"expected {_expected(types)}, got {_type_name(value)}", path=path
        )
    return value


def _expected(types: tuple) -> str:
    return " or ".join(t.__name__ for t in types)


def _check_name(name: str, path: str) -> str:
    # Names become dotted-path segments (probe/knob paths), so they must
    # satisfy the shared control-plane segment charset.
    if not is_path_segment(name):
        raise ScenarioError(
            f"name must be alphanumeric/_/- (no dots), got {name!r}", path=path
        )
    return name


def _reject_unknown(table: dict, keys: list[str], path: str) -> None:
    heads: dict[str, list[str]] = {}
    for key in keys:
        head, _, rest = key.partition(".")
        heads.setdefault(head, []).append(rest)
    for key in table:
        if key not in heads:
            hint = difflib.get_close_matches(key, list(heads), n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ScenarioError(f"unknown field {key!r}{suffix}",
                                path=path or "<root>")
    for head, rests in heads.items():
        if rests[0] and isinstance(table.get(head), dict):
            _reject_unknown(table[head], rests, _at(path, head))


def _scalar(e: Entry, value: Any, path: str) -> Any:
    if e.unlimited and isinstance(value, str):
        if value != "unlimited":
            raise ScenarioError(
                f'expected an integer or "unlimited", got {value!r}',
                path=path,
            )
        return UNLIMITED
    if e.types == (float,):
        value = float(_check_type(value, (float, int), path))
    elif e.types:
        _check_type(value, e.types, path)
    if e.choices is not None and value not in e.choices:
        raise ScenarioError(
            f"must be one of {', '.join(map(repr, e.choices))}; got {value!r}",
            path=path,
        )
    if e.lo is not None and value < e.lo:
        raise ScenarioError(f"must be >= {e.lo}", path=path)
    if e.hi is not None and value > e.hi:
        raise ScenarioError(f"must be <= {e.hi}", path=path)
    if e.name:
        _check_name(value, path)
    # Values at or above the sentinel clamp to it, so they round-trip
    # ("unlimited" is the canonical spelling of every such value).
    return min(value, UNLIMITED) if e.unlimited else value


def _item(e: Entry, raw: Any, path: str) -> Any:
    return _load(e.spec, raw, path) if e.spec else _scalar(e, raw, path)


def _value(e: Entry, raw: Any, path: str) -> Any:
    if e.by_name:
        return tuple(
            _load(e.spec, item, _at(path, key),
                  **{e.by_name: _check_name(key, _at(path, key))})
            for key, item in _as_table(raw, path).items()
        )
    if e.pairs:
        table = _as_table(raw, path)
        for key in table:
            _check_type(key, (str,), path)
        return tuple(sorted(table.items()))
    if e.many:
        items = _as_list(raw, path)
        if e.length is not None and len(items) != e.length:
            raise ScenarioError(f"expected {e.length} items, got {len(items)}",
                                path=path)
        return tuple(_item(e, item, f"{path}[{i}]")
                     for i, item in enumerate(items))
    return _item(e, raw, path)


def _read(e: Entry, table: dict, path: str, kind: Optional[str]) -> Any:
    head, _, key = e.key.rpartition(".")
    if head:  # a field of a sub-table
        path = _at(path, head)
        table = _as_table(table.get(head, {}), path)
    if key not in table:
        default = e.default_for(kind)
        if default is _REQUIRED:
            raise ScenarioError("required field missing", path=_at(path, key))
        return default
    return _value(e, table[key], _at(path, key))


def _load(cls: type, raw: Any, path: str, **given: Any) -> Any:
    """Build a *cls* from its dict form by walking its field table.

    The ``kind`` field is read first: it selects the fields that exist.
    A class may rewrite an irregular spelling first (``_prepare``) and
    checks its cross-field rules last (``_check``).
    """
    table = _as_table(raw, path or "<root>")
    prepare = getattr(cls, "_prepare", None)
    if prepare is not None:
        table = prepare(table, path)
    entries = _table(cls)
    kind = None
    if "kind" in entries:
        kind = given["kind"] = _read(entries["kind"], table, path, None)
    live = {name: e for name, e in entries.items()
            if e.kinds is None or kind in e.kinds}
    _reject_unknown(table, [e.key for e in live.values()], path)
    for name, e in live.items():
        if name not in given:
            given[name] = _read(e, table, path, kind)
    try:
        spec = cls(**given)
    except ValueError as exc:  # an external class's own checks
        raise ScenarioError(str(exc), path=path) from exc
    check = getattr(spec, "_check", None)
    if check is not None:
        check(path)
    return spec


def _out(e: Entry, value: Any) -> Any:
    if e.by_name:
        return {getattr(item, e.by_name): _dump(item) for item in value}
    if e.pairs:
        return dict(value)
    if e.spec is not None:
        return [_dump(item) for item in value] if e.many else _dump(value)
    if e.many:
        return list(value)
    if e.unlimited and value >= UNLIMITED:
        return "unlimited"
    return value


def _dump(spec: Any) -> dict:
    """The dict form of *spec*, walked from its field table.

    A class may respell an irregular field last (``_dumped``).
    """
    out: dict[str, Any] = {}
    kind = getattr(spec, "kind", None)
    for name, e in _table(type(spec)).items():
        if e.kinds is not None and kind not in e.kinds:
            continue
        value = getattr(spec, name)
        if e.omits(value, kind):
            continue
        head, _, key = e.key.rpartition(".")
        (out.setdefault(head, {}) if head else out)[key] = _out(e, value)
    dumped = getattr(spec, "_dumped", None)
    return dumped(out) if dumped is not None else out


class _Spec:
    """A spec class: its dict form is walked from its field table."""

    @classmethod
    def from_dict(cls, raw: Any, path: str = ""):
        return _load(cls, raw, path)

    def to_dict(self) -> dict:
        return _dump(self)


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class RegulatorSpec(_Spec):
    """A baseline regulator (related work) in front of one manager."""

    kind: str = entry(str, choices=REGULATOR_KINDS)
    budget_bytes: Optional[int] = entry(int, kinds={"abu": _REQUIRED})
    period_cycles: Optional[int] = entry(int, lo=1,
                                         kinds={"abu": _REQUIRED})
    nominal_burst: Optional[int] = entry(int, lo=1, hi=256,
                                         kinds={"abe": 1})
    max_outstanding: Optional[int] = entry(int, kinds={"abe": 4})
    depth_beats: Optional[int] = entry(int, kinds={"cnf": 256})


@dataclass(frozen=True, kw_only=True)
class ManagerScenario(_Spec):
    """One manager port, with its (optional) regulation stage."""

    name: str = entry(str, name=True)
    protect: bool = entry(bool, False)
    capacity: int = entry(int, 2)
    granularity: Optional[int] = entry(int, None)
    regulation: Optional[bool] = entry(bool, None)
    throttle: Optional[bool] = entry(bool, None)
    node: Optional[tuple[int, int]] = entry(int, None, many=True, length=2)
    regions: tuple[RegionConfig, ...] = entry(default=(), spec=RegionConfig,
                                              many=True)
    realm: Optional[RealmUnitParams] = entry(default=None,
                                             spec=RealmUnitParams)
    regulator: Optional[RegulatorSpec] = entry(default=None,
                                               spec=RegulatorSpec)

    @property
    def wants_realm(self) -> bool:
        return (
            self.protect
            or self.granularity is not None
            or bool(self.regions)
            or self.realm is not None
        )

    def _check(self, path: str) -> None:
        if self.regulator is not None and self.wants_realm:
            raise ScenarioError(
                "choose either a REALM unit (protect/granularity/regions/"
                "realm) or a baseline regulator, not both", path=path
            )
        if (
            (self.regulation is not None or self.throttle is not None)
            and not self.wants_realm
        ):
            raise ScenarioError(
                "regulation/throttle apply to a REALM unit only — also set "
                "protect/granularity/regions/realm on this manager",
                path=path,
            )


@dataclass(frozen=True, kw_only=True)
class MemoryScenario(_Spec):
    """One subordinate memory backend."""

    name: str = entry(str, name=True)
    kind: str = entry(str, choices=MEMORY_KINDS)
    base: int = entry(int)
    size: int = entry(int, lo=1)
    capacity: int = entry(int, 2)
    node: Optional[tuple[int, int]] = entry(int, None, many=True, length=2)
    read_latency: Optional[int] = entry(int, kinds={"sram": 1})
    write_latency: Optional[int] = entry(int, kinds={"sram": 1})
    timing: Optional[DramTiming] = entry(
        spec=DramTiming, kinds=dict.fromkeys(("dram", "cached_dram"))
    )
    cache_name: Optional[str] = entry(str, name=True,
                                      kinds={"cached_dram": "llc"})
    llc_capacity: Optional[int] = entry(int, lo=1,
                                        kinds={"cached_dram": 64 * 1024})
    llc_ways: Optional[int] = entry(int, lo=1, kinds={"cached_dram": 8})
    line_bytes: Optional[int] = entry(int, kinds={"cached_dram": 64})
    hit_latency: Optional[int] = entry(int, kinds={"cached_dram": 1})
    front_capacity: Optional[int] = entry(int, kinds={"cached_dram": 4})


@dataclass(frozen=True, kw_only=True)
class NocSpec(_Spec):
    """The ``[topology.noc]`` mesh."""

    width: int = entry(int)
    height: int = entry(int)
    router_depth: int = entry(int, 4)


@dataclass(frozen=True, kw_only=True)
class TopologySpec(_Spec):
    """Managers + interconnect + memories."""

    interconnect: str = entry(str, "auto", choices=INTERCONNECTS)
    qos_arbitration: bool = entry(bool, False)
    managers: tuple[ManagerScenario, ...] = entry(spec=ManagerScenario,
                                                  many=True)
    memories: tuple[MemoryScenario, ...] = entry(spec=MemoryScenario,
                                                 many=True)
    noc: Optional[NocSpec] = entry(default=None, spec=NocSpec)

    def manager(self, name: str) -> ManagerScenario:
        for spec in self.managers:
            if spec.name == name:
                return spec
        raise ScenarioError(f"no manager named {name!r}", path="topology")

    def _check(self, path: str) -> None:
        if self.interconnect == "noc" and self.noc is None:
            raise ScenarioError("required field missing",
                                path=f"{path}.noc")
        if self.interconnect != "noc" and self.noc is not None:
            raise ScenarioError(
                'a [topology.noc] table requires interconnect = "noc"',
                path=f"{path}.noc",
            )
        if not self.managers:
            raise ScenarioError("need at least one manager",
                                path=f"{path}.managers")
        if not self.memories:
            raise ScenarioError("need at least one memory",
                                path=f"{path}.memories")
        for group in ("managers", "memories"):
            names = [item.name for item in getattr(self, group)]
            for name in names:
                if names.count(name) > 1:
                    raise ScenarioError(f"duplicate name {name!r}",
                                        path=f"{path}.{group}")
        if self.interconnect == "direct" and (len(self.managers) != 1
                                              or len(self.memories) != 1):
            raise ScenarioError(
                "direct wiring needs exactly one manager and one memory",
                path=f"{path}.interconnect",
            )


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class TrafficScenario(_Spec):
    """One traffic generator bound to a manager port.

    The generator parameters follow ``kind`` and ``enabled`` in name
    order, as the dict form lists them; ``kinds`` maps each generator
    that takes a parameter to its default there.  Every kind but
    ``core`` takes exactly its generator's keyword arguments.
    """

    manager: str  # the binding's key in the [traffic] table
    kind: str = entry(str, choices=TRAFFIC_KINDS)
    enabled: bool = entry(bool, True)
    base: Optional[int] = entry(int, kinds={"core": 0})
    beats: Optional[int] = entry(int, lo=1, hi=256, kinds={
        "core": 1, "hog": 256, "staller": 256, "trickler": 16})
    burst_beats: Optional[int] = entry(int, lo=1, hi=256,
                                       kinds={"dma": 256})
    dst_base: Optional[int] = entry(int, kinds={"dma": _REQUIRED})
    dst_size: Optional[int] = entry(int, kinds={"dma": _REQUIRED})
    footprint: Optional[int] = entry(int, kinds={"core": 16 * 1024})
    gap: Optional[int] = entry(int, kinds={"core": 0, "trickler": 64})
    gap_mean: Optional[int] = entry(int, kinds={"core": 2})
    inter_burst_gap: Optional[int] = entry(int, kinds={"dma": 0})
    max_outstanding: Optional[int] = entry(int, kinds={"hog": 2})
    n_accesses: Optional[int] = entry(int, lo=1, kinds={"core": _REQUIRED})
    n_buffers: Optional[int] = entry(int, lo=1, kinds={"dma": 2})
    pattern: Optional[str] = entry(str, choices=CORE_PATTERNS,
                                   kinds={"core": "susan"})
    read_fraction: Optional[float] = entry((float, int), lo=0, hi=1,
                                           kinds={"core": 0.8})
    repeat: Optional[bool] = entry(bool, kinds={"staller": False})
    rw: Optional[str] = entry(str, choices=("read", "write"),
                              kinds={"core": "read"})
    seed: Optional[int] = entry(int, kinds={"core": None})
    size: Optional[int] = entry(int, lo=0, hi=7,
                                kinds=dict.fromkeys(TRAFFIC_KINDS, 3))
    src_base: Optional[int] = entry(int, kinds={"dma": _REQUIRED})
    src_size: Optional[int] = entry(int, kinds={"dma": _REQUIRED})
    stride: Optional[int] = entry(int, kinds={"core": 64})
    target: Optional[int] = entry(int, kinds={"staller": 0, "trickler": 0})
    target_base: Optional[int] = entry(int, kinds={"hog": 0})
    window: Optional[int] = entry(int, kinds={"hog": 0x10000})

    @property
    def params(self) -> dict[str, Any]:
        """The generator parameters this binding's kind takes, by name."""
        return {
            name: getattr(self, name)
            for name, e in _table(TrafficScenario).items()
            if e.kinds is not None and self.kind in e.kinds
        }

    def param(self, name: str, default: Any = None) -> Any:
        value = getattr(self, name, None)
        return default if value is None else value

    def with_params(self, **updates: Any) -> "TrafficScenario":
        return replace(self, **updates)


# ----------------------------------------------------------------------
# run / warm / campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class RunSpec(_Spec):
    """How long one scenario point simulates."""

    max_cycles: int = entry(int, 2_000_000, lo=1)
    # managers whose core traffic must finish
    until: tuple[str, ...] = entry(str, (), many=True)
    # fixed cycle count (when `until` is empty)
    horizon: int = entry(int, 0, lo=0, omit=True)

    @staticmethod
    def _prepare(table: dict, path: str) -> dict:
        # `until = "core"` is the one-manager spelling of a list.
        if isinstance(table.get("until"), str):
            return {**table, "until": [table["until"]]}
        return table

    def _check(self, path: str) -> None:
        if bool(self.until) == bool(self.horizon):
            raise ScenarioError(
                "exactly one of `until` (traffic completion) or a positive "
                "`horizon` (fixed cycles) must be given", path=path
            )


@dataclass(frozen=True, kw_only=True)
class WarmSpec(_Spec):
    """Pre-load a cache with lines from its backing memory."""

    cache: str = entry(str, "llc")
    base: int = entry(int)
    size: int = entry(int)


@dataclass(frozen=True, kw_only=True)
class ProbesSpec(_Spec):
    """The ``[probes]`` section: the default periodic probe sampler."""

    sample: tuple[str, ...] = entry(str, (), many=True)  # paths / patterns
    every: int = entry(int, 0)
    start: Optional[int] = entry(int, None, lo=0)

    def __bool__(self) -> bool:
        return bool(self.sample)

    def _check(self, path: str) -> None:
        if self.sample and self.every < 1:
            raise ScenarioError(
                "sampling probes needs a positive `every` interval",
                path=f"{path}.every",
            )
        if not self.sample and (self.every or self.start is not None):
            raise ScenarioError(
                "`every`/`start` without any `sample` paths", path=path
            )


@dataclass(frozen=True, kw_only=True)
class AdviseSpec(_Spec):
    """One advisor-loop action payload (sample -> plan -> write budgets)."""

    managers: tuple[str, ...] = entry(str, many=True)
    period_cycles: int = entry(int, lo=1)
    region: int = entry(int, 0, lo=0)
    link_bytes_per_cycle: float = entry(float, 8.0)
    headroom: float = entry(float, 1.25)
    set_period: bool = entry(bool, True)
    weights: tuple[float, ...] = entry(float, (), many=True)

    def _check(self, path: str) -> None:
        if not self.managers:
            raise ScenarioError("advise needs at least one manager",
                                path=f"{path}.managers")
        if self.weights and len(self.weights) != len(self.managers):
            raise ScenarioError(
                f"{len(self.weights)} weights for {len(self.managers)} "
                "managers", path=f"{path}.weights",
            )


@dataclass(frozen=True, kw_only=True)
class ScheduleActionSpec(_Spec):
    """One ``[[schedule]]`` rule: trigger (at/every/when) plus actions."""

    label: str = entry(str, name=True)
    at: Optional[int] = entry(int, None, lo=0)
    every: Optional[int] = entry(int, None, lo=1)
    start: Optional[int] = entry(int, None, lo=0)
    until: Optional[int] = entry(int, None)
    when: Optional[str] = entry(str, None)
    once: bool = entry(bool, False, omit=True)
    enabled: bool = entry(bool, True)
    set: tuple[tuple[str, Any], ...] = entry(default=(), pairs=True)
    sample: tuple[str, ...] = entry(str, (), many=True)
    advise: Optional[AdviseSpec] = entry(default=None, spec=AdviseSpec)

    def _check(self, path: str) -> None:
        for key, value in self.set:
            if isinstance(value, (dict, list, float)) or value is None:
                raise ScenarioError(
                    "knob values must be integers or booleans",
                    path=f"{path}.set.{key}",
                )
        if self.at is not None and self.every is not None:
            raise ScenarioError(
                "give exactly one trigger: `at = N` (one-shot), "
                "`every = P` (periodic), or `when` alone "
                "(event-triggered)", path=path
            )
        if self.at is None and self.every is None and self.when is None:
            raise ScenarioError(
                "give a trigger: `at = N` (one-shot), `every = P` "
                "(periodic), or a bare `when` comparison "
                "(event-triggered, fires on the rising edge)", path=path
            )
        if self.at is not None:
            for option in ("start", "until"):
                if getattr(self, option) is not None:
                    raise ScenarioError(
                        f"`{option}` applies to periodic and "
                        "event-triggered rules only",
                        path=f"{path}.{option}",
                    )
            if self.once:
                raise ScenarioError(
                    "`once` is implied by `at` (set it on `every` or "
                    "event-triggered rules)",
                    path=f"{path}.once",
                )
        elif self.every is not None:
            first = self.every if self.start is None else self.start
            if self.until is not None and self.until < first:
                raise ScenarioError("until precedes the first firing",
                                    path=f"{path}.until")
        else:  # event-triggered: evaluated every commit boundary
            first = 0 if self.start is None else self.start
            if self.until is not None and self.until < first:
                raise ScenarioError("until precedes the first evaluation",
                                    path=f"{path}.until")
        if self.when is not None:
            from repro.control.schedule import Comparison, ScheduleError

            try:
                Comparison.parse(self.when)
            except ScheduleError as exc:
                raise ScenarioError(str(exc), path=f"{path}.when") from exc
        if not self.set and not self.sample and self.advise is None:
            raise ScenarioError(
                "rule has no actions: give `set`, `sample`, and/or "
                "`advise`", path=path
            )


@dataclass(frozen=True, kw_only=True)
class PointSpec(_Spec):
    """One explicit campaign point: a label plus overrides."""

    label: str = entry(str)
    set: tuple[tuple[str, Any], ...] = entry(default=(), pairs=True,
                                             omit=False)


@dataclass(frozen=True, kw_only=True)
class AxisSpec(_Spec):
    """One cartesian sweep axis: every value applied to all `fields`."""

    values: tuple[Any, ...] = entry(many=True)
    fields: tuple[str, ...] = entry(str, many=True)
    labels: tuple[str, ...] = entry(str, (), many=True)

    # `field = "x"` is the one-field spelling of `fields = ["x"]`, and
    # the one the dict form writes.
    @staticmethod
    def _prepare(table: dict, path: str) -> dict:
        if ("field" in table) == ("fields" in table):
            raise ScenarioError("give exactly one of `field` or `fields`",
                                path=path)
        if "field" in table:
            table = dict(table, fields=[table["field"]])
            del table["field"]
        return table

    def _dumped(self, out: dict) -> dict:
        if len(self.fields) == 1:
            out = {("field" if key == "fields" else key): value
                   for key, value in out.items()}
            out["field"] = self.fields[0]
        return out

    def _check(self, path: str) -> None:
        if not self.fields:
            raise ScenarioError("axis needs at least one field",
                                path=f"{path}.fields")
        if not self.values:
            raise ScenarioError("axis needs at least one value",
                                path=f"{path}.values")
        if self.labels and len(self.labels) != len(self.values):
            raise ScenarioError(
                f"{len(self.labels)} labels for {len(self.values)} values",
                path=path,
            )


@dataclass(frozen=True, kw_only=True)
class CampaignSpec(_Spec):
    """Explicit points plus sweep axes; empty = run the base scenario."""

    baseline: str = entry(str, "", omit=True)
    points: tuple[PointSpec, ...] = entry(default=(), spec=PointSpec,
                                          many=True)
    sweep: tuple[AxisSpec, ...] = entry(default=(), spec=AxisSpec, many=True)

    def _check(self, path: str) -> None:
        labels = [p.label for p in self.points]
        for label in labels:
            if labels.count(label) > 1:
                raise ScenarioError(f"duplicate point label {label!r}",
                                    path=f"{path}.points")
        if self.baseline and self.baseline not in labels:
            raise ScenarioError(
                f"baseline {self.baseline!r} is not an explicit point label",
                path=f"{path}.baseline",
            )


# ----------------------------------------------------------------------
# the whole scenario
# ----------------------------------------------------------------------
_METRIC_GROUPS = ("latency", "counters", "realms", "channels")


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec(_Spec):
    """A complete, validated scenario/campaign description."""

    name: str = entry(str, key="scenario.name", name=True)
    description: str = entry(str, "", key="scenario.description")
    seed: int = entry(int, 0, key="scenario.seed")
    active_set: bool = entry(bool, True, key="scenario.active_set")
    batched: bool = entry(bool, True, key="scenario.batched")
    run: RunSpec = entry(spec=RunSpec)
    topology: TopologySpec = entry(spec=TopologySpec)
    traffic: tuple[TrafficScenario, ...] = entry(
        default=(), spec=TrafficScenario, by_name="manager", omit=False
    )
    warm: tuple[WarmSpec, ...] = entry(default=(), spec=WarmSpec, many=True)
    metrics: tuple[str, ...] = entry(str, _METRIC_GROUPS, many=True,
                                     choices=_METRIC_GROUPS,
                                     key="metrics.collect")
    probes: ProbesSpec = entry(default=ProbesSpec(), spec=ProbesSpec,
                               omit=True)
    schedule: tuple[ScheduleActionSpec, ...] = entry(
        default=(), spec=ScheduleActionSpec, many=True
    )
    campaign: CampaignSpec = entry(default=CampaignSpec(), spec=CampaignSpec,
                                   omit=True)
    smoke: tuple[tuple[str, Any], ...] = entry(default=(), pairs=True,
                                               key="smoke.set")

    def traffic_for(self, manager: str) -> Optional[TrafficScenario]:
        for binding in self.traffic:
            if binding.manager == manager:
                return binding
        return None

    def _check(self, path: str) -> None:
        topology = self.topology
        manager_names = {m.name for m in topology.managers}
        for binding in self.traffic:
            if binding.manager not in manager_names:
                raise ScenarioError(
                    f"binds unknown manager {binding.manager!r}",
                    path=f"traffic.{binding.manager}",
                )
        for name in self.run.until:
            binding = self.traffic_for(name)
            if binding is None or binding.kind != "core":
                raise ScenarioError(
                    f"run.until names {name!r}, which has no core traffic "
                    "binding (only core traces report completion)",
                    path="run.until",
                )
        cache_names = {
            m.cache_name for m in topology.memories if m.kind == "cached_dram"
        }
        for i, w in enumerate(self.warm):
            if w.cache not in cache_names:
                raise ScenarioError(
                    f"no cached_dram memory provides cache {w.cache!r}",
                    path=f"warm[{i}].cache",
                )
        rule_labels = [a.label for a in self.schedule]
        for label in rule_labels:
            if rule_labels.count(label) > 1:
                raise ScenarioError(f"duplicate rule label {label!r}",
                                    path="schedule")
        realm_managers = {m.name for m in topology.managers if m.wants_realm}
        for i, action in enumerate(self.schedule):
            advise = action.advise
            if advise is None:
                continue
            for manager in advise.managers:
                if manager not in realm_managers:
                    raise ScenarioError(
                        f"advise names {manager!r}, which has no REALM "
                        "unit (only protected managers publish demand "
                        "probes and budget knobs)",
                        path=f"schedule[{i}].advise.managers",
                    )
                params = topology.manager(manager).realm or RealmUnitParams()
                if advise.region >= params.n_regions:
                    raise ScenarioError(
                        f"region {advise.region} out of range for "
                        f"{manager!r} ({params.n_regions} regions)",
                        path=f"schedule[{i}].advise.region",
                    )


def validate(raw: Mapping[str, Any]) -> ScenarioSpec:
    """Validate a plain mapping into a :class:`ScenarioSpec`.

    Guaranteed to raise only :class:`ScenarioError` on bad input — any
    other exception escaping this function is a loader bug (the property
    suite hunts for them).
    """
    try:
        return ScenarioSpec.from_dict(raw)
    except ScenarioError:
        raise
    except Exception as exc:  # defence in depth: never leak raw errors
        raise ScenarioError(
            f"invalid scenario: {type(exc).__name__}: {exc}"
        ) from exc
