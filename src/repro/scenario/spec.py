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

Validation is strict: unknown fields, wrong types, and inconsistent
cross-field combinations all raise :class:`ScenarioError` with the
offending path.  ``from_dict(to_dict(spec)) == spec`` holds for every
valid spec (the round-trip property the test suite checks).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.control.paths import is_path_segment
from repro.mem.dram import DramTiming
from repro.realm.config import RealmUnitParams
from repro.realm.regions import RegionConfig, UNLIMITED
from repro.scenario.errors import ScenarioError

_MISSING = object()

INTERCONNECTS = ("auto", "direct", "crossbar", "noc")
MEMORY_KINDS = ("sram", "dram", "cached_dram")
TRAFFIC_KINDS = ("core", "dma", "hog", "staller", "trickler")
REGULATOR_KINDS = ("abu", "abe", "cnf")
CORE_PATTERNS = ("susan", "sequential", "random", "strided")


# ----------------------------------------------------------------------
# validation toolkit
# ----------------------------------------------------------------------
def _type_name(value: Any) -> str:
    return type(value).__name__


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


def _take(
    table: dict,
    key: str,
    path: str,
    types: tuple,
    default: Any = _MISSING,
    choices: Optional[Sequence[Any]] = None,
):
    if key not in table:
        if default is _MISSING:
            raise ScenarioError("required field missing", path=f"{path}.{key}")
        return default
    value = _check_type(table[key], types, f"{path}.{key}")
    if choices is not None and value not in choices:
        raise ScenarioError(
            f"must be one of {', '.join(map(repr, choices))}; got {value!r}",
            path=f"{path}.{key}",
        )
    return value


def _take_budget(table: dict, key: str, path: str, default: Any = _MISSING):
    """An int or the string ``"unlimited"`` (UNLIMITED sentinel)."""
    value = _take(table, key, path, (int, str), default=default)
    if isinstance(value, str):
        if value != "unlimited":
            raise ScenarioError(
                f'expected an integer or "unlimited", got {value!r}',
                path=f"{path}.{key}",
            )
        return UNLIMITED
    # Clamp to the sentinel so values at or above it round-trip exactly
    # ("unlimited" is the canonical spelling of every such value).
    return min(value, UNLIMITED)


def _budget_out(value: int):
    return "unlimited" if value >= UNLIMITED else value


def _reject_unknown(table: dict, known: Sequence[str], path: str) -> None:
    for key in table:
        if key not in known:
            hint = difflib.get_close_matches(key, known, n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ScenarioError(f"unknown field {key!r}{suffix}", path=path)


def _check_name(name: str, path: str) -> str:
    # Names become dotted-path segments (probe/knob paths), so they must
    # satisfy the shared control-plane segment charset.
    if not is_path_segment(name):
        raise ScenarioError(
            f"name must be alphanumeric/_/- (no dots), got {name!r}", path=path
        )
    return name


def _take_node(table: dict, path: str) -> Optional[tuple[int, int]]:
    if "node" not in table:
        return None
    raw = _as_list(table["node"], f"{path}.node")
    if len(raw) != 2 or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in raw
    ):
        raise ScenarioError("node must be a [x, y] pair of integers",
                            path=f"{path}.node")
    return (raw[0], raw[1])


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegulatorSpec:
    """A baseline regulator (related work) in front of one manager."""

    kind: str  # abu | abe | cnf
    budget_bytes: int = 0      # abu
    period_cycles: int = 0     # abu
    nominal_burst: int = 1     # abe
    max_outstanding: int = 4   # abe
    depth_beats: int = 256     # cnf

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "RegulatorSpec":
        table = _as_table(raw, path)
        kind = _take(table, "kind", path, (str,), choices=REGULATOR_KINDS)
        if kind == "abu":
            _reject_unknown(table, ("kind", "budget_bytes", "period_cycles"),
                            path)
            return cls(
                kind=kind,
                budget_bytes=_take(table, "budget_bytes", path, (int,)),
                period_cycles=_take(table, "period_cycles", path, (int,)),
            )
        if kind == "abe":
            _reject_unknown(table, ("kind", "nominal_burst", "max_outstanding"),
                            path)
            return cls(
                kind=kind,
                nominal_burst=_take(table, "nominal_burst", path, (int,),
                                    default=1),
                max_outstanding=_take(table, "max_outstanding", path, (int,),
                                      default=4),
            )
        _reject_unknown(table, ("kind", "depth_beats"), path)
        return cls(kind=kind,
                   depth_beats=_take(table, "depth_beats", path, (int,),
                                     default=256))

    def to_dict(self) -> dict:
        if self.kind == "abu":
            return {"kind": "abu", "budget_bytes": self.budget_bytes,
                    "period_cycles": self.period_cycles}
        if self.kind == "abe":
            return {"kind": "abe", "nominal_burst": self.nominal_burst,
                    "max_outstanding": self.max_outstanding}
        return {"kind": "cnf", "depth_beats": self.depth_beats}


def _region_from_dict(raw: Any, path: str) -> RegionConfig:
    table = _as_table(raw, path)
    _reject_unknown(
        table, ("base", "size", "budget_bytes", "period_cycles"), path
    )
    return RegionConfig(
        base=_take(table, "base", path, (int,), default=0),
        size=_take(table, "size", path, (int,)),
        budget_bytes=_take_budget(table, "budget_bytes", path,
                                  default=UNLIMITED),
        period_cycles=_take_budget(table, "period_cycles", path,
                                   default=UNLIMITED),
    )


def _region_to_dict(region: RegionConfig) -> dict:
    return {
        "base": region.base,
        "size": region.size,
        "budget_bytes": _budget_out(region.budget_bytes),
        "period_cycles": _budget_out(region.period_cycles),
    }


_REALM_PARAM_FIELDS = (
    "addr_width", "data_width", "n_regions", "max_pending",
    "write_buffer_depth", "write_buffer_present", "splitter_present",
)


def _realm_params_from_dict(raw: Any, path: str) -> RealmUnitParams:
    table = _as_table(raw, path)
    _reject_unknown(table, _REALM_PARAM_FIELDS, path)
    kwargs = {}
    defaults = RealmUnitParams()
    for name in _REALM_PARAM_FIELDS:
        current = getattr(defaults, name)
        types = (bool,) if isinstance(current, bool) else (int,)
        kwargs[name] = _take(table, name, path, types, default=current)
    try:
        return RealmUnitParams(**kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc), path=path) from exc


@dataclass(frozen=True)
class ManagerScenario:
    """One manager port, with its (optional) regulation stage."""

    name: str
    protect: bool = False
    granularity: Optional[int] = None
    regulation: Optional[bool] = None
    throttle: Optional[bool] = None
    capacity: int = 2
    node: Optional[tuple[int, int]] = None
    regions: tuple[RegionConfig, ...] = ()
    realm: Optional[RealmUnitParams] = None
    regulator: Optional[RegulatorSpec] = None

    _FIELDS = ("name", "protect", "granularity", "regulation", "throttle",
               "capacity", "node", "regions", "realm", "regulator")

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "ManagerScenario":
        table = _as_table(raw, path)
        _reject_unknown(table, cls._FIELDS, path)
        name = _check_name(_take(table, "name", path, (str,)), f"{path}.name")
        regions = tuple(
            _region_from_dict(r, f"{path}.regions[{i}]")
            for i, r in enumerate(
                _as_list(table.get("regions", []), f"{path}.regions")
            )
        )
        realm = (
            _realm_params_from_dict(table["realm"], f"{path}.realm")
            if "realm" in table
            else None
        )
        regulator = (
            RegulatorSpec.from_dict(table["regulator"], f"{path}.regulator")
            if "regulator" in table
            else None
        )
        spec = cls(
            name=name,
            protect=_take(table, "protect", path, (bool,), default=False),
            granularity=_take(table, "granularity", path, (int,),
                              default=None),
            regulation=_take(table, "regulation", path, (bool,), default=None),
            throttle=_take(table, "throttle", path, (bool,), default=None),
            capacity=_take(table, "capacity", path, (int,), default=2),
            node=_take_node(table, path),
            regions=regions,
            realm=realm,
            regulator=regulator,
        )
        if spec.regulator is not None and spec.wants_realm:
            raise ScenarioError(
                "choose either a REALM unit (protect/granularity/regions/"
                "realm) or a baseline regulator, not both", path=path
            )
        if (
            (spec.regulation is not None or spec.throttle is not None)
            and not spec.wants_realm
        ):
            raise ScenarioError(
                "regulation/throttle apply to a REALM unit only — also set "
                "protect/granularity/regions/realm on this manager",
                path=path,
            )
        return spec

    @property
    def wants_realm(self) -> bool:
        return (
            self.protect
            or self.granularity is not None
            or bool(self.regions)
            or self.realm is not None
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"name": self.name, "protect": self.protect,
                               "capacity": self.capacity}
        if self.granularity is not None:
            out["granularity"] = self.granularity
        if self.regulation is not None:
            out["regulation"] = self.regulation
        if self.throttle is not None:
            out["throttle"] = self.throttle
        if self.node is not None:
            out["node"] = list(self.node)
        if self.regions:
            out["regions"] = [_region_to_dict(r) for r in self.regions]
        if self.realm is not None:
            out["realm"] = {name: getattr(self.realm, name)
                            for name in _REALM_PARAM_FIELDS}
        if self.regulator is not None:
            out["regulator"] = self.regulator.to_dict()
        return out


_TIMING_FIELDS = ("t_cas", "t_rcd", "t_rp", "row_bytes", "n_banks")


def _timing_from_dict(raw: Any, path: str) -> DramTiming:
    table = _as_table(raw, path)
    _reject_unknown(table, _TIMING_FIELDS, path)
    defaults = DramTiming()
    kwargs = {
        name: _take(table, name, path, (int,), default=getattr(defaults, name))
        for name in _TIMING_FIELDS
    }
    try:
        return DramTiming(**kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc), path=path) from exc


def _timing_to_dict(timing: DramTiming) -> dict:
    return {name: getattr(timing, name) for name in _TIMING_FIELDS}


@dataclass(frozen=True)
class MemoryScenario:
    """One subordinate memory backend."""

    name: str
    kind: str
    base: int
    size: int
    read_latency: int = 1
    write_latency: int = 1
    capacity: int = 2
    node: Optional[tuple[int, int]] = None
    timing: Optional[DramTiming] = None
    cache_name: str = "llc"
    llc_capacity: int = 64 * 1024
    llc_ways: int = 8
    line_bytes: int = 64
    hit_latency: int = 1
    front_capacity: int = 4

    _COMMON = ("name", "kind", "base", "size", "capacity", "node")
    _BY_KIND = {
        "sram": ("read_latency", "write_latency"),
        "dram": ("timing",),
        "cached_dram": ("timing", "cache_name", "llc_capacity", "llc_ways",
                        "line_bytes", "hit_latency", "front_capacity"),
    }

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "MemoryScenario":
        table = _as_table(raw, path)
        kind = _take(table, "kind", path, (str,), choices=MEMORY_KINDS)
        _reject_unknown(table, cls._COMMON + cls._BY_KIND[kind], path)
        kwargs: dict[str, Any] = {
            "name": _check_name(_take(table, "name", path, (str,)),
                                f"{path}.name"),
            "kind": kind,
            "base": _take(table, "base", path, (int,)),
            "size": _take(table, "size", path, (int,)),
            "capacity": _take(table, "capacity", path, (int,), default=2),
            "node": _take_node(table, path),
        }
        if kind == "sram":
            kwargs["read_latency"] = _take(table, "read_latency", path,
                                           (int,), default=1)
            kwargs["write_latency"] = _take(table, "write_latency", path,
                                            (int,), default=1)
        else:
            if "timing" in table:
                kwargs["timing"] = _timing_from_dict(table["timing"],
                                                     f"{path}.timing")
        if kind == "cached_dram":
            kwargs["cache_name"] = _check_name(
                _take(table, "cache_name", path, (str,), default="llc"),
                f"{path}.cache_name",
            )
            for name in ("llc_capacity", "llc_ways", "line_bytes",
                         "hit_latency", "front_capacity"):
                kwargs[name] = _take(table, name, path, (int,),
                                     default=getattr(cls, name))
        if kwargs["size"] <= 0:
            raise ScenarioError("memory size must be positive",
                                path=f"{path}.size")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"name": self.name, "kind": self.kind,
                               "base": self.base, "size": self.size,
                               "capacity": self.capacity}
        if self.node is not None:
            out["node"] = list(self.node)
        if self.kind == "sram":
            out["read_latency"] = self.read_latency
            out["write_latency"] = self.write_latency
        elif self.timing is not None:
            out["timing"] = _timing_to_dict(self.timing)
        if self.kind == "cached_dram":
            out.update(
                cache_name=self.cache_name,
                llc_capacity=self.llc_capacity,
                llc_ways=self.llc_ways,
                line_bytes=self.line_bytes,
                hit_latency=self.hit_latency,
                front_capacity=self.front_capacity,
            )
        return out


@dataclass(frozen=True)
class TopologySpec:
    """Managers + interconnect + memories."""

    managers: tuple[ManagerScenario, ...]
    memories: tuple[MemoryScenario, ...]
    interconnect: str = "auto"
    qos_arbitration: bool = False
    noc_width: int = 0
    noc_height: int = 0
    router_depth: int = 4

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "TopologySpec":
        table = _as_table(raw, path)
        _reject_unknown(
            table,
            ("interconnect", "qos_arbitration", "noc", "managers", "memories"),
            path,
        )
        interconnect = _take(table, "interconnect", path, (str,),
                             default="auto", choices=INTERCONNECTS)
        noc_width = noc_height = 0
        router_depth = 4
        if interconnect == "noc":
            noc = _as_table(_take(table, "noc", path, (dict,)), f"{path}.noc")
            _reject_unknown(noc, ("width", "height", "router_depth"),
                            f"{path}.noc")
            noc_width = _take(noc, "width", f"{path}.noc", (int,))
            noc_height = _take(noc, "height", f"{path}.noc", (int,))
            router_depth = _take(noc, "router_depth", f"{path}.noc", (int,),
                                 default=4)
        elif "noc" in table:
            raise ScenarioError(
                'a [topology.noc] table requires interconnect = "noc"',
                path=f"{path}.noc",
            )
        managers = tuple(
            ManagerScenario.from_dict(m, f"{path}.managers[{i}]")
            for i, m in enumerate(
                _as_list(_take(table, "managers", path, (list,)),
                         f"{path}.managers")
            )
        )
        memories = tuple(
            MemoryScenario.from_dict(m, f"{path}.memories[{i}]")
            for i, m in enumerate(
                _as_list(_take(table, "memories", path, (list,)),
                         f"{path}.memories")
            )
        )
        if not managers:
            raise ScenarioError("need at least one manager",
                                path=f"{path}.managers")
        if not memories:
            raise ScenarioError("need at least one memory",
                                path=f"{path}.memories")
        for group, items in (("managers", managers), ("memories", memories)):
            names = [item.name for item in items]
            for name in names:
                if names.count(name) > 1:
                    raise ScenarioError(f"duplicate name {name!r}",
                                        path=f"{path}.{group}")
        if interconnect == "direct" and (len(managers) != 1
                                         or len(memories) != 1):
            raise ScenarioError(
                "direct wiring needs exactly one manager and one memory",
                path=f"{path}.interconnect",
            )
        return cls(
            managers=managers,
            memories=memories,
            interconnect=interconnect,
            qos_arbitration=_take(table, "qos_arbitration", path, (bool,),
                                  default=False),
            noc_width=noc_width,
            noc_height=noc_height,
            router_depth=router_depth,
        )

    def manager(self, name: str) -> ManagerScenario:
        for spec in self.managers:
            if spec.name == name:
                return spec
        raise ScenarioError(f"no manager named {name!r}", path="topology")

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "interconnect": self.interconnect,
            "qos_arbitration": self.qos_arbitration,
            "managers": [m.to_dict() for m in self.managers],
            "memories": [m.to_dict() for m in self.memories],
        }
        if self.interconnect == "noc":
            out["noc"] = {"width": self.noc_width, "height": self.noc_height,
                          "router_depth": self.router_depth}
        return out


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
# field name -> (accepted types, default); _MISSING means required.
_TRAFFIC_SCHEMAS: dict[str, dict[str, tuple[tuple, Any]]] = {
    "core": {
        "pattern": ((str,), "susan"),
        "n_accesses": ((int,), _MISSING),
        "base": ((int,), 0),
        "footprint": ((int,), 16 * 1024),
        "read_fraction": ((float, int), 0.8),
        "gap_mean": ((int,), 2),
        "gap": ((int,), 0),            # sequential / random / strided
        "stride": ((int,), 64),        # strided
        "rw": ((str,), "read"),        # sequential / strided
        "beats": ((int,), 1),
        "size": ((int,), 3),
        "seed": ((int,), None),
    },
    "dma": {
        "src_base": ((int,), _MISSING),
        "src_size": ((int,), _MISSING),
        "dst_base": ((int,), _MISSING),
        "dst_size": ((int,), _MISSING),
        "burst_beats": ((int,), 256),
        "size": ((int,), 3),
        "n_buffers": ((int,), 2),
        "inter_burst_gap": ((int,), 0),
    },
    "hog": {
        "target_base": ((int,), 0),
        "window": ((int,), 0x10000),
        "beats": ((int,), 256),
        "size": ((int,), 3),
        "max_outstanding": ((int,), 2),
    },
    "staller": {
        "target": ((int,), 0),
        "beats": ((int,), 256),
        "size": ((int,), 3),
        "repeat": ((bool,), False),
    },
    "trickler": {
        "target": ((int,), 0),
        "beats": ((int,), 16),
        "size": ((int,), 3),
        "gap": ((int,), 64),
    },
}


@dataclass(frozen=True)
class TrafficScenario:
    """One traffic generator bound to a manager port."""

    manager: str
    kind: str
    enabled: bool = True
    params: tuple[tuple[str, Any], ...] = ()  # sorted (field, value) pairs

    @classmethod
    def from_dict(cls, manager: str, raw: Any, path: str) -> "TrafficScenario":
        table = _as_table(raw, path)
        kind = _take(table, "kind", path, (str,), choices=TRAFFIC_KINDS)
        schema = _TRAFFIC_SCHEMAS[kind]
        _reject_unknown(table, ("kind", "enabled") + tuple(schema), path)
        params = {}
        for name, (types, default) in schema.items():
            value = _take(table, name, path, types, default=default)
            if value is not None:
                params[name] = value
        if kind == "core":
            if params["pattern"] not in CORE_PATTERNS:
                raise ScenarioError(
                    f"must be one of {', '.join(map(repr, CORE_PATTERNS))}; "
                    f"got {params['pattern']!r}",
                    path=f"{path}.pattern",
                )
            if params["rw"] not in ("read", "write"):
                raise ScenarioError('must be "read" or "write"',
                                    path=f"{path}.rw")
            if params["n_accesses"] < 1:
                raise ScenarioError("need at least one access",
                                    path=f"{path}.n_accesses")
        return cls(
            manager=manager,
            kind=kind,
            enabled=_take(table, "enabled", path, (bool,), default=True),
            params=tuple(sorted(params.items())),
        )

    def param(self, name: str, default: Any = None) -> Any:
        return dict(self.params).get(name, default)

    def with_params(self, **updates: Any) -> "TrafficScenario":
        merged = dict(self.params)
        merged.update(updates)
        return TrafficScenario(self.manager, self.kind, self.enabled,
                               tuple(sorted(merged.items())))

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind, "enabled": self.enabled}
        out.update(dict(self.params))
        return out


# ----------------------------------------------------------------------
# run / warm / campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """How long one scenario point simulates."""

    until: tuple[str, ...] = ()  # managers whose core traffic must finish
    horizon: int = 0             # fixed cycle count (when `until` is empty)
    max_cycles: int = 2_000_000

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "RunSpec":
        table = _as_table(raw, path)
        _reject_unknown(table, ("until", "horizon", "max_cycles"), path)
        until = table.get("until", [])
        if isinstance(until, str):
            until = [until]
        until = tuple(
            _check_type(name, (str,), f"{path}.until[{i}]")
            for i, name in enumerate(_as_list(until, f"{path}.until"))
        )
        spec = cls(
            until=until,
            horizon=_take(table, "horizon", path, (int,), default=0),
            max_cycles=_take(table, "max_cycles", path, (int,),
                             default=2_000_000),
        )
        if bool(spec.until) == bool(spec.horizon):
            raise ScenarioError(
                "exactly one of `until` (traffic completion) or a positive "
                "`horizon` (fixed cycles) must be given", path=path
            )
        if spec.horizon < 0 or spec.max_cycles < 1:
            raise ScenarioError("horizon/max_cycles must be positive",
                                path=path)
        return spec

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"max_cycles": self.max_cycles}
        if self.until:
            out["until"] = list(self.until)
        else:
            out["horizon"] = self.horizon
        return out


@dataclass(frozen=True)
class WarmSpec:
    """Pre-load a cache with lines from its backing memory."""

    base: int
    size: int
    cache: str = "llc"

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "WarmSpec":
        table = _as_table(raw, path)
        _reject_unknown(table, ("base", "size", "cache"), path)
        return cls(
            base=_take(table, "base", path, (int,)),
            size=_take(table, "size", path, (int,)),
            cache=_take(table, "cache", path, (str,), default="llc"),
        )

    def to_dict(self) -> dict:
        return {"cache": self.cache, "base": self.base, "size": self.size}


@dataclass(frozen=True)
class ProbesSpec:
    """The ``[probes]`` section: the default periodic probe sampler."""

    sample: tuple[str, ...] = ()  # probe paths / fnmatch patterns
    every: int = 0
    start: Optional[int] = None

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "ProbesSpec":
        table = _as_table(raw, path)
        _reject_unknown(table, ("sample", "every", "start"), path)
        sample = tuple(
            _check_type(p, (str,), f"{path}.sample[{i}]")
            for i, p in enumerate(_as_list(table.get("sample", []),
                                           f"{path}.sample"))
        )
        spec = cls(
            sample=sample,
            every=_take(table, "every", path, (int,), default=0),
            start=_take(table, "start", path, (int,), default=None),
        )
        if spec.sample and spec.every < 1:
            raise ScenarioError(
                "sampling probes needs a positive `every` interval",
                path=f"{path}.every",
            )
        if not spec.sample and (spec.every or spec.start is not None):
            raise ScenarioError(
                "`every`/`start` without any `sample` paths", path=path
            )
        if spec.start is not None and spec.start < 0:
            raise ScenarioError("start must be >= 0", path=f"{path}.start")
        return spec

    def __bool__(self) -> bool:
        return bool(self.sample)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"sample": list(self.sample),
                               "every": self.every}
        if self.start is not None:
            out["start"] = self.start
        return out


@dataclass(frozen=True)
class AdviseSpec:
    """One advisor-loop action payload (sample -> plan -> write budgets)."""

    managers: tuple[str, ...]
    period_cycles: int
    weights: tuple[float, ...] = ()
    region: int = 0
    link_bytes_per_cycle: float = 8.0
    headroom: float = 1.25
    set_period: bool = True

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "AdviseSpec":
        table = _as_table(raw, path)
        _reject_unknown(
            table,
            ("managers", "period_cycles", "weights", "region",
             "link_bytes_per_cycle", "headroom", "set_period"),
            path,
        )
        managers = tuple(
            _check_type(m, (str,), f"{path}.managers[{i}]")
            for i, m in enumerate(
                _as_list(_take(table, "managers", path, (list,)),
                         f"{path}.managers")
            )
        )
        if not managers:
            raise ScenarioError("advise needs at least one manager",
                                path=f"{path}.managers")
        weights = tuple(
            _check_type(w, (float, int), f"{path}.weights[{i}]")
            for i, w in enumerate(_as_list(table.get("weights", []),
                                           f"{path}.weights"))
        )
        if weights and len(weights) != len(managers):
            raise ScenarioError(
                f"{len(weights)} weights for {len(managers)} managers",
                path=f"{path}.weights",
            )
        spec = cls(
            managers=managers,
            period_cycles=_take(table, "period_cycles", path, (int,)),
            weights=tuple(float(w) for w in weights),
            region=_take(table, "region", path, (int,), default=0),
            link_bytes_per_cycle=float(
                _take(table, "link_bytes_per_cycle", path, (float, int),
                      default=8.0)
            ),
            headroom=float(
                _take(table, "headroom", path, (float, int), default=1.25)
            ),
            set_period=_take(table, "set_period", path, (bool,),
                             default=True),
        )
        if spec.period_cycles < 1:
            raise ScenarioError("period_cycles must be positive",
                                path=f"{path}.period_cycles")
        if spec.region < 0:
            raise ScenarioError("region must be >= 0", path=f"{path}.region")
        return spec

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "managers": list(self.managers),
            "period_cycles": self.period_cycles,
            "region": self.region,
            "link_bytes_per_cycle": self.link_bytes_per_cycle,
            "headroom": self.headroom,
            "set_period": self.set_period,
        }
        if self.weights:
            out["weights"] = list(self.weights)
        return out


@dataclass(frozen=True)
class ScheduleActionSpec:
    """One ``[[schedule]]`` rule: trigger (at/every/when) plus actions."""

    label: str
    at: Optional[int] = None
    every: Optional[int] = None
    start: Optional[int] = None
    until: Optional[int] = None
    when: Optional[str] = None
    once: bool = False
    enabled: bool = True
    set: tuple[tuple[str, Any], ...] = ()
    sample: tuple[str, ...] = ()
    advise: Optional[AdviseSpec] = None

    _FIELDS = ("label", "at", "every", "start", "until", "when", "once",
               "enabled", "set", "sample", "advise")

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "ScheduleActionSpec":
        table = _as_table(raw, path)
        _reject_unknown(table, cls._FIELDS, path)
        label = _check_name(_take(table, "label", path, (str,)),
                            f"{path}.label")
        writes = _overrides_from_dict(table.get("set", {}), f"{path}.set")
        for key, value in writes:
            if isinstance(value, (dict, list, float)) or value is None:
                raise ScenarioError(
                    "knob values must be integers or booleans",
                    path=f"{path}.set.{key}",
                )
        sample = tuple(
            _check_type(p, (str,), f"{path}.sample[{i}]")
            for i, p in enumerate(_as_list(table.get("sample", []),
                                           f"{path}.sample"))
        )
        advise = (
            AdviseSpec.from_dict(table["advise"], f"{path}.advise")
            if "advise" in table
            else None
        )
        spec = cls(
            label=label,
            at=_take(table, "at", path, (int,), default=None),
            every=_take(table, "every", path, (int,), default=None),
            start=_take(table, "start", path, (int,), default=None),
            until=_take(table, "until", path, (int,), default=None),
            when=_take(table, "when", path, (str,), default=None),
            once=_take(table, "once", path, (bool,), default=False),
            enabled=_take(table, "enabled", path, (bool,), default=True),
            set=writes,
            sample=sample,
            advise=advise,
        )
        if spec.at is not None and spec.every is not None:
            raise ScenarioError(
                "give exactly one trigger: `at = N` (one-shot), "
                "`every = P` (periodic), or `when` alone "
                "(event-triggered)", path=path
            )
        if spec.at is None and spec.every is None and spec.when is None:
            raise ScenarioError(
                "give a trigger: `at = N` (one-shot), `every = P` "
                "(periodic), or a bare `when` comparison "
                "(event-triggered, fires on the rising edge)", path=path
            )
        if spec.at is not None:
            if spec.at < 0:
                raise ScenarioError("at must be >= 0", path=f"{path}.at")
            for option in ("start", "until"):
                if getattr(spec, option) is not None:
                    raise ScenarioError(
                        f"`{option}` applies to periodic and "
                        "event-triggered rules only",
                        path=f"{path}.{option}",
                    )
            if spec.once:
                raise ScenarioError(
                    "`once` is implied by `at` (set it on `every` or "
                    "event-triggered rules)",
                    path=f"{path}.once",
                )
        elif spec.every is not None:
            if spec.every < 1:
                raise ScenarioError("every must be >= 1",
                                    path=f"{path}.every")
            if spec.start is not None and spec.start < 0:
                raise ScenarioError("start must be >= 0",
                                    path=f"{path}.start")
            first = spec.every if spec.start is None else spec.start
            if spec.until is not None and spec.until < first:
                raise ScenarioError("until precedes the first firing",
                                    path=f"{path}.until")
        else:  # event-triggered: evaluated every commit boundary
            if spec.start is not None and spec.start < 0:
                raise ScenarioError("start must be >= 0",
                                    path=f"{path}.start")
            first = 0 if spec.start is None else spec.start
            if spec.until is not None and spec.until < first:
                raise ScenarioError("until precedes the first evaluation",
                                    path=f"{path}.until")
        if spec.when is not None:
            from repro.control.schedule import Comparison, ScheduleError

            try:
                Comparison.parse(spec.when)
            except ScheduleError as exc:
                raise ScenarioError(str(exc), path=f"{path}.when") from exc
        if not writes and not sample and advise is None:
            raise ScenarioError(
                "rule has no actions: give `set`, `sample`, and/or "
                "`advise`", path=path
            )
        return spec

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"label": self.label}
        for option in ("at", "every", "start", "until", "when"):
            value = getattr(self, option)
            if value is not None:
                out[option] = value
        if self.once:
            out["once"] = True
        out["enabled"] = self.enabled
        if self.set:
            out["set"] = dict(self.set)
        if self.sample:
            out["sample"] = list(self.sample)
        if self.advise is not None:
            out["advise"] = self.advise.to_dict()
        return out


def _overrides_from_dict(raw: Any, path: str) -> tuple[tuple[str, Any], ...]:
    table = _as_table(raw, path)
    for key in table:
        _check_type(key, (str,), path)
    return tuple(sorted(table.items()))


@dataclass(frozen=True)
class PointSpec:
    """One explicit campaign point: a label plus overrides."""

    label: str
    set: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "PointSpec":
        table = _as_table(raw, path)
        _reject_unknown(table, ("label", "set"), path)
        return cls(
            label=_take(table, "label", path, (str,)),
            set=_overrides_from_dict(table.get("set", {}), f"{path}.set"),
        )

    def to_dict(self) -> dict:
        return {"label": self.label, "set": dict(self.set)}


@dataclass(frozen=True)
class AxisSpec:
    """One cartesian sweep axis: every value applied to all `fields`."""

    fields: tuple[str, ...]
    values: tuple[Any, ...]
    labels: tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "AxisSpec":
        table = _as_table(raw, path)
        _reject_unknown(table, ("field", "fields", "values", "labels"), path)
        if ("field" in table) == ("fields" in table):
            raise ScenarioError("give exactly one of `field` or `fields`",
                                path=path)
        if "field" in table:
            fields = (_take(table, "field", path, (str,)),)
        else:
            fields = tuple(
                _check_type(f, (str,), f"{path}.fields[{i}]")
                for i, f in enumerate(_as_list(table["fields"],
                                               f"{path}.fields"))
            )
        values = tuple(_as_list(_take(table, "values", path, (list,)),
                                f"{path}.values"))
        if not values:
            raise ScenarioError("axis needs at least one value",
                                path=f"{path}.values")
        labels = tuple(
            _check_type(v, (str,), f"{path}.labels[{i}]")
            for i, v in enumerate(_as_list(table.get("labels", []),
                                           f"{path}.labels"))
        )
        if labels and len(labels) != len(values):
            raise ScenarioError(
                f"{len(labels)} labels for {len(values)} values", path=path
            )
        return cls(fields=fields, values=values, labels=labels)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"values": list(self.values)}
        if len(self.fields) == 1:
            out["field"] = self.fields[0]
        else:
            out["fields"] = list(self.fields)
        if self.labels:
            out["labels"] = list(self.labels)
        return out


@dataclass(frozen=True)
class CampaignSpec:
    """Explicit points plus sweep axes; empty = run the base scenario."""

    baseline: str = ""
    points: tuple[PointSpec, ...] = ()
    sweep: tuple[AxisSpec, ...] = ()

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "CampaignSpec":
        table = _as_table(raw, path)
        _reject_unknown(table, ("baseline", "points", "sweep"), path)
        points = tuple(
            PointSpec.from_dict(p, f"{path}.points[{i}]")
            for i, p in enumerate(_as_list(table.get("points", []),
                                           f"{path}.points"))
        )
        labels = [p.label for p in points]
        for label in labels:
            if labels.count(label) > 1:
                raise ScenarioError(f"duplicate point label {label!r}",
                                    path=f"{path}.points")
        spec = cls(
            baseline=_take(table, "baseline", path, (str,), default=""),
            points=points,
            sweep=tuple(
                AxisSpec.from_dict(a, f"{path}.sweep[{i}]")
                for i, a in enumerate(_as_list(table.get("sweep", []),
                                               f"{path}.sweep"))
            ),
        )
        if spec.baseline and spec.baseline not in labels:
            raise ScenarioError(
                f"baseline {spec.baseline!r} is not an explicit point label",
                path=f"{path}.baseline",
            )
        return spec

    def to_dict(self) -> dict:
        out: dict[str, Any] = {}
        if self.baseline:
            out["baseline"] = self.baseline
        if self.points:
            out["points"] = [p.to_dict() for p in self.points]
        if self.sweep:
            out["sweep"] = [a.to_dict() for a in self.sweep]
        return out


# ----------------------------------------------------------------------
# the whole scenario
# ----------------------------------------------------------------------
_METRIC_GROUPS = ("latency", "counters", "realms", "channels")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, validated scenario/campaign description."""

    name: str
    topology: TopologySpec
    traffic: tuple[TrafficScenario, ...]
    run: RunSpec
    description: str = ""
    seed: int = 0
    active_set: bool = True
    batched: bool = True
    warm: tuple[WarmSpec, ...] = ()
    metrics: tuple[str, ...] = _METRIC_GROUPS
    probes: ProbesSpec = field(default_factory=ProbesSpec)
    schedule: tuple[ScheduleActionSpec, ...] = ()
    campaign: CampaignSpec = field(default_factory=CampaignSpec)
    smoke: tuple[tuple[str, Any], ...] = ()

    _TOP_LEVEL = ("scenario", "run", "topology", "traffic", "warm",
                  "metrics", "probes", "schedule", "campaign", "smoke")

    @classmethod
    def from_dict(cls, raw: Any) -> "ScenarioSpec":
        table = _as_table(raw, "<root>")
        _reject_unknown(table, cls._TOP_LEVEL, "<root>")
        header = _as_table(_take(table, "scenario", "<root>", (dict,)),
                           "scenario")
        _reject_unknown(header,
                        ("name", "description", "seed", "active_set",
                         "batched"),
                        "scenario")
        topology = TopologySpec.from_dict(
            _take(table, "topology", "<root>", (dict,)), "topology"
        )
        traffic_table = _as_table(table.get("traffic", {}), "traffic")
        traffic = tuple(
            TrafficScenario.from_dict(
                _check_name(manager, f"traffic.{manager}"),
                binding, f"traffic.{manager}",
            )
            for manager, binding in traffic_table.items()
        )
        manager_names = {m.name for m in topology.managers}
        for binding in traffic:
            if binding.manager not in manager_names:
                raise ScenarioError(
                    f"binds unknown manager {binding.manager!r}",
                    path=f"traffic.{binding.manager}",
                )
        bound = [b.manager for b in traffic]
        for name in bound:
            if bound.count(name) > 1:
                raise ScenarioError(f"manager {name!r} bound twice",
                                    path="traffic")
        run = RunSpec.from_dict(_take(table, "run", "<root>", (dict,)), "run")
        by_manager = {b.manager: b for b in traffic}
        for name in run.until:
            binding = by_manager.get(name)
            if binding is None or binding.kind != "core":
                raise ScenarioError(
                    f"run.until names {name!r}, which has no core traffic "
                    "binding (only core traces report completion)",
                    path="run.until",
                )
        warm = tuple(
            WarmSpec.from_dict(w, f"warm[{i}]")
            for i, w in enumerate(_as_list(table.get("warm", []), "warm"))
        )
        cache_names = {
            m.cache_name for m in topology.memories if m.kind == "cached_dram"
        }
        for i, w in enumerate(warm):
            if w.cache not in cache_names:
                raise ScenarioError(
                    f"no cached_dram memory provides cache {w.cache!r}",
                    path=f"warm[{i}].cache",
                )
        metrics_table = _as_table(table.get("metrics", {}), "metrics")
        _reject_unknown(metrics_table, ("collect",), "metrics")
        collect = tuple(
            _check_type(g, (str,), f"metrics.collect[{i}]")
            for i, g in enumerate(
                _as_list(metrics_table.get("collect",
                                           list(_METRIC_GROUPS)),
                         "metrics.collect")
            )
        )
        for i, group in enumerate(collect):
            if group not in _METRIC_GROUPS:
                raise ScenarioError(
                    f"must be one of {', '.join(map(repr, _METRIC_GROUPS))};"
                    f" got {group!r}",
                    path=f"metrics.collect[{i}]",
                )
        probes = ProbesSpec.from_dict(table.get("probes", {}), "probes")
        schedule = tuple(
            ScheduleActionSpec.from_dict(a, f"schedule[{i}]")
            for i, a in enumerate(_as_list(table.get("schedule", []),
                                           "schedule"))
        )
        rule_labels = [a.label for a in schedule]
        for label in rule_labels:
            if rule_labels.count(label) > 1:
                raise ScenarioError(f"duplicate rule label {label!r}",
                                    path="schedule")
        realm_managers = {m.name for m in topology.managers if m.wants_realm}
        for i, action in enumerate(schedule):
            if action.advise is None:
                continue
            advise = action.advise
            for manager in advise.managers:
                if manager not in realm_managers:
                    raise ScenarioError(
                        f"advise names {manager!r}, which has no REALM "
                        "unit (only protected managers publish demand "
                        "probes and budget knobs)",
                        path=f"schedule[{i}].advise.managers",
                    )
                spec = topology.manager(manager)
                params = spec.realm or RealmUnitParams()
                if advise.region >= params.n_regions:
                    raise ScenarioError(
                        f"region {advise.region} out of range for "
                        f"{manager!r} ({params.n_regions} regions)",
                        path=f"schedule[{i}].advise.region",
                    )
        campaign = CampaignSpec.from_dict(table.get("campaign", {}),
                                          "campaign")
        smoke_table = _as_table(table.get("smoke", {}), "smoke")
        _reject_unknown(smoke_table, ("set",), "smoke")
        smoke = _overrides_from_dict(smoke_table.get("set", {}), "smoke.set")
        return cls(
            name=_check_name(_take(header, "name", "scenario", (str,)),
                             "scenario.name"),
            description=_take(header, "description", "scenario", (str,),
                              default=""),
            seed=_take(header, "seed", "scenario", (int,), default=0),
            active_set=_take(header, "active_set", "scenario", (bool,),
                             default=True),
            batched=_take(header, "batched", "scenario", (bool,),
                          default=True),
            topology=topology,
            traffic=traffic,
            run=run,
            warm=warm,
            metrics=collect,
            probes=probes,
            schedule=schedule,
            campaign=campaign,
            smoke=smoke,
        )

    def traffic_for(self, manager: str) -> Optional[TrafficScenario]:
        for binding in self.traffic:
            if binding.manager == manager:
                return binding
        return None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "scenario": {
                "name": self.name,
                "description": self.description,
                "seed": self.seed,
                "active_set": self.active_set,
                "batched": self.batched,
            },
            "run": self.run.to_dict(),
            "topology": self.topology.to_dict(),
            "traffic": {b.manager: b.to_dict() for b in self.traffic},
        }
        if self.warm:
            out["warm"] = [w.to_dict() for w in self.warm]
        out["metrics"] = {"collect": list(self.metrics)}
        if self.probes:
            out["probes"] = self.probes.to_dict()
        if self.schedule:
            out["schedule"] = [a.to_dict() for a in self.schedule]
        campaign = self.campaign.to_dict()
        if campaign:
            out["campaign"] = campaign
        if self.smoke:
            out["smoke"] = {"set": dict(self.smoke)}
        return out


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
