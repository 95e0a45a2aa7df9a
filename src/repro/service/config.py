"""The declarative runtime configuration tree.

One frozen, validated dataclass tree replaces the constructor-argument
sprawl that used to configure a run — ``SystemParameters`` fields here,
``SessionWorkload`` knobs there, prefix sizing on the legacy
``RuntimeConfig``, event tuples built by hand in ``scenarios.py``.
Everything a :class:`~repro.service.facade.MediaService` needs is one
:class:`RuntimeConfig` that

* validates eagerly (every sub-config checks its own bounds),
* serialises losslessly to/from JSON (``mems-repro runtime --config``
  accepts the file; ``--emit-config`` writes one for any named
  scenario, so users fork scenarios declaratively),
* compiles, exactly, to the imperative objects the engine runs on
  (:meth:`RuntimeConfig.to_legacy`); every run compiles its own copy,
  so a run never mutates the tree it was given.

The shape follows the jeeves ``ExecutionConfig`` exemplar (SNIPPETS.md
snippet 2): bounds, timeouts, seeds and feature flags grouped into
purpose-named sub-configs rather than one flat namespace.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import MISSING, dataclass, field

from repro.core.parameters import SystemParameters
from repro.core.popularity import (
    BimodalPopularity,
    PopularityDistribution,
    UniformPopularity,
    ZipfPopularity,
)
from repro.errors import ConfigurationError
from repro.runtime.failures import FailureEvent, FailureKind
from repro.runtime.runtime import (
    DriftEvent,
    FocusEvent,
    RuntimeConfig as LegacyRuntimeConfig,
    SurgeEvent,
)
from repro.runtime.sessions import SessionWorkload
from repro.service.backpressure import BackpressureConfig

#: Serialisation format version of the config JSON.
CONFIG_SCHEMA_VERSION = 1

#: Named MEMS devices a config may reference.
_DEVICES = ("G3",)


#: JSON value types accepted for each scalar field annotation.
_SCALAR_TYPES = {"float": (int, float), "int": (int,), "str": (str,)}


def _checked(cls: type, payload: object, *, where: str,
             extra: frozenset[str] = frozenset()) -> dict:
    """Validate ``payload`` as the JSON form of dataclass ``cls``.

    The payload must be an object with no unknown keys (beyond
    ``extra``) and every field that has no default.  Scalar fields
    (``float``/``int``/``str``, optionally ``| None``) must hold a
    value of that JSON type, and numbers must be finite.  Nested
    sub-configs are left to their own ``from_dict``.  Every violation
    is a :class:`ConfigurationError`, so bad input never surfaces as a
    stray ``KeyError`` or ``TypeError`` (or a failure mid-run).
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{where} must be a JSON object, got {payload!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = set(payload) - set(fields) - extra
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"known: {sorted(set(fields) | extra)}")
    for name, spec in fields.items():
        if name not in payload:
            if spec.default is MISSING and spec.default_factory is MISSING:
                raise ConfigurationError(f"{where} is missing {name!r}")
            continue
        # Annotations are strings here: every config dataclass lives in
        # a module with postponed evaluation (``from __future__``).
        kind, _, optional = spec.type.partition(" | ")
        value = payload[name]
        allowed = _SCALAR_TYPES.get(kind)
        if allowed is None or (value is None and optional == "None"):
            continue
        if (isinstance(value, bool) or not isinstance(value, allowed)
                or (isinstance(value, float) and not math.isfinite(value))):
            raise ConfigurationError(
                f"{where}.{name} must be a finite {kind}"
                f"{' or null' if optional else ''}, got {value!r}")
    return payload


@dataclass(frozen=True)
class SystemConfig:
    """The analytical model's inputs (Table 2), declaratively.

    Field for field a :class:`~repro.core.parameters.SystemParameters`
    minus the per-run stream population (the runtime always starts one
    at ``n_streams=0`` and the demand model varies it).
    """

    bit_rate: float
    r_disk: float
    r_mems: float
    l_disk: float
    l_mems: float
    k: int = 1
    c_dram: float = 0.0
    c_mems: float = 0.0
    size_mems: float | None = None
    size_disk: float | None = None

    def __post_init__(self) -> None:
        self.to_params()  # SystemParameters carries the bound checks

    @classmethod
    def from_params(cls, params: SystemParameters) -> "SystemConfig":
        return cls(bit_rate=params.bit_rate, r_disk=params.r_disk,
                   r_mems=params.r_mems, l_disk=params.l_disk,
                   l_mems=params.l_mems, k=params.k, c_dram=params.c_dram,
                   c_mems=params.c_mems, size_mems=params.size_mems,
                   size_disk=params.size_disk)

    def to_params(self, *, n_streams: float = 1.0) -> SystemParameters:
        return SystemParameters(
            n_streams=n_streams, bit_rate=self.bit_rate, r_disk=self.r_disk,
            r_mems=self.r_mems, l_disk=self.l_disk, l_mems=self.l_mems,
            k=self.k, c_dram=self.c_dram, c_mems=self.c_mems,
            size_mems=self.size_mems, size_disk=self.size_disk)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemConfig":
        return cls(**_checked(cls, payload, where="system"))


@dataclass(frozen=True)
class PopularityConfig:
    """A named popularity distribution (``zipf``/``bimodal``/``uniform``)."""

    kind: str
    alpha: float | None = None
    x_percent: float | None = None
    y_percent: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("zipf", "bimodal", "uniform"):
            raise ConfigurationError(
                f"popularity kind must be 'zipf', 'bimodal' or 'uniform', "
                f"got {self.kind!r}")
        if self.kind == "zipf" and self.alpha is None:
            raise ConfigurationError("zipf popularity needs alpha")
        if self.kind == "bimodal" and (self.x_percent is None
                                       or self.y_percent is None):
            raise ConfigurationError(
                "bimodal popularity needs x_percent and y_percent")

    def to_distribution(self, n_titles: int) -> PopularityDistribution:
        if self.kind == "zipf":
            return ZipfPopularity(alpha=self.alpha, n_titles=n_titles)
        if self.kind == "bimodal":
            return BimodalPopularity(x_percent=self.x_percent,
                                     y_percent=self.y_percent)
        return UniformPopularity()

    def to_dict(self) -> dict:
        payload = {"kind": self.kind}
        for name in ("alpha", "x_percent", "y_percent"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PopularityConfig":
        return cls(**_checked(cls, payload, where="workload.popularity"))


@dataclass(frozen=True)
class WorkloadConfig:
    """The stochastic session generator, declaratively."""

    arrival_rate: float
    mean_holding: float
    n_titles: int
    popularity: PopularityConfig

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival_rate must be > 0, got {self.arrival_rate!r}")
        if self.mean_holding <= 0:
            raise ConfigurationError(
                f"mean_holding must be > 0, got {self.mean_holding!r}")
        if self.n_titles < 1:
            raise ConfigurationError(
                f"n_titles must be >= 1, got {self.n_titles!r}")

    def to_workload(self) -> SessionWorkload:
        return SessionWorkload(
            arrival_rate=self.arrival_rate, mean_holding=self.mean_holding,
            n_titles=self.n_titles,
            popularity=self.popularity.to_distribution(self.n_titles))

    def to_dict(self) -> dict:
        return {"arrival_rate": self.arrival_rate,
                "mean_holding": self.mean_holding,
                "n_titles": self.n_titles,
                "popularity": self.popularity.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadConfig":
        payload = dict(_checked(cls, payload, where="workload"))
        payload["popularity"] = PopularityConfig.from_dict(
            payload["popularity"])
        return cls(**payload)


@dataclass(frozen=True)
class PlacementConfig:
    """Adaptive placement / prefix-cache knobs."""

    decay: float = 0.5
    prefix_safety: float = 2.0
    prefix_floor: float = 1.0
    batch_window: float = 120.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.decay < 1.0:
            raise ConfigurationError(
                f"decay must be in [0, 1), got {self.decay!r}")
        if self.prefix_safety <= 0:
            raise ConfigurationError(
                f"prefix_safety must be > 0, got {self.prefix_safety!r}")
        if self.prefix_floor < 0:
            raise ConfigurationError(
                f"prefix_floor must be >= 0, got {self.prefix_floor!r}")
        if self.batch_window <= 0:
            raise ConfigurationError(
                f"batch_window must be > 0, got {self.batch_window!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PlacementConfig":
        return cls(**_checked(cls, payload, where="placement"))


@dataclass(frozen=True)
class ControlConfig:
    """Control-plane timing, bounds and feature flags.

    ``replan_latency`` is the simulated seconds an epoch replan spends
    *off the request path*: 0 keeps replans synchronous (the legacy
    semantics every named scenario uses), a positive value opens the
    window in which ``admit`` returns PENDING tickets that the
    replan-done event finalizes.
    """

    epoch: float = 600.0
    metrics_interval: float = 60.0
    replan_latency: float = 0.0
    backpressure: BackpressureConfig = field(
        default_factory=BackpressureConfig)

    def __post_init__(self) -> None:
        if self.epoch <= 0:
            raise ConfigurationError(
                f"epoch must be > 0, got {self.epoch!r}")
        if self.metrics_interval <= 0:
            raise ConfigurationError(
                f"metrics_interval must be > 0, got "
                f"{self.metrics_interval!r}")
        if self.replan_latency < 0:
            raise ConfigurationError(
                f"replan_latency must be >= 0, got {self.replan_latency!r}")
        if self.replan_latency >= self.epoch:
            raise ConfigurationError(
                f"replan_latency must be < epoch, got "
                f"{self.replan_latency!r} >= {self.epoch!r}")

    def to_dict(self) -> dict:
        return {"epoch": self.epoch,
                "metrics_interval": self.metrics_interval,
                "replan_latency": self.replan_latency,
                "backpressure": dataclasses.asdict(self.backpressure)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ControlConfig":
        payload = dict(_checked(cls, payload, where="control"))
        if "backpressure" in payload:
            payload["backpressure"] = BackpressureConfig(**_checked(
                BackpressureConfig, payload["backpressure"],
                where="control.backpressure"))
        return cls(**payload)


_TIMELINE_EVENTS = {"failures": FailureEvent, "drifts": DriftEvent,
                    "surges": SurgeEvent, "focuses": FocusEvent}


def _timeline_event(event_type: type, item: object, *, where: str):
    """One timeline entry, validated; ``kind`` names a FailureKind."""
    fields = dict(_checked(event_type, item, where=where))
    if event_type is FailureEvent:
        kinds = [kind.value for kind in FailureKind]
        if fields["kind"] not in kinds:
            raise ConfigurationError(
                f"{where}.kind must be one of {kinds}, "
                f"got {fields['kind']!r}")
        fields["kind"] = FailureKind(fields["kind"])
    return event_type(**fields)


@dataclass(frozen=True)
class TimelineConfig:
    """Scheduled mid-run happenings: faults, drift, surges, focuses."""

    failures: tuple[FailureEvent, ...] = ()
    drifts: tuple[DriftEvent, ...] = ()
    surges: tuple[SurgeEvent, ...] = ()
    focuses: tuple[FocusEvent, ...] = ()

    def to_dict(self) -> dict:
        return {
            "failures": [
                {"time": f.time, "kind": f.kind.value, "count": f.count,
                 "factor": f.factor} for f in self.failures],
            "drifts": [{"time": d.time, "shift": d.shift}
                       for d in self.drifts],
            "surges": [{"time": s.time, "factor": s.factor}
                       for s in self.surges],
            "focuses": [{"time": f.time, "title": f.title,
                         "weight": f.weight} for f in self.focuses],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TimelineConfig":
        _checked(cls, payload, where="timeline")
        families = {}
        for name, event_type in _TIMELINE_EVENTS.items():
            items = payload.get(name, [])
            if not isinstance(items, (list, tuple)):
                raise ConfigurationError(
                    f"timeline.{name} must be a JSON array, got {items!r}")
            families[name] = tuple(
                _timeline_event(event_type, item,
                                where=f"timeline.{name}[{index}]")
                for index, item in enumerate(items))
        return cls(**families)


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything one service run needs, declaratively.

    The root of the tree; see the module docstring.  ``configuration``
    picks the serving mode ("none"/"buffer"/"cache"/"prefix"),
    ``device`` names the MEMS model from the catalog, and the
    sub-configs carry the rest.
    """

    configuration: str
    dram_budget: float
    horizon: float
    system: SystemConfig
    workload: WorkloadConfig
    control: ControlConfig = field(default_factory=ControlConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    timeline: TimelineConfig = field(default_factory=TimelineConfig)
    device: str = "G3"
    seed: int = 0
    #: How departures are scheduled ("objects": one calendar event per
    #: session; "table": harvested in drained windows).  Both keep
    #: sessions in one ``SessionTable`` and produce the same result
    #: bytes apart from ``events_executed``, so this is purely a speed
    #: knob; see the legacy config's field of the same name.
    session_core: str = "objects"

    def __post_init__(self) -> None:
        if self.session_core not in ("objects", "table"):
            raise ConfigurationError(
                f"session_core must be 'objects' or 'table', "
                f"got {self.session_core!r}")
        if self.configuration not in ("none", "buffer", "cache", "prefix"):
            raise ConfigurationError(
                f"configuration must be 'none', 'buffer', 'cache' or "
                f"'prefix', got {self.configuration!r}")
        if self.dram_budget < 0:
            raise ConfigurationError(
                f"dram_budget must be >= 0, got {self.dram_budget!r}")
        if self.horizon <= 0:
            raise ConfigurationError(
                f"horizon must be > 0, got {self.horizon!r}")
        if self.device not in _DEVICES:
            raise ConfigurationError(
                f"unknown device {self.device!r}; available: "
                f"{', '.join(_DEVICES)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed!r}")
        for focus in self.timeline.focuses:
            if focus.title >= self.workload.n_titles:
                raise ConfigurationError(
                    f"focus title {focus.title} at t={focus.time:g} is "
                    f"outside the {self.workload.n_titles}-title catalogue")

    # -- Compilation to the imperative layer ------------------------------

    def to_legacy(self) -> LegacyRuntimeConfig:
        """Compile to the engine's imperative config (exact)."""
        from repro.devices.catalog import MEMS_G3

        return LegacyRuntimeConfig(
            params=self.system.to_params(),
            dram_budget=self.dram_budget,
            workload=self.workload.to_workload(),
            horizon=self.horizon,
            epoch=self.control.epoch,
            metrics_interval=self.control.metrics_interval,
            configuration=self.configuration,
            device=MEMS_G3,
            placement_decay=self.placement.decay,
            failures=self.timeline.failures,
            drifts=self.timeline.drifts,
            surges=self.timeline.surges,
            focuses=self.timeline.focuses,
            prefix_safety=self.placement.prefix_safety,
            prefix_floor=self.placement.prefix_floor,
            batch_window=self.placement.batch_window,
            seed=self.seed,
            session_core=self.session_core)

    # -- Serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "schema": CONFIG_SCHEMA_VERSION,
            "configuration": self.configuration,
            "dram_budget": self.dram_budget,
            "horizon": self.horizon,
            "seed": self.seed,
            "device": self.device,
            "system": self.system.to_dict(),
            "workload": self.workload.to_dict(),
            "control": self.control.to_dict(),
            "placement": self.placement.to_dict(),
            "timeline": self.timeline.to_dict(),
        }
        # Emitted only when set, so existing config files stay stable.
        if self.session_core != "objects":
            payload["session_core"] = self.session_core
        return payload

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "RuntimeConfig":
        if isinstance(payload, dict) and \
                payload.get("schema") != CONFIG_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported config schema {payload.get('schema')!r}; "
                f"expected {CONFIG_SCHEMA_VERSION}")
        _checked(cls, payload, where="runtime config",
                 extra=frozenset({"schema"}))
        return cls(
            configuration=payload["configuration"],
            dram_budget=payload["dram_budget"],
            horizon=payload["horizon"],
            seed=payload.get("seed", 0),
            device=payload.get("device", "G3"),
            system=SystemConfig.from_dict(payload["system"]),
            workload=WorkloadConfig.from_dict(payload["workload"]),
            control=ControlConfig.from_dict(payload.get("control", {})),
            placement=PlacementConfig.from_dict(payload.get("placement", {})),
            timeline=TimelineConfig.from_dict(payload.get("timeline", {})),
            session_core=payload.get("session_core", "objects"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RuntimeConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"runtime config is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def replace(self, **changes: object) -> "RuntimeConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)
