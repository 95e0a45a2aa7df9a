"""The online server runtime: analytical models as live controllers.

Everything the repository could previously evaluate only as a static
snapshot — admission feasibility (Theorems 1-4), cache placement
(Section 4.2), Erlang-B blocking — runs here as a closed loop on the
discrete-event engine:

* Poisson session arrivals with exponential holding times flow through
  an :class:`~repro.scheduling.admission.AdmissionController`;
* between epochs the :class:`~repro.runtime.placement.AdaptivePlacement`
  re-ranks titles by observed popularity and migrates the MEMS-cached
  set, re-solving the striped/replicated cache design each time;
* injected faults (:mod:`repro.runtime.failures`) shrink or throttle
  the bank mid-run and the runtime recomputes a feasible degraded
  configuration, shedding the newest sessions when it must;
* under the VoD ``"prefix"`` mode (:mod:`repro.vod`) the bank holds
  per-title *prefixes*, same-title arrivals inside a batching window
  share one IO stream through a
  :class:`~repro.vod.multicast.MulticastBatcher`, and admission
  control charges per *stream* rather than per session;
* every reporting interval the :class:`~repro.runtime.metrics.MetricsLog`
  seals a snapshot of the session funnel and operator gauges.

A fixed seed reproduces the run exactly: all randomness flows through
one generator and the event calendar is stable for simultaneous events.
"""

from __future__ import annotations

import bisect
import io
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from repro.core.cache_model import CachePolicy
from repro.core.parameters import SystemParameters
from repro.devices.bank import BankPolicy, MemsBank
from repro.devices.mems import MemsDevice
from repro.errors import (
    AdmissionError,
    CapacityError,
    ConfigurationError,
    require,
)
from repro.planner.solver import Planner
from repro.runtime.export import write_result
from repro.runtime.failures import FailureEvent, FailureKind, plan_recovery
from repro.runtime.metrics import MetricsLog, render_dashboard
from repro.runtime.placement import AdaptivePlacement
from repro.units import MB
from repro.runtime.sessions import (
    SessionEvent,
    SessionEventKind,
    SessionSampler,
    SessionTable,
    SessionWorkload,
)
from repro.scheduling.admission import AdmissionController
from repro.simulation.engine import Simulator
from repro.vod.multicast import MulticastBatcher
from repro.vod.placement import PrefixDecision, PrefixPlacement
from repro.workloads.arrivals import predicted_blocking

_INF = float("inf")

#: Shared empty block for drain windows with no arrivals.
_EMPTY_TIMES: np.ndarray = np.empty(0)


@dataclass(frozen=True)
class DriftEvent:
    """Popularity drift: rotate the title ranking at ``time``."""

    time: float
    shift: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"time must be >= 0, got {self.time!r}")


@dataclass(frozen=True)
class SurgeEvent:
    """Flash crowd: scale the arrival rate by ``factor`` at ``time``."""

    time: float
    factor: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"time must be >= 0, got {self.time!r}")
        if self.factor <= 0:
            raise ConfigurationError(
                f"factor must be > 0, got {self.factor!r}")


@dataclass(frozen=True)
class FocusEvent:
    """Focused flash crowd: ``weight`` of arrivals collapse onto
    ``title`` at ``time`` (``weight=0`` clears the focus)."""

    time: float
    title: int
    weight: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"time must be >= 0, got {self.time!r}")
        if self.title < 0:
            raise ConfigurationError(
                f"title must be >= 0, got {self.title!r}")
        if not 0.0 <= self.weight <= 1.0:
            raise ConfigurationError(
                f"weight must be in [0, 1], got {self.weight!r}")


@dataclass(frozen=True)
class MigrationRecord:
    """One epoch's placement change."""

    time: float
    policy: str
    migrations_in: tuple[int, ...]
    migrations_out: tuple[int, ...]
    n_cached: int

    def to_dict(self) -> dict:
        return {"time": self.time, "policy": self.policy,
                "migrations_in": list(self.migrations_in),
                "migrations_out": list(self.migrations_out),
                "n_cached": self.n_cached}


@dataclass
class RuntimeConfig:
    """Everything one runtime scenario needs."""

    params: SystemParameters
    dram_budget: float
    workload: SessionWorkload
    horizon: float
    epoch: float = 600.0
    metrics_interval: float = 60.0
    #: "cache" (adaptive placement), "buffer", "none" (direct disk), or
    #: "prefix" (VoD prefix cache with multicast batching).
    configuration: str = "cache"
    device: MemsDevice | None = None
    placement_decay: float = 0.5
    failures: tuple[FailureEvent, ...] = ()
    drifts: tuple[DriftEvent, ...] = ()
    surges: tuple[SurgeEvent, ...] = ()
    focuses: tuple[FocusEvent, ...] = ()
    #: Prefix-mode sizing knobs (ignored outside ``"prefix"``): startup
    #: safety factor, minimum prefix seconds, and the longest batching
    #: window a hot title's prefix may grow to.
    prefix_safety: float = 2.0
    prefix_floor: float = 1.0
    batch_window: float = 120.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError(
                f"horizon must be > 0, got {self.horizon!r}")
        if self.epoch <= 0:
            raise ConfigurationError(
                f"epoch must be > 0, got {self.epoch!r}")
        if self.metrics_interval <= 0:
            raise ConfigurationError(
                f"metrics_interval must be > 0, got {self.metrics_interval!r}")
        if self.dram_budget < 0:
            raise ConfigurationError(
                f"dram_budget must be >= 0, got {self.dram_budget!r}")
        if self.configuration not in ("none", "buffer", "cache", "prefix"):
            raise ConfigurationError(
                f"configuration must be 'none', 'buffer', 'cache' or "
                f"'prefix', got {self.configuration!r}")
        if self.prefix_safety <= 0:
            raise ConfigurationError(
                f"prefix_safety must be > 0, got {self.prefix_safety!r}")
        if self.prefix_floor < 0:
            raise ConfigurationError(
                f"prefix_floor must be >= 0, got {self.prefix_floor!r}")
        if self.batch_window <= 0:
            raise ConfigurationError(
                f"batch_window must be > 0, got {self.batch_window!r}")
        if self.device is None:
            from repro.devices.catalog import MEMS_G3

            self.device = MEMS_G3


@dataclass(frozen=True, slots=True)
class ArrivalOutcome:
    """What one API arrival did to the server (the admission verdict).

    The service facade (:mod:`repro.service`) turns it into tickets and
    bus events.
    ``session_id`` is the admitted session's row in the runtime's
    :class:`~repro.runtime.sessions.SessionTable` (None on rejection).
    """

    admitted: bool
    title: int
    session_id: int | None = None
    served_by: str | None = None
    reason: str | None = None
    #: True when a prefix-mode arrival joined an open shared stream.
    batched: bool = False


@dataclass
class RuntimeResult:
    """Everything one runtime run produced."""

    events: list[SessionEvent]
    metrics: MetricsLog
    migrations: list[MigrationRecord]
    final_mode: str
    final_policy: str | None
    k_active: int
    final_capacity: int
    final_dram_required: float
    dram_budget: float
    degraded_time: float
    horizon: float
    events_executed: int
    notes: dict[str, float] = field(default_factory=dict)
    #: Planner counters for the run (cache hits / misses / evictions /
    #: size plus the warm-start probe and solve counters), from the
    #: runtime's private :class:`~repro.planner.Planner`.
    planner_cache: dict[str, int] = field(default_factory=dict)

    @property
    def totals(self) -> dict[str, int]:
        return self.metrics.totals()

    @property
    def blocking_probability(self) -> float:
        totals = self.totals
        arrivals = totals.get("arrivals", 0)
        if arrivals == 0:
            return 0.0
        return totals.get("rejects", 0) / arrivals

    @property
    def active_sessions(self) -> int:
        totals = self.totals
        return (totals.get("admits", 0) - totals.get("departures", 0)
                - totals.get("drops", 0))

    def write_json(self, handle: TextIO, *,
                   indent: int | None = None) -> None:
        """Write the result JSON to ``handle``, record by record.

        The bytes equal ``json.dumps(payload, indent=indent,
        sort_keys=True)`` of the whole result; the session events are
        streamed a block at a time (:func:`repro.runtime.export.
        write_result`), so export never holds the payload.
        """
        write_result(handle, self.events, {
            "schema": 1,
            "summary": {
                "final_mode": self.final_mode,
                "final_policy": self.final_policy,
                "k_active": self.k_active,
                "final_capacity": self.final_capacity,
                "final_dram_required": self.final_dram_required,
                "dram_budget": self.dram_budget,
                "degraded_time": self.degraded_time,
                "horizon": self.horizon,
                "events_executed": self.events_executed,
                "blocking_probability": self.blocking_probability,
                "totals": self.totals,
                "notes": dict(sorted(self.notes.items())),
                "planner_cache": dict(sorted(self.planner_cache.items())),
            },
            "migrations": [m.to_dict() for m in self.migrations],
            "metrics": self.metrics.to_dict(),
        }, indent=indent)

    def to_json(self, *, indent: int | None = None) -> str:
        """The result JSON as one string (:meth:`write_json`'s bytes)."""
        buffer = io.StringIO()
        self.write_json(buffer, indent=indent)
        return buffer.getvalue()

    def summary(self) -> str:
        totals = self.totals
        lines = [
            f"mode {self.final_mode}"
            + (f" ({self.final_policy})" if self.final_policy else "")
            + f", k_active={self.k_active}, "
              f"capacity={self.final_capacity} streams",
            f"sessions: {totals.get('arrivals', 0)} arrived, "
            f"{totals.get('admits', 0)} admitted, "
            f"{totals.get('rejects', 0)} rejected, "
            f"{totals.get('drops', 0)} dropped, "
            f"{self.active_sessions} still playing",
            f"blocking {self.blocking_probability:.4f}, "
            f"degraded {self.degraded_time:.0f}s of {self.horizon:.0f}s, "
            f"DRAM {self.final_dram_required / MB:.1f} MB of "
            f"{self.dram_budget / MB:.1f} MB",
            f"migrations: "
            f"{sum(len(m.migrations_in) for m in self.migrations)} in / "
            f"{sum(len(m.migrations_out) for m in self.migrations)} out "
            f"over {len(self.migrations)} re-plans",
        ]
        if "fanout_sessions_per_stream" in self.notes:
            lines.append(
                f"vod: {self.notes['fanout_sessions_per_stream']:.2f} "
                f"sessions/stream over "
                f"{self.notes.get('streams_opened', 0.0):.0f} IO streams "
                f"({totals.get('batched_joins', 0)} batched joins)")
        if self.planner_cache:
            hits = self.planner_cache.get("hits", 0)
            misses = self.planner_cache.get("misses", 0)
            solves = hits + misses
            ratio = (hits / solves) if solves else 0.0
            lines.append(
                f"planner cache: {hits} hits / {misses} misses "
                f"({100.0 * ratio:.0f}% hit rate)")
            probes_warm = self.planner_cache.get("probes_warm", 0)
            probes_cold = self.planner_cache.get("probes_cold", 0)
            lines.append(
                f"planner probes: {probes_cold} cold / {probes_warm} warm "
                f"({self.planner_cache.get('solves_cold', 0)} cold / "
                f"{self.planner_cache.get('solves_warm', 0)} warm solves)")
        return "\n".join(lines)

    def dashboard(self) -> str:
        return render_dashboard(self.metrics)


class ServerRuntime:
    """One scenario's event-driven run loop."""

    def __init__(self, config: RuntimeConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._sampler = SessionSampler(config.workload, config.seed)
        self._sim = Simulator()
        self._events: list[SessionEvent] = []
        self._metrics = MetricsLog()
        self._migrations: list[MigrationRecord] = []
        self._table = SessionTable()
        #: API-driven until :meth:`self_drive`.
        self._harvest = False
        #: Earliest pending departure (lower bound; staying conservative
        #: only costs a harvest that finds nothing).  inf while none is
        #: pending.
        self._min_dep = _INF
        #: Generation of the live departure alarm (:meth:`_arm_departures`).
        self._alarm = 0
        #: Absolute time of the next self-drawn arrival (inf while the
        #: engine is API-driven).
        self._next_arrival = _INF
        #: The self-driving driver's sinks (see :meth:`self_drive`).
        self._on_drained: Callable[[list[tuple]], None] | None = None
        self._on_held: Callable[[list[float]], None] | None = None
        #: Set by a self-driving driver while its arrivals must not
        #: reach admission (an open replan window, a drain): drained
        #: arrivals then go to its held sink untouched.
        self.hold_arrivals = False
        self._cached_set: set[int] | None = None
        self._next_id = 0
        self._mode = config.configuration
        self._policy: CachePolicy | None = None
        self._k_active = config.params.k
        self._rate_factor = 1.0  # surviving MEMS media-rate multiplier
        #: The healthy parameters projected onto the surviving bank;
        #: None until first asked and after a fault moves
        #: ``_k_active``/``_rate_factor``.
        self._degraded: SystemParameters | None = None
        self._degraded_since: float | None = None
        self._degraded_time = 0.0
        self._arrivals_total = 0
        self._rejects_total = 0
        # A private planner so the cache counters describe this run only
        # (the epoch/metrics/recovery loops all solve through it).
        self._planner = Planner()
        require(config.device is not None,
                "RuntimeConfig validated without a MEMS device")
        self._bank: MemsBank | None = MemsBank(
            config.device, config.params.k, BankPolicy.ROUND_ROBIN)

        workload = config.workload
        self._placement: AdaptivePlacement | None = None
        self._prefix: PrefixPlacement | None = None
        self._prefix_decision: PrefixDecision | None = None
        self._batcher: MulticastBatcher | None = None
        if self._mode == "cache":
            self._placement = AdaptivePlacement(
                workload.n_titles, decay=config.placement_decay,
                prior_weights=workload.current_weights(),
                planner=self._planner)
            decision = self._placement.replan(self._degraded_params(), 0.0,
                                              dram_budget=config.dram_budget)
            self._policy = decision.policy
            self._record_migration(0.0, decision)
            self._controller = AdmissionController(
                self._degraded_params(), config.dram_budget,
                configuration="cache", policy=decision.policy,
                popularity=decision.popularity, planner=self._planner)
        elif self._mode == "prefix":
            self._batcher = MulticastBatcher()
            self._prefix = PrefixPlacement(
                workload.n_titles, decay=config.placement_decay,
                prior_weights=workload.current_weights(),
                safety=config.prefix_safety,
                floor_seconds=config.prefix_floor,
                window_cap=config.batch_window,
                planner=self._planner)
            decision = self._prefix.replan(self._degraded_params(), 0.0,
                                           dram_budget=config.dram_budget)
            self._policy = decision.policy
            self._prefix_decision = decision
            self._record_migration(0.0, decision)
            self._controller = AdmissionController(
                self._degraded_params(), config.dram_budget,
                spec=decision.spec, planner=self._planner)
        else:
            self._controller = AdmissionController(
                self._degraded_params(), config.dram_budget,
                configuration=self._mode, planner=self._planner)

    # -- Accessors (the service facade drives the engine through these) ------

    @property
    def sim(self) -> Simulator:
        """The run's event calendar (shared with the service facade)."""
        return self._sim

    @property
    def rng(self) -> np.random.Generator:
        """The run's single seeded generator."""
        return self._rng

    @property
    def sampler(self) -> SessionSampler:
        """The run's chunked workload sampler (shared with the facade)."""
        return self._sampler

    @property
    def session_table(self) -> SessionTable:
        """The struct-of-arrays session store."""
        return self._table

    @property
    def mode(self) -> str:
        """Active configuration mode ("none"/"buffer"/"cache"/"prefix")."""
        return self._mode

    @property
    def controller(self) -> AdmissionController:
        """The live admission controller."""
        return self._controller

    @property
    def planner(self) -> Planner:
        """The run's private planner."""
        return self._planner

    @property
    def active_sessions(self) -> int:
        """Sessions currently playing."""
        return self._table.active_count

    @property
    def policy(self) -> CachePolicy | None:
        """The placement policy of the last plan (None in static modes)."""
        return self._policy

    @property
    def rejects_total(self) -> int:
        """Arrivals the engine itself has rejected so far."""
        return self._rejects_total

    @property
    def k_active(self) -> int:
        """Surviving MEMS devices."""
        return self._k_active

    # -- Geometry ------------------------------------------------------------

    def _degraded_params(self) -> SystemParameters:
        """Healthy parameters projected onto the surviving bank.

        Population-free (``n_streams=0``): every consumer passes the
        population it solves at.  Built once per change of the bank,
        so an epoch replan and the admission swap after it share one
        parameter set.
        """
        if self._degraded is None:
            params = self.config.params
            self._degraded = params.replace(
                n_streams=0, k=max(self._k_active, 1),
                r_mems=params.r_mems * self._rate_factor)
        return self._degraded

    def _served_by(self, title: int) -> str:
        if self._mode == "cache":
            require(self._placement is not None,
                    "cache mode runs without an AdaptivePlacement")
            if self._cached_set is None:
                self._cached_set = set(self._placement.cached_titles)
            return "cache" if title in self._cached_set else "disk"
        return "buffer" if self._mode == "buffer" else "disk"

    # -- Drivers -------------------------------------------------------------

    def self_drive(self, *,
                   on_drained: Callable[[list[tuple]], None] | None = None,
                   on_held: Callable[[list[float]], None] | None = None
                   ) -> None:
        """Draw arrivals from the engine's own Poisson chain.

        The run loop and the service's traffic programs drive the
        engine this way: no session puts an event on the calendar.  The
        arrival chain and the departures replay in vectorized windows
        (:meth:`_drain_table`) at calendar boundaries and facade calls,
        and departures come off the table's departure heap.  Each
        window's admitted and rejected arrivals reach ``on_drained`` as
        ``(time, title, row, served_by, reason, admitted_streams)``
        records in time order (``row`` is -1 on rejection; the stream
        count is the controller's right after the arrival).  While
        :attr:`hold_arrivals` is set, arrivals reach ``on_held`` as
        bare times instead: no title is drawn and nothing is admitted.
        A driver picks this before the first session arrives.
        """
        if self._harvest or len(self._table):
            raise ConfigurationError(
                "self_drive must come before the first session")
        self._harvest = True
        self._on_drained = on_drained
        self._on_held = on_held
        # The first draw a per-arrival calendar chain would make.
        self._next_arrival = self._sampler.next_interarrival()

    # -- Event handlers ------------------------------------------------------

    def handle_arrival(self, sim: Simulator,
                       title: int | None = None) -> ArrivalOutcome:
        """Process one arrival: observe, admit or reject, track the exit.

        The engine's admission operation for the service facade's
        :meth:`repro.service.MediaService.admit`.  When ``title`` is
        None the workload draws one (the next draw of the seeded
        stream, so every path consumes the RNG identically).
        """
        now = sim.now
        if self._min_dep <= now or self._next_arrival <= now:
            self._drain_table(now, inclusive=True)
        if title is None:
            title = self._sampler.next_title()
        row, _, served, reason, batched = self._arrive(now, title)
        if row < 0:
            return ArrivalOutcome(admitted=False, title=title, reason=reason)
        return ArrivalOutcome(admitted=True, title=title, session_id=row,
                              served_by=served, batched=batched)

    def handle_arrival_block(self, sim: Simulator,
                             titles: Sequence[int | None]
                             ) -> list[ArrivalOutcome]:
        """Process a burst of arrivals at the current instant.

        Equivalent, draw for draw and event for event, to calling
        :meth:`handle_arrival` once per entry of ``titles`` from one
        calendar callback: the title stream is consumed in order for
        the ``None`` entries, holding times are drawn per admission,
        and a departure the burst itself makes due (a zero-duration
        hold) leaves after the burst, as its calendar event would.  The
        missing titles arrive as one vectorized block instead of one
        scalar draw per call, which is what makes the facade's burst
        path cheap.
        """
        now = sim.now
        if self._min_dep <= now or self._next_arrival <= now:
            self._drain_table(now, inclusive=True)
        missing = sum(1 for title in titles if title is None)
        drawn = iter(self._sampler.title_block(missing).tolist())
        outcomes: list[ArrivalOutcome] = []
        k, n = 0, len(titles)
        for given in titles:
            title = int(given) if given is not None else int(next(drawn))
            row, _, served, reason, batched = self._arrive(now, title)
            k += 1
            if row < 0:
                outcomes.append(ArrivalOutcome(
                    admitted=False, title=title, reason=reason))
                if k < n and self._mode != "prefix":
                    # Saturated tail: time does not advance inside the
                    # burst and a rejection leaves the population
                    # untouched, so every remaining entry rejects for
                    # the identical reason.  (Prefix mode is excluded:
                    # batched joins can admit past a rejection.)
                    rest = [int(g) if g is not None else int(next(drawn))
                            for g in titles[k:]]
                    self._bulk_reject(
                        np.full(len(rest), now), np.asarray(rest), reason)
                    # Frozen outcomes are shareable: one per distinct
                    # title covers the whole tail.
                    shared: dict[int, ArrivalOutcome] = {}
                    for t in rest:
                        outcome = shared.get(t)
                        if outcome is None:
                            outcome = ArrivalOutcome(
                                admitted=False, title=t, reason=reason)
                            shared[t] = outcome
                        outcomes.append(outcome)
                    break
            else:
                outcomes.append(ArrivalOutcome(
                    admitted=True, title=title, session_id=row,
                    served_by=served, batched=batched))
        return outcomes

    def _track_departure(self, departure: float) -> None:
        """Lower the departure bound; an API-driven engine re-arms its alarm."""
        if departure < self._min_dep:
            self._min_dep = departure
            if not self._harvest:
                self._arm_departures()

    def _arm_departures(self) -> None:
        """Put the earliest pending departure on the calendar as the alarm.

        The alarm retires every departure due when it fires (off the
        table's heap, like a self-driven drain) and re-arms at the next,
        so departures retire inside ``sim.run`` at their own times and
        no facade call pays for them.  A newer alarm supersedes it: a
        stale generation fires and does nothing.
        """
        self._alarm += 1
        generation = self._alarm

        def alarm(sim: Simulator) -> None:
            if generation != self._alarm:
                return
            self._drain_table(sim.now, inclusive=True)
            if self._min_dep < _INF:
                self._arm_departures()

        self._sim.at(self._min_dep, alarm, "departure")

    def _complete_departure(self, now: float, row: int) -> SessionEvent:
        """Release a departing session's slot and log the exit."""
        title, served, stream = self._table.mark_departed(row)
        if stream >= 0:
            # Shared stream: the IO slot frees only when the last
            # rider leaves.
            if (self._batcher is not None
                    and self._batcher.has_stream(stream)):
                if self._batcher.leave(stream, row):
                    self._controller.release(1)
                    self._metrics.count("streams_closed")
        else:
            self._controller.release(1)
        self._metrics.count("departures")
        event = SessionEvent(
            time=now, kind=SessionEventKind.DEPART, session_id=row,
            title=title, served_by=served)
        self._events.append(event)
        return event

    def close_session(self, sim: Simulator,
                      session_id: int) -> SessionEvent | None:
        """Tear one session down early (the service ``teardown`` op).

        Accounted exactly like a natural departure — the slot is
        released and a ``DEPART`` event is logged.  Returns that event,
        or None if the id is not live.
        """
        now = sim.now
        # Departures due by now retire first, as a per-event calendar
        # would have run them (scheduled at admit, hence with earlier
        # sequence numbers).
        if self._min_dep <= now or self._next_arrival <= now:
            self._drain_table(now, inclusive=True)
        if not self._table.is_active(session_id):
            return None
        return self._complete_departure(now, session_id)

    # -- Harvesting ----------------------------------------------------------

    def sync(self, sim: Simulator) -> None:
        """Advance lazy session bookkeeping to ``sim.now``.

        Replays every arrival and departure due strictly before now, so
        read-style facade operations observe the same state a per-event
        calendar would have shown.  An API-driven engine's departure
        alarm has already retired those, so there it finds nothing.
        """
        self._pre_control(sim)

    def _pre_control(self, sim: Simulator) -> None:
        """Advance the session stream to ``sim.now`` before a control action.

        Periodic calendar entries keep their original sequence numbers,
        so at equal timestamps a per-event calendar runs control timers
        *before* any session event; the drain mirrors that by stopping
        strictly below the timer's firing time.
        """
        self._drain_table(sim.now, inclusive=False)

    def _window_arrivals(self, until: float, *,
                         inclusive: bool) -> np.ndarray:
        """Arrival times of the self-driven chain due in this window."""
        first = self._next_arrival
        if first > until or (not inclusive and first >= until):
            return _EMPTY_TIMES
        rest = self._sampler.arrival_times(first, until, inclusive=inclusive)
        times = np.concatenate((np.array([first]), rest))
        # Materialize the follower now, at the window's rate — exactly
        # when (and at what scale) a per-arrival chain would draw it.
        self._next_arrival = (float(times[-1])
                              + self._sampler.next_interarrival())
        return times

    def _drain_table(self, until: float, *, inclusive: bool = False) -> None:
        """Replay the merged session stream up to ``until`` in time order.

        The sampler yields the window's arrival times and titles as one
        vectorized block each, and a merge against the table's
        departure heap replays them in the order a per-event calendar
        would have: a due departure precedes an arrival at the same
        timestamp, and equal departure times resolve in admit order.
        An admission whose (short) holding time ends inside the window
        enters the same heap, so it departs in turn.  Held arrivals
        skip admission and go to the driver's held sink; the others
        reach its drained sink as one record each (see
        :meth:`self_drive`).  An API-driven engine draws no arrival, so
        there the window holds departures only.
        """
        arrivals = self._window_arrivals(until, inclusive=inclusive)
        if self.hold_arrivals and len(arrivals):
            # Held arrivals never touch the engine, and departures
            # publish nothing, so the sink may take them first.
            self._on_held(arrivals.tolist())
            arrivals = _EMPTY_TIMES
        n_arr = len(arrivals)
        if n_arr == 0 and not (self._min_dep <= until if inclusive
                               else self._min_dep < until):
            return
        table = self._table
        titles = self._sampler.title_block(n_arr)
        # The merge walks plain floats and ints: numpy scalars compare
        # several times slower.
        arrival_list, title_list = arrivals.tolist(), titles.tolist()
        records: list[tuple] | None = (
            [] if self._on_drained is not None and n_arr else None)
        infinity = float("inf")
        i = 0
        t_dep = table.min_departure()
        while True:
            if t_dep > until or (not inclusive and t_dep == until):
                t_dep = infinity
            t_arr = arrival_list[i] if i < n_arr else infinity
            if t_dep == infinity and t_arr == infinity:
                break
            if t_dep <= t_arr:
                for row in table.harvest(t_dep):
                    self._complete_departure(t_dep, row)
                t_dep = table.min_departure()
                continue
            title = title_list[i]
            row, dep, served, reason, _ = self._arrive(t_arr, title)
            i += 1
            if records is not None:
                records.append((t_arr, title, row, served, reason,
                                self._controller.admitted_streams))
            if row >= 0:
                if dep < t_dep:
                    t_dep = dep
            elif i < n_arr and self._mode != "prefix":
                # Saturated stretch: a rejection leaves the admitted
                # population untouched, and nothing can free a slot
                # before the next due departure, so every arrival
                # strictly before it rejects for the identical reason.
                # With no departure due the whole tail goes at once.
                # (Prefix mode is excluded: batched joins can still
                # admit past a rejection.)
                m = bisect.bisect_left(arrival_list, t_dep, lo=i)
                if m > i:
                    self._bulk_reject(arrivals[i:m], titles[i:m], reason,
                                      records)
                    i = m
        self._min_dep = table.min_departure()
        if records:
            self._on_drained(records)

    # -- Admission -----------------------------------------------------------

    def _arrive(self, now: float, title: int
                ) -> tuple[int, float, str | None, str | None, bool]:
        """Admit or reject one arrival at ``now``.

        Returns ``(row, departure_time, served_by, reason, batched)``
        with ``row = -1`` on rejection.  Every driver runs this code;
        they differ only in :meth:`_track_departure`.
        """
        self._arrivals_total += 1
        self._metrics.count("arrivals")
        if self._placement is not None:
            self._placement.observe(title)
        if self._prefix is not None:
            self._prefix.observe(title)
        if self._mode == "prefix":
            return self._arrive_prefix(now, title)
        decision = self._controller.try_admit()
        if not decision.admitted:
            return self._reject(now, title, decision.reason)
        served = self._served_by(title)
        row, dep = self._admit(now, title, served)
        return row, dep, served, None, False

    def _arrive_prefix(self, now: float, title: int
                       ) -> tuple[int, float, str | None, str | None, bool]:
        """Prefix-mode admission: join an open stream or charge a new one.

        A same-title arrival inside an open stream's batching window
        rides that stream for free — no admission check, no new IO.
        Only a brand-new stream goes through the controller, which
        therefore counts *IO streams*, the unit the planner's prefix
        demand model is stated in.
        """
        require(self._prefix is not None and self._batcher is not None,
                "prefix admission outside prefix mode")
        shared = self._batcher.joinable(title, now)
        if shared is not None:
            row, dep = self._admit(now, title, "shared", shared.stream_id)
            self._batcher.join(shared, row)
            self._metrics.count("batched_joins")
            return row, dep, "shared", None, True
        decision = self._controller.try_admit()
        if not decision.admitted:
            return self._reject(now, title, decision.reason)
        served = ("prefix" if self._prefix.is_resident(title) else "disk")
        stream = self._batcher.open(
            title, now, self._prefix.window_seconds(title), self._next_id)
        row, dep = self._admit(now, title, served, stream.stream_id)
        self._metrics.count("streams_opened")
        return row, dep, served, None, False

    def _admit(self, now: float, title: int, served: str,
               stream_id: int | None = None) -> tuple[int, float]:
        """Store one admitted session, log it, and track its exit.

        Returns ``(row, departure_time)``; the row is the session id.
        """
        row = self._next_id
        self._next_id += 1
        holding = self._sampler.next_holding()
        self._table.add(row, title=title, arrival=now, holding=holding,
                        served_by=served, stream_id=stream_id)
        dep = now + holding
        self._track_departure(dep)
        self._metrics.count("admits")
        self._events.append(SessionEvent(
            time=now, kind=SessionEventKind.ADMIT, session_id=row,
            title=title, served_by=served))
        return row, dep

    def _bulk_reject(self, times: np.ndarray, titles: np.ndarray,
                     reason: str | None,
                     records: list[tuple] | None = None) -> None:
        """Reject a whole run of arrivals at once (saturated window).

        Event-for-event identical to calling :meth:`_arrive` on
        each entry when no admission can interleave: counters move by
        the block size, the placement observes the titles as one
        scatter-add, and the audit log gains one REJECT per arrival
        (and ``records``, when given, one drained-sink record each).
        """
        n = len(times)
        self._arrivals_total += n
        self._metrics.count("arrivals", n)
        if self._placement is not None:
            self._placement.observe_block(titles)
        if self._prefix is not None:
            self._prefix.observe_block(titles)
        self._rejects_total += n
        self._metrics.count("rejects", n)
        append = self._events.append
        times_list, titles_list = times.tolist(), titles.tolist()
        for now, title in zip(times_list, titles_list):
            append(SessionEvent(
                time=now, kind=SessionEventKind.REJECT,
                session_id=-1, title=title, reason=reason))
        if records is not None:
            streams = self._controller.admitted_streams
            records.extend([(now, title, -1, None, reason, streams)
                            for now, title in zip(times_list, titles_list)])

    def _reject(self, now: float, title: int, reason: str | None
                ) -> tuple[int, float, str | None, str | None, bool]:
        self._rejects_total += 1
        self._metrics.count("rejects")
        self._events.append(SessionEvent(
            time=now, kind=SessionEventKind.REJECT,
            session_id=-1, title=title, reason=reason))
        return -1, _INF, None, reason, False

    def _drop_row(self, sim: Simulator, row: int, reason: str) -> None:
        """Mark one table row dropped and log it (slot NOT released)."""
        title, served, _ = self._table.mark_dropped(row)
        self._metrics.count("drops")
        self._events.append(SessionEvent(
            time=sim.now, kind=SessionEventKind.DROP, session_id=row,
            title=title, served_by=served, reason=reason))

    def _shed_sessions(self, sim: Simulator, n_drop: int,
                       reason: str) -> None:
        """Drop the ``n_drop`` newest sessions (least watched first)."""
        for row in self._table.shed_newest(n_drop):
            self._controller.release(1)
            self._drop_row(sim, int(row), reason)

    def _shed_streams(self, sim: Simulator, n_drop: int,
                      reason: str) -> None:
        """Close the ``n_drop`` newest IO streams and drop their riders."""
        require(self._batcher is not None,
                "stream shedding outside prefix mode")
        for stream in self._batcher.drop_newest(n_drop):
            self._controller.release(1)
            self._metrics.count("streams_closed")
            for session_id in stream.session_ids:
                if self._table.is_active(session_id):
                    self._drop_row(sim, session_id, reason)

    def _record_migration(self, time: float, decision) -> None:
        if decision.migrations_in or decision.migrations_out:
            self._metrics.count("migrations_in", len(decision.migrations_in))
            self._metrics.count("migrations_out",
                                len(decision.migrations_out))
            self._migrations.append(MigrationRecord(
                time=time, policy=decision.policy.value,
                migrations_in=decision.migrations_in,
                migrations_out=decision.migrations_out,
                n_cached=len(decision.cached_titles)))

    def _replan(self, sim: Simulator, *, reason: str) -> None:
        """Re-rank, migrate, and swap the admission demand model."""
        require(self._placement is not None,
                "replan requested outside cache mode")
        self._metrics.count("replans")
        decision = self._placement.replan(
            self._degraded_params(), float(self._table.active_count),
            dram_budget=self.config.dram_budget)
        self._policy = decision.policy
        self._record_migration(sim.now, decision)
        self._controller.reconfigure(params=self._degraded_params(),
                                     configuration="cache",
                                     policy=decision.policy,
                                     popularity=decision.popularity)
        # Live sessions follow their titles across the migration.
        self._cached_set = set(decision.cached_titles)
        self._relabel(self._table.active_rows(), decision.cached_titles,
                      "cache")
        # The observed popularity may be harsher than what the old
        # population was admitted under; shed to the new capacity.
        capacity = self._controller.capacity()
        live = self._table.active_count
        if live > capacity:
            self._shed_sessions(sim, live - capacity, reason)

    def _replan_prefix(self, sim: Simulator, *, reason: str) -> None:
        """Re-allocate prefixes and swap the admission spec (in streams)."""
        require(self._prefix is not None and self._batcher is not None,
                "prefix replan outside prefix mode")
        self._metrics.count("replans")
        decision = self._prefix.replan(
            self._degraded_params(), float(self._batcher.active_streams),
            dram_budget=self.config.dram_budget)
        self._policy = decision.policy
        self._prefix_decision = decision
        self._record_migration(sim.now, decision)
        self._controller.reconfigure(params=self._degraded_params(),
                                     spec=decision.spec)
        # Stream openers follow their titles across the migration
        # (riders keep "shared" — their IO is the opener's).
        table = self._table
        rows = table.active_rows()
        rows = rows[table.served[rows] != table.serve_code("shared")]
        self._relabel(rows, self._prefix.resident_titles, "prefix")
        capacity = self._controller.capacity()
        if self._batcher.active_streams > capacity:
            self._shed_streams(
                sim, self._batcher.active_streams - capacity, reason)

    def _relabel(self, rows: np.ndarray, titles: Sequence[int],
                 tier: str) -> None:
        """Serve ``rows`` from ``tier`` when their title is in ``titles``,
        from disk otherwise (live sessions follow a migration)."""
        if not len(rows):
            return
        table = self._table
        hit = np.zeros(self.config.workload.n_titles, dtype=bool)
        hit[list(titles)] = True
        table.served[rows] = np.where(hit[table.title[rows]],
                                      table.serve_code(tier),
                                      table.serve_code("disk"))

    def _on_epoch(self, sim: Simulator) -> None:
        self.run_epoch(sim)

    def run_epoch(self, sim: Simulator) -> bool:
        """Run one epoch re-plan now; True when a re-plan happened.

        The replan operation of the control plane: the run loop
        fires it on the epoch timer, the service facade fires it off
        the request path (possibly delayed by ``replan_latency``).
        Static modes ("none"/"buffer") have nothing to re-plan.
        """
        self._pre_control(sim)
        if self._mode == "cache":
            self._replan(sim, reason="epoch re-plan over capacity")
            return True
        if self._mode == "prefix":
            self._replan_prefix(sim, reason="epoch re-plan over capacity")
            return True
        return False

    def _fail_prefix(self, sim: Simulator) -> None:
        """Degrade the prefix mode after a bank failure.

        While any device survives the normal epoch machinery absorbs
        the hit: re-plan against the shrunken bank and shed whole
        streams over the new capacity.  Total bank loss collapses the
        mode — no prefixes means no instant-start batching, so every
        surviving session needs its own direct-disk stream and the
        runtime falls back to a rebuilt ``"none"`` controller.
        """
        require(self._prefix is not None and self._batcher is not None,
                "prefix failure handling outside prefix mode")
        if self._k_active >= 1:
            self._replan_prefix(sim, reason="device failure")
            return
        from repro.core.popularity import EmpiricalPopularity

        popularity = EmpiricalPopularity.from_counts(self._prefix.scores())
        plan = plan_recovery(self.config.params, self.config.dram_budget,
                             self._table.active_count, popularity,
                             k_active=0, r_mems_factor=self._rate_factor,
                             planner=self._planner)
        if plan.n_dropped:
            # Shed sessions directly: the old controller counted IO
            # streams, so its slots are not session slots to release.
            for row in self._table.shed_newest(plan.n_dropped):
                self._drop_row(sim, int(row), "device failure")
        # Batching collapses with the bank: every survivor becomes its
        # own direct-disk stream.  A fresh (empty) batcher keeps the
        # live gauges at zero; the cumulative fan-out counters carry
        # over so the end-of-run ratio still covers the whole run.
        self._batcher.dissolve()
        fresh = MulticastBatcher()
        fresh.sessions_total = self._batcher.sessions_total
        fresh.streams_total = self._batcher.streams_total
        self._batcher = fresh
        table = self._table
        rows = table.active_rows()
        table.stream[rows] = -1
        table.served[rows] = table.serve_code("disk")
        self._prefix = None
        self._prefix_decision = None
        self._mode = plan.mode
        self._policy = plan.policy
        self._controller = AdmissionController(
            self._degraded_params(), self.config.dram_budget,
            configuration=plan.mode, planner=self._planner)
        for _ in range(table.active_count):
            require(self._controller.try_admit().admitted,
                    "recovery plan under-counted the surviving sessions")

    def _make_failure(self, event: FailureEvent):
        def fail(sim: Simulator) -> None:
            self.apply_failure(sim, event)

        return fail

    def apply_failure(self, sim: Simulator, event: FailureEvent) -> None:
        """Degrade the bank per ``event`` and re-plan the survivors."""
        self._pre_control(sim)
        self._metrics.count("failures")
        if event.kind is FailureKind.DEVICE_LOSS:
            self._k_active = max(0, self._k_active - event.count)
        else:
            self._rate_factor *= event.factor
        self._degraded = None
        if self._mode == "prefix":
            self._fail_prefix(sim)
            self._bank = (None if self._k_active < 1 else MemsBank(
                self.config.device, self._k_active,
                BankPolicy.ROUND_ROBIN))
            if self._degraded_since is None:
                self._degraded_since = sim.now
            return
        popularity = self.config.workload.popularity
        if self._placement is not None:
            # Judge recovery against the observed traffic, not the
            # configured distribution.
            from repro.core.popularity import EmpiricalPopularity

            popularity = EmpiricalPopularity.from_counts(
                self._placement.scores())
        plan = plan_recovery(self.config.params,
                             self.config.dram_budget,
                             self._table.active_count, popularity,
                             k_active=self._k_active,
                             r_mems_factor=self._rate_factor,
                             planner=self._planner)
        if plan.n_dropped:
            self._shed_sessions(sim, plan.n_dropped, "device failure")
        previous_mode = self._mode
        self._mode = plan.mode
        self._policy = plan.policy
        if plan.mode == "cache":
            self._controller.reconfigure(
                params=self._degraded_params(), configuration="cache",
                policy=plan.policy, popularity=popularity)
            # Shrink the cached set to the surviving capacity now
            # rather than waiting for the next epoch tick.
            self._replan(sim, reason="device failure")
        else:
            self._controller.reconfigure(
                params=self._degraded_params(),
                configuration=plan.mode)
            if previous_mode == "cache":
                table = self._table
                rows = table.active_rows()
                # _served_by is title-independent outside cache mode.
                table.served[rows] = table.serve_code(
                    "buffer" if self._mode == "buffer" else "disk")
        self._bank = (None if self._k_active < 1 else MemsBank(
            self.config.device, self._k_active, BankPolicy.ROUND_ROBIN))
        if self._degraded_since is None:
            self._degraded_since = sim.now

    def apply_drift(self, sim: Simulator, event: DriftEvent) -> None:
        """Rotate the title ranking (popularity drift)."""
        self._pre_control(sim)
        self.config.workload.rotate_popularity(event.shift)

    def apply_surge(self, sim: Simulator, event: SurgeEvent) -> None:
        """Scale the arrival rate (flash crowd)."""
        self._pre_control(sim)
        self.config.workload.scale_rate(event.factor)

    def apply_focus(self, sim: Simulator, event: FocusEvent) -> None:
        """Concentrate arrivals onto one title (focused crowd)."""
        self._pre_control(sim)
        self.config.workload.focus_title(event.title, event.weight)

    def _make_drift(self, event: DriftEvent):
        def drift(sim: Simulator) -> None:
            self.apply_drift(sim, event)

        return drift

    def _make_surge(self, event: SurgeEvent):
        def surge(sim: Simulator) -> None:
            self.apply_surge(sim, event)

        return surge

    def _make_focus(self, event: FocusEvent):
        def focus(sim: Simulator) -> None:
            self.apply_focus(sim, event)

        return focus

    # -- Gauges --------------------------------------------------------------

    def _cache_session_count(self) -> int:
        """Live sessions currently served from the MEMS cache."""
        table = self._table
        rows = table.active_rows()
        return int(np.count_nonzero(
            table.served[rows] == table.serve_code("cache")))

    def _device_utilization(self) -> float:
        """Load fraction of the bottleneck device class."""
        params = self.config.params
        n = self._table.active_count
        disk_load = n * params.bit_rate / params.r_disk
        if self._bank is None:
            return disk_load
        bank_rate = self._bank.aggregate_bandwidth * self._rate_factor
        if self._mode == "prefix":
            require(self._batcher is not None
                    and self._prefix_decision is not None,
                    "prefix mode runs without a batcher/decision")
            # Fan-out means the devices see IO streams, not sessions;
            # the prefix fraction splits each stream's bytes.
            n_io = float(self._batcher.active_streams)
            h = self._prefix_decision.mems_fraction
            disk_load = n_io * (1.0 - h) * params.bit_rate / params.r_disk
            return max(disk_load, n_io * h * params.bit_rate / bank_rate)
        if self._mode == "cache":
            n_cache = self._cache_session_count()
            disk_load = (n - n_cache) * params.bit_rate / params.r_disk
            return max(disk_load, n_cache * params.bit_rate / bank_rate)
        if self._mode == "buffer":
            # Buffered traffic crosses the bank twice (write + read).
            return max(disk_load, 2 * n * params.bit_rate / bank_rate)
        return disk_load

    def seal_metrics(self, sim: Simulator) -> None:
        """Close one reporting interval now (the service metrics op)."""
        self._on_metrics(sim)

    def _on_metrics(self, sim: Simulator) -> None:
        self._pre_control(sim)
        workload = self.config.workload
        n = self._table.active_count
        n_cache = self._cache_session_count()
        try:
            dram = self._controller.dram_required()
        except (AdmissionError, CapacityError):  # pragma: no cover
            dram = float("inf")
        capacity = self._controller.capacity()
        degraded = (self._mode != self.config.configuration
                    or self._k_active < self.config.params.k
                    or self._rate_factor < 1.0)
        degraded_time = self._degraded_time
        if self._degraded_since is not None:
            degraded_time += sim.now - self._degraded_since
        gauges = {
            "active_sessions": float(n),
            "cache_sessions": float(n_cache),
            "cache_hit_ratio": (n_cache / n) if n else 0.0,
            "dram_required": dram,
            "dram_occupancy": (dram / self.config.dram_budget
                               if self.config.dram_budget else 0.0),
            "device_utilization": self._device_utilization(),
            "capacity": float(capacity),
            "blocking_probability": (self._rejects_total
                                     / self._arrivals_total
                                     if self._arrivals_total else 0.0),
            "erlang_b_prediction": predicted_blocking(
                workload.arrival_rate * workload.rate_factor,
                workload.mean_holding, capacity),
            "k_active": float(self._k_active),
            "degraded": 1.0 if degraded else 0.0,
            "degraded_time": degraded_time,
        }
        if self._batcher is not None:
            streams = self._batcher.active_streams
            h = (self._prefix_decision.mems_fraction
                 if self._prefix_decision is not None else 0.0)
            allocation = (self._prefix.allocation
                          if self._prefix is not None else None)
            mems_bytes = (allocation.total_bytes
                          if allocation is not None else 0.0)
            gauges["io_streams"] = float(streams)
            gauges["fanout_ratio"] = (n / streams) if streams else 0.0
            gauges["fanout_cumulative"] = self._batcher.fanout
            gauges["prefix_hit_rate"] = h
            gauges["prefix_resident_titles"] = float(
                len(self._prefix.resident_titles)
                if self._prefix is not None else 0)
            gauges["sessions_per_mems_byte"] = (
                n / mems_bytes if mems_bytes > 0 else 0.0)
            gauges["tail_disk_load"] = (
                streams * (1.0 - h) * self.config.params.bit_rate
                / self.config.params.r_disk)
        stats = self._planner.stats()
        solves = stats["hits"] + stats["misses"]
        gauges["planner_cache_hits"] = float(stats["hits"])
        gauges["planner_cache_misses"] = float(stats["misses"])
        gauges["planner_cache_hit_ratio"] = (
            stats["hits"] / solves if solves else 0.0)
        gauges["planner_probe_cold"] = float(stats["probes_cold"])
        gauges["planner_probe_warm"] = float(stats["probes_warm"])
        gauges["planner_probe_total"] = float(stats["probes_cold"]
                                              + stats["probes_warm"])
        self._metrics.close_interval(sim.now, gauges)

    # -- Run loop ------------------------------------------------------------

    def run(self) -> RuntimeResult:
        config = self.config
        sim = self._sim
        self.self_drive()
        sim.every(config.epoch, self._on_epoch, "epoch")
        sim.every(config.metrics_interval, self._on_metrics, "metrics")
        for failure in sorted(config.failures, key=lambda e: e.time):
            sim.at(failure.time, self._make_failure(failure), "failure")
        for drift in sorted(config.drifts, key=lambda e: e.time):
            sim.at(drift.time, self._make_drift(drift), "drift")
        for surge in sorted(config.surges, key=lambda e: e.time):
            sim.at(surge.time, self._make_surge(surge), "surge")
        for focus in sorted(config.focuses, key=lambda e: e.time):
            sim.at(focus.time, self._make_focus(focus), "focus")
        sim.run(until=config.horizon)
        return self.finalize()

    def finalize(self) -> RuntimeResult:
        """Seal the run after the horizon and build the result.

        Shared by the :meth:`run` loop and the service facade, so every
        path produces the result through identical code (the parity
        harness compares the JSON byte for byte).
        """
        config = self.config
        sim = self._sim
        # Everything due through the calendar's final instant runs
        # before the seal — including events at exactly that time,
        # which ``run`` (inclusive) would have executed.  ``run`` leaves
        # ``now`` at its ``until`` bound, so a full run drains through
        # the horizon; a driver that stopped the calendar early (a
        # facade harness mid-run) seals exactly where a per-event
        # calendar would have stopped.
        self._drain_table(sim.now, inclusive=True)
        if (not self._metrics.snapshots
                or self._metrics.snapshots[-1].t_end < config.horizon):
            self._on_metrics(sim)
        if self._degraded_since is not None:
            self._degraded_time += config.horizon - self._degraded_since
            self._degraded_since = None
        try:
            final_dram = self._controller.dram_required()
        except (AdmissionError, CapacityError):  # pragma: no cover
            final_dram = float("inf")
        notes = {"offered_load": config.workload.offered_load,
                 "seed": float(config.seed)}
        if self._batcher is not None:
            notes["fanout_sessions_per_stream"] = self._batcher.fanout
            notes["streams_opened"] = float(self._batcher.streams_total)
            notes["batched_sessions"] = float(self._batcher.sessions_total)
        return RuntimeResult(
            events=self._events,
            metrics=self._metrics,
            migrations=self._migrations,
            final_mode=self._mode,
            final_policy=self._policy.value if self._policy else None,
            k_active=self._k_active,
            final_capacity=self._controller.capacity(),
            final_dram_required=final_dram,
            dram_budget=config.dram_budget,
            degraded_time=self._degraded_time,
            horizon=config.horizon,
            events_executed=sim.events_executed,
            notes=notes,
            planner_cache=self._planner.stats())


def run_runtime(config: RuntimeConfig) -> RuntimeResult:
    """Convenience: build and run one scenario."""
    return ServerRuntime(config).run()
