"""Timed benchmark workloads and the performance-regression gate.

Each workload exercises one hot path end to end and reports its
metrics as a :class:`BenchRecord`, serialised to a schema-versioned
``BENCH_<name>.json``:

* ``event_loop`` — raw discrete-event engine throughput (a fan of
  periodic ``every()`` chains, no model work): the per-event cost of
  the binary-heap core's push, pop and in-place re-arm;
* ``figure6_sweep`` — the Figure 6 planner sweep (both panels), the
  canonical bulk-evaluation workload of the paper's methodology;
* ``batch_sweep`` — the same demand curves plus an inverse budget grid
  through the vectorized batch planner
  (:mod:`repro.planner.batch`): thousands of configuration points per
  array operation instead of one solve per Python call;
* ``runtime_scenario`` — the ``device-failure`` online-server scenario
  rate-amplified through the self-driven run loop: vectorized arrivals,
  departure-heap harvests, re-planning, failure recovery, O(changed)
  metrics intervals, gated on session-lifecycle events per second;
* ``million_sessions`` — the run loop's raw session throughput on a
  short-session torrent (``large`` preset: ~1M admitted sessions),
  gated on admitted sessions per wall second;
* ``planner_cold`` / ``planner_warm`` — the memoizing planner on a
  fresh cache vs replaying the identical query set;
* ``admission_storm`` — epochs of budget re-planning plus arrival
  bursts through the admission controller, timed with warm-start
  planning on and reported against the cold-solve probe count;
* ``replan_epochs`` — adaptive-placement epoch re-planning under
  popularity drift, warm vs cold likewise;
* ``flash_crowd`` — the VoD prefix-mode scenario against the identical
  workload under whole-stream caching: the multicast fan-out ratio and
  the admitted-session advantage, plus a warm-vs-cold probe ratio for
  the prefix epoch re-planner;
* ``lint`` — the whole-program analysis engine over the repository's
  own sources, cold (every file parsed, graph built, all rules) and
  then warm from the content-hash cache on an untouched tree: the
  committed baseline gates the cold wall time, and the warm run must
  re-parse **zero** files (the CI gate asserts it);
* ``service_churn`` — control-plane churn through the
  :class:`~repro.service.facade.MediaService` facade, API-driven (one
  departure alarm on the calendar): cycles of ``admit_block`` bursts / teardown /
  reconfigure ops with the epoch replan running *off the request
  path* (``replan_latency > 0``), so admits landing inside each
  replan window park as PENDING tickets that the replan-done event
  finalizes in one fused pass; the baseline gates the facade's
  ``ops_per_sec`` and records how many tickets took the EVENT_FLOW
  path.

JSON schema (``BenchRecord.to_dict``)::

    {"schema": 1, "name": "event_loop", "preset": "small",
     "metrics": {"wall_time_s": 0.11, "events_per_sec": 1.8e6}}

Gated metrics (compared by :func:`compare_records`) are wall time
(lower is better) and the ``*_per_sec`` rates (higher is better);
anything else — cache hit rates, event counts — is informational.
Timing is the one sanctioned wall-clock read in the seeded layers and
lives in :func:`_elapsed`; everything else a workload does is fully
seeded and deterministic, so two runs differ only in timing.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ConfigurationError

#: Serialisation format version of ``BENCH_<name>.json``.
BENCH_SCHEMA_VERSION = 1

#: Gated metric -> better direction; unlisted metrics are informational.
METRIC_DIRECTIONS: dict[str, str] = {
    "wall_time_s": "lower",
    "events_per_sec": "higher",
    "solves_per_sec": "higher",
    "ops_per_sec": "higher",
    "sessions_per_sec": "higher",
}

#: Per-preset workload scale knobs.
_PRESETS: dict[str, dict[str, float]] = {
    # Fast enough for the test suite (< ~2 s total).
    "tiny": {"events": 5_000, "max_streams": 300.0, "horizon": 600.0,
             "grid": 4, "storm_epochs": 16, "storm_arrivals": 25,
             "replan_epochs": 10, "replan_titles": 20,
             "vod_horizon": 2_000.0,
             "churn_cycles": 4, "churn_admits": 30, "churn_sync": 200,
             "runtime_rate": 10.0,
             "million_rate": 150.0, "million_holding": 0.5,
             "million_horizon": 40.0,
             "lint_full": 0, "batch_points": 2_000},
    # The CI / default preset: seconds, not minutes.
    "small": {"events": 200_000, "max_streams": 3_000.0, "horizon": 3_000.0,
              "grid": 8, "storm_epochs": 24, "storm_arrivals": 100,
              "replan_epochs": 16, "replan_titles": 40,
              "vod_horizon": 6_000.0,
              "churn_cycles": 12, "churn_admits": 120, "churn_sync": 4_000,
              "runtime_rate": 200.0,
              "million_rate": 150.0, "million_holding": 0.5,
              "million_horizon": 1_000.0,
              "lint_full": 1, "batch_points": 50_000},
    # The million-session preset: the ``million_sessions`` workload
    # pushes ~1M admitted sessions through the run loop; the other
    # workloads scale between ``small`` and ``full``.
    "large": {"events": 500_000, "max_streams": 30_000.0,
              "horizon": 3_000.0, "grid": 10,
              "storm_epochs": 40, "storm_arrivals": 200,
              "replan_epochs": 24, "replan_titles": 60,
              "vod_horizon": 8_000.0,
              "churn_cycles": 24, "churn_admits": 200, "churn_sync": 6_000,
              "runtime_rate": 200.0,
              "million_rate": 150.0, "million_holding": 0.5,
              "million_horizon": 7_000.0,
              "lint_full": 1, "batch_points": 150_000},
    # A fuller sweep for local before/after measurements.
    "full": {"events": 1_000_000,  # repro-lint: disable=unit-literals (an event count, not bytes)
             "max_streams": 100_000.0, "horizon": 6_000.0, "grid": 12,
             "storm_epochs": 60, "storm_arrivals": 400,
             "replan_epochs": 40, "replan_titles": 80,
             "vod_horizon": 12_000.0,
             "churn_cycles": 36, "churn_admits": 300, "churn_sync": 8_000,
             "runtime_rate": 200.0,
             "million_rate": 150.0, "million_holding": 0.5,
             "million_horizon": 10_000.0,
             "lint_full": 1, "batch_points": 400_000},
}


def _elapsed() -> float:
    """The sanctioned wall-clock read of the perf layer.

    Benchmarks are the one place the repository may observe real time;
    every other module under the ``determinism`` rule's scope gets its
    clock from the event engine.
    """
    return time.perf_counter()  # repro-lint: disable=determinism (reviewed: the bench timer)


def _scale(preset: str) -> dict[str, float]:
    try:
        return _PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench preset {preset!r}; available: "
            f"{', '.join(_PRESETS)}") from None


@dataclass(frozen=True)
class BenchRecord:
    """One workload's measured metrics (a ``BENCH_<name>.json``)."""

    name: str
    preset: str
    metrics: dict[str, float]

    @property
    def filename(self) -> str:
        return f"BENCH_{self.name}.json"

    def to_dict(self) -> dict:
        return {"schema": BENCH_SCHEMA_VERSION, "name": self.name,
                "preset": self.preset,
                "metrics": dict(sorted(self.metrics.items()))}

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchRecord":
        if payload.get("schema") != BENCH_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported bench schema {payload.get('schema')!r}; "
                f"expected {BENCH_SCHEMA_VERSION}")
        return cls(name=str(payload["name"]), preset=str(payload["preset"]),
                   metrics={str(k): float(v)
                            for k, v in payload["metrics"].items()})


# -- Workloads ---------------------------------------------------------------


def _noop(sim) -> None:
    """The event-loop workload's do-nothing callback (module level so
    the timed region measures the event heap, not closure dispatch)."""


def bench_event_loop(preset: str) -> dict[str, float]:
    """Raw event-heap throughput: a fan of periodic chains.

    64 ``every()`` chains with staggered phases keep 64 entries on the
    heap.  Each firing re-arms its own heap entry in place, so the
    timed region is pure pop/execute/push with no model work.
    """
    from repro.simulation.engine import Simulator

    n_events = int(_scale(preset)["events"])
    chains = 64
    interval = 0.001
    per_chain = -(-n_events // chains) + 1  # margin over float rounding
    sim = Simulator(max_events=chains * (per_chain + 2))
    for i in range(chains):
        sim.every(interval, _noop, start=interval * (i + 1) / chains)
    start = _elapsed()
    sim.run(until=interval * per_chain)
    wall = _elapsed() - start
    return {"wall_time_s": wall,
            "events_per_sec": sim.events_executed / wall,
            "events_executed": float(sim.events_executed)}


def bench_figure6_sweep(preset: str) -> dict[str, float]:
    """The Figure 6 bulk planner sweep (both panels, serial).

    Starts from a cleared shared-planner cache so repeats (and earlier
    workloads in the same process) measure the same cold sweep.
    """
    from repro.experiments import figure6
    from repro.planner import default_planner

    max_streams = _scale(preset)["max_streams"]
    default_planner().cache.clear()
    before = default_planner().stats()
    start = _elapsed()
    figure6.run(with_mems=False, max_streams=max_streams)
    figure6.run(with_mems=True, max_streams=max_streams)
    wall = _elapsed() - start
    after = default_planner().stats()
    solves = ((after["hits"] - before["hits"])
              + (after["misses"] - before["misses"]))
    hits = after["hits"] - before["hits"]
    return {"wall_time_s": wall,
            "solves_per_sec": solves / wall,
            "planner_hit_rate": (hits / solves) if solves else 0.0}


def bench_batch_sweep(preset: str) -> dict[str, float]:
    """Dense demand curves + an inverse budget grid, vectorized.

    The forward half evaluates Figure-6-style Theorem 1/2 demand curves
    (direct and buffered, one bit-rate per lane) over a dense
    population axis through :func:`repro.planner.batch.demand_curve`;
    the inverse half solves a grid of ``(bit_rate, budget)`` cells
    through :func:`repro.planner.batch.batch_max_streams` — the
    doubling + bisection search replayed across all lanes at once.
    ``solves_per_sec`` counts every curve point and every inverse lane,
    the same unit ``figure6_sweep`` gates, so the committed baselines
    expose the scalar-vs-batch ratio directly.
    """
    import numpy as np

    from repro.core.parameters import SystemParameters
    from repro.planner import Configuration
    from repro.planner.batch import batch_max_streams, demand_curve
    from repro.units import GB, KB

    scale = _scale(preset)
    points = int(scale["batch_points"])
    grid = int(scale["grid"])
    bases = []
    for i in range(grid):
        bases.append(SystemParameters.table3_default(
            n_streams=1, bit_rate=(50 + 50 * i) * KB, k=2,
            size_mems_unlimited=True))
    populations = np.linspace(1.0, 3_000.0, points)
    inverse_lanes = [(base, Configuration.buffer(), (j + 1) * 0.25 * GB)
                     for base in bases for j in range(grid)]
    solves = 0
    start = _elapsed()
    for base in bases:
        for configuration in (Configuration.direct(),
                              Configuration.buffer()):
            totals = demand_curve(base, configuration, populations)
            solves += len(totals)
    inverse = batch_max_streams(inverse_lanes)
    solves += len(inverse)
    wall = _elapsed() - start
    return {"wall_time_s": wall,
            "solves_per_sec": solves / wall,
            "demand_points": float(2 * grid * points),
            "inverse_lanes": float(len(inverse_lanes))}


def bench_runtime_scenario(preset: str) -> dict[str, float]:
    """The ``device-failure`` online scenario, rate-amplified.

    The scenario's arrival rate is multiplied by the preset's
    ``runtime_rate`` factor, so the timed region is dominated by
    session lifecycle work — vectorized arrival draws, departure-heap
    harvests, O(changed) metrics intervals — rather than by the handful
    of control timers.  The gated ``events_per_sec`` is
    **session-lifecycle events** (arrivals, admits, rejects, departs,
    drops: ``len(result.events)``) per wall second; the calendar's own
    ``events_executed`` is reported informationally.
    """
    from repro.runtime.runtime import run_runtime
    from repro.service.scenarios import build_service_scenario

    scale = _scale(preset)
    horizon = scale["horizon"]
    # Compile the config outside the timed region: the factory's
    # one-time import cost must not land in a single-repeat wall time.
    scenario = build_service_scenario("device-failure", seed=7,
                                      horizon=horizon)
    workload = replace(scenario.workload, arrival_rate=(
        scenario.workload.arrival_rate * scale["runtime_rate"]))
    config = scenario.replace(workload=workload).to_legacy()
    start = _elapsed()
    result = run_runtime(config)
    wall = _elapsed() - start
    cache = result.planner_cache
    solves = cache.get("hits", 0) + cache.get("misses", 0)
    session_events = len(result.events)
    return {"wall_time_s": wall,
            "events_per_sec": session_events / wall,
            "session_events": float(session_events),
            "events_executed": float(result.events_executed),
            "planner_hit_rate": (cache.get("hits", 0) / solves
                                 if solves else 0.0)}


def bench_million_sessions(preset: str) -> dict[str, float]:
    """Raw session throughput of the self-driven run loop, end to end.

    The ``steady-disk`` scenario (plain disk, no placement epochs to
    speak of) re-rated to a short-session torrent: the preset's
    ``million_rate`` arrivals per second held for ``million_holding``
    seconds keeps the live population far below the admission capacity,
    so virtually every arrival admits and the run measures the pure
    per-session cost of the struct-of-arrays store — chunked arrival
    draws, departure-heap harvests, metrics notes.  The
    ``small`` preset admits ~150k sessions; ``large`` admits ~1M (the
    workload's namesake).  Gated on ``sessions_per_sec`` (admitted
    sessions per wall second).  ``audit_log_bytes`` is informational:
    the exact bytes the session audit log's columns hold for the rows
    the run wrote.
    """
    from repro.runtime.runtime import run_runtime
    from repro.service.scenarios import build_service_scenario

    scale = _scale(preset)
    scenario = build_service_scenario("steady-disk", seed=5,
                                      horizon=scale["million_horizon"])
    workload = replace(scenario.workload,
                       arrival_rate=scale["million_rate"],
                       mean_holding=scale["million_holding"])
    config = scenario.replace(workload=workload).to_legacy()
    start = _elapsed()
    result = run_runtime(config)
    wall = _elapsed() - start
    totals = result.totals
    return {"wall_time_s": wall,
            "sessions_per_sec": totals.get("admits", 0) / wall,
            "sessions": float(totals.get("admits", 0)),
            "arrivals": float(totals.get("arrivals", 0)),
            "session_events": float(len(result.events)),
            "audit_log_bytes": float(result.events.log.nbytes)}


def _planner_query_set(grid: int):
    """A deterministic grid of forward and inverse planner queries."""
    from repro.core.parameters import SystemParameters
    from repro.planner import Configuration
    from repro.units import GB, KB

    queries = []
    for i in range(grid):
        bit_rate = (50 + 50 * i) * KB
        for j in range(grid):
            n = 20 + 40 * j
            params = SystemParameters.table3_default(
                n_streams=n, bit_rate=bit_rate, k=2)
            queries.append(("plan", params, Configuration.buffer()))
        base = SystemParameters.table3_default(n_streams=1,
                                               bit_rate=bit_rate, k=2)
        queries.append(("max_streams", base, Configuration.buffer(),
                        2 * GB))
    return queries


def _run_planner_queries(planner, queries) -> None:
    for query in queries:
        if query[0] == "plan":
            planner.plan(query[1], query[2])
        else:
            planner.max_streams(query[1], query[2], query[3])


def bench_planner_cold(preset: str) -> dict[str, float]:
    """The query grid against a fresh (empty-cache) planner."""
    from repro.planner.solver import Planner

    queries = _planner_query_set(int(_scale(preset)["grid"]))
    planner = Planner()
    start = _elapsed()
    _run_planner_queries(planner, queries)
    wall = _elapsed() - start
    stats = planner.stats()
    solves = stats["hits"] + stats["misses"]
    return {"wall_time_s": wall,
            "solves_per_sec": solves / wall,
            "planner_hit_rate": (stats["hits"] / solves) if solves else 0.0}


def bench_planner_warm(preset: str) -> dict[str, float]:
    """The identical query grid replayed against a warmed planner."""
    from repro.planner.solver import Planner

    queries = _planner_query_set(int(_scale(preset)["grid"]))
    planner = Planner()
    _run_planner_queries(planner, queries)  # warm the cache
    before = planner.stats()
    start = _elapsed()
    _run_planner_queries(planner, queries)
    wall = _elapsed() - start
    after = planner.stats()
    solves = ((after["hits"] - before["hits"])
              + (after["misses"] - before["misses"]))
    hits = after["hits"] - before["hits"]
    return {"wall_time_s": wall,
            "solves_per_sec": solves / wall,
            "planner_hit_rate": (hits / solves) if solves else 0.0}


def _probe_total(planner) -> float:
    stats = planner.stats()
    return float(stats["probes_cold"] + stats["probes_warm"])


def bench_admission_storm(preset: str) -> dict[str, float]:
    """Epochs of budget re-planning plus admission bursts.

    Each epoch nudges the DRAM budget (invalidating the controller's
    cached capacity threshold), then admits a burst of arrivals — the
    runtime's per-epoch traffic pattern.  The identical deterministic
    storm runs twice, against a cold planner (``warm_start=False``) and
    a warm-start one; the warm pass is the timed subject, and both
    probe totals are reported, with their ``probe_ratio`` (cold probes /
    warm probes), plus the warm pass's plan-cache misses — the forward
    and inverse solves it computed, which admits below the capacity
    threshold must not add to.  The counts are deterministic, so the
    tier-1 suite pins them exactly at the ``small`` preset.
    """
    from repro.core.parameters import SystemParameters
    from repro.planner.solver import Planner
    from repro.scheduling.admission import AdmissionController
    from repro.units import GB, KB

    scale = _scale(preset)
    epochs = int(scale["storm_epochs"])
    arrivals = int(scale["storm_arrivals"])
    params = SystemParameters.table3_default(n_streams=1, bit_rate=500 * KB,
                                             k=2)

    def storm(warm_start: bool) -> tuple[Planner, float, float]:
        planner = Planner(warm_start=warm_start)
        controller = AdmissionController(params, 1 * GB,
                                         configuration="buffer",
                                         planner=planner)
        admitted = 0
        start = _elapsed()
        for epoch in range(epochs):
            # Small multiplicative drift: every epoch's capacity sits a
            # step away from the previous one, the warm-start sweet spot.
            controller.reconfigure(dram_budget=(1 * GB) * (1.0 + 1e-6 * epoch))
            for _ in range(arrivals):
                if controller.try_admit().admitted:
                    admitted += 1
            controller.release(controller.admitted_streams)
        wall = _elapsed() - start
        return planner, wall, float(admitted)

    cold_planner, _, _ = storm(False)
    warm_planner, wall, admitted = storm(True)
    stats = warm_planner.stats()
    probes_cold = _probe_total(cold_planner)
    probes_warm = _probe_total(warm_planner)
    return {"wall_time_s": wall,
            "solves_per_sec": (stats["solves_cold"]
                               + stats["solves_warm"]) / wall,
            "admissions": admitted,
            "planner_probes_cold_run": probes_cold,
            "planner_probes_warm_run": probes_warm,
            "probe_ratio": (probes_cold / probes_warm
                            if probes_warm else 0.0),
            "plan_cache_misses_warm_run": float(stats["misses"])}


def bench_replan_epochs(preset: str) -> dict[str, float]:
    """Adaptive-placement epoch re-planning under popularity drift.

    Every epoch observes a rotated traffic pattern (so the fitted
    popularity — and with it the planner's cache axis — changes each
    time) and re-plans with a budget, exercising the explicit
    capacity-hint threading across epochs.  Cold vs warm passes and
    metrics mirror ``admission_storm``.
    """
    from repro.core.parameters import SystemParameters
    from repro.planner.solver import Planner
    from repro.runtime.placement import AdaptivePlacement
    from repro.units import GB, KB

    scale = _scale(preset)
    epochs = int(scale["replan_epochs"])
    n_titles = int(scale["replan_titles"])
    params = SystemParameters.table3_default(n_streams=1, bit_rate=500 * KB,
                                             k=2)

    def run(warm_start: bool) -> tuple[Planner, float]:
        planner = Planner(warm_start=warm_start)
        placement = AdaptivePlacement(n_titles, planner=planner)
        start = _elapsed()
        for epoch in range(epochs):
            for title in range(n_titles):
                for _ in range(1 + (title + epoch) % 4):
                    placement.observe(title)
            placement.replan(params, float(40 + epoch), dram_budget=2 * GB)
        wall = _elapsed() - start
        return planner, wall

    cold_planner, _ = run(False)
    warm_planner, wall = run(True)
    stats = warm_planner.stats()
    probes_cold = _probe_total(cold_planner)
    probes_warm = _probe_total(warm_planner)
    return {"wall_time_s": wall,
            "solves_per_sec": (stats["solves_cold"]
                               + stats["solves_warm"]) / wall,
            "planner_probes_cold_run": probes_cold,
            "planner_probes_warm_run": probes_warm,
            "probe_ratio": (probes_cold / probes_warm
                            if probes_warm else 0.0)}


def bench_flash_crowd(preset: str) -> dict[str, float]:
    """The VoD ``flash_crowd`` scenario vs whole-stream caching.

    Three measured passes:

    1. the timed subject: the prefix-mode scenario (multicast batching,
       adaptive replacement, per-stream admission);
    2. the identical workload re-run under the whole-stream ``"cache"``
       configuration at the same MEMS/DRAM budgets;
    3. a cold-vs-warm :class:`~repro.vod.placement.PrefixPlacement`
       re-plan loop mirroring ``replan_epochs``, pinning the
       warm-start probe ratio for prefix-mode epoch solves.

    The gated ``events_per_sec`` is pass 1's session-lifecycle events
    (``len(result.events)``) per wall second, as in
    ``runtime_scenario``: the self-driven run's calendar holds only its
    control timers.  The session, stream and probe counts are
    deterministic; the tier-1 suite pins them exactly at the ``small``
    preset, which fixes the fan-out ratio (sessions per IO stream) and
    the admitted-session advantage of prefix mode over whole-stream
    caching.
    """
    from repro.core.parameters import SystemParameters
    from repro.planner.solver import Planner
    from repro.runtime.runtime import run_runtime
    from repro.service.scenarios import build_service_scenario
    from repro.units import GB, KB
    from repro.vod.placement import PrefixPlacement

    scale = _scale(preset)
    scenario = build_service_scenario("flash_crowd", seed=11,
                                      horizon=scale["vod_horizon"])
    start = _elapsed()
    prefix_result = run_runtime(scenario.to_legacy())
    wall = _elapsed() - start
    whole_result = run_runtime(
        scenario.replace(configuration="cache").to_legacy())

    epochs = int(scale["replan_epochs"])
    n_titles = int(scale["replan_titles"])
    params = SystemParameters.table3_default(
        n_streams=1, bit_rate=500 * KB, k=2).replace(size_disk=100 * GB)

    def replan_loop(warm_start: bool) -> Planner:
        planner = Planner(warm_start=warm_start)
        placement = PrefixPlacement(n_titles, planner=planner)
        for epoch in range(epochs):
            for title in range(n_titles):
                for _ in range(1 + (title + epoch) % 4):
                    placement.observe(title)
            placement.replan(params, float(40 + epoch), dram_budget=2 * GB)
        return planner

    probes_cold = _probe_total(replan_loop(False))
    probes_warm = _probe_total(replan_loop(True))
    totals = prefix_result.totals
    return {"wall_time_s": wall,
            "events_per_sec": len(prefix_result.events) / wall,
            "fanout_ratio": prefix_result.notes["fanout_sessions_per_stream"],
            "sessions_prefix": float(totals.get("admits", 0)),
            "sessions_whole": float(whole_result.totals.get("admits", 0)),
            "batched_joins": float(totals.get("batched_joins", 0)),
            "io_streams": prefix_result.notes["streams_opened"],
            "prefix_probes_cold_run": probes_cold,
            "prefix_probes_warm_run": probes_warm,
            "probe_ratio": (probes_cold / probes_warm
                            if probes_warm else 0.0)}


def bench_service_churn(preset: str) -> dict[str, float]:
    """Control-plane churn through the ``MediaService`` facade.

    Each cycle opens an off-path replan window (``replan_latency > 0``),
    fires an ``admit_block`` burst into it — every one of those parks
    as a PENDING ticket, the EVENT_FLOW path — advances the calendar
    past the replan-done event (finalizing the whole parked batch
    through one fused ``handle_arrival_block`` pass), fires a much
    larger burst down the synchronous bulk path, tears half the
    admitted sessions down, and nudges the DRAM budget through
    ``reconfigure`` so the next cycle re-solves capacity.  The service
    is API-driven, so its departures retire behind one calendar alarm,
    and the synchronous burst exercises the saturated-tail
    bulk-reject path once capacity fills.  The
    gated ``ops_per_sec`` counts one op per issued ticket plus each
    teardown and reconfigure; ``pending_finalized`` pins that the
    off-path window actually parked work (pinned exactly at ``small``
    by the tier-1 suite).
    """
    from repro.service.config import ControlConfig
    from repro.service.events import EventLog, ReplanCompleted
    from repro.service.facade import MediaService
    from repro.service.scenarios import adaptive_cache
    from repro.units import MB

    scale = _scale(preset)
    cycles = int(scale["churn_cycles"])
    admits = int(scale["churn_admits"])
    sync = int(scale["churn_sync"])
    latency = 5.0
    config = adaptive_cache(seed=3).replace(
        control=ControlConfig(epoch=300.0, metrics_interval=120.0,
                              replan_latency=latency))
    service = MediaService(config)
    sim = service.sim
    log = EventLog()
    service.bus.subscribe(ReplanCompleted, log)
    ops = 0
    live: list[int] = []
    start = _elapsed()
    for cycle in range(cycles):
        service.on_epoch(sim)  # opens the replan window
        # The whole burst lands inside the window: every ticket parks
        # as PENDING, and the replan-done event finalizes them in one
        # fused handle_arrival_block pass.
        ops += len(service.admit_block(count=admits))
        sim.run(until=sim.now + latency + 1.0)  # replan-done finalizes
        tickets = service.admit_block(count=sync)  # synchronous path
        ops += len(tickets)
        live.extend(t.session_id for t in tickets if t.admitted)
        for session_id in live[::2]:
            service.teardown(session_id)
            ops += 1
        live = live[1::2]
        service.reconfigure(dram_budget=(50 * MB) * (1.0 + 1e-6 * cycle))
        ops += 1
    wall = _elapsed() - start
    pending_finalized = sum(e.pending_finalized for e in log.events)
    return {"wall_time_s": wall,
            "ops_per_sec": ops / wall,
            "ops": float(ops),
            "pending_finalized": float(pending_finalized),
            "events_published": float(service.bus.events_published)}


def bench_lint(preset: str) -> dict[str, float]:
    """The whole-program lint engine over the repository's own tree.

    Cold pass first — every file parsed, summaries built, the import
    graph assembled, all rules run — then a warm pass against the same
    cache file with the tree untouched, which must replay entirely
    from cached entries: ``files_parsed_warm`` is pinned at 0 by the
    CI gate, and the committed baseline gates the cold ``wall_time_s``.
    The ``tiny`` preset (``lint_full = 0``) runs the per-file rules
    over the analysis package only; the CI/full presets lint the whole
    ``src`` tree with every rule, graph phase included.

    The imports are lazy and function-local: the analysis layer runs
    its file pass through :func:`repro.perf.parallel.sweep_map`, so a
    module-level import here would be a cycle through the package
    facades.
    """
    import tempfile

    from repro.analysis.config import find_project
    from repro.analysis.engine import run_analysis

    scale = _scale(preset)
    here = Path(__file__).resolve()
    config = find_project([here])
    if config.root is None:  # pragma: no cover - site-packages install
        raise ConfigurationError(
            "bench lint needs the repository checkout (no pyproject.toml "
            f"above {here})")
    if int(scale["lint_full"]):
        targets = [config.src_path()]
        rules = None
    else:
        targets = [here.parent.parent / "analysis"]
        rules = ["no-bare-assert", "exception-hygiene", "unit-literals"]
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "lint-cache.json"
        start = _elapsed()
        cold = run_analysis(targets, rules, config=config,
                            cache_path=cache_path)
        cold_wall = _elapsed() - start
        start = _elapsed()
        warm = run_analysis(targets, rules, config=config,
                            cache_path=cache_path)
        warm_wall = _elapsed() - start
    return {"wall_time_s": cold_wall,
            "warm_wall_s": warm_wall,
            "warm_speedup": cold_wall / warm_wall if warm_wall > 0 else 0.0,
            "files_checked": float(cold.files_checked),
            "files_parsed_cold": float(cold.files_parsed),
            "files_parsed_warm": float(warm.files_parsed),
            "cache_hits_warm": float(warm.cache_hits),
            "findings": float(len(cold.findings))}


#: Workload name -> runner; the order is the report order.
WORKLOADS = {
    "event_loop": bench_event_loop,
    "figure6_sweep": bench_figure6_sweep,
    "batch_sweep": bench_batch_sweep,
    "runtime_scenario": bench_runtime_scenario,
    "million_sessions": bench_million_sessions,
    "planner_cold": bench_planner_cold,
    "planner_warm": bench_planner_warm,
    "admission_storm": bench_admission_storm,
    "replan_epochs": bench_replan_epochs,
    "flash_crowd": bench_flash_crowd,
    "service_churn": bench_service_churn,
    "lint": bench_lint,
}


def _merge_repeat(merged: dict[str, float],
                  metrics: dict[str, float]) -> dict[str, float]:
    """Keep the best value per gated metric across repeats."""
    out = dict(merged)
    for name, value in metrics.items():
        direction = METRIC_DIRECTIONS.get(name)
        if name not in out:
            out[name] = value
        elif direction == "lower":
            out[name] = min(out[name], value)
        elif direction == "higher":
            out[name] = max(out[name], value)
        else:
            out[name] = value
    return out


def run_workloads(names: list[str] | None = None, *, preset: str = "small",
                  repeats: int = 1) -> list[BenchRecord]:
    """Run the selected workloads, best-of-``repeats`` per gated metric."""
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats!r}")
    _scale(preset)  # validate eagerly
    selected = list(WORKLOADS) if names is None else list(names)
    records = []
    for name in selected:
        try:
            runner = WORKLOADS[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown bench workload {name!r}; available: "
                f"{', '.join(WORKLOADS)}") from None
        metrics: dict[str, float] = {}
        for _ in range(repeats):
            metrics = _merge_repeat(metrics, runner(preset))
        records.append(BenchRecord(name=name, preset=preset,
                                   metrics=metrics))
    return records


# -- Persistence -------------------------------------------------------------


def write_records(records: list[BenchRecord],
                  out_dir: str | Path) -> list[Path]:
    """Write each record as ``BENCH_<name>.json`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for record in records:
        path = out / record.filename
        path.write_text(record.to_json() + "\n")
        paths.append(path)
    return paths


def load_records(path: str | Path) -> dict[str, BenchRecord]:
    """Load ``BENCH_*.json`` records from a directory (or one file)."""
    source = Path(path)
    if source.is_dir():
        files = sorted(source.glob("BENCH_*.json"))
        if not files:
            raise ConfigurationError(
                f"no BENCH_*.json files under {source}")
    elif source.is_file():
        files = [source]
    else:
        raise ConfigurationError(f"no such bench baseline: {source}")
    records = {}
    for file in files:
        record = BenchRecord.from_dict(json.loads(file.read_text()))
        records[record.name] = record
    return records


# -- Comparison --------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """One gated metric compared against the baseline."""

    workload: str
    metric: str
    baseline: float
    current: float
    #: Signed regression percentage (positive = worse), direction-aware.
    regression_pct: float

    def describe(self) -> str:
        arrow = "worse" if self.regression_pct > 0 else "better"
        return (f"{self.workload}.{self.metric}: {self.baseline:.6g} -> "
                f"{self.current:.6g} ({abs(self.regression_pct):.1f}% "
                f"{arrow})")


def compare_records(current: dict[str, BenchRecord],
                    baseline: dict[str, BenchRecord],
                    tolerance_pct: float = 10.0
                    ) -> tuple[list[Comparison], list[Comparison]]:
    """Compare gated metrics; returns ``(all comparisons, regressions)``.

    A regression is a gated metric that is worse than the baseline by
    more than ``tolerance_pct`` percent: a lower-is-better metric by
    ``now / then - 1``, a rate by ``then / now - 1`` (so a halved rate
    scores 100% worse, and a rate of zero or below never passes).  Workloads
    present on only one side are ignored — comparisons run on the
    intersection, so a ``--workload`` subset still gates cleanly.
    """
    if tolerance_pct < 0:
        raise ConfigurationError(
            f"tolerance must be >= 0, got {tolerance_pct!r}")
    comparisons: list[Comparison] = []
    for name in current:
        base = baseline.get(name)
        if base is None:
            continue
        for metric, direction in METRIC_DIRECTIONS.items():
            if metric not in current[name].metrics \
                    or metric not in base.metrics:
                continue
            now = current[name].metrics[metric]
            then = base.metrics[metric]
            if not (math.isfinite(now) and math.isfinite(then)) or then <= 0:
                continue
            if direction == "lower":
                regression = 100.0 * (now - then) / then
            else:
                # Mirrors the wall time: a rate at 1/4 of its baseline
                # scores as a run four times as long (300% worse).
                regression = (100.0 * (then / now - 1.0) if now > 0
                              else math.inf)
            comparisons.append(Comparison(
                workload=name, metric=metric, baseline=then, current=now,
                regression_pct=regression))
    regressions = [c for c in comparisons
                   if c.regression_pct > tolerance_pct]
    return comparisons, regressions
