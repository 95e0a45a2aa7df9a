"""Windowed traffic held equal to a per-arrival reference driver.

A :class:`~repro.service.traffic.TrafficProgram` lets the engine draw
its own arrivals: whole windows of arrivals and departures replay in
vectorized drains at calendar boundaries, and the service publishes
each drained arrival's ticket events in one pass.  The reference below
is the plain per-arrival driver — one calendar event and one
``MediaService.admit()`` per arrival, on an API-driven service whose
departures retire off the session table's heap behind one departure
alarm on the calendar.  The two must agree on:

* the result JSON, byte for byte, with ``events_executed`` zeroed (the
  windowed run puts no session on the calendar, which is its point);
* the full event-bus stream, every field of every event.

The comparison runs over every named scenario at two seeds, the ten
committed end-to-end benchmark configs, randomized workloads, and the
edge shapes a window merge can get wrong (zero holds, equal holds, a
focused crowd mid-run, a drain mid-run), each with synchronous replans
and with a 5 s replan window in which arrivals park PENDING.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cli import main
from repro.runtime.runtime import FocusEvent
from repro.runtime.sessions import SessionSampler
from repro.service import scenarios as service_scenarios
from repro.service.config import PopularityConfig, RuntimeConfig, WorkloadConfig
from repro.service.events import EventLog
from repro.service.facade import MediaService
from repro.service.scenarios import SERVICE_SCENARIOS, build_service_scenario
from repro.service.traffic import TrafficProgram, run_service

E2E_CONFIGS = sorted(
    (Path(__file__).parent.parent / "benchmarks" / "e2e" / "configs")
    .glob("*/*.json"))

LATENCIES = (0.0, 5.0)


def _with_latency(config: RuntimeConfig, latency: float) -> RuntimeConfig:
    return config.replace(control=dataclasses.replace(
        config.control, replan_latency=latency))


def _logged(config: RuntimeConfig) -> tuple[MediaService, EventLog]:
    service = MediaService(config)
    log = EventLog()
    service.bus.subscribe(None, log)
    return service, log


def _per_arrival_run(config: RuntimeConfig, drain_at: float | None = None):
    """The reference: one calendar event and one ``admit()`` per arrival."""
    service, log = _logged(config)
    sim, sampler = service.sim, service.engine.sampler

    def arrive(sim) -> None:
        service.admit()
        sim.after(sampler.next_interarrival(), arrive, "arrival")

    sim.after(sampler.next_interarrival(), arrive, "arrival")
    sim.every(config.control.epoch, service.on_epoch, "epoch")
    sim.every(config.control.metrics_interval, service.engine.seal_metrics,
              "metrics")
    timeline = config.timeline
    for e in sorted(timeline.failures, key=lambda e: e.time):
        sim.at(e.time, lambda sim, e=e: service.inject_failure(sim, e))
    for e in sorted(timeline.drifts, key=lambda e: e.time):
        sim.at(e.time, lambda _, e=e: service.reconfigure(
            popularity_shift=e.shift))
    for e in sorted(timeline.surges, key=lambda e: e.time):
        sim.at(e.time, lambda _, e=e: service.reconfigure(
            rate_factor=e.factor))
    for e in sorted(timeline.focuses, key=lambda e: e.time):
        sim.at(e.time, lambda _, e=e: service.reconfigure(
            focus_title=e.title, focus_weight=e.weight))
    return _play(service, log, drain_at)


def _windowed_run(config: RuntimeConfig, drain_at: float | None = None):
    """The code under test: a traffic program over the same service."""
    service, log = _logged(config)
    TrafficProgram(service).install()
    return _play(service, log, drain_at)


def _play(service: MediaService, log: EventLog, drain_at: float | None):
    sim = service.sim
    if drain_at is not None:
        sim.at(drain_at, lambda _: service.drain(), "drain")
    sim.run(until=service.config.horizon)
    result = service.finalize()
    return (dataclasses.replace(result, events_executed=0).to_json(),
            [event.to_dict() for event in log.events], result)


def _first_mismatch(left: list, right: list) -> str:
    for at, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return f"event {at}: reference {a!r} vs windowed {b!r}"
    return f"lengths {len(left)} (reference) vs {len(right)} (windowed)"


def assert_windowed_matches(config: RuntimeConfig,
                            drain_at: float | None = None):
    """Reference and windowed runs agree; returns the windowed result."""
    ref_json, ref_events, _ = _per_arrival_run(config, drain_at)
    win_json, win_events, result = _windowed_run(config, drain_at)
    if win_json != ref_json:
        at = next((i for i, (a, b) in enumerate(zip(ref_json, win_json))
                   if a != b), min(len(ref_json), len(win_json)))
        pytest.fail(f"result JSON differs at byte {at}: reference "
                    f"...{ref_json[at - 60:at + 60]!r} vs windowed "
                    f"...{win_json[at - 60:at + 60]!r}")
    if win_events != ref_events:
        pytest.fail(_first_mismatch(ref_events, win_events))
    assert ref_events, "the run published nothing"
    return result


class TestNamedScenarios:
    @pytest.mark.parametrize("latency", LATENCIES)
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_scenario(self, name, seed, latency):
        config = build_service_scenario(name, seed=seed, horizon=1_500.0)
        result = assert_windowed_matches(_with_latency(config, latency))
        assert result.totals["arrivals"] > 0


class TestEndToEndConfigs:
    @pytest.mark.parametrize("latency", LATENCIES)
    @pytest.mark.parametrize(
        "path", E2E_CONFIGS, ids=[f"{p.parent.name}/{p.stem}"
                                  for p in E2E_CONFIGS])
    def test_config(self, path, latency):
        config = RuntimeConfig.from_json(path.read_text(encoding="utf-8"))
        # Long enough to cross the first epoch of every config.
        config = config.replace(seed=1, horizon=min(config.horizon, 4_000.0))
        assert_windowed_matches(_with_latency(config, latency))

    def test_the_committed_configs_are_all_here(self):
        assert len(E2E_CONFIGS) == 10


class TestDrainMidRun:
    @pytest.mark.parametrize("latency", LATENCIES)
    @pytest.mark.parametrize("name", ["adaptive-cache", "flash_crowd"])
    def test_drain_rejects_later_arrivals_at_the_service(self, name,
                                                         latency):
        config = _with_latency(
            build_service_scenario(name, seed=3, horizon=2_500.0), latency)
        result = assert_windowed_matches(config, drain_at=1_201.5)
        _, events, _ = _windowed_run(config, drain_at=1_201.5)
        drained = [e for e in events if e.get("reason") == "draining"]
        assert drained, "no arrival reached the drained service"
        # Drained arrivals never reach the engine.
        assert result.totals["arrivals"] == (result.totals["admits"]
                                             + result.totals["rejects"])
        assert all(e["time"] >= 1_201.5 for e in drained)


def _calendar_events(config: RuntimeConfig) -> int:
    """The control timers, timeline events and replan-done events a run
    of ``config`` fires (while its mode stays adaptive)."""
    horizon, control, timeline = config.horizon, config.control, \
        config.timeline
    epochs = int(horizon // control.epoch)
    scheduled = (*timeline.failures, *timeline.drifts, *timeline.surges,
                 *timeline.focuses)
    replans_done = 0
    if control.replan_latency > 0 and config.configuration in ("cache",
                                                               "prefix"):
        replans_done = sum(
            1 for k in range(1, epochs + 1)
            if k * control.epoch + control.replan_latency <= horizon)
    return (epochs + int(horizon // control.metrics_interval)
            + sum(1 for event in scheduled if event.time <= horizon)
            + replans_done)


class TestCalendarEvents:
    """A traffic-driven run puts no session on the calendar: its
    ``events_executed`` is exactly the control timers and timeline
    events it fired."""

    def test_config_command_runs_only_control_events(self, tmp_path,
                                                     capsys):
        path = E2E_CONFIGS[[p.stem for p in E2E_CONFIGS].index(
            "steady-disk")]
        out = tmp_path / "out.json"
        assert main(["runtime", "--config", str(path), "--seed", "1",
                     "--json", str(out)]) == 0
        summary = json.loads(out.read_text(encoding="utf-8"))["summary"]
        config = RuntimeConfig.from_json(path.read_text(encoding="utf-8"))
        # 8 epochs of 3600 s and 50 metrics intervals of 600 s.
        assert summary["events_executed"] == _calendar_events(config) == 58
        assert summary["totals"]["arrivals"] == 8_000

    @pytest.mark.parametrize(
        "path", E2E_CONFIGS, ids=[f"{p.parent.name}/{p.stem}"
                                  for p in E2E_CONFIGS])
    def test_every_e2e_config(self, path):
        config = RuntimeConfig.from_json(
            path.read_text(encoding="utf-8")).replace(horizon=4_000.0)
        result = run_service(config)
        assert result.events_executed == _calendar_events(config)
        assert len(result.events) > result.events_executed


def _random_config(base_name, workload, *, seed, horizon):
    """A named scenario's config with the given workload swapped in."""
    factory = getattr(service_scenarios, base_name)
    return factory(seed=seed, horizon=horizon).replace(workload=workload)


def _popularity(spec):
    if spec == "uniform":
        return PopularityConfig(kind="uniform")
    return PopularityConfig(kind="zipf", alpha=float(spec.split("-", 1)[1]))


workloads = st.builds(
    WorkloadConfig,
    arrival_rate=st.floats(min_value=0.05, max_value=2.0),
    mean_holding=st.floats(min_value=2.0, max_value=400.0),
    n_titles=st.integers(min_value=1, max_value=50),
    popularity=st.sampled_from(
        ["zipf-0.271", "zipf-0.8", "uniform"]).map(_popularity),
)


class TestRandomWorkloads:
    @settings(max_examples=12, deadline=None)
    @given(workload=workloads, seed=st.integers(min_value=0, max_value=999),
           base=st.sampled_from(["steady_disk", "adaptive_cache"]),
           latency=st.sampled_from(LATENCIES))
    def test_random_workloads(self, workload, seed, base, latency):
        config = _random_config(base, workload, seed=seed, horizon=400.0)
        assert_windowed_matches(_with_latency(config, latency))


class TestEdgeShapes:
    @pytest.mark.parametrize("latency", LATENCIES)
    def test_zero_duration_holds(self, monkeypatch, latency):
        # Every session departs at the instant it arrives: each
        # departure must replay inside the drain window that admitted it,
        # exactly where the reference's departure alarm retires it.
        monkeypatch.setattr(SessionSampler, "next_holding",
                            lambda self: 0.0)
        config = _random_config(
            "adaptive_cache",
            WorkloadConfig(arrival_rate=0.8, mean_holding=10.0,
                           n_titles=5, popularity=_popularity("uniform")),
            seed=3, horizon=1_500.0)
        result = assert_windowed_matches(_with_latency(config, latency))
        totals = result.totals
        assert totals["departures"] == totals["admits"] > 0

    @pytest.mark.parametrize("latency", LATENCIES)
    def test_equal_holds(self, monkeypatch, latency):
        # Constant holding times make whole cohorts depart together:
        # the windowed harvest must retire them in (time, admit order)
        # at the same points among arrivals and control timers as the
        # reference's departure alarm.
        monkeypatch.setattr(SessionSampler, "next_holding",
                            lambda self: 60.0)
        config = _random_config(
            "adaptive_cache",
            WorkloadConfig(arrival_rate=1.5, mean_holding=10.0,
                           n_titles=8, popularity=_popularity("zipf-0.8")),
            seed=11, horizon=1_500.0)
        assert_windowed_matches(_with_latency(config, latency))

    @pytest.mark.parametrize("latency", LATENCIES)
    def test_focus_title_mid_run(self, latency):
        base = _random_config(
            "adaptive_cache",
            WorkloadConfig(arrival_rate=1.0, mean_holding=80.0,
                           n_titles=12, popularity=_popularity("zipf-0.8")),
            seed=7, horizon=1_500.0)
        config = base.replace(timeline=dataclasses.replace(
            base.timeline,
            focuses=(FocusEvent(time=300.0, title=2, weight=0.7),
                     FocusEvent(time=900.0, title=2, weight=0.0))))
        result = assert_windowed_matches(_with_latency(config, latency))
        assert result.totals["arrivals"] > 0

