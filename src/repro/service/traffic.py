"""Traffic programs: a scenario's stochastic load driving the service.

The engine's :meth:`~repro.runtime.runtime.ServerRuntime.run` loop
bakes the traffic into the engine — Poisson arrivals, epoch and
metrics timers, and the scheduled timeline all live in one method.
:class:`TrafficProgram` lifts exactly that schedule out and drives it
through the :class:`~repro.service.facade.MediaService` instead:
epochs become :meth:`~repro.service.facade.MediaService.on_epoch`,
surges/drifts/focuses become
:meth:`~repro.service.facade.MediaService.reconfigure`, and failures
become :meth:`~repro.service.facade.MediaService.inject_failure`.
Arrivals are not ``admit`` calls: the program makes the service
:meth:`~repro.service.facade.MediaService.self_drive`, so the engine
draws its own Poisson chain and replays whole windows of arrivals and
departures at calendar boundaries, and the service publishes each
drained arrival's tickets and bus events as ``admit`` would have.  No
session puts an event on the calendar.

Parity is load-bearing here: the program schedules the same callbacks
in the same order with the same labels as the run loop, and every path
draws the purpose-split RNG streams identically, so with the default
synchronous replans the run's JSON output is byte-identical —
:mod:`repro.service.parity` holds it there — and the bus stream equals
a per-arrival ``admit`` driver's (``tests/test_windowed_traffic.py``).
A cluster dispatcher later swaps this program for real demand without
touching the engine.
"""

from __future__ import annotations

from repro.runtime.failures import FailureEvent
from repro.runtime.runtime import DriftEvent, FocusEvent, RuntimeResult, SurgeEvent
from repro.service.config import RuntimeConfig
from repro.service.events import EventBus
from repro.service.facade import MediaService


class TrafficProgram:
    """Replays one scenario's load against a :class:`MediaService`."""

    def __init__(self, service: MediaService) -> None:
        self.service = service

    # -- Schedule pieces (one per run-loop line) -----------------------------

    def _make_failure(self, event: FailureEvent):
        def fail(sim) -> None:
            self.service.inject_failure(sim, event)

        return fail

    def _make_drift(self, event: DriftEvent):
        def drift(sim) -> None:
            self.service.reconfigure(popularity_shift=event.shift)

        return drift

    def _make_surge(self, event: SurgeEvent):
        def surge(sim) -> None:
            self.service.reconfigure(rate_factor=event.factor)

        return surge

    def _make_focus(self, event: FocusEvent):
        def focus(sim) -> None:
            self.service.reconfigure(focus_title=event.title,
                                     focus_weight=event.weight)

        return focus

    # -- Program -------------------------------------------------------------

    def install(self) -> None:
        """Put the whole scenario on the calendar (run-loop order exactly)."""
        service = self.service
        sim = service.sim
        config = service.config
        timeline = config.timeline
        service.self_drive()
        sim.every(config.control.epoch, service.on_epoch, "epoch")
        sim.every(config.control.metrics_interval,
                  service.engine.seal_metrics, "metrics")
        for failure in sorted(timeline.failures, key=lambda e: e.time):
            sim.at(failure.time, self._make_failure(failure), "failure")
        for drift in sorted(timeline.drifts, key=lambda e: e.time):
            sim.at(drift.time, self._make_drift(drift), "drift")
        for surge in sorted(timeline.surges, key=lambda e: e.time):
            sim.at(surge.time, self._make_surge(surge), "surge")
        for focus in sorted(timeline.focuses, key=lambda e: e.time):
            sim.at(focus.time, self._make_focus(focus), "focus")

    def run(self) -> RuntimeResult:
        """Install, play to the horizon, and seal the result."""
        self.install()
        self.service.sim.run(until=self.service.config.horizon)
        return self.service.finalize()


def run_service(config: RuntimeConfig, *,
                bus: EventBus | None = None) -> RuntimeResult:
    """Build a service from ``config`` and drive it to the horizon."""
    return TrafficProgram(MediaService(config, bus=bus)).run()
