"""Traffic programs: a scenario's stochastic load as API calls.

The legacy :meth:`~repro.runtime.runtime.ServerRuntime.run` loop bakes
the traffic into the engine — Poisson arrivals, epoch and metrics
timers, and the scheduled timeline all live in one method.
:class:`TrafficProgram` lifts exactly that schedule out and drives it
through the :class:`~repro.service.facade.MediaService` API instead:
arrivals become :meth:`~repro.service.facade.MediaService.admit`,
epochs become :meth:`~repro.service.facade.MediaService.on_epoch`,
surges/drifts/focuses become
:meth:`~repro.service.facade.MediaService.reconfigure`, and failures
become :meth:`~repro.service.facade.MediaService.inject_failure`.

Parity is load-bearing here: the program schedules the same callbacks
in the same order with the same labels and draws the seeded RNG in the
same sequence (interarrival, then title, then holding-if-admitted) as
the legacy loop, so with the default synchronous replans the run's
JSON output is byte-identical — :mod:`repro.service.parity` holds it
there.  Arrivals always come through the calendar here, one
``admit`` each, on either session core; the core decides only whether
each admitted session's departure is a calendar event ("objects") or
is harvested at the next facade call or control timer ("table").  A cluster dispatcher later swaps this program for real demand
without touching the engine.
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

    # -- Schedule pieces (one per legacy run-loop line) ----------------------

    def _schedule_arrival(self, sim) -> None:
        delay = self.service.engine.sampler.next_interarrival()
        sim.after(delay, self._on_arrival, "arrival")

    def _on_arrival(self, sim) -> None:
        self.service.admit()
        self._schedule_arrival(sim)

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
        """Put the whole scenario on the calendar (legacy order exactly)."""
        service = self.service
        sim = service.sim
        config = service.config
        timeline = config.timeline
        self._schedule_arrival(sim)
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
