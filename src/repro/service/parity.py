"""The parity harness: two run paths held byte-identical.

For every named scenario the harness runs the same declarative
:class:`~repro.service.config.RuntimeConfig` down two paths and demands
the two :class:`~repro.runtime.runtime.RuntimeResult` JSON payloads be
*byte-identical* — every admission, rejection, migration, drop, gauge
sample and note.  There are two comparisons:

* **engine loop vs facade** (:func:`compare_config`): the
  :func:`~repro.runtime.runtime.run_runtime` loop on the compiled
  config against :class:`~repro.service.facade.MediaService` driven by
  a :class:`~repro.service.traffic.TrafficProgram`.  The executed-event
  count must match too, so anything the facade adds (tickets, the
  event bus, the backpressure governor) is observationally free.
* **objects core vs table core** (:func:`compare_cores`): the engine
  loop on ``session_core="objects"`` (one calendar event per arrival
  and per departure) against ``session_core="table"`` (departures
  harvested in drained windows).  Both keep sessions in the same
  :class:`~repro.runtime.sessions.SessionTable` and differ only in how
  departures are scheduled.  The one sanctioned difference is
  ``events_executed``: collapsing per-session calendar events into a
  few drained windows is the point of the table core, so the raw
  engine event count is left out of the comparison.

Every leg compiles its own engine config with ``to_legacy()``, so no
leg sees the workload state (drift rotation, surge factor, focus) that
another leg's run left behind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.runtime.runtime import RuntimeResult, run_runtime
from repro.service.config import RuntimeConfig
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    build_service_scenario,
)
from repro.service.traffic import run_service


@dataclass(frozen=True)
class ParityReport:
    """The verdict for one configuration: two labelled JSON payloads."""

    name: str
    labels: tuple[str, str]
    left_json: str
    right_json: str

    @property
    def matches(self) -> bool:
        return self.left_json == self.right_json

    def first_divergence(self, context: int = 60) -> str | None:
        """A short excerpt around the first differing byte (or None)."""
        if self.matches:
            return None
        a, b = self.left_json, self.right_json
        n = min(len(a), len(b))
        at = next((i for i in range(n) if a[i] != b[i]), n)
        lo = max(0, at - context)
        left, right = self.labels
        return (f"at byte {at}: {left} ...{a[lo:at + context]!r} vs "
                f"{right} ...{b[lo:at + context]!r}")


def run_both(config: RuntimeConfig) -> tuple[RuntimeResult, RuntimeResult]:
    """One config, both paths: (engine-loop result, facade result)."""
    return run_runtime(config.to_legacy()), run_service(config)


def run_both_cores(config: RuntimeConfig
                   ) -> tuple[RuntimeResult, RuntimeResult]:
    """One config, both session cores: (objects result, table result)."""
    objects = run_runtime(config.replace(session_core="objects").to_legacy())
    table = run_runtime(config.replace(session_core="table").to_legacy())
    return objects, table


def _without_events_executed(result: RuntimeResult) -> str:
    payload = json.loads(result.to_json(indent=None))
    payload["summary"].pop("events_executed", None)
    return json.dumps(payload, sort_keys=True)


def compare_config(name: str, config: RuntimeConfig) -> ParityReport:
    """Engine loop vs facade for ``config``, compared byte for byte."""
    engine, facade = run_both(config)
    return ParityReport(name=name, labels=("engine", "facade"),
                        left_json=engine.to_json(indent=None),
                        right_json=facade.to_json(indent=None))


def compare_cores(name: str, config: RuntimeConfig) -> ParityReport:
    """Object core vs table core for ``config`` (minus the event count)."""
    objects, table = run_both_cores(config)
    return ParityReport(name=name, labels=("objects", "table"),
                        left_json=_without_events_executed(objects),
                        right_json=_without_events_executed(table))


def compare_scenario(name: str, *, seed: int = 0,
                     horizon: float | None = None) -> ParityReport:
    """Engine-vs-facade verdict for one named scenario."""
    config = build_service_scenario(name, seed=seed, horizon=horizon)
    return compare_config(name, config)


def verify_all(*, seed: int = 0,
               horizon: float | None = None) -> dict[str, ParityReport]:
    """Engine-vs-facade verdicts for every named scenario."""
    return {name: compare_scenario(name, seed=seed, horizon=horizon)
            for name in SERVICE_SCENARIOS}


def verify_all_cores(*, seed: int = 0, horizon: float | None = None
                     ) -> dict[str, ParityReport]:
    """Object-vs-table core verdicts for every named scenario."""
    configs = {name: build_service_scenario(name, seed=seed, horizon=horizon)
               for name in SERVICE_SCENARIOS}
    return {name: compare_cores(name, config)
            for name, config in configs.items()}
