"""The parity harness: two run paths held byte-identical.

For every named scenario the harness runs the same declarative
:class:`~repro.service.config.RuntimeConfig` down two paths — the
:func:`~repro.runtime.runtime.run_runtime` loop on the compiled config
and :class:`~repro.service.facade.MediaService` driven by a
:class:`~repro.service.traffic.TrafficProgram` — and demands the two
:class:`~repro.runtime.runtime.RuntimeResult` JSON payloads be
*byte-identical*: every admission, rejection, migration, drop, gauge
sample and note.  Both paths let the engine draw its own arrivals, so
the executed-event count must match too, and anything the facade adds
(tickets, the event bus, the backpressure governor) is observationally
free.  Each leg compiles its own engine config with ``to_legacy()``,
so neither sees the workload state (drift rotation, surge factor,
focus) the other's run left behind.

The windowed replay itself is held against a per-arrival ``admit``
driver, result JSON and bus stream both, by
``tests/test_windowed_traffic.py``.
"""

from __future__ import annotations

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


def compare_config(name: str, config: RuntimeConfig) -> ParityReport:
    """Engine loop vs facade for ``config``, compared byte for byte."""
    engine, facade = run_both(config)
    return ParityReport(name=name, labels=("engine", "facade"),
                        left_json=engine.to_json(indent=None),
                        right_json=facade.to_json(indent=None))


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
