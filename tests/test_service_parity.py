"""Parity harness: the service facade is byte-identical to the engine loop.

Driving every named scenario through ``MediaService`` +
``TrafficProgram`` (built from the declarative :class:`RuntimeConfig`)
produces the *same JSON document* as the ``run_runtime`` engine loop
on the compiled config — same admissions, same rejections, same
metrics, same seq numbers.  Horizons are trimmed for test-suite speed;
the CLI smoke step in CI re-proves one scenario at a longer horizon.
The object-vs-table session-core comparison of the same harness is
exercised in ``tests/test_session_table.py``.
"""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.runtime import run_runtime
from repro.service.config import ControlConfig
from repro.service.parity import (
    ParityReport,
    compare_scenario,
    verify_all,
)
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    build_service_scenario,
)
from repro.service.traffic import run_service

#: Per-scenario horizons: long enough to cross epochs, failures, and
#: every timeline event, short enough for the suite.
_HORIZONS = {
    "steady-disk": 2_500.0,
    "adaptive-cache": 4_000.0,
    "device-failure": 2_500.0,
    "degraded-bandwidth": 2_500.0,
    "flash-crowd": 2_500.0,
    "overload": 1_500.0,
    "flash_crowd": 2_500.0,
    "diurnal_drift": 3_000.0,
    "long_tail": 2_500.0,
}


class TestParity:
    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_scenario_is_byte_identical(self, name):
        report = compare_scenario(name, seed=0, horizon=_HORIZONS[name])
        assert report.matches, report.first_divergence()

    def test_parity_survives_a_different_seed(self):
        report = compare_scenario("adaptive-cache", seed=11,
                                  horizon=3_000.0)
        assert report.matches, report.first_divergence()

    def test_verify_all_covers_every_scenario(self):
        reports = verify_all(seed=0, horizon=1_200.0)
        assert sorted(reports) == sorted(SERVICE_SCENARIOS)
        assert all(r.matches for r in reports.values())

    def test_report_pinpoints_a_divergence(self):
        # Same scenario, different seeds: a real divergence the report
        # must localize rather than just flag.
        base = build_service_scenario("steady-disk", horizon=1_500.0)
        report = ParityReport(
            name="steady-disk", labels=("engine", "facade"),
            left_json=run_runtime(base.to_legacy()).to_json(indent=None),
            right_json=run_service(base.replace(seed=9)).to_json(indent=None))
        assert not report.matches
        divergence = report.first_divergence()
        assert "at byte" in divergence
        assert "engine" in divergence and "facade" in divergence

    def test_timeline_events_fire_identically(self):
        # The scenario whose timeline carries every event family.
        report = compare_scenario("flash_crowd", seed=0, horizon=4_000.0)
        assert report.matches, report.first_divergence()


class TestEventFlowEquivalence:
    def test_replan_latency_changes_the_path_not_the_plans(self):
        # With a replan window the service parks admits, so the RNG
        # schedule differs from legacy — but the run still completes
        # and serves comparable traffic under the same plans.
        config = build_service_scenario(
            "adaptive-cache", horizon=4_000.0)
        windowed = config.replace(control=ControlConfig(
            epoch=config.control.epoch,
            metrics_interval=config.control.metrics_interval,
            replan_latency=10.0))
        result = run_service(windowed)
        baseline = run_service(config)
        totals = result.totals
        assert totals.get("arrivals", 0) > 0
        assert totals.get("admits", 0) > 0
        ratio = (totals.get("admits", 0)
                 / max(1, baseline.totals.get("admits", 0)))
        assert 0.5 < ratio < 1.5


class TestScenarioValidation:
    def test_unknown_scenario_lists_the_catalog(self):
        with pytest.raises(ConfigurationError, match="steady-disk"):
            build_service_scenario("no-such-thing")

    def test_bad_horizon_is_rejected(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            build_service_scenario("steady-disk", horizon=0.0)
