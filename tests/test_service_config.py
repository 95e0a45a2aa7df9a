"""The declarative RuntimeConfig tree: validation, JSON, compilation."""

import copy
import json

import pytest

from repro.core.parameters import SystemParameters
from repro.errors import ConfigurationError
from repro.runtime.failures import FailureKind
from repro.runtime.runtime import run_runtime
from repro.service.backpressure import BackpressureConfig
from repro.service.config import (
    ControlConfig,
    PlacementConfig,
    PopularityConfig,
    RuntimeConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.service.facade import MediaService
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    build_service_scenario,
)
from repro.service.traffic import run_service
from repro.units import KB, MB


def _minimal(**overrides):
    fields = dict(
        configuration="none", dram_budget=50 * MB, horizon=1_000.0,
        system=SystemConfig.from_params(SystemParameters.table3_default(
            n_streams=1, bit_rate=500 * KB, k=1)),
        workload=WorkloadConfig(
            arrival_rate=0.1, mean_holding=600.0, n_titles=50,
            popularity=PopularityConfig(kind="zipf", alpha=1.0)))
    fields.update(overrides)
    return RuntimeConfig(**fields)


def _edit(path, value=None, *, drop=False):
    """A payload edit: set (or delete) the dotted key ``path``."""
    def apply(payload):
        *parents, key = path.split(".")
        node = payload
        for part in parents:
            node = node[part]
        if drop:
            del node[key]
        else:
            node[key] = value
    return apply


#: Malformed payloads (relative to ``_minimal()``, 50 titles) that once
#: escaped as KeyError / TypeError / ValueError or failed only mid-run.
_MALFORMED = {
    "missing-popularity": _edit("workload.popularity", drop=True),
    "missing-arrival-rate": _edit("workload.arrival_rate", drop=True),
    "missing-bit-rate": _edit("system.bit_rate", drop=True),
    "failure-without-time": _edit("timeline.failures",
                                  [{"kind": "device_loss"}]),
    "drift-without-shift": _edit("timeline.drifts", [{"time": 10.0}]),
    "unknown-failure-kind": _edit("timeline.failures",
                                  [{"time": 10.0, "kind": "meteor"}]),
    "string-horizon": _edit("horizon", "10"),
    "null-control": _edit("control", None),
    "scalar-failures": _edit("timeline.failures", 5),
    "string-seed": _edit("seed", "abc"),
    "focus-outside-catalogue": _edit(
        "timeline.focuses", [{"time": 10.0, "title": 50, "weight": 0.5}]),
}


class TestValidation:
    def test_rejects_unknown_configuration(self):
        with pytest.raises(ConfigurationError, match="configuration"):
            _minimal(configuration="turbo")

    def test_rejects_bad_horizon_and_budget(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            _minimal(horizon=0.0)
        with pytest.raises(ConfigurationError, match="dram_budget"):
            _minimal(dram_budget=-1.0)

    def test_rejects_unknown_device(self):
        with pytest.raises(ConfigurationError, match="device"):
            _minimal(device="G9")

    def test_control_bounds(self):
        with pytest.raises(ConfigurationError, match="epoch"):
            ControlConfig(epoch=0.0)
        with pytest.raises(ConfigurationError, match="replan_latency"):
            ControlConfig(replan_latency=-1.0)
        with pytest.raises(ConfigurationError, match="replan_latency"):
            ControlConfig(epoch=100.0, replan_latency=100.0)

    def test_workload_bounds(self):
        with pytest.raises(ConfigurationError, match="arrival_rate"):
            WorkloadConfig(arrival_rate=0.0, mean_holding=1.0, n_titles=5,
                           popularity=PopularityConfig(kind="uniform"))
        with pytest.raises(ConfigurationError, match="n_titles"):
            WorkloadConfig(arrival_rate=1.0, mean_holding=1.0, n_titles=0,
                           popularity=PopularityConfig(kind="uniform"))

    def test_popularity_kind_needs_its_parameters(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            PopularityConfig(kind="zipf")
        with pytest.raises(ConfigurationError, match="bimodal"):
            PopularityConfig(kind="bimodal", x_percent=5.0)
        with pytest.raises(ConfigurationError, match="kind"):
            PopularityConfig(kind="flat")

    def test_placement_bounds(self):
        with pytest.raises(ConfigurationError, match="decay"):
            PlacementConfig(decay=1.0)
        with pytest.raises(ConfigurationError, match="batch_window"):
            PlacementConfig(batch_window=0.0)


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_every_scenario_round_trips_through_json(self, name):
        config = build_service_scenario(name, seed=3, horizon=2_000.0)
        clone = RuntimeConfig.from_json(config.to_json())
        assert clone == config
        assert clone.to_json() == config.to_json()

    def test_rejects_wrong_schema(self):
        payload = _minimal().to_dict()
        payload["schema"] = 99
        with pytest.raises(ConfigurationError, match="schema"):
            RuntimeConfig.from_dict(payload)

    def test_rejects_unknown_keys(self):
        payload = _minimal().to_dict()
        payload["turbo"] = True
        with pytest.raises(ConfigurationError, match="turbo"):
            RuntimeConfig.from_dict(payload)

    @pytest.mark.parametrize("core", ["objects", "table"])
    def test_rejects_the_retired_session_core_key(self, core):
        # The driver, not the config, decides how sessions reach the
        # calendar; an old file that still names a core must say so.
        payload = _minimal().to_dict()
        payload["session_core"] = core
        with pytest.raises(ConfigurationError, match="session_core"):
            RuntimeConfig.from_json(json.dumps(payload))

    def test_rejects_missing_required_keys(self):
        payload = _minimal().to_dict()
        del payload["workload"]
        with pytest.raises(ConfigurationError, match="workload"):
            RuntimeConfig.from_dict(payload)

    @pytest.mark.parametrize("edit", list(_MALFORMED.values()),
                             ids=list(_MALFORMED))
    def test_malformed_payload_is_a_configuration_error(self, edit):
        payload = json.loads(_minimal().to_json())
        edit(payload)
        with pytest.raises(ConfigurationError):
            RuntimeConfig.from_json(json.dumps(payload))

    def test_rejects_non_json_text(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            RuntimeConfig.from_json("{not json")
        with pytest.raises(ConfigurationError, match="object"):
            RuntimeConfig.from_json("[1, 2]")

    def test_timeline_serializes_events(self):
        config = build_service_scenario("device-failure", horizon=2_000.0)
        payload = config.to_dict()["timeline"]
        assert payload["failures"] == [
            {"time": 1_000.0, "kind": "device_loss", "count": 1,
             "factor": 1.0}]
        clone = RuntimeConfig.from_dict(config.to_dict())
        failure = clone.timeline.failures[0]
        assert failure.kind is FailureKind.DEVICE_LOSS

    def test_backpressure_thresholds_ride_along(self):
        config = _minimal(control=ControlConfig(
            backpressure=BackpressureConfig(throttle_enter=0.6,
                                            throttle_exit=0.4,
                                            shed_enter=0.9,
                                            shed_exit=0.8)))
        clone = RuntimeConfig.from_json(config.to_json())
        assert clone.control.backpressure.throttle_enter == pytest.approx(0.6)


class TestCompilation:
    def test_replace_returns_an_updated_copy(self):
        config = _minimal()
        faster = config.replace(horizon=500.0)
        assert faster.horizon == 500.0
        assert config.horizon == 1_000.0


class TestRunsLeaveTheConfigUnchanged:
    @pytest.mark.parametrize(
        "name", ["device-failure", "flash_crowd", "diurnal_drift"])
    def test_no_run_path_mutates_its_config(self, name):
        # Drift, surge and focus events change the compiled workload in
        # place; each run must compile its own, leaving the tree as is.
        config = build_service_scenario(name, seed=3, horizon=1_500.0)
        snapshot = copy.deepcopy(config)
        first = run_service(config).to_json(indent=None)
        assert config == snapshot
        service = MediaService(config)
        service.reconfigure(dram_budget=config.dram_budget / 2,
                            rate_factor=2.0, popularity_shift=7)
        assert config == snapshot
        run_runtime(config.to_legacy())
        assert config == snapshot
        assert run_service(config).to_json(indent=None) == first
