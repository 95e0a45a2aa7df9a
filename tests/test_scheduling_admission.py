"""Admission control against the analytical bounds."""

import pytest

from repro.core.cache_model import CachePolicy
from repro.core.parameters import SystemParameters
from repro.core.popularity import BimodalPopularity
from repro.errors import ConfigurationError
from repro.planner.throughput import streams_supported
from repro.scheduling.admission import AdmissionController
from repro.units import GB, KB, MB


@pytest.fixture
def params() -> SystemParameters:
    return SystemParameters.table3_default(n_streams=1, bit_rate=1 * MB, k=2)


class TestBasicAdmission:
    def test_starts_empty(self, params):
        controller = AdmissionController(params, 1 * GB)
        assert controller.admitted_streams == 0

    def test_admits_first_stream(self, params):
        controller = AdmissionController(params, 1 * GB)
        decision = controller.try_admit()
        assert decision.admitted
        assert decision.n_streams == 1
        assert decision.dram_required is not None

    def test_fill_matches_capacity_solver(self, params):
        controller = AdmissionController(params, 1 * GB)
        filled = controller.fill()
        assert filled == streams_supported(params, 1 * GB)

    def test_rejection_reason_mentions_dram(self):
        tiny = SystemParameters.table3_default(n_streams=1,
                                               bit_rate=100 * KB, k=2)
        controller = AdmissionController(tiny, 10 * 1e6)  # 10 MB only
        controller.fill()
        decision = controller.try_admit()
        assert not decision.admitted
        assert "DRAM" in decision.reason

    def test_bandwidth_rejection(self, params):
        # Huge DRAM: the rejection must come from the device bandwidth.
        controller = AdmissionController(params, 1e15)
        controller.fill()
        decision = controller.try_admit()
        assert not decision.admitted
        assert decision.dram_required is None  # feasibility failure

    def test_release_returns_capacity(self, params):
        controller = AdmissionController(params, 1 * GB)
        filled = controller.fill()
        controller.release(5)
        assert controller.admitted_streams == filled - 5
        assert controller.try_admit().admitted

    def test_release_validation(self, params):
        controller = AdmissionController(params, 1 * GB)
        with pytest.raises(ConfigurationError):
            controller.release(1)


class TestArrivalFastPath:
    def test_readmission_after_release_probes_nothing(self, params):
        from repro.planner import Planner

        planner = Planner()
        controller = AdmissionController(params, 1 * GB, planner=planner)
        controller.fill()
        controller.release(3)
        before = planner.stats()
        for _ in range(3):
            assert controller.try_admit().admitted
        after = planner.stats()
        # Capacity is cached on the controller: the churn above costs
        # zero planner probes and zero additional solves.
        assert after["probes_cold"] == before["probes_cold"]
        assert after["probes_warm"] == before["probes_warm"]
        assert (after["solves_cold"] + after["solves_warm"]
                == before["solves_cold"] + before["solves_warm"])

    def test_reconfigure_invalidates_cached_capacity(self, params):
        controller = AdmissionController(params, 1 * GB)
        small = controller.capacity()
        controller.reconfigure(dram_budget=2 * GB)
        assert controller.capacity() > small

    def test_warm_and_cold_controllers_decide_identically(self, params):
        from repro.planner import Planner

        warm = AdmissionController(params, 1 * GB,
                                   planner=Planner(warm_start=True))
        cold = AdmissionController(params, 1 * GB,
                                   planner=Planner(warm_start=False))
        for controller in (warm, cold):
            controller.reconfigure(dram_budget=1 * GB * (1.0 + 1e-6))
        for _ in range(warm.capacity() + 3):  # run past capacity
            a, b = warm.try_admit(), cold.try_admit()
            assert a.admitted == b.admitted
            assert a.n_streams == b.n_streams
            assert a.reason == b.reason

    def test_rejection_reason_unchanged_by_fast_path(self):
        tiny = SystemParameters.table3_default(n_streams=1,
                                               bit_rate=100 * KB, k=2)
        controller = AdmissionController(tiny, 10 * 1e6)
        controller.fill()
        decision = controller.try_admit()
        assert not decision.admitted
        assert "exceeds the budget" in decision.reason


class TestWarmStartHints:
    """Regression: a kind swap must re-key the warm-start hint.

    ``reconfigure`` used to leave ``_capacity_hint`` holding the *old*
    model's capacity, so the next solve for the new kind was seeded
    with a different demand model's answer.
    """

    def test_kind_change_parks_the_old_hint(self, params):
        controller = AdmissionController(params, 1 * GB)
        plain = controller.capacity()
        assert controller._capacity_hint == plain
        controller.reconfigure(configuration="buffer")
        # The new kind has no parked hint; the old one is parked.
        assert controller._capacity_hint is None
        assert controller._capacity_hints["none"] == plain

    def test_swapping_back_restores_the_parked_hint(self, params):
        controller = AdmissionController(params, 1 * GB)
        plain = controller.capacity()
        controller.reconfigure(configuration="buffer")
        buffered = controller.capacity()
        controller.reconfigure(configuration="none")
        assert controller._capacity_hint == plain
        assert controller._capacity_hints["buffer"] == buffered

    def test_same_kind_reconfigure_keeps_the_hint(self, params):
        controller = AdmissionController(params, 1 * GB)
        plain = controller.capacity()
        controller.reconfigure(dram_budget=1 * GB * (1.0 + 1e-9))
        # A budget nudge is not a kind change: warm start survives.
        assert controller._capacity_hint == plain

    def test_hints_never_change_the_answer(self, params):
        churned = AdmissionController(params, 1 * GB)
        churned.capacity()
        churned.reconfigure(configuration="buffer")
        churned.capacity()
        churned.reconfigure(configuration="none")
        fresh = AdmissionController(params, 1 * GB)
        assert churned.capacity() == fresh.capacity()


class TestConfigurations:
    def test_buffer_admits_more_than_plain_when_dram_bound(self):
        params = SystemParameters.table3_default(n_streams=1,
                                                 bit_rate=100 * KB, k=2)
        plain = AdmissionController(params, 1 * GB).fill()
        buffered = AdmissionController(params, 1 * GB,
                                       configuration="buffer").fill()
        assert buffered > plain

    def test_cache_configuration(self, params):
        controller = AdmissionController(
            params, 1 * GB, configuration="cache",
            policy=CachePolicy.REPLICATED,
            popularity=BimodalPopularity(5, 95))
        assert controller.fill() > 0

    def test_cache_requires_policy(self, params):
        with pytest.raises(ConfigurationError):
            AdmissionController(params, 1 * GB, configuration="cache")

    def test_unknown_configuration(self, params):
        with pytest.raises(ConfigurationError):
            AdmissionController(params, 1 * GB, configuration="magic")

    def test_negative_budget(self, params):
        with pytest.raises(ConfigurationError):
            AdmissionController(params, -1.0)
