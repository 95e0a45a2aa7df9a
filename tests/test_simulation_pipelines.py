"""Pipeline simulations cross-validate the analytical bounds."""

import pytest

from repro.core.buffer_model import design_mems_buffer
from repro.core.cache_model import CachePolicy, design_mems_cache
from repro.core.parameters import SystemParameters
from repro.core.popularity import BimodalPopularity
from repro.devices.catalog import FUTURE_DISK_2007
from repro.errors import ConfigurationError
from repro.simulation.pipelines import (
    simulate_buffer_pipeline,
    simulate_cache_pipeline,
    simulate_direct_pipeline,
)
from repro.units import KB, MB


@pytest.fixture
def direct_params() -> SystemParameters:
    return SystemParameters.table3_default(n_streams=50, bit_rate=1 * MB,
                                           k=2)


@pytest.fixture
def buffer_design():
    params = SystemParameters.table3_default(n_streams=40, bit_rate=1 * MB,
                                             k=2)
    return design_mems_buffer(params)


class TestDirectPipeline:
    def test_exact_buffers_are_jitter_free(self, direct_params):
        report = simulate_direct_pipeline(direct_params, n_cycles=30)
        assert report.jitter_free
        assert report.resources["disk"].cycle_overruns == 0

    def test_cycle_fully_utilised_at_minimum(self, direct_params):
        # The minimal Theorem 1 cycle has zero slack by construction.
        report = simulate_direct_pipeline(direct_params, n_cycles=10)
        assert report.resources["disk"].worst_cycle_utilization == \
            pytest.approx(1.0, rel=1e-9)

    def test_undersized_buffers_starve(self, direct_params):
        report = simulate_direct_pipeline(direct_params, n_cycles=30,
                                          buffer_scale=0.8)
        assert not report.jitter_free
        assert report.total_underflow_time > 0

    def test_oversized_buffers_still_clean(self, direct_params):
        report = simulate_direct_pipeline(direct_params, n_cycles=30,
                                          buffer_scale=2.0)
        assert report.jitter_free

    def test_peak_level_matches_theorem1(self, direct_params):
        from repro.core.theorems import min_buffer_disk_dram

        report = simulate_direct_pipeline(direct_params, n_cycles=30)
        expected = min_buffer_disk_dram(direct_params)
        assert report.peak_stream_level <= expected * (1 + 1e-9)
        assert report.peak_stream_level >= expected * 0.99

    def test_delivered_bytes_accounted(self, direct_params):
        report = simulate_direct_pipeline(direct_params, n_cycles=30)
        # All 50 streams consume 1 MB/s for nearly the whole horizon.
        expected = 50 * 1 * MB * report.horizon
        assert report.bytes_delivered == pytest.approx(expected, rel=0.1)

    def test_sampled_latencies_cause_bounded_jitter(self, direct_params):
        exact = simulate_direct_pipeline(
            direct_params, n_cycles=40, latency_model="sampled",
            disk=FUTURE_DISK_2007, seed=7)
        padded = simulate_direct_pipeline(
            direct_params, n_cycles=40, latency_model="sampled",
            disk=FUTURE_DISK_2007, seed=7, buffer_scale=2.0)
        # Headroom strictly reduces starvation under stochastic latencies.
        assert padded.total_underflow_time < exact.total_underflow_time \
            or exact.total_underflow_time == 0

    def test_sampled_rates_follow_zones(self, direct_params):
        import numpy as np

        from repro.simulation.pipelines import _disk_cycle_service
        from repro.units import KB, MB

        rng = np.random.default_rng(1)
        latencies, rates = _disk_cycle_service(
            200, direct_params, "sampled", FUTURE_DISK_2007, rng)
        # Zone rates span Table 1's 170-300 MB/s band, never above peak.
        assert rates.min() >= 165 * MB
        # Sector rounding puts the outer zone a hair above the nominal
        # 300 MB/s.
        assert rates.max() <= 301 * MB
        assert rates.max() > rates.min()  # both zone extremes sampled
        assert (latencies > 0).all()

    def test_deterministic_rates_are_peak(self, direct_params):
        from repro.simulation.pipelines import _disk_cycle_service

        latencies, rates = _disk_cycle_service(
            10, direct_params, "deterministic", None, None)
        assert (rates == direct_params.r_disk).all()
        assert (latencies == direct_params.l_disk).all()

    def test_sampled_needs_disk_model(self, direct_params):
        with pytest.raises(ConfigurationError):
            simulate_direct_pipeline(direct_params,
                                     latency_model="sampled")

    def test_unknown_latency_model(self, direct_params):
        with pytest.raises(ConfigurationError):
            simulate_direct_pipeline(direct_params, latency_model="magic")

    def test_parameter_validation(self, direct_params):
        with pytest.raises(ConfigurationError):
            simulate_direct_pipeline(direct_params, n_cycles=0)
        with pytest.raises(ConfigurationError):
            simulate_direct_pipeline(direct_params, buffer_scale=0)


class TestBufferPipeline:
    def test_exact_design_is_jitter_free(self, buffer_design):
        report = simulate_buffer_pipeline(buffer_design, n_hyper_periods=3)
        assert report.jitter_free
        assert report.notes["steady_short_reads"] == 0

    def test_mems_cycles_never_overrun(self, buffer_design):
        report = simulate_buffer_pipeline(buffer_design, n_hyper_periods=3)
        for name, usage in report.resources.items():
            if name.startswith("mems"):
                assert usage.cycle_overruns == 0

    def test_eq7_occupancy_bound_holds(self, buffer_design):
        report = simulate_buffer_pipeline(buffer_design, n_hyper_periods=3)
        params = buffer_design.params
        bound = 2 * params.n_streams * params.bit_rate * buffer_design.t_disk
        assert report.peak_mems_occupancy <= bound * (1 + 1e-9)
        assert report.peak_mems_occupancy <= params.mems_bank_capacity

    def test_all_disk_reads_land(self, buffer_design):
        report = simulate_buffer_pipeline(buffer_design, n_hyper_periods=2)
        assert report.notes["unwritten_reads"] == 0

    def test_undersized_dram_starves(self, buffer_design):
        report = simulate_buffer_pipeline(buffer_design, n_hyper_periods=3,
                                          buffer_scale=0.5)
        assert not report.jitter_free

    def test_warmup_short_reads_only(self, buffer_design):
        report = simulate_buffer_pipeline(buffer_design, n_hyper_periods=3)
        # Short reads may occur while the pipeline fills, never after.
        assert report.notes["short_reads"] >= \
            report.notes["steady_short_reads"]

    def test_validation(self, buffer_design):
        with pytest.raises(ConfigurationError):
            simulate_buffer_pipeline(buffer_design, n_hyper_periods=0)


class TestCachePipeline:
    @pytest.fixture
    def cache_params(self) -> SystemParameters:
        return SystemParameters.table3_default(n_streams=200,
                                               bit_rate=1 * MB, k=2)

    @pytest.mark.parametrize("policy", [CachePolicy.STRIPED,
                                        CachePolicy.REPLICATED])
    def test_exact_design_is_jitter_free(self, cache_params, policy):
        design = design_mems_cache(cache_params, policy,
                                   BimodalPopularity(5, 95))
        report = simulate_cache_pipeline(design, n_cycles=20)
        assert report.jitter_free

    @pytest.mark.parametrize("policy", [CachePolicy.STRIPED,
                                        CachePolicy.REPLICATED])
    def test_undersized_buffers_starve(self, cache_params, policy):
        design = design_mems_cache(cache_params, policy,
                                   BimodalPopularity(5, 95))
        report = simulate_cache_pipeline(design, n_cycles=20,
                                         buffer_scale=0.7)
        assert not report.jitter_free

    def test_stream_split_reported(self, cache_params):
        design = design_mems_cache(cache_params, CachePolicy.STRIPED,
                                   BimodalPopularity(5, 95))
        report = simulate_cache_pipeline(design, n_cycles=10)
        assert report.notes["n_cache_streams"] + \
            report.notes["n_disk_streams"] == 200

    def test_striped_bank_is_one_resource(self, cache_params):
        design = design_mems_cache(cache_params, CachePolicy.STRIPED,
                                   BimodalPopularity(5, 95))
        report = simulate_cache_pipeline(design, n_cycles=10)
        assert "mems_bank" in report.resources

    def test_replicated_devices_are_separate_resources(self, cache_params):
        design = design_mems_cache(cache_params, CachePolicy.REPLICATED,
                                   BimodalPopularity(5, 95))
        report = simulate_cache_pipeline(design, n_cycles=10)
        assert "mems0" in report.resources and "mems1" in report.resources


class TestNearAdmissionLimit:
    """The analytical sizes still execute jitter-free at populations
    near each configuration's admission limit."""

    def test_direct_pipeline(self):
        params = SystemParameters.table3_default(n_streams=250,
                                                 bit_rate=1 * MB, k=2)
        report = simulate_direct_pipeline(params, n_cycles=20)
        assert report.jitter_free
        assert report.resources["disk"].worst_cycle_utilization > 0.8

    def test_buffer_pipeline(self):
        params = SystemParameters.table3_default(n_streams=200,
                                                 bit_rate=1 * MB, k=2)
        report = simulate_buffer_pipeline(design_mems_buffer(params),
                                          n_hyper_periods=2)
        assert report.jitter_free
        assert report.notes["steady_short_reads"] == 0

    def test_replicated_cache_pipeline(self):
        params = SystemParameters.table3_default(n_streams=1_000,
                                                 bit_rate=100 * KB, k=4)
        design = design_mems_cache(params, CachePolicy.REPLICATED,
                                   BimodalPopularity(5, 95))
        assert simulate_cache_pipeline(design, n_cycles=15).jitter_free
