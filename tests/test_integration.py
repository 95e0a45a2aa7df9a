"""Cross-module integration: the analytical model against the simulator,
the corollaries against each other, and the paper's design principles
end to end."""


import pytest

from repro.core.buffer_model import design_mems_buffer, mems_cycle_floor
from repro.core.cache_model import (
    CachePolicy,
    design_mems_cache,
    replicated_cache_buffer,
    striped_cache_buffer,
)
from repro.core.parameters import SystemParameters
from repro.core.popularity import BimodalPopularity
from repro.core.theorems import min_buffer_direct
from repro.devices.catalog import FUTURE_DISK_2007, MEMS_G3
from repro.planner.throughput import (
    max_streams_with_buffer,
    max_streams_with_cache,
    max_streams_without_mems,
)
from repro.scheduling.time_cycle import build_buffer_schedule
from repro.simulation.pipelines import (
    simulate_buffer_pipeline,
    simulate_cache_pipeline,
    simulate_direct_pipeline,
)
from repro.units import GB, KB, MB, MS


class TestAnalyticVsSimulation:
    """The bounds of Section 4 are *exactly* tight: the simulator is
    jitter-free at the analytical buffer size and starves below it."""

    @pytest.mark.parametrize("n,bit_rate", [
        (10, 1 * MB), (100, 1 * MB), (25, 10 * MB), (500, 100 * KB),
    ])
    def test_theorem1_tightness(self, n, bit_rate):
        params = SystemParameters.table3_default(n_streams=n,
                                                 bit_rate=bit_rate, k=2)
        exact = simulate_direct_pipeline(params, n_cycles=25)
        assert exact.jitter_free
        shrunk = simulate_direct_pipeline(params, n_cycles=25,
                                          buffer_scale=0.85)
        assert not shrunk.jitter_free

    @pytest.mark.parametrize("n,k", [(20, 1), (40, 2), (45, 3), (60, 4)])
    def test_theorem2_schedule_executes(self, n, k):
        params = SystemParameters.table3_default(n_streams=n,
                                                 bit_rate=1 * MB, k=k)
        design = design_mems_buffer(params)
        report = simulate_buffer_pipeline(design, n_hyper_periods=3)
        assert report.jitter_free
        assert report.notes["steady_short_reads"] == 0
        # Eq. 7 holds empirically.
        assert report.peak_mems_occupancy <= params.mems_bank_capacity

    @pytest.mark.parametrize("policy", [CachePolicy.STRIPED,
                                        CachePolicy.REPLICATED])
    def test_theorem34_schedule_executes(self, policy):
        params = SystemParameters.table3_default(n_streams=300,
                                                 bit_rate=1 * MB, k=3)
        design = design_mems_cache(params, policy, BimodalPopularity(5, 95))
        report = simulate_cache_pipeline(design, n_cycles=20)
        assert report.jitter_free

    def test_cycle_utilization_saturates_at_capacity_limit(self):
        # Fill the server to its admission limit: the simulated disk
        # cycle utilisation approaches 1 (the bound is not slack).
        params = SystemParameters.table3_default(n_streams=280,
                                                 bit_rate=1 * MB, k=2)
        report = simulate_direct_pipeline(params, n_cycles=10)
        assert report.resources["disk"].worst_cycle_utilization > 0.99


class TestCorollaryConsistency:
    def test_striped_equals_replicated_at_k1_everywhere(self):
        for n in (1, 7, 64):
            for rate in (100 * KB, 1 * MB):
                a = striped_cache_buffer(n, rate, 1, 320 * MB, 0.59 * MS)
                b = replicated_cache_buffer(n, rate, 1, 320 * MB, 0.59 * MS)
                assert a == pytest.approx(b)

    def test_theorem1_is_theorem2_with_free_instant_mems(self):
        # With a zero-latency, infinite-rate MEMS layer, the buffered
        # DRAM at the minimal disk cycle degenerates to ~0 and the disk
        # cycle lower bound equals Theorem 1's cycle.
        params = SystemParameters(
            n_streams=50, bit_rate=1 * MB, r_disk=300 * MB,
            r_mems=1e15, l_disk=3 * MS, l_mems=0.0, k=1)
        design = design_mems_buffer(params, quantise=False)
        assert design.s_mems_dram == pytest.approx(0.0, abs=1.0)

    def test_corollary1_matches_striped_k1(self):
        # Streaming straight from one MEMS device (Cor. 1) is the k=1
        # striped cache with no disk population.
        n, rate = 40, 1 * MB
        direct = min_buffer_direct(n, rate, 320 * MB, 0.59 * MS)
        cache = striped_cache_buffer(n, rate, 1, 320 * MB, 0.59 * MS)
        assert direct == pytest.approx(cache)


class TestDesignPrinciples:
    """Section 1's two design principles, verified end to end."""

    def test_principle_one_buffer_low_and_medium_bitrates(self):
        # MEMS buffering pays off for mp3/DivX/DVD-class streams at
        # high utilisation, not for HDTV-class.
        from repro.core.cost import compare_buffer_costs

        gains = {}
        for rate, n in ((10 * KB, 25_000), (100 * KB, 2_500), (1 * MB, 250),
                        (10 * MB, 25)):
            params = SystemParameters.table3_default(n_streams=n,
                                                     bit_rate=rate, k=2)
            gains[rate] = compare_buffer_costs(
                params, pricing="per_byte").percent_reduction
        assert gains[10 * KB] > 50
        assert gains[100 * KB] > 50
        assert gains[10 * MB] < gains[100 * KB]

    def test_principle_two_cache_helps_regardless_of_bitrate(self):
        popularity = BimodalPopularity(1, 99)
        for rate in (10 * KB, 1 * MB):
            params = SystemParameters.table3_default(n_streams=1,
                                                     bit_rate=rate, k=2)
            budget = 4 * GB
            plain = max_streams_without_mems(params, budget + 20 / 20 * GB)
            cached = max_streams_with_cache(params, CachePolicy.REPLICATED,
                                            popularity, budget)
            assert cached > plain

    def test_buffer_requires_double_bandwidth(self):
        # Section 3.1: the MEMS bank must run at twice the disk's
        # streaming throughput; a single G3 device cannot buffer a
        # fully-driven FutureDisk (320 < 2 x 300), which is why the
        # paper uses at least two devices.
        params = SystemParameters.table3_default(
            n_streams=200, bit_rate=1 * MB, k=1, size_mems_unlimited=True)
        with pytest.raises(Exception):
            mems_cycle_floor(params)  # 2*200 MB/s > 320 MB/s
        ok = params.replace(k=2)
        assert mems_cycle_floor(ok) > 0


class TestScheduleAgainstDevices:
    def test_disk_service_fits_measured_latency(self):
        # The schedule budgets l_disk per IO; the physical disk model's
        # elevator latency at matching queue depth is consistent.
        params = SystemParameters.table3_default(n_streams=8,
                                                 bit_rate=1 * MB, k=2)
        assert params.l_disk == pytest.approx(
            FUTURE_DISK_2007.scheduled_latency(8))

    def test_mems_latency_is_device_worst_case(self):
        params = SystemParameters.table3_default(n_streams=8,
                                                 bit_rate=1 * MB, k=2)
        assert params.l_mems == pytest.approx(MEMS_G3.max_access_time())

    def test_buffer_schedule_bytes_match_offered_load(self):
        params = SystemParameters.table3_default(n_streams=30,
                                                 bit_rate=1 * MB, k=2)
        schedule = build_buffer_schedule(design_mems_buffer(params))
        schedule.verify_steady_state()


class TestServerWithPhysicalDisk:
    def test_sampled_server_end_to_end(self):
        # The full operator path: physical disk model, admission fill,
        # stochastic simulation with a prefill-friendly population.
        from repro.simulation.server import ServerConfig, StreamingServer

        params = SystemParameters.table3_default(n_streams=1,
                                                 bit_rate=1 * MB, k=2)
        server = StreamingServer(ServerConfig(
            params=params, dram_budget=500e6, disk=FUTURE_DISK_2007))
        n = server.fill()
        assert n > 0
        exact = server.simulate(n_cycles=10)
        assert exact.jitter_free
        sampled = server.simulate(n_cycles=10, latency_model="sampled",
                                  seed=5)
        # Stochastic latencies may jitter at the exact sizes, but the
        # schedule keeps delivering the overwhelming share of bytes.
        assert sampled.bytes_delivered > 0.95 * exact.bytes_delivered

    def test_mems_latency_conservatism_pays_off(self):
        # Charging the worst-case MEMS latency (the paper's choice)
        # means the simulated MEMS cycles always have slack when real
        # accesses average less.
        params = SystemParameters.table3_default(n_streams=100,
                                                 bit_rate=1 * MB, k=2)
        design = design_mems_buffer(params)
        report = simulate_buffer_pipeline(design, n_hyper_periods=2)
        worst = max(u.worst_cycle_utilization
                    for name, u in report.resources.items()
                    if name.startswith("mems"))
        assert worst <= 1.0 + 1e-9


class TestCapacityOrdering:
    def test_throughput_ordering_when_dram_bound(self):
        # With scarce DRAM and skewed popularity, the paper's ordering:
        # plain < buffered, plain < cached.
        params = SystemParameters.table3_default(n_streams=1,
                                                 bit_rate=100 * KB, k=2)
        budget = 1 * GB
        plain = max_streams_without_mems(params, budget)
        buffered = max_streams_with_buffer(params, budget)
        cached = max_streams_with_cache(params, CachePolicy.REPLICATED,
                                        BimodalPopularity(1, 99), budget)
        assert buffered > plain
        assert cached > plain
