"""Hybrid buffer+cache partitioning of the MEMS bank (future work)."""

import pytest

from repro.core.cache_model import CachePolicy
from repro.core.parameters import SystemParameters
from repro.core.popularity import BimodalPopularity
from repro.errors import ConfigurationError
from repro.planner.hybrid import (
    hybrid_split_curve,
    hybrid_streams_supported,
    hybrid_throughput,
    optimize_hybrid_split,
)
from repro.units import GB, KB


@pytest.fixture
def params() -> SystemParameters:
    return SystemParameters.table3_default(n_streams=1, bit_rate=100 * KB,
                                           k=4)


class TestHybridThroughput:
    def test_pure_buffer_split(self, params):
        design = hybrid_throughput(params, k_cache=0,
                                   policy=CachePolicy.REPLICATED,
                                   popularity=BimodalPopularity(5, 95),
                                   dram_budget=2 * GB)
        assert design.hit_rate == 0.0
        assert design.k_buffer == 4
        assert design.max_streams > 0

    def test_pure_cache_split(self, params):
        design = hybrid_throughput(params, k_cache=4,
                                   policy=CachePolicy.STRIPED,
                                   popularity=BimodalPopularity(5, 95),
                                   dram_budget=2 * GB)
        assert design.k_buffer == 0
        assert design.hit_rate > 0

    def test_k_cache_bounds(self, params):
        with pytest.raises(ConfigurationError):
            hybrid_throughput(params, k_cache=5,
                              policy=CachePolicy.STRIPED,
                              popularity=BimodalPopularity(5, 95),
                              dram_budget=1 * GB)

    def test_requires_finite_sizes(self, params):
        with pytest.raises(ConfigurationError):
            hybrid_throughput(params.replace(size_mems=None), k_cache=2,
                              policy=CachePolicy.STRIPED,
                              popularity=BimodalPopularity(5, 95),
                              dram_budget=1 * GB)


class TestOptimizer:
    def test_optimizer_at_least_as_good_as_pure_splits(self, params):
        popularity = BimodalPopularity(5, 95)
        best = optimize_hybrid_split(params, policy=CachePolicy.STRIPED,
                                     popularity=popularity,
                                     dram_budget=2 * GB)
        curve = hybrid_split_curve(params, policy=CachePolicy.STRIPED,
                                   popularity=popularity,
                                   dram_budget=2 * GB)
        assert best.max_streams == pytest.approx(
            max(d.max_streams for d in curve))
        # The future-work split never loses to its pure endpoints.
        assert best.max_streams >= max(curve[0].max_streams,
                                       curve[-1].max_streams) * (1 - 1e-9)

    def test_skewed_popularity_favours_some_cache(self, params):
        best = optimize_hybrid_split(params, policy=CachePolicy.STRIPED,
                                     popularity=BimodalPopularity(1, 99),
                                     dram_budget=2 * GB)
        assert best.k_cache >= 1

    def test_uniform_popularity_favours_pure_buffer(self, params):
        best = optimize_hybrid_split(params, policy=CachePolicy.STRIPED,
                                     popularity=BimodalPopularity(50, 50),
                                     dram_budget=2 * GB)
        # At uniform popularity the cache cannot earn its capacity: the
        # optimizer leans to buffering (allows at most one cache device).
        assert best.k_cache <= 1

    def test_curve_length(self, params):
        curve = hybrid_split_curve(params, policy=CachePolicy.REPLICATED,
                                   popularity=BimodalPopularity(5, 95),
                                   dram_budget=2 * GB)
        assert len(curve) == params.k + 1
        assert [d.k_cache for d in curve] == [0, 1, 2, 3, 4]

    def test_streams_supported_floor(self, params):
        best = optimize_hybrid_split(params, policy=CachePolicy.STRIPED,
                                     popularity=BimodalPopularity(5, 95),
                                     dram_budget=2 * GB)
        assert hybrid_streams_supported(best) == int(best.max_streams + 1e-9)
