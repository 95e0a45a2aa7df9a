"""Inverse solvers: maximum admitted streams per configuration."""

import math

import pytest

from repro.core.cache_model import CachePolicy
from repro.core.buffer_model import design_mems_buffer
from repro.core.cache_model import design_mems_cache
from repro.core.parameters import SystemParameters
from repro.core.popularity import BimodalPopularity
from repro.core.theorems import min_buffer_direct
from repro.errors import ConfigurationError
from repro.planner.throughput import (
    max_streams_with_buffer,
    max_streams_with_cache,
    max_streams_without_mems,
    streams_supported,
)
from repro.units import GB, KB


@pytest.fixture
def table3_one() -> SystemParameters:
    return SystemParameters.table3_default(n_streams=1, bit_rate=100 * KB,
                                           k=2)


class TestWithoutMems:
    def test_matches_forward_model(self, table3_one):
        n = max_streams_without_mems(table3_one, 1 * GB)
        total = n * min_buffer_direct(n, table3_one.bit_rate,
                                      table3_one.r_disk, table3_one.l_disk)
        assert total == pytest.approx(1 * GB, rel=1e-6)

    def test_negative_budget_rejected(self, table3_one):
        with pytest.raises(ConfigurationError):
            max_streams_without_mems(table3_one, -1.0)


class TestWithBuffer:
    def test_inverse_of_design(self, table3_one):
        budget = 500 * 1e6
        n = max_streams_with_buffer(table3_one, budget)
        design = design_mems_buffer(table3_one.replace(n_streams=n),
                                    quantise=False)
        assert design.total_dram == pytest.approx(budget, rel=1e-6)

    def test_buffer_beats_plain_when_dram_bound(self, table3_one):
        budget = 1 * GB
        plain = max_streams_without_mems(table3_one, budget)
        buffered = max_streams_with_buffer(table3_one, budget)
        assert buffered > plain

    def test_bandwidth_ceiling_respected(self, table3_one):
        # Even with infinite DRAM, the doubled MEMS load caps N.
        n = max_streams_with_buffer(table3_one, 1e15)
        bank = table3_one.mems_bank_bandwidth
        assert (n + table3_one.k - 1) * 2 * table3_one.bit_rate <= bank
        assert n * table3_one.bit_rate <= table3_one.r_disk

    def test_zero_budget_zero_streams(self, table3_one):
        assert max_streams_with_buffer(table3_one, 0.0) == 0.0


class TestWithCache:
    def test_monotone_in_budget(self, table3_one):
        popularity = BimodalPopularity(5, 95)
        results = [max_streams_with_cache(table3_one, CachePolicy.STRIPED,
                                          popularity, budget)
                   for budget in (0.5 * GB, 1 * GB, 4 * GB)]
        assert results == sorted(results)

    def test_inverse_of_design(self, table3_one):
        popularity = BimodalPopularity(5, 95)
        budget = 2 * GB
        n = max_streams_with_cache(table3_one, CachePolicy.REPLICATED,
                                   popularity, budget)
        design = design_mems_cache(table3_one.replace(n_streams=n),
                                   CachePolicy.REPLICATED, popularity)
        assert design.total_dram == pytest.approx(budget, rel=1e-6)

    def test_heavier_skew_more_streams(self, table3_one):
        budget = 2 * GB
        heavy = max_streams_with_cache(table3_one, CachePolicy.REPLICATED,
                                       BimodalPopularity(1, 99), budget)
        light = max_streams_with_cache(table3_one, CachePolicy.REPLICATED,
                                       BimodalPopularity(20, 80), budget)
        assert heavy > light


class TestStreamsSupported:
    def test_floor_semantics(self, table3_one):
        n_cont = max_streams_without_mems(table3_one, 1 * GB)
        n_int = streams_supported(table3_one, 1 * GB)
        assert n_int == math.floor(n_cont + 1e-9)

    def test_all_configurations(self, table3_one):
        popularity = BimodalPopularity(5, 95)
        none = streams_supported(table3_one, 1 * GB)
        buffer = streams_supported(table3_one, 1 * GB,
                                   configuration="buffer")
        cache = streams_supported(table3_one, 1 * GB, configuration="cache",
                                  policy=CachePolicy.STRIPED,
                                  popularity=popularity)
        assert none > 0 and buffer > 0 and cache > 0

    def test_cache_requires_policy_and_popularity(self, table3_one):
        with pytest.raises(ConfigurationError):
            streams_supported(table3_one, 1 * GB, configuration="cache")

    def test_unknown_configuration(self, table3_one):
        with pytest.raises(ConfigurationError):
            streams_supported(table3_one, 1 * GB, configuration="magic")
