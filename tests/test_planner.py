"""The unified planning layer: equivalence with the legacy solvers.

The planner is a refactor, not a remodel: for every configuration the
:class:`repro.planner.Planner` must reproduce the legacy entry points
bit-for-bit — the forward designs (`design_mems_buffer`,
`design_mems_cache`, Theorem 1), the continuous inverses
(`max_streams_*`), the integer admission capacity, and the hybrid
split.  The cache tests pin the memoization contract: a hit returns
the identical object, ``params.replace`` is a fresh key, and the LRU
bound evicts oldest-first.
"""

import time

import pytest

from repro.core.buffer_model import design_mems_buffer
from repro.core.cache_model import CachePolicy, design_mems_cache
from repro.core.parameters import SystemParameters
from repro.core.popularity import BimodalPopularity
from repro.core.theorems import min_buffer_disk_dram
from repro.errors import AdmissionError, ConfigurationError
from repro.planner import (
    Configuration,
    ConfigurationKind,
    PlanCache,
    Planner,
    default_planner,
    max_feasible_int,
    max_feasible_real,
)
from repro.planner.hybrid import hybrid_throughput
from repro.planner.throughput import (
    max_streams_with_buffer,
    max_streams_with_cache,
    max_streams_without_mems,
    streams_supported,
)
from repro.scheduling.admission import AdmissionController
from repro.units import GB, KB, MB

#: The equivalence grid: (n_streams, k, bit_rate, dram_budget).
GRID = [
    (50, 1, 100 * KB, 100 * MB),
    (400, 2, 100 * KB, 500 * MB),
    (2_400, 2, 100 * KB, 1 * GB),
    (200, 4, 500 * KB, 2 * GB),
]

POPULARITY = BimodalPopularity(10, 90)


def _params(n, k, bit_rate) -> SystemParameters:
    return SystemParameters.table3_default(n_streams=n, bit_rate=bit_rate,
                                           k=k)


class TestForwardEquivalence:
    @pytest.mark.parametrize("n,k,bit_rate,_budget", GRID)
    def test_direct_matches_theorem1(self, n, k, bit_rate, _budget):
        params = _params(n, k, bit_rate)
        plan = Planner().plan(params, Configuration.direct())
        assert plan.feasible
        assert plan.total_dram == n * min_buffer_disk_dram(params)

    @pytest.mark.parametrize("n,k,bit_rate,_budget", GRID)
    def test_buffer_matches_design(self, n, k, bit_rate, _budget):
        params = _params(n, k, bit_rate)
        plan = Planner().plan(params, Configuration.buffer())
        design = design_mems_buffer(params, quantise=False)
        assert plan.feasible
        assert plan.total_dram == design.total_dram
        assert plan.t_disk == design.t_disk
        assert plan.t_mems == design.t_mems
        assert plan.cycle_floor == design.cycle_floor
        assert plan.design == design

    @pytest.mark.parametrize("n,k,bit_rate,_budget", GRID)
    @pytest.mark.parametrize("policy", list(CachePolicy))
    def test_cache_matches_design(self, n, k, bit_rate, _budget, policy):
        params = _params(n, k, bit_rate)
        plan = Planner().plan(params, Configuration.cache(policy, POPULARITY))
        design = design_mems_cache(params, policy, POPULARITY)
        assert plan.feasible
        assert plan.total_dram == design.total_dram
        assert plan.hit_rate == design.hit_rate
        assert plan.capacity_fraction == design.cached_fraction

    def test_quantised_buffer_matches_design(self):
        params = _params(2_400, 2, 100 * KB)
        plan = Planner().plan(params, Configuration.buffer(), quantise=True)
        design = design_mems_buffer(params, quantise=True)
        assert plan.total_dram == design.total_dram

    def test_infeasible_point_reports_not_raises(self):
        # 100k streams at 100 KB/s saturates the FutureDisk.
        params = _params(100_000, 2, 100 * KB)
        plan = Planner().plan(params, Configuration.buffer())
        assert not plan.feasible
        assert isinstance(plan.failure, AdmissionError)
        assert plan.total_dram == 0.0
        with pytest.raises(AdmissionError):
            plan.require()

    def test_require_returns_self_when_feasible(self):
        params = _params(400, 2, 100 * KB)
        plan = Planner().plan(params, Configuration.buffer())
        assert plan.require() is plan


class TestInverseEquivalence:
    @pytest.mark.parametrize("n,k,bit_rate,budget", GRID)
    def test_direct_matches_wrapper(self, n, k, bit_rate, budget):
        params = _params(n, k, bit_rate)
        assert (Planner().max_streams(params, Configuration.direct(), budget)
                == max_streams_without_mems(params, budget))

    @pytest.mark.parametrize("n,k,bit_rate,budget", GRID)
    def test_buffer_matches_wrapper(self, n, k, bit_rate, budget):
        params = _params(n, k, bit_rate)
        assert (Planner().max_streams(params, Configuration.buffer(), budget)
                == max_streams_with_buffer(params, budget))

    @pytest.mark.parametrize("n,k,bit_rate,budget", GRID)
    def test_cache_matches_wrapper(self, n, k, bit_rate, budget):
        params = _params(n, k, bit_rate)
        policy = CachePolicy.STRIPED
        assert (Planner().max_streams(
            params, Configuration.cache(policy, POPULARITY), budget)
            == max_streams_with_cache(params, policy, POPULARITY, budget))

    def test_inverse_saturates_budget(self):
        # Round-trip property: the forward model at the inverse solution
        # lands on the budget (when DRAM, not bandwidth, binds).
        params = _params(1, 2, 100 * KB)
        budget = 500 * MB
        n = Planner().max_streams(params, Configuration.buffer(), budget)
        design = design_mems_buffer(params.replace(n_streams=n),
                                    quantise=False)
        assert design.total_dram == pytest.approx(budget, rel=1e-6)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Planner().max_streams(_params(1, 2, 100 * KB),
                                  Configuration.buffer(), -1.0)

    def test_streams_supported_floors_planner_result(self):
        params = _params(1, 2, 100 * KB)
        continuous = Planner().max_streams(params, Configuration.buffer(),
                                           500 * MB)
        assert streams_supported(params, 500 * MB,
                                 configuration="buffer") == int(continuous)


class TestCapacityEquivalence:
    @pytest.mark.parametrize("n,k,bit_rate,budget", GRID)
    @pytest.mark.parametrize("configuration", ["none", "buffer", "cache"])
    def test_matches_admission_controller(self, n, k, bit_rate, budget,
                                          configuration):
        params = _params(n, k, bit_rate)
        policy = CachePolicy.REPLICATED if configuration == "cache" else None
        popularity = POPULARITY if configuration == "cache" else None
        controller = AdmissionController(
            params, budget, configuration=configuration, policy=policy,
            popularity=popularity)
        spec = Configuration.from_legacy(configuration, policy=policy,
                                         popularity=popularity)
        assert Planner().capacity(params, spec, budget) \
            == controller.capacity()

    def test_capacity_is_exactly_maximal(self):
        params = _params(1, 2, 100 * KB)
        budget = 200 * MB
        planner = Planner()
        spec = Configuration.buffer()
        cap = planner.capacity(params, spec, budget)
        assert planner.plan(params.replace(n_streams=cap),
                            spec).fits(budget)
        assert not planner.plan(params.replace(n_streams=cap + 1),
                                spec).fits(budget)

    def test_limit_clamps_the_search(self):
        params = _params(1, 2, 100 * KB)
        cap = Planner().capacity(params, Configuration.direct(), 1 * GB,
                                 limit=10)
        assert cap == 10

    def test_zero_budget_zero_capacity(self):
        params = _params(1, 2, 100 * KB)
        assert Planner().capacity(params, Configuration.buffer(), 0.0) == 0


class TestHybridEquivalence:
    @pytest.mark.parametrize("k_cache", [0, 1, 2])
    def test_matches_hybrid_throughput(self, k_cache):
        params = _params(1, 2, 100 * KB)
        budget = 1 * GB
        design = hybrid_throughput(params, k_cache=k_cache,
                                   policy=CachePolicy.STRIPED,
                                   popularity=POPULARITY,
                                   dram_budget=budget)
        spec = Configuration.hybrid(k_cache, params.k - k_cache,
                                    CachePolicy.STRIPED, POPULARITY)
        planner = Planner()
        assert planner.max_streams(params, spec, budget) \
            == design.max_streams
        assert planner.plan(params.replace(n_streams=0),
                            spec).hit_rate == design.hit_rate

    def test_hybrid_needs_finite_sizes(self):
        params = _params(1, 2, 100 * KB).replace(size_mems=None)
        spec = Configuration.hybrid(1, 1, CachePolicy.STRIPED, POPULARITY)
        with pytest.raises(ConfigurationError):
            Planner().plan(params, spec)


class TestPlanCache:
    def test_hit_returns_identical_object(self):
        planner = Planner()
        params = _params(400, 2, 100 * KB)
        first = planner.plan(params, Configuration.buffer())
        second = planner.plan(params, Configuration.buffer())
        assert second is first
        assert planner.stats()["hits"] == 1
        assert planner.stats()["misses"] == 1

    def test_replace_is_a_fresh_key(self):
        planner = Planner()
        params = _params(400, 2, 100 * KB)
        planner.plan(params, Configuration.buffer())
        misses = planner.stats()["misses"]
        planner.plan(params.replace(n_streams=401), Configuration.buffer())
        assert planner.stats()["misses"] == misses + 1

    def test_inverse_solves_share_forward_entries(self):
        planner = Planner()
        params = _params(1, 2, 100 * KB)
        planner.max_streams(params, Configuration.buffer(), 500 * MB)
        cold = planner.stats()
        # A repeat of the same query is one pure hit: no new misses.
        planner.max_streams(params, Configuration.buffer(), 500 * MB)
        warm = planner.stats()
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] == cold["hits"] + 1

    def test_placeholder_n_streams_is_normalised(self):
        # Inverse solves ignore n_streams, and so must their cache keys.
        planner = Planner()
        budget = 500 * MB
        first = planner.max_streams(_params(1, 2, 100 * KB),
                                    Configuration.buffer(), budget)
        hits = planner.stats()["hits"]
        second = planner.max_streams(_params(99, 2, 100 * KB),
                                     Configuration.buffer(), budget)
        assert second == first
        assert planner.stats()["hits"] == hits + 1

    def test_lru_evicts_oldest_first(self):
        cache = PlanCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh "a"
        cache.get_or_compute("c", lambda: 3)  # evicts "b"
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_clear_resets_entries_not_counters(self):
        cache = PlanCache()
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_compute_errors_cache_nothing(self):
        cache = PlanCache()

        def boom():
            raise ValueError("nope")

        with pytest.raises(ValueError):
            cache.get_or_compute("a", boom)
        assert "a" not in cache
        assert cache.stats()["misses"] == 1

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanCache(maxsize=0)

    def test_default_planner_is_shared(self):
        assert default_planner() is default_planner()


class TestConfigurationSpec:
    def test_cache_requires_policy_and_popularity(self):
        with pytest.raises(ConfigurationError):
            Configuration(kind=ConfigurationKind.CACHE)

    def test_hybrid_requires_split(self):
        with pytest.raises(ConfigurationError):
            Configuration(kind=ConfigurationKind.HYBRID,
                          policy=CachePolicy.STRIPED, popularity=POPULARITY)

    def test_hybrid_split_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            Configuration.hybrid(3, -1, CachePolicy.STRIPED, POPULARITY)

    def test_k_cache_forbidden_outside_hybrid(self):
        with pytest.raises(ConfigurationError):
            Configuration(kind=ConfigurationKind.BUFFER, k=2, k_cache=1)

    def test_from_legacy_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            Configuration.from_legacy("turbo")

    def test_specs_are_hashable_and_comparable(self):
        a = Configuration.cache(CachePolicy.STRIPED, POPULARITY, k=2)
        b = Configuration.cache(CachePolicy.STRIPED, POPULARITY, k=2)
        assert a == b and hash(a) == hash(b)
        assert Configuration.direct() != Configuration.buffer()

    def test_describe_mentions_the_split(self):
        spec = Configuration.hybrid(1, 2, CachePolicy.STRIPED, POPULARITY)
        text = spec.describe()
        assert "1" in text and "2" in text


class TestSearchEngine:
    def test_real_search_brackets_the_root(self):
        assert max_feasible_real(lambda x: x <= 123.0) \
            == pytest.approx(123.0, rel=1e-6)

    def test_real_search_rejects_unbounded(self):
        with pytest.raises(ConfigurationError):
            max_feasible_real(lambda x: True)

    def test_int_search_is_exact(self):
        for answer in (0, 1, 7, 100, 1_000):
            found = max_feasible_int(lambda n, a=answer: n <= a)
            assert found == answer

    def test_int_search_honours_limit(self):
        assert max_feasible_int(lambda n: True, limit=37) == 37


def _sweep(planner: Planner) -> float:
    """A representative solve mix: figure-style budget sweeps across
    configurations, plus forward plans over a population grid."""
    params = _params(1, 2, 100 * KB)
    checksum = 0.0
    for budget in (100 * MB, 250 * MB, 500 * MB, 1 * GB, 2 * GB):
        checksum += planner.max_streams(params, Configuration.direct(),
                                        budget)
        checksum += planner.max_streams(params, Configuration.buffer(),
                                        budget)
        for policy in (CachePolicy.STRIPED, CachePolicy.REPLICATED):
            checksum += planner.max_streams(
                params, Configuration.cache(policy, POPULARITY), budget)
        checksum += planner.capacity(params, Configuration.buffer(), budget)
    for n in (100, 400, 1_600, 2_400):
        checksum += planner.plan(params.replace(n_streams=n),
                                 Configuration.buffer()).total_dram
    return checksum


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestWarmSweep:
    """The figure sweeps and the runtime's epoch loop re-ask the same
    questions: only the first asking may pay for the search."""

    def test_warm_cache_at_least_2x_faster(self):
        planner = Planner()
        cold = _timed(lambda: _sweep(planner))
        after_cold = planner.stats()
        assert after_cold["misses"] > 0
        # Best of a few warm repeats, to shrug off scheduler noise.
        warm = min(_timed(lambda: _sweep(planner)) for _ in range(5))
        after_warm = planner.stats()
        assert after_warm["misses"] == after_cold["misses"], \
            "a warm repeat of an identical sweep must be all hits"
        assert after_warm["hits"] > after_cold["hits"]
        assert cold >= 2.0 * warm

    def test_warm_and_cold_agree(self):
        warm_planner = Planner()
        _sweep(warm_planner)
        assert _sweep(Planner()) == pytest.approx(_sweep(warm_planner))

    def test_memoization_without_warm_start(self):
        # warm_start=False pins the memoization contract apart from the
        # hint machinery: an identical repeat adds zero misses.
        planner = Planner(warm_start=False)
        _sweep(planner)
        warmed_misses = planner.stats()["misses"]
        _sweep(planner)
        stats = planner.stats()
        assert stats["misses"] == warmed_misses
        assert stats["hits"] > 0
