"""Unit tests for the runtime's building blocks.

Covers the pieces added for the online runtime: the empirical
popularity model, adaptive placement, failure recovery planning, live
admission reconfiguration, the periodic engine helper, bank shrinkage,
and the time-varying session workload.
"""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache_model import CachePolicy, cache_capacity_fraction
from repro.core.parameters import SystemParameters
from repro.core.popularity import EmpiricalPopularity, ZipfPopularity
from repro.devices.bank import BankPolicy, MemsBank
from repro.devices.catalog import MEMS_G3
from repro.errors import ConfigurationError, SimulationError
from repro.runtime.failures import plan_recovery
from repro.runtime.placement import AdaptivePlacement
from repro.runtime.sessions import SessionWorkload
from repro.scheduling.admission import AdmissionController
from repro.simulation.engine import Simulator
from repro.units import GB, KB, MB
from repro.workloads.arrivals import erlang_b, predicted_blocking


@pytest.fixture
def params() -> SystemParameters:
    return SystemParameters.table3_default(
        n_streams=1, bit_rate=500 * KB, k=2).replace(size_disk=200 * GB)


class TestEmpiricalPopularity:
    def test_hit_rate_endpoints_and_monotonicity(self):
        pop = EmpiricalPopularity.from_counts([5, 1, 9, 3, 0])
        values = [pop.hit_rate(p) for p in np.linspace(0, 1, 21)]
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_head_concentration(self):
        pop = EmpiricalPopularity.from_counts([90, 5, 3, 2])
        assert pop.hit_rate(0.25) == pytest.approx(0.9)

    def test_zero_counts_degrade_to_uniform(self):
        pop = EmpiricalPopularity.from_counts([0, 0, 0, 0])
        assert pop.hit_rate(0.5) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EmpiricalPopularity.from_counts([])
        with pytest.raises(ConfigurationError):
            EmpiricalPopularity.from_counts([1, -2])
        with pytest.raises(ConfigurationError):
            EmpiricalPopularity(weights=(0.2, 0.8))  # not sorted


class TestAdaptivePlacement:
    def test_caches_the_observed_head(self, params):
        placement = AdaptivePlacement(20)
        for _ in range(50):
            placement.observe(7)
        for _ in range(10):
            placement.observe(3)
        decision = placement.replan(params, 10.0)
        assert decision.cached_titles
        assert 7 in decision.cached_titles
        assert decision.migrations_in == decision.cached_titles

    def test_decay_evicts_stale_titles(self, params):
        placement = AdaptivePlacement(20, decay=0.1)
        for _ in range(50):
            placement.observe(0)
        placement.replan(params, 10.0)
        assert 0 in placement.cached_titles
        for _ in range(3):  # several epochs of silence for title 0
            for _ in range(50):
                placement.observe(11)
            decision = placement.replan(params, 10.0)
        assert 11 in decision.cached_titles
        assert 0 in decision.migrations_out or 0 not in decision.cached_titles

    def test_design_matches_live_population(self, params):
        placement = AdaptivePlacement(
            20, prior_weights=np.full(20, 0.05))
        decision = placement.replan(params, 42.0)
        assert decision.design is not None
        assert decision.design.params.n_streams == 42.0
        assert decision.design.total_dram > 0

    def test_prior_weights_shape_checked(self):
        with pytest.raises(ConfigurationError):
            AdaptivePlacement(5, prior_weights=np.ones(3))

    def test_replan_with_budget_reports_capacity(self, params):
        from repro.planner import Configuration, Planner

        planner = Planner()
        placement = AdaptivePlacement(20, planner=planner)
        for _ in range(30):
            placement.observe(4)
        decision = placement.replan(params, 10.0, dram_budget=1 * GB)
        assert decision.capacity is not None
        assert decision.capacity > 0
        # The reported capacity is the planner's own answer for the
        # chosen configuration — a pure cache hit to re-ask.
        expected = planner.capacity(
            params,
            Configuration.cache(decision.policy, decision.popularity),
            1 * GB)
        assert decision.capacity == expected

    def test_replan_without_budget_leaves_capacity_unset(self, params):
        decision = AdaptivePlacement(20).replan(params, 10.0)
        assert decision.capacity is None

    def test_epoch_replans_warm_the_planner(self, params):
        from repro.planner import Planner

        planner = Planner()
        placement = AdaptivePlacement(20, planner=planner)
        for epoch in range(4):
            for _ in range(10):
                placement.observe((4 + epoch) % 20)
            placement.replan(params, 10.0 + epoch, dram_budget=1 * GB)
        stats = planner.stats()
        assert stats["solves_warm"] > 0


def _ref_weights(counts):
    """The tuple-backed ``EmpiricalPopularity.from_counts`` weights."""
    values = sorted((float(c) for c in counts), reverse=True)
    total = functools.reduce(operator.add, values, 0)
    if total <= 0:
        return (1.0 / len(values),) * len(values)
    return tuple(v / total for v in values)


def _ref_cached(scores, n_cacheable):
    """The per-title Python ranking ``replan`` used to run."""
    ranked = sorted(range(len(scores)), key=lambda t: (-scores[t], t))
    return tuple(sorted(ranked[:n_cacheable]))


#: Per-epoch observation counts: small ints, so ties are the norm.
_epochs = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                       min_size=1, max_size=4))


class TestPlacementBitIdentity:
    """``replan``'s vectorized ranking equals the Python reference."""

    @settings(max_examples=60, deadline=None)
    @given(epochs=_epochs, decay=st.sampled_from([0.0, 0.5, 0.9]),
           signed_prior=st.booleans())
    def test_cached_titles_and_migrations(self, epochs, decay,
                                          signed_prior):
        params = SystemParameters.table3_default(
            n_streams=1, bit_rate=500 * KB, k=2).replace(size_disk=200 * GB)
        n_titles = len(epochs[0])
        # A prior of signed zeros and ties: -0.0 must rank like 0.0.
        prior = np.array([(-0.0 if signed_prior else 0.0) if t % 3
                          else 1.0 for t in range(n_titles)])
        placement = AdaptivePlacement(n_titles, decay=decay,
                                      prior_weights=prior)
        cached: tuple[int, ...] = ()
        for counts in epochs:
            placement.observe_block(np.repeat(np.arange(n_titles), counts))
            scores = placement.scores().tolist()
            decision = placement.replan(params, 5.0)
            fraction = cache_capacity_fraction(
                decision.policy, params.k, params.size_mems,
                params.size_disk)
            expected = _ref_cached(
                scores, int(np.floor(fraction * n_titles + 1e-9)))
            assert decision.cached_titles == expected
            assert decision.migrations_in == tuple(
                sorted(set(expected) - set(cached)))
            assert decision.migrations_out == tuple(
                sorted(set(cached) - set(expected)))
            assert decision.popularity.weights == _ref_weights(scores)
            assert all(type(t) is int for t in decision.cached_titles)
            cached = expected

    def test_ties_rank_by_title_id(self, params):
        placement = AdaptivePlacement(2000)
        placement.observe_block(np.arange(2000))  # every title tied
        decision = placement.replan(params, 5.0)
        n_cached = len(decision.cached_titles)
        assert 0 < n_cached < 2000
        assert decision.cached_titles == tuple(range(n_cached))


class TestPriorBoundary:
    """Bad priors fail when passed in, naming the actual problem."""

    @pytest.mark.parametrize("prior,problem", [
        ([np.nan, 1.0, 1.0, 1.0], "finite"),
        ([np.inf, 1.0, 1.0, 1.0], "finite"),
        ([1.0, -0.5, 1.0, 1.0], ">= 0"),
        ([1.0, 1.0], "shape"),
    ])
    @pytest.mark.parametrize("placement", ["adaptive", "prefix"])
    def test_bad_prior_is_a_configuration_error(self, placement, prior,
                                                problem):
        from repro.vod.placement import PrefixPlacement

        factory = (AdaptivePlacement if placement == "adaptive"
                   else PrefixPlacement)
        with pytest.raises(ConfigurationError, match=problem):
            factory(4, prior_weights=np.array(prior))

    def test_signed_zero_prior_is_accepted(self, params):
        placement = AdaptivePlacement(3, prior_weights=[1.0, -0.0, 0.0])
        assert placement.replan(params, 1.0).popularity.weights[0] == 1.0


class TestRecoveryPlanning:
    def test_healthy_population_survives_device_loss(self, params):
        popularity = ZipfPopularity(alpha=1.0, n_titles=100)
        plan = plan_recovery(params, 50 * MB, 50, popularity, k_active=1)
        assert plan.n_dropped == 0
        assert plan.capacity >= 50
        assert plan.dram_required <= 50 * MB

    def test_bank_loss_falls_back_to_direct_disk(self, params):
        popularity = ZipfPopularity(alpha=1.0, n_titles=100)
        plan = plan_recovery(params, 50 * MB, 10, popularity, k_active=0)
        assert plan.mode == "none"
        assert plan.policy is None

    def test_overload_sheds_to_the_best_rung(self, params):
        popularity = ZipfPopularity(alpha=1.0, n_titles=100)
        plan = plan_recovery(params, 4 * MB, 10_000, popularity, k_active=1)
        assert plan.n_dropped > 0
        assert plan.capacity == 10_000 - plan.n_dropped
        # The chosen rung is the one that saves the most sessions.
        for mode in ("cache", "buffer", "none"):
            alternative = plan_recovery(params, 4 * MB, plan.capacity,
                                        popularity, k_active=1)
            assert alternative.capacity <= plan.capacity or mode != plan.mode

    def test_validation(self, params):
        popularity = ZipfPopularity(alpha=1.0, n_titles=100)
        with pytest.raises(ConfigurationError):
            plan_recovery(params, 1 * MB, -1, popularity, k_active=1)
        with pytest.raises(ConfigurationError):
            plan_recovery(params, 1 * MB, 1, popularity, k_active=1,
                          r_mems_factor=0.0)


class TestAdmissionReconfigure:
    def test_reconfigure_preserves_the_population(self, params):
        controller = AdmissionController(params, 50 * MB,
                                         configuration="buffer")
        for _ in range(20):
            assert controller.try_admit().admitted
        controller.reconfigure(configuration="none")
        assert controller.admitted_streams == 20
        assert controller.configuration == "none"

    def test_reconfigure_changes_the_demand_model(self, params):
        controller = AdmissionController(params, 50 * MB,
                                         configuration="buffer")
        before = controller.dram_required(100)
        controller.reconfigure(configuration="none")
        assert controller.dram_required(100) != before

    def test_capacity_monotone_in_budget(self, params):
        capacities = [
            AdmissionController(params, budget * MB,
                                configuration="buffer").capacity()
            for budget in (5, 20, 80)]
        assert capacities == sorted(capacities)
        assert capacities[0] > 0

    def test_capacity_is_exactly_the_admission_limit(self, params):
        controller = AdmissionController(params, 20 * MB,
                                         configuration="none")
        capacity = controller.capacity()
        assert controller.dram_required(capacity) <= 20 * MB
        assert controller.dram_required(capacity + 1) > 20 * MB

    def test_zero_budget_capacity(self, params):
        controller = AdmissionController(params, 0.0, configuration="none")
        assert controller.capacity() == 0

    def test_cache_reconfigure_requires_policy_and_popularity(self, params):
        controller = AdmissionController(params, 50 * MB,
                                         configuration="none")
        with pytest.raises(ConfigurationError):
            controller.reconfigure(configuration="cache")
        controller.reconfigure(
            configuration="cache", policy=CachePolicy.REPLICATED,
            popularity=ZipfPopularity(alpha=1.0, n_titles=100))
        assert controller.configuration == "cache"


class TestPeriodicEvents:
    def test_every_fires_on_the_grid(self):
        sim = Simulator()
        fired: list[float] = []
        sim.every(10.0, lambda s: fired.append(s.now))
        sim.run(until=35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_every_with_explicit_start(self):
        sim = Simulator()
        fired: list[float] = []
        sim.every(10.0, lambda s: fired.append(s.now), start=5.0)
        sim.run(until=30.0)
        assert fired == [5.0, 15.0, 25.0]

    def test_every_rejects_nonpositive_interval(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda s: None)


class TestBankFailure:
    def test_without_failed_shrinks_the_bank(self):
        bank = MemsBank(MEMS_G3, 4, BankPolicy.ROUND_ROBIN)
        survivor = bank.without_failed(3)
        assert survivor.k == 1
        assert survivor.policy is bank.policy
        assert survivor.aggregate_bandwidth == pytest.approx(
            bank.aggregate_bandwidth / 4)

    def test_losing_the_whole_bank_is_an_error(self):
        bank = MemsBank(MEMS_G3, 2)
        with pytest.raises(ConfigurationError):
            bank.without_failed(2)
        with pytest.raises(ConfigurationError):
            bank.without_failed(-1)


class TestSessionWorkload:
    @pytest.fixture
    def workload(self) -> SessionWorkload:
        return SessionWorkload(arrival_rate=0.1, mean_holding=600.0,
                               n_titles=50,
                               popularity=ZipfPopularity(alpha=1.0,
                                                         n_titles=50))

    def test_offered_load_follows_the_surge(self, workload):
        assert workload.offered_load == pytest.approx(60.0)
        workload.scale_rate(2.0)
        assert workload.offered_load == pytest.approx(120.0)
        with pytest.raises(ConfigurationError):
            workload.scale_rate(0.0)

    def test_rotation_moves_the_head(self, workload):
        head_weight = workload.title_weight(0)
        workload.rotate_popularity(10)
        assert workload.title_weight(10) == pytest.approx(head_weight)
        assert workload.title_weight(0) < head_weight

    def test_sampling_is_deterministic_per_seed(self, workload):
        a = np.random.default_rng(9)
        b = np.random.default_rng(9)
        sequence_a = [workload.next_title(a) for _ in range(50)]
        sequence_b = [workload.next_title(b) for _ in range(50)]
        assert sequence_a == sequence_b

    def test_rotation_shifts_sampled_titles(self, workload):
        before = [workload.next_title(np.random.default_rng(3))
                  for _ in range(1)]
        workload.rotate_popularity(7)
        after = [workload.next_title(np.random.default_rng(3))
                 for _ in range(1)]
        assert after[0] == (before[0] + 7) % 50

    def test_predicted_blocking_wraps_erlang_b(self):
        assert predicted_blocking(0.5, 100.0, 40) == pytest.approx(
            erlang_b(50.0, 40))
