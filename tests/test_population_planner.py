"""Population-argument planner solves and solve-free admission.

``Planner.plan(params, configuration, n)`` solves at ``n`` streams with
``params.n_streams`` ignored, memoized under ``(params.base,
configuration, n, quantise)``.  These tests pin that it answers exactly
what ``plan(params.replace(n_streams=n), ...)`` and the model functions
answer, to the bit, for every configuration kind; that the hot paths
(capacity probes, reject diagnoses, the metrics seal, the placement
winner's solve) build no :class:`SystemParameters`; and that an admit at
or below the capacity threshold runs no planner solve at all while its
``dram_required`` still reads the admission-time demand.
"""

import dataclasses
import math

import pytest

from repro.core.buffer_model import design_mems_buffer
from repro.core.cache_model import CachePolicy, design_mems_cache
from repro.core.parameters import SystemParameters
from repro.core.popularity import BimodalPopularity
from repro.core.theorems import min_buffer_disk_dram
from repro.errors import AdmissionError, CapacityError, ConfigurationError
from repro.planner import Configuration, Planner
from repro.planner.batch import demand_curve
from repro.runtime.placement import AdaptivePlacement
from repro.runtime.runtime import ServerRuntime
from repro.scheduling.admission import AdmissionController
from repro.service.scenarios import build_service_scenario
from repro.units import GB, KB, MB

POPULARITY = BimodalPopularity(10, 90)

#: Populations from empty through fractional to far past saturation.
POPULATIONS = [0, 1, 2, 37.5, 400, 2_400, 10_000, 100_000]

#: (id, configuration, quantise) — every kind, both cache policies, the
#: buffer with and without the Eq. 8 quantisation.
CASES = [
    ("direct", Configuration.direct(), False),
    ("buffer", Configuration.buffer(), False),
    ("buffer-quantised", Configuration.buffer(), True),
    ("buffer-k4", Configuration.buffer(4), False),
    ("cache-striped",
     Configuration.cache(CachePolicy.STRIPED, POPULARITY), False),
    ("cache-replicated",
     Configuration.cache(CachePolicy.REPLICATED, POPULARITY), False),
    ("prefix-striped",
     Configuration.prefix(CachePolicy.STRIPED, 0.4, fanout=3.0), False),
    ("prefix-replicated",
     Configuration.prefix(CachePolicy.REPLICATED, 0.7), False),
    ("hybrid-direct",
     Configuration.hybrid(2, 0, CachePolicy.STRIPED, POPULARITY), False),
    ("hybrid-split",
     Configuration.hybrid(1, 1, CachePolicy.STRIPED, POPULARITY), False),
    ("hybrid-buffer",
     Configuration.hybrid(0, 2, CachePolicy.REPLICATED, POPULARITY), False),
]

#: Kinds the online runtime solves; none may build a parameter set.
RUNTIME_CASES = [case for case in CASES if case[0].startswith(
    ("direct", "buffer", "cache", "prefix")) and case[0] != "buffer-k4"]


def _params(n: float = 1) -> SystemParameters:
    return SystemParameters.table3_default(n_streams=n, bit_rate=100 * KB,
                                           k=2)


def _bits(value):
    """A comparison key that tells every float bit pattern apart."""
    if isinstance(value, float):
        return float.hex(value)
    return value


def _fields(plan) -> dict:
    """Every compared field, floats by bit pattern."""
    return {f.name: _bits(getattr(plan, f.name))
            for f in dataclasses.fields(plan) if f.compare}


@pytest.fixture
def constructions(monkeypatch):
    """Counts :class:`SystemParameters` built while the test runs."""
    built = []
    check = SystemParameters.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(SystemParameters, "__post_init__", counting)
    return built


class TestPopulationArgument:
    @pytest.mark.parametrize("n", POPULATIONS)
    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_matches_a_replaced_parameter_set(self, case, n):
        _, configuration, quantise = case
        params = _params()
        by_argument = Planner().plan(params.base, configuration, n,
                                     quantise=quantise)
        by_params = Planner().plan(params.replace(n_streams=n),
                                   configuration, quantise=quantise)
        assert _fields(by_argument) == _fields(by_params)
        assert by_argument.params == by_params.params
        assert by_argument.params.n_streams == n
        assert by_argument.design == by_params.design
        if not by_params.feasible:
            assert type(by_argument.failure) is type(by_params.failure)
            assert str(by_argument.failure) == str(by_params.failure)

    @pytest.mark.parametrize("n", POPULATIONS)
    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_matches_the_model_functions(self, case, n):
        """An independent oracle per kind: the Theorem 1-4 design
        functions at ``params.replace(n_streams=n)`` (they raise where
        the plan is infeasible), or the vectorized demand curve."""
        _, configuration, quantise = case
        params = _params()
        plan = Planner().plan(params, configuration, n, quantise=quantise)
        at_n = params.replace(n_streams=n)
        if configuration.k is not None and configuration.kind.value in (
                "buffer", "cache"):
            at_n = at_n.replace(k=configuration.k)
        kind = configuration.kind.value
        if kind == "buffer":
            try:
                design = design_mems_buffer(at_n, quantise=quantise)
            except Exception as exc:  # the plan must carry this failure
                assert not plan.feasible
                assert type(plan.failure) is type(exc)
                assert plan.reason == str(exc)
                return
            assert _bits(plan.total_dram) == _bits(design.total_dram)
            assert _bits(plan.per_stream_dram) == _bits(design.s_mems_dram)
            assert _bits(plan.t_disk) == _bits(design.t_disk)
            assert _bits(plan.t_mems) == _bits(design.t_mems)
            assert _bits(plan.cycle_floor) == _bits(design.cycle_floor)
            assert plan.design == design
        elif kind == "cache":
            try:
                design = design_mems_cache(at_n, configuration.policy,
                                           configuration.popularity)
            except Exception as exc:
                assert not plan.feasible
                assert type(plan.failure) is type(exc)
                assert plan.reason == str(exc)
                return
            assert _bits(plan.total_dram) == _bits(design.total_dram)
            assert _bits(plan.hit_rate) == _bits(design.hit_rate)
            assert _bits(plan.capacity_fraction) \
                == _bits(design.cached_fraction)
            assert plan.design == design
        elif kind == "direct":
            try:
                per_stream = min_buffer_disk_dram(at_n)
            except Exception as exc:
                assert not plan.feasible
                assert plan.reason == str(exc)
                return
            assert _bits(plan.total_dram) == _bits(n * per_stream)
        else:
            (curve,) = demand_curve(params, configuration, [n])
            expected = plan.total_dram if plan.feasible else math.inf
            assert _bits(float(curve)) == _bits(expected)

    def test_population_argument_overrides_params(self):
        planner = Planner()
        spec = Configuration.buffer()
        first = planner.plan(_params(99), spec, 5)
        misses = planner.stats()["misses"]
        # One key per (base, configuration, n): whatever population the
        # parameter set carries, the same solve answers.
        assert planner.plan(_params(5), spec) is first
        assert planner.plan(_params(0), spec, 5) is first
        assert planner.stats()["misses"] == misses
        assert first.params == _params(5)

    def test_negative_population_rejected(self):
        with pytest.raises(ConfigurationError):
            Planner().plan(_params(), Configuration.direct(), -1)

    @pytest.mark.parametrize("case", RUNTIME_CASES,
                             ids=[c[0] for c in RUNTIME_CASES])
    def test_probe_builds_no_parameter_set(self, case, constructions):
        _, configuration, quantise = case
        base = _params().base
        planner = Planner()
        constructions.clear()
        for n in POPULATIONS:
            plan = planner.plan(base, configuration, n, quantise=quantise)
            assert plan.feasible or plan.failure is not None
        assert constructions == []

    def test_params_and_design_are_built_on_first_read(self, constructions):
        base = _params().base
        constructions.clear()
        plan = Planner().plan(base, Configuration.buffer(), 400)
        assert constructions == []
        assert plan.design.params is plan.params
        assert len(constructions) == 1
        assert plan.params.n_streams == 400


class TestSolveFreeAdmission:
    @staticmethod
    def _controller(configuration: str = "buffer",
                    budget: float = 500 * MB) -> AdmissionController:
        params = _params().replace(size_disk=200 * GB)
        policy = (CachePolicy.REPLICATED if configuration == "cache"
                  else None)
        return AdmissionController(
            params, budget, configuration=configuration, policy=policy,
            popularity=POPULARITY if configuration == "cache" else None,
            planner=Planner())

    @pytest.mark.parametrize("configuration", ["none", "buffer", "cache"])
    def test_fill_on_a_warm_controller_solves_nothing(self, configuration,
                                                      constructions):
        controller = self._controller(configuration)
        capacity = controller.capacity()
        before = controller.planner.stats()
        constructions.clear()
        assert controller.fill() == capacity
        after = controller.planner.stats()
        # Every admit is judged against the cached threshold; the one
        # rejection past it replays the plan the capacity search probed.
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1
        assert constructions == []

    def test_lazy_dram_reads_the_admission_time_model(self):
        controller = self._controller()
        first = controller.try_admit()
        second = controller.try_admit()
        expected = controller.dram_required(2)
        assert second.dram_required == expected
        at_admission = controller.dram_required(1)
        controller.reconfigure(configuration="none",
                               params=_params(7).replace(k=1))
        assert controller.dram_required(1) != at_admission
        assert first.dram_required == at_admission
        assert second.dram_required == expected
        assert first.admitted and first.n_streams == 1
        assert first.reason is None

    def test_reading_an_admit_asks_the_planner_once(self):
        controller = self._controller()
        controller.capacity()
        decision = controller.try_admit()
        before = controller.planner.stats()
        assert decision.dram_required == decision.dram_required
        after = controller.planner.stats()
        # The cold capacity search probed n=1, so the one read is a hit.
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1

    def test_rejection_reasons_are_the_model_diagnoses(self):
        # A DRAM-bound rejection quotes the budget; a bandwidth-bound
        # one quotes the model's own exception.
        controller = self._controller()
        count = controller.fill()
        decision = controller.try_admit()
        dram = controller.dram_required(count + 1)
        assert decision.reason == (
            f"DRAM requirement {dram:.6g} B exceeds the budget "
            f"{500 * MB:.6g} B")
        assert decision.dram_required == dram
        roomy = self._controller(budget=1e18)
        count = roomy.fill()
        decision = roomy.try_admit()
        with pytest.raises((AdmissionError, CapacityError)) as raised:
            design_mems_buffer(_params(count + 1).replace(size_disk=200 * GB),
                               quantise=False)
        assert decision.reason == str(raised.value)
        assert decision.dram_required is None


class TestHotPathsBuildNoParameterSet:
    def test_capacity_search(self, constructions):
        base = _params().base
        constructions.clear()
        Planner().capacity(base, Configuration.buffer(), 1 * GB)
        Planner(warm_start=False).capacity(
            base, Configuration.cache(CachePolicy.STRIPED, POPULARITY),
            1 * GB)
        assert constructions == []

    def test_placement_winner(self, constructions):
        params = _params().replace(size_disk=200 * GB).base
        placement = AdaptivePlacement(50, planner=Planner())
        for title in range(50):
            for _ in range(title % 7 + 1):
                placement.observe(title)
        constructions.clear()
        decision = placement.replan(params, 42.0, dram_budget=1 * GB)
        assert decision.plan is not None
        assert constructions == []
        assert decision.design.params.n_streams == 42.0

    @pytest.mark.parametrize("name", ["adaptive-cache", "flash_crowd",
                                      "overload"])
    def test_metrics_seal(self, name, constructions):
        config = build_service_scenario(name, seed=3, horizon=600.0)
        runtime = ServerRuntime(config.to_legacy())
        runtime.run()
        constructions.clear()
        runtime.seal_metrics(runtime.sim)
        assert constructions == []
