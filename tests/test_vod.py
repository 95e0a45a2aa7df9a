"""Unit tests for the VoD prefix-caching subsystem (`repro.vod`)."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache_model import CachePolicy, cache_buffer
from repro.core.parameters import SystemParameters
from repro.core.theorems import min_buffer_direct
from repro.errors import ConfigurationError
from repro.planner.configuration import Configuration, ConfigurationKind
from repro.planner.solver import Planner
from repro.scheduling.admission import AdmissionController
from repro.units import GB, KB, MB
from repro.vod import (
    AdaptiveReplacement,
    MulticastBatcher,
    PrefixAllocation,
    PrefixPlacement,
    base_prefix_bytes,
    prefix_seconds,
)


def _params(**overrides):
    params = SystemParameters.table3_default(n_streams=1, bit_rate=500 * KB,
                                             k=2)
    return params.replace(**overrides) if overrides else params


class TestPrefixSizing:
    def test_covers_startup_with_safety(self):
        params = _params()
        seconds = prefix_seconds(params, population=50.0, safety=2.0,
                                 floor=0.0)
        assert seconds > 0.0

    def test_monotone_in_population(self):
        params = _params()
        values = [prefix_seconds(params, population=n, floor=0.0)
                  for n in (1.0, 50.0, 100.0, 200.0)]
        assert values == sorted(values)

    def test_population_is_clamped_at_half_disk_bandwidth(self):
        params = _params()
        cap = 0.5 * params.r_disk / params.bit_rate
        at_cap = prefix_seconds(params, population=cap, floor=0.0)
        beyond = prefix_seconds(params, population=10.0 * cap, floor=0.0)
        assert beyond == pytest.approx(at_cap)

    def test_floor_applies(self):
        params = _params()
        assert prefix_seconds(params, population=1.0, floor=30.0) >= 30.0

    def test_bytes_is_bitrate_times_seconds(self):
        params = _params()
        seconds = prefix_seconds(params, population=40.0)
        assert base_prefix_bytes(params, population=40.0) == pytest.approx(
            params.bit_rate * seconds)

    def test_validation(self):
        params = _params()
        with pytest.raises(ConfigurationError):
            prefix_seconds(params, population=-1.0)
        with pytest.raises(ConfigurationError):
            prefix_seconds(params, population=1.0, safety=0.0)
        with pytest.raises(ConfigurationError):
            prefix_seconds(params, population=1.0, floor=-1.0)


class TestPrefixAllocation:
    def test_basic_accounting(self):
        alloc = PrefixAllocation(prefix_bytes=(60 * MB, 0.0, 30 * MB),
                                 title_bytes=2 * GB)
        assert alloc.n_titles == 3
        assert alloc.resident_titles == (0, 2)
        assert alloc.total_bytes == pytest.approx(90 * MB)
        assert alloc.byte_fraction(1) == pytest.approx(0.0)
        assert alloc.byte_fraction(0) == pytest.approx(60 * MB / (2 * GB))

    def test_window_seconds(self):
        alloc = PrefixAllocation(prefix_bytes=(60 * MB, 0.0),
                                 title_bytes=2 * GB)
        assert alloc.window_seconds(0, 500 * KB) == pytest.approx(120.0)
        assert alloc.window_seconds(1, 500 * KB) == pytest.approx(0.0)
        with pytest.raises(ConfigurationError):
            alloc.window_seconds(0, 0.0)

    def test_mems_fraction_expected_share(self):
        alloc = PrefixAllocation(prefix_bytes=(1 * GB, 0.0),
                                 title_bytes=2 * GB)
        # 80% of traffic hits the half-resident title: h = 0.8 * 0.5.
        assert alloc.mems_fraction([0.8, 0.2]) == pytest.approx(0.4)

    def test_mems_fraction_validation(self):
        alloc = PrefixAllocation(prefix_bytes=(1 * GB,), title_bytes=2 * GB)
        with pytest.raises(ConfigurationError):
            alloc.mems_fraction([0.5, 0.5])  # wrong length
        with pytest.raises(ConfigurationError):
            alloc.mems_fraction([-1.0])
        with pytest.raises(ConfigurationError):
            alloc.mems_fraction([0.5])  # does not sum to 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PrefixAllocation(prefix_bytes=(), title_bytes=1 * GB)
        with pytest.raises(ConfigurationError):
            PrefixAllocation(prefix_bytes=(1.0,), title_bytes=0.0)
        with pytest.raises(ConfigurationError):
            PrefixAllocation(prefix_bytes=(3 * GB,), title_bytes=2 * GB)


class TestAdaptiveReplacement:
    def test_greedy_down_the_ranking(self):
        policy = AdaptiveReplacement(hysteresis=0.0)
        alloc = policy.rebalance([5.0, 1.0, 3.0], base_bytes=10 * MB,
                                 max_bytes=60 * MB, budget_bytes=150 * MB,
                                 title_bytes=1 * GB)
        # Titles 0 and 2 get full prefixes; title 1 the 30 MB residue.
        assert alloc.prefix_bytes[0] == pytest.approx(60 * MB)
        assert alloc.prefix_bytes[2] == pytest.approx(60 * MB)
        assert alloc.prefix_bytes[1] == pytest.approx(30 * MB)

    def test_residue_below_base_stays_unspent(self):
        policy = AdaptiveReplacement(hysteresis=0.0)
        alloc = policy.rebalance([5.0, 1.0], base_bytes=10 * MB,
                                 max_bytes=60 * MB, budget_bytes=65 * MB,
                                 title_bytes=1 * GB)
        # 5 MB left after title 0 — below base, so title 1 gets nothing.
        assert alloc.resident_titles == (0,)
        assert alloc.total_bytes == pytest.approx(60 * MB)

    def test_hysteresis_keeps_resident_on_near_tie(self):
        policy = AdaptiveReplacement(hysteresis=0.2)
        # Title 1 is resident; title 0's score edges ahead but not past
        # the 20% bonus, so residency sticks.
        alloc = policy.rebalance([1.1, 1.0], base_bytes=10 * MB,
                                 max_bytes=60 * MB, budget_bytes=60 * MB,
                                 title_bytes=1 * GB, resident=(1,))
        assert alloc.resident_titles == (1,)

    def test_big_swing_beats_hysteresis(self):
        policy = AdaptiveReplacement(hysteresis=0.2)
        alloc = policy.rebalance([2.0, 1.0], base_bytes=10 * MB,
                                 max_bytes=60 * MB, budget_bytes=60 * MB,
                                 title_bytes=1 * GB, resident=(1,))
        assert alloc.resident_titles == (0,)

    def test_deterministic_tie_break_by_id(self):
        policy = AdaptiveReplacement(hysteresis=0.0)
        alloc = policy.rebalance([1.0, 1.0, 1.0], base_bytes=10 * MB,
                                 max_bytes=60 * MB, budget_bytes=60 * MB,
                                 title_bytes=1 * GB)
        assert alloc.resident_titles == (0,)

    def test_validation(self):
        policy = AdaptiveReplacement()
        with pytest.raises(ConfigurationError):
            AdaptiveReplacement(hysteresis=-0.1)
        with pytest.raises(ConfigurationError):
            policy.rebalance([], base_bytes=1.0, max_bytes=2.0,
                             budget_bytes=1.0, title_bytes=1 * GB)
        with pytest.raises(ConfigurationError):
            policy.rebalance([-1.0], base_bytes=1.0, max_bytes=2.0,
                             budget_bytes=1.0, title_bytes=1 * GB)
        with pytest.raises(ConfigurationError):
            policy.rebalance([1.0], base_bytes=0.0, max_bytes=2.0,
                             budget_bytes=1.0, title_bytes=1 * GB)
        with pytest.raises(ConfigurationError):
            policy.rebalance([1.0], base_bytes=3.0, max_bytes=2.0,
                             budget_bytes=1.0, title_bytes=1 * GB)
        with pytest.raises(ConfigurationError):
            policy.rebalance([1.0], base_bytes=1.0, max_bytes=2.0,
                             budget_bytes=-1.0, title_bytes=1 * GB)


class TestMulticastBatcher:
    def test_open_join_leave_lifecycle(self):
        batcher = MulticastBatcher()
        stream = batcher.open(7, 0.0, 120.0, session_id=1)
        assert batcher.active_streams == 1
        assert batcher.active_sessions == 1
        assert batcher.has_stream(stream.stream_id)
        batcher.join(stream, 2)
        assert batcher.active_sessions == 2
        assert not batcher.leave(stream.stream_id, 1)
        assert batcher.leave(stream.stream_id, 2)  # last rider closes
        assert batcher.active_streams == 0
        assert batcher.fanout == pytest.approx(2.0)

    def test_joinable_respects_window(self):
        batcher = MulticastBatcher()
        stream = batcher.open(7, 0.0, 120.0, session_id=1)
        assert batcher.joinable(7, 100.0) is stream
        assert batcher.joinable(7, 120.5) is None  # window lapsed
        assert batcher.joinable(8, 10.0) is None   # other title

    def test_stale_pointer_cleared_after_close(self):
        batcher = MulticastBatcher()
        stream = batcher.open(7, 0.0, 120.0, session_id=1)
        batcher.leave(stream.stream_id, 1)
        assert batcher.joinable(7, 10.0) is None

    def test_newest_stream_per_title_wins(self):
        batcher = MulticastBatcher()
        batcher.open(7, 0.0, 10.0, session_id=1)
        newer = batcher.open(7, 50.0, 120.0, session_id=2)
        assert batcher.joinable(7, 60.0) is newer

    def test_drop_newest_and_dissolve(self):
        batcher = MulticastBatcher()
        first = batcher.open(1, 0.0, 60.0, session_id=1)
        second = batcher.open(2, 1.0, 60.0, session_id=2)
        third = batcher.open(3, 2.0, 60.0, session_id=3)
        victims = batcher.drop_newest(2)
        assert [s.stream_id for s in victims] == [third.stream_id,
                                                  second.stream_id]
        assert victims[0].session_ids == [3]  # members intact for sheds
        assert batcher.active_streams == 1
        assert batcher.dissolve()[0].stream_id == first.stream_id
        assert batcher.active_streams == 0
        # Cumulative totals survive closure.
        assert batcher.streams_total == 3
        assert batcher.sessions_total == 3

    def test_errors(self):
        batcher = MulticastBatcher()
        stream = batcher.open(7, 0.0, 120.0, session_id=1)
        with pytest.raises(ConfigurationError):
            batcher.open(8, 0.0, -1.0, session_id=2)
        with pytest.raises(ConfigurationError):
            batcher.leave(999, 1)
        with pytest.raises(ConfigurationError):
            batcher.leave(stream.stream_id, 42)  # not a member
        with pytest.raises(ConfigurationError):
            batcher.stream(999)
        with pytest.raises(ConfigurationError):
            batcher.drop_newest(-1)
        assert batcher.fanout == pytest.approx(1.0)


class TestPrefixConfiguration:
    def test_constructor_and_describe(self):
        spec = Configuration.prefix(CachePolicy.REPLICATED, 0.75)
        assert spec.kind is ConfigurationKind.PREFIX
        assert spec.mems_fraction == pytest.approx(0.75)
        assert spec.fanout == pytest.approx(1.0)
        assert spec.uses_mems
        text = spec.describe()
        assert "prefix(replicated" in text and "h=0.750" in text

    def test_hashable_memo_key(self):
        a = Configuration.prefix(CachePolicy.STRIPED, 0.5)
        b = Configuration.prefix(CachePolicy.STRIPED, 0.5)
        assert a == b and hash(a) == hash(b)
        assert a != Configuration.prefix(CachePolicy.STRIPED, 0.6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Configuration.prefix(CachePolicy.REPLICATED, 1.5)
        with pytest.raises(ConfigurationError):
            Configuration.prefix(CachePolicy.REPLICATED, -0.1)
        with pytest.raises(ConfigurationError):
            Configuration.prefix(CachePolicy.REPLICATED, 0.5, fanout=0.5)
        with pytest.raises(ConfigurationError):
            Configuration.prefix(CachePolicy.REPLICATED, 0.5, k=0)
        with pytest.raises(ConfigurationError):
            Configuration(kind=ConfigurationKind.PREFIX,
                          policy=CachePolicy.REPLICATED)  # no mems_fraction
        with pytest.raises(ConfigurationError):
            # mems_fraction is prefix-only.
            Configuration(kind=ConfigurationKind.BUFFER, mems_fraction=0.5)


class TestPlanPrefix:
    def test_h_zero_matches_direct_demand(self):
        params = _params(n_streams=40)
        plan = Planner().plan(
            params, Configuration.prefix(CachePolicy.REPLICATED, 0.0))
        direct = 40 * min_buffer_direct(40, params.bit_rate, params.r_disk,
                                        params.l_disk)
        assert plan.feasible
        assert plan.total_dram == pytest.approx(direct)
        assert plan.hit_rate == pytest.approx(0.0)

    def test_h_one_matches_cache_service_demand(self):
        params = _params(n_streams=40)
        plan = Planner().plan(
            params, Configuration.prefix(CachePolicy.STRIPED, 1.0))
        per_stream = cache_buffer(CachePolicy.STRIPED, 40, params.bit_rate,
                                  params.k, params.r_mems, params.l_mems)
        assert plan.total_dram == pytest.approx(40 * per_stream)
        assert plan.hit_rate == pytest.approx(1.0)

    def test_fanout_divides_io_demand(self):
        params = _params(n_streams=40)
        planner = Planner()
        solo = planner.plan(
            params, Configuration.prefix(CachePolicy.REPLICATED, 0.5))
        shared = planner.plan(
            params, Configuration.prefix(CachePolicy.REPLICATED, 0.5,
                                         fanout=4.0))
        assert shared.total_dram < solo.total_dram
        ten = planner.plan(
            params.replace(n_streams=10),
            Configuration.prefix(CachePolicy.REPLICATED, 0.5))
        assert shared.total_dram == pytest.approx(ten.total_dram)

    def test_demand_monotone_in_population(self):
        params = _params()
        planner = Planner()
        spec = Configuration.prefix(CachePolicy.REPLICATED, 0.8)
        demands = [planner.plan(params.replace(n_streams=n), spec).total_dram
                   for n in (10, 50, 100, 200)]
        assert demands == sorted(demands)
        assert demands[0] < demands[-1]

    def test_capacity_search(self):
        params = _params()
        planner = Planner()
        spec = Configuration.prefix(CachePolicy.REPLICATED, 0.9)
        capacity = planner.capacity(params, spec, 50 * MB)
        assert capacity > 0
        below = planner.plan(params.replace(n_streams=capacity), spec)
        above = planner.plan(params.replace(n_streams=capacity + 1), spec)
        assert below.total_dram <= 50 * MB
        assert not above.feasible or above.total_dram > 50 * MB


class TestAdmissionSpecPathway:
    def test_spec_constructor_and_admit(self):
        spec = Configuration.prefix(CachePolicy.REPLICATED, 0.9)
        controller = AdmissionController(_params(), 50 * MB, spec=spec)
        assert controller.configuration == "prefix"
        assert controller.capacity() > 0
        assert controller.try_admit().admitted
        assert controller.admitted_streams == 1

    def test_spec_excludes_legacy_fields(self):
        spec = Configuration.prefix(CachePolicy.REPLICATED, 0.9)
        with pytest.raises(ConfigurationError):
            AdmissionController(_params(), 50 * MB, spec=spec,
                                configuration="buffer")
        with pytest.raises(ConfigurationError):
            AdmissionController(_params(), 50 * MB, spec=spec,
                                policy=CachePolicy.REPLICATED)

    def test_reconfigure_with_spec_moves_capacity(self):
        controller = AdmissionController(
            _params(), 50 * MB,
            spec=Configuration.prefix(CachePolicy.REPLICATED, 0.9))
        first = controller.capacity()
        controller.reconfigure(
            spec=Configuration.prefix(CachePolicy.REPLICATED, 0.2))
        second = controller.capacity()
        assert second != first  # the demand model actually swapped

    def test_reconfigure_spec_excludes_legacy_fields(self):
        controller = AdmissionController(
            _params(), 50 * MB,
            spec=Configuration.prefix(CachePolicy.REPLICATED, 0.9))
        with pytest.raises(ConfigurationError):
            controller.reconfigure(
                spec=Configuration.prefix(CachePolicy.REPLICATED, 0.5),
                configuration="buffer")

    def test_reconfigure_from_spec_to_legacy(self):
        controller = AdmissionController(
            _params(), 50 * MB,
            spec=Configuration.prefix(CachePolicy.REPLICATED, 0.9))
        controller.reconfigure(configuration="buffer")
        assert controller.configuration == "buffer"
        assert controller.capacity() > 0

    def test_reconfigure_from_legacy_to_spec(self):
        controller = AdmissionController(_params(), 50 * MB,
                                         configuration="buffer")
        controller.reconfigure(
            spec=Configuration.prefix(CachePolicy.REPLICATED, 0.9))
        assert controller.configuration == "prefix"
        assert controller.capacity() > 0


class TestPrefixPlacement:
    def test_replan_produces_feasible_decision(self):
        placement = PrefixPlacement(20, planner=Planner())
        params = _params(size_disk=40 * GB)
        for title in range(20):
            for _ in range(20 - title):
                placement.observe(title)
        decision = placement.replan(params, 30.0, dram_budget=50 * MB)
        assert decision.feasible
        assert decision.capacity is not None and decision.capacity > 0
        assert 0.0 <= decision.mems_fraction <= 1.0
        assert decision.spec.kind is ConfigurationKind.PREFIX
        assert decision.spec.fanout == pytest.approx(1.0)
        assert decision.allocation.resident_titles == decision.cached_titles
        assert placement.is_resident(decision.cached_titles[0])

    def test_drift_promotes_and_demotes(self):
        placement = PrefixPlacement(40, decay=0.0, prior_strength=0.0,
                                    hysteresis=0.0, planner=Planner())
        # Small bank: room for only a handful of full prefixes.
        params = _params(size_disk=80 * GB, size_mems=300 * MB)
        for title in range(5):
            for _ in range(10):
                placement.observe(title)
        first = placement.replan(params, 10.0)
        assert set(first.promoted) >= set(range(5))
        for title in range(20, 25):
            for _ in range(50):
                placement.observe(title)
        second = placement.replan(params, 10.0)
        assert set(range(20, 25)) <= set(second.promoted)
        assert second.demoted  # cold filler titles lose their slots
        assert not set(second.demoted) & set(range(20, 25))

    def test_window_tracks_allocation(self):
        placement = PrefixPlacement(10, planner=Planner())
        params = _params(size_disk=20 * GB)
        assert placement.window_seconds(0) == pytest.approx(0.0)  # cold
        placement.observe(3)
        decision = placement.replan(params, 5.0)
        title = decision.cached_titles[0]
        window = placement.window_seconds(title)
        assert window > 0.0
        assert window <= placement.window_cap + 1e-9

    def test_capacity_hint_threads_across_epochs(self):
        planner = Planner()
        placement = PrefixPlacement(10, planner=planner)
        params = _params(size_disk=20 * GB)
        placement.observe(0)
        placement.replan(params, 5.0, dram_budget=50 * MB)
        cold_probes = planner.stats()["probes_cold"]
        for epoch in range(3):
            placement.observe(epoch % 10)
            placement.replan(params, 5.0 + epoch, dram_budget=50 * MB)
        stats = planner.stats()
        # Later epochs replay from the hint: warm probes, no new colds.
        assert stats["probes_cold"] == cold_probes
        assert stats["probes_warm"] > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PrefixPlacement(0)
        with pytest.raises(ConfigurationError):
            PrefixPlacement(5, decay=1.0)
        with pytest.raises(ConfigurationError):
            PrefixPlacement(5, safety=0.0)
        with pytest.raises(ConfigurationError):
            PrefixPlacement(5, window_cap=0.0)
        placement = PrefixPlacement(5, planner=Planner())
        with pytest.raises(ConfigurationError):
            placement.observe(5)
        with pytest.raises(ConfigurationError):
            placement.replan(_params(), -1.0)
        with pytest.raises(ConfigurationError):
            placement.is_resident(-1)


# -- references: the per-title Python loops the array paths replaced ----
# The sums fold with ``functools.reduce(operator.add, ..., 0)``, which
# never compensates, so the references hold on every Python.

def _ref_sum(values):
    return functools.reduce(operator.add, values, 0)


def _ref_rebalance(scores, *, hysteresis, base_bytes, max_bytes,
                   budget_bytes, resident):
    values = [float(s) for s in scores]
    sticky = set(resident)
    bonus = 1.0 + hysteresis

    def effective(title):
        score = values[title]
        return score * bonus if title in sticky else score

    ranked = sorted(range(len(values)), key=lambda t: (-effective(t), t))
    prefix = [0.0] * len(values)
    remaining = budget_bytes
    for title in ranked:
        if remaining < base_bytes:
            break
        give = min(max_bytes, remaining)
        prefix[title] = give
        remaining -= give
    return tuple(prefix)


def _ref_resident(prefix):
    return tuple(t for t, size in enumerate(prefix) if size > 0)


def _ref_mems_fraction(prefix, title_bytes, weights):
    share = _ref_sum(w * min(size / title_bytes, 1.0)
                     for w, size in zip(weights, prefix))
    return min(share, 1.0)


def _ref_diff(previous, current, title_bytes):
    old = set(_ref_resident(previous)) if previous is not None else set()
    new = set(_ref_resident(current))
    resized = []
    if previous is not None:
        for title in sorted(old & new):
            if abs(previous[title] - current[title]) > 1e-9 * title_bytes:
                resized.append(title)
    return (tuple(sorted(new - old)), tuple(sorted(old - new)),
            tuple(resized))


def _bits(values):
    """Exact IEEE-754 bytes: tells 0.0 from -0.0, unlike ``==``."""
    return np.asarray(values, dtype=float).tobytes()


#: Scores with ties and signed zeros, plus a resident subset.
_slates = st.integers(min_value=1, max_value=40).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 1.2, 2.0, 5.0]),
             min_size=n, max_size=n),
    st.sets(st.integers(0, n - 1))))


class TestVodBitIdentity:
    """Array-backed allocation paths equal the Python references."""

    @settings(max_examples=300, deadline=None)
    @given(slate=_slates, hysteresis=st.sampled_from([0.0, 0.2, 1.0]),
           budget_units=st.floats(min_value=0.0, max_value=50.0),
           max_units=st.sampled_from([1.0, 2.5, 6.0]))
    def test_rebalance_and_allocation(self, slate, hysteresis, budget_units,
                                      max_units):
        scores, resident = slate
        title_bytes = 8 * MB
        kwargs = dict(base_bytes=1 * MB, max_bytes=max_units * MB,
                      budget_bytes=budget_units * MB)
        alloc = AdaptiveReplacement(hysteresis=hysteresis).rebalance(
            scores, title_bytes=title_bytes, resident=resident, **kwargs)
        expected = _ref_rebalance(scores, hysteresis=hysteresis,
                                  resident=resident, **kwargs)
        assert alloc.prefix_bytes == expected
        assert _bits(alloc.prefix_bytes) == _bits(expected)
        assert alloc.resident_titles == _ref_resident(expected)
        assert all(type(t) is int for t in alloc.resident_titles)
        assert alloc.total_bytes == float(_ref_sum(expected))
        total = _ref_sum(float(s) for s in scores)
        weights = ([float(s) / total for s in scores] if total > 0
                   else [1.0 / len(scores)] * len(scores))
        assert alloc.mems_fraction(weights) == _ref_mems_fraction(
            expected, title_bytes, weights)

    @settings(max_examples=40, deadline=None)
    @given(epochs=st.lists(st.lists(st.integers(0, 4), min_size=30,
                                    max_size=30), min_size=1, max_size=4),
           hysteresis=st.sampled_from([0.0, 0.2]))
    def test_prefix_replan_diff_and_fraction(self, epochs, hysteresis):
        placement = PrefixPlacement(30, decay=0.5, hysteresis=hysteresis,
                                    planner=Planner())
        params = _params(size_disk=60 * GB, size_mems=400 * MB)
        previous = None
        for counts in epochs:
            placement.observe_block(np.repeat(np.arange(30), counts))
            scores = placement.scores()
            decision = placement.replan(params, 8.0)
            current = decision.allocation.prefix_bytes
            assert (decision.promoted, decision.demoted, decision.resized) \
                == _ref_diff(previous, current,
                             decision.allocation.title_bytes)
            total = scores.sum()
            weights = (scores / total if total > 0
                       else np.full(30, 1.0 / 30)).tolist()
            assert decision.mems_fraction == _ref_mems_fraction(
                current, decision.allocation.title_bytes, weights)
            previous = current

    def test_tied_scores_with_sticky_titles(self):
        # All tied: the sticky title wins, then ids break the tie.
        alloc = AdaptiveReplacement(hysteresis=0.2).rebalance(
            [1.0, 1.0, 1.0, 1.0], base_bytes=1 * MB, max_bytes=2 * MB,
            budget_bytes=4 * MB, title_bytes=8 * MB, resident={3})
        assert alloc.resident_titles == (0, 3)
        assert alloc.prefix_bytes == (2 * MB, 0.0, 0.0, 2 * MB)

    def test_signed_zero_scores_rank_like_zero(self):
        alloc = AdaptiveReplacement(hysteresis=0.0).rebalance(
            [-0.0, 0.0, -0.0], base_bytes=1 * MB, max_bytes=2 * MB,
            budget_bytes=2 * MB, title_bytes=8 * MB)
        assert alloc.resident_titles == (0,)

    @pytest.mark.parametrize("scores,resident,problem", [
        ([math.nan, 1.0], (), "finite"),
        ([math.inf, 1.0], (), "finite"),
        ([1.0, 1.0], (2,), "resident"),
        ([1.0, 1.0], (-1,), "resident"),
    ])
    def test_rebalance_rejects_bad_input(self, scores, resident, problem):
        with pytest.raises(ConfigurationError, match=problem):
            AdaptiveReplacement().rebalance(
                scores, base_bytes=1.0, max_bytes=2.0, budget_bytes=1.0,
                title_bytes=1 * GB, resident=resident)

    @pytest.mark.parametrize("prefix", [(math.nan,), (-1.0,), (3 * GB,)])
    def test_allocation_bounds_name_the_title(self, prefix):
        with pytest.raises(ConfigurationError, match="title 0"):
            PrefixAllocation(prefix_bytes=prefix, title_bytes=2 * GB)


def test_package_exports():
    import repro.vod as vod

    for name in vod.__all__:
        assert getattr(vod, name) is not None
    assert math.isfinite(AdaptiveReplacement().hysteresis)
