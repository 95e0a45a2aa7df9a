"""Popularity distributions and the Eq. 11 hit-rate map."""

import functools
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.popularity import (
    PAPER_DISTRIBUTIONS,
    BimodalPopularity,
    EmpiricalPopularity,
    UniformPopularity,
    ZipfPopularity,
    paper_distributions,
)
from repro.core.summation import prefix_sums, sequential_sum
from repro.errors import ConfigurationError


class TestBimodalConstruction:
    def test_parse(self):
        dist = BimodalPopularity.parse("5:95")
        assert dist.x_percent == 5 and dist.y_percent == 95

    def test_parse_rejects_garbage(self):
        for bad in ("5-95", "5", "a:b", ""):
            with pytest.raises(ConfigurationError):
                BimodalPopularity.parse(bad)

    @pytest.mark.parametrize("x,y", [(0, 99), (100, 99), (1, 0), (1, 100)])
    def test_bounds(self, x, y):
        with pytest.raises(ConfigurationError):
            BimodalPopularity(x, y)

    def test_popular_class_must_be_popular(self):
        with pytest.raises(ConfigurationError):
            BimodalPopularity(99, 1)  # Y < X means inverted classes

    def test_str_roundtrip(self):
        assert str(BimodalPopularity.parse("10:90")) == "10:90"

    def test_paper_distributions(self):
        dists = paper_distributions()
        assert [str(d) for d in dists] == list(PAPER_DISTRIBUTIONS)


class TestEquation11:
    def test_caching_whole_popular_class(self):
        # p = X/100 exactly: hit rate is Y/100.
        dist = BimodalPopularity(10, 90)
        assert dist.hit_rate(0.10) == pytest.approx(0.90)

    def test_within_popular_class_linear(self):
        # p <= X: h = (p / X%) * Y%.
        dist = BimodalPopularity(10, 90)
        assert dist.hit_rate(0.05) == pytest.approx(0.45)

    def test_beyond_popular_class(self):
        # p > X: h = Y% + (p - X%)/(1 - X%) * (1 - Y%).
        dist = BimodalPopularity(10, 90)
        expected = 0.90 + (0.55 - 0.10) / 0.90 * 0.10
        assert dist.hit_rate(0.55) == pytest.approx(expected)

    def test_boundary_values(self):
        dist = BimodalPopularity(5, 95)
        assert dist.hit_rate(0.0) == 0.0
        assert dist.hit_rate(1.0) == pytest.approx(1.0)

    def test_monotone_nondecreasing(self):
        dist = BimodalPopularity(1, 99)
        points = [dist.hit_rate(p / 100) for p in range(101)]
        assert all(a <= b + 1e-12 for a, b in zip(points, points[1:]))

    def test_fifty_fifty_is_uniform(self):
        dist = BimodalPopularity(50, 50)
        assert dist.is_uniform
        for p in (0.1, 0.33, 0.8):
            assert dist.hit_rate(p) == pytest.approx(p)

    def test_skew_metric(self):
        # 1:99 means the popular 1% is 99x99/1 = 9801x denser.
        assert BimodalPopularity(1, 99).skew == pytest.approx(9801.0)
        assert BimodalPopularity(50, 50).skew == pytest.approx(1.0)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            BimodalPopularity(10, 90).hit_rate(1.5)
        with pytest.raises(ConfigurationError):
            BimodalPopularity(10, 90).hit_rate(-0.1)


class TestUniform:
    def test_identity(self):
        dist = UniformPopularity()
        for p in (0.0, 0.25, 1.0):
            assert dist.hit_rate(p) == p


class TestZipf:
    def test_bounds(self):
        dist = ZipfPopularity(alpha=0.8, n_titles=100)
        assert dist.hit_rate(0.0) == 0.0
        assert dist.hit_rate(1.0) == pytest.approx(1.0)

    def test_monotone(self):
        dist = ZipfPopularity(alpha=1.0, n_titles=500)
        points = [dist.hit_rate(p / 50) for p in range(51)]
        assert all(a <= b + 1e-12 for a, b in zip(points, points[1:]))

    def test_head_concentration(self):
        # A strongly skewed Zipf gives the top 10% much more than 10%.
        dist = ZipfPopularity(alpha=1.0, n_titles=1_000)
        assert dist.hit_rate(0.10) > 0.5

    def test_alpha_zero_is_uniform(self):
        dist = ZipfPopularity(alpha=0.0, n_titles=100)
        assert dist.hit_rate(0.3) == pytest.approx(0.3)

    def test_title_probability_sums_to_one(self):
        dist = ZipfPopularity(alpha=0.9, n_titles=50)
        total = sum(dist.title_probability(r) for r in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_title_probability_decreasing(self):
        dist = ZipfPopularity(alpha=0.9, n_titles=50)
        assert dist.title_probability(1) > dist.title_probability(2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfPopularity(alpha=-1, n_titles=10)
        with pytest.raises(ConfigurationError):
            ZipfPopularity(alpha=1, n_titles=0)
        with pytest.raises(ConfigurationError):
            ZipfPopularity(alpha=1, n_titles=10).title_probability(11)


class TestEmpiricalUnderDrift:
    """Edge cases the runtime's drift scenarios push the fit through."""

    def test_all_mass_on_one_title(self):
        # A fully focused flash crowd: every observation hits one title.
        dist = EmpiricalPopularity.from_counts([0.0, 0.0, 25.0, 0.0])
        assert dist.weights[0] == pytest.approx(1.0)
        assert all(w == pytest.approx(0.0) for w in dist.weights[1:])
        # Caching that single title is a perfect cache...
        assert dist.hit_rate(0.25) == pytest.approx(1.0)
        # ...and a partial prefix of it scales linearly.
        assert dist.hit_rate(0.125) == pytest.approx(0.5)
        assert dist.hit_rate(1.0) == pytest.approx(1.0)

    def test_empty_observation_window(self):
        # No counts at all is a configuration error...
        with pytest.raises(ConfigurationError):
            EmpiricalPopularity.from_counts([])
        # ...but an epoch with zero observed traffic (all-zero counts)
        # degrades to uniform rather than dividing by zero.
        dist = EmpiricalPopularity.from_counts([0.0, 0.0, 0.0, 0.0])
        assert dist.weights == (0.25,) * 4
        assert dist.hit_rate(0.5) == pytest.approx(0.5)

    def test_drift_rotation_is_rank_invariant(self):
        # Rotating which titles carry the head (the DriftEvent model)
        # must not change the fitted rank curve: hit_rate consumes
        # sorted shares.
        before = EmpiricalPopularity.from_counts([8.0, 4.0, 2.0, 1.0])
        after = EmpiricalPopularity.from_counts([1.0, 8.0, 4.0, 2.0])
        assert before.weights == after.weights
        for p in (0.1, 0.25, 0.5, 0.9):
            assert before.hit_rate(p) == pytest.approx(after.hit_rate(p))

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalPopularity(weights=(0.2, 0.8))


class TestBimodalSkewBoundary:
    """``skew``/``is_uniform`` across the 50:50 uniform boundary."""

    def test_uniform_boundary(self):
        dist = BimodalPopularity.parse("50:50")
        assert dist.is_uniform
        assert dist.skew == pytest.approx(1.0)
        assert dist.hit_rate(0.3) == pytest.approx(0.3)

    def test_just_across_the_boundary(self):
        dist = BimodalPopularity.parse("49:51")
        assert not dist.is_uniform
        assert dist.skew > 1.0
        assert dist.hit_rate(0.49) == pytest.approx(0.51)

    def test_crossing_below_uniform_rejected(self):
        # 51:49 would give the "popular" class less than its uniform
        # share; the constructor (and therefore parse) refuses.
        with pytest.raises(ConfigurationError):
            BimodalPopularity.parse("51:49")

    def test_skew_grows_with_concentration(self):
        skews = [BimodalPopularity.parse(spec).skew
                 for spec in ("50:50", "20:80", "5:95", "1:99")]
        assert skews == sorted(skews)
        assert skews[0] == pytest.approx(1.0)


# -- reference: the tuple-backed EmpiricalPopularity it replaced ---------
# Kept verbatim except for the sum: ``functools.reduce(operator.add, ...,
# 0)`` never compensates, so the reference is the same function on
# every Python (the builtin ``sum`` compensates floats from 3.12 on).

def _ref_sum(values):
    return functools.reduce(operator.add, values, 0)


def _ref_weights(counts):
    values = sorted((float(c) for c in counts), reverse=True)
    total = _ref_sum(values)
    if total <= 0:
        return (1.0 / len(values),) * len(values)
    return tuple(v / total for v in values)


def _ref_hit_rate(weights, p):
    scaled = p * len(weights)
    n_whole = int(math.floor(scaled + 1e-9))
    head = _ref_sum(weights[:n_whole])
    remainder = scaled - n_whole
    if n_whole < len(weights) and remainder > 1e-9:
        head += remainder * weights[n_whole]
    return min(head, 1.0)


def _bits(values):
    """Exact IEEE-754 bytes: tells 0.0 from -0.0, unlike ``==``."""
    return np.asarray(values, dtype=float).tobytes()


#: Counts with ties, zeros, signed zeros and wide magnitudes.
_counts = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 0.1]),
              st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60)
_fractions = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1e-12]),
                       st.floats(min_value=0.0, max_value=1.0))


class TestEmpiricalBitIdentity:
    """The array-backed model equals the tuple reference bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(counts=_counts)
    def test_weights(self, counts):
        pop = EmpiricalPopularity.from_counts(counts)
        reference = _ref_weights(counts)
        assert pop.weights == reference
        assert _bits(pop.weights) == _bits(reference)
        assert all(type(w) is float for w in pop.weights)

    @settings(max_examples=300, deadline=None)
    @given(counts=_counts, fractions=st.lists(_fractions, max_size=8))
    def test_hit_rate(self, counts, fractions):
        pop = EmpiricalPopularity.from_counts(counts)
        weights = _ref_weights(counts)
        for p in [0.0, 1.0, *fractions]:
            got = pop.hit_rate(p)
            assert got == _ref_hit_rate(weights, p)
            assert type(got) is float

    @settings(max_examples=300, deadline=None)
    @given(a=_counts, b=_counts, shuffle=st.randoms(use_true_random=False))
    def test_hash_and_eq_follow_tuple_equality(self, a, b, shuffle):
        permuted = list(a)
        shuffle.shuffle(permuted)
        left = EmpiricalPopularity.from_counts(a)
        for counts in (b, permuted):
            right = EmpiricalPopularity.from_counts(counts)
            same = _ref_weights(a) == _ref_weights(counts)
            assert (left == right) is same
            if same:
                assert hash(left) == hash(right)

    @settings(max_examples=100, deadline=None)
    @given(counts=_counts)
    def test_direct_construction_round_trips(self, counts):
        pop = EmpiricalPopularity.from_counts(counts)
        again = EmpiricalPopularity(weights=pop.weights)
        assert again == pop and hash(again) == hash(pop)
        assert pickle.loads(pickle.dumps(pop)) == pop

    @pytest.mark.parametrize("counts", [
        [7.0],                          # n = 1
        [0.0, 0.0, 0.0],                # all zero: uniform
        [-0.0, 0.0, -0.0],              # signed zeros: uniform
        [0.0, 5.0, 0.0, 0.0],           # all mass on one title
        [2.0, 2.0, 2.0, 1.0, 1.0],      # tied scores
        [3.0, -0.0, 1.0, 0.0, 0.0],     # ties among signed zeros
        [0.1] * 10,                     # compensated vs plain sum differ
    ])
    def test_edge_cases(self, counts):
        pop = EmpiricalPopularity.from_counts(counts)
        weights = _ref_weights(counts)
        assert _bits(pop.weights) == _bits(weights)
        for p in (0.0, 0.05, 0.3, 0.5, 0.75, 1.0):
            assert pop.hit_rate(p) == _ref_hit_rate(weights, p)

    def test_signed_zero_hashes_like_zero(self):
        plus = EmpiricalPopularity(weights=(0.5, 0.5, 0.0))
        minus = EmpiricalPopularity(weights=(0.5, 0.5, -0.0))
        assert plus == minus
        assert hash(plus) == hash(minus)
        assert {plus: 1}[minus] == 1

    def test_hit_rate_at_zero_is_a_float(self):
        assert type(EmpiricalPopularity.from_counts([3, 1]).hit_rate(0.0)) \
            is float

    def test_is_immutable(self):
        pop = EmpiricalPopularity.from_counts([3, 1])
        with pytest.raises(AttributeError):
            pop.weights = (1.0,)
        with pytest.raises(AttributeError):
            pop._shares = np.ones(2)
        with pytest.raises(ValueError):
            pop._shares[0] = 0.0

    def test_repr_names_the_weights(self):
        assert repr(EmpiricalPopularity(weights=(0.75, 0.25))) == \
            "EmpiricalPopularity(weights=(0.75, 0.25))"


class TestEmpiricalBoundaryChecks:
    @pytest.mark.parametrize("counts,problem", [
        ([math.inf, 1.0], "finite"),
        ([math.nan, 1.0], "finite"),
        ([1.0, -math.inf], "finite"),
        ([1.0, -2.0], ">= 0"),
        ([], "non-empty"),
        ([[1.0, 2.0]], "non-empty"),
    ])
    def test_bad_counts_name_the_problem(self, counts, problem):
        with pytest.raises(ConfigurationError, match=problem):
            EmpiricalPopularity.from_counts(counts)

    @pytest.mark.parametrize("weights,problem", [
        ((math.nan, 1.0), "finite"),
        ((1.5, -0.5), ">= 0"),
        ((0.2, 0.8), "sorted"),
        ((0.5, 0.4), "sum to 1"),
        ((), "non-empty"),
    ])
    def test_bad_weights_name_the_problem(self, weights, problem):
        with pytest.raises(ConfigurationError, match=problem):
            EmpiricalPopularity(weights=weights)


class TestSequentialSum:
    """The pinned order: left to right from an integer-zero start."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     min_value=-1e12, max_value=1e12),
                           max_size=40))
    def test_matches_the_uncompensated_fold(self, values):
        expected = float(_ref_sum(values))
        assert _bits([sequential_sum(values)]) == _bits([expected])
        assert _bits([sequential_sum(np.array(values))]) == _bits([expected])
        sums = prefix_sums(np.array(values))
        assert _bits(sums) == _bits(
            [float(_ref_sum(values[:k + 1])) for k in range(len(values))])

    def test_does_not_compensate(self):
        # 3.12's builtin sum gives 1.0 here; the pinned order does not.
        assert sequential_sum([0.1] * 10) == 0.9999999999999999
        assert sequential_sum(np.full(10, 0.1)) == 0.9999999999999999

    def test_empty_and_signed_zero(self):
        assert _bits([sequential_sum([])]) == _bits([0.0])
        assert _bits([sequential_sum(np.array([-0.0, -0.0]))]) == \
            _bits([0.0])
