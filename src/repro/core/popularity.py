"""Content-popularity models and the cache hit-rate map (Eq. 11).

The paper specifies popularity as ``X:Y`` — X% of the titles receive
Y% of the accesses, uniformly within the popular and unpopular classes.
Given a cache holding the most popular fraction ``p`` of the content,
the hit rate is

    h = (p / (X/100)) * Y/100                      if p <= X/100,
    h = Y/100 + (p - X/100)/(1 - X/100) * (1-Y/100) otherwise,

i.e. the cache first absorbs the popular class, then dips into the
unpopular class.  ``50:50`` denotes the uniform distribution.

:class:`ZipfPopularity` is an extension beyond the paper: real VoD
popularity is often Zipf-like, and the cache analysis only consumes the
``hit_rate(p)`` map, so any distribution with that interface plugs in.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.core.summation import prefix_sums, sequential_sum
from repro.errors import ConfigurationError

__all__ = [
    "BimodalPopularity",
    "EmpiricalPopularity",
    "PopularityDistribution",
    "UniformPopularity",
    "ZipfPopularity",
    "checked_prior",
    "paper_distributions",
]


class PopularityDistribution(abc.ABC):
    """Maps a cached content fraction to an access hit rate."""

    @abc.abstractmethod
    def hit_rate(self, cached_fraction: float) -> float:
        """Fraction of accesses served by caching the ``cached_fraction``
        most popular content.  Monotone, with ``hit_rate(0) = 0`` and
        ``hit_rate(1) = 1``."""

    def _check_fraction(self, cached_fraction: float) -> float:
        if not 0 <= cached_fraction <= 1:
            raise ConfigurationError(
                f"cached fraction must be in [0, 1], got {cached_fraction!r}")
        return cached_fraction


@dataclass(frozen=True)
class BimodalPopularity(PopularityDistribution):
    """The paper's ``X:Y`` two-class popularity distribution.

    ``x_percent`` of the titles receive ``y_percent`` of the accesses;
    both classes are internally uniform.  The paper's experiments use
    1:99, 5:95, 10:90, 20:80 and the uniform 50:50.
    """

    x_percent: float
    y_percent: float

    def __post_init__(self) -> None:
        if not 0 < self.x_percent < 100:
            raise ConfigurationError(
                f"x_percent must be in (0, 100), got {self.x_percent!r}")
        if not 0 < self.y_percent < 100:
            raise ConfigurationError(
                f"y_percent must be in (0, 100), got {self.y_percent!r}")
        if self.y_percent < self.x_percent:
            raise ConfigurationError(
                f"a {self.x_percent}:{self.y_percent} distribution gives the "
                "popular class less than its uniform share; swap X and Y")

    @classmethod
    def parse(cls, spec: str) -> "BimodalPopularity":
        """Parse the paper's ``"X:Y"`` notation, e.g. ``"1:99"``."""
        try:
            x_text, y_text = spec.split(":")
            return cls(float(x_text), float(y_text))
        except ValueError as exc:
            raise ConfigurationError(
                f"popularity spec must look like 'X:Y', got {spec!r}") from exc

    @property
    def is_uniform(self) -> bool:
        """True for the 50:50 (uniform) distribution."""
        return math.isclose(self.x_percent, self.y_percent)

    @property
    def skew(self) -> float:
        """Access-density ratio between the popular and unpopular class."""
        x = self.x_percent / 100.0
        y = self.y_percent / 100.0
        return (y / x) / ((1.0 - y) / (1.0 - x))

    def hit_rate(self, cached_fraction: float) -> float:
        """Equation 11 of the paper."""
        p = self._check_fraction(cached_fraction)
        x = self.x_percent / 100.0
        y = self.y_percent / 100.0
        if p <= x:
            return (p / x) * y
        return y + (p - x) / (1.0 - x) * (1.0 - y)

    def __str__(self) -> str:
        return f"{self.x_percent:g}:{self.y_percent:g}"


@dataclass(frozen=True)
class UniformPopularity(PopularityDistribution):
    """All content equally popular: ``hit_rate(p) = p``."""

    def hit_rate(self, cached_fraction: float) -> float:
        return self._check_fraction(cached_fraction)


@dataclass(frozen=True)
class ZipfPopularity(PopularityDistribution):
    """Zipf-distributed title popularity (extension beyond the paper).

    Title ``i`` (1-based) of ``n_titles`` receives weight
    ``i ** -alpha``; caching the top fraction ``p`` captures the sum of
    the first ``ceil(p * n_titles)`` weights.  ``alpha ~ 0.7-1.0`` is
    typical for VoD traces.
    """

    alpha: float
    n_titles: int

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigurationError(
                f"alpha must be >= 0, got {self.alpha!r}")
        if self.n_titles < 1:
            raise ConfigurationError(
                f"n_titles must be >= 1, got {self.n_titles!r}")

    def _weights(self) -> np.ndarray:
        ranks = np.arange(1, self.n_titles + 1, dtype=float)
        weights = ranks ** (-self.alpha)
        return weights / weights.sum()

    def hit_rate(self, cached_fraction: float) -> float:
        p = self._check_fraction(cached_fraction)
        n_cached = int(math.floor(p * self.n_titles + 1e-9))
        weights = self._weights()
        head = float(weights[:n_cached].sum())
        # Interpolate within the marginal title so hit_rate is continuous
        # in p (a partially cached title is modelled as proportionally hit).
        remainder = p * self.n_titles - n_cached
        if n_cached < self.n_titles and remainder > 0:
            head += remainder * float(weights[n_cached])
        return min(head, 1.0)

    def title_probability(self, rank: int) -> float:
        """Access probability of the ``rank``-th most popular title (1-based)."""
        if not 1 <= rank <= self.n_titles:
            raise ConfigurationError(
                f"rank must be in [1, {self.n_titles}], got {rank!r}")
        return float(self._weights()[rank - 1])


class EmpiricalPopularity(PopularityDistribution):
    """Hit-rate map fitted to observed per-title access counts.

    The online runtime re-estimates popularity from the requests it has
    actually served (see :mod:`repro.runtime.placement`); the cache
    theorems only consume ``hit_rate(p)``, so an empirical curve plugs
    into :func:`~repro.core.cache_model.design_mems_cache` unchanged.

    ``weights`` are normalised access shares sorted most-popular-first.
    A partially cached marginal title is counted proportionally, making
    ``hit_rate`` continuous and monotone with ``hit_rate(0) = 0`` and
    ``hit_rate(1) = 1``.

    The shares live in one read-only float64 array.  Construction also
    stores their left-to-right prefix sums
    (:func:`~repro.core.summation.prefix_sums`) and a hash of their
    canonical bytes, so validation is one pass of array work,
    ``hit_rate`` is O(1), and the planner's cache keys hash and compare
    in O(1) / one array comparison instead of O(titles) Python.  The
    instance is immutable; ``weights`` builds a tuple of floats on
    demand.  Every value is bit-identical to summing the shares with
    the uncompensated builtin ``sum`` of Python <= 3.11.
    """

    def __init__(self, weights) -> None:
        shares = np.array(weights, dtype=float)
        if shares.ndim != 1 or not shares.size:
            raise ConfigurationError(
                "weights must be a non-empty 1-D sequence")
        if not np.isfinite(shares).all():
            raise ConfigurationError("weights must be finite")
        if (shares < 0).any():
            raise ConfigurationError("weights must be >= 0")
        if (shares[1:] > shares[:-1] + 1e-12).any():
            raise ConfigurationError(
                "weights must be sorted most-popular-first")
        prefix = prefix_sums(shares)
        total = float(prefix[-1])
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
            raise ConfigurationError(
                f"weights must sum to 1, got {total!r}")
        shares.flags.writeable = False
        prefix.flags.writeable = False
        object.__setattr__(self, "_shares", shares)
        object.__setattr__(self, "_prefix", prefix)
        # ``+ 0.0`` maps -0.0 to 0.0, so the hash agrees with ``==``.
        object.__setattr__(self, "_hash", hash((shares + 0.0).tobytes()))

    @classmethod
    def from_counts(cls, counts) -> "EmpiricalPopularity":
        """Build from raw (unsorted, unnormalised) access counts.

        All-zero counts degrade to the uniform distribution — a cold
        server has no popularity signal yet.
        """
        values = np.asarray(counts if isinstance(counts, np.ndarray)
                            else list(counts), dtype=float)
        if values.ndim != 1 or not values.size:
            raise ConfigurationError(
                "counts must be a non-empty 1-D sequence")
        if not np.isfinite(values).all():
            raise ConfigurationError("counts must be finite")
        if (values < 0).any():
            raise ConfigurationError("counts must be >= 0")
        # Stable descending order: equal counts keep their input order,
        # exactly as ``sorted(..., reverse=True)`` does.
        values = values[np.argsort(-values, kind="stable")]
        total = sequential_sum(values)
        if total <= 0:
            return cls(weights=np.full(values.size, 1.0 / values.size))
        return cls(weights=values / total)

    @property
    def weights(self) -> tuple[float, ...]:
        """The sorted access shares, as a tuple of floats."""
        return tuple(self._shares.tolist())

    def hit_rate(self, cached_fraction: float) -> float:
        p = self._check_fraction(cached_fraction)
        n_titles = self._shares.size
        scaled = p * n_titles
        n_whole = int(math.floor(scaled + 1e-9))
        head = float(self._prefix[n_whole - 1]) if n_whole else 0.0
        remainder = scaled - n_whole
        if n_whole < n_titles and remainder > 1e-9:
            head += remainder * float(self._shares[n_whole])
        return min(head, 1.0)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash
                and np.array_equal(self._shares, other._shares))

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self._shares,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(weights={self.weights!r})"


def checked_prior(prior_weights, n_titles: int) -> np.ndarray:
    """``prior_weights`` as a float array, checked at the boundary.

    A prior must be one finite, non-negative weight per title; a NaN or
    negative entry would otherwise surface only at the first replan, as
    a misleading normalisation error.
    """
    prior = np.asarray(prior_weights, dtype=float)
    if prior.shape != (n_titles,):
        raise ConfigurationError(
            f"prior_weights must have shape ({n_titles},), "
            f"got {prior.shape}")
    if not np.isfinite(prior).all():
        raise ConfigurationError("prior_weights must be finite")
    if (prior < 0).any():
        raise ConfigurationError("prior_weights must be >= 0")
    return prior


#: The popularity distributions swept in Figures 9 and 10 of the paper.
PAPER_DISTRIBUTIONS: tuple[str, ...] = ("1:99", "5:95", "10:90", "20:80", "50:50")


def paper_distributions() -> list[BimodalPopularity]:
    """The five X:Y distributions used in the paper's experiments."""
    return [BimodalPopularity.parse(spec) for spec in PAPER_DISTRIBUTIONS]
