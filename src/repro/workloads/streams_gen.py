"""Stream-set and content-catalog construction.

A *catalog* is the set of titles a server stores (whose total size is
the paper's ``Size_disk``); a *stream set* is a concrete population of
concurrent playback sessions over those titles.  These builders feed
the examples and the cache-placement logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.summation import sequential_sum
from repro.errors import ConfigurationError
from repro.workloads.bitrates import MediaType


@dataclass(frozen=True)
class Title:
    """One piece of content in the catalog."""

    title_id: int
    media: MediaType
    #: Size on disk, bytes.
    size: float
    #: Popularity rank, 0 = most popular.
    rank: int

    def __post_init__(self) -> None:
        if self.title_id < 0:
            raise ConfigurationError(
                f"title_id must be >= 0, got {self.title_id!r}")
        if self.size <= 0:
            raise ConfigurationError(f"size must be > 0, got {self.size!r}")
        if self.rank < 0:
            raise ConfigurationError(f"rank must be >= 0, got {self.rank!r}")

    @property
    def duration(self) -> float:
        """Playback duration in seconds at the media bit-rate."""
        return self.size / self.media.bit_rate


def make_catalog(media: MediaType, *, n_titles: int,
                 total_size: float | None = None,
                 size_jitter: float = 0.2, seed: int = 0) -> list[Title]:
    """Build a catalog of ``n_titles`` titles of one media class.

    Title sizes are the media's typical size with uniform +/-
    ``size_jitter`` variation, then rescaled so the catalog totals
    ``total_size`` when given (this pins the paper's ``Size_disk``).
    Ranks follow title order (0 is most popular).
    """
    if n_titles < 1:
        raise ConfigurationError(f"n_titles must be >= 1, got {n_titles!r}")
    if not 0 <= size_jitter < 1:
        raise ConfigurationError(
            f"size_jitter must be in [0, 1), got {size_jitter!r}")
    rng = np.random.default_rng(seed)
    sizes = media.typical_size * (
        1.0 + size_jitter * (2.0 * rng.random(n_titles) - 1.0))
    if total_size is not None:
        if total_size <= 0:
            raise ConfigurationError(
                f"total_size must be > 0, got {total_size!r}")
        sizes *= total_size / sizes.sum()
    return [Title(title_id=i, media=media, size=float(sizes[i]), rank=i)
            for i in range(n_titles)]


@dataclass
class StreamSet:
    """A concurrent stream population over a catalog."""

    catalog: list[Title]
    #: Title index requested by each stream.
    requests: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.catalog:
            raise ConfigurationError("catalog must not be empty")
        for r in self.requests:
            if not 0 <= r < len(self.catalog):
                raise ConfigurationError(
                    f"request {r!r} outside catalog of {len(self.catalog)}")

    @property
    def n_streams(self) -> int:
        return len(self.requests)

    @property
    def catalog_size(self) -> float:
        """Total catalog bytes (the paper's ``Size_disk``)."""
        return sequential_sum(t.size for t in self.catalog)

    @property
    def average_bit_rate(self) -> float:
        """Average bit-rate B̄ of the streaming population."""
        if not self.requests:
            raise ConfigurationError("no streams in the set")
        rates = [self.catalog[r].media.bit_rate for r in self.requests]
        return sequential_sum(rates) / len(rates)

    def streams_hitting_prefix(self, cached_titles: int) -> int:
        """Streams whose title is among the ``cached_titles`` top ranks.

        This is the *empirical* cache population ``n`` for a cache that
        holds the most popular ``cached_titles`` titles.
        """
        if cached_titles < 0:
            raise ConfigurationError(
                f"cached_titles must be >= 0, got {cached_titles!r}")
        ranks = {t.title_id: t.rank for t in self.catalog}
        return sum(1 for r in self.requests if ranks[r] < cached_titles)

    def titles_fitting(self, capacity: float) -> int:
        """How many top-ranked titles fit in ``capacity`` bytes (greedy)."""
        if capacity < 0:
            raise ConfigurationError(
                f"capacity must be >= 0, got {capacity!r}")
        by_rank = sorted(self.catalog, key=lambda t: t.rank)
        used = 0.0
        count = 0
        for title in by_rank:
            if used + title.size > capacity:
                break
            used += title.size
            count += 1
        return count
