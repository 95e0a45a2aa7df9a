"""Hybrid buffer+cache use of the MEMS bank (paper Section 7, future work).

The paper's first future-work direction: "the MEMS storage could be
simultaneously used for buffering and for caching popular streams",
e.g. when the popularity skew alone cannot justify devoting the whole
bank to caching.  This module implements that design point: of the
``k`` devices, ``k_cache`` hold popular content (under a cache policy)
and the remaining ``k - k_cache`` form a speed-matching buffer for the
disk-served streams.

For a fixed DRAM budget the server throughput of each split is the
largest ``N`` such that

* the cache side admits ``h N`` streams (Theorem 3/4),
* the disk side admits ``(1-h) N`` streams through the buffer
  sub-bank (Theorem 2; plain Theorem 1 when ``k_cache == k``), and
* the summed DRAM fits the budget,

and :func:`optimize_hybrid_split` scans all ``k + 1`` splits.

The per-split solve itself (forward DRAM model and inverse throughput
search) builds :meth:`repro.planner.Configuration.hybrid` specs and
delegates to the shared, memoized planner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.cache_model import CachePolicy
from repro.core.parameters import SystemParameters
from repro.core.popularity import PopularityDistribution
from repro.errors import ConfigurationError, require

__all__ = [
    "HybridDesign",
    "hybrid_throughput",
    "optimize_hybrid_split",
    "hybrid_split_curve",
    "hybrid_streams_supported",
]


@dataclass(frozen=True)
class HybridDesign:
    """Throughput of one buffer/cache split of the MEMS bank."""

    #: Devices devoted to caching popular content.
    k_cache: int
    #: Devices devoted to disk buffering.
    k_buffer: int
    policy: CachePolicy
    #: Hit rate achieved by the cache sub-bank.
    hit_rate: float
    #: Maximum admitted streams (continuous; floor for a count).
    max_streams: float

    @property
    def k_total(self) -> int:
        """Total devices in the bank."""
        return self.k_cache + self.k_buffer


def hybrid_throughput(params: SystemParameters, *, k_cache: int,
                      policy: CachePolicy,
                      popularity: PopularityDistribution,
                      dram_budget: float) -> HybridDesign:
    """Max streams for a fixed split of the bank (see module docstring).

    ``params.k`` is the total bank size; ``params.size_mems`` and
    ``params.size_disk`` must be finite.  ``params.n_streams`` is
    ignored.
    """
    # Imported lazily: the planner imports the core forward models, so
    # a module-level import here would be circular.
    from repro.planner.configuration import Configuration
    from repro.planner.solver import default_planner

    if not 0 <= k_cache <= params.k:
        raise ConfigurationError(
            f"k_cache must be in [0, {params.k}], got {k_cache!r}")
    if dram_budget < 0:
        raise ConfigurationError(
            f"dram_budget must be >= 0, got {dram_budget!r}")
    if params.size_mems is None or params.size_disk is None:
        raise ConfigurationError(
            "hybrid analysis needs finite size_mems and size_disk")
    k_buffer = params.k - k_cache
    configuration = Configuration.hybrid(k_cache, k_buffer, policy,
                                         popularity)
    planner = default_planner()
    max_streams = planner.max_streams(params, configuration, dram_budget)
    hit_rate = planner.plan(params, configuration, 0).hit_rate
    require(hit_rate is not None,
            "hybrid plan at n_streams=0 must report a hit rate")
    return HybridDesign(k_cache=k_cache, k_buffer=k_buffer, policy=policy,
                        hit_rate=hit_rate, max_streams=max_streams)


def optimize_hybrid_split(params: SystemParameters, *, policy: CachePolicy,
                          popularity: PopularityDistribution,
                          dram_budget: float) -> HybridDesign:
    """Best split of the ``k``-device bank between buffering and caching.

    Scans all ``k + 1`` integer splits and returns the one admitting
    the most streams (ties favour fewer cache devices, i.e. the
    simpler configuration).
    """
    best: HybridDesign | None = None
    for k_cache in range(params.k + 1):
        design = hybrid_throughput(params, k_cache=k_cache, policy=policy,
                                   popularity=popularity,
                                   dram_budget=dram_budget)
        if best is None or design.max_streams > best.max_streams * (1 + 1e-12):
            best = design
    if best is None:
        # k >= 1 always yields at least two candidates, so this is
        # unreachable — but an assert would vanish under ``python -O``.
        raise ConfigurationError(
            f"no hybrid split candidates for k={params.k!r}")
    return best


def hybrid_split_curve(params: SystemParameters, *, policy: CachePolicy,
                       popularity: PopularityDistribution,
                       dram_budget: float) -> list[HybridDesign]:
    """Throughput of every split, for ablation plots."""
    return [
        hybrid_throughput(params, k_cache=k_cache, policy=policy,
                          popularity=popularity, dram_budget=dram_budget)
        for k_cache in range(params.k + 1)
    ]


def hybrid_streams_supported(design: HybridDesign) -> int:
    """Integer stream count of a hybrid design."""
    return int(math.floor(design.max_streams + 1e-9))
