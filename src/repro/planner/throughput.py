"""Named throughput solvers: the planner's stateless convenience API.

The paper's Figures 9 and 10 report *server throughput* — the maximum
number of streams a configuration can admit — for a fixed buffering
budget.  The forward models (Theorems 1-4) map ``N`` to a DRAM
requirement; these functions invert them by delegating to the shared,
memoized :class:`repro.planner.Planner`
(:func:`repro.planner.default_planner`).

Callers either use these or build a
:class:`repro.planner.Configuration` and talk to the planner directly.
"""

from __future__ import annotations

import math

from repro.core.cache_model import CachePolicy
from repro.core.parameters import SystemParameters
from repro.core.popularity import PopularityDistribution
from repro.errors import ConfigurationError

__all__ = [
    "max_streams_without_mems",
    "max_streams_with_buffer",
    "max_streams_with_cache",
    "streams_supported",
]


def _planner():
    # Imported lazily: repro.planner.solver imports the core forward
    # models, so a module-level import here would be circular.
    from repro.planner.solver import default_planner

    return default_planner()


def _configuration(kind: str, policy: CachePolicy | None = None,
                   popularity: PopularityDistribution | None = None):
    from repro.planner.configuration import Configuration

    return Configuration.from_legacy(kind, policy=policy,
                                     popularity=popularity)


def max_streams_without_mems(params: SystemParameters,
                             dram_budget: float) -> float:
    """Throughput of the plain disk-to-DRAM server (Theorem 1 inverse).

    Closed form; ``params.n_streams`` is ignored.
    """
    return _planner().max_streams(params, _configuration("none"), dram_budget)


def max_streams_with_buffer(params: SystemParameters,
                            dram_budget: float) -> float:
    """Throughput of the MEMS-buffered server (Theorem 2 inverse).

    The feasibility predicate combines the disk and MEMS bandwidth
    limits, the MEMS storage bound (Eq. 7 vs Eq. 6 compatibility), and
    the DRAM budget.  ``params.n_streams`` is ignored.
    """
    return _planner().max_streams(params, _configuration("buffer"),
                                  dram_budget)


def max_streams_with_cache(params: SystemParameters, policy: CachePolicy,
                           popularity: PopularityDistribution,
                           dram_budget: float) -> float:
    """Throughput of the MEMS-cached server (Theorems 3/4 inverse).

    Streams split ``h : (1-h)`` between cache and disk (the hit rate
    depends only on capacities, not on ``N``); feasibility requires
    both device classes to admit their share and the combined DRAM to
    fit the budget.  ``params.n_streams`` is ignored.
    """
    return _planner().max_streams(params,
                                  _configuration("cache", policy, popularity),
                                  dram_budget)


def streams_supported(params: SystemParameters, dram_budget: float, *,
                      configuration: str = "none",
                      policy: CachePolicy | None = None,
                      popularity: PopularityDistribution | None = None) -> int:
    """Integer server throughput for any of the three configurations.

    ``configuration`` is ``"none"`` (plain disk), ``"buffer"``, or
    ``"cache"`` (which additionally needs ``policy`` and
    ``popularity``).  Returns ``floor`` of the continuous solution.
    """
    if configuration not in ("none", "buffer", "cache"):
        raise ConfigurationError(
            f"configuration must be 'none', 'buffer' or 'cache', "
            f"got {configuration!r}")
    n = _planner().max_streams(
        params, _configuration(configuration, policy, popularity),
        dram_budget)
    return int(math.floor(n + 1e-9))
