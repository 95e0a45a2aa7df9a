"""Theorems 3-4: a ``k``-device MEMS bank as a content cache.

In the cache configuration (Section 3.2 / 4.2) the MEMS bank stores the
most popular streams in their entirety and services them directly,
while the disk services the rest.  Two independent time-cycle schedules
run, one per device class.  The per-stream DRAM buffers are

* striped cache (Theorem 3, Eq. 12)::

      S = n * L_mems * (k R_mems) * B / (k R_mems - n B)

  — the bank seeks in lock step so latency is that of one device, and
  every one of the ``n`` cached streams costs a seek on every device;

* replicated cache (Theorem 4, Eq. 13)::

      S = ((n+k-1)/k) * L_mems * (k R_mems) * B / (k R_mems - (n+k-1) B)

  — each device independently serves ``~n/k`` streams, so the bank's
  effective latency shrinks by ``k`` (up to the ``(n+k-1)`` rounding
  slack), at the price of caching only one device's worth of content.

The cached-content fraction ``p`` (Section 4.2) is
``k * Size_mems / Size_disk`` for striping and
``Size_mems / Size_disk`` for replication; the popularity model maps
``p`` to the hit rate ``h`` (Eq. 11), splitting the ``N`` streams into
``n = h N`` cache-served and ``(1-h) N`` disk-served.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.parameters import SystemParameters
from repro.core.popularity import PopularityDistribution
from repro.core.theorems import min_buffer_direct
from repro.errors import AdmissionError, ConfigurationError


class CachePolicy(enum.Enum):
    """Cache-management policy for a multi-device MEMS cache."""

    #: Bit/byte striping across all devices, lock-step access (Thm 3).
    STRIPED = "striped"
    #: Full replication, streams partitioned across devices (Thm 4).
    REPLICATED = "replicated"


def _validate(n_cached: float, bit_rate: float, k: int, r_mems: float,
              l_mems: float) -> None:
    if n_cached < 0:
        raise ConfigurationError(f"n_cached must be >= 0, got {n_cached!r}")
    if bit_rate <= 0:
        raise ConfigurationError(f"bit_rate must be > 0, got {bit_rate!r}")
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k!r}")
    if r_mems <= 0:
        raise ConfigurationError(f"r_mems must be > 0, got {r_mems!r}")
    if l_mems < 0:
        raise ConfigurationError(f"l_mems must be >= 0, got {l_mems!r}")


def striped_cache_buffer(n_cached: float, bit_rate: float, k: int,
                         r_mems: float, l_mems: float) -> float:
    """Per-stream DRAM buffer for a striped MEMS cache (Eq. 12).

    ``n_cached`` may be fractional (it is usually the expected value
    ``h * N``).  Raises :class:`~repro.errors.AdmissionError` when the
    cached load reaches the bank bandwidth ``k * r_mems``.
    """
    _validate(n_cached, bit_rate, k, r_mems, l_mems)
    if n_cached == 0:
        return 0.0
    bank_rate = k * r_mems
    load = n_cached * bit_rate
    if load >= bank_rate:
        raise AdmissionError(
            f"striped cache load {load:.6g} B/s is not below the bank rate "
            f"{bank_rate:.6g} B/s", load=load, capacity=bank_rate)
    return n_cached * l_mems * bank_rate * bit_rate / (bank_rate - load)


def replicated_cache_buffer(n_cached: float, bit_rate: float, k: int,
                            r_mems: float, l_mems: float) -> float:
    """Per-stream DRAM buffer for a replicated MEMS cache (Eq. 13)."""
    _validate(n_cached, bit_rate, k, r_mems, l_mems)
    if n_cached == 0:
        return 0.0
    bank_rate = k * r_mems
    effective_streams = n_cached + k - 1
    load = effective_streams * bit_rate
    if load >= bank_rate:
        raise AdmissionError(
            f"replicated cache load {load:.6g} B/s (incl. the k-1 rounding "
            f"slack) is not below the bank rate {bank_rate:.6g} B/s",
            load=load, capacity=bank_rate)
    return (effective_streams / k) * l_mems * bank_rate * bit_rate / (
        bank_rate - load)


def cache_buffer(policy: CachePolicy, n_cached: float, bit_rate: float,
                 k: int, r_mems: float, l_mems: float) -> float:
    """Dispatch to Eq. 12 or Eq. 13 by policy."""
    if policy is CachePolicy.STRIPED:
        return striped_cache_buffer(n_cached, bit_rate, k, r_mems, l_mems)
    if policy is CachePolicy.REPLICATED:
        return replicated_cache_buffer(n_cached, bit_rate, k, r_mems, l_mems)
    raise ConfigurationError(f"unknown cache policy {policy!r}")


def cache_capacity_fraction(policy: CachePolicy, k: int, size_mems: float,
                            size_disk: float) -> float:
    """Cached-content fraction ``p`` (Section 4.2), clamped to 1.

    Striping aggregates all ``k`` capacities; replication stores the
    same content on every device.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k!r}")
    if size_mems <= 0 or size_disk <= 0:
        raise ConfigurationError(
            f"sizes must be > 0, got size_mems={size_mems!r}, "
            f"size_disk={size_disk!r}")
    usable = k * size_mems if policy is CachePolicy.STRIPED else size_mems
    return min(usable / size_disk, 1.0)


@dataclass(frozen=True)
class CacheDesign:
    """A MEMS-cache operating point for a given stream population."""

    params: SystemParameters
    policy: CachePolicy
    #: Cached fraction of the content, ``p``.
    cached_fraction: float
    #: Hit rate ``h`` from the popularity model (Eq. 11).
    hit_rate: float
    #: Expected streams served from the cache, ``n = h * N``.
    n_cache_streams: float
    #: Expected streams served from the disk, ``(1 - h) * N``.
    n_disk_streams: float
    #: Per-stream DRAM buffer for cache-served streams (Eq. 12/13).
    s_mems_dram: float
    #: Per-stream DRAM buffer for disk-served streams (Theorem 1).
    s_disk_dram: float

    @property
    def total_dram(self) -> float:
        """Aggregate DRAM across both stream classes, bytes."""
        return (self.n_cache_streams * self.s_mems_dram
                + self.n_disk_streams * self.s_disk_dram)


def design_mems_cache(params: SystemParameters, policy: CachePolicy,
                      popularity: PopularityDistribution) -> CacheDesign:
    """Evaluate the cache model at ``params.n_streams`` total streams.

    Requires finite ``size_mems`` and ``size_disk`` (the hit rate comes
    from the capacity fraction).  Raises
    :class:`~repro.errors.AdmissionError` when either device class is
    over-committed.
    """
    return CacheDesign(params, policy, *cache_operating_point(
        params, policy, popularity, params.n_streams))


def cache_operating_point(params: SystemParameters, policy: CachePolicy,
                          popularity: PopularityDistribution,
                          n_streams: float
                          ) -> tuple[float, float, float, float, float,
                                     float]:
    """Theorems 3/4 at ``n_streams`` streams, without building a design.

    Returns the :class:`CacheDesign` fields after ``policy`` —
    ``(cached_fraction, hit_rate, n_cache_streams, n_disk_streams,
    s_mems_dram, s_disk_dram)`` — of ``design_mems_cache(
    params.replace(n_streams=n_streams), ...)`` bit for bit, and raises
    what it raises; ``params.n_streams`` is ignored.  The planner
    solves through this, so probing a population builds no parameter
    set.
    """
    if params.size_mems is None or params.size_disk is None:
        raise ConfigurationError(
            "the cache model needs finite size_mems and size_disk")
    p = cache_capacity_fraction(policy, params.k, params.size_mems,
                                params.size_disk)
    h = popularity.hit_rate(p)
    n_cache = h * n_streams
    n_disk = (1.0 - h) * n_streams
    s_mems = cache_buffer(policy, n_cache, params.bit_rate, params.k,
                          params.r_mems, params.l_mems)
    s_disk = min_buffer_direct(n_disk, params.bit_rate, params.r_disk,
                               params.l_disk)
    return p, h, n_cache, n_disk, s_mems, s_disk
