"""Playback startup latency per server configuration.

The paper sizes for steady-state throughput; an interactive VoD user
also cares how long after pressing *play* the first frame arrives.
Time-cycle scheduling bounds this structurally:

* **direct** (disk -> DRAM): the new stream waits for its slot in the
  current IO cycle — at worst one full cycle ``T``, on average half.
* **MEMS buffer** (disk -> MEMS -> DRAM): data must traverse the
  pipeline.  With the double-buffered staging discipline that the
  real-time guarantee needs (see
  :mod:`repro.simulation.pipelines`), a stream's DRAM reads begin one
  disk cycle after its first disk IO lands — a worst case of about
  ``2 * T_disk + T_mems``.  Because ``T_disk`` is huge (that is the
  whole point of the buffer), a practical server *bypasses* the bank
  for a new stream's first cycles, serving it disk->DRAM until its
  pipeline warms; the bypass startup is one disk IO's service time
  plus the cycle-slot wait, the same order as the direct case.
* **MEMS cache** (cache hit): one cache cycle — the shortest of all,
  and one of the cache's under-advertised benefits: popular content
  starts nearly instantly.

All bounds are *worst case over arrival phase*; the expected value over
a uniformly random arrival is half the cycle-wait term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.buffer_model import BufferDesign
from repro.core.cache_model import CacheDesign
from repro.core.parameters import SystemParameters
from repro.core.theorems import io_cycle_direct
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StartupLatency:
    """Startup-latency bounds for one configuration, seconds."""

    #: Worst case over arrival phase.
    worst: float
    #: Expected value over a uniformly random arrival phase.
    expected: float
    #: Human-readable configuration label.
    configuration: str

    def __post_init__(self) -> None:
        if self.worst < self.expected - 1e-12:
            raise ConfigurationError(
                f"worst ({self.worst!r}) below expected ({self.expected!r})")


def direct_startup(params: SystemParameters, *,
                   n_streams: float | None = None) -> StartupLatency:
    """Startup of the plain disk-to-DRAM server.

    The arriving stream's first IO is scheduled in the next cycle slot:
    worst case one full cycle plus its own IO service, expected half a
    cycle plus the service.  ``n_streams`` overrides
    ``params.n_streams``.
    """
    n = params.n_streams if n_streams is None else n_streams
    t_cycle = io_cycle_direct(n, params.bit_rate, params.r_disk,
                              params.l_disk)
    io_service = params.l_disk + params.bit_rate * t_cycle / params.r_disk
    return StartupLatency(worst=t_cycle + io_service,
                          expected=t_cycle / 2.0 + io_service,
                          configuration="direct")


def buffered_startup(design: BufferDesign, *,
                     bypass: bool = True) -> StartupLatency:
    """Startup of the MEMS-buffered server.

    ``bypass=True`` (default) models the practical policy: the new
    stream's first data is read disk->DRAM directly while its pipeline
    warms; startup is one disk cycle-slot wait plus one *small* direct
    IO (a MEMS cycle's worth, not a disk cycle's worth).
    ``bypass=False`` is the naive pipeline fill: the stream waits for
    its disk IO, its landing on the bank, and the double-buffer delay.
    """
    params = design.params
    if design.t_mems is None:
        # Unquantised/unbounded design: fall back on the floor cycle.
        t_mems = design.cycle_floor
    else:
        t_mems = design.t_mems
    if bypass:
        # One slot wait in the disk cycle, then a direct read of one
        # MEMS cycle's worth of data at the disk's service quality.
        slot_wait = 0.0 if math.isinf(design.t_disk) else design.t_disk
        io_service = params.l_disk + params.bit_rate * t_mems / params.r_disk
        return StartupLatency(worst=slot_wait + io_service,
                              expected=slot_wait / 2.0 + io_service,
                              configuration="buffer (bypass)")
    if math.isinf(design.t_disk):
        raise ConfigurationError(
            "naive pipeline-fill startup needs a finite disk cycle")
    # Three disk-cycle-scale stages: wait for a slot in the disk cycle
    # (up to T_disk), wait for the read to land on the bank (up to
    # another T_disk of landing cadence), and the double-buffer delay
    # (exactly one T_disk) before the stream's DRAM reads start.
    worst = 3.0 * design.t_disk + t_mems
    expected = 2.0 * design.t_disk + t_mems
    return StartupLatency(worst=worst, expected=expected,
                          configuration="buffer (pipeline fill)")


def cache_startup(design: CacheDesign) -> StartupLatency:
    """Startup of a cache-served stream: one cache IO cycle."""
    params = design.params
    if design.n_cache_streams <= 0:
        raise ConfigurationError(
            "no streams are served from the cache in this design")
    t_cycle = design.s_mems_dram / params.bit_rate
    io_service = params.l_mems + design.s_mems_dram / params.r_mems
    return StartupLatency(worst=t_cycle + io_service,
                          expected=t_cycle / 2.0 + io_service,
                          configuration="cache")


def startup_comparison(params: SystemParameters, design: BufferDesign,
                       cache: CacheDesign | None = None
                       ) -> list[StartupLatency]:
    """Side-by-side startup bounds for the available configurations."""
    results = [direct_startup(params),
               buffered_startup(design, bypass=True),
               buffered_startup(design, bypass=True)
               if math.isinf(design.t_disk) else
               buffered_startup(design, bypass=False)]
    if cache is not None and cache.n_cache_streams > 0:
        results.append(cache_startup(cache))
    return results
