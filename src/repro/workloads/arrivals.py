"""Session arrivals and admission blocking.

The paper sizes servers for a fixed concurrent population; a server
operator also needs to know how often arriving viewers are *turned
away* when the admission controller is full.  This module provides the
classic loss-system machinery:

* :func:`erlang_b` — the Erlang-B blocking probability for a
  ``capacity``-server loss system at a given offered load, computed by
  the numerically stable recurrence;
* :func:`simulate_blocking` — an event simulation of Poisson session
  arrivals with exponentially distributed holding (viewing) times over
  an admission capacity, reporting the empirical blocking probability
  and occupancy statistics.

Together with :mod:`repro.planner.throughput` (which converts DRAM budget
and device configuration into an admission capacity), this answers
questions like "how much blocking does adding a MEMS buffer remove at
the same DRAM budget?".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


def erlang_b(offered_load: float, capacity: int) -> float:
    """Erlang-B blocking probability.

    ``offered_load`` is in Erlangs (arrival rate x mean holding time).
    Uses the recurrence ``B(0) = 1``,
    ``B(c) = a B(c-1) / (c + a B(c-1))``, which is stable for large
    capacities.
    """
    if offered_load < 0:
        raise ConfigurationError(
            f"offered_load must be >= 0, got {offered_load!r}")
    if capacity < 0:
        raise ConfigurationError(
            f"capacity must be >= 0, got {capacity!r}")
    blocking = 1.0
    for servers in range(1, capacity + 1):
        blocking = (offered_load * blocking
                    / (servers + offered_load * blocking))
    return blocking


def predicted_blocking(arrival_rate: float, mean_holding: float,
                       capacity: int) -> float:
    """Erlang-B prediction for a session workload against a capacity.

    Convenience wrapper used by the online runtime: the offered load is
    ``arrival_rate * mean_holding`` Erlangs.
    """
    if arrival_rate < 0:
        raise ConfigurationError(
            f"arrival_rate must be >= 0, got {arrival_rate!r}")
    if mean_holding <= 0:
        raise ConfigurationError(
            f"mean_holding must be > 0, got {mean_holding!r}")
    return erlang_b(arrival_rate * mean_holding, capacity)


@dataclass(frozen=True)
class BlockingStats:
    """Outcome of a blocking simulation."""

    arrivals: int
    blocked: int
    #: Time-averaged number of concurrent sessions.
    mean_occupancy: float
    #: Largest concurrent population observed.
    peak_occupancy: int
    #: Simulated horizon, seconds.
    horizon: float

    @property
    def blocking_probability(self) -> float:
        """Fraction of arrivals rejected."""
        if self.arrivals == 0:
            return 0.0
        return self.blocked / self.arrivals


def simulate_blocking(*, capacity: int, arrival_rate: float,
                      mean_holding: float, horizon: float,
                      seed: int = 0) -> BlockingStats:
    """Simulate a Poisson/exponential loss system over ``horizon`` seconds.

    ``capacity`` is the admission limit (e.g. from
    :func:`repro.planner.throughput.streams_supported`); ``arrival_rate`` in
    sessions/second; ``mean_holding`` in seconds.  An arrival finding
    ``capacity`` sessions active is blocked and lost (no retries),
    matching the Erlang-B model.
    """
    if capacity < 0:
        raise ConfigurationError(f"capacity must be >= 0, got {capacity!r}")
    if arrival_rate <= 0:
        raise ConfigurationError(
            f"arrival_rate must be > 0, got {arrival_rate!r}")
    if mean_holding <= 0:
        raise ConfigurationError(
            f"mean_holding must be > 0, got {mean_holding!r}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon!r}")

    rng = np.random.default_rng(seed)
    departures: list[float] = []  # min-heap of active session end times
    now = 0.0
    arrivals = 0
    blocked = 0
    occupancy_area = 0.0
    last_event = 0.0
    peak = 0
    while True:
        now += rng.exponential(1.0 / arrival_rate)
        if now >= horizon:
            break
        # Retire finished sessions (integrating occupancy over time).
        while departures and departures[0] <= now:
            end = heapq.heappop(departures)
            occupancy_area += len(departures) * 0.0  # heap already popped
            occupancy_area += (end - last_event) * (len(departures) + 1)
            last_event = end
        occupancy_area += (now - last_event) * len(departures)
        last_event = now
        arrivals += 1
        if len(departures) >= capacity:
            blocked += 1
            continue
        heapq.heappush(departures, now + rng.exponential(mean_holding))
        peak = max(peak, len(departures))
    # Drain the occupancy integral to the horizon.
    while departures and departures[0] <= horizon:
        end = heapq.heappop(departures)
        occupancy_area += (end - last_event) * (len(departures) + 1)
        last_event = end
    occupancy_area += (horizon - last_event) * len(departures)
    return BlockingStats(arrivals=arrivals, blocked=blocked,
                         mean_occupancy=occupancy_area / horizon,
                         peak_occupancy=peak, horizon=horizon)
