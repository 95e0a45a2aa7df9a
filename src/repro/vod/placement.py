"""Epoch controller for the prefix-cache placement mode.

The prefix-mode analogue of
:class:`repro.runtime.placement.AdaptivePlacement`: it observes
admissions, ages per-title scores by an EWMA, and at each epoch

1. fits an :class:`~repro.core.popularity.EmpiricalPopularity` to the
   observed traffic;
2. re-sizes the startup-covering *base* prefix against the live
   IO-stream population (:func:`repro.vod.prefix.base_prefix_bytes`) —
   heavier tail load means a longer disk cycle and therefore longer
   prefixes;
3. re-runs :class:`repro.vod.replacement.AdaptiveReplacement` under
   both bank policies (replication keeps one copy per device; striping
   aggregates capacity) and keeps whichever feasible policy needs less
   DRAM at the live population, solved through the unified planner as
   a PREFIX :class:`~repro.planner.configuration.Configuration`;
4. pre-solves the admission capacity (in IO streams) with the previous
   epoch's capacity as a warm-start hint, so the admission controller's
   post-``reconfigure`` query replays from the planner cache.

The diff between the old and new allocations is reported as
promotions, demotions and resizes — the migration traffic an operator
would watch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache_model import CachePolicy
from repro.core.parameters import SystemParameters
from repro.core.popularity import EmpiricalPopularity, checked_prior
from repro.errors import ConfigurationError
from repro.planner.batch import demand_at
from repro.planner.configuration import Configuration
from repro.planner.solver import Planner, default_planner

from repro.vod.prefix import PrefixAllocation, base_prefix_bytes
from repro.vod.replacement import AdaptiveReplacement

#: Base-prefix sizing never assumes fewer concurrent IO streams than
#: this: a cold server still sizes for a plausible startup population.
_MIN_SIZING_POPULATION = 16.0


@dataclass(frozen=True)
class PrefixDecision:
    """Outcome of one epoch's prefix re-planning."""

    policy: CachePolicy
    #: The per-title residency chosen for the coming epoch.
    allocation: PrefixAllocation
    #: Popularity model fitted to the observed traffic.
    popularity: EmpiricalPopularity
    #: Expected byte share served from MEMS (the demand model's ``h``).
    mems_fraction: float
    #: The planner spelling of the demand model, in IO-stream units
    #: (``fanout=1``: the admission controller counts streams).
    spec: Configuration
    #: Whether the chosen policy is schedulable at the live population
    #: (False means the runtime must shed streams and re-plan).
    feasible: bool
    #: Titles whose prefixes were staged onto the bank this epoch.
    promoted: tuple[int, ...]
    #: Titles whose prefixes were evicted this epoch.
    demoted: tuple[int, ...]
    #: Titles resident across the epoch whose prefix length changed.
    resized: tuple[int, ...]
    #: Admission capacity (IO streams) under the new model, pre-solved
    #: with the previous epoch's capacity as a warm-start hint; None
    #: when the caller passed no ``dram_budget``.
    capacity: int | None = None

    # Aliases matching PlacementDecision, so the runtime's migration
    # bookkeeping handles either decision type unchanged.

    @property
    def migrations_in(self) -> tuple[int, ...]:
        return self.promoted

    @property
    def migrations_out(self) -> tuple[int, ...]:
        return self.demoted

    @property
    def cached_titles(self) -> tuple[int, ...]:
        return self.allocation.resident_titles


class PrefixPlacement:
    """Tracks observed popularity and re-plans the resident prefixes."""

    def __init__(self, n_titles: int, *, decay: float = 0.5,
                 prior_weights: np.ndarray | None = None,
                 prior_strength: float = 10.0,
                 safety: float = 2.0, floor_seconds: float = 1.0,
                 window_cap: float = 120.0, hysteresis: float = 0.2,
                 planner: Planner | None = None) -> None:
        if n_titles < 1:
            raise ConfigurationError(
                f"n_titles must be >= 1, got {n_titles!r}")
        if not 0.0 <= decay < 1.0:
            raise ConfigurationError(
                f"decay must be in [0, 1), got {decay!r}")
        if prior_strength < 0:
            raise ConfigurationError(
                f"prior_strength must be >= 0, got {prior_strength!r}")
        if safety <= 0:
            raise ConfigurationError(f"safety must be > 0, got {safety!r}")
        if floor_seconds < 0:
            raise ConfigurationError(
                f"floor_seconds must be >= 0, got {floor_seconds!r}")
        if window_cap <= 0:
            raise ConfigurationError(
                f"window_cap must be > 0, got {window_cap!r}")
        self.n_titles = n_titles
        self.decay = decay
        self.safety = safety
        self.floor_seconds = floor_seconds
        self.window_cap = window_cap
        self._scores = np.zeros(n_titles)
        if prior_weights is not None:
            self._scores += prior_strength * checked_prior(prior_weights,
                                                           n_titles)
        self._epoch_counts = np.zeros(n_titles)
        self._replacement = AdaptiveReplacement(hysteresis=hysteresis)
        self._allocation: PrefixAllocation | None = None
        self._bit_rate: float | None = None
        self._planner = planner if planner is not None else default_planner()
        # Last epoch's capacity, threaded into the next epoch's solve as
        # a warm-start hint (every epoch's h is fresh, so the planner's
        # per-axis state never matches without it).
        self._capacity_hint: int | None = None

    @property
    def planner(self) -> Planner:
        """The planner this placement solves its epoch designs through."""
        return self._planner

    @property
    def allocation(self) -> PrefixAllocation | None:
        """The residency chosen by the last :meth:`replan` (None cold)."""
        return self._allocation

    @property
    def resident_titles(self) -> tuple[int, ...]:
        """Titles with a resident prefix after the last replan."""
        if self._allocation is None:
            return ()
        return self._allocation.resident_titles

    def is_resident(self, title: int) -> bool:
        """True when ``title`` has any prefix on the bank."""
        if not 0 <= title < self.n_titles:
            raise ConfigurationError(
                f"title must be in [0, {self.n_titles}), got {title!r}")
        if self._allocation is None:
            return False
        return self._allocation.prefix_bytes[title] > 0

    def window_seconds(self, title: int) -> float:
        """Batching window of ``title``: its prefix's playback duration."""
        if self._allocation is None or self._bit_rate is None:
            return 0.0
        return self._allocation.window_seconds(title, self._bit_rate)

    def observe(self, title: int) -> None:
        """Record one admission for ``title`` in the current epoch."""
        if not 0 <= title < self.n_titles:
            raise ConfigurationError(
                f"title must be in [0, {self.n_titles}), got {title!r}")
        self._epoch_counts[title] += 1.0

    def observe_block(self, titles: np.ndarray) -> None:
        """Record one arrival per entry of ``titles``, in one operation.

        The vectorized twin of :meth:`observe` for the runtime's
        bulk paths; per-title counts are order-insensitive within an
        epoch, so a whole window lands as one scatter-add.
        """
        titles = np.asarray(titles)
        if len(titles) and not (0 <= int(titles.min())
                                and int(titles.max()) < self.n_titles):
            raise ConfigurationError(
                f"titles must be in [0, {self.n_titles})")
        np.add.at(self._epoch_counts, titles, 1.0)

    def scores(self) -> np.ndarray:
        """Aged per-title scores including the in-flight epoch."""
        return self.decay * self._scores + self._epoch_counts

    def _weights(self) -> np.ndarray:
        """Observed per-title access probabilities (uniform when cold)."""
        total = float(self._scores.sum())
        if total <= 0:
            return np.full(self.n_titles, 1.0 / self.n_titles)
        return self._scores / total

    def replan(self, params: SystemParameters, n_io_active: float, *,
               dram_budget: float | None = None) -> PrefixDecision:
        """Close the epoch: age scores, re-allocate prefixes, re-solve.

        ``params.k`` / ``params.size_mems`` reflect the *surviving*
        bank; ``n_io_active`` is the live **IO-stream** population (not
        sessions — batched joins ride for free).  When ``dram_budget``
        is given the admission capacity under the chosen model is
        pre-solved here, hinted by the previous epoch's capacity.
        """
        if n_io_active < 0:
            raise ConfigurationError(
                f"n_io_active must be >= 0, got {n_io_active!r}")
        if params.size_mems is None or params.size_disk is None:
            raise ConfigurationError(
                "prefix placement needs finite size_mems and size_disk")
        self._scores = self.scores()
        self._epoch_counts = np.zeros(self.n_titles)
        popularity = EmpiricalPopularity.from_counts(self._scores)
        weights = self._weights()

        title_bytes = params.size_disk / self.n_titles
        max_bytes = min(self.window_cap * params.bit_rate, title_bytes)
        population = max(float(n_io_active), _MIN_SIZING_POPULATION)
        base = min(base_prefix_bytes(params, population=population,
                                     safety=self.safety,
                                     floor=self.floor_seconds), max_bytes)
        previous = self._allocation
        resident = previous.resident_titles if previous is not None else ()

        # Build both bank policies' candidate allocations (and their
        # planner spellings), then judge them in one batch-demand
        # evaluation — bit-identical to the scalar solves, with ``inf``
        # marking an infeasible candidate.  No candidate pays a scalar
        # planner solve; the winner's spec is what the admission
        # controller reconfigures onto.
        slates: list[tuple[CachePolicy, PrefixAllocation, float,
                           Configuration]] = []
        for policy in (CachePolicy.REPLICATED, CachePolicy.STRIPED):
            budget = (params.k * params.size_mems
                      if policy is CachePolicy.STRIPED else params.size_mems)
            allocation = self._replacement.rebalance(
                self._scores, base_bytes=base, max_bytes=max_bytes,
                budget_bytes=budget, title_bytes=title_bytes,
                resident=resident)
            fraction = allocation.mems_fraction(weights)
            slates.append((policy, allocation, fraction,
                           Configuration.prefix(policy, fraction)))
        demands = demand_at([(params, spec)
                             for _, _, _, spec in slates], n_io_active)
        best: tuple[CachePolicy, PrefixAllocation, float,
                    Configuration] | None = None
        best_dram = float("inf")
        for slate, dram in zip(slates, demands):
            if dram < best_dram:
                best = slate
                best_dram = float(dram)
        feasible = best is not None
        if best is None:
            # Neither policy carries the live streams; report under the
            # replicated geometry (rebalance is deterministic, so the
            # replicated slate is exactly what a fresh rebalance under
            # the replicated budget would build) so the caller can shed
            # and re-plan.
            best = slates[0]
        policy, allocation, fraction, spec = best

        capacity: int | None = None
        if dram_budget is not None:
            capacity = self._planner.capacity(params, spec, dram_budget,
                                              hint=self._capacity_hint)
            self._capacity_hint = capacity

        promoted, demoted, resized = _diff(previous, allocation)
        self._allocation = allocation
        self._bit_rate = params.bit_rate
        return PrefixDecision(policy=policy, allocation=allocation,
                              popularity=popularity,
                              mems_fraction=fraction, spec=spec,
                              feasible=feasible, promoted=promoted,
                              demoted=demoted, resized=resized,
                              capacity=capacity)


def _diff(previous: PrefixAllocation | None, current: PrefixAllocation
          ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Promotions, demotions and resizes between two allocations."""
    if previous is None:
        return current.resident_titles, (), ()
    old = previous.sizes > 0
    new = current.sizes > 0
    tolerance = 1e-9 * current.title_bytes
    moved = np.abs(previous.sizes - current.sizes) > tolerance
    return (_titles(new & ~old), _titles(old & ~new),
            _titles(old & new & moved))


def _titles(mask: np.ndarray) -> tuple[int, ...]:
    """The titles a boolean mask selects, ascending, as Python ints."""
    return tuple(np.flatnonzero(mask).tolist())
