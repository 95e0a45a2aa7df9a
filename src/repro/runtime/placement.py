"""Adaptive MEMS-cache placement for the online runtime.

The paper's cache configuration picks the cached titles once, from an
assumed popularity distribution.  Online, popularity drifts; this
module closes the loop:

1. every admission is *observed* (per-title counters aged by an
   exponentially weighted moving average, so old traffic fades);
2. at each epoch the titles are re-ranked, the cached set becomes the
   top titles that fit the bank, and the differences are *migrations*
   (titles staged onto / evicted from the MEMS bank between cycles);
3. the cache design (Theorems 3/4) is re-solved against the observed
   :class:`~repro.core.popularity.EmpiricalPopularity` — through the
   unified planning layer, so an epoch whose traffic and population
   match a previous solve replays it from the planner's cache —
   choosing whichever policy (striped / replicated) needs less DRAM
   for the live population.

The chosen design then becomes the admission controller's demand model
for the next epoch (see :meth:`AdmissionController.reconfigure`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache_model import (
    CacheDesign,
    CachePolicy,
    cache_capacity_fraction,
)
from repro.core.parameters import SystemParameters
from repro.core.popularity import EmpiricalPopularity, checked_prior
from repro.errors import ConfigurationError
from repro.planner.batch import demand_at
from repro.planner.configuration import Configuration
from repro.planner.plan import Plan
from repro.planner.solver import Planner, default_planner


@dataclass(frozen=True)
class PlacementDecision:
    """Outcome of one epoch's re-planning."""

    policy: CachePolicy
    #: Titles resident on the MEMS bank after the migration, sorted.
    cached_titles: tuple[int, ...]
    #: Titles staged onto the bank this epoch, sorted.
    migrations_in: tuple[int, ...]
    #: Titles evicted from the bank this epoch, sorted.
    migrations_out: tuple[int, ...]
    #: Popularity model fitted to the observed traffic.
    popularity: EmpiricalPopularity
    #: The chosen policy's plan at the live population; None when no
    #: policy is schedulable at that population (the runtime must shed
    #: load).
    plan: Plan | None
    #: Admission capacity under the chosen model, pre-solved with the
    #: previous epoch's capacity as a warm-start hint; None when the
    #: caller passed no ``dram_budget`` to :meth:`replan`.
    capacity: int | None = None

    @property
    def design(self) -> CacheDesign | None:
        """Cache design at the live population (None when infeasible);
        built from :attr:`plan` on first read."""
        return None if self.plan is None else self.plan.design


class AdaptivePlacement:
    """Tracks observed popularity and re-plans the cached title set."""

    def __init__(self, n_titles: int, *, decay: float = 0.5,
                 prior_weights: np.ndarray | None = None,
                 prior_strength: float = 10.0,
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
        self.n_titles = n_titles
        self.decay = decay
        # Aged score per title.  Seeding with the assumed distribution
        # lets a cold server start from the designed-for placement
        # instead of an arbitrary one.
        self._scores = np.zeros(n_titles)
        if prior_weights is not None:
            self._scores += prior_strength * checked_prior(prior_weights,
                                                           n_titles)
        self._epoch_counts = np.zeros(n_titles)
        self._cached: tuple[int, ...] = ()
        self._cached_mask = np.zeros(n_titles, dtype=bool)
        self._planner = planner if planner is not None else default_planner()
        # Last epoch's capacity, threaded into the next epoch's solve as
        # a warm-start hint.  Popularity drift gives every epoch a fresh
        # configuration (so the planner's per-axis state never matches);
        # this explicit hint is what keeps re-planning incremental.
        self._capacity_hint: int | None = None

    @property
    def planner(self) -> Planner:
        """The planner this placement solves its epoch designs through."""
        return self._planner

    @property
    def cached_titles(self) -> tuple[int, ...]:
        """Titles currently resident on the MEMS bank, sorted."""
        return self._cached

    def observe(self, title: int) -> None:
        """Record one admission for ``title`` in the current epoch."""
        if not 0 <= title < self.n_titles:
            raise ConfigurationError(
                f"title must be in [0, {self.n_titles}), got {title!r}")
        self._epoch_counts[title] += 1.0

    def observe_block(self, titles: np.ndarray) -> None:
        """Record one arrival per entry of ``titles``, in one operation.

        The vectorized twin of :meth:`observe` for the runtime's
        bulk paths: per-title counts are order-insensitive within an
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

    def replan(self, params: SystemParameters, n_active: float, *,
               dram_budget: float | None = None) -> PlacementDecision:
        """Close the epoch: age scores, re-rank, migrate, re-solve.

        ``params.k`` / ``params.size_mems`` reflect the *surviving*
        bank, so the same path serves both drift adaptation and
        post-failure shrinkage.  ``n_active`` is the live population the
        design is evaluated at.  When ``dram_budget`` is given the
        admission capacity under the chosen model is pre-solved here —
        hinted by the previous epoch's capacity — so the admission
        controller's post-``reconfigure`` query replays it from the
        planner cache instead of searching cold.
        """
        if n_active < 0:
            raise ConfigurationError(
                f"n_active must be >= 0, got {n_active!r}")
        if params.size_mems is None or params.size_disk is None:
            raise ConfigurationError(
                "adaptive placement needs finite size_mems and size_disk")
        self._scores = self.scores()
        self._epoch_counts = np.zeros(self.n_titles)
        popularity = EmpiricalPopularity.from_counts(self._scores)

        best_policy: CachePolicy | None = None
        best_plan: Plan | None = None
        # Judge both candidate policies in one batch-demand evaluation
        # (bit-identical to the scalar solves; ``inf`` marks an
        # infeasible candidate).  Only the winner pays a scalar planner
        # solve, at the live population — that is the plan whose design
        # the decision carries and the admission controller replays
        # from the planner cache.
        specs = {policy: Configuration.cache(policy, popularity)
                 for policy in (CachePolicy.REPLICATED, CachePolicy.STRIPED)}
        demands = demand_at([(params, spec) for spec in specs.values()],
                            n_active)
        best_dram = float("inf")
        for policy, dram in zip(specs, demands):
            if dram < best_dram:
                best_policy = policy
                best_dram = float(dram)
        if best_policy is not None:
            best_plan = self._planner.plan(params, specs[best_policy],
                                           n_active)
        else:
            # Neither policy is schedulable at this population; report
            # under the replicated geometry so the caller can shed load
            # and re-plan.
            best_policy = CachePolicy.REPLICATED

        fraction = cache_capacity_fraction(best_policy, params.k,
                                           params.size_mems,
                                           params.size_disk)
        n_cacheable = int(np.floor(fraction * self.n_titles + 1e-9))
        # Stable ranking: higher score first, lower title id on ties.
        ranked = np.argsort(-self._scores, kind="stable")
        new_mask = np.zeros(self.n_titles, dtype=bool)
        new_mask[ranked[:n_cacheable]] = True
        old_mask = self._cached_mask
        capacity: int | None = None
        if dram_budget is not None:
            capacity = self._planner.capacity(
                params, specs[best_policy], dram_budget,
                hint=self._capacity_hint)
            self._capacity_hint = capacity
        decision = PlacementDecision(
            policy=best_policy,
            cached_titles=_titles(new_mask),
            migrations_in=_titles(new_mask & ~old_mask),
            migrations_out=_titles(old_mask & ~new_mask),
            popularity=popularity,
            plan=best_plan,
            capacity=capacity)
        self._cached = decision.cached_titles
        self._cached_mask = new_mask
        return decision


def _titles(mask: np.ndarray) -> tuple[int, ...]:
    """The titles a boolean mask selects, ascending, as Python ints."""
    return tuple(np.flatnonzero(mask).tolist())
