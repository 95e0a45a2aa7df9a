"""Admission control for a streaming server.

A server admits a new stream only if the resulting population is still
schedulable: the device keeps bandwidth slack (Theorems 1-4) and the
total DRAM buffer stays within the installed memory.  This module wraps
the analytical feasibility checks behind the interface an operator
would actually call, and is used by the server simulation and the
examples.

All solves go through the unified planning layer: the controller builds
a :class:`repro.planner.Configuration` for its current demand model and
asks a shared (or injected) :class:`repro.planner.Planner`, so repeated
capacity queries — e.g. the runtime's per-interval Erlang-B gauge —
are memoized rather than re-bisected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.cache_model import CachePolicy
from repro.core.parameters import SystemParameters
from repro.core.popularity import PopularityDistribution
from repro.errors import ConfigurationError
from repro.planner.configuration import Configuration
from repro.planner.search import DEFAULT_INT_LIMIT
from repro.planner.solver import Planner, default_planner


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission test."""

    admitted: bool
    #: Stream population if admitted (current + 1).
    n_streams: float
    #: Total DRAM the admitted population would need, bytes (None when
    #: the rejection was a bandwidth/capacity failure).  An admit below
    #: the capacity threshold solves it on first read.
    dram_required: float | None
    #: Human-readable reason for a rejection (None when admitted).
    reason: str | None = None


class _Admitted(AdmissionDecision):
    """An admitted decision whose ``dram_required`` resolves on first read.

    Admission at or below the capacity threshold needs no solve, and
    the runtime never reads an admit's DRAM (it asks
    :meth:`AdmissionController.dram_required` at the metrics seal and
    in recovery), so the demand is only computed if someone asks.  The
    demand model is captured at admission, so a later
    :meth:`AdmissionController.reconfigure` does not change the answer;
    the planner's plan cache answers the read.
    """

    def __init__(self, n_streams: int, planner: Planner,
                 params: SystemParameters, spec: Configuration) -> None:
        # Frozen: write the instance dict, as the dataclass __init__ does.
        vars(self).update(admitted=True, n_streams=n_streams, reason=None,
                          _model=(planner, params, spec))

    @cached_property
    def dram_required(self) -> float:
        planner, params, spec = self._model
        return planner.plan(params, spec, self.n_streams).require().total_dram


class AdmissionController:
    """Tracks the admitted population for one server configuration.

    ``configuration`` is ``"none"`` (plain disk-to-DRAM), ``"buffer"``
    (MEMS buffer, Theorem 2), or ``"cache"`` (MEMS cache, Theorems 3/4,
    which also needs ``policy`` and ``popularity``).  Demand models
    without a legacy string — the prefix mode of :mod:`repro.vod` —
    are passed directly as a planner ``spec``
    (:class:`repro.planner.Configuration`); ``spec`` and the legacy
    fields are mutually exclusive.  In prefix mode the admitted unit is
    an *IO stream*, not a session: the runtime calls :meth:`try_admit`
    only when an arrival opens a new shared stream, and batched joins
    ride for free.  ``planner`` injects a specific
    :class:`repro.planner.Planner` (e.g. the online runtime's, so its
    cache counters cover admission solves); by default the process-wide
    shared planner is used.
    """

    def __init__(self, params: SystemParameters, dram_budget: float, *,
                 configuration: str = "none",
                 policy: CachePolicy | None = None,
                 popularity: PopularityDistribution | None = None,
                 spec: Configuration | None = None,
                 planner: Planner | None = None) -> None:
        if dram_budget < 0:
            raise ConfigurationError(
                f"dram_budget must be >= 0, got {dram_budget!r}")
        if spec is not None:
            if configuration != "none" or policy is not None \
                    or popularity is not None:
                raise ConfigurationError(
                    "pass either spec= or the legacy configuration "
                    "fields, not both")
        else:
            self._check_configuration(configuration, policy, popularity)
        self._params = params.base
        self._dram_budget = dram_budget
        self._spec = spec
        self._configuration = (configuration if spec is None
                               else spec.kind.value)
        self._policy = policy if spec is None else spec.policy
        self._popularity = popularity if spec is None else spec.popularity
        self._planner = planner if planner is not None else default_planner()
        self._admitted = 0
        #: Capacity threshold under the current model (default ``limit``),
        #: or None when the model changed since it was last solved.
        self._capacity_value: int | None = None
        #: Last solved capacity, kept across :meth:`reconfigure` as the
        #: warm-start hint — the model rarely moves far in one step.
        self._capacity_hint: int | None = None
        #: Parked hints, keyed by demand-model kind: a reconfigure that
        #: swaps the model kind (cache -> none after a failure, say)
        #: re-keys the hint instead of seeding the new model's search
        #: with the old model's capacity.
        self._capacity_hints: dict[str, int] = {}
        #: Finalized *rejections* per candidate population.  A rejection
        #: leaves the controller untouched and its decision (including
        #: the formatted reason string) is a pure function of the
        #: candidate and the demand model, so an overloaded arrival
        #: storm replays one frozen decision instead of re-deriving it
        #: per arrival.  Cleared on every :meth:`reconfigure`.
        self._reject_memo: dict[int, AdmissionDecision] = {}
        #: The planner spelling of the legacy demand model, built once
        #: per model (cleared on :meth:`reconfigure`).
        self._spec_value: Configuration | None = None

    @staticmethod
    def _check_configuration(configuration: str,
                             policy: CachePolicy | None,
                             popularity: PopularityDistribution | None) -> None:
        if configuration not in ("none", "buffer", "cache"):
            raise ConfigurationError(
                f"configuration must be 'none', 'buffer' or 'cache', "
                f"got {configuration!r}")
        if configuration == "cache" and (policy is None or popularity is None):
            raise ConfigurationError(
                "cache configuration needs policy and popularity")

    @property
    def admitted_streams(self) -> int:
        """Streams currently admitted."""
        return self._admitted

    @property
    def dram_budget(self) -> float:
        """Installed DRAM in bytes."""
        return self._dram_budget

    @property
    def configuration(self) -> str:
        """Active configuration name: a legacy string, or the spec's
        kind value (e.g. ``'prefix'``) when running on a spec."""
        return self._configuration

    @property
    def planner(self) -> Planner:
        """The planner answering this controller's solves."""
        return self._planner

    def _configuration_spec(self) -> Configuration:
        """The planner spelling of the current demand model."""
        if self._spec is not None:
            return self._spec
        if self._spec_value is None:
            self._spec_value = Configuration.from_legacy(
                self._configuration, policy=self._policy,
                popularity=self._popularity)
        return self._spec_value

    def dram_required(self, n_streams: int | None = None) -> float:
        """DRAM the demand model charges for ``n_streams`` streams.

        Defaults to the currently admitted population.  One
        population-argument planner solve, answered by the plan cache
        on a repeat.  Raises :class:`~repro.errors.AdmissionError` /
        :class:`~repro.errors.CapacityError` when the population is not
        schedulable at all (bandwidth or MEMS-capacity exhaustion).
        """
        n = self._admitted if n_streams is None else n_streams
        if n < 0:
            raise ConfigurationError(f"n_streams must be >= 0, got {n!r}")
        return self._planner.plan(self._params, self._configuration_spec(),
                                  n).require().total_dram

    def reconfigure(self, *, params: SystemParameters | None = None,
                    configuration: str | None = None,
                    policy: CachePolicy | None = None,
                    popularity: PopularityDistribution | None = None,
                    dram_budget: float | None = None,
                    spec: Configuration | None = None) -> None:
        """Swap the demand model under a live population.

        The online runtime re-plans between service epochs (popularity
        drift, device failure): the admitted count is preserved and
        future :meth:`try_admit` calls are judged against the new model.
        Passing ``spec`` replaces the model wholesale (prefix mode does
        this every epoch — ``h`` moves with the observed popularity);
        the legacy fields update the string-named models and clear any
        previous spec.  The new population is *not* revalidated here —
        callers decide how to shed load if the survivors no longer fit
        (see :mod:`repro.runtime.failures`).

        A swap that changes the demand-model *kind* also re-keys the
        warm-start capacity hint: the parked hint of the new kind (if
        any) seeds the next solve, and the old kind's hint is parked
        for a possible swap back, so a search is never warm-started
        from a different model's answer.
        """
        old_kind = self._configuration
        if spec is not None:
            if configuration is not None or policy is not None \
                    or popularity is not None:
                raise ConfigurationError(
                    "pass either spec= or the legacy configuration "
                    "fields, not both")
            self._spec = spec
            self._configuration = spec.kind.value
            self._policy = spec.policy
            self._popularity = spec.popularity
        elif (configuration is not None or policy is not None
                or popularity is not None):
            base = "none" if self._spec is not None else self._configuration
            new_configuration = (base if configuration is None
                                 else configuration)
            new_policy = self._policy if policy is None else policy
            new_popularity = (self._popularity if popularity is None
                              else popularity)
            self._check_configuration(new_configuration, new_policy,
                                      new_popularity)
            self._spec = None
            self._configuration = new_configuration
            self._policy = new_policy
            self._popularity = new_popularity
        if dram_budget is not None:
            if dram_budget < 0:
                raise ConfigurationError(
                    f"dram_budget must be >= 0, got {dram_budget!r}")
            self._dram_budget = dram_budget
        if params is not None:
            self._params = params.base
        if self._configuration != old_kind:
            if self._capacity_hint is not None:
                self._capacity_hints[old_kind] = self._capacity_hint
            self._capacity_hint = self._capacity_hints.get(
                self._configuration)
        self._capacity_value = None
        self._reject_memo.clear()
        self._spec_value = None

    def capacity(self, *, limit: int = DEFAULT_INT_LIMIT,
                 hint: int | None = None) -> int:
        """Largest admissible population under the current model.

        Found by the planning layer's warm-startable doubling +
        bisection on the feasibility predicate (DRAM demand is strictly
        increasing in the population) and memoized there.  The
        controller additionally caches the threshold locally — only
        :meth:`reconfigure` invalidates it — and keeps the previous
        answer as the search hint, so re-solving after a small model
        step costs a couple of probes instead of a full bisection.
        This is the loss-system capacity the Erlang-B prediction
        compares against.  ``limit`` bounds the search; ``hint``
        optionally seeds it (e.g. a sibling configuration's capacity)
        and never changes the answer.
        """
        if limit == DEFAULT_INT_LIMIT and self._capacity_value is not None:
            return self._capacity_value
        if hint is None:
            hint = self._capacity_hint
        value = self._planner.capacity(self._params,
                                       self._configuration_spec(),
                                       self._dram_budget, limit=limit,
                                       hint=hint)
        if limit == DEFAULT_INT_LIMIT:
            self._capacity_value = value
            self._capacity_hint = value
        return value

    def try_admit(self) -> AdmissionDecision:
        """Test one more stream; admit it if the system stays feasible.

        Amortized O(1) per arrival: the candidate population is judged
        against the cached capacity threshold.  Between model changes
        the first call pays the (warm-started) capacity search; after
        that, a candidate at or below the threshold is feasible by
        monotonicity and is admitted with **zero** planner solves — its
        ``dram_required`` is computed only if read.  Past the threshold,
        one population-argument forward solve diagnoses the rejection
        (usually a plan-cache hit: the capacity search probed the
        population just past its answer), so rejections carry the same
        diagnosis and reason strings as an uncached check — including
        populations beyond a clamped search ``limit`` — and a repeat of
        the same rejection replays the frozen decision.
        """
        candidate = self._admitted + 1
        if candidate <= self.capacity():
            self._admitted = candidate
            return _Admitted(candidate, self._planner, self._params,
                             self._configuration_spec())
        replay = self._reject_memo.get(candidate)
        if replay is not None:
            return replay
        plan = self._planner.plan(self._params, self._configuration_spec(),
                                  candidate)
        if not plan.feasible:
            decision = AdmissionDecision(
                admitted=False, n_streams=self._admitted,
                dram_required=None, reason=plan.reason)
            self._reject_memo[candidate] = decision
            return decision
        dram = plan.total_dram
        if dram > self._dram_budget:
            decision = AdmissionDecision(
                admitted=False, n_streams=self._admitted, dram_required=dram,
                reason=(f"DRAM requirement {dram:.6g} B exceeds the budget "
                        f"{self._dram_budget:.6g} B"))
            self._reject_memo[candidate] = decision
            return decision
        self._admitted = candidate
        return AdmissionDecision(admitted=True, n_streams=candidate,
                                 dram_required=dram)

    def release(self, count: int = 1) -> None:
        """Return ``count`` streams to the pool (stream departure)."""
        if count < 0 or count > self._admitted:
            raise ConfigurationError(
                f"cannot release {count!r} of {self._admitted} streams")
        self._admitted -= count

    def fill(self) -> int:
        """Admit streams until the first rejection; return the count."""
        while self.try_admit().admitted:
            pass
        return self._admitted
