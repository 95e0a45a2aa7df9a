"""The planner's result type: one solved operating point.

A :class:`Plan` is the answer to "run *this* configuration with *these*
parameters": the per-stream and total DRAM demand, the cycle structure
(``T_disk`` / ``T_mems`` / the MEMS cycle floor ``C``), the cache
geometry (cached-content fraction and hit rate), and — when the
operating point is infeasible — the diagnosis instead of an exception.
Callers that want the legacy raising behaviour chain through
:meth:`Plan.require`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.buffer_model import design_mems_buffer
from repro.core.cache_model import design_mems_cache
from repro.core.parameters import SystemParameters
from repro.errors import ReproError
from repro.planner.configuration import Configuration, ConfigurationKind


@dataclass(frozen=True)
class Plan:
    """A solved (or diagnosed-infeasible) operating point.

    The planner solves one geometry at many populations, so a plan
    keeps the population-free parameter set and the population apart;
    :attr:`params` and :attr:`design` are built on first read, and a
    solve that nobody inspects beyond its numbers builds neither.
    """

    #: The parameter set the plan was solved with, ``n_streams`` zeroed.
    base: SystemParameters
    #: The stream population the plan was solved at.
    n_streams: float
    #: The configuration that was solved.
    configuration: Configuration
    #: False when the operating point is not schedulable; the DRAM and
    #: cycle fields are then zero/None and ``failure`` says why.
    feasible: bool
    #: Average per-stream DRAM demand, bytes (0 for an empty population).
    per_stream_dram: float = 0.0
    #: Aggregate DRAM demand, bytes.
    total_dram: float = 0.0
    #: Disk IO cycle, seconds (None when the configuration has none).
    t_disk: float | None = None
    #: MEMS IO cycle, seconds (None when unquantised or not applicable).
    t_mems: float | None = None
    #: MEMS cycle feasibility floor ``C``, seconds (buffer/hybrid).
    cycle_floor: float | None = None
    #: Cached-content fraction ``p`` (cache/hybrid configurations).
    capacity_fraction: float | None = None
    #: Cache hit rate ``h`` (cache/hybrid configurations).
    hit_rate: float | None = None
    #: Whether the solve asked for the integer-M MEMS cycle of Eq. 8.
    quantise: bool = False
    #: The feasibility failure, when ``feasible`` is False.
    failure: ReproError | None = field(default=None, compare=False,
                                       repr=False)

    @cached_property
    def params(self) -> SystemParameters:
        """The parameter set the plan was solved at."""
        return self.base.replace(n_streams=self.n_streams)

    @cached_property
    def design(self) -> object | None:
        """The underlying model design, for callers needing the full
        breakdown: the :class:`~repro.core.buffer_model.BufferDesign` of
        a buffer plan (of the buffered disk share for a hybrid plan),
        the :class:`~repro.core.cache_model.CacheDesign` of a cache
        plan, None otherwise.  Solved from :attr:`params` on first read
        by the same model functions as the plan, so it matches the
        plan's numbers bit for bit."""
        if not self.feasible:
            return None
        kind = self.configuration.kind
        if kind is ConfigurationKind.BUFFER:
            return design_mems_buffer(self.params, quantise=self.quantise)
        if kind is ConfigurationKind.CACHE:
            return design_mems_cache(self.params, self.configuration.policy,
                                     self.configuration.popularity)
        # A hybrid plan has a cycle exactly when its disk share was
        # buffered (some disk-served streams and a buffer-side device).
        if kind is ConfigurationKind.HYBRID and self.t_disk is not None:
            n_disk = (1.0 - self.hit_rate) * self.n_streams
            return design_mems_buffer(
                self.base.replace(n_streams=n_disk,
                                  k=self.configuration.k_buffer),
                quantise=False)
        return None

    @property
    def reason(self) -> str | None:
        """Human-readable infeasibility diagnosis (None when feasible)."""
        return None if self.failure is None else str(self.failure)

    def require(self) -> "Plan":
        """Return self, or raise the recorded feasibility failure.

        This restores the legacy contract of the forward models
        (``design_mems_buffer`` & co.), which raise
        :class:`~repro.errors.AdmissionError` /
        :class:`~repro.errors.CapacityError` at infeasible points.
        """
        if not self.feasible:
            if self.failure is None:
                raise RuntimeError(
                    "infeasible Plan constructed without a failure diagnosis")
            raise self.failure
        return self

    def fits(self, dram_budget: float) -> bool:
        """True when the plan is feasible within ``dram_budget`` bytes."""
        return self.feasible and self.total_dram <= dram_budget
