"""The unified configuration planner.

One :class:`Planner` answers, for any ``(SystemParameters,
Configuration)`` pair, the three questions every layer of the
reproduction asks:

* :meth:`Planner.plan` — the forward solve: DRAM demand and cycle
  structure at a population (``params.n_streams``, or an explicit
  ``n_streams`` argument; Theorems 1-4 and the hybrid split), returned
  as a :class:`~repro.planner.plan.Plan` with feasibility diagnostics
  instead of exceptions;
* :meth:`Planner.max_streams` — the continuous inverse: the largest
  admissible population under a DRAM budget (Figures 9/10 sweeps,
  hybrid split scans);
* :meth:`Planner.capacity` — the integer inverse with admission
  semantics (the loss-system capacity the Erlang-B comparisons and the
  online runtime use).

Every solve is memoized in a :class:`~repro.planner.cache.PlanCache`
keyed on the population-free parameter set (``params.base``), the
configuration and — for forward solves — the population, so figure
sweeps, Erlang-B capacity queries, and runtime epoch re-planning stop
recomputing identical solves; any other ``params.replace(...)``
produces a new key and therefore a fresh solve.  A process-wide
:func:`default_planner` serves the stateless wrappers in
:mod:`repro.planner.throughput` and :mod:`repro.planner.hybrid`; components
with their own lifecycle (the online runtime) construct a private
planner so its counters describe just that run.
"""

from __future__ import annotations

from repro.core.buffer_model import buffer_operating_point
from repro.core.cache_model import (
    cache_buffer,
    cache_capacity_fraction,
    cache_operating_point,
)
from repro.core.parameters import SystemParameters
from repro.core.theorems import max_streams_direct, min_buffer_direct
from repro.errors import (
    AdmissionError,
    CapacityError,
    ConfigurationError,
    SchedulingError,
    require,
)
from repro.planner.cache import PlanCache
from repro.planner.configuration import Configuration, ConfigurationKind
from repro.planner.incremental import (
    hinted_max_feasible_int,
    hinted_max_feasible_real,
)
from repro.planner.plan import Plan
from repro.planner.search import DEFAULT_INT_LIMIT

#: Exceptions that mean "this operating point is infeasible", as opposed
#: to a malformed request (ConfigurationError, which always propagates).
_FEASIBILITY_ERRORS = (AdmissionError, CapacityError, SchedulingError)


class Planner:
    """Memoizing solver for every server configuration.

    Beyond the memo, the planner keeps *warm-start hints*: the last
    inverse answer per sweep axis — keyed ``("real" | "int", params
    sans n_streams, configuration)`` — seeds the hint-bracketed
    searches of :mod:`repro.planner.incremental` on the next solve for
    the same axis, and callers with cross-axis knowledge (admission
    control, runtime re-planning) can pass an explicit ``hint=``.
    Hints never enter cache keys and never change answers (the hinted
    searches are bit-identical to cold by construction); they only cut
    probe counts, which :meth:`stats` reports.  ``warm_start=False``
    disables both the axis state and explicit hints — every search runs
    cold — which is what the warm-vs-cold benchmarks and equivalence
    tests compare against.
    """

    def __init__(self, *, cache: PlanCache | None = None,
                 warm_start: bool = True) -> None:
        self._cache = cache if cache is not None else PlanCache()
        self._warm_start = bool(warm_start)
        self._hints: dict[tuple, float | int] = {}
        self._probes_cold = 0
        self._probes_warm = 0
        self._solves_cold = 0
        self._solves_warm = 0

    @property
    def cache(self) -> PlanCache:
        """The memoization store (counters, clear)."""
        return self._cache

    @property
    def warm_start(self) -> bool:
        """Whether inverse solves reuse hints (answers never change)."""
        return self._warm_start

    def stats(self) -> dict[str, int]:
        """Cache counters plus inverse-search probe counters.

        ``probes_cold``/``probes_warm`` count real predicate
        evaluations inside unhinted/hinted searches;
        ``solves_cold``/``solves_warm`` count the searches themselves
        (closed-form DIRECT answers and memoized repeats probe nothing
        and are not counted).
        """
        stats = self._cache.stats()
        stats["probes_cold"] = self._probes_cold
        stats["probes_warm"] = self._probes_warm
        stats["solves_cold"] = self._solves_cold
        stats["solves_warm"] = self._solves_warm
        return stats

    def _counted(self, predicate, *, warm: bool):
        """Wrap a feasibility predicate with the probe counters."""
        if warm:
            self._solves_warm += 1
        else:
            self._solves_cold += 1

        def counted_predicate(n):
            if warm:
                self._probes_warm += 1
            else:
                self._probes_cold += 1
            return predicate(n)

        return counted_predicate

    # -- Forward solve -------------------------------------------------------

    def plan(self, params: SystemParameters, configuration: Configuration,
             n_streams: float | None = None, *,
             quantise: bool = False) -> Plan:
        """Solve ``configuration`` at ``n_streams`` streams.

        ``n_streams`` defaults to ``params.n_streams``; when given,
        ``params.n_streams`` is ignored.  Solves are memoized under
        ``(params.base, configuration, n, quantise)``, so a caller
        holding a population-free parameter set (the admission
        controller, the capacity probes, the runtime's replans) solves
        any population without building a parameter set for it.
        Infeasible operating points come back as ``Plan(feasible=False)``
        with the diagnosing exception attached (see
        :meth:`~repro.planner.plan.Plan.require`); malformed requests
        raise :class:`~repro.errors.ConfigurationError` eagerly.
        ``quantise`` requests the integer-M MEMS cycle of Eq. 8 for
        buffer configurations (the Theorem 2 default elsewhere in the
        library is the unquantised closed form).
        """
        n = params.n_streams if n_streams is None else n_streams
        if n < 0:
            raise ConfigurationError(f"n_streams must be >= 0, got {n!r}")
        base = params.base
        key = ("plan", base, configuration, n, quantise)
        return self._cache.get_or_compute(
            key, lambda: self._solve_plan(base, configuration, n, quantise))

    def _solve_plan(self, base: SystemParameters,
                    configuration: Configuration, n: float,
                    quantise: bool) -> Plan:
        kind = configuration.kind
        try:
            if kind is ConfigurationKind.DIRECT:
                return self._plan_direct(base, configuration, n)
            if kind is ConfigurationKind.BUFFER:
                return self._plan_buffer(base, configuration, n, quantise)
            if kind is ConfigurationKind.CACHE:
                return self._plan_cache(base, configuration, n)
            if kind is ConfigurationKind.PREFIX:
                return self._plan_prefix(base, configuration, n)
            return self._plan_hybrid(base, configuration, n)
        except _FEASIBILITY_ERRORS as exc:
            return Plan(base=base, n_streams=n, configuration=configuration,
                        feasible=False, failure=exc)

    @staticmethod
    def _effective_params(params: SystemParameters,
                          configuration: Configuration) -> SystemParameters:
        if configuration.k is None or configuration.k == params.k:
            return params
        return params.replace(k=configuration.k)

    def _plan_direct(self, base: SystemParameters,
                     configuration: Configuration, n: float) -> Plan:
        per_stream = min_buffer_direct(n, base.bit_rate, base.r_disk,
                                       base.l_disk)
        return Plan(base=base, n_streams=n, configuration=configuration,
                    feasible=True, per_stream_dram=per_stream,
                    total_dram=n * per_stream,
                    t_disk=per_stream / base.bit_rate if n else None)

    def _plan_buffer(self, base: SystemParameters,
                     configuration: Configuration, n: float,
                     quantise: bool) -> Plan:
        solve = self._effective_params(base, configuration)
        t_disk, floor, _, per_stream, _, t_mems = buffer_operating_point(
            solve, n, quantise=quantise)
        return Plan(base=solve, n_streams=n, configuration=configuration,
                    feasible=True, per_stream_dram=per_stream,
                    total_dram=n * per_stream, t_disk=t_disk,
                    t_mems=t_mems, cycle_floor=floor, quantise=quantise)

    def _plan_cache(self, base: SystemParameters,
                    configuration: Configuration, n: float) -> Plan:
        solve = self._effective_params(base, configuration)
        require(configuration.policy is not None
                and configuration.popularity is not None,
                "cache Configuration validated without policy/popularity")
        fraction, hit_rate, n_cache, n_disk, s_mems, s_disk = \
            cache_operating_point(solve, configuration.policy,
                                  configuration.popularity, n)
        # CacheDesign.total_dram, in its summation order.
        total = n_cache * s_mems + n_disk * s_disk
        return Plan(base=solve, n_streams=n, configuration=configuration,
                    feasible=True,
                    per_stream_dram=total / n if n else 0.0,
                    total_dram=total, capacity_fraction=fraction,
                    hit_rate=hit_rate)

    def _plan_prefix(self, base: SystemParameters,
                     configuration: Configuration, n: float) -> Plan:
        """The prefix-cache demand model of :mod:`repro.vod`.

        ``n`` counts *sessions*; ``fanout`` of them share each IO
        stream (batched multicast joins read the shared stream's DRAM
        buffer, charging no capacity of their own).  Of the resulting
        IO streams, the expected ``mems_fraction`` load is served from
        the MEMS-resident prefixes at cache service quality (Eqs.
        12/13) and the remainder streams tails from the disk at
        Theorem 1 quality — the same expected-value split the
        whole-stream cache model uses, applied per byte instead of per
        title.  Total demand is strictly increasing in the population,
        so the inverse capacity searches apply unchanged.
        """
        solve = self._effective_params(base, configuration)
        require(configuration.policy is not None
                and configuration.mems_fraction is not None
                and configuration.fanout is not None,
                "prefix Configuration validated without policy/"
                "mems_fraction/fanout")
        fraction = configuration.mems_fraction
        n_io = n / configuration.fanout
        n_mems = fraction * n_io
        n_disk = (1.0 - fraction) * n_io
        dram_mems = 0.0
        if n_mems > 0:
            dram_mems = n_mems * cache_buffer(
                configuration.policy, n_mems, solve.bit_rate,
                solve.k, solve.r_mems, solve.l_mems)
        dram_disk = 0.0
        if n_disk > 0:
            dram_disk = n_disk * min_buffer_direct(
                n_disk, solve.bit_rate, solve.r_disk, solve.l_disk)
        total = dram_mems + dram_disk
        return Plan(base=solve, n_streams=n, configuration=configuration,
                    feasible=True,
                    per_stream_dram=total / n if n else 0.0,
                    total_dram=total, hit_rate=fraction)

    def _plan_hybrid(self, base: SystemParameters,
                     configuration: Configuration, n: float) -> Plan:
        if base.size_mems is None or base.size_disk is None:
            raise ConfigurationError(
                "hybrid analysis needs finite size_mems and size_disk")
        require(configuration.policy is not None
                and configuration.popularity is not None
                and configuration.k_cache is not None,
                "hybrid Configuration validated without policy/"
                "popularity/k_cache")
        policy = configuration.policy
        k_cache = configuration.k_cache
        k_buffer = configuration.k_buffer
        require(k_buffer is not None,
                "hybrid Configuration yielded no k_buffer split")
        if k_cache == 0:
            fraction = 0.0
            hit_rate = 0.0
        else:
            fraction = cache_capacity_fraction(policy, k_cache,
                                               base.size_mems,
                                               base.size_disk)
            hit_rate = configuration.popularity.hit_rate(fraction)
        n_cache = hit_rate * n
        n_disk = (1.0 - hit_rate) * n
        t_disk = floor = None
        if n_cache > 0:
            dram_cache = n_cache * cache_buffer(
                policy, n_cache, base.bit_rate, k_cache, base.r_mems,
                base.l_mems)
        else:
            dram_cache = 0.0
        if n_disk > 0:
            if k_buffer > 0:
                t_disk, floor, _, per_stream, _, _ = buffer_operating_point(
                    base.replace(k=k_buffer), n_disk, quantise=False)
                dram_disk = n_disk * per_stream
            else:
                dram_disk = n_disk * min_buffer_direct(
                    n_disk, base.bit_rate, base.r_disk, base.l_disk)
        else:
            dram_disk = 0.0
        total = dram_cache + dram_disk
        return Plan(base=base, n_streams=n, configuration=configuration,
                    feasible=True,
                    per_stream_dram=total / n if n else 0.0,
                    total_dram=total, t_disk=t_disk, cycle_floor=floor,
                    capacity_fraction=fraction, hit_rate=hit_rate)

    # -- Inverse solves ------------------------------------------------------

    def max_streams(self, params: SystemParameters,
                    configuration: Configuration,
                    dram_budget: float, *,
                    hint: float | None = None) -> float:
        """Largest (continuous) population feasible within the budget.

        ``params.n_streams`` is ignored.  DIRECT uses the Theorem 1
        closed form; the other configurations run the warm-startable
        doubling+bisection of :mod:`repro.planner.incremental` over
        :meth:`plan` feasibility.  ``hint`` optionally seeds the search
        with a previous answer; with no explicit hint the planner's own
        per-axis state applies.  The result is bit-identical either
        way.
        """
        if dram_budget < 0:
            raise ConfigurationError(
                f"dram_budget must be >= 0, got {dram_budget!r}")
        base = params.base
        key = ("max_streams", base, configuration, dram_budget)
        return self._cache.get_or_compute(
            key,
            lambda: self._solve_max_streams(base, configuration,
                                            dram_budget,
                                            ("real", base, configuration),
                                            hint))

    def _demand(self, params: SystemParameters,
                configuration: Configuration):
        """Memoized population -> DRAM-demand function for one sweep axis.

        The doubling+bisection searches probe the same populations over
        and over across nearby budgets (the doubling phase always walks
        1, 2, 4, ...), and each probe through :meth:`plan` pays a full
        cache-key hash.  This keys a small ``n -> total_dram`` dict on
        the budget-independent part of the query — ``(params.base,
        configuration)`` — so repeated sweep points are one dict
        lookup; a new point is one population-argument :meth:`plan`,
        which builds no parameter set.  Infeasible points
        are recorded as ``inf`` (matching :meth:`Plan.fits`, which is
        false for them at any budget).  The dict lives *inside* the
        :class:`~repro.planner.cache.PlanCache` — visible in the cache
        counters like every other solve — but **pinned**: the search
        mutates this captured dict across dozens of ``plan`` insertions,
        and under a small cache the LRU bound could otherwise evict the
        entry mid-search, silently detaching the live memo and
        double-counting every later axis query as a fresh miss.  Pinned
        demand memos are small (one float per probed population) and
        one-per-axis, so exempting them from eviction costs little.
        """
        base = params.base
        memo: dict[float, float] = self._cache.get_or_compute(
            ("demand", base, configuration), dict, pin=True)

        def total_dram(n: float) -> float:
            value = memo.get(n)
            if value is None:
                plan = self.plan(base, configuration, n)
                value = plan.total_dram if plan.feasible else float("inf")
                memo[n] = value
            return value

        return total_dram

    def _resolve_hint(self, axis: tuple, hint):
        """Explicit hint first, then the axis state; None when cold."""
        if not self._warm_start:
            return None
        if hint is not None:
            return hint
        return self._hints.get(axis)

    def _solve_max_streams(self, params: SystemParameters,
                           configuration: Configuration,
                           dram_budget: float, axis: tuple,
                           hint: float | None) -> float:
        if configuration.kind is ConfigurationKind.DIRECT:
            return max_streams_direct(params.bit_rate, params.r_disk,
                                      params.l_disk, dram_budget)
        chosen = self._resolve_hint(axis, hint)
        demand = self._demand(params, configuration)
        result = hinted_max_feasible_real(
            self._counted(lambda n: demand(n) <= dram_budget,
                          warm=chosen is not None),
            hint=chosen)
        if self._warm_start:
            self._hints[axis] = result
        return result

    def capacity(self, params: SystemParameters,
                 configuration: Configuration, dram_budget: float, *,
                 limit: int = DEFAULT_INT_LIMIT,
                 hint: int | None = None) -> int:
        """Largest integer population feasible within the budget.

        The admission-control capacity search (the loss-system capacity
        Erlang-B predictions compare against); ``limit`` bounds the
        doubling.  ``params.n_streams`` is ignored.  ``hint``
        optionally seeds the search with a previous capacity (see
        :meth:`max_streams`); the answer is bit-identical regardless.
        """
        base = params.base
        key = ("capacity", base, configuration, dram_budget, limit)
        axis = ("int", base, configuration)

        def solve() -> int:
            chosen = self._resolve_hint(axis, hint)
            demand = self._demand(base, configuration)
            result = hinted_max_feasible_int(
                self._counted(lambda n: demand(n) <= dram_budget,
                              warm=chosen is not None),
                hint=chosen, limit=limit)
            if self._warm_start:
                self._hints[axis] = result
            return result

        return self._cache.get_or_compute(key, solve)


_DEFAULT_PLANNER: Planner | None = None


def default_planner() -> Planner:
    """The process-wide shared planner (lazy singleton).

    The stateless wrappers in :mod:`repro.planner.throughput`,
    :mod:`repro.planner.hybrid`, and the experiment runners all share this
    instance, so repeated sweeps (e.g. re-running a figure, or the
    headline-note re-queries inside one) hit its cache.
    """
    global _DEFAULT_PLANNER
    if _DEFAULT_PLANNER is None:
        _DEFAULT_PLANNER = Planner()
    return _DEFAULT_PLANNER
