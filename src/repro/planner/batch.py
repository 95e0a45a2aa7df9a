"""Vectorized batch twins of the planner's forward and inverse solves.

The scalar planner answers one ``(SystemParameters, Configuration)``
query per Python call; a figure sweep therefore pays interpreter
dispatch per point (~70k solves/s in ``BENCH_figure6_sweep``).  This
module evaluates whole *axes* of queries per numpy array operation:

* :func:`demand_curve` — the forward solve of
  :meth:`~repro.planner.solver.Planner.plan` over a population axis,
  for every :class:`~repro.planner.configuration.ConfigurationKind`;
* :func:`batch_max_streams` — the continuous inverse of
  :meth:`~repro.planner.solver.Planner.max_streams` over a lane axis of
  ``(params, configuration, budget)`` triples, replaying the
  doubling+bisection search of :mod:`repro.planner.search` with masked
  array updates (and the Theorem 1 closed form for DIRECT lanes);
* the per-theorem kernels (:func:`direct_total_dram`,
  :func:`buffer_total_dram`, ...) for callers that sweep a non-population
  axis, e.g. the Figure 7 latency-ratio study varying ``l_mems``.

Bit-identity contract (pinned by ``tests/test_planner_batch.py``, the
same contract as the PR 4 parallel sweep and the PR 5 device fast
paths): every kernel replicates the *exact floating-point operation
order* of its scalar twin, so batch results equal scalar results to the
last bit — including the convention that an infeasible operating point
(scalar: a caught feasibility exception) is ``inf`` demand, matching
``Planner._demand``.  Eager :class:`~repro.errors.ConfigurationError`
conditions (malformed requests) raise here exactly as they do in the
scalar path; only *feasibility* failures become ``inf`` lanes.

Masked divisions evaluate the formula on infeasible lanes too (the
result is discarded by ``np.where``), so kernels run under
``np.errstate`` with divide/invalid warnings suppressed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.cache_model import CachePolicy, cache_capacity_fraction
from repro.core.parameters import SystemParameters
from repro.errors import ConfigurationError, require
from repro.planner.configuration import Configuration, ConfigurationKind
from repro.planner.search import (
    MAX_BISECTIONS,
    MAX_DOUBLINGS,
    PROBE_SEED,
    REL_TOL,
)

__all__ = [
    "batch_max_streams",
    "buffer_total_dram",
    "cache_total_dram",
    "demand_at",
    "demand_curve",
    "direct_total_dram",
    "hybrid_total_dram",
    "max_streams_direct_batch",
    "prefix_total_dram",
]

_INF = float("inf")

#: The suppressed-warning context every kernel computes under: masked
#: lanes legitimately divide by zero or subtract infinities.
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


# -- Forward kernels (total-DRAM demand; inf where infeasible) ---------------

def direct_total_dram(n, *, bit_rate, r_disk, l_disk):
    """Theorem 1 aggregate demand ``N * S(N)``; ``inf`` at saturation.

    Twin of ``Planner._plan_direct`` /
    :func:`repro.core.theorems.min_buffer_direct`.  All arguments
    broadcast.
    """
    with np.errstate(**_QUIET):
        load = n * bit_rate
        per_stream = n * l_disk * r_disk * bit_rate / (r_disk - load)
        total = n * per_stream
        return np.where(load >= r_disk, _INF, total)


def buffer_total_dram(n, *, bit_rate, r_disk, l_disk, r_mems, l_mems, k,
                      bank_capacity):
    """Theorem 2 aggregate demand for a ``k``-device MEMS buffer.

    Twin of ``design_mems_buffer(..., quantise=False).total_dram`` with
    every feasibility exception (bank saturation, disk saturation,
    Eq. 6/7 conflict, undrainable disk cycle) mapped to ``inf``.
    ``bank_capacity`` is ``k * size_mems`` in bytes, or ``inf`` for the
    paper's unlimited-MEMS relaxation (``size_mems=None``).
    """
    with np.errstate(**_QUIET):
        disk_load = n * bit_rate
        doubled_load = 2.0 * (n + k - 1) * bit_rate
        bank_rate = k * r_mems
        infeasible = (disk_load >= r_disk) | (doubled_load >= bank_rate)
        floor = (n * l_mems * r_mems) / (bank_rate - doubled_load)
        # io_cycle_direct: Theorem 1 buffer divided back to a cycle.
        lower = n * l_disk * r_disk * bit_rate / (r_disk - disk_load) \
            / bit_rate
        t_disk = bank_capacity / (2.0 * n * bit_rate)
        infeasible |= t_disk < lower
        slack = 1.0 + (2.0 * k - 2.0) / n
        s_unbounded = bit_rate * floor * slack
        infeasible |= np.isfinite(t_disk) & (t_disk <= floor)
        s_bounded = (bit_rate * floor * slack
                     * t_disk / (t_disk - floor))
        s_mems_dram = np.where(np.isinf(t_disk), s_unbounded, s_bounded)
        total = np.where(infeasible, _INF, n * s_mems_dram)
        # A zero population short-circuits to an all-zero design before
        # any bandwidth check in the scalar path.
        return np.where(n == 0, 0.0, total)


def _cache_service_dram(n_cached, *, bit_rate, k, r_mems, l_mems, striped):
    """(per-stream Eq. 12/13 buffer, infeasible mask) at ``n_cached``.

    Twin of :func:`repro.core.cache_model.cache_buffer`; ``striped``
    selects Theorem 3 vs Theorem 4 elementwise.
    """
    bank_rate = k * r_mems
    load_s = n_cached * bit_rate
    s_striped = (n_cached * l_mems * bank_rate * bit_rate
                 / (bank_rate - load_s))
    effective = n_cached + k - 1
    load_r = effective * bit_rate
    s_replicated = ((effective / k) * l_mems * bank_rate * bit_rate
                    / (bank_rate - load_r))
    s = np.where(striped, s_striped, s_replicated)
    bad = np.where(striped, load_s >= bank_rate, load_r >= bank_rate)
    served = n_cached > 0.0  # n_cached == 0 returns 0.0 before any check
    return np.where(served, s, 0.0), bad & served


def cache_total_dram(n, *, hit_rate, bit_rate, r_disk, l_disk, r_mems,
                     l_mems, k, striped):
    """Theorems 3/4 aggregate demand for a whole-title MEMS cache.

    Twin of ``design_mems_cache(...).total_dram`` at a precomputed hit
    rate ``h`` (the capacity fraction and Eq. 11 stay scalar — they do
    not depend on the population axis).
    """
    with np.errstate(**_QUIET):
        n_cache = hit_rate * n
        n_disk = (1.0 - hit_rate) * n
        s_mems, bad_mems = _cache_service_dram(
            n_cache, bit_rate=bit_rate, k=k, r_mems=r_mems, l_mems=l_mems,
            striped=striped)
        disk_load = n_disk * bit_rate
        s_disk = n_disk * l_disk * r_disk * bit_rate / (r_disk - disk_load)
        s_disk = np.where(n_disk == 0, 0.0, s_disk)
        bad_disk = (n_disk > 0.0) & (disk_load >= r_disk)
        total = n_cache * s_mems + n_disk * s_disk
        return np.where(bad_mems | bad_disk, _INF, total)


def prefix_total_dram(n, *, mems_fraction, fanout, bit_rate, r_disk, l_disk,
                      r_mems, l_mems, k, striped):
    """Prefix-cache aggregate demand (the :mod:`repro.vod` model).

    Twin of ``Planner._plan_prefix``: ``n`` counts *sessions*,
    ``fanout`` of which share each IO stream; the expected
    ``mems_fraction`` byte share is served at cache service quality and
    the rest at Theorem 1 quality.
    """
    with np.errstate(**_QUIET):
        n_io = n / fanout
        n_mems = mems_fraction * n_io
        n_disk = (1.0 - mems_fraction) * n_io
        s_mems, bad_mems = _cache_service_dram(
            n_mems, bit_rate=bit_rate, k=k, r_mems=r_mems, l_mems=l_mems,
            striped=striped)
        dram_mems = np.where(n_mems > 0.0, n_mems * s_mems, 0.0)
        disk_load = n_disk * bit_rate
        per_disk = n_disk * l_disk * r_disk * bit_rate \
            / (r_disk - disk_load)
        dram_disk = np.where(n_disk > 0.0, n_disk * per_disk, 0.0)
        bad_disk = (n_disk > 0.0) & (disk_load >= r_disk)
        total = dram_mems + dram_disk
        return np.where(bad_mems | bad_disk, _INF, total)


def hybrid_total_dram(n, *, hit_rate, k_cache, k_buffer, bit_rate, r_disk,
                      l_disk, r_mems, l_mems, size_mems, striped):
    """Hybrid split-bank aggregate demand (Section 7 future work).

    Twin of ``Planner._plan_hybrid`` at a precomputed hit rate:
    ``k_cache`` devices cache whole titles, ``k_buffer`` devices buffer
    the disk-served remainder (Theorem 2), a zero ``k_buffer`` streams
    the remainder directly (Theorem 1).
    """
    with np.errstate(**_QUIET):
        n_cache = hit_rate * n
        n_disk = (1.0 - hit_rate) * n
        s_cache, bad_cache = _cache_service_dram(
            n_cache, bit_rate=bit_rate, k=k_cache, r_mems=r_mems,
            l_mems=l_mems, striped=striped)
        dram_cache = np.where(n_cache > 0.0, n_cache * s_cache, 0.0)
        buffered = buffer_total_dram(
            n_disk, bit_rate=bit_rate, r_disk=r_disk, l_disk=l_disk,
            r_mems=r_mems, l_mems=l_mems, k=k_buffer,
            bank_capacity=k_buffer * size_mems)
        disk_load = n_disk * bit_rate
        per_direct = n_disk * l_disk * r_disk * bit_rate \
            / (r_disk - disk_load)
        direct = np.where(n_disk > 0.0, n_disk * per_direct, 0.0)
        bad_direct = (n_disk > 0.0) & (disk_load >= r_disk)
        use_buffer = k_buffer > 0
        dram_disk = np.where(use_buffer, buffered, direct)
        bad_disk = np.where(use_buffer, np.isinf(buffered), bad_direct)
        total = dram_cache + np.where(bad_disk, 0.0, dram_disk)
        return np.where(bad_cache | bad_disk, _INF, total)


# -- Lane compilation --------------------------------------------------------

def _effective(params: SystemParameters,
               configuration: Configuration) -> SystemParameters:
    """``Planner._effective_params``: the configuration's ``k`` wins."""
    if configuration.k is None or configuration.k == params.k:
        return params
    return params.replace(k=configuration.k)


def _hit_rate(params: SystemParameters, configuration: Configuration,
              k: int) -> float:
    """Eq. 11 hit rate at the lane's capacity fraction (scalar)."""
    require(configuration.policy is not None
            and configuration.popularity is not None,
            "cache/hybrid Configuration validated without "
            "policy/popularity")
    fraction = cache_capacity_fraction(configuration.policy, k,
                                       params.size_mems, params.size_disk)
    return configuration.popularity.hit_rate(fraction)


def _compile_demand(lanes: Sequence[tuple[SystemParameters, Configuration]]):
    """Build ``totals(n)`` for same-kind lanes, broadcast lane-aligned.

    Returns a closure evaluating the lane's aggregate DRAM demand at a
    population array ``n`` (shape-compatible with the lane axis), with
    ``inf`` on infeasible lanes — the vector twin of
    ``Planner._demand``.  Per-lane scalars that do not depend on the
    population (capacity fractions, hit rates) are computed here, once,
    through the *scalar* code path so they match bit for bit.
    """
    kind = lanes[0][1].kind
    if kind is ConfigurationKind.HYBRID:
        return _compile_hybrid_demand(lanes)
    effective = [_effective(params, cfg) for params, cfg in lanes]

    def column(attr: str) -> np.ndarray:
        return np.array([getattr(p, attr) for p in effective],
                        dtype=np.float64)

    bit_rate = column("bit_rate")
    r_disk = column("r_disk")
    l_disk = column("l_disk")

    if kind is ConfigurationKind.DIRECT:
        return lambda n: direct_total_dram(
            n, bit_rate=bit_rate, r_disk=r_disk, l_disk=l_disk)

    r_mems = column("r_mems")
    l_mems = column("l_mems")

    if kind is ConfigurationKind.BUFFER:
        k = column("k")
        bank_capacity = np.array(
            [_INF if p.mems_bank_capacity is None else p.mems_bank_capacity
             for p in effective], dtype=np.float64)
        return lambda n: buffer_total_dram(
            n, bit_rate=bit_rate, r_disk=r_disk, l_disk=l_disk,
            r_mems=r_mems, l_mems=l_mems, k=k, bank_capacity=bank_capacity)

    if kind is ConfigurationKind.CACHE:
        for params in effective:
            if params.size_mems is None or params.size_disk is None:
                raise ConfigurationError(
                    "the cache model needs finite size_mems and size_disk")
        k = column("k")
        hit = np.array(
            [_hit_rate(params, cfg, params.k)
             for params, (_, cfg) in zip(effective, lanes)],
            dtype=np.float64)
        striped = np.array([cfg.policy is CachePolicy.STRIPED
                            for _, cfg in lanes])
        return lambda n: cache_total_dram(
            n, hit_rate=hit, bit_rate=bit_rate, r_disk=r_disk,
            l_disk=l_disk, r_mems=r_mems, l_mems=l_mems, k=k,
            striped=striped)

    require(kind is ConfigurationKind.PREFIX,
            f"unknown configuration kind {kind!r}")
    k = column("k")
    fraction = np.array([cfg.mems_fraction for _, cfg in lanes],
                        dtype=np.float64)
    fanout = np.array([cfg.fanout for _, cfg in lanes], dtype=np.float64)
    striped = np.array([cfg.policy is CachePolicy.STRIPED
                        for _, cfg in lanes])
    return lambda n: prefix_total_dram(
        n, mems_fraction=fraction, fanout=fanout, bit_rate=bit_rate,
        r_disk=r_disk, l_disk=l_disk, r_mems=r_mems, l_mems=l_mems,
        k=k, striped=striped)


def _compile_hybrid_demand(
        lanes: Sequence[tuple[SystemParameters, Configuration]]):
    """Hybrid lanes read the raw params (no ``_effective_params``)."""
    raw = [params for params, _ in lanes]
    for params in raw:
        if params.size_mems is None or params.size_disk is None:
            raise ConfigurationError(
                "hybrid analysis needs finite size_mems and size_disk")
    bit_rate = np.array([p.bit_rate for p in raw], dtype=np.float64)
    r_disk = np.array([p.r_disk for p in raw], dtype=np.float64)
    l_disk = np.array([p.l_disk for p in raw], dtype=np.float64)
    r_mems = np.array([p.r_mems for p in raw], dtype=np.float64)
    l_mems = np.array([p.l_mems for p in raw], dtype=np.float64)
    size_mems = np.array([p.size_mems for p in raw], dtype=np.float64)
    k_cache = np.array([cfg.k_cache for _, cfg in lanes], dtype=np.float64)
    k_buffer = np.array([cfg.k_buffer for _, cfg in lanes], dtype=np.float64)
    hit = np.array(
        [0.0 if cfg.k_cache == 0 else _hit_rate(params, cfg, cfg.k_cache)
         for params, cfg in lanes], dtype=np.float64)
    striped = np.array([cfg.policy is CachePolicy.STRIPED
                        for _, cfg in lanes])
    return lambda n: hybrid_total_dram(
        n, hit_rate=hit, k_cache=k_cache, k_buffer=k_buffer,
        bit_rate=bit_rate, r_disk=r_disk, l_disk=l_disk, r_mems=r_mems,
        l_mems=l_mems, size_mems=size_mems, striped=striped)


# -- Public batch solves -----------------------------------------------------

def demand_curve(params: SystemParameters, configuration: Configuration,
                 populations) -> np.ndarray:
    """Aggregate DRAM demand at each population; ``inf`` if infeasible.

    Element ``i`` equals
    ``planner.plan(params, configuration, populations[i]).total_dram`` (or ``inf`` when that plan is
    infeasible) to the last bit.
    """
    n = np.asarray(populations, dtype=np.float64)
    if np.any(n < 0):
        raise ConfigurationError(
            "n_streams must be >= 0 everywhere on the population axis")
    return _compile_demand([(params, configuration)])(n)


def demand_at(lanes: Sequence[tuple[SystemParameters, Configuration]],
              population: float) -> np.ndarray:
    """Aggregate DRAM demand of each lane at one shared population.

    The candidate-evaluation twin of :func:`demand_curve`: one
    population, many ``(params, configuration)`` lanes (each lane's
    ``params.n_streams`` is ignored).  Element ``i`` equals
    ``planner.plan(lanes[i][0], lanes[i][1], population).total_dram``
    (or ``inf`` when that plan is infeasible) to the last bit.  Lanes are grouped by configuration kind, so a
    mixed slate (say a cache policy against a prefix spelling) batches
    within each kind.  The epoch placement controllers use this to
    judge their candidate policies in one vector evaluation instead of
    one scalar planner solve per candidate.
    """
    if population < 0:
        raise ConfigurationError(
            f"population must be >= 0, got {population!r}")
    items = list(lanes)
    out = np.empty(len(items), dtype=np.float64)
    by_kind: dict[ConfigurationKind, list[int]] = {}
    for index, (_, configuration) in enumerate(items):
        by_kind.setdefault(configuration.kind, []).append(index)
    for indices in by_kind.values():
        demand = _compile_demand([items[i] for i in indices])
        out[indices] = demand(np.full(len(indices), float(population)))
    return out


def max_streams_direct_batch(budgets, *, bit_rate, r_disk, l_disk):
    """Vector twin of :func:`repro.core.theorems.max_streams_direct`.

    All arguments broadcast; budgets must be ``>= 0`` (checked by the
    caller, as in ``Planner.max_streams``).
    """
    with np.errstate(**_QUIET):
        bandwidth_bound = r_disk / bit_rate
        a = l_disk * r_disk * bit_rate
        b = budgets * bit_rate
        c = -budgets * r_disk
        root = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        bounded = np.minimum(root, bandwidth_bound)
        # Scalar branch order: a zero budget answers 0.0 even at zero
        # latency; zero latency otherwise answers the bandwidth bound.
        return np.where(budgets == 0, 0.0,
                        np.where(l_disk == 0, bandwidth_bound, bounded))


def _masked_max_feasible(demand, budgets: np.ndarray) -> np.ndarray:
    """Replay ``max_feasible_real`` on every lane with masked updates.

    Each lane evolves its own ``lo``/``hi`` bracket through exactly the
    probe sequence the scalar search would take (the doubling ladder is
    lane-independent: 1, 2, 4, ...; the bisection midpoints are
    per-lane), so the result is bit-identical per lane.  Lanes whose
    vanishing-load probe already fails answer 0.0, as in the scalar
    search.
    """
    lanes = budgets.shape[0]
    feasible = demand(np.full(lanes, PROBE_SEED)) <= budgets
    lo = np.full(lanes, PROBE_SEED)
    hi = np.ones(lanes)
    growing = feasible.copy()
    for _ in range(MAX_DOUBLINGS):
        if not growing.any():
            break
        grow = growing & (demand(hi) <= budgets)
        lo = np.where(grow, hi, lo)
        hi = np.where(grow, hi * 2.0, hi)
        growing = grow
    if growing.any():  # pragma: no cover - needs absurd parameters
        raise ConfigurationError(
            "feasible region appears unbounded; check the budget constraint")
    done = ~feasible
    for _ in range(MAX_BISECTIONS):
        if done.all():
            break
        mid = 0.5 * (lo + hi)
        fits = demand(mid) <= budgets
        active = ~done
        lo = np.where(active & fits, mid, lo)
        hi = np.where(active & ~fits, mid, hi)
        # The scalar loop tests convergence after each update.
        done |= hi - lo <= REL_TOL * np.maximum(hi, 1.0)
    return np.where(feasible, lo, 0.0)


def batch_max_streams(
        items: Sequence[tuple[SystemParameters, Configuration, float]],
) -> list[float]:
    """Largest feasible populations for many lanes at once.

    Element ``i`` equals ``planner.max_streams(*items[i])`` to the last
    bit (the hinted scalar searches are bit-identical to cold by the
    PR 5 contract, so one vectorized cold replay answers for both).
    Lanes are grouped by configuration kind; DIRECT lanes use the
    closed form and the rest share masked doubling+bisection searches.
    """
    lanes = list(items)
    for _, _, budget in lanes:
        if budget < 0:
            raise ConfigurationError(
                f"dram_budget must be >= 0, got {budget!r}")
    out = np.empty(len(lanes), dtype=np.float64)
    by_kind: dict[ConfigurationKind, list[int]] = {}
    for index, (_, configuration, _) in enumerate(lanes):
        by_kind.setdefault(configuration.kind, []).append(index)
    for kind, indices in by_kind.items():
        budgets = np.array([lanes[i][2] for i in indices], dtype=np.float64)
        if kind is ConfigurationKind.DIRECT:
            out[indices] = max_streams_direct_batch(
                budgets,
                bit_rate=np.array([lanes[i][0].bit_rate for i in indices]),
                r_disk=np.array([lanes[i][0].r_disk for i in indices]),
                l_disk=np.array([lanes[i][0].l_disk for i in indices]))
            continue
        demand = _compile_demand([(lanes[i][0], lanes[i][1])
                                  for i in indices])
        out[indices] = _masked_max_feasible(demand, budgets)
    return [float(v) for v in out]
