"""The one monotone-feasibility search engine behind every solver.

Every inverse question the reproduction asks — "how many streams does a
configuration admit under a DRAM budget?" — reduces to finding the
largest ``n`` for which a monotone feasibility predicate holds (the
forward DRAM models are strictly increasing in ``n``).  Historically
that search was implemented twice: a continuous doubling+bisection in
the core capacity solvers and an integer copy inside
:meth:`repro.scheduling.admission.AdmissionController.capacity`.  Both
now live here, with one set of tolerance constants, and every layer
(core wrappers, admission control, experiments, runtime) calls these.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError

#: Relative tolerance of the continuous bisection solver.
REL_TOL = 1e-9
#: Probe population of the continuous solver: the "vanishing load" at
#: which feasibility is first tested, and the initial lower bracket of
#: the doubling phase.  Small enough that any schedulable system admits
#: it, large enough to stay clear of denormal arithmetic.
PROBE_SEED = 1e-6
#: Bracket-growth bound of the doubling phase.
MAX_DOUBLINGS = 80
#: Iteration bound of the continuous bisection phase.
MAX_BISECTIONS = 120
#: Default population bound of the integer solver.
DEFAULT_INT_LIMIT = 10**6  # repro-lint: disable=unit-literals (a count, not bytes)


def max_feasible_real(predicate: Callable[[float], bool]) -> float:
    """Largest ``n >= 0`` with ``predicate(n)`` true, by doubling + bisection.

    ``predicate`` must be monotone (true on an interval ``[0, n*]``).
    Returns 0.0 when even a vanishing load is infeasible.
    """
    if not predicate(PROBE_SEED):
        return 0.0
    lo = PROBE_SEED
    hi = 1.0
    for _ in range(MAX_DOUBLINGS):
        if not predicate(hi):
            break
        lo = hi
        hi *= 2.0
    else:  # pragma: no cover - would need absurd parameters
        raise ConfigurationError(
            "feasible region appears unbounded; check the budget constraint")
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= REL_TOL * max(hi, 1.0):
            break
    return lo


def max_feasible_int(predicate: Callable[[int], bool], *,
                     limit: int = DEFAULT_INT_LIMIT) -> int:
    """Largest integer ``n >= 1`` with ``predicate(n)`` true, or 0.

    The integer twin of :func:`max_feasible_real`: doubling to bracket,
    then binary search.  ``limit`` bounds the search; the result never
    exceeds ``max(limit, 1)``.  This is the loss-system capacity search
    the Erlang-B comparisons rely on.
    """
    if not predicate(1):
        return 0
    lo = 1
    hi = 2
    while hi <= limit and predicate(hi):
        lo = hi
        hi *= 2
    hi = min(hi, limit + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo
