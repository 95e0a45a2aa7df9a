"""The unified planning layer: one configuration solver for all layers.

Every layer of the reproduction — the core capacity wrappers, admission
control, the figure experiments, and the online runtime — asks the same
question: *given a parameter set and a server configuration, what is
the per-stream DRAM, the cycle structure, and the largest admissible
population?*  This package is the single answer path:

* :class:`~repro.planner.configuration.Configuration` — the canonical,
  hashable spelling of the four configurations (DIRECT, BUFFER(k),
  CACHE(policy, k), HYBRID(k_cache, k_buffer));
* :class:`~repro.planner.plan.Plan` — the solved operating point, with
  feasibility diagnostics instead of exceptions;
* :mod:`~repro.planner.search` — the one monotone doubling+bisection
  engine (continuous and integer) behind every inverse solve;
* :mod:`~repro.planner.incremental` — the warm-start (hint-bracketed)
  twins of the search engine, bit-identical to cold by construction;
* :class:`~repro.planner.cache.PlanCache` — bounded LRU memoization
  with hit/miss/eviction counters;
* :class:`~repro.planner.solver.Planner` — the memoizing solver tying
  it together, plus the process-wide :func:`default_planner`;
* :mod:`~repro.planner.throughput` — the named stateless solvers
  (``max_streams_*``, ``streams_supported``);
* :mod:`~repro.planner.hybrid` — the Section 7 buffer+cache split of
  the bank.

Every caller of the Theorem 1-4 solvers imports them from here;
``AdmissionController.capacity`` delegates to this package too.
"""

from repro.planner.search import (
    DEFAULT_INT_LIMIT,
    MAX_BISECTIONS,
    MAX_DOUBLINGS,
    REL_TOL,
    max_feasible_int,
    max_feasible_real,
)
from repro.planner.cache import DEFAULT_MAXSIZE, PlanCache
from repro.planner.configuration import Configuration, ConfigurationKind
from repro.planner.incremental import (
    hinted_max_feasible_int,
    hinted_max_feasible_real,
)
from repro.planner.plan import Plan
from repro.planner.solver import Planner, default_planner

# Imported after the solver stack: both modules lean on the core
# forward models, which themselves import the planner package.
from repro.planner.hybrid import (
    HybridDesign,
    hybrid_split_curve,
    hybrid_streams_supported,
    hybrid_throughput,
    optimize_hybrid_split,
)
from repro.planner.throughput import (
    max_streams_with_buffer,
    max_streams_with_cache,
    max_streams_without_mems,
    streams_supported,
)

__all__ = [
    "DEFAULT_INT_LIMIT",
    "DEFAULT_MAXSIZE",
    "MAX_BISECTIONS",
    "MAX_DOUBLINGS",
    "REL_TOL",
    "Configuration",
    "ConfigurationKind",
    "HybridDesign",
    "Plan",
    "PlanCache",
    "Planner",
    "default_planner",
    "hinted_max_feasible_int",
    "hinted_max_feasible_real",
    "hybrid_split_curve",
    "hybrid_streams_supported",
    "hybrid_throughput",
    "max_feasible_int",
    "max_feasible_real",
    "max_streams_with_buffer",
    "max_streams_with_cache",
    "max_streams_without_mems",
    "optimize_hybrid_split",
    "streams_supported",
]
