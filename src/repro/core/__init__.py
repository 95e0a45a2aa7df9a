"""The paper's analytical framework (Section 4).

This package implements every closed-form result of the paper:

* :mod:`~repro.core.parameters` — the Table 2 parameter set.
* :mod:`~repro.core.theorems` — Theorem 1 and Corollary 1 (direct
  streaming from one device to DRAM).
* :mod:`~repro.core.buffer_model` — Theorem 2 and Corollary 2 (a
  ``k``-device MEMS bank as a disk buffer).
* :mod:`~repro.core.popularity` — the X:Y popularity distribution and
  its hit-rate map (Equation 11), plus a Zipf extension.
* :mod:`~repro.core.cache_model` — Theorems 3 and 4 (striped and
  replicated MEMS caches) and the cache cost model (Equations 9-13).
* :mod:`~repro.core.cost` — buffering-cost comparisons (Equations 1-2).
* :mod:`~repro.core.sensitivity` — latency-ratio sweeps (Figure 7).

The inverse solvers (the maximum number of streams a configuration
supports under a DRAM budget) and the future-work hybrid buffer+cache
split of the bank live in :mod:`repro.planner`; the ``max_streams_*``
and hybrid names below are re-exported from there.
"""

from repro.core.parameters import SystemParameters
from repro.core.theorems import (
    io_cycle_direct,
    max_streams_direct,
    min_buffer_direct,
    min_buffer_disk_dram,
    min_buffer_mems_dram,
)
from repro.core.buffer_model import (
    BufferDesign,
    choose_disk_transfers_per_mems_cycle,
    design_mems_buffer,
    mems_cycle_floor,
)
from repro.core.popularity import (
    BimodalPopularity,
    PopularityDistribution,
    UniformPopularity,
    ZipfPopularity,
)
from repro.core.cache_model import (
    CacheDesign,
    CachePolicy,
    cache_capacity_fraction,
    design_mems_cache,
    replicated_cache_buffer,
    striped_cache_buffer,
)
from repro.core.cost import (
    BufferCostComparison,
    buffering_cost_with_mems,
    buffering_cost_without_mems,
    cache_cost_with_mems,
    compare_buffer_costs,
)
from repro.planner.throughput import (
    max_streams_with_buffer,
    max_streams_with_cache,
    max_streams_without_mems,
)
from repro.core.sensitivity import (
    LatencyRatioPoint,
    cost_reduction_at_ratio,
    cost_reduction_grid,
    latency_ratio_sweep,
)
from repro.planner.hybrid import HybridDesign, optimize_hybrid_split
from repro.core.write_streams import (
    MixedStreamDesign,
    design_mixed_streams,
    max_writers_supported,
)
from repro.core.multiclass import (
    MulticlassDesign,
    StreamClass,
    admit_class,
    design_multiclass_buffer,
    design_multiclass_direct,
)
from repro.core.spare import SpareCapacity, best_effort_iops, spare_capacity
from repro.core.startup import (
    StartupLatency,
    buffered_startup,
    cache_startup,
    direct_startup,
    startup_comparison,
)
from repro.core.regions import (
    RegionCell,
    configuration_map,
    evaluate_cell,
    render_configuration_map,
)

__all__ = [
    "MulticlassDesign",
    "StreamClass",
    "admit_class",
    "design_multiclass_buffer",
    "design_multiclass_direct",
    "SpareCapacity",
    "best_effort_iops",
    "spare_capacity",
    "StartupLatency",
    "buffered_startup",
    "cache_startup",
    "direct_startup",
    "startup_comparison",
    "RegionCell",
    "configuration_map",
    "evaluate_cell",
    "render_configuration_map",
    "MixedStreamDesign",
    "design_mixed_streams",
    "max_writers_supported",
    "SystemParameters",
    "io_cycle_direct",
    "max_streams_direct",
    "min_buffer_direct",
    "min_buffer_disk_dram",
    "min_buffer_mems_dram",
    "BufferDesign",
    "choose_disk_transfers_per_mems_cycle",
    "design_mems_buffer",
    "mems_cycle_floor",
    "BimodalPopularity",
    "PopularityDistribution",
    "UniformPopularity",
    "ZipfPopularity",
    "CacheDesign",
    "CachePolicy",
    "cache_capacity_fraction",
    "design_mems_cache",
    "replicated_cache_buffer",
    "striped_cache_buffer",
    "BufferCostComparison",
    "buffering_cost_with_mems",
    "buffering_cost_without_mems",
    "cache_cost_with_mems",
    "compare_buffer_costs",
    "max_streams_with_buffer",
    "max_streams_with_cache",
    "max_streams_without_mems",
    "LatencyRatioPoint",
    "cost_reduction_at_ratio",
    "cost_reduction_grid",
    "latency_ratio_sweep",
    "HybridDesign",
    "optimize_hybrid_split",
]
