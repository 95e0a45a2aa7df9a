#!/usr/bin/env python3
"""Striped vs replicated cache management, analytically and empirically.

Section 3.2 of the paper proposes two ways to run a k-device MEMS
cache: bit-striping (k-fold bandwidth, single-device latency, full
capacity) and replication (k-fold bandwidth, k-fold fewer seeks per
device, single-device capacity).  This example

  1. sweeps the popularity skew and reports which policy serves more
     streams (Theorems 3-4),
  2. validates the analytical hit-rate (Eq. 11) against Monte-Carlo
     request sampling over a generated catalog, and
  3. executes both cache schedules in the event simulator to confirm
     they are jitter-free at the analytical DRAM sizes.

Run:  python examples/cache_policy_explorer.py
"""

from repro import BimodalPopularity, CachePolicy, SystemParameters
from repro.core.cache_model import cache_capacity_fraction, design_mems_cache
from repro.planner.throughput import max_streams_with_cache
from repro.simulation import simulate_cache_pipeline
from repro.units import GB, KB
from repro.workloads import empirical_hit_rate

BIT_RATE = 100 * KB
K_DEVICES = 4
DRAM_BUDGET = 4 * GB
DISTRIBUTIONS = ("1:99", "5:95", "10:90", "20:80", "50:50")


def main() -> None:
    params = SystemParameters.table3_default(n_streams=1, bit_rate=BIT_RATE,
                                             k=K_DEVICES)

    print(f"k={K_DEVICES} G3 devices, {DRAM_BUDGET / GB:.0f} GB DRAM, "
          f"{BIT_RATE / KB:.0f} KB/s streams")
    print(f"{'popularity':>10} | {'p(striped)':>10} | {'p(repl.)':>9} | "
          f"{'striped N':>9} | {'replicated N':>12} | winner")
    print("-" * 72)
    for spec in DISTRIBUTIONS:
        popularity = BimodalPopularity.parse(spec)
        row = {}
        for policy in (CachePolicy.STRIPED, CachePolicy.REPLICATED):
            row[policy] = int(max_streams_with_cache(
                params, policy, popularity, DRAM_BUDGET))
        p_striped = cache_capacity_fraction(
            CachePolicy.STRIPED, K_DEVICES, params.size_mems,
            params.size_disk)
        p_repl = cache_capacity_fraction(
            CachePolicy.REPLICATED, K_DEVICES, params.size_mems,
            params.size_disk)
        winner = ("striped" if row[CachePolicy.STRIPED]
                  > row[CachePolicy.REPLICATED] else "replicated")
        print(f"{spec:>10} | {p_striped:>10.1%} | {p_repl:>9.1%} | "
              f"{row[CachePolicy.STRIPED]:>9} | "
              f"{row[CachePolicy.REPLICATED]:>12} | {winner}")
    print()

    # Eq. 11 vs Monte-Carlo sampling over a 1,000-title catalog.
    print("Hit-rate validation (Eq. 11 vs 100k sampled requests):")
    popularity = BimodalPopularity.parse("10:90")
    for cached_fraction in (0.01, 0.04, 0.10, 0.25):
        analytical = popularity.hit_rate(cached_fraction)
        empirical = empirical_hit_rate(popularity, n_titles=1_000,
                                       cached_fraction=cached_fraction,
                                       seed=7)
        print(f"  p={cached_fraction:>5.0%}: analytical {analytical:.3f}, "
              f"empirical {empirical:.3f}")
    print()

    # Execute both schedules at a moderate population.
    n = 400
    print(f"Simulating both cache schedules at N={n}:")
    for policy in (CachePolicy.STRIPED, CachePolicy.REPLICATED):
        design = design_mems_cache(params.replace(n_streams=n), policy,
                                   popularity)
        report = simulate_cache_pipeline(design, n_cycles=25)
        worst = max((u.worst_cycle_utilization
                     for u in report.resources.values()), default=0.0)
        print(f"  {policy.value:>10}: jitter-free={report.jitter_free}, "
              f"worst cycle utilisation {worst:.1%}, "
              f"{report.notes['n_cache_streams']:.0f} streams on the cache")


if __name__ == "__main__":
    main()
