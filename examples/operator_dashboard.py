#!/usr/bin/env python3
"""Operator dashboard: blocking probability, recording, sled placement.

Three operator-level questions the core model answers when combined
with the extension modules:

  1. *How often do viewers get turned away?*  Convert each
     configuration's admission capacity into an Erlang blocking
     probability (validated against an arrival simulation).
  2. *How many camera (write) feeds can the server record alongside its
     viewers?*  (Section 3.1's write-stream generalisation.)
  3. *Does laying popular titles out near the sled centre pay off?*
     (Section 7's placement future work.)

Run:  python examples/operator_dashboard.py
"""

from repro import BimodalPopularity, CachePolicy, SystemParameters
from repro.core.write_streams import max_writers_supported
from repro.devices import MEMS_G3, organ_pipe_layout, placement_improvement
from repro.planner.throughput import streams_supported
from repro.units import GB, KB, seconds_to_human
from repro.workloads import erlang_b, simulate_blocking
from repro.workloads.popularity_gen import RequestSampler

DRAM_BUDGET = 2 * GB
BIT_RATE = 200 * KB
MEAN_VIEWING = 40 * 60.0  # 40-minute sessions


def main() -> None:
    params = SystemParameters.table3_default(n_streams=1, bit_rate=BIT_RATE,
                                             k=2)
    popularity = BimodalPopularity.parse("5:95")

    capacities = {
        "disk only": streams_supported(params, DRAM_BUDGET),
        "MEMS buffer": streams_supported(params, DRAM_BUDGET,
                                         configuration="buffer"),
        "MEMS cache (repl.)": streams_supported(
            params, DRAM_BUDGET, configuration="cache",
            policy=CachePolicy.REPLICATED, popularity=popularity),
    }

    # 1. Blocking at an offered load just above the *disk-only* capacity.
    offered = 1.02 * capacities["disk only"]
    arrival_rate = offered / MEAN_VIEWING
    print(f"Offered load: {offered:.0f} Erlangs "
          f"({arrival_rate * 3600:.0f} sessions/hour, "
          f"{seconds_to_human(MEAN_VIEWING)} mean viewing)")
    print(f"{'configuration':>20} | {'capacity':>8} | {'Erlang-B':>9} | "
          f"{'simulated':>9}")
    print("-" * 58)
    for name, capacity in capacities.items():
        theory = erlang_b(offered, capacity)
        stats = simulate_blocking(capacity=capacity,
                                  arrival_rate=arrival_rate,
                                  mean_holding=MEAN_VIEWING,
                                  horizon=MEAN_VIEWING * 2_000, seed=13)
        print(f"{name:>20} | {capacity:>8} | {theory:>9.4f} | "
              f"{stats.blocking_probability:>9.4f}")
    print()

    # 2. Recording capacity alongside a fixed viewer population.
    viewers = capacities["disk only"] // 2
    writers = max_writers_supported(params, n_readers=viewers,
                                    dram_budget=DRAM_BUDGET)
    print(f"With {viewers} viewers admitted through the MEMS buffer, the "
          f"same {DRAM_BUDGET / GB:.0f} GB DRAM")
    print(f"also sustains {writers} recording feeds at "
          f"{BIT_RATE / KB:.0f} KB/s each (write streams are")
    print("single-buffered on the bank, so they are cheaper than viewers).")
    print()

    # 3. Sled placement for the cached titles.
    sampler = RequestSampler(popularity, n_titles=40, seed=21)
    weights = list(sampler.title_weights)
    layout = organ_pipe_layout(weights)
    gain = placement_improvement(weights, MEMS_G3)
    centre_item = layout.band_of.index(layout.n_bands // 2)
    print(f"Organ-pipe placement of 40 cached titles: most popular title "
          f"(#{centre_item}) at the sled centre;")
    print(f"expected inter-title seek improves {gain:.2f}x over "
          f"popularity-blind sequential placement.")


if __name__ == "__main__":
    main()
