"""Ablation benchmarks for the design choices the paper argues in prose.

* Section 3.1.2: routing whole disk IOs to single MEMS devices vs
  striping each IO across the bank (striping shrinks the IO and costs
  k seeks, hurting throughput).
* Section 5.1: charging the *maximum* MEMS latency (the paper's
  conservative choice) vs the average — how much DRAM the conservatism
  costs.
* Section 6 / related work: elevator vs EDF disk scheduling — seek
  travel per cycle.
* Section 7 (future work): the hybrid buffer+cache split vs the pure
  configurations.
"""

import random

import pytest

from repro.core.buffer_model import design_mems_buffer
from repro.core.cache_model import CachePolicy
from repro.core.parameters import SystemParameters
from repro.core.popularity import BimodalPopularity
from repro.devices.catalog import MEMS_G3
from repro.planner.hybrid import hybrid_split_curve, optimize_hybrid_split
from repro.scheduling.elevator import ElevatorScheduler
from repro.scheduling.requests import IoKind, IoRequest
from repro.units import GB, KB, MB


def test_ablation_whole_io_routing_vs_striping(benchmark):
    """Whole-IO round-robin routing beats striping each disk IO k ways."""

    def throughput_ratio() -> float:
        k = 4
        io_size = 4 * MB  # a disk-side IO landing in the buffer
        whole = MEMS_G3.effective_throughput(io_size, worst_case=True) * k
        # Striping: every device moves io_size/k but still pays a full
        # (lock-step) positioning delay per IO.
        striped = MEMS_G3.effective_throughput(io_size / k,
                                               worst_case=True) * k
        return whole / striped

    ratio = benchmark(throughput_ratio)
    # Striping the 4 MB IO four ways costs measurable bank throughput.
    assert ratio > 1.1


def test_ablation_max_vs_average_mems_latency(benchmark):
    """The paper's worst-case MEMS latency costs ~30-60% extra DRAM."""

    def dram_pair() -> tuple[float, float]:
        conservative = SystemParameters.table3_default(
            n_streams=1_000, bit_rate=100 * KB, k=2)
        relaxed = conservative.replace(
            l_mems=MEMS_G3.average_access_time())
        worst = design_mems_buffer(conservative, quantise=False).total_dram
        average = design_mems_buffer(relaxed, quantise=False).total_dram
        return worst, average

    worst, average = benchmark(dram_pair)
    assert worst > average
    # The conservatism factor equals the latency ratio (DRAM is linear
    # in L_mems here).
    expected = MEMS_G3.max_access_time() / MEMS_G3.average_access_time()
    assert worst / average == pytest.approx(expected, rel=0.01)


def test_ablation_elevator_vs_edf_travel(benchmark):
    """Elevator sweeps travel a small fraction of EDF's head movement."""

    def travel_ratio() -> float:
        rng = random.Random(17)
        requests = [
            IoRequest(deadline=rng.random(), stream_id=i, kind=IoKind.READ,
                      size=1 * MB, position=rng.random())
            for i in range(256)
        ]
        elevator = ElevatorScheduler(head_position=0.0)
        sweep = elevator.sweep_distance(requests)
        edf_order = sorted(requests)
        positions = [r.position for r in edf_order]
        edf_travel = sum(abs(b - a)
                         for a, b in zip([0.0] + positions, positions))
        return edf_travel / sweep

    ratio = benchmark(travel_ratio)
    # With 256 pending requests EDF seeks ~40x more than one C-LOOK
    # sweep; anything above 10x already demonstrates the trade-off.
    assert ratio > 10


def test_ablation_hybrid_vs_pure_configurations(benchmark):
    """The future-work hybrid split never loses to its pure endpoints."""

    params = SystemParameters.table3_default(n_streams=1, bit_rate=100 * KB,
                                             k=4)
    popularity = BimodalPopularity(5, 95)

    def solve():
        best = optimize_hybrid_split(params, policy=CachePolicy.STRIPED,
                                     popularity=popularity,
                                     dram_budget=2 * GB)
        curve = hybrid_split_curve(params, policy=CachePolicy.STRIPED,
                                   popularity=popularity,
                                   dram_budget=2 * GB)
        return best, curve

    best, curve = benchmark(solve)
    pure_buffer = curve[0].max_streams
    pure_cache = curve[-1].max_streams
    assert best.max_streams >= max(pure_buffer, pure_cache) * (1 - 1e-9)
