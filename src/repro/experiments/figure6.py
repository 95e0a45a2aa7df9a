"""Figure 6: total DRAM requirement vs number of streams.

Panel (a): direct disk-to-DRAM streaming (Theorem 1); panel (b): with a
two-device G3 MEMS buffer (Theorem 2, unlimited MEMS storage as in the
paper's Section 5.1.1 relaxation).  Four bit-rates (mp3 / DivX / DVD /
HDTV), both axes logarithmic.  Each curve ends where the load saturates
the disk (or, with the buffer, the MEMS bank's doubled load saturates
the bank).

Both panels solve through the shared planner
(:func:`repro.planner.default_planner`), so re-running a panel — or the
double sweep of :func:`reduction_factors` — replays memoized solves.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.parameters import SystemParameters
from repro.devices.catalog import MEDIA_BITRATES
from repro.experiments.base import ExperimentResult, Series
from repro.perf.parallel import batchable, sweep_map
from repro.planner import Configuration, default_planner
from repro.planner.batch import demand_curve
from repro.units import GB

__all__ = ["reduction_factors", "run"]


def _stream_counts(max_streams: float = 1e5, per_decade: int = 12) -> list[int]:
    """Log-spaced integer stream counts from 1 to ``max_streams``."""
    raw = np.logspace(0, np.log10(max_streams),
                      int(np.log10(max_streams) * per_decade) + 1)
    counts = sorted({int(round(v)) for v in raw})
    return [c for c in counts if c >= 1]


def _stream_counts_for(bit_rate: float, *, max_streams: float = 1e5,
                       r_disk: float | None = None) -> list[int]:
    """Sweep points for one bit-rate, densified near disk saturation.

    The DRAM requirement (and hence the cost savings) rises steeply as
    ``N -> R_disk / B``, so a pure log grid misses the knee; points at
    90/95/97% utilisation are added explicitly.
    """
    if r_disk is None:
        from repro.devices.catalog import FUTURE_DISK_2007

        r_disk = FUTURE_DISK_2007.transfer_rate
    counts = set(_stream_counts(max_streams))
    saturation = r_disk / bit_rate
    for utilization in (0.90, 0.95, 0.97):
        n = int(utilization * saturation)
        if 1 <= n <= max_streams:
            counts.add(n)
    return sorted(counts)


def _sweep_rate_batch(
        items: list[tuple[str, float, bool, int, float]]) -> list[Series]:
    """Vectorized twin of :func:`_sweep_rate`: one demand curve per item.

    Each item's whole population axis is solved in one
    :func:`repro.planner.batch.demand_curve` call; an ``inf`` entry is
    the batch spelling of the scalar path's infeasible-plan break, so
    the curve ends at the same point with the same values.
    """
    series: list[Series] = []
    for name, bit_rate, with_mems, k, max_streams in items:
        configuration = (Configuration.buffer(k) if with_mems
                         else Configuration.direct())
        counts = _stream_counts_for(bit_rate, max_streams=max_streams)
        base = SystemParameters.table3_default(
            n_streams=counts[0], bit_rate=bit_rate, k=k,
            size_mems_unlimited=True)
        totals = demand_curve(base, configuration, counts)
        xs: list[float] = []
        ys: list[float] = []
        for n, total in zip(counts, totals):
            if not math.isfinite(total):
                break  # load saturates the device; the curve ends here
            xs.append(float(n))
            ys.append(float(total) / GB)
        series.append(Series(label=f"{name}", x=xs, y=ys))
    return series


@batchable(_sweep_rate_batch)
def _sweep_rate(item: tuple[str, float, bool, int, float]) -> Series:
    """Worker: one bit-rate's curve (picklable; rebuilds its planner)."""
    name, bit_rate, with_mems, k, max_streams = item
    planner = default_planner()
    configuration = (Configuration.buffer(k) if with_mems
                     else Configuration.direct())
    base = SystemParameters.table3_default(
        n_streams=0, bit_rate=bit_rate, k=k, size_mems_unlimited=True)
    xs: list[float] = []
    ys: list[float] = []
    for n in _stream_counts_for(bit_rate, max_streams=max_streams):
        plan = planner.plan(base, configuration, n)
        if not plan.feasible:
            break  # load saturates the device; the curve ends here
        xs.append(float(n))
        ys.append(plan.total_dram / GB)
    return Series(label=f"{name}", x=xs, y=ys)


def run(*, with_mems: bool, k: int = 2,
        bit_rates: dict[str, float] | None = None,
        max_streams: float = 1e5, jobs: int = 1,
        batch: bool = False) -> ExperimentResult:
    """Panel (a) with ``with_mems=False``, panel (b) with ``True``."""
    rates = bit_rates if bit_rates is not None else dict(MEDIA_BITRATES)
    items = [(name, bit_rate, with_mems, k, max_streams)
             for name, bit_rate in rates.items()]
    series = sweep_map(_sweep_rate, items, jobs=jobs, batch=batch)
    panel = "b (with MEMS buffer)" if with_mems else "a (without MEMS buffer)"
    result = ExperimentResult(
        experiment_id=f"figure6{'b' if with_mems else 'a'}",
        title=f"DRAM requirement for various media types — panel {panel}",
        x_label="Number of streams",
        y_label="DRAM requirement (GB)",
        series=series,
        log_x=True,
        log_y=True,
    )
    for s in series:
        if s.y:
            result.notes.append(
                f"{s.label}: up to {s.y[-1]:.3g} GB at N={s.x[-1]:.0f}")
    return result


def reduction_factors(*, k: int = 2,
                      bit_rates: dict[str, float] | None = None,
                      max_streams: float = 1e5) -> dict[str, float]:
    """DRAM reduction factor (a / b) at each bit-rate's largest common N.

    The paper's headline: "the DRAM requirement is reduced by an order
    of magnitude to support a given system throughput".
    """
    without = run(with_mems=False, k=k, bit_rates=bit_rates,
                  max_streams=max_streams)
    with_buf = run(with_mems=True, k=k, bit_rates=bit_rates,
                   max_streams=max_streams)
    factors = {}
    for s_a, s_b in zip(without.series, with_buf.series):
        common = min(len(s_a.x), len(s_b.x))
        if common:
            factors[s_a.label] = s_a.y[common - 1] / s_b.y[common - 1]
    return factors
