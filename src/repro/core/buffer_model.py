"""Theorem 2: a ``k``-device MEMS bank as a disk buffer.

In the buffer configuration every byte travels disk -> MEMS -> DRAM, so
the MEMS bank carries twice the stream load (one write per byte from
the disk side, one read per byte to the DRAM side).  Two nested IO
cycles exist (Figures 4 and 5 of the paper):

* the **disk IO cycle** ``T_disk``: one disk IO per stream, each of
  size ``B * T_disk``, routed whole to one MEMS device;
* the **MEMS IO cycle** ``T_mems``: one MEMS->DRAM transfer per stream
  plus ``M`` disk->MEMS transfers, with ``T_mems / T_disk = M / N`` for
  an integer ``M < N`` (Eq. 8).

The minimal feasible MEMS cycle is

    C = N * L_mems * R_mems / (k * R_mems - 2 (N + k - 1) * B)   (Thm 2)

and the per-stream DRAM buffer is

    S_mems-dram = B * C * (1 + (2k-2)/N) * T_disk / (T_disk - C)  (Eq. 5)

where ``T_disk`` is the *largest* cycle satisfying the real-time lower
bound (Eq. 6), the MEMS storage capacity bound
``2 N T_disk B <= k * Size_mems`` (Eq. 7), and Eq. 8.  Larger ``T_disk``
means larger disk IOs (better disk efficiency) *and* less DRAM, so the
storage bound is the binding one; with the paper's "unlimited MEMS"
relaxation ``T_disk -> inf`` and the DRAM term converges to
``B * C * (1 + (2k-2)/N)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.parameters import SystemParameters
from repro.core.theorems import io_cycle_direct
from repro.errors import AdmissionError, CapacityError, SchedulingError


def mems_cycle_floor(params: SystemParameters, *,
                     n_streams: float | None = None) -> float:
    """Minimal feasible MEMS IO cycle ``C`` (Theorem 2).

    ``n_streams`` overrides ``params.n_streams``.  Raises
    :class:`~repro.errors.AdmissionError` when the doubled stream load
    saturates the bank: ``k * R_mems <= 2 * (N + k - 1) * B``.
    """
    n = params.n_streams if n_streams is None else n_streams
    if n == 0:
        return 0.0
    doubled_load = 2.0 * (n + params.k - 1) * params.bit_rate
    bank_rate = params.mems_bank_bandwidth
    if doubled_load >= bank_rate:
        raise AdmissionError(
            f"MEMS bank must sustain twice the stream load: need "
            f"{doubled_load:.6g} B/s but the k={params.k} bank provides "
            f"{bank_rate:.6g} B/s",
            load=doubled_load, capacity=bank_rate)
    return (n * params.l_mems * params.r_mems) / (bank_rate - doubled_load)


def disk_cycle_bounds(params: SystemParameters, *,
                      n_streams: float | None = None
                      ) -> tuple[float, float]:
    """(lower, upper) bounds on ``T_disk`` from Eqs. 6 and 7.

    The lower bound is the disk's own real-time cycle (Eq. 6); the
    upper bound comes from fitting the in-flight data in the bank
    (Eq. 7) and is ``inf`` when ``size_mems`` is unlimited (None).
    ``n_streams`` overrides ``params.n_streams``.
    """
    n = params.n_streams if n_streams is None else n_streams
    lower = io_cycle_direct(n, params.bit_rate, params.r_disk,
                            params.l_disk)
    capacity = params.mems_bank_capacity
    if capacity is None or n == 0:
        return lower, math.inf
    upper = capacity / (2.0 * n * params.bit_rate)
    return lower, upper


def choose_disk_transfers_per_mems_cycle(n_streams: int, t_disk: float,
                                         cycle_floor: float) -> int:
    """Integer ``M`` of Eq. 8: disk transfers per MEMS IO cycle.

    ``T_mems = (M / N) * T_disk`` must absorb, per cycle, the ``N``
    DRAM-transfer latencies *and* the ``M`` disk-write latencies plus
    the doubled byte traffic.  Working that service condition through
    gives ``T_mems >= C * T_disk / (T_disk - C)`` — precisely the
    ``T/(T-C)`` inflation that appears in Eq. 5 — i.e.
    ``M >= N * C / (T_disk - C)``.  A shorter MEMS cycle means less
    DRAM, so the smallest such ``M`` is chosen.  Raises
    :class:`~repro.errors.SchedulingError` when no integer ``1 <= M < N``
    works (the schedule of Theorem 2 requires ``M < N``).
    """
    if n_streams < 2:
        raise SchedulingError(
            f"the two-level schedule needs at least 2 streams, got {n_streams!r}")
    if t_disk <= 0 or not math.isfinite(t_disk):
        raise SchedulingError(
            f"t_disk must be positive and finite to quantise M, got {t_disk!r}")
    if cycle_floor < 0:
        raise SchedulingError(
            f"cycle_floor must be >= 0, got {cycle_floor!r}")
    if t_disk <= cycle_floor:
        raise SchedulingError(
            f"t_disk={t_disk:.6g}s does not exceed the MEMS cycle floor "
            f"C={cycle_floor:.6g}s")
    m = max(1, math.ceil(n_streams * cycle_floor / (t_disk - cycle_floor)))
    if m >= n_streams:
        raise SchedulingError(
            f"no integer M < N satisfies the MEMS service condition: "
            f"N={n_streams}, T_disk={t_disk:.6g}s, C={cycle_floor:.6g}s")
    return m


@dataclass(frozen=True)
class BufferDesign:
    """A feasible MEMS-buffer operating point (output of Theorem 2)."""

    #: The parameter set the design was computed for.
    params: SystemParameters
    #: Disk IO cycle, seconds (``inf`` under unlimited MEMS storage).
    t_disk: float
    #: Feasibility floor ``C`` of the MEMS IO cycle, seconds.
    cycle_floor: float
    #: Per-stream disk->MEMS IO size ``B * T_disk`` (``inf`` if unlimited).
    s_disk_mems: float
    #: Per-stream DRAM buffer (Eq. 5), bytes.
    s_mems_dram: float
    #: Disk transfers per MEMS cycle (Eq. 8), or None when ``T_disk`` is
    #: unbounded and the quantisation is vacuous.
    m: int | None
    #: Realised MEMS IO cycle ``(M / N) * T_disk`` (None when unbounded).
    t_mems: float | None

    @property
    def total_dram(self) -> float:
        """Aggregate DRAM requirement ``N * S_mems-dram``, bytes."""
        return self.params.n_streams * self.s_mems_dram

    @property
    def s_mems_dram_discrete(self) -> float | None:
        """Per-stream DRAM at the *quantised* MEMS cycle.

        ``B * T_mems * (1 + (2k-2)/N)`` with the integer-M cycle; None
        when ``T_disk`` is unbounded.  Differs from Eq. 5 only by the
        ceiling in M and is what the event simulator provisions.
        """
        if self.t_mems is None:
            return None
        n = self.params.n_streams
        slack = 1.0 + (2.0 * self.params.k - 2.0) / n
        return self.params.bit_rate * self.t_mems * slack


def design_mems_buffer(params: SystemParameters, *,
                       t_disk: float | None = None,
                       quantise: bool = True) -> BufferDesign:
    """Solve Theorem 2 for a parameter set.

    By default ``T_disk`` is the largest cycle allowed by Eqs. 6-7; a
    caller may pin it (e.g. to sweep the trade-off) via ``t_disk``.
    With ``quantise=True`` (default) the integer ``M`` of Eq. 8 is also
    computed whenever ``T_disk`` is finite.

    Raises
    ------
    AdmissionError
        If the disk or the MEMS bank lacks bandwidth for the load.
    CapacityError
        If the MEMS bank cannot hold the in-flight data of even the
        minimal disk cycle (Eq. 7 conflicts with Eq. 6).
    SchedulingError
        If quantisation is requested and no integer ``M < N`` exists.
    """
    return BufferDesign(params, *buffer_operating_point(
        params, params.n_streams, t_disk=t_disk, quantise=quantise))


def buffer_operating_point(params: SystemParameters, n_streams: float, *,
                           t_disk: float | None = None,
                           quantise: bool = True
                           ) -> tuple[float, float, float, float,
                                      int | None, float | None]:
    """Theorem 2 at ``n_streams`` streams, without building a design.

    Returns the :class:`BufferDesign` fields after ``params`` —
    ``(t_disk, cycle_floor, s_disk_mems, s_mems_dram, m, t_mems)`` —
    of ``design_mems_buffer(params.replace(n_streams=n_streams), ...)``
    bit for bit, and raises what it raises; ``params.n_streams`` is
    ignored.  The planner solves through this, so probing a population
    builds no parameter set.
    """
    n = n_streams
    if n == 0:
        return 0.0, 0.0, 0.0, 0.0, None, None
    floor = mems_cycle_floor(params, n_streams=n)
    lower, upper = disk_cycle_bounds(params, n_streams=n)
    if t_disk is None:
        if upper < lower:
            raise CapacityError(
                f"k={params.k} MEMS devices cannot hold the in-flight data: "
                f"the minimal disk cycle {lower:.6g}s needs "
                f"{2 * n * params.bit_rate * lower:.6g} B but the bank holds "
                f"{params.mems_bank_capacity:.6g} B (Eq. 7)")
        t_disk = upper
    else:
        if t_disk < lower:
            raise AdmissionError(
                f"requested T_disk={t_disk:.6g}s is below the real-time "
                f"minimum {lower:.6g}s (Eq. 6)")
        if t_disk > upper:
            raise CapacityError(
                f"requested T_disk={t_disk:.6g}s exceeds the storage bound "
                f"{upper:.6g}s (Eq. 7)")

    slack = 1.0 + (2.0 * params.k - 2.0) / n
    if math.isinf(t_disk):
        s_mems_dram = params.bit_rate * floor * slack
        s_disk_mems = math.inf
        m = None
        t_mems = None
    else:
        if t_disk <= floor:
            raise AdmissionError(
                f"T_disk={t_disk:.6g}s does not exceed the MEMS cycle floor "
                f"C={floor:.6g}s; the bank cannot drain the disk in time")
        s_mems_dram = (params.bit_rate * floor * slack
                       * t_disk / (t_disk - floor))
        s_disk_mems = params.bit_rate * t_disk
        if quantise and n >= 2:
            # A single stream has no inner cycle to quantise (M < N needs
            # N >= 2); the closed form alone applies.
            m = choose_disk_transfers_per_mems_cycle(n, t_disk, floor)
            t_mems = (m / n) * t_disk
        else:
            m = None
            t_mems = None
    return t_disk, floor, s_disk_mems, s_mems_dram, m, t_mems
