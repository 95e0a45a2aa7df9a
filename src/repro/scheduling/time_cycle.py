"""Time-cycle (QPMS) schedule construction.

The paper adopts the time-cycle service model of Rangan et al. [13]:
time is split into IO cycles and each device performs exactly one IO
per stream per cycle, sized to sustain playback until the stream's next
IO.  For the MEMS-buffer configuration two nested cycles exist
(Figures 4-5):

* per **disk cycle** ``T_disk``: one disk read of ``B * T_disk`` bytes
  per stream, routed whole to a MEMS device (round-robin across the
  bank);
* per **MEMS cycle** ``T_mems = (M/N) * T_disk``: every stream gets one
  MEMS->DRAM read of ``B * T_mems`` bytes, and ``M`` of the disk reads
  land as MEMS writes (``M/N`` of the disk cycle's reads).

:func:`build_buffer_schedule` materialises one *hyper-period*
(``lcm(N, M)`` DRAM transfers per stream pair structure) so the event
simulator can execute and verify it; ``verify_steady_state`` checks the
paper's invariant that bytes written to and read from the bank balance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.core.buffer_model import BufferDesign
from repro.core.parameters import SystemParameters
from repro.core.summation import sequential_sum
from repro.core.theorems import io_cycle_direct
from repro.errors import ConfigurationError, SchedulingError


class OperationKind(enum.Enum):
    """What a scheduled operation moves, and between which levels."""

    #: Disk media read (into DRAM directly, or into the MEMS bank).
    DISK_READ = "disk_read"
    #: Write of a disk read's payload into a MEMS device.
    MEMS_WRITE = "mems_write"
    #: MEMS media read into DRAM.
    MEMS_READ = "mems_read"


@dataclass(frozen=True)
class CycleOperation:
    """One operation inside an IO cycle."""

    kind: OperationKind
    #: Stream the payload belongs to.
    stream_id: int
    #: MEMS device index (None for direct-to-DRAM disk reads).
    device_index: int | None
    #: Payload bytes.
    size: float

    def __post_init__(self) -> None:
        if self.stream_id < 0:
            raise ConfigurationError(
                f"stream_id must be >= 0, got {self.stream_id!r}")
        if self.size < 0:
            raise ConfigurationError(f"size must be >= 0, got {self.size!r}")


@dataclass(frozen=True)
class TimeCycleSchedule:
    """A repeating schedule: cycles of operations on each resource.

    ``disk_cycles`` lists, per disk IO cycle in the hyper-period, the
    disk's operations; ``mems_cycles`` likewise for the MEMS bank (all
    devices interleaved; filter by ``device_index``).  A direct
    (no-MEMS) schedule has one disk cycle and no MEMS cycles.
    """

    params: SystemParameters
    t_disk: float
    t_mems: float | None
    disk_cycles: list[list[CycleOperation]]
    mems_cycles: list[list[CycleOperation]] = field(default_factory=list)

    @property
    def hyper_period(self) -> float:
        """Length of one full repetition of the schedule, seconds."""
        return self.t_disk * len(self.disk_cycles)

    @property
    def n_streams(self) -> int:
        return int(self.params.n_streams)

    def bytes_by_kind(self, kind: OperationKind) -> float:
        """Total payload moved by ``kind`` operations per hyper-period."""
        total = 0.0
        for cycle in self.disk_cycles:
            total += sequential_sum(op.size for op in cycle if op.kind is kind)
        for cycle in self.mems_cycles:
            total += sequential_sum(op.size for op in cycle if op.kind is kind)
        return total

    def verify_steady_state(self, *, rel_tol: float = 1e-9) -> None:
        """Check the paper's balance invariants; raise SchedulingError if broken.

        Over a hyper-period: (1) bytes read from disk equal bytes
        written to the MEMS bank (buffer config), (2) bytes written to
        the bank equal bytes read from it, and (3) every stream
        receives exactly its playback demand.
        """
        disk_bytes = self.bytes_by_kind(OperationKind.DISK_READ)
        written = self.bytes_by_kind(OperationKind.MEMS_WRITE)
        read = self.bytes_by_kind(OperationKind.MEMS_READ)
        if self.mems_cycles:
            if not math.isclose(disk_bytes, written, rel_tol=rel_tol):
                raise SchedulingError(
                    f"disk reads ({disk_bytes:.6g} B) != MEMS writes "
                    f"({written:.6g} B) per hyper-period")
            if not math.isclose(written, read, rel_tol=rel_tol):
                raise SchedulingError(
                    f"MEMS writes ({written:.6g} B) != MEMS reads "
                    f"({read:.6g} B) per hyper-period")
            delivered = read
        else:
            delivered = disk_bytes
        demand = self.params.offered_load * self.hyper_period
        if not math.isclose(delivered, demand, rel_tol=rel_tol):
            raise SchedulingError(
                f"delivered {delivered:.6g} B per hyper-period but streams "
                f"consume {demand:.6g} B")
        per_stream = self.params.bit_rate * self.hyper_period
        for stream in range(self.n_streams):
            got = sequential_sum(
                op.size
                for cycle in (self.mems_cycles or self.disk_cycles)
                for op in cycle
                if op.stream_id == stream
                and op.kind in (OperationKind.MEMS_READ,
                                OperationKind.DISK_READ)
                and (self.mems_cycles or op.device_index is None))
            if not math.isclose(got, per_stream, rel_tol=rel_tol):
                raise SchedulingError(
                    f"stream {stream} receives {got:.6g} B per hyper-period, "
                    f"needs {per_stream:.6g} B")


def build_direct_schedule(params: SystemParameters, *,
                          t_cycle: float | None = None) -> TimeCycleSchedule:
    """Disk-to-DRAM schedule (Theorem 1): one cycle, one IO per stream.

    ``t_cycle`` defaults to the minimal feasible cycle of Eq. 6.
    """
    n = int(params.n_streams)
    if n != params.n_streams or n < 1:
        raise ConfigurationError(
            f"a schedule needs a positive integer stream count, got "
            f"{params.n_streams!r}")
    minimum = io_cycle_direct(n, params.bit_rate, params.r_disk, params.l_disk)
    if t_cycle is None:
        t_cycle = minimum
    elif t_cycle < minimum * (1 - 1e-12):
        raise SchedulingError(
            f"t_cycle={t_cycle:.6g}s is below the feasible minimum "
            f"{minimum:.6g}s")
    io_size = params.bit_rate * t_cycle
    ops = [CycleOperation(kind=OperationKind.DISK_READ, stream_id=i,
                          device_index=None, size=io_size)
           for i in range(n)]
    return TimeCycleSchedule(params=params, t_disk=t_cycle, t_mems=None,
                             disk_cycles=[ops])


def build_buffer_schedule(design: BufferDesign) -> TimeCycleSchedule:
    """Materialise one hyper-period of the two-level schedule (Figs 4-5).

    Needs a finite, quantised design (``design.m`` set).  Streams are
    assigned to MEMS devices round-robin (stream ``i`` lives on device
    ``i mod k``), preserving whole disk IOs per device as Section 3.1.2
    prescribes.
    """
    params = design.params
    n = int(params.n_streams)
    if n != params.n_streams or n < 2:
        raise ConfigurationError(
            f"the buffer schedule needs an integer N >= 2, got "
            f"{params.n_streams!r}")
    if design.m is None or design.t_mems is None or math.isinf(design.t_disk):
        raise SchedulingError(
            "build_buffer_schedule needs a finite quantised BufferDesign "
            "(design_mems_buffer(..., quantise=True) with finite size_mems)")
    m = design.m
    k = params.k
    group = math.lcm(n, m)
    n_disk_cycles = group // n
    n_mems_cycles = group // m
    disk_io = params.bit_rate * design.t_disk
    dram_io = params.bit_rate * design.t_mems

    # Disk cycles: one read per stream per cycle, round-robin devices.
    disk_cycles: list[list[CycleOperation]] = []
    disk_reads: list[CycleOperation] = []  # flattened, in service order
    for _ in range(n_disk_cycles):
        cycle = [CycleOperation(kind=OperationKind.DISK_READ, stream_id=i,
                                device_index=i % k, size=disk_io)
                 for i in range(n)]
        disk_cycles.append(cycle)
        disk_reads.extend(cycle)

    # MEMS cycles: N DRAM reads plus M disk-write landings per cycle.
    mems_cycles: list[list[CycleOperation]] = []
    write_cursor = 0
    for _ in range(n_mems_cycles):
        cycle = [CycleOperation(kind=OperationKind.MEMS_READ, stream_id=i,
                                device_index=i % k, size=dram_io)
                 for i in range(n)]
        for _ in range(m):
            source = disk_reads[write_cursor]
            cycle.append(CycleOperation(kind=OperationKind.MEMS_WRITE,
                                        stream_id=source.stream_id,
                                        device_index=source.device_index,
                                        size=source.size))
            write_cursor += 1
        mems_cycles.append(cycle)
    if write_cursor != len(disk_reads):
        raise SchedulingError(
            f"hyper-period bookkeeping error: landed {write_cursor} of "
            f"{len(disk_reads)} disk reads")  # pragma: no cover

    return TimeCycleSchedule(params=params, t_disk=design.t_disk,
                             t_mems=design.t_mems, disk_cycles=disk_cycles,
                             mems_cycles=mems_cycles)
