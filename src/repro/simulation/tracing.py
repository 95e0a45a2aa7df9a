"""Schedule tracing: record device activity and render it as a Gantt.

The paper's Figures 4 and 5 are timelines — disk head, MEMS tips, and
DRAM rows with seek/transfer segments.  This module reconstructs such a
timeline from a :class:`~repro.core.buffer_model.BufferDesign` by
replaying the two-level schedule deterministically, and renders it as
an ASCII Gantt chart so the figures can be *looked at*, not just
executed.

The trace is exact for the deterministic latency model (the same
arithmetic the simulator uses); it is a visualisation layer, while
:mod:`repro.simulation.pipelines` remains the source of truth for
underflow verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.buffer_model import BufferDesign
from repro.core.summation import sequential_sum
from repro.errors import ConfigurationError, SchedulingError, require
from repro.scheduling.time_cycle import (
    OperationKind,
    build_buffer_schedule,
)


@dataclass(frozen=True)
class TraceSegment:
    """One busy interval on one resource lane."""

    #: Lane name, e.g. ``"disk"``, ``"mems0"``.
    lane: str
    start: float
    end: float
    #: Activity class: ``"seek"``, ``"disk_xfer"``, ``"dram_xfer"``,
    #: or ``"write_xfer"``.
    activity: str
    #: Stream the payload belongs to.
    stream_id: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigurationError(
                f"segment ends before it starts: {self.start!r}..{self.end!r}")


@dataclass
class ScheduleTrace:
    """A replayed window of the two-level schedule."""

    t_disk: float
    t_mems: float
    segments: list[TraceSegment] = field(default_factory=list)

    @property
    def lanes(self) -> list[str]:
        """Lane names in display order (disk first, then devices)."""
        names = {s.lane for s in self.segments}
        return sorted(names, key=lambda n: (n != "disk", n))

    @property
    def horizon(self) -> float:
        """End of the traced window."""
        return max((s.end for s in self.segments), default=0.0)

    def busy_time(self, lane: str) -> float:
        """Total busy seconds on a lane."""
        return sequential_sum(s.end - s.start for s in self.segments
                              if s.lane == lane)

    def render(self, *, width: int = 76) -> str:
        """ASCII Gantt: one row per lane, one column per time slice.

        Characters: ``s`` seek, ``D`` disk transfer, ``d`` DRAM
        transfer, ``w`` disk-write landing, `` `` idle.  When multiple
        activities share a slice the busiest one wins.
        """
        if width < 10:
            raise ConfigurationError(f"width must be >= 10, got {width!r}")
        if not self.segments:
            return "(empty trace)"
        horizon = self.horizon
        slice_len = horizon / width
        glyphs = {"seek": "s", "disk_xfer": "D", "dram_xfer": "d",
                  "write_xfer": "w"}
        lines = []
        for lane in self.lanes:
            # Accumulate busy time per (slice, activity).
            occupancy: list[dict[str, float]] = [{} for _ in range(width)]
            for segment in self.segments:
                if segment.lane != lane:
                    continue
                first = min(int(segment.start / slice_len), width - 1)
                last = min(int(segment.end / slice_len), width - 1)
                for i in range(first, last + 1):
                    lo = max(segment.start, i * slice_len)
                    hi = min(segment.end, (i + 1) * slice_len)
                    if hi > lo:
                        bucket = occupancy[i]
                        bucket[segment.activity] = \
                            bucket.get(segment.activity, 0.0) + (hi - lo)
            row = []
            for bucket in occupancy:
                if not bucket:
                    row.append(" ")
                else:
                    activity = max(bucket, key=bucket.get)  # type: ignore[arg-type]
                    row.append(glyphs[activity])
            lines.append(f"{lane:>6} |" + "".join(row) + "|")
        lines.append(" " * 7 + f"0{'':{width - 8}}{horizon:.3g}s")
        lines.append(" " * 7 + "s=seek  D=disk transfer  d=DRAM transfer  "
                     "w=buffer write")
        return "\n".join(lines)


def trace_buffer_schedule(design: BufferDesign, *,
                          n_mems_cycles: int | None = None) -> ScheduleTrace:
    """Replay the opening of a two-level schedule into a trace.

    Covers ``n_mems_cycles`` MEMS cycles (default: one disk cycle's
    worth), starting from the pipeline steady state (the warm-up disk
    cycle is replayed but drawn at negative-free offsets: the disk lane
    shows cycle 0 while the MEMS lanes show the cycle servicing it,
    exactly like the paper's Figure 4).
    """
    params = design.params
    schedule = build_buffer_schedule(design)
    if design.m is None or design.t_mems is None:
        raise SchedulingError("trace needs a quantised design")
    if n_mems_cycles is None:
        n_mems_cycles = math.ceil(design.t_disk / design.t_mems)
    if n_mems_cycles < 1:
        raise ConfigurationError(
            f"n_mems_cycles must be >= 1, got {n_mems_cycles!r}")

    trace = ScheduleTrace(t_disk=design.t_disk, t_mems=design.t_mems)
    n = schedule.n_streams
    k = params.k

    # Disk lane: one cycle of N elevator-ordered reads.
    t = 0.0
    horizon = n_mems_cycles * design.t_mems
    while t < horizon:
        for op in schedule.disk_cycles[0]:
            if t >= horizon:
                break
            seek_end = t + params.l_disk
            xfer_end = seek_end + op.size / params.r_disk
            trace.segments.append(TraceSegment(
                lane="disk", start=t, end=seek_end, activity="seek",
                stream_id=op.stream_id))
            trace.segments.append(TraceSegment(
                lane="disk", start=seek_end, end=xfer_end,
                activity="disk_xfer", stream_id=op.stream_id))
            t = xfer_end
        t = max(t, design.t_disk)

    # MEMS lanes: cycles of N DRAM reads + M write landings.
    device_clock = [0.0] * k
    pattern = schedule.mems_cycles
    for cycle in range(n_mems_cycles):
        cycle_start = cycle * design.t_mems
        for d in range(k):
            device_clock[d] = max(device_clock[d], cycle_start)
        for op in pattern[cycle % len(pattern)]:
            d = op.device_index
            require(d is not None,
                    "MEMS operation scheduled without a device index")
            lane = f"mems{d}"
            start = device_clock[d]
            seek_end = start + params.l_mems
            activity = ("dram_xfer" if op.kind is OperationKind.MEMS_READ
                        else "write_xfer")
            xfer_end = seek_end + op.size / params.r_mems
            trace.segments.append(TraceSegment(
                lane=lane, start=start, end=seek_end, activity="seek",
                stream_id=op.stream_id))
            trace.segments.append(TraceSegment(
                lane=lane, start=seek_end, end=xfer_end, activity=activity,
                stream_id=op.stream_id))
            device_clock[d] = xfer_end
    return trace
