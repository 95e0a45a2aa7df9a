"""Simulation outcome reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.summation import sequential_sum
from repro.simulation.streams import StreamBuffer, UnderflowInterval

#: Re-exported with the report for convenience.
UnderflowEvent = UnderflowInterval


@dataclass(slots=True)
class ResourceUsage:
    """Busy-time accounting for one device over the simulated horizon."""

    name: str
    busy_time: float = 0.0
    #: Number of IO operations serviced.
    operations: int = 0
    #: Number of cycles whose work exceeded the cycle length.
    cycle_overruns: int = 0
    #: Largest busy-time/cycle-length ratio observed.
    worst_cycle_utilization: float = 0.0

    def record_cycle(self, busy: float, cycle_length: float) -> None:
        """Account one IO cycle's busy time against its length."""
        self.busy_time += busy
        if cycle_length > 0:
            utilization = busy / cycle_length
            self.worst_cycle_utilization = max(self.worst_cycle_utilization,
                                               utilization)
            if busy > cycle_length * (1 + 1e-9):
                self.cycle_overruns += 1


@dataclass
class SimulationReport:
    """Everything a pipeline simulation observed."""

    #: Total simulated time, seconds.
    horizon: float
    #: Bytes delivered to playback across all streams.
    bytes_delivered: float
    #: Starvation intervals across all streams (empty = jitter-free).
    underflows: list[UnderflowInterval]
    #: Per-resource busy accounting, keyed by resource name.
    resources: dict[str, ResourceUsage]
    #: Minimum DRAM buffer level seen across playing streams, bytes.
    min_stream_level: float
    #: Peak per-stream DRAM level seen, bytes.
    peak_stream_level: float
    #: Peak simultaneous occupancy of the MEMS bank, bytes (0 when no
    #: bank participates).
    peak_mems_occupancy: float = 0.0
    #: Playback start times per stream (order matches stream ids within
    #: each pipeline class); empty when no stream started.
    playback_starts: list[float] = field(default_factory=list)
    #: Extra per-pipeline observations.
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def jitter_free(self) -> bool:
        """True when no stream ever starved."""
        return not self.underflows

    @property
    def total_underflow_time(self) -> float:
        """Summed starvation seconds across streams."""
        return sequential_sum(u.duration for u in self.underflows)

    def utilization(self, resource: str) -> float:
        """Busy fraction of a resource over the horizon."""
        usage = self.resources[resource]
        if self.horizon == 0:
            return 0.0
        return usage.busy_time / self.horizon


def summarize_streams(buffers: list[StreamBuffer],
                      horizon: float) -> tuple[list[UnderflowInterval],
                                               float, float, float]:
    """Collect (underflows, delivered, min level, peak level) from buffers.

    ``delivered`` counts actual playback consumption: bit-rate times
    playing time, minus any starvation deficit.
    """
    underflows: list[UnderflowInterval] = []
    delivered = 0.0
    min_level = math.inf
    peak_level = 0.0
    for buffer in buffers:
        # Settle every buffer's drain to the horizon before reading.
        buffer.level(horizon)
        underflows.extend(buffer.underflows)
        min_level = min(min_level, buffer.min_level)
        peak_level = max(peak_level, buffer.peak_level)
    for buffer in buffers:
        deficit = sequential_sum(u.deficit for u in buffer.underflows)
        if buffer.playing and buffer.playback_start is not None:
            played = max(0.0, horizon - buffer.playback_start)
            delivered += buffer.bit_rate * played - deficit
    underflows.sort(key=lambda u: u.start)
    return underflows, delivered, min_level, peak_level
