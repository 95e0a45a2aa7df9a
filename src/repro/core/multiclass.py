"""Heterogeneous stream populations (multi-class time-cycle analysis).

The paper simplifies to a single average bit-rate B̄ (Table 2).  The
time-cycle algebra generalises exactly to per-class rates: with classes
``c`` of ``N_c`` streams at ``B_c`` bytes/second on a device of rate
``R`` and latency ``L̄``,

    T = L̄ · N_tot · R / (R − Σ_c N_c B_c),
    S_c = B_c · T,

so the *cycle* depends only on the aggregate count and load (which is
why the paper's average-rate simplification predicts throughput
correctly), but the *per-class buffers* scale with each class's own
bit-rate — an HDTV stream in a mixed population needs 1000x the buffer
of an mp3 stream, which matters for per-session memory accounting and
admission pricing.

The same generalisation applies to the MEMS-buffer configuration: the
bank's cycle floor uses the aggregate doubled load, and each class's
DRAM share is ``B_c``-proportional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.parameters import SystemParameters
from repro.core.summation import sequential_sum
from repro.errors import AdmissionError, CapacityError, ConfigurationError


@dataclass(frozen=True)
class StreamClass:
    """One homogeneous class of streams."""

    name: str
    bit_rate: float
    count: int

    def __post_init__(self) -> None:
        if self.bit_rate <= 0:
            raise ConfigurationError(
                f"bit_rate must be > 0, got {self.bit_rate!r}")
        if self.count < 0:
            raise ConfigurationError(
                f"count must be >= 0, got {self.count!r}")

    @property
    def load(self) -> float:
        """Aggregate class bandwidth, bytes/second."""
        return self.count * self.bit_rate


def _aggregate(classes: list[StreamClass]) -> tuple[float, float]:
    """(total stream count, aggregate load), both summed left to right."""
    if not classes:
        raise ConfigurationError("at least one stream class is required")
    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate class names in {names!r}")
    n_total = sequential_sum(c.count for c in classes)
    load = sequential_sum(c.load for c in classes)
    return n_total, load


@dataclass(frozen=True)
class MulticlassDesign:
    """Per-class buffer sizing for one device and population."""

    classes: tuple[StreamClass, ...]
    #: IO cycle, seconds.
    t_cycle: float
    #: Per-class per-stream buffer, bytes (aligned with ``classes``).
    buffers: tuple[float, ...]

    @property
    def total_dram(self) -> float:
        """Aggregate DRAM over all classes, bytes."""
        return sequential_sum(c.count * s
                              for c, s in zip(self.classes, self.buffers))

    def buffer_for(self, name: str) -> float:
        """Per-stream buffer of the named class, bytes."""
        for cls, size in zip(self.classes, self.buffers):
            if cls.name == name:
                return size
        raise ConfigurationError(f"unknown class {name!r}")


def design_multiclass_direct(classes: list[StreamClass], *, rate: float,
                             latency: float) -> MulticlassDesign:
    """Exact multi-class Theorem 1.

    Raises :class:`~repro.errors.AdmissionError` when the aggregate
    load reaches the device rate.
    """
    if rate <= 0:
        raise ConfigurationError(f"rate must be > 0, got {rate!r}")
    if latency < 0:
        raise ConfigurationError(f"latency must be >= 0, got {latency!r}")
    n_total, load = _aggregate(classes)
    if n_total == 0:
        return MulticlassDesign(classes=tuple(classes), t_cycle=0.0,
                                buffers=tuple(0.0 for _ in classes))
    if load >= rate:
        raise AdmissionError(
            f"aggregate load {load:.6g} B/s is not below the device rate "
            f"{rate:.6g} B/s", load=load, capacity=rate)
    t_cycle = latency * n_total * rate / (rate - load)
    buffers = tuple(c.bit_rate * t_cycle for c in classes)
    return MulticlassDesign(classes=tuple(classes), t_cycle=t_cycle,
                            buffers=buffers)


def design_multiclass_buffer(classes: list[StreamClass],
                             params: SystemParameters
                             ) -> MulticlassDesign:
    """Multi-class Theorem 2: per-class DRAM behind a MEMS buffer.

    ``params`` supplies the devices (``r_disk``, ``r_mems``, latencies,
    ``k``, ``size_mems``); its ``n_streams``/``bit_rate`` are ignored.
    The bank carries the doubled aggregate load; the disk cycle takes
    the largest value allowed by the staging capacity (Eq. 7 with the
    aggregate load); each class's DRAM is its own rate times the
    effective MEMS cycle.
    """
    n_total, load = _aggregate(classes)
    if n_total == 0:
        return MulticlassDesign(classes=tuple(classes), t_cycle=0.0,
                                buffers=tuple(0.0 for _ in classes))
    mean_rate = load / n_total
    bank_rate = params.mems_bank_bandwidth
    doubled = 2.0 * (load + (params.k - 1) * mean_rate)
    if doubled >= bank_rate:
        raise AdmissionError(
            f"MEMS bank must sustain twice the aggregate load: need "
            f"{doubled:.6g} B/s of {bank_rate:.6g} B/s",
            load=doubled, capacity=bank_rate)
    if load >= params.r_disk:
        raise AdmissionError(
            f"aggregate load {load:.6g} B/s saturates the disk "
            f"({params.r_disk:.6g} B/s)", load=load,
            capacity=params.r_disk)
    floor = (n_total * params.l_mems * params.r_mems) / (bank_rate - doubled)
    # Disk cycle bounds: Eq. 6 with the aggregate, Eq. 7 with the load.
    lower = (n_total * params.l_disk * params.r_disk
             / (params.r_disk - load))
    if params.size_mems is None:
        t_disk = math.inf
        effective_cycle = floor
    else:
        t_disk = params.mems_bank_capacity / (2.0 * load)
        if t_disk < lower:
            raise CapacityError(
                f"the bank cannot stage the minimal disk cycle: "
                f"T_min={lower:.6g}s needs {2 * load * lower:.6g} B of "
                f"{params.mems_bank_capacity:.6g} B")
        if t_disk <= floor:
            raise AdmissionError(
                f"T_disk={t_disk:.6g}s does not exceed the MEMS cycle "
                f"floor C={floor:.6g}s")
        effective_cycle = floor * t_disk / (t_disk - floor)
    slack = 1.0 + (2.0 * params.k - 2.0) / n_total
    buffers = tuple(c.bit_rate * effective_cycle * slack for c in classes)
    return MulticlassDesign(classes=tuple(classes), t_cycle=t_disk,
                            buffers=buffers)


def admit_class(classes: list[StreamClass], addition: StreamClass, *,
                rate: float, latency: float,
                dram_budget: float) -> bool:
    """Would adding ``addition`` keep the direct population feasible?

    Checks both bandwidth slack and the DRAM budget with exact
    multi-class sizing (no averaging error).
    """
    if dram_budget < 0:
        raise ConfigurationError(
            f"dram_budget must be >= 0, got {dram_budget!r}")
    merged: list[StreamClass] = []
    added = False
    for cls in classes:
        if cls.name == addition.name:
            if cls.bit_rate != addition.bit_rate:
                raise ConfigurationError(
                    f"class {cls.name!r} redefined with a different "
                    f"bit-rate")
            merged.append(StreamClass(cls.name, cls.bit_rate,
                                      cls.count + addition.count))
            added = True
        else:
            merged.append(cls)
    if not added:
        merged.append(addition)
    try:
        design = design_multiclass_direct(merged, rate=rate,
                                          latency=latency)
    except AdmissionError:
        return False
    return design.total_dram <= dram_budget
