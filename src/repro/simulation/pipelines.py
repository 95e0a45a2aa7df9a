"""Event-driven execution of the three server configurations.

Each pipeline executes the time-cycle schedules of Section 3 against
stream buffers and device timelines, and returns a
:class:`~repro.simulation.metrics.SimulationReport`.  Two latency
models are supported:

* ``"deterministic"`` — every IO is charged the analytical latency
  (scheduler-determined disk average; maximum MEMS latency).  At the
  analytical buffer sizes this mode must be exactly jitter-free, which
  is how the tests cross-validate Theorems 1-4.
* ``"sampled"`` — per-IO disk latencies are drawn from the device
  model: requests get uniformly random positions, an elevator sweep
  orders them, seek times follow the calibrated seek curve, and
  rotational delay is uniform over a revolution.  MEMS IOs keep the
  worst-case latency (the paper's conservative treatment), so all
  schedule variance comes from the disk.

``buffer_scale`` scales the provisioned per-stream DRAM; a real server
cannot read more than its buffer has room for, so a scale below 1.0
forces short reads and (eventually) starvation — demonstrating that
the analytical sizes are tight, not just sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.buffer_model import BufferDesign
from repro.core.cache_model import CacheDesign, CachePolicy
from repro.core.parameters import SystemParameters
from repro.core.summation import sequential_sum
from repro.devices.disk import DiskDrive
from repro.errors import ConfigurationError, SimulationError, require
from repro.scheduling.time_cycle import (
    OperationKind,
    TimeCycleSchedule,
    build_buffer_schedule,
    build_direct_schedule,
)
from repro.simulation.metrics import (
    ResourceUsage,
    SimulationReport,
    summarize_streams,
)
from repro.simulation.streams import StreamBuffer

_LATENCY_MODELS = ("deterministic", "sampled")


def _check_latency_model(latency_model: str, disk: DiskDrive | None) -> None:
    if latency_model not in _LATENCY_MODELS:
        raise ConfigurationError(
            f"latency_model must be one of {_LATENCY_MODELS}, "
            f"got {latency_model!r}")
    if latency_model == "sampled" and disk is None:
        raise ConfigurationError(
            "sampled latencies need a DiskDrive model (pass disk=...)")


def _disk_cycle_latencies(n_ios: int, params: SystemParameters,
                          latency_model: str, disk: DiskDrive | None,
                          rng: np.random.Generator | None) -> np.ndarray:
    """Per-IO positioning times for one elevator-ordered disk cycle."""
    latencies, _ = _disk_cycle_service(n_ios, params, latency_model, disk,
                                       rng)
    return latencies


def _disk_cycle_service(n_ios: int, params: SystemParameters,
                        latency_model: str, disk: DiskDrive | None,
                        rng: np.random.Generator | None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-IO (positioning time, media rate) for one disk cycle.

    Deterministic mode charges the analytical latency and the peak
    media rate.  Sampled mode draws uniformly random request positions,
    orders them into a C-LOOK sweep (seek = calibrated curve over the
    gap, rotation uniform over a revolution), and reads each IO at its
    *zone's* track rate — inner-zone requests transfer up to ~1.8x
    slower than outer-zone ones (Table 1's 170-300 MB/s spread).
    """
    if latency_model == "deterministic" or n_ios == 0:
        return (np.full(n_ios, params.l_disk),
                np.full(n_ios, params.r_disk))
    require(disk is not None and rng is not None,
            "sampled latency model needs a disk model and an rng")
    positions = np.sort(rng.random(n_ios))
    # C-LOOK sweep: first seek from the landing point of the previous
    # sweep (statistically a uniform point), then ascending gaps.
    gaps = np.diff(positions, prepend=positions[0] * 0.0)
    gaps[0] = positions[0]
    cylinders = gaps * disk.seek_curve.n_cylinders
    seeks = np.array([disk.seek_curve.seek_time(float(d)) for d in cylinders])
    rotations = rng.random(n_ios) * disk.rotation_time()
    geometry = disk.geometry
    rates = np.array([
        geometry.track_transfer_rate(
            min(int(p * geometry.n_cylinders), geometry.n_cylinders - 1),
            disk.rpm)
        for p in positions])
    return seeks + rotations, rates


def _starts(buffers: list[StreamBuffer]) -> list[float]:
    """Playback start times of the streams that began playing."""
    return [b.playback_start for b in buffers
            if b.playback_start is not None]


def _clamped_read(buffer: StreamBuffer, t_now: float, io_size: float,
                  latency: float, rate: float) -> tuple[float, float]:
    """Largest read <= ``io_size`` that fits the buffer *at completion*.

    The buffer keeps draining while the transfer is in flight, so the
    capacity constraint binds when the payload lands, not when the IO
    is issued: with pre-transfer level ``l``, drain rate ``b`` (zero
    before playback starts) and service time ``s(read)``, the landing
    level is ``max(l - b*s, 0) + read`` and must not exceed capacity.
    Solved in closed form.  Returns ``(read, service_time)``.
    """
    cap = buffer.capacity
    if math.isinf(cap):
        return io_size, latency + io_size / rate
    level = buffer.level(t_now)
    drain = buffer.bit_rate if buffer.playing else 0.0
    service = latency + io_size / rate
    if max(level - drain * service, 0.0) + io_size <= cap * (1 + 1e-12):
        return io_size, service
    # Clamped: the read lands exactly at capacity.
    if drain == 0.0:
        read = max(cap - level, 0.0)
    else:
        # Assume the buffer stays non-empty during the transfer:
        # level - drain*(latency + read/rate) + read = cap.
        read = (cap - level + drain * latency) / (1.0 - drain / rate)
        read = max(read, 0.0)
        if level - drain * (latency + read / rate) < 0:
            # It empties mid-transfer; the drained level clamps at 0.
            read = cap
    read = min(read, io_size)
    return read, latency + read / rate


@dataclass
class _MemsStore:
    """Byte accounting of stream data staged on the MEMS bank."""

    n_streams: int
    k: int

    def __post_init__(self) -> None:
        self.per_stream = [0.0] * self.n_streams
        self.per_device = [0.0] * self.k
        self.peak_occupancy = 0.0

    def deposit(self, stream_id: int, device: int, n_bytes: float) -> None:
        self.per_stream[stream_id] += n_bytes
        self.per_device[device] += n_bytes
        self.peak_occupancy = max(self.peak_occupancy,
                                  sequential_sum(self.per_device))

    def withdraw(self, stream_id: int, device: int, n_bytes: float) -> float:
        """Take up to ``n_bytes`` of the stream's staged data."""
        available = self.per_stream[stream_id]
        taken = min(n_bytes, available)
        self.per_stream[stream_id] -= taken
        self.per_device[device] -= taken
        return taken


def simulate_direct_pipeline(params: SystemParameters, *,
                             t_cycle: float | None = None,
                             buffer_scale: float = 1.0,
                             n_cycles: int = 20,
                             latency_model: str = "deterministic",
                             disk: DiskDrive | None = None,
                             seed: int = 0,
                             disturbances: dict[int, float] | None = None,
                             playback_delay_cycles: int = 0
                             ) -> SimulationReport:
    """Execute the plain disk-to-DRAM server (Theorem 1's schedule).

    Streams are provisioned ``buffer_scale`` times the analytical
    per-stream buffer; at 1.0 and deterministic latencies the run is
    jitter-free by Theorem 1.

    ``disturbances`` injects failures: a map from cycle index to a
    latency multiplier applied to every IO of that cycle (e.g.
    ``{5: 3.0}`` models a thermal-recalibration or vibration event
    tripling positioning times during cycle 5).  The report shows
    whether — and for how long — streams starve and how the schedule
    recovers.

    ``playback_delay_cycles`` delays each stream's playback start past
    its first credit, letting the (over-provisioned) buffer accumulate
    a cushion first — the standard deployment answer to latency
    variance.  With ``buffer_scale=1.0`` the cushion cannot accumulate
    (the clamp caps reads at the buffer), so pair it with a scale above
    one.
    """
    _check_latency_model(latency_model, disk)
    if n_cycles < 1:
        raise ConfigurationError(f"n_cycles must be >= 1, got {n_cycles!r}")
    if buffer_scale <= 0:
        raise ConfigurationError(
            f"buffer_scale must be > 0, got {buffer_scale!r}")
    if disturbances:
        for cycle_index, factor in disturbances.items():
            if cycle_index < 0 or factor < 0:
                raise ConfigurationError(
                    f"disturbances must map cycle >= 0 to factor >= 0, "
                    f"got {cycle_index!r}: {factor!r}")
    if playback_delay_cycles < 0:
        raise ConfigurationError(
            f"playback_delay_cycles must be >= 0, got "
            f"{playback_delay_cycles!r}")
    schedule = build_direct_schedule(params, t_cycle=t_cycle)
    n = schedule.n_streams
    io_size = params.bit_rate * schedule.t_disk
    capacity = max(io_size * buffer_scale, 1.0)
    buffers = [StreamBuffer(i, params.bit_rate, capacity=capacity)
               for i in range(n)]
    rng = np.random.default_rng(seed) if latency_model == "sampled" else None
    disk_usage = ResourceUsage(name="disk")

    clock = 0.0  # disk timeline; cycles may overrun and push successors
    for cycle in range(n_cycles):
        cycle_start = max(clock, cycle * schedule.t_disk)
        latencies, rates = _disk_cycle_service(n, params, latency_model,
                                               disk, rng)
        if disturbances and cycle in disturbances:
            latencies = latencies * disturbances[cycle]
        t = cycle_start
        busy = 0.0
        for i in range(n):
            read, service = _clamped_read(buffers[i], t, io_size,
                                          latencies[i], float(rates[i]))
            t += service
            busy += service
            disk_usage.operations += 1
            buffers[i].credit(t, read)
            if (not buffers[i].playing
                    and cycle >= playback_delay_cycles):
                buffers[i].start_playback(t)
        disk_usage.record_cycle(busy, schedule.t_disk)
        clock = t

    horizon = clock
    underflows, delivered, min_level, peak_level = summarize_streams(
        buffers, horizon)
    return SimulationReport(horizon=horizon, bytes_delivered=delivered,
                            underflows=underflows,
                            resources={"disk": disk_usage},
                            min_stream_level=min_level,
                            peak_stream_level=peak_level,
                            playback_starts=_starts(buffers))


def simulate_buffer_pipeline(design: BufferDesign, *,
                             buffer_scale: float = 1.0,
                             n_hyper_periods: int = 4,
                             latency_model: str = "deterministic",
                             disk: DiskDrive | None = None,
                             seed: int = 0) -> SimulationReport:
    """Execute the disk -> MEMS bank -> DRAM pipeline (Figures 4-5).

    The disk runs its ``T_disk`` cycles from t=0; the MEMS bank starts
    its ``T_mems`` cycles one disk cycle later (prefill warm-up).  Each
    MEMS device executes its share of DRAM reads and disk-write
    landings sequentially within every MEMS cycle, charging the
    worst-case MEMS latency per operation.  Verifies Eq. 7 empirically
    via the bank's peak occupancy.
    """
    _check_latency_model(latency_model, disk)
    if n_hyper_periods < 1:
        raise ConfigurationError(
            f"n_hyper_periods must be >= 1, got {n_hyper_periods!r}")
    if buffer_scale <= 0:
        raise ConfigurationError(
            f"buffer_scale must be > 0, got {buffer_scale!r}")
    schedule = build_buffer_schedule(design)
    params = design.params
    n = schedule.n_streams
    k = params.k
    require(schedule.t_mems is not None,
            "buffer schedule built without a MEMS cycle")
    dram_io = params.bit_rate * schedule.t_mems
    discrete = design.s_mems_dram_discrete
    require(discrete is not None,
            "buffer design carries no discrete DRAM size")
    capacity = max(discrete * buffer_scale, 1.0)
    buffers = [StreamBuffer(i, params.bit_rate, capacity=capacity)
               for i in range(n)]
    store = _MemsStore(n_streams=n, k=k)
    rng = np.random.default_rng(seed) if latency_model == "sampled" else None
    disk_usage = ResourceUsage(name="disk")
    mems_usage = [ResourceUsage(name=f"mems{d}") for d in range(k)]
    l_mems = params.l_mems

    n_disk_cycles = len(schedule.disk_cycles) * n_hyper_periods
    n_mems_cycles = len(schedule.mems_cycles) * n_hyper_periods

    # --- Disk timeline: compute every read's completion (landing) time.
    landing_times: list[float] = []  # indexed in global disk-read order
    clock = 0.0
    for cycle in range(n_disk_cycles):
        ops = schedule.disk_cycles[cycle % len(schedule.disk_cycles)]
        cycle_start = max(clock, cycle * schedule.t_disk)
        latencies, rates = _disk_cycle_service(len(ops), params,
                                               latency_model, disk, rng)
        t = cycle_start
        busy = 0.0
        for op, latency, rate in zip(ops, latencies, rates):
            service = latency + op.size / float(rate)
            t += service
            busy += service
            landing_times.append(t)
            disk_usage.operations += 1
        disk_usage.record_cycle(busy, schedule.t_disk)
        clock = t
    disk_horizon = clock

    # --- MEMS timelines: one per device, cycles offset by one T_disk.
    offset = schedule.t_disk
    device_clock = [offset] * k
    write_cursor = 0  # next global disk read to land into the bank
    short_reads = 0
    steady_short_reads = 0  # short reads after the warm-up window
    # Double buffering (the reason Eq. 7 provisions 2*N*B*T_disk): a
    # stream's DRAM reads begin one full disk cycle after its first
    # write lands, so the bank always holds between one and two disk
    # IOs per stream.  With single buffering the ceil-quantised landing
    # cadence (ceil(N/M) vs N/M MEMS cycles) runs streams dry one read
    # early.  Stream i's first write is global disk read i, processed
    # in MEMS cycle i // M.
    m = design.m
    require(m is not None,
            "buffer design carries no disk-transfer multiplicity m")
    cycles_per_disk_cycle = math.ceil(n / m)
    read_eligible_cycle = [i // m + cycles_per_disk_cycle for i in range(n)]
    # The steady state begins once every stream's reads are flowing and
    # one further disk cycle of landings has arrived.
    warmup_cycles = max(len(schedule.mems_cycles),
                        max(read_eligible_cycle) + cycles_per_disk_cycle)
    # Disk-side writes are *background transfers*: the controller seeks
    # to the staging region once per landed disk IO, then appends
    # whenever the cycle has slack left after the (deadline-bearing)
    # DRAM reads — possibly spanning several MEMS cycles.  This mirrors
    # Theorem 2's bandwidth-sharing analysis, where only the aggregate
    # write rate matters; forcing a whole B*T_disk write inside one
    # T_mems cycle would be an artificial constraint no real controller
    # has.  Stability (the backlog draining) is exactly the C bound and
    # is reported via ``max_write_backlog``.
    backlog: list[list[dict]] = [[] for _ in range(k)]
    max_backlog_bytes = 0.0

    def drain_backlog(d: int, until: float, busy: list[float]) -> None:
        clock = device_clock[d]
        queue = backlog[d]
        while queue and clock < until:
            entry = queue[0]
            if entry["landed"] > clock:
                if entry["landed"] >= until:
                    break
                clock = entry["landed"]
            if not entry["seek_charged"]:
                if clock + l_mems > until:
                    break
                clock += l_mems
                busy[d] += l_mems
                entry["seek_charged"] = True
                mems_usage[d].operations += 1
            writable = min(entry["remaining"],
                           (until - clock) * params.r_mems)
            if writable <= 0:
                break
            clock += writable / params.r_mems
            busy[d] += writable / params.r_mems
            entry["remaining"] -= writable
            store.deposit(entry["stream_id"], d, writable)
            if entry["remaining"] <= 1e-9:
                queue.pop(0)
        device_clock[d] = clock

    for cycle in range(n_mems_cycles):
        ops = schedule.mems_cycles[cycle % len(schedule.mems_cycles)]
        cycle_start = offset + cycle * (schedule.t_mems or 0.0)
        cycle_end = cycle_start + (schedule.t_mems or 0.0)
        cycle_busy = [0.0] * k
        for d in range(k):
            device_clock[d] = max(device_clock[d], cycle_start)
        for op in ops:
            d = op.device_index
            require(d is not None,
                    "MEMS operation scheduled without a device index")
            if op.kind is OperationKind.MEMS_WRITE:
                landed = landing_times[write_cursor]
                write_cursor += 1
                backlog[d].append({
                    "stream_id": op.stream_id,
                    "remaining": op.size,
                    "landed": landed,
                    "seek_charged": False,
                })
            elif op.kind is OperationKind.MEMS_READ:
                if cycle < read_eligible_cycle[op.stream_id]:
                    # Double-buffering warm-up: the scheduler does not
                    # issue reads for this stream yet (no charge).
                    continue
                # Clamp to both staged data and DRAM space.
                t_now = device_clock[d]
                want, _ = _clamped_read(buffers[op.stream_id], t_now,
                                        op.size, l_mems, params.r_mems)
                got = store.withdraw(op.stream_id, d, want)
                if got < op.size * (1 - 1e-9):
                    short_reads += 1
                    if cycle >= warmup_cycles:
                        steady_short_reads += 1
                service = l_mems + got / params.r_mems
                device_clock[d] += service
                cycle_busy[d] += service
                buffers[op.stream_id].credit(device_clock[d], got)
                if got > 0 and not buffers[op.stream_id].playing:
                    # Playback begins with the first real payload; during
                    # the pipeline warm-up (the stream's first disk read
                    # has not landed in the bank yet) reads come up empty.
                    buffers[op.stream_id].start_playback(device_clock[d])
                mems_usage[d].operations += 1
            else:  # pragma: no cover - schedule builder never emits these
                raise SimulationError(
                    f"unexpected {op.kind} in a MEMS cycle")
        for d in range(k):
            drain_backlog(d, cycle_end, cycle_busy)
            mems_usage[d].record_cycle(cycle_busy[d], schedule.t_mems or 0.0)
        pending = sequential_sum(entry["remaining"]
                                 for q in backlog for entry in q)
        max_backlog_bytes = max(max_backlog_bytes, pending)

    # Let the devices finish any residual backlog after the last cycle
    # so end-of-run accounting is clean.
    final_busy = [0.0] * k
    for d in range(k):
        drain_backlog(d, math.inf, final_busy)

    # Stream (underflow) accounting ends with the last scheduled refill
    # cycle: beyond it no reads are issued, so draining further would
    # report the shutdown itself as starvation.
    horizon = offset + n_mems_cycles * (schedule.t_mems or 0.0)
    underflows, delivered, min_level, peak_level = summarize_streams(
        buffers, horizon)
    resources = {"disk": disk_usage}
    resources.update({u.name: u for u in mems_usage})
    return SimulationReport(
        horizon=horizon, bytes_delivered=delivered, underflows=underflows,
        resources=resources, min_stream_level=min_level,
        peak_stream_level=peak_level,
        playback_starts=_starts(buffers),
        peak_mems_occupancy=store.peak_occupancy,
        notes={"short_reads": float(short_reads),
               "steady_short_reads": float(steady_short_reads),
               "unwritten_reads": float(len(landing_times) - write_cursor),
               "max_write_backlog": max_backlog_bytes})


def simulate_cache_pipeline(design: CacheDesign, *,
                            buffer_scale: float = 1.0,
                            n_cycles: int = 20,
                            latency_model: str = "deterministic",
                            disk: DiskDrive | None = None,
                            seed: int = 0) -> SimulationReport:
    """Execute the MEMS-cache server: two independent time-cycle loops.

    The disk class runs Theorem 1's schedule for the ``(1-h) N``
    disk-served streams; the cache class runs Theorem 3/4's schedule on
    the bank.  Stream counts are rounded to integers (``floor`` for the
    cache side, remainder to the disk side) so the schedule is
    executable.
    """
    _check_latency_model(latency_model, disk)
    if buffer_scale <= 0:
        raise ConfigurationError(
            f"buffer_scale must be > 0, got {buffer_scale!r}")
    params = design.params
    n_total = int(round(params.n_streams))
    n_cache = int(math.floor(design.n_cache_streams + 1e-9))
    n_disk = n_total - n_cache
    k = params.k

    reports: list[SimulationReport] = []
    if n_disk > 0:
        disk_params = params.replace(n_streams=n_disk)
        reports.append(simulate_direct_pipeline(
            disk_params, buffer_scale=buffer_scale, n_cycles=n_cycles,
            latency_model=latency_model, disk=disk, seed=seed))

    cache_resources: dict[str, ResourceUsage] = {}
    cache_report: SimulationReport | None = None
    if n_cache > 0:
        if design.policy is CachePolicy.STRIPED:
            # Lock-step bank: one shared timeline at k-fold rate.
            from repro.core.cache_model import striped_cache_buffer

            io_size = striped_cache_buffer(n_cache, params.bit_rate, k,
                                           params.r_mems, params.l_mems)
            t_cycle = io_size / params.bit_rate
            capacity = max(io_size * buffer_scale, 1.0)
            buffers = [StreamBuffer(i, params.bit_rate, capacity=capacity)
                       for i in range(n_cache)]
            usage = ResourceUsage(name="mems_bank")
            clock = 0.0
            for cycle in range(n_cycles):
                t = max(clock, cycle * t_cycle)
                busy = 0.0
                for i in range(n_cache):
                    read, service = _clamped_read(
                        buffers[i], t, io_size, params.l_mems,
                        k * params.r_mems)
                    t += service
                    busy += service
                    usage.operations += 1
                    buffers[i].credit(t, read)
                    if not buffers[i].playing:
                        buffers[i].start_playback(t)
                usage.record_cycle(busy, t_cycle)
                clock = t
            horizon = clock
            underflows, delivered, min_level, peak_level = summarize_streams(
                buffers, horizon)
            cache_resources["mems_bank"] = usage
            cache_report = SimulationReport(
                horizon=horizon, bytes_delivered=delivered,
                underflows=underflows, resources=dict(cache_resources),
                min_stream_level=min_level, peak_stream_level=peak_level,
                playback_starts=_starts(buffers))
        else:
            # Replicated: each device independently serves its share.
            from repro.core.cache_model import replicated_cache_buffer

            io_size = replicated_cache_buffer(n_cache, params.bit_rate, k,
                                              params.r_mems, params.l_mems)
            t_cycle = io_size / params.bit_rate
            capacity = max(io_size * buffer_scale, 1.0)
            buffers = [StreamBuffer(i, params.bit_rate, capacity=capacity)
                       for i in range(n_cache)]
            usages = [ResourceUsage(name=f"mems{d}") for d in range(k)]
            clocks = [0.0] * k
            for cycle in range(n_cycles):
                busy = [0.0] * k
                for d in range(k):
                    clocks[d] = max(clocks[d], cycle * t_cycle)
                for i in range(n_cache):
                    d = i % k
                    read, service = _clamped_read(
                        buffers[i], clocks[d], io_size, params.l_mems,
                        params.r_mems)
                    clocks[d] += service
                    busy[d] += service
                    usages[d].operations += 1
                    buffers[i].credit(clocks[d], read)
                    if not buffers[i].playing:
                        buffers[i].start_playback(clocks[d])
                for d in range(k):
                    usages[d].record_cycle(busy[d], t_cycle)
            horizon = max(clocks)
            underflows, delivered, min_level, peak_level = summarize_streams(
                buffers, horizon)
            cache_resources.update({u.name: u for u in usages})
            cache_report = SimulationReport(
                horizon=horizon, bytes_delivered=delivered,
                underflows=underflows, resources=dict(cache_resources),
                min_stream_level=min_level, peak_stream_level=peak_level,
                playback_starts=_starts(buffers))
        reports.append(cache_report)

    if not reports:
        return SimulationReport(horizon=0.0, bytes_delivered=0.0,
                                underflows=[], resources={},
                                min_stream_level=math.inf,
                                peak_stream_level=0.0)
    # Merge the class reports.
    horizon = max(r.horizon for r in reports)
    resources: dict[str, ResourceUsage] = {}
    for r in reports:
        resources.update(r.resources)
    return SimulationReport(
        horizon=horizon,
        bytes_delivered=sequential_sum(r.bytes_delivered for r in reports),
        underflows=sorted((u for r in reports for u in r.underflows),
                          key=lambda u: u.start),
        resources=resources,
        min_stream_level=min(r.min_stream_level for r in reports),
        peak_stream_level=max(r.peak_stream_level for r in reports),
        playback_starts=[t for r in reports for t in r.playback_starts],
        notes={"n_cache_streams": float(n_cache),
               "n_disk_streams": float(n_disk)})
