"""Observability for the online server runtime.

The runtime accounts its behaviour in fixed-length reporting intervals:
monotonically increasing *counters* (arrivals, admits, rejects, drops,
migrations) are deltaed per interval, instantaneous *gauges* (active
sessions, DRAM occupancy, device utilisation, blocking probability vs.
the Erlang-B prediction) are sampled at the interval edge.  Snapshots
serialise losslessly to JSON (schema below) and render as a fixed-width
text dashboard for the CLI.

JSON schema (``MetricsLog.to_dict``)::

    {
      "schema": 1,
      "snapshots": [
        {"index": 0, "t_start": 0.0, "t_end": 60.0,
         "counters": {"arrivals": 12, ...},
         "gauges": {"active_sessions": 9.0, ...}},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Serialisation format version.
SCHEMA_VERSION = 1

#: Counter names every snapshot carries (missing ones default to 0).
COUNTER_NAMES: tuple[str, ...] = (
    "arrivals", "admits", "rejects", "departures", "drops",
    "migrations_in", "migrations_out", "replans", "failures",
    "batched_joins", "streams_opened", "streams_closed",
)


@dataclass(frozen=True, slots=True)
class IntervalSnapshot:
    """Counters and gauges for one reporting interval."""

    index: int
    t_start: float
    t_end: float
    counters: dict[str, int]
    gauges: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IntervalSnapshot":
        return cls(index=int(payload["index"]),
                   t_start=float(payload["t_start"]),
                   t_end=float(payload["t_end"]),
                   counters={str(k): int(v)
                             for k, v in payload["counters"].items()},
                   gauges={str(k): float(v)
                           for k, v in payload["gauges"].items()})


@dataclass
class MetricsLog:
    """Accumulates counters between snapshots and the snapshot series.

    The well-known counters live in one persistent dict seeded with
    every :data:`COUNTER_NAMES` entry, and ``count`` tracks which names
    actually moved, so sealing an interval is a flat copy plus an
    O(changed-counters) reset — no per-close rebuild scanning every
    known name.  Ad-hoc counter names still work; they ride in a side
    dict that only exists in intervals that used them (exactly the
    legacy serialisation).
    """

    snapshots: list[IntervalSnapshot] = field(default_factory=list)
    _interval_start: float = 0.0
    _counters: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COUNTER_NAMES, 0))
    _dirty: set[str] = field(default_factory=set)
    _extra: dict[str, int] = field(default_factory=dict)

    def count(self, name: str, increment: int = 1) -> None:
        """Bump a counter within the current interval."""
        if increment < 0:
            raise ConfigurationError(
                f"increment must be >= 0, got {increment!r}")
        if name in self._counters:
            self._counters[name] += increment
            self._dirty.add(name)
        else:
            self._extra[name] = self._extra.get(name, 0) + increment

    def close_interval(self, t_end: float,
                       gauges: dict[str, float]) -> IntervalSnapshot:
        """Seal the current interval with sampled gauges; start the next."""
        counters = dict(self._counters)
        if self._extra:
            counters.update(self._extra)
            self._extra = {}
        snapshot = IntervalSnapshot(index=len(self.snapshots),
                                    t_start=self._interval_start,
                                    t_end=t_end, counters=counters,
                                    gauges=dict(gauges))
        self.snapshots.append(snapshot)
        for name in self._dirty:
            self._counters[name] = 0
        self._dirty.clear()
        self._interval_start = t_end
        return snapshot

    def totals(self) -> dict[str, int]:
        """Counter sums across all sealed intervals."""
        totals: dict[str, int] = {}
        for snapshot in self.snapshots:
            for name, value in snapshot.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    # -- Serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION,
                "snapshots": [s.to_dict() for s in self.snapshots]}

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsLog":
        payload = json.loads(text)
        if payload.get("schema") != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported metrics schema {payload.get('schema')!r}; "
                f"expected {SCHEMA_VERSION}")
        return cls(snapshots=[IntervalSnapshot.from_dict(s)
                              for s in payload["snapshots"]])


def render_dashboard(log: MetricsLog, *, max_rows: int = 24) -> str:
    """Fixed-width text dashboard over the snapshot series.

    One row per interval (evenly subsampled past ``max_rows``) plus a
    totals footer; columns cover the session funnel and the gauges an
    operator watches first.
    """
    if not log.snapshots:
        return "(no metrics intervals recorded)"
    header = (f"{'t_end':>8} | {'arr':>5} {'adm':>5} {'rej':>5} "
              f"{'dep':>5} {'drp':>4} | {'act':>5} {'block':>6} "
              f"{'erlB':>6} | {'hit':>5} {'util':>5} {'dram':>5} "
              f"{'k':>2} {'mode':>6}")
    lines = [header, "-" * len(header)]
    snapshots = log.snapshots
    if len(snapshots) > max_rows:
        step = len(snapshots) / max_rows
        snapshots = [snapshots[int(i * step)] for i in range(max_rows)]
        if snapshots[-1] is not log.snapshots[-1]:
            snapshots.append(log.snapshots[-1])
    for s in snapshots:
        c = s.counters
        g = s.gauges
        lines.append(
            f"{s.t_end:>8.0f} | {c.get('arrivals', 0):>5} "
            f"{c.get('admits', 0):>5} {c.get('rejects', 0):>5} "
            f"{c.get('departures', 0):>5} {c.get('drops', 0):>4} | "
            f"{g.get('active_sessions', 0):>5.0f} "
            f"{g.get('blocking_probability', 0):>6.3f} "
            f"{g.get('erlang_b_prediction', 0):>6.3f} | "
            f"{g.get('cache_hit_ratio', 0):>5.2f} "
            f"{g.get('device_utilization', 0):>5.2f} "
            f"{g.get('dram_occupancy', 0):>5.2f} "
            f"{g.get('k_active', 0):>2.0f} "
            f"{'DEGRAD' if g.get('degraded', 0) else 'ok':>6}")
    totals = log.totals()
    last = log.snapshots[-1].gauges
    lines.append("-" * len(header))
    lines.append(
        f"totals: {totals.get('arrivals', 0)} arrivals, "
        f"{totals.get('admits', 0)} admits, "
        f"{totals.get('rejects', 0)} rejects, "
        f"{totals.get('departures', 0)} departures, "
        f"{totals.get('drops', 0)} drops, "
        f"{totals.get('migrations_in', 0)}/{totals.get('migrations_out', 0)} "
        f"migrations in/out, {totals.get('failures', 0)} failures")
    lines.append(
        f"final:  blocking {last.get('blocking_probability', 0.0):.4f} "
        f"(Erlang-B {last.get('erlang_b_prediction', 0.0):.4f}), "
        f"degraded time {last.get('degraded_time', 0.0):.0f}s")
    if "fanout_ratio" in last:
        lines.append(
            f"vod:    fanout {last['fanout_ratio']:.2f} sessions/stream "
            f"(cumulative {last.get('fanout_cumulative', 0.0):.2f}), "
            f"prefix hit {last.get('prefix_hit_rate', 0.0):.3f}, "
            f"{last.get('prefix_resident_titles', 0.0):.0f} resident, "
            f"tail-disk load {last.get('tail_disk_load', 0.0):.2f}")
    if "planner_cache_hits" in last:
        lines.append(
            f"planner: {last['planner_cache_hits']:.0f} cache hits / "
            f"{last.get('planner_cache_misses', 0.0):.0f} misses "
            f"({100.0 * last.get('planner_cache_hit_ratio', 0.0):.0f}% "
            "hit rate), "
            f"{last.get('planner_probe_cold', 0.0):.0f} cold / "
            f"{last.get('planner_probe_warm', 0.0):.0f} warm probes")
    return "\n".join(lines)
