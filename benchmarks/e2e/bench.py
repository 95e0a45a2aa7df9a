"""End-to-end benchmark of ``runtime --config`` and the MediaService API.

Usage (from anywhere; the repository root is found from this file)::

    python3 benchmarks/e2e/bench.py run --seed 1 --out DIR
        # every workload: end-to-end metrics, then a traced round
    python3 benchmarks/e2e/bench.py run --workload disk_saturated \\
        --seed 1 --seconds 25 --trace 0
        # one workload, end-to-end metrics only (--trace 1: per-layer)
    python3 benchmarks/e2e/bench.py trace --seed 1 --out DIR
        # per-layer metrics only; writes trace_<workload>.json
    python3 benchmarks/e2e/bench.py compare PARENT_DIR CHANGE_DIR
        # verdict per (metric, workload) over >= 10 paired runs
    python3 benchmarks/e2e/bench.py summary DIR
        # medians and quartiles of a directory of runs, as JSON

This process only generates inputs, starts one child at a time
(``child.py``), checks what comes back and computes the metrics.  The
program itself runs only in the children and only ever receives config
JSON generated here from ``--seed``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
CONFIGS = HERE / "configs"
#: Scratch space for generated configs and outputs; removed after a run.
WORK = ROOT / ".e2e_work"

#: Each child must finish within this; the whole run has 180 s.
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix: CLI configs and/or one API client."""

    name: str
    configs: tuple[str, ...]
    #: True: each config runs as ``runtime --config``, then a short API
    #: probe drives all of them.  False: the API client alone.
    cli: bool
    #: API client cycles per config in one round.
    cycles: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("disk_saturated", ("steady-disk", "flash-crowd", "overload"),
             True, 20,
             "plain-disk loss system at and past its Theorem-1 limit: "
             "per-arrival work and a large export, never a replan"),
    Workload("cache_catalog",
             ("adaptive-cache", "device-failure", "degraded-bandwidth"),
             True, 20,
             "2000-title catalogue replanned every minute: epoch replan "
             "and failure recovery dominate, per-arrival load is light"),
    Workload("vod_prefix", ("flash_crowd", "diurnal_drift", "long_tail"),
             True, 20,
             "the only traffic with multicast batching joins and prefix "
             "placement, high (flash crowd) and low (long tail) fan-out"),
    Workload("service_api", ("adaptive-cache",), False, 125,
             "closed-loop API client with PENDING admits, teardowns and "
             "reconfigures: facade, bus and backpressure cost alone"),
)}

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "session_events_per_s": "events/s",
    "ops_per_s": "ops/s",
    "admit_p50_us": "us",
    "admit_p99_us": "us",
    "teardown_p99_us": "us",
    "reconfigure_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Exact work counters (per-layer metrics that must repeat exactly).
COUNTERS = (
    "simulation.engine.events_executed", "runtime.sessions.session_events",
    "runtime.sessions.arrivals", "scheduling.admission.rejects",
    "planner.probes_cold", "planner.probes_warm", "planner.cache_hits",
    "planner.cache_misses", "planner.cache_size",
    "runtime.placement.replans", "runtime.placement.migrations",
    "vod.multicast.batched_joins", "vod.multicast.streams_opened",
    "runtime.metrics.intervals", "service.events.published", "export.bytes",
)


def layer_units() -> dict[str, str]:
    """Per-layer metrics: name -> unit."""
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    for name in COUNTERS:
        units[name] = "bytes" if name == "export.bytes" else "count"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- Inputs ------------------------------------------------------------------

def make_config(workload: Workload, name: str, seed: int, scale: float,
                directory: Path) -> Path:
    """Write ``name``'s template with ``seed`` in, horizon scaled."""
    payload = json.loads((CONFIGS / workload.name / f"{name}.json")
                         .read_text(encoding="utf-8"))
    payload["seed"] = seed
    payload["horizon"] *= scale
    for events in payload["timeline"].values():
        for event in events:
            event["time"] *= scale
    path = directory / f"{workload.name}-{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True),
                    encoding="utf-8")
    return path


# -- Children ----------------------------------------------------------------

def spawn(args: list[str]) -> tuple[int, str]:
    """Run ``child.py args`` to completion: (exit code, stderr)."""
    command = [sys.executable, str(CHILD), *args, "--src", str(SRC)]
    proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, stderr


def read_output(path: Path) -> dict:
    """What the checks and counters need from one result JSON."""
    data = path.read_bytes()
    payload = json.loads(data)
    summary = payload["summary"]
    return {"bytes": len(data), "digest": hashlib.sha256(data).hexdigest(),
            "session_events": len(payload["events"]),
            "totals": summary["totals"],
            "planner_cache": summary["planner_cache"],
            "events_executed": summary["events_executed"],
            "intervals": len(payload["metrics"]["snapshots"])}


# -- One run -----------------------------------------------------------------

@dataclass
class Round:
    """One repetition of a workload's work (identical in every round)."""

    cli: dict[str, dict | None] = field(default_factory=dict)
    api: dict | None = None

    def items(self) -> list[dict]:
        return [item for item in (*self.cli.values(), self.api)
                if item is not None]

    def api_parts(self) -> list[dict]:
        return self.api["report"]["configs"] if self.api is not None else []


class Run:
    """One workload at one seed: inputs, children, checks, metrics."""

    def __init__(self, workload: Workload, seed: int, scale: float,
                 directory: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.configs = {name: make_config(workload, name, seed, scale,
                                          directory)
                        for name in workload.configs}
        self.cycles = max(4, round(workload.cycles * scale))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0

    # -- Checks --------------------------------------------------------------

    def check(self, ok: bool, config: str, message: str) -> bool:
        if not ok:
            line = (f"CHECK FAILED workload={self.workload.name} "
                    f"config={config} seed={self.seed}: {message}")
            self.failures.append(line)
            print(line, flush=True)
        return ok

    def _check_output(self, config: str, out: dict) -> bool:
        t = out["totals"]
        ok = self.check(t["arrivals"] == t["admits"] + t["rejects"], config,
                        f"arrivals {t['arrivals']} != admits {t['admits']} "
                        f"+ rejects {t['rejects']}")
        ok &= self.check(t["admits"] - t["departures"] - t["drops"] >= 0,
                         config, "more departures and drops than admits")
        events = t["admits"] + t["rejects"] + t["departures"] + t["drops"]
        ok &= self.check(out["session_events"] == events, config,
                         f"{out['session_events']} session events, counters "
                         f"say {events}")
        mode = json.loads(self.configs[config].read_text())["configuration"]
        if mode == "prefix":
            ok &= self.check(
                t["admits"] == t["streams_opened"] + t["batched_joins"],
                config, f"admits {t['admits']} != streams_opened "
                        f"{t['streams_opened']} + batched_joins "
                        f"{t['batched_joins']}")
        return ok

    def _check_api(self, config: str, report: dict) -> None:
        tickets = report["tickets"]
        self.check(tickets["pending"] == 0, config,
                   f"{tickets['pending']} PENDING tickets never finalized")
        self.check(report["tickets_issued"]
                   == tickets["admitted"] + tickets["rejected"], config,
                   f"tickets issued {report['tickets_issued']} != admitted "
                   f"{tickets['admitted']} + rejected {tickets['rejected']}")
        for failure in report["failures"]:
            self.check(False, config, f"facade call raised: {failure}")

    # -- Children ------------------------------------------------------------

    def _child(self, label: str, args: list[str]) -> dict | None:
        """Spawn one child; its report, or None if it failed."""
        report_path = self.directory / "report.json"
        report_path.unlink(missing_ok=True)
        code, stderr = spawn([*args, "--report", str(report_path)])
        if not self.check(code == 0 and report_path.exists(), label,
                          f"child exited {code}: {stderr.strip()[-2000:]}"):
            return None
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if "--trace" not in args:
            self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])
        return report

    def run_cli(self, config: str, *, trace: bool = False) -> dict | None:
        """One ``runtime --config`` command; None if it failed.

        The CLI's ``--seed`` (default 0) overrides the seed inside the
        config file, so the seed is passed on the command line as well.
        """
        self.attempted += 1
        out = self.directory / "out.json"
        args = ["cli", str(self.configs[config]), str(out),
                "--seed", str(self.seed)]
        if trace:
            args.append("--trace")
        report = self._child(config, args)
        if report is None:
            self.failed += 1
            return None
        item = {"report": report, "output": read_output(out)}
        out.unlink()
        if not self._check_output(config, item["output"]):
            self.failed += 1
        return item

    def run_api(self, *, trace: bool = False) -> dict | None:
        """One API child over every config; None if it failed."""
        args = ["api", *map(str, self.configs.values()),
                "--cycles", str(self.cycles),
                "--spawned-at", repr(time.monotonic())]
        if trace:
            args.append("--trace")
        report = self._child("+".join(self.configs), args)
        if report is None:
            self.attempted += 1
            self.failed += 1
            return None
        for name, part in zip(self.configs, report["configs"]):
            self.attempted += part["ops"]
            self.failed += len(part["failures"])
            self._check_api(name, part)
            part["name"] = name
        return {"report": report}

    def run_round(self, *, trace: bool = False) -> Round:
        """The workload's work once."""
        result = Round()
        if self.workload.cli:
            for name in self.configs:
                result.cli[name] = self.run_cli(name, trace=trace)
        result.api = self.run_api(trace=trace)
        return result

    def check_same(self, rounds: list[Round], what: str) -> None:
        """Every round of one seed must produce identical bytes."""
        first = rounds[0]
        for other in rounds[1:]:
            for name, item in first.cli.items():
                twin = other.cli.get(name)
                if item is not None and twin is not None:
                    self.check(item["output"]["digest"]
                               == twin["output"]["digest"], name,
                               f"output bytes differ between {what}")
            for part, twin in zip(first.api_parts(), other.api_parts()):
                self.check(part["digest"] == twin["digest"], part["name"],
                           f"ticket stream differs between {what}")


# -- Metrics -----------------------------------------------------------------

def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``samples``."""
    if len(samples) < 2:
        return samples[0] if samples else float("nan")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def fastest(series: list[list[float]]) -> list[float]:
    """Position-wise minimum over rounds.

    Every round replays the same calls in the same order (same seed,
    byte-identical results), so the k-th sample of each round timed the
    same work and differs only by how contended the machine was then.
    """
    return [min(values) for values in zip(*series)]


def end_to_end(run: Run, rounds: list[Round]) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the sample count behind each, and outcomes.

    Timings are taken from the least-contended repetition of each unit
    of work: per CLI command the fastest round, per API call and per
    client cycle the fastest round at that position (:func:`fastest`).
    ``setup_s`` is the median of its samples.
    """
    nan = float("nan")
    api_rounds = [r.api_parts() for r in rounds if r.api is not None]
    n_parts = min((len(parts) for parts in api_rounds), default=0)

    def floor(key: str, j: int) -> list[float]:
        return fastest([parts[j][key] for parts in api_rounds])

    def latency(op: str, q: int) -> tuple[float, int]:
        calls = [v for j in range(n_parts)
                 for v in fastest([parts[j]["latencies"][op]
                                   for parts in api_rounds])]
        return percentile(calls, q) * 1e6, len(calls)

    first_api = api_rounds[0] if api_rounds else []
    loop_s = sum(sum(floor("cycle_s", j)) for j in range(n_parts))
    ops = sum(p["ops"] for p in first_api) / loop_s if loop_s else nan
    if run.workload.cli:
        first = rounds[0].cli
        events = sum(item["output"]["session_events"]
                     for item in first.values() if item is not None)
        walls = [min((r.cli[name]["report"]["wall_s"] for r in rounds
                      if r.cli.get(name) is not None), default=nan)
                 for name in run.configs]
        rate = events / sum(walls)
        outputs = [item["output"] for item in first.values()
                   if item is not None]
        arrivals = sum(o["totals"]["arrivals"] for o in outputs)
        refused = sum(o["totals"]["rejects"] for o in outputs)
    else:
        events = sum(p["session_events"] for p in first_api)
        rate = events / loop_s if loop_s else nan
        arrivals = sum(p["tickets_issued"] for p in first_api)
        refused = sum(p["tickets"]["rejected"] for p in first_api)
    setup = [r.api["report"]["setup_s"] for r in rounds
             if r.api is not None]
    metrics = {"session_events_per_s": rate, "ops_per_s": ops}
    samples = {"session_events_per_s": len(rounds), "ops_per_s": len(rounds)}
    for name, op, q in (("admit_p50_us", "admit", 50),
                        ("admit_p99_us", "admit", 99),
                        ("teardown_p99_us", "teardown", 99),
                        ("reconfigure_p50_us", "reconfigure", 50)):
        metrics[name], samples[name] = latency(op, q)
    metrics["setup_s"] = statistics.median(setup) if setup else nan
    samples["setup_s"] = len(setup)
    metrics["peak_rss_mb"] = run.peak_rss_mb
    outcomes = {"blocking_probability": refused / arrivals if arrivals
                else nan,
                "error_rate": run.failed / max(run.attempted, 1)}
    return metrics, samples, outcomes


def counters(r: Round, trace_rows: list[dict]) -> dict[str, int]:
    """Exact work counters over one round's outputs."""
    sums = dict.fromkeys(COUNTERS, 0)
    records = [item["output"] for item in r.cli.values() if item is not None]
    for rec in [*records, *r.api_parts()]:
        t, cache = rec["totals"], rec["planner_cache"]
        sums["simulation.engine.events_executed"] += rec["events_executed"]
        sums["runtime.sessions.session_events"] += rec["session_events"]
        sums["runtime.sessions.arrivals"] += t["arrivals"]
        sums["scheduling.admission.rejects"] += t["rejects"]
        sums["planner.probes_cold"] += cache["probes_cold"]
        sums["planner.probes_warm"] += cache["probes_warm"]
        sums["planner.cache_hits"] += cache["hits"]
        sums["planner.cache_misses"] += cache["misses"]
        sums["planner.cache_size"] += cache["size"]
        sums["runtime.placement.replans"] += t["replans"]
        sums["runtime.placement.migrations"] += (t["migrations_in"]
                                                 + t["migrations_out"])
        sums["vod.multicast.batched_joins"] += t["batched_joins"]
        sums["vod.multicast.streams_opened"] += t["streams_opened"]
        sums["runtime.metrics.intervals"] += rec["intervals"]
        sums["export.bytes"] += rec.get("bytes", 0)
    # The CLI keeps its bus private, so the publish count comes from the
    # tracer (for the API client it must agree with ``stats()``).
    sums["service.events.published"] = sum(
        row["calls"] for row in trace_rows
        if row["binding"] == "repro.service.events.EventBus.publish")
    return sums


def per_layer(run: Run, plain: Round, traced: Round) -> tuple[dict, dict]:
    """Per-layer metrics from a traced round and its untraced twin."""
    items = traced.items()
    rows = [row for item in items for row in item["report"]["trace"]["rows"]]
    aliases = sorted({alias for item in items
                      for alias in item["report"]["trace"]["aliases"]})
    traced_s = sum(item["report"]["wall_s"] for item in items)
    plain_s = sum(item["report"]["wall_s"] for item in plain.items())
    metrics: dict[str, float] = {}
    for layer in tracing.LAYERS:
        mine = [row for row in rows if row["layer"] == layer]
        self_s = sum(row["self_s"] for row in mine)
        metrics[f"{layer}.calls"] = sum(row["calls"] for row in mine)
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / traced_s if traced_s else 0.0
    metrics.update(counters(traced, rows))
    covered = sum(row["self_s"] for row in rows)
    metrics["trace.coverage"] = covered / traced_s if traced_s else 0.0
    metrics["trace.overhead_ratio"] = (traced_s / plain_s if plain_s
                                       else float("nan"))
    if not run.workload.cli:
        published = sum(part["events_published"]
                        for part in traced.api_parts())
        run.check(metrics["service.events.published"] == published,
                  "+".join(run.configs), "tracer saw "
                  f"{metrics['service.events.published']} publishes, "
                  f"stats() says {published}")
    children = [{"name": name, "wall_s": item["report"]["wall_s"]}
                for name, item in traced.cli.items() if item is not None]
    if traced.api is not None:
        children.append({"name": "api",
                         "wall_s": traced.api["report"]["wall_s"]})
    trace_doc = {"workload": run.workload.name, "seed": run.seed,
                 "traced_wall_s": traced_s, "untraced_wall_s": plain_s,
                 "aliases": aliases, "children": children, "rows": rows}
    return metrics, trace_doc


# -- Running a workload ----------------------------------------------------

def measure(workload: Workload, *, seed: int, seconds: float, scale: float,
            want_e2e: bool, want_layers: bool, out: Path | None) -> dict:
    """Run one workload; returns its run record."""
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        run = Run(workload, seed, scale, directory)
        rounds: list[Round] = []
        start = time.perf_counter()
        while not rounds or (want_e2e
                             and time.perf_counter() - start < seconds):
            rounds.append(run.run_round())
        run.check_same(rounds, "rounds of one seed")
        values: dict[str, float] = {}
        samples: dict[str, int] = {}
        outcomes: dict[str, float] = {}
        if want_e2e:
            values, samples, outcomes = end_to_end(run, rounds)
        if want_layers:
            traced = run.run_round(trace=True)
            run.check_same([rounds[0], traced], "traced and untraced runs")
            layer_values, trace_doc = per_layer(run, rounds[0], traced)
            values.update(layer_values)
            if out is not None:
                (out / f"trace_{workload.name}.json").write_text(
                    json.dumps(trace_doc, indent=1, sort_keys=True),
                    encoding="utf-8")
        record = {"workload": workload.name, "seed": seed, "scale": scale,
                  "seconds": seconds, "rounds": len(rounds),
                  "correct": not run.failures, "attempted": run.attempted,
                  "failed": run.failed, "checks_failed": run.failures,
                  "metrics": values, "samples": samples,
                  "outcomes": outcomes, "nproc": os.cpu_count(),
                  "python": platform.python_version()}
        if out is not None:
            (out / f"{workload.name}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True),
                encoding="utf-8")
        return record
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def print_record(record: dict, units: dict[str, str]) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['rounds']} round(s), scale {record['scale']:g})")
    for name, value in record["metrics"].items():
        n = record["samples"].get(name)
        suffix = f"  (n={n})" if n is not None else ""
        shown = f"{value:>16d}" if isinstance(value, int) else \
            f"{value:>16.6g}"
        print(f"  {name:<40} {shown} {units[name]}{suffix}")
    for name, value in record["outcomes"].items():
        print(f"  {name:<40} {value:>16.6g} ratio")
    print(f"  checks: {'all passed' if record['correct'] else 'FAILED'} "
          f"({record['failed']} of {record['attempted']} operations failed)")


def cmd_run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; available: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    want_e2e = args.trace != 1
    want_layers = args.trace != 0
    units = {**(E2E_UNITS if want_e2e else {}),
             **(layer_units() if want_layers else {})}
    records = []
    for name in names:
        record = measure(WORKLOADS[name], seed=args.seed,
                         seconds=args.seconds, scale=args.scale,
                         want_e2e=want_e2e, want_layers=want_layers,
                         out=args.out)
        print_record(record, units)
        records.append(record)

    def tagged(metrics: dict) -> dict:
        return {name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()}

    result = {"correct": all(r["correct"] for r in records),
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records)}
    if len(records) == 1:
        result["metrics"] = tagged(records[0]["metrics"])
    else:
        result["metrics"] = {r["workload"]: tagged(r["metrics"])
                             for r in records}
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


# -- Compare and summary -------------------------------------------------------

def load_records(directory: Path) -> dict[str, list[dict]]:
    """Every run record under ``directory``, per workload, in path order."""
    records: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        if path.name.startswith("trace_"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(record, dict) and record.get("workload") in WORKLOADS:
            records.setdefault(record["workload"], []).append(record)
    return records


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """Compare paired runs (README, "Comparing two commits").

    Returns the verdict and the share of pairs the change won.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pm, p3 = spread(parent)
    c1, cm, c3 = spread(change)
    gap = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gap > p3 - p1:
        return "improved", wins / len(parent)
    if bound is None:
        # Per-layer metrics have no bound: mirror the improvement rule.
        worse = losses >= 0.9 * len(parent) and -gap > p3 - p1
    else:
        worse = -gap > bound * abs(pm)
        too_wide = max(p3 - p1, c3 - c1) > bound * abs(pm)
        every_run_better = (min(sign * c for c in change)
                            > max(sign * p for p in parent))
        if not worse and too_wide and not every_run_better:
            return "unresolved", wins / len(parent)
    return ("worse" if worse else "no-change"), wins / len(parent)


def cmd_compare(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounded = {entry["name"]: entry for entry in spec["end_to_end"]}
    directions = {entry["name"]: entry["better"]
                  for entry in spec["end_to_end"] + spec["per_layer"]}
    units = {**E2E_UNITS, **layer_units()}
    parent_runs = load_records(args.parent)
    change_runs = load_records(args.change)
    bad = 0
    for workload in WORKLOADS:
        parents = parent_runs.get(workload, [])
        changes = change_runs.get(workload, [])
        if not parents and not changes:
            continue
        pairs = min(len(parents), len(changes))
        if pairs < 10:
            print(f"error: {workload}: {pairs} pair(s); compare needs at "
                  f"least 10", file=sys.stderr)
            return 2
        parents, changes = parents[:pairs], changes[:pairs]
        seeds = [(p["seed"], c["seed"]) for p, c in zip(parents, changes)]
        if any(p != c for p, c in seeds):
            print(f"error: {workload}: pair seeds differ {seeds}",
                  file=sys.stderr)
            return 2
        print(f"== {workload} ({pairs} pairs)")
        for name, unit in units.items():
            if not all(name in r["metrics"] for r in (*parents, *changes)):
                continue
            p = [r["metrics"][name] for r in parents]
            c = [r["metrics"][name] for r in changes]
            if name in COUNTERS:
                same = p == c
                bad += not same
                print(f"  {name:<36} {'identical' if same else 'CHANGED'}"
                      f"  parent {p[0]}  change {c[0]}")
                continue
            bound = bounded[name]["bound"] if name in bounded else None
            result, share = verdict(p, c, directions[name], bound)
            if name in bounded and result in ("worse", "unresolved"):
                bad += 1
            p1, pm, p3 = spread(p)
            c1, cm, c3 = spread(c)
            print(f"  {name:<36} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {unit}  "
                  f"won {share:.0%}  {result}")
    print("no regressions" if not bad else f"{bad} (metric, workload) "
          f"pair(s) worse, unresolved or changed")
    return 1 if bad else 0


def cmd_summary(args: argparse.Namespace) -> int:
    units = {**E2E_UNITS, **layer_units()}
    summary = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "workloads": {}}
    for workload, records in load_records(args.directory).items():
        rows = {}
        for name, unit in units.items():
            values = [r["metrics"][name] for r in records
                      if name in r["metrics"]]
            if not values:
                continue
            q1, median, q3 = spread(values)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "iqr_share": (q3 - q1) / median if median else 0.0,
                          "unit": unit, "n": len(values)}
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in records],
            "rounds": [r["rounds"] for r in records], "metrics": rows}
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        p = sub.add_parser(command)
        p.add_argument("--workload", action="append", default=None,
                       help="run only this workload (repeatable)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=25.0,
                       help="repeat whole rounds until this much time "
                            "has been measured (at least one round)")
        p.add_argument("--out", type=Path, default=None,
                       help="write <workload>.json run records and "
                            "trace_<workload>.json here")
        p.add_argument("--scale", type=float, default=1.0,
                       help="shrink horizons and API cycles (smoke tests)")
        if command == "run":
            p.add_argument("--trace", type=int, choices=(0, 1),
                           default=None,
                           help="0: end-to-end metrics only; 1: per-layer "
                                "metrics only (default: both)")
    compare = sub.add_parser("compare")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)
    summary = sub.add_parser("summary")
    summary.add_argument("directory", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        args.trace = 1
        return cmd_run(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_summary(args)


if __name__ == "__main__":
    sys.exit(main())
