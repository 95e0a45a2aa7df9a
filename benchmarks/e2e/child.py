"""One measured process of the end-to-end benchmark.

``bench.py`` starts this script once per unit of work, one at a time,
and reads back the JSON report it writes.  Two modes:

``cli CONFIG OUT --seed S``
    Runs the user command ``runtime --config CONFIG --seed S --json OUT``
    by calling ``repro.experiments.cli.main`` in this process, with its
    dashboard sent to devnull.

``api CONFIG [CONFIG ...] --cycles N``
    One closed-loop client (it issues its next call only after the
    previous one returned) drives a ``MediaService`` built from each
    CONFIG in turn and times every facade call (``--cycles 0`` only
    builds the services).  ``setup_s`` runs from the parent's spawn to
    the first built service.  A facade call that raises is reported,
    not fatal: the exit code is nonzero only when the child itself
    breaks.

``--trace`` installs the outside-in tracer (``tracer.py``) before the
program builds anything.  Every report carries the process's own peak
resident set, read from ``VmHWM`` in ``/proc/self/status``: a child's
``ru_maxrss`` as seen through ``wait4`` starts from the parent's
resident set, so it would report the parent's memory, not the child's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

#: Facade calls the API client times, in report order.
API_OPS = ("admit", "admit_block", "stats", "on_epoch", "teardown",
           "reconfigure")


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (``VmHWM``)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _import_repro(src: Path) -> None:
    """Import the program from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import repro

    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise RuntimeError(f"imported repro from {location}, not from {src}")


def run_cli(config: str, out: str, seed: str) -> tuple[int, float]:
    """The user command, in process; returns (exit code, seconds)."""
    from repro.experiments.cli import main

    argv = ["runtime", "--config", config, "--seed", seed, "--json", out]
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        code = main(argv)
        return code, time.perf_counter() - start


def drive_api(service, cycles: int) -> dict:
    """The closed-loop control-plane client (see the README for why).

    Each cycle: 40 ``admit``, one ``admit_block(count=200)``, one
    ``stats``.  Every 4th cycle adds ``on_epoch`` plus 20 admits that
    park PENDING while the replan window is open, then advances the
    calendar 6 s so the replan-done event finalizes them.  The cycle
    ends by tearing down every other live session, one
    ``reconfigure(dram_budget=...)`` and 30 s of simulated time.
    """
    sim = service.sim
    clock = time.perf_counter
    latencies: dict[str, list[float]] = {op: [] for op in API_OPS}
    failures: list[str] = []
    tickets = []
    live: list[int] = []
    budget = service.config.dram_budget
    budgets = (budget, 0.9 * budget)

    def call(op, fn, *args, **kwargs):
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed call is counted, the loop goes on
            failures.append(f"{op}: {traceback.format_exc()}")
            return None
        latencies[op].append(clock() - start)
        return result

    def keep(ticket) -> None:
        if ticket is None:
            return
        tickets.append(ticket)
        if ticket.admitted:
            live.append(ticket.session_id)

    cycle_s: list[float] = []
    start = clock()
    for cycle in range(cycles):
        cycle_start = clock()
        for _ in range(40):
            keep(call("admit", service.admit))
        for ticket in call("admit_block", service.admit_block,
                           count=200) or ():
            keep(ticket)
        call("stats", service.stats)
        if cycle % 4 == 3:
            call("on_epoch", service.on_epoch, sim)
            parked = [call("admit", service.admit) for _ in range(20)]
            sim.run(until=sim.now + 6.0)
            for ticket in parked:
                keep(ticket)
        victims, live = live[::2], live[1::2]
        for session_id in victims:
            call("teardown", service.teardown, session_id)
        call("reconfigure", service.reconfigure,
             dram_budget=budgets[cycle % 2])
        sim.run(until=sim.now + 30.0)
        cycle_s.append(clock() - cycle_start)
    stats = service.stats()
    result = service.finalize()
    service_s = clock() - start
    digest = hashlib.sha256()
    states = {"admitted": 0, "rejected": 0, "pending": 0}
    for ticket in tickets:
        states[ticket.state.value] += 1
        digest.update(repr((ticket.ticket_id, ticket.state.value,
                            ticket.title, ticket.session_id,
                            ticket.reason)).encode())
    return {
        "cycle_s": cycle_s,
        "service_s": service_s,
        "latencies": latencies,
        "ops": sum(len(values) for values in latencies.values()),
        "failures": failures,
        "tickets": states,
        "tickets_issued": stats["tickets_issued"],
        "events_published": stats["events_published"],
        "digest": digest.hexdigest(),
        "session_events": len(result.events),
        "totals": result.totals,
        "planner_cache": result.planner_cache,
        "events_executed": result.events_executed,
        "intervals": len(result.metrics.snapshots),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cli", "api"))
    parser.add_argument("paths", nargs="+",
                        help="cli: CONFIG OUT; api: one or more CONFIGs")
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--report", required=True)
    parser.add_argument("--seed", default="0",
                        help="cli: pass --seed to the command")
    parser.add_argument("--cycles", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="the parent's time.monotonic() at spawn")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    _import_repro(args.src)
    tracing.preload()
    tracer = tracing.install() if args.trace else None
    report: dict = {}
    code = 0
    if args.mode == "cli":
        if len(args.paths) != 2:
            parser.error("cli mode takes CONFIG OUT")
        code, wall = run_cli(*args.paths, args.seed)
        report["wall_s"] = wall
    else:
        from repro.service.config import RuntimeConfig
        from repro.service.facade import MediaService

        parts = []
        wall = 0.0  # the service's work: the checks' digests stay out
        for path in args.paths:
            start = time.perf_counter()
            with open(path, encoding="utf-8") as handle:
                service = MediaService(RuntimeConfig.from_json(handle.read()))
            wall += time.perf_counter() - start
            if args.spawned_at is not None and "setup_s" not in report:
                # CLOCK_MONOTONIC is system-wide, so the parent's spawn
                # stamp and this one are on the same clock.
                report["setup_s"] = time.monotonic() - args.spawned_at
            if args.cycles:
                parts.append(drive_api(service, args.cycles))
                wall += parts[-1]["service_s"]
        report.update(configs=parts, wall_s=wall)
    if tracer is not None:
        report["trace"] = {"rows": tracer.rows(), "aliases": tracer.aliases}
    report["peak_rss_mb"] = peak_rss_mb()
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
