"""Outside-in per-layer tracer for the end-to-end benchmark.

The tracer times the program's layers from the benchmark's side of the
boundary: before any service object exists it replaces the public
functions of each layer module with timing wrappers.  Nothing in
``src/`` knows it is being traced.

* **Both binding forms.**  A method is wrapped on its class, so every
  instance and every bound-method alias created afterwards goes through
  the wrapper.  A module-level function is wrapped in its defining
  module *and* in every already-imported module that holds a
  ``from X import f`` alias of it (``repro.runtime.placement.demand_at``,
  say); each alias gets its own wrapper so the report shows which
  binding the calls arrived through.
* **Span stack.**  Each call pushes a frame; on return its duration is
  charged to the frame and to the parent frame's child time, so a
  layer's *self* time is its duration minus the time its callees spent
  in other traced spans.  Spans stay in memory, aggregated per
  (binding, parent layer): hot leaf calls cost one dict update, not one
  record each.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: The layers, named after the modules.  Each entry is
#: ``(layer, module, attribute)``; ``Class.method`` wraps a method on
#: its class, a bare name wraps a module-level function.
#: ``_complete_departure`` (the object core's departure handler) and
#: ``_finish_replan`` (the replan-done event) are private but are where
#: departures and PENDING finalization run; without them that work
#: would be charged to the event loop's self time.
LAYER_TABLE: tuple[tuple[str, str, str], ...] = (
    ("service.config", "repro.service.config", "RuntimeConfig.from_json"),
    ("service.config", "repro.service.config", "RuntimeConfig.to_legacy"),
    *(("service.facade", "repro.service.facade", f"MediaService.{name}")
      for name in ("__init__", "admit", "admit_block", "teardown", "stats",
                   "reconfigure", "drain", "on_epoch", "inject_failure",
                   "finalize", "_finish_replan")),
    ("service.events", "repro.service.events", "EventBus.publish"),
    ("service.backpressure", "repro.service.backpressure",
     "BackpressureGovernor.update"),
    *(("runtime.engine", "repro.runtime.runtime", f"ServerRuntime.{name}")
      for name in ("__init__", "handle_arrival", "handle_arrival_block",
                   "run_epoch", "seal_metrics", "apply_failure",
                   "apply_drift", "apply_surge", "apply_focus",
                   "close_session", "sync", "finalize",
                   "_complete_departure")),
    *(("runtime.sessions", "repro.runtime.sessions", f"SessionSampler.{name}")
      for name in ("next_interarrival", "next_title", "next_holding",
                   "arrival_times", "title_block")),
    ("runtime.sessions", "repro.runtime.sessions", "SessionTable.add"),
    ("runtime.sessions", "repro.runtime.sessions", "SessionTable.harvest"),
    *(("scheduling.admission", "repro.scheduling.admission",
       f"AdmissionController.{name}")
      for name in ("try_admit", "release", "reconfigure", "capacity",
                   "dram_required")),
    ("planner", "repro.planner.solver", "Planner.plan"),
    ("planner", "repro.planner.solver", "Planner.max_streams"),
    ("planner", "repro.planner.solver", "Planner.capacity"),
    ("planner", "repro.planner.batch", "demand_at"),
    *(("runtime.placement", "repro.runtime.placement",
       f"AdaptivePlacement.{name}")
      for name in ("replan", "observe", "observe_block")),
    ("runtime.failures", "repro.runtime.failures", "plan_recovery"),
    ("runtime.metrics", "repro.runtime.metrics", "MetricsLog.close_interval"),
    *(("vod.placement", "repro.vod.placement", f"PrefixPlacement.{name}")
      for name in ("replan", "observe", "observe_block")),
    *(("vod.multicast", "repro.vod.multicast", f"MulticastBatcher.{name}")
      for name in ("joinable", "open", "join", "leave")),
    ("simulation.engine", "repro.simulation.engine", "Simulator.run"),
    *(("export", "repro.runtime.runtime", f"RuntimeResult.{name}")
      for name in ("to_json", "dashboard", "summary")),
)

#: Every layer, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in LAYER_TABLE))

#: Modules the CLI imports lazily.  Importing them up front keeps import
#: time out of the timed region and lets the alias scan see them.
_PRELOAD = ("repro.experiments.cli", "repro.service.traffic", "repro.runtime")


class Tracer:
    """Span stack plus per-(binding, parent layer) aggregates."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        #: (binding, parent layer) -> [layer, calls, total_s, self_s]
        self._rows: dict[tuple[str, str], list] = {}
        #: Bindings wrapped through a ``from X import f`` alias.
        self.aliases: list[str] = []

    def wrap(self, layer: str, binding: str, fn):
        """A timing wrapper around ``fn`` charged to ``layer``."""
        stack = self._stack
        rows = self._rows
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (binding, parent[0] if parent is not None else "")
                row = rows.get(key)
                if row is None:
                    row = rows[key] = [layer, 0, 0.0, 0.0]
                row[1] += 1
                row[2] += elapsed
                row[3] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed

        return traced

    def rows(self) -> list[dict]:
        """The aggregated spans, one row per (binding, parent layer)."""
        return [{"layer": layer, "binding": binding, "parent": parent,
                 "calls": calls, "total_s": total, "self_s": self_s}
                for (binding, parent), (layer, calls, total, self_s)
                in sorted(self._rows.items())]


def _wrap_method(tracer: Tracer, layer: str, module, path: str) -> None:
    class_name, name = path.split(".")
    cls = getattr(module, class_name)
    raw = cls.__dict__[name]
    binding = f"{module.__name__}.{path}"
    if isinstance(raw, classmethod):
        setattr(cls, name,
                classmethod(tracer.wrap(layer, binding, raw.__func__)))
    else:
        setattr(cls, name, tracer.wrap(layer, binding, raw))


def _wrap_function(tracer: Tracer, layer: str, module, name: str) -> None:
    original = getattr(module, name)
    setattr(module, name,
            tracer.wrap(layer, f"{module.__name__}.{name}", original))
    # ``from X import f`` copied the function object into the importing
    # module's namespace; patching X alone would leave that copy untimed.
    for other_name, other in sorted(sys.modules.items()):
        if other is module or other is None:
            continue
        namespace = getattr(other, "__dict__", None)
        if not namespace:
            continue
        for alias, value in list(namespace.items()):
            if value is original:
                binding = f"{other_name}.{alias}"
                setattr(other, alias, tracer.wrap(layer, binding, original))
                tracer.aliases.append(binding)


def preload() -> None:
    """Import every traced module, so traced and untraced children time
    the same work (the CLI would otherwise import lazily inside it)."""
    for name in (*_PRELOAD, *(row[1] for row in LAYER_TABLE)):
        importlib.import_module(name)


def install() -> Tracer:
    """Wrap every entry of :data:`LAYER_TABLE`; call before any service
    object is built."""
    preload()
    tracer = Tracer()
    for layer, module_name, path in LAYER_TABLE:
        module = importlib.import_module(module_name)
        if "." in path:
            _wrap_method(tracer, layer, module, path)
        else:
            _wrap_function(tracer, layer, module, path)
    return tracer
