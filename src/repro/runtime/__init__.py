"""Online server runtime: the analytical models as live controllers.

Composes the event engine, admission control, cache design, popularity
models, and failure recovery into a running streaming server with
session lifecycle, adaptive MEMS-cache placement, failure injection,
and interval metrics export.  See ``docs/RUNTIME.md``.
"""

from repro.runtime.failures import FailureEvent, FailureKind, RecoveryPlan, plan_recovery
from repro.runtime.metrics import IntervalSnapshot, MetricsLog, render_dashboard
from repro.runtime.placement import AdaptivePlacement, PlacementDecision
from repro.runtime.runtime import (
    DriftEvent,
    FocusEvent,
    MigrationRecord,
    RuntimeConfig,
    RuntimeResult,
    ServerRuntime,
    SurgeEvent,
    run_runtime,
)
from repro.runtime.sessions import (
    SessionEvent,
    SessionEventKind,
    SessionEvents,
    SessionLog,
    SessionWorkload,
)

__all__ = [
    "AdaptivePlacement",
    "DriftEvent",
    "FailureEvent",
    "FailureKind",
    "FocusEvent",
    "IntervalSnapshot",
    "MetricsLog",
    "MigrationRecord",
    "PlacementDecision",
    "RecoveryPlan",
    "RuntimeConfig",
    "RuntimeResult",
    "ServerRuntime",
    "SessionEvent",
    "SessionEventKind",
    "SessionEvents",
    "SessionLog",
    "SessionWorkload",
    "SurgeEvent",
    "plan_recovery",
    "render_dashboard",
    "run_runtime",
]
