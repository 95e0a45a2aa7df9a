"""The event-driven service control plane.

The long-running face of the runtime: a declarative
:class:`~repro.service.config.RuntimeConfig` tree compiles into a
:class:`~repro.service.facade.MediaService` facade
(``admit / teardown / stats / reconfigure / drain``) whose epoch
replans run off the request path, whose backpressure regime is an
explicit published state, and whose every control-plane action lands
as a typed event on an :class:`~repro.service.events.EventBus`.
:class:`~repro.service.traffic.TrafficProgram` replays the named
scenarios through that API, and :mod:`repro.service.parity` proves the
replay byte-identical to the engine loop, and the table session core
byte-identical to the objects core apart from the engine's event
count.
"""

from repro.service.backpressure import (
    BackpressureConfig,
    BackpressureGovernor,
    ServiceState,
)
from repro.service.config import (
    ControlConfig,
    PlacementConfig,
    PopularityConfig,
    RuntimeConfig,
    SystemConfig,
    TimelineConfig,
    WorkloadConfig,
)
from repro.service.events import (
    EVENT_TYPES,
    AdmitPending,
    BackpressureChanged,
    DrainStarted,
    EventBus,
    EventCounter,
    EventLog,
    FailureInjected,
    Reconfigured,
    RecoveryPlanned,
    ReplanCompleted,
    ReplanStarted,
    ServiceEvent,
    SessionAdmitted,
    SessionClosed,
    SessionRejected,
)
from repro.service.facade import AdmitTicket, MediaService, TicketState
from repro.service.parity import (
    compare_scenario,
    verify_all,
    verify_all_cores,
)
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    build_service_scenario,
    require_known_scenario,
)
from repro.service.traffic import TrafficProgram, run_service

__all__ = [
    "AdmitPending",
    "AdmitTicket",
    "BackpressureChanged",
    "BackpressureConfig",
    "BackpressureGovernor",
    "ControlConfig",
    "DrainStarted",
    "EVENT_TYPES",
    "EventBus",
    "EventCounter",
    "EventLog",
    "FailureInjected",
    "MediaService",
    "PlacementConfig",
    "PopularityConfig",
    "Reconfigured",
    "RecoveryPlanned",
    "ReplanCompleted",
    "ReplanStarted",
    "RuntimeConfig",
    "SERVICE_SCENARIOS",
    "ServiceEvent",
    "ServiceState",
    "SessionAdmitted",
    "SessionClosed",
    "SessionRejected",
    "SystemConfig",
    "TicketState",
    "TimelineConfig",
    "TrafficProgram",
    "WorkloadConfig",
    "build_service_scenario",
    "compare_scenario",
    "require_known_scenario",
    "run_service",
    "verify_all",
    "verify_all_cores",
]
