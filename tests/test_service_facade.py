"""MediaService: admit/teardown/stats/reconfigure/drain + the replan window."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service.backpressure import ServiceState
from repro.service.config import ControlConfig
from repro.service.events import (
    AdmitPending,
    BackpressureChanged,
    DrainStarted,
    EventBus,
    EventLog,
    FailureInjected,
    Reconfigured,
    RecoveryPlanned,
    ReplanCompleted,
    ReplanStarted,
    SessionAdmitted,
    SessionClosed,
    SessionRejected,
)
from repro.service.facade import MediaService, TicketState
from repro.service.scenarios import (
    adaptive_cache,
    device_failure,
    overload,
    steady_disk,
    vod_flash_crowd,
)
from repro.units import MB


def _service(config, **control_overrides):
    if control_overrides:
        config = config.replace(
            control=ControlConfig(
                epoch=config.control.epoch,
                metrics_interval=config.control.metrics_interval,
                backpressure=config.control.backpressure,
                **control_overrides))
    bus = EventBus()
    log = EventLog()
    bus.subscribe(None, log)
    return MediaService(config, bus=bus), log


class TestAdmitTeardown:
    def test_admit_returns_a_finalized_ticket(self):
        service, log = _service(steady_disk(seed=1, horizon=2_000.0))
        ticket = service.admit()
        assert ticket.state in (TicketState.ADMITTED, TicketState.REJECTED)
        assert not ticket.pending
        assert ticket.title is not None
        assert ticket.finalized_at == service.sim.now
        assert len(log.of_type(SessionAdmitted)
                   or log.of_type(SessionRejected)) == 1

    def test_admitted_ticket_names_its_session_and_server(self):
        service, _ = _service(steady_disk(seed=1, horizon=2_000.0))
        ticket = service.admit(title=3)
        assert ticket.admitted
        assert ticket.title == 3
        assert ticket.session_id is not None
        assert ticket.served_by in ("disk", "mems", "dram")
        assert service.engine.active_sessions == 1

    def test_ticket_ids_are_sequential(self):
        service, _ = _service(steady_disk(seed=1, horizon=2_000.0))
        ids = [service.admit().ticket_id for _ in range(4)]
        assert ids == [0, 1, 2, 3]

    def test_teardown_closes_a_live_session_once(self):
        service, log = _service(steady_disk(seed=1, horizon=2_000.0))
        ticket = service.admit()
        assert ticket.admitted
        assert service.teardown(ticket.session_id) is True
        assert service.engine.active_sessions == 0
        assert service.teardown(ticket.session_id) is False
        assert len(log.of_type(SessionClosed)) == 1

    def test_stats_snapshot_tracks_the_plane(self):
        service, _ = _service(steady_disk(seed=1, horizon=2_000.0))
        service.admit()
        snap = service.stats()
        assert snap["active_sessions"] == 1
        assert snap["state"] == "accepting"
        assert snap["mode"] == "none"
        assert snap["tickets_issued"] == 1
        assert snap["pending_tickets"] == 0
        assert 0 < snap["load"] <= 1.5
        assert snap["events_published"] >= 1


#: One scenario per admission path: direct disk, MEMS cache, VoD prefix.
_MODES = {"none": steady_disk, "cache": adaptive_cache,
          "prefix": vod_flash_crowd}


@pytest.mark.parametrize("core", ["objects", "table"])
@pytest.mark.parametrize("mode", sorted(_MODES))
class TestInputValidation:
    """Bad titles and session ids fail with ConfigurationError."""

    def _service(self, mode, core):
        config = _MODES[mode](seed=2, horizon=2_000.0)
        return _service(config.replace(session_core=core))

    @pytest.mark.parametrize("title", [-1, "n_titles", "3", 2.5, True, False])
    def test_admit_rejects_bad_titles(self, mode, core, title):
        service, log = self._service(mode, core)
        if title == "n_titles":
            title = service.config.workload.n_titles
        with pytest.raises(ConfigurationError):
            service.admit(title)
        with pytest.raises(ConfigurationError):
            service.admit_block(titles=[0, title])
        # Nothing was admitted, parked or published.
        assert service.stats()["tickets_issued"] == 0
        assert service.engine.active_sessions == 0
        assert log.events == []

    def test_bad_titles_fail_before_parking(self, mode, core):
        service, _ = self._service(mode, core)
        service._replan_inflight = True  # an open replan window
        with pytest.raises(ConfigurationError):
            service.admit(-1)
        with pytest.raises(ConfigurationError):
            service.admit_block(titles=[None, 2.5])
        assert service.pending_tickets == 0

    def test_admit_accepts_integer_titles(self, mode, core):
        service, _ = self._service(mode, core)
        last = service.config.workload.n_titles - 1
        tickets = [service.admit(0), service.admit(np.int64(last)),
                   *service.admit_block(titles=[np.int32(1), None])]
        assert [t.title for t in tickets[:3]] == [0, last, 1]
        assert all(type(t.title) is int for t in tickets)
        assert all(t.admitted for t in tickets)

    @pytest.mark.parametrize("session_id", ["0", None, 0.0, True])
    def test_teardown_rejects_non_integer_ids(self, mode, core, session_id):
        service, _ = self._service(mode, core)
        assert service.admit(0).session_id == 0
        with pytest.raises(ConfigurationError):
            service.teardown(session_id)
        assert service.engine.active_sessions == 1

    def test_teardown_of_unknown_ids_returns_false(self, mode, core):
        service, log = self._service(mode, core)
        ticket = service.admit(0)
        assert service.teardown(-1) is False
        assert service.teardown(ticket.session_id + 1) is False
        assert service.teardown(np.int64(ticket.session_id)) is True
        assert service.teardown(ticket.session_id) is False
        closed = log.of_type(SessionClosed)
        assert [(e.session_id, e.title) for e in closed] == [(0, 0)]


class TestPendingAdmit:
    """Acceptance criterion: admit never blocks on a replan."""

    def test_admit_during_replan_window_parks_pending(self):
        config = adaptive_cache(seed=2, horizon=6_000.0)
        service, log = _service(config, replan_latency=30.0)
        sim = service.sim
        service.on_epoch(sim)
        assert service.replan_inflight
        assert len(log.of_type(ReplanStarted)) == 1
        assert len(log.of_type(ReplanCompleted)) == 0

        # Admit inside the window: an immediate PENDING ticket, no
        # engine admission, no RNG draw, no blocking.
        draws_before = service.engine.rng.bit_generator.state
        before = service.engine.active_sessions
        tickets = [service.admit() for _ in range(3)]
        assert all(t.pending for t in tickets)
        assert all(t.session_id is None for t in tickets)
        assert service.engine.active_sessions == before
        assert service.engine.rng.bit_generator.state == draws_before
        assert service.pending_tickets == 3
        assert len(log.of_type(AdmitPending)) == 3

        # The replan-done event finalizes them FIFO under the new plan.
        sim.run(until=sim.now + 31.0)
        assert not service.replan_inflight
        assert service.pending_tickets == 0
        assert all(not t.pending for t in tickets)
        assert all(t.finalized_at == pytest.approx(30.0) for t in tickets)
        completed = log.of_type(ReplanCompleted)
        assert len(completed) == 1
        assert completed[0].pending_finalized == 3
        assert completed[0].duration == pytest.approx(30.0)
        finalized = [e for e in log.of_type(SessionAdmitted)
                     + log.of_type(SessionRejected) if e.was_pending]
        assert [e.ticket_id for e in finalized] == [0, 1, 2]

    def test_zero_latency_replans_stay_synchronous(self):
        service, log = _service(adaptive_cache(seed=2, horizon=6_000.0))
        service.on_epoch(service.sim)
        assert not service.replan_inflight
        assert len(log.of_type(ReplanStarted)) == 1
        assert len(log.of_type(ReplanCompleted)) == 1
        ticket = service.admit()
        assert not ticket.pending

    def test_static_mode_ignores_the_window(self):
        service, log = _service(steady_disk(seed=1, horizon=2_000.0),
                                replan_latency=30.0)
        service.on_epoch(service.sim)
        assert not service.replan_inflight
        assert log.events == []

    def test_drain_during_window_rejects_parked_tickets(self):
        service, log = _service(adaptive_cache(seed=2, horizon=6_000.0),
                                replan_latency=30.0)
        sim = service.sim
        service.on_epoch(sim)
        ticket = service.admit()
        assert ticket.pending
        engine_rejects = service.engine.rejects_total
        service.drain()
        sim.run(until=sim.now + 31.0)
        assert ticket.state is TicketState.REJECTED
        assert ticket.reason == "draining"
        # Service-level rejection: the engine counters are untouched.
        assert service.engine.rejects_total == engine_rejects


class TestReconfigureDrain:
    def test_reconfigure_maps_keywords_to_engine_operations(self):
        service, log = _service(adaptive_cache(seed=2, horizon=6_000.0))
        factor = service.engine.config.workload.rate_factor
        changes = service.reconfigure(rate_factor=2.0,
                                      dram_budget=40 * MB)
        assert changes == ("rate_factor=2",
                           f"dram_budget={40 * MB:g}")
        assert (service.engine.config.workload.rate_factor
                == pytest.approx(2.0 * factor))
        assert service.engine.config.dram_budget == 40 * MB
        events = log.of_type(Reconfigured)
        assert len(events) == 1
        assert events[0].changes == changes

    def test_reconfigure_rejects_no_op_and_half_focus(self):
        service, _ = _service(adaptive_cache(seed=2, horizon=6_000.0))
        with pytest.raises(ConfigurationError, match="no changes"):
            service.reconfigure()
        with pytest.raises(ConfigurationError, match="focus"):
            service.reconfigure(focus_title=3)

    def test_drain_rejects_new_admits_without_touching_the_engine(self):
        service, log = _service(steady_disk(seed=1, horizon=2_000.0))
        first = service.admit()
        assert first.admitted
        active = service.drain()
        assert active == 1
        assert service.draining
        ticket = service.admit()
        assert ticket.state is TicketState.REJECTED
        assert ticket.reason == "draining"
        assert service.engine.rejects_total == 0
        assert len(log.of_type(DrainStarted)) == 1
        service.drain()  # idempotent: still one DrainStarted event
        assert len(log.of_type(DrainStarted)) == 1


class TestBackpressureIntegration:
    def test_overload_drives_the_governor_to_shedding(self):
        service, log = _service(overload(seed=4, horizon=2_000.0))
        while service.state is not ServiceState.SHEDDING:
            ticket = service.admit()
            if not ticket.admitted and service.state is not \
                    ServiceState.SHEDDING:  # pragma: no cover
                pytest.fail("rejections started before SHEDDING")
        changes = log.of_type(BackpressureChanged)
        assert [c.state for c in changes] == ["throttled", "shedding"]
        assert all(c.previous != c.state for c in changes)

    def test_teardowns_recover_through_throttled(self):
        service, log = _service(overload(seed=4, horizon=2_000.0))
        admitted = []
        while service.state is not ServiceState.SHEDDING:
            ticket = service.admit()
            if ticket.admitted:
                admitted.append(ticket.session_id)
        for session_id in admitted:
            service.teardown(session_id)
        assert service.state is ServiceState.ACCEPTING
        path = [c.state for c in log.of_type(BackpressureChanged)]
        assert path == ["throttled", "shedding", "throttled", "accepting"]


class TestFailureInjection:
    def test_failure_publishes_injection_and_recovery(self):
        config = device_failure(seed=3, horizon=4_000.0)
        service, log = _service(config)
        event = config.timeline.failures[0]
        k_before = service.engine.k_active
        service.inject_failure(service.sim, event)
        assert service.engine.k_active == k_before - 1
        injected = log.of_type(FailureInjected)
        recovery = log.of_type(RecoveryPlanned)
        assert len(injected) == 1 and len(recovery) == 1
        assert injected[0].failure_kind == "device_loss"
        assert recovery[0].k_active == k_before - 1
        assert recovery[0].sessions_dropped >= 0
