"""The MediaService facade: the runtime as a long-running service.

:class:`MediaService` fronts one :class:`~repro.runtime.runtime.ServerRuntime`
with the five control-plane operations a production streaming server
exposes — ``admit`` / ``teardown`` / ``stats`` / ``reconfigure`` /
``drain`` — plus fault injection, and publishes every externally
observable action as a typed event on the service's
:class:`~repro.service.events.EventBus`.

Three properties define the facade:

* **Replans run off the request path.**  With
  ``control.replan_latency > 0`` an epoch replan is a *window*, not an
  instant: :meth:`on_epoch` publishes ``ReplanStarted`` and schedules a
  ``replan-done`` simulation event; an :meth:`admit` that lands inside
  the window returns a ``PENDING`` :class:`AdmitTicket` immediately —
  it never blocks, and never consults the half-swapped demand model —
  and the replan-done event finalizes the parked tickets FIFO under the
  fresh plan (the bud-runtime EVENT_FLOW shape).  With the default
  latency of 0 the replan is synchronous and a traffic-driven facade
  is byte-identical to the engine's run loop, which is what the parity
  harness proves.

* **Departures leave from one place.**  Every engine retires
  departures off its session table's ``(departure, row)`` heap.  An
  API-driven service — callers issue ``admit`` — keeps only the
  earliest pending departure on the calendar, as one re-armed alarm,
  so departures retire inside ``sim.run`` at their own times and no
  call pays for the ones that came due since the previous call.  A
  traffic program instead calls :meth:`MediaService.self_drive`: the
  engine draws its own arrivals and replays whole windows of arrivals
  and departures at calendar boundaries, and the service publishes
  each drained arrival's ticket events exactly as ``admit`` would
  have, stamped with the arrival's own time.

* **Backpressure is a published state, not a verdict.**  The
  :class:`~repro.service.backpressure.BackpressureGovernor` classifies
  admission load after every state-changing operation and the facade
  publishes exactly one ``BackpressureChanged`` event per transition.
  The governor never alters an admission decision, so attaching it is
  observationally free.
"""

from __future__ import annotations

import enum
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.runtime.failures import FailureEvent
from repro.runtime.runtime import (
    DriftEvent,
    FocusEvent,
    RuntimeResult,
    ServerRuntime,
    SurgeEvent,
)
from repro.service.backpressure import BackpressureGovernor, ServiceState
from repro.service.config import RuntimeConfig
from repro.service.events import (
    AdmitPending,
    BackpressureChanged,
    DrainStarted,
    EventBus,
    FailureInjected,
    Reconfigured,
    RecoveryPlanned,
    ReplanCompleted,
    ReplanStarted,
    SessionAdmitted,
    SessionClosed,
    SessionRejected,
)


def _integer(value, what: str) -> int:
    """A non-``int`` ``value`` as a plain int; bools and non-integers
    are rejected (callers skip the call for plain ints, the hot case)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigurationError(f"{what} must be an integer, got {value!r}")


class TicketState(enum.Enum):
    """Lifecycle state of one admit ticket."""

    PENDING = "pending"
    ADMITTED = "admitted"
    REJECTED = "rejected"


@dataclass(slots=True)
class AdmitTicket:
    """The receipt one :meth:`MediaService.admit` call returns.

    ``PENDING`` tickets were issued during an in-flight replan; the
    replan-done event finalizes them (``finalized_at`` is then the
    finalization time, not the issue time).
    """

    ticket_id: int
    state: TicketState
    created_at: float
    title: int | None = None
    session_id: int | None = None
    served_by: str | None = None
    reason: str | None = None
    batched: bool = False
    finalized_at: float | None = None

    @property
    def admitted(self) -> bool:
        return self.state is TicketState.ADMITTED

    @property
    def pending(self) -> bool:
        return self.state is TicketState.PENDING


class MediaService:
    """Service facade over one engine run (see module docstring)."""

    def __init__(self, config: RuntimeConfig,
                 bus: EventBus | None = None) -> None:
        self.config = config
        self.bus = bus if bus is not None else EventBus()
        self.engine = ServerRuntime(config.to_legacy())
        self.governor = BackpressureGovernor(config.control.backpressure)
        self._next_ticket = 0
        self._tickets_issued = 0
        self._pending: list[AdmitTicket] = []
        self._replan_inflight = False
        self._replan_started_at = 0.0
        self._draining = False

    # -- Internals -----------------------------------------------------------

    @property
    def sim(self):
        """The engine's event calendar (traffic programs schedule on it)."""
        return self.engine.sim

    def _new_ticket(self, state: TicketState, **fields) -> AdmitTicket:
        ticket = AdmitTicket(ticket_id=self._next_ticket, state=state,
                            created_at=self.engine.sim.now, **fields)
        self._next_ticket += 1
        self._tickets_issued += 1
        return ticket

    def _title(self, title) -> int | None:
        """A requested title, checked against the catalogue (None draws)."""
        if title is None:
            return None
        if type(title) is not int:
            title = _integer(title, "title")
        n_titles = self.config.workload.n_titles
        if not 0 <= title < n_titles:
            raise ConfigurationError(
                f"title must be in [0, {n_titles}), got {title!r}")
        return title

    def _load(self) -> float:
        """Admission load fraction: admitted streams over capacity."""
        admitted = self.engine.controller.admitted_streams
        capacity = self.engine.controller.capacity()
        if capacity <= 0:
            return 0.0 if admitted == 0 else self.governor.config.shed_enter
        return admitted / capacity

    def _update_backpressure(self) -> None:
        """Fold the current load in; publish one event per transition."""
        self._fold_load(self._load())

    def _fold_load(self, load: float, time: float | None = None) -> None:
        transition = self.governor.update(load)
        if transition is not None:
            previous, state = transition
            self.bus.publish(BackpressureChanged(
                time=self.engine.sim.now if time is None else time,
                previous=previous.value, state=state.value, load=load))

    def _block_loads(self, outcomes) -> list[float]:
        """The load fraction each outcome's bookkeeping must observe.

        A block runs the whole burst through the engine before any
        per-ticket bookkeeping, so :meth:`_load` would report the
        *final* population for every ticket.  The scalar path folds
        the load in after each admission; this reconstructs that exact
        trajectory by replaying the admitted count backwards (batched
        prefix joins never touch the controller, and the capacity is
        fixed between replans, so no admission can move it mid-burst).
        """
        controller = self.engine.controller
        capacity = controller.capacity()
        shed_enter = self.governor.config.shed_enter
        fresh = sum(1 for o in outcomes if o.admitted and not o.batched)
        running = controller.admitted_streams - fresh
        loads = []
        for outcome in outcomes:
            if outcome.admitted and not outcome.batched:
                running += 1
            if capacity <= 0:
                loads.append(0.0 if running == 0 else shed_enter)
            else:
                loads.append(running / capacity)
        return loads

    # -- Self-driven traffic -------------------------------------------------

    def self_drive(self) -> None:
        """Let the engine draw this service's arrivals (a traffic program).

        From here on the engine's own Poisson chain supplies the
        arrivals and no session puts an event on the calendar (see
        :meth:`repro.runtime.runtime.ServerRuntime.self_drive`).  Each
        drained arrival becomes exactly the ticket and bus events an
        ``admit`` call at its time would have produced.  Call it before
        the first session arrives.  The engine then owns the arrival
        stream: an ``admit`` issued alongside it while arrivals are
        held (a replan window, a drain) takes its ticket before held
        arrivals the engine has not drained yet.
        """
        self.engine.self_drive(on_drained=self._publish_drained,
                               on_held=self._hold)

    def _publish_drained(self, records: list[tuple]) -> None:
        """Publish a drained window's arrivals as ``admit`` would have.

        One ticket id and one ``SessionAdmitted``/``SessionRejected``
        per arrival, stamped with the arrival's time, and one governor
        fold per change in load (folding an unchanged load is a no-op:
        the state machine is a fixpoint of its own verdicts).  Nobody
        holds these tickets, so none is built.
        """
        publish = self.bus.publish
        capacity = self.engine.controller.capacity()
        shed_enter = self.governor.config.shed_enter
        next_id = self._next_ticket
        last_load: float | None = None
        for time, title, row, served, reason, streams in records:
            if row >= 0:
                publish(SessionAdmitted(
                    time=time, ticket_id=next_id, session_id=row,
                    title=title, served_by=served))
            else:
                publish(SessionRejected(
                    time=time, ticket_id=next_id, title=title,
                    reason=reason))
            next_id += 1
            if capacity <= 0:
                load = 0.0 if streams == 0 else shed_enter
            else:
                load = streams / capacity
            if load != last_load:
                self._fold_load(load, time)
                last_load = load
        self._tickets_issued += next_id - self._next_ticket
        self._next_ticket = next_id

    def _hold(self, times: list[float]) -> None:
        """Park arrivals the engine held back, or reject them if draining.

        The same tickets and events ``admit`` publishes inside a replan
        window or after :meth:`drain`, stamped with each arrival's time.
        """
        publish = self.bus.publish
        next_id = self._next_ticket
        for time in times:
            if self._draining:
                publish(SessionRejected(time=time, ticket_id=next_id,
                                        title=None, reason="draining"))
            else:
                self._pending.append(AdmitTicket(
                    ticket_id=next_id, state=TicketState.PENDING,
                    created_at=time))
                publish(AdmitPending(time=time, ticket_id=next_id,
                                     title=None))
            next_id += 1
        self._tickets_issued += next_id - self._next_ticket
        self._next_ticket = next_id

    # -- Facade operations ---------------------------------------------------

    @property
    def state(self) -> ServiceState:
        """Current backpressure regime."""
        return self.governor.state

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def replan_inflight(self) -> bool:
        return self._replan_inflight

    @property
    def pending_tickets(self) -> int:
        return len(self._pending)

    def admit(self, title: int | None = None) -> AdmitTicket:
        """Request one session; never blocks.

        Returns an ``ADMITTED`` or ``REJECTED`` ticket immediately, or
        a ``PENDING`` one when a replan is in flight (finalized by the
        replan-done event).  ``title`` defaults to the next draw of the
        workload's seeded popularity stream; any other title must be an
        integer in ``[0, n_titles)`` or :class:`ConfigurationError` is
        raised.
        """
        title = self._title(title)
        sim = self.engine.sim
        if self._draining:
            ticket = self._new_ticket(TicketState.REJECTED, title=title,
                                      reason="draining",
                                      finalized_at=sim.now)
            self.bus.publish(SessionRejected(
                time=sim.now, ticket_id=ticket.ticket_id, title=title,
                reason="draining"))
            return ticket
        if self._replan_inflight:
            ticket = self._new_ticket(TicketState.PENDING, title=title)
            self._pending.append(ticket)
            self.bus.publish(AdmitPending(
                time=sim.now, ticket_id=ticket.ticket_id, title=title))
            return ticket
        ticket = self._new_ticket(TicketState.PENDING, title=title)
        return self._finalize_admit(ticket, was_pending=False)

    def admit_block(self, count: int | None = None,
                    titles: Sequence[int | None] | None = None
                    ) -> list[AdmitTicket]:
        """Request a burst of sessions at the current instant.

        Ticket for ticket — ids, states, published events, RNG draws —
        this is :meth:`admit` called once per requested session, but
        the burst reaches the engine through its vectorized block
        arrival, so a large admit storm pays one bulk title draw
        instead of one scalar draw (and one drain guard) per call.
        Pass ``count`` to draw every title from the workload stream,
        or ``titles`` (None entries draw) to pin them.
        """
        if titles is None:
            if count is None:
                raise ConfigurationError(
                    "admit_block needs count or titles")
            wanted: list[int | None] = [None] * count
        else:
            wanted = [self._title(title) for title in titles]
            if count is not None and count != len(wanted):
                raise ConfigurationError(
                    f"count {count} != len(titles) {len(wanted)}")
        if self._draining:
            return [self.admit(title) for title in wanted]
        sim = self.engine.sim
        if self._replan_inflight:
            # The whole burst parks; no engine work until replan-done.
            parked: list[AdmitTicket] = []
            now = sim.now
            for title in wanted:
                ticket = self._new_ticket(TicketState.PENDING, title=title)
                self._pending.append(ticket)
                self.bus.publish(AdmitPending(
                    time=now, ticket_id=ticket.ticket_id, title=title))
                parked.append(ticket)
            return parked
        outcomes = self.engine.handle_arrival_block(sim, wanted)
        now = sim.now
        publish = self.bus.publish
        fold = self._fold_load
        next_id = self._next_ticket
        tickets: list[AdmitTicket] = []
        append = tickets.append
        last_load: float | None = None
        for outcome, load in zip(outcomes, self._block_loads(outcomes)):
            # Each ticket is born in its final state (ids run in call
            # order, exactly as ``admit`` would have assigned them).
            if outcome.admitted:
                ticket = AdmitTicket(
                    ticket_id=next_id, state=TicketState.ADMITTED,
                    created_at=now, title=outcome.title,
                    session_id=outcome.session_id,
                    served_by=outcome.served_by,
                    batched=outcome.batched, finalized_at=now)
                publish(SessionAdmitted(
                    time=now, ticket_id=next_id,
                    session_id=ticket.session_id, title=outcome.title,
                    served_by=outcome.served_by, was_pending=False))
            else:
                ticket = AdmitTicket(
                    ticket_id=next_id, state=TicketState.REJECTED,
                    created_at=now, title=outcome.title,
                    reason=outcome.reason, finalized_at=now)
                publish(SessionRejected(
                    time=now, ticket_id=next_id, title=outcome.title,
                    reason=outcome.reason, was_pending=False))
            next_id += 1
            if load != last_load:
                # ``governor.update`` at an unchanged load is a no-op
                # (the state machine is a fixpoint of its own verdicts),
                # so only the first ticket of an equal-load run folds.
                fold(load)
                last_load = load
            append(ticket)
        self._tickets_issued += next_id - self._next_ticket
        self._next_ticket = next_id
        return tickets

    def _finalize_admit(self, ticket: AdmitTicket, *,
                        was_pending: bool) -> AdmitTicket:
        """Run the engine admission for ``ticket`` and publish the result."""
        outcome = self.engine.handle_arrival(self.engine.sim, ticket.title)
        return self._apply_outcome(ticket, outcome,
                                   was_pending=was_pending)

    def _apply_outcome(self, ticket: AdmitTicket, outcome, *,
                       was_pending: bool,
                       load: float | None = None) -> AdmitTicket:
        """Fold one engine admission outcome into ``ticket``; publish.

        ``load`` carries the admission load this ticket's bookkeeping
        must fold into the governor when the caller already ran the
        whole burst through the engine (see :meth:`_block_loads`);
        scalar callers leave it None and the live load is read.
        """
        sim = self.engine.sim
        ticket.title = outcome.title
        ticket.finalized_at = sim.now
        if outcome.admitted:
            ticket.state = TicketState.ADMITTED
            ticket.session_id = outcome.session_id
            ticket.served_by = outcome.served_by
            ticket.batched = outcome.batched
            self.bus.publish(SessionAdmitted(
                time=sim.now, ticket_id=ticket.ticket_id,
                session_id=ticket.session_id, title=outcome.title,
                served_by=outcome.served_by, was_pending=was_pending))
        else:
            ticket.state = TicketState.REJECTED
            ticket.reason = outcome.reason
            self.bus.publish(SessionRejected(
                time=sim.now, ticket_id=ticket.ticket_id,
                title=outcome.title, reason=outcome.reason,
                was_pending=was_pending))
        self._fold_load(self._load() if load is None else load)
        return ticket

    def teardown(self, session_id: int) -> bool:
        """Close one live session early; True when it was live.

        An unknown or negative id returns False; a non-integer one
        raises :class:`ConfigurationError`.
        """
        if type(session_id) is not int:
            session_id = _integer(session_id, "session_id")
        sim = self.engine.sim
        closed = self.engine.close_session(sim, session_id)
        if closed is None:
            return False
        self.bus.publish(SessionClosed(
            time=sim.now, session_id=closed.session_id,
            title=closed.title))
        self._update_backpressure()
        return True

    def stats(self) -> dict:
        """A point-in-time snapshot of the control plane."""
        engine = self.engine
        engine.sync(engine.sim)
        return {
            "time": engine.sim.now,
            "state": self.governor.state.value,
            "mode": engine.mode,
            "active_sessions": engine.active_sessions,
            "admitted_streams": engine.controller.admitted_streams,
            "capacity": engine.controller.capacity(),
            "load": self._load(),
            "k_active": engine.k_active,
            "draining": self._draining,
            "replan_inflight": self._replan_inflight,
            "pending_tickets": len(self._pending),
            "tickets_issued": self._tickets_issued,
            "events_published": self.bus.events_published,
        }

    def reconfigure(self, *, rate_factor: float | None = None,
                    popularity_shift: int | None = None,
                    focus_title: int | None = None,
                    focus_weight: float | None = None,
                    dram_budget: float | None = None) -> tuple[str, ...]:
        """Change the live run's traffic model or budget.

        Each keyword maps to one engine operation (arrival-rate scale,
        popularity rotation, title focus, DRAM budget swap); one
        ``Reconfigured`` event lists everything that changed.
        """
        if (focus_title is None) != (focus_weight is None):
            raise ConfigurationError(
                "focus_title and focus_weight go together")
        sim = self.engine.sim
        changes: list[str] = []
        if rate_factor is not None:
            self.engine.apply_surge(
                sim, SurgeEvent(time=sim.now, factor=rate_factor))
            changes.append(f"rate_factor={rate_factor:g}")
        if popularity_shift is not None:
            self.engine.apply_drift(
                sim, DriftEvent(time=sim.now, shift=popularity_shift))
            changes.append(f"popularity_shift={popularity_shift}")
        if focus_title is not None:
            self.engine.apply_focus(
                sim, FocusEvent(time=sim.now, title=focus_title,
                                weight=focus_weight))
            changes.append(f"focus={focus_title}:{focus_weight:g}")
        if dram_budget is not None:
            if dram_budget < 0:
                raise ConfigurationError(
                    f"dram_budget must be >= 0, got {dram_budget!r}")
            self.engine.config.dram_budget = dram_budget
            self.engine.controller.reconfigure(dram_budget=dram_budget)
            changes.append(f"dram_budget={dram_budget:g}")
        if not changes:
            raise ConfigurationError("reconfigure called with no changes")
        self.bus.publish(Reconfigured(time=sim.now, changes=tuple(changes)))
        self._update_backpressure()
        return tuple(changes)

    def drain(self) -> int:
        """Stop accepting sessions; live ones play out.

        Returns the number of sessions still playing.  Subsequent
        admits — including PENDING tickets finalized after the drain —
        are rejected at the service layer with reason ``"draining"``
        (the engine and its counters are untouched).
        """
        self.engine.sync(self.engine.sim)
        if not self._draining:
            self._draining = True
            self.engine.hold_arrivals = True
            self.bus.publish(DrainStarted(
                time=self.engine.sim.now,
                active_sessions=self.engine.active_sessions))
        return self.engine.active_sessions

    # -- Control-plane events ------------------------------------------------

    def on_epoch(self, sim) -> None:
        """The epoch tick: re-plan now, or open a replan window.

        Scheduled by the traffic program with the same ``"epoch"``
        label the run loop uses.  Static modes have nothing to
        re-plan and stay silent.
        """
        latency = self.config.control.replan_latency
        if latency <= 0:
            if self.engine.run_epoch(sim):
                self.bus.publish(ReplanStarted(time=sim.now, reason="epoch"))
                self.bus.publish(ReplanCompleted(
                    time=sim.now, reason="epoch", duration=0.0,
                    capacity=self.engine.controller.capacity(),
                    pending_finalized=0))
                self._update_backpressure()
            return
        if self.engine.mode not in ("cache", "prefix"):
            return
        if self._replan_inflight:  # pragma: no cover - latency < epoch
            return
        # Arrivals before the window still admit under the old plan.
        self.engine.sync(sim)
        self._replan_inflight = True
        self.engine.hold_arrivals = True
        self._replan_started_at = sim.now
        self.bus.publish(ReplanStarted(time=sim.now, reason="epoch"))
        sim.after(latency, self._finish_replan, "replan-done")

    def _finish_replan(self, sim) -> None:
        """The replan-done event: swap the plan, finalize parked tickets."""
        self.engine.run_epoch(sim)
        self._replan_inflight = False
        self.engine.hold_arrivals = self._draining
        parked, self._pending = self._pending, []
        finalized = len(parked)
        if self._draining:
            for ticket in parked:
                ticket.state = TicketState.REJECTED
                ticket.reason = "draining"
                ticket.finalized_at = sim.now
                self.bus.publish(SessionRejected(
                    time=sim.now, ticket_id=ticket.ticket_id,
                    title=ticket.title, reason="draining",
                    was_pending=True))
        elif parked:
            # All parked tickets finalize at this same instant, so the
            # whole backlog goes through the engine's block arrival —
            # identical outcomes and publish order to finalizing them
            # one by one (each ticket folds the load trajectory point
            # the scalar path would have observed).
            outcomes = self.engine.handle_arrival_block(
                sim, [ticket.title for ticket in parked])
            loads = self._block_loads(outcomes)
            for ticket, outcome, load in zip(parked, outcomes, loads):
                self._apply_outcome(ticket, outcome, was_pending=True,
                                    load=load)
        self.bus.publish(ReplanCompleted(
            time=sim.now, reason="epoch",
            duration=sim.now - self._replan_started_at,
            capacity=self.engine.controller.capacity(),
            pending_finalized=finalized))
        self._update_backpressure()

    def inject_failure(self, sim, event: FailureEvent) -> None:
        """Degrade the MEMS bank per ``event`` and publish the recovery."""
        # Departures due by now leave first (a self-driven engine
        # harvests them lazily), so ``sessions_dropped`` counts only
        # what the failure itself shed.
        self.engine.sync(sim)
        before = self.engine.active_sessions
        self.engine.apply_failure(sim, event)
        self.bus.publish(FailureInjected(
            time=sim.now, failure_kind=event.kind.value, count=event.count,
            factor=event.factor))
        policy = self.engine.policy
        self.bus.publish(RecoveryPlanned(
            time=sim.now, mode=self.engine.mode,
            policy=policy.value if policy is not None else None,
            k_active=self.engine.k_active,
            sessions_dropped=before - self.engine.active_sessions))
        self._update_backpressure()

    def finalize(self) -> RuntimeResult:
        """Seal the run and build the result (the engine's own code)."""
        return self.engine.finalize()
