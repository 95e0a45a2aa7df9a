"""The columnar session audit log and its read-only ``events`` view.

:class:`SessionLog` keeps one row of typed columns per admit, reject,
departure and drop; ``RuntimeResult.events`` is a
:class:`SessionEvents` view that builds a :class:`SessionEvent` only
for the rows it reads.  The rows pinned here are the ones the
per-event list logged for the e2e ``disk_saturated/overload`` config
at seed 1, whose export bytes ``tests/test_golden_digests.py`` pins.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.sessions import (
    SessionEvent,
    SessionEventKind,
    SessionEvents,
    SessionLog,
)
from repro.service.config import RuntimeConfig
from repro.service.facade import MediaService
from repro.service.scenarios import steady_disk
from repro.service.traffic import run_service

OVERLOAD = (Path(__file__).parent.parent / "benchmarks" / "e2e" / "configs"
            / "disk_saturated" / "overload.json")
ADMIT, REJECT, DEPART = (SessionEventKind.ADMIT, SessionEventKind.REJECT,
                         SessionEventKind.DEPART)
REJECT_CODE = list(SessionEventKind).index(REJECT)
REASON = "DRAM requirement 5.03848e+07 B exceeds the budget 5e+07 B"


def overload(seed: int = 1):
    config = RuntimeConfig.from_json(OVERLOAD.read_text())
    return run_service(config.replace(seed=seed))


@pytest.fixture(scope="module")
def result():
    return overload()


class TestView:
    def test_len_reads_no_row(self, result, monkeypatch):
        def no_reads(*_):
            raise AssertionError("len built an event")

        monkeypatch.setattr(SessionLog, "events", no_reads)
        assert len(result.events) == 31947
        log = result.events.log
        assert (log.kind[:len(log)] == REJECT_CODE).sum() == 15914

    def test_indexes_give_the_logged_events(self, result):
        events = result.events
        assert events[0] == SessionEvent(3.427945274185791, ADMIT, 0, 6,
                                         "disk")
        assert events[5000] == SessionEvent(4748.714235108368, ADMIT, 1392,
                                            5, "disk")
        last = SessionEvent(29999.173040298952, DEPART, 8085, 14, "disk")
        assert events[-1] == events[31946] == last
        assert events[-31947] == events[0]
        for index in (31947, -31948):
            with pytest.raises(IndexError):
                events[index]

    def test_slices_give_the_logged_events(self, result):
        events = result.events
        assert events[20000:20003] == [
            SessionEvent(18764.647184490474, DEPART, 5067, 5, "disk"),
            SessionEvent(18764.975973704095, ADMIT, 5147, 10, "disk"),
            SessionEvent(18765.6489721198, REJECT, -1, 30, None, REASON)]
        assert events[20000:20003:2] == [events[20000], events[20002]]
        assert events[-1:] == [events[31946]]
        assert events[5:2] == []
        assert len(events[31940:40000]) == 7

    def test_iteration_follows_the_exported_rows(self, result):
        rows = json.loads(result.to_json())["events"]
        expected = [SessionEvent(row["time"], SessionEventKind(row["kind"]),
                                 row["session_id"], row["title"],
                                 row["served_by"], row["reason"])
                    for row in rows]
        assert list(result.events) == expected
        assert result.events == expected

    def test_equal_runs_compare_equal(self, result):
        again = overload()
        assert again.events == result.events
        assert again.events.log is not result.events.log
        assert overload(seed=2).events != result.events

    def test_view_is_read_only(self, result):
        with pytest.raises(TypeError):
            result.events[0] = result.events[1]
        assert not hasattr(result.events, "append")

    def test_pickled_view_equals_the_original(self, result):
        clone = pickle.loads(pickle.dumps(result.events))
        assert isinstance(clone, SessionEvents)
        assert clone == result.events


class TestColumns:
    def test_overload_column_bytes(self, result):
        log = result.events.log
        assert log.nbytes == 894_516 == 31947 * 28
        assert log.nbytes / len(log) <= 32

    def test_teardown_returns_the_logged_row(self):
        service = MediaService(steady_disk(seed=1, horizon=2_000.0))
        tickets = [service.admit() for _ in range(3)]
        assert all(ticket.admitted for ticket in tickets)
        engine = service.engine
        table = engine.session_table
        # The session still playing longest, so it is live at t=50.
        ticket = max(tickets,
                     key=lambda t: float(table.departure[t.session_id]))
        assert float(table.departure[ticket.session_id]) > 50.0
        service.sim.run(until=50.0)
        closed = engine.close_session(engine.sim, ticket.session_id)
        assert closed == SessionEvent(50.0, DEPART, ticket.session_id,
                                      ticket.title, ticket.served_by)
        assert engine.close_session(engine.sim, ticket.session_id) is None
        events = service.finalize().events
        (row,) = [e for e in events
                  if e.kind is DEPART and e.session_id == ticket.session_id]
        assert row == closed

    def test_appended_rows_read_back(self):
        log = SessionLog()
        log.append(0.5, 0, 0, 3, log.tiers.code("cache"))
        log.append(7, 3, 0, 3, log.tiers.code("cache"),
                   log.reasons.code("device failure"))
        log.append_rejects(np.array([9.0, 9.5]), np.array([2 ** 40, 1]),
                           log.reasons.code("full"))
        view = SessionEvents(log)
        assert list(view) == [
            SessionEvent(0.5, ADMIT, 0, 3, "cache"),
            SessionEvent(7, SessionEventKind.DROP, 0, 3, "cache",
                         "device failure"),
            SessionEvent(9.0, REJECT, -1, 2 ** 40, None, "full"),
            SessionEvent(9.5, REJECT, -1, 1, None, "full")]
        assert type(view[1].time) is int
        assert log.exact_rows == [1]
        assert log.nbytes == 4 * 28

    def test_session_event_is_an_immutable_named_tuple(self):
        event = SessionEvent(1.0, ADMIT, 0, 3)
        assert event.served_by is None and event.reason is None
        assert event._fields == ("time", "kind", "session_id", "title",
                                 "served_by", "reason")
        with pytest.raises(AttributeError):
            event.time = 2.0
