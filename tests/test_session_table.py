"""The session store, the sampler's windowed arrival draw and the
facade's bulk admit path.

:class:`SessionTable` keeps a ``(departure, row)`` heap so a drained
window's departure bookkeeping costs O(due), not O(live).  These tests
hold its ``harvest`` and ``min_departure`` against a masked scan over
the columns — the store's previous implementation, kept here as the
reference — under random adds, teardowns, sheds and harvests, ties
included.  ``SessionSampler.arrival_times`` is held float for float to
the scalar ``next_interarrival`` chain it replaces.  The facade's bulk
``admit_block`` path is held equal to one-at-a-time ``admit`` calls.  The windowed replay that consumes
the heap is held against a per-arrival driver in
``tests/test_windowed_traffic.py``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.core.popularity import ZipfPopularity
from repro.runtime.sessions import (
    TABLE_ACTIVE,
    SessionSampler,
    SessionTable,
    SessionWorkload,
)
from repro.service import scenarios as service_scenarios
from repro.service.facade import MediaService


def _scan_harvest(table: SessionTable, until: float,
                  inclusive: bool) -> list[int]:
    """Reference: live rows due by ``until``, stable-sorted by time."""
    n = len(table)
    live = table.state[:n] == TABLE_ACTIVE
    due = live & (table.departure[:n] <= until if inclusive
                  else table.departure[:n] < until)
    rows = np.flatnonzero(due)
    return rows[np.argsort(table.departure[rows], kind="stable")].tolist()


def _scan_min_departure(table: SessionTable) -> float:
    n = len(table)
    live = table.state[:n] == TABLE_ACTIVE
    return float(table.departure[:n][live].min()) if live.any() \
        else float("inf")


#: One table operation: (kind, value).  Holding times come from a small
#: set so equal departure times (ties) are common.
operations = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from([0.0, 1.0, 2.5, 5.0, 5.0])),
    st.tuples(st.just("teardown"), st.integers(min_value=0, max_value=60)),
    st.tuples(st.just("shed"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.sampled_from(["harvest", "harvest_before"]),
              st.floats(min_value=0.0, max_value=40.0)),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0])),
), max_size=80)


class TestDepartureHeap:
    @settings(max_examples=150, deadline=None)
    @given(ops=operations)
    def test_heap_matches_a_masked_scan(self, ops):
        table = SessionTable(capacity=2)
        now = 0.0
        for kind, value in ops:
            if kind == "add":
                table.add(len(table), title=0, arrival=now, holding=value,
                          served_by="disk")
            elif kind == "tick":
                now += value
            elif kind == "teardown":
                if table.is_active(value):
                    table.mark_departed(value)
            elif kind == "shed":
                for row in table.shed_newest(value):
                    table.mark_dropped(int(row))
            else:
                inclusive = kind == "harvest"
                expected = _scan_harvest(table, value, inclusive)
                rows = table.harvest(value, inclusive=inclusive)
                assert rows == expected
                # The caller retires every harvested row.
                for row in rows:
                    table.mark_departed(row)
            assert table.min_departure() == _scan_min_departure(table)

    def test_simultaneous_departures_resolve_in_admit_order(self):
        table = SessionTable(capacity=2)
        for sid in range(4):
            table.add(sid, title=sid, arrival=float(sid),
                      holding=100.0 - sid, served_by="disk")
        # All four depart at t=100 (and the capacity-2 table grew).
        assert table.min_departure() == 100.0
        assert table.harvest(100.0, inclusive=False) == []
        assert table.harvest(100.0) == [0, 1, 2, 3]
        # Each due row is handed out once.
        assert table.harvest(100.0) == []

    def test_torn_down_and_shed_rows_are_skipped(self):
        table = SessionTable()
        for sid, holding in enumerate([3.0, 1.0, 2.0, 1.0]):
            table.add(sid, title=0, arrival=0.0, holding=holding,
                      served_by="disk")
        table.mark_departed(1)  # a teardown
        table.mark_dropped(3)   # a shed
        assert table.min_departure() == 2.0
        assert table.harvest(10.0) == [2, 0]
        for row in (2, 0):
            table.mark_departed(row)
        assert table.min_departure() == float("inf")
        assert table.active_count == 0


#: Chunk of the samplers below: small, so windows of exactly one chunk
#: and of several chunks stay cheap to build.
_CHUNK = 32


def _sampler(seed: int) -> SessionSampler:
    workload = SessionWorkload(
        arrival_rate=0.5, mean_holding=60.0, n_titles=10,
        popularity=ZipfPopularity(alpha=0.8, n_titles=10))
    return SessionSampler(workload, seed, chunk=_CHUNK)


def _scalar_window(sampler, first, until, inclusive):
    """Reference: the per-arrival chain; returns (times, next arrival)."""
    times, t = [], first
    while t < until or (inclusive and t == until):
        times.append(t)
        t = t + sampler.next_interarrival()
    return times, t


def _blocked_window(sampler, first, until, inclusive):
    """The engine's window: one ``arrival_times`` call plus the follower."""
    if first > until or (not inclusive and first == until):
        return [], first
    times = [first] + sampler.arrival_times(
        first, until, inclusive=inclusive).tolist()
    return times, times[-1] + sampler.next_interarrival()


class TestArrivalTimes:
    #: Arrivals per window after the first: none, one, a few, exactly a
    #: chunk, a chunk plus one, several chunks.
    SIZES = (0, 1, 3, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_windows_match_the_scalar_chain(self, inclusive):
        scalar = _sampler(3)
        chain = [scalar.next_interarrival()]
        for _ in range(sum(self.SIZES) + len(self.SIZES) + 1):
            chain.append(chain[-1] + scalar.next_interarrival())
        blocked = _sampler(3)
        t_next, i = blocked.next_interarrival(), 0
        for size in self.SIZES:
            # Each window ends exactly on an arrival, so ``inclusive``
            # decides whether it is this window's last or the next's
            # first.
            stop = i + size + (1 if inclusive else 0)
            got, t_next = _blocked_window(blocked, t_next, chain[i + size],
                                          inclusive)
            assert got == chain[i:stop]
            assert t_next == chain[stop]  # the same follower draw
            i = stop

    def test_a_rate_change_rescales_the_buffered_draws(self):
        scalar, blocked = _sampler(9), _sampler(9)
        t_scalar = scalar.next_interarrival()
        t_blocked = blocked.next_interarrival()
        until = t_scalar
        for factor in (1.0, 4.0, 0.25, 2.5):
            for sampler in (scalar, blocked):
                sampler.workload.scale_rate(factor)
            until += 4 * _CHUNK / factor
            got, t_blocked = _blocked_window(blocked, t_blocked, until,
                                             True)
            want, t_scalar = _scalar_window(scalar, t_scalar, until, True)
            assert got == want and len(got) > _CHUNK
            assert t_blocked == t_scalar


def _drive(service, *, bulk, bursts=4, burst=25, step=50.0):
    """Admit bursts + teardowns; returns (tickets, bus event dicts)."""
    from repro.service.events import EventLog

    log = EventLog()
    service.bus.subscribe(None, log)
    sim = service.sim
    tickets = []
    live = []
    for cycle in range(bursts):
        if bulk:
            batch = service.admit_block(count=burst)
        else:
            batch = [service.admit() for _ in range(burst)]
        tickets.extend(batch)
        live.extend(t.session_id for t in batch if t.admitted)
        for session_id in live[::2]:
            service.teardown(session_id)
        live = live[1::2]
        sim.run(until=sim.now + step)
    return tickets, [e.to_dict() for e in log.events]


def _block_service():
    return MediaService(service_scenarios.steady_disk(seed=5,
                                                      horizon=5_000.0))


class TestAdmitBlockEquivalence:
    def test_block_equals_sequential_admits(self):
        # Identical config, identical seed: a burst through the fused
        # admit_block path must produce the same tickets AND the same
        # bus event stream (ordering, loads, backpressure transitions)
        # as one-at-a-time admit calls.
        block_tickets, block_events = _drive(_block_service(), bulk=True)
        seq_tickets, seq_events = _drive(_block_service(), bulk=False)
        assert [dataclasses.asdict(t) for t in block_tickets] \
            == [dataclasses.asdict(t) for t in seq_tickets]
        assert block_events == seq_events

    def test_block_validates_inputs(self):
        service = _block_service()
        with pytest.raises(ConfigurationError):
            service.admit_block()
        with pytest.raises(ConfigurationError):
            service.admit_block(count=2, titles=[1])

    def test_block_with_explicit_titles(self):
        tickets = _block_service().admit_block(titles=[0, 1, 0])
        assert [t.title for t in tickets] == [0, 1, 0]
        assert all(t.admitted for t in tickets)
