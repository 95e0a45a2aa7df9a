"""The two session cores held observably identical.

Both cores keep sessions in one :class:`SessionTable`; they differ only
in how departures are scheduled (one calendar event per session on
``session_core="objects"``, harvested scans on ``"table"``).  They must
be *observably indistinguishable*: same admits, same rejects, same
departure order, byte-identical result JSON apart from the engine's
event count.  These tests hold that equivalence under randomized
workloads (hypothesis), under adversarial edge shapes (zero-duration
holds, simultaneous departures, a mid-run focused flash crowd), on the
service facade's admit/teardown path, and for the facade's bulk
``admit_block`` path against one-at-a-time ``admit`` calls.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.runtime.runtime import FocusEvent
from repro.runtime.sessions import SessionSampler, SessionTable
from repro.service import scenarios as service_scenarios
from repro.service.config import WorkloadConfig
from repro.service.facade import MediaService
from repro.service.parity import (
    compare_cores,
    run_both_cores,
    verify_all_cores,
)
from repro.service.scenarios import SERVICE_SCENARIOS


def _random_config(base_name, workload, *, seed, horizon):
    """A named scenario's config with the given workload swapped in."""
    factory = getattr(service_scenarios, base_name)
    return factory(seed=seed, horizon=horizon).replace(workload=workload)


def _popularity(spec):
    from repro.service.config import PopularityConfig

    if spec == "uniform":
        return PopularityConfig(kind="uniform")
    return PopularityConfig(kind="zipf",
                            alpha=float(spec.split("-", 1)[1]))


workloads = st.builds(
    WorkloadConfig,
    arrival_rate=st.floats(min_value=0.05, max_value=2.0),
    mean_holding=st.floats(min_value=2.0, max_value=400.0),
    n_titles=st.integers(min_value=1, max_value=50),
    popularity=st.sampled_from(
        ["zipf-0.271", "zipf-0.8", "uniform"]).map(_popularity),
)


class TestRandomWorkloadParity:
    @settings(max_examples=12, deadline=None)
    @given(workload=workloads, seed=st.integers(min_value=0, max_value=999),
           base=st.sampled_from(["steady_disk", "adaptive_cache"]))
    def test_cores_agree_on_random_workloads(self, workload, seed, base):
        config = _random_config(base, workload, seed=seed, horizon=400.0)
        report = compare_cores("random", config)
        # Byte-identical result JSON: every admit/reject/teardown in
        # the event log, every counter, every gauge sample.
        assert report.matches, report.first_divergence()

    @settings(max_examples=6, deadline=None)
    @given(workload=workloads, seed=st.integers(min_value=0, max_value=99))
    def test_metrics_json_bytes_identical(self, workload, seed):
        config = _random_config("steady_disk", workload,
                                seed=seed, horizon=400.0)
        objects, table = run_both_cores(config)
        assert objects.metrics.to_json() == table.metrics.to_json()


class TestEdgeShapes:
    def test_zero_duration_holds(self, monkeypatch):
        # Every session departs at the instant it arrives: the table
        # core must replay each departure inside the same drain window
        # (the ``extra`` heap path) exactly where the object core's
        # calendar would have.
        monkeypatch.setattr(SessionSampler, "next_holding",
                            lambda self: 0.0)
        config = _random_config(
            "steady_disk",
            WorkloadConfig(arrival_rate=0.8, mean_holding=10.0,
                           n_titles=5, popularity=_popularity("uniform")),
            seed=3, horizon=500.0)
        report = compare_cores("zero-holds", config)
        assert report.matches, report.first_divergence()
        _, table = run_both_cores(config)
        totals = table.totals
        assert totals["departures"] == totals["admits"] > 0

    def test_simultaneous_departures_resolve_in_admit_order(self):
        table = SessionTable(capacity=2)
        for sid in range(4):
            table.add(sid, title=sid, arrival=float(sid),
                      holding=100.0 - sid, served_by="disk")
        # All four depart at t=100 (and the capacity-2 table grew).
        rows = table.harvest(100.0, inclusive=True)
        assert list(rows) == [0, 1, 2, 3]
        table.mark_departed(0)
        assert table.active_count == 3
        assert list(table.harvest(100.0)) == [1, 2, 3]

    def test_equal_holding_parity(self, monkeypatch):
        # Constant holding times make whole cohorts depart together —
        # the harvest's (time, admit order) sort must match the object
        # calendar's FIFO tie-break.
        monkeypatch.setattr(SessionSampler, "next_holding",
                            lambda self: 60.0)
        config = _random_config(
            "adaptive_cache",
            WorkloadConfig(arrival_rate=1.5, mean_holding=10.0,
                           n_titles=8, popularity=_popularity("zipf-0.8")),
            seed=11, horizon=600.0)
        report = compare_cores("equal-holds", config)
        assert report.matches, report.first_divergence()

    def test_focus_title_mid_run(self):
        base = _random_config(
            "adaptive_cache",
            WorkloadConfig(arrival_rate=1.0, mean_holding=80.0,
                           n_titles=12, popularity=_popularity("zipf-0.8")),
            seed=7, horizon=900.0)
        config = base.replace(timeline=dataclasses.replace(
            base.timeline,
            focuses=(FocusEvent(time=300.0, title=2, weight=0.7),
                     FocusEvent(time=600.0, title=2, weight=0.0))))
        report = compare_cores("focus-mid-run", config)
        assert report.matches, report.first_divergence()
        _, table = run_both_cores(config)
        assert table.totals["arrivals"] > 0

    def test_all_named_scenarios_stay_byte_identical(self):
        reports = verify_all_cores(seed=0, horizon=700.0)
        assert all(r.matches for r in reports.values()), {
            n: r.first_divergence()
            for n, r in reports.items() if not r.matches}


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


def _without_events_executed(result) -> dict:
    payload = json.loads(result.to_json())
    del payload["summary"]["events_executed"]
    return payload


class TestFacadeCoreParity:
    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    @pytest.mark.parametrize("bulk", [False, True])
    def test_cores_agree_on_the_facade_path(self, name, bulk):
        # The same admit / admit_block / teardown churn, with the clock
        # advancing between bursts, through both cores: identical
        # tickets, identical bus events, and result JSON identical but
        # for the engine's executed-event count.
        runs = {}
        for core in ("objects", "table"):
            config = service_scenarios.build_service_scenario(
                name, seed=4, horizon=5_000.0).replace(session_core=core)
            service = MediaService(config)
            # 250-session bursts outrun most capacities, so rejects,
            # teardowns and natural departures between bursts interleave.
            tickets, events = _drive(service, bulk=bulk, bursts=6,
                                     burst=250, step=400.0)
            runs[core] = ([dataclasses.asdict(t) for t in tickets], events,
                          _without_events_executed(service.finalize()))
        objects, table = runs["objects"], runs["table"]
        assert any(t["state"].value == "admitted" for t in objects[0])
        assert objects[0] == table[0]
        assert objects[1] == table[1]
        assert objects[2] == table[2]


def _block_service(core):
    return MediaService(
        service_scenarios.steady_disk(seed=5, horizon=5_000.0)
        .replace(session_core=core))


@pytest.mark.parametrize("core", ["objects", "table"])
class TestAdmitBlockEquivalence:
    def test_block_equals_sequential_admits(self, core):
        # Identical config, identical seed: a burst through the fused
        # admit_block path must produce the same tickets AND the same
        # bus event stream (ordering, loads, backpressure transitions)
        # as one-at-a-time admit calls.
        block_tickets, block_events = _drive(_block_service(core),
                                             bulk=True)
        seq_tickets, seq_events = _drive(_block_service(core), bulk=False)
        assert [dataclasses.asdict(t) for t in block_tickets] \
            == [dataclasses.asdict(t) for t in seq_tickets]
        assert block_events == seq_events

    def test_block_validates_inputs(self, core):
        service = _block_service(core)
        with pytest.raises(ConfigurationError):
            service.admit_block()
        with pytest.raises(ConfigurationError):
            service.admit_block(count=2, titles=[1])

    def test_block_with_explicit_titles(self, core):
        tickets = _block_service(core).admit_block(titles=[0, 1, 0])
        assert [t.title for t in tickets] == [0, 1, 0]
        assert all(t.admitted for t in tickets)
