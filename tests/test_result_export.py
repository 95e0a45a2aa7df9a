"""The streamed result JSON: ``RuntimeResult.write_json`` byte for byte.

The oracle is the dict-tree payload export used to build before it
streamed: one dict per session event, serialised in one
``json.dumps(payload, indent=k, sort_keys=True)`` call.  The streamed
writer and ``to_json`` must reproduce those bytes exactly, for the
compact form and for any indent.
"""

from __future__ import annotations

import io
import json
import math
import tracemalloc

import pytest

from repro.experiments.cli import main
from repro.runtime import (
    MetricsLog,
    RuntimeResult,
    SessionEvent,
    SessionEventKind,
    run_runtime,
)
from repro.runtime.export import EXPORT_BLOCK
from repro.runtime.runtime import MigrationRecord
from repro.service.config import RuntimeConfig
from repro.service.parity import ParityReport
from repro.service.scenarios import SERVICE_SCENARIOS, build_service_scenario
from repro.service.traffic import run_service

INDENTS = (None, 2, 4)
#: The golden-digest horizon (tests/test_golden_digests.py).
HORIZON = 1_500.0


def oracle_payload(result: RuntimeResult) -> dict:
    """The whole result as one dict tree (the pre-streaming export)."""
    return {
        "schema": 1,
        "summary": {
            "final_mode": result.final_mode,
            "final_policy": result.final_policy,
            "k_active": result.k_active,
            "final_capacity": result.final_capacity,
            "final_dram_required": result.final_dram_required,
            "dram_budget": result.dram_budget,
            "degraded_time": result.degraded_time,
            "horizon": result.horizon,
            "events_executed": result.events_executed,
            "blocking_probability": result.blocking_probability,
            "totals": result.totals,
            "notes": dict(sorted(result.notes.items())),
            "planner_cache": dict(sorted(result.planner_cache.items())),
        },
        "events": [{"time": e.time, "kind": e.kind.value,
                    "session_id": e.session_id, "title": e.title,
                    "served_by": e.served_by, "reason": e.reason}
                   for e in result.events],
        "migrations": [m.to_dict() for m in result.migrations],
        "metrics": result.metrics.to_dict(),
    }


def oracle_json(result: RuntimeResult, indent: int | None) -> str:
    return json.dumps(oracle_payload(result), indent=indent, sort_keys=True)


def streamed(result: RuntimeResult, indent: int | None) -> str:
    buffer = io.StringIO()
    result.write_json(buffer, indent=indent)
    return buffer.getvalue()


def assert_same_bytes(label: str, text: str, expected: str) -> None:
    """Equal, or fail with an excerpt at the first differing byte (a
    full diff of megabyte strings takes minutes)."""
    report = ParityReport(name=label, labels=(label, "oracle"),
                          left_json=text, right_json=expected)
    assert report.matches, report.first_divergence()


def assert_exports_match(result: RuntimeResult, indent: int | None) -> str:
    """``write_json`` and ``to_json`` both give the oracle's bytes."""
    expected = oracle_json(result, indent)
    assert_same_bytes("write_json", streamed(result, indent), expected)
    assert_same_bytes("to_json", result.to_json(indent=indent), expected)
    return expected


@pytest.fixture(scope="module", params=sorted(SERVICE_SCENARIOS))
def scenario_result(request) -> RuntimeResult:
    config = build_service_scenario(request.param, seed=0, horizon=HORIZON)
    return run_runtime(config.to_legacy())


def _metrics() -> MetricsLog:
    log = MetricsLog()
    log.count("arrivals", 3)
    log.count("admits", 2)
    log.count("rejects")
    log.close_interval(60.0, {"dram_occupancy": math.nan,
                              "blocking_probability": 1 / 3})
    log.close_interval(120.0, {"dram_occupancy": math.inf})
    return log


def _edge_events() -> list[SessionEvent]:
    return [
        SessionEvent(time=0.1, kind=SessionEventKind.ADMIT, session_id=0,
                     title=7, served_by="prefix"),
        SessionEvent(time=1e-7, kind=SessionEventKind.ADMIT, session_id=1,
                     title=7, served_by="shared"),
        SessionEvent(time=math.nan, kind=SessionEventKind.REJECT,
                     session_id=-1, title=3,
                     reason="überlast: 過負荷 \"q\"\n\t\\"),
        SessionEvent(time=math.inf, kind=SessionEventKind.DEPART,
                     session_id=0, title=7, served_by="prefix"),
        SessionEvent(time=-math.inf, kind=SessionEventKind.DROP,
                     session_id=1, title=7, served_by="shared",
                     reason="failure: k 2->1"),
        # A timeline event scheduled at an int time stamps an int.
        SessionEvent(time=1200, kind=SessionEventKind.DROP, session_id=2,
                     title=0, served_by="cache", reason="failure"),
        SessionEvent(time=-0.0, kind=SessionEventKind.ADMIT, session_id=3,
                     title=2 ** 40, served_by="disk"),
    ]


def hand_built(*, events: list[SessionEvent], migrations=()) -> RuntimeResult:
    return RuntimeResult(
        events=events, metrics=_metrics(), migrations=list(migrations),
        final_mode="degraded", final_policy=None, k_active=1,
        final_capacity=0, final_dram_required=math.inf,
        dram_budget=-math.inf, degraded_time=math.nan, horizon=1e300,
        events_executed=0,
        notes={"z": -math.inf, "a": math.nan, "seed": 7, "m": 0.1 + 0.2},
        planner_cache={"misses": 2, "hits": 0})


class TestByteIdentity:
    @pytest.mark.parametrize("indent", INDENTS)
    def test_named_scenarios(self, scenario_result, indent):
        assert_exports_match(scenario_result, indent)

    @pytest.mark.parametrize("indent", INDENTS)
    def test_empty_result(self, indent):
        expected = assert_exports_match(hand_built(events=[]), indent)
        assert '"events": []' in expected
        assert '"migrations": []' in expected

    @pytest.mark.parametrize("indent", INDENTS)
    def test_edge_values(self, indent):
        migration = MigrationRecord(time=math.nan, policy="replicated",
                                    migrations_in=(1, 2),
                                    migrations_out=(), n_cached=2)
        result = hand_built(events=_edge_events(), migrations=[migration])
        expected = assert_exports_match(result, indent)
        for spelling in ("NaN", "Infinity", "-Infinity", "\\u00fcberlast",
                         '"prefix"', '"shared"', "null"):
            assert spelling in expected

    @pytest.mark.parametrize("indent", INDENTS)
    def test_block_boundaries(self, indent):
        # Exactly one block, then two blocks and one row.
        events = _edge_events()
        for n in (EXPORT_BLOCK, 2 * EXPORT_BLOCK + 1):
            result = hand_built(events=[events[i % len(events)]
                                        for i in range(n)])
            assert_exports_match(result, indent)


class _CountingSink:
    """A text sink that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


class TestExportMemory:
    def test_streamed_export_holds_one_block(self):
        # The e2e disk_saturated/overload config: ~32k session events,
        # 6.07 MB at indent=2.  The dict-tree export peaked at 46.7 MiB.
        result = run_service(build_service_scenario("overload", seed=1))
        sink = _CountingSink()
        tracemalloc.start()
        try:
            result.write_json(sink, indent=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size >= 5_000_000
        assert peak < 4 * 2 ** 20


class TestCliExport:
    def test_config_run_writes_to_json_bytes(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        out = tmp_path / "out.json"
        assert main(["runtime", "device-failure", "--emit-config",
                     str(config_path), "--horizon", "1500",
                     "--seed", "3"]) == 0
        assert main(["runtime", "--config", str(config_path),
                     "--json", str(out)]) == 0
        capsys.readouterr()
        config = RuntimeConfig.from_json(config_path.read_text())
        expected = run_service(config).to_json(indent=2)
        assert_same_bytes(str(out), out.read_text(encoding="utf-8"),
                          expected)

    def test_all_json_matches_the_round_trip_construction(self, capsys,
                                                          tmp_path):
        out = tmp_path / "all.json"
        assert main(["runtime", "all", "--seed", "3", "--horizon", "600",
                     "--json", str(out)]) == 0
        capsys.readouterr()
        # The construction the file had before streaming: parse each
        # compact result and re-dump the lot, in scenario order.
        payload = {
            name: json.loads(run_runtime(build_service_scenario(
                name, seed=3, horizon=600.0).to_legacy()).to_json())
            for name in SERVICE_SCENARIOS}
        expected = json.dumps(payload, indent=2)
        assert_same_bytes(str(out), out.read_text(encoding="utf-8"),
                          expected)
        assert list(json.loads(expected)) == list(SERVICE_SCENARIOS)
