"""Benchmark harness: records, persistence, and the regression gate."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import main
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    METRIC_DIRECTIONS,
    WORKLOADS,
    BenchRecord,
    compare_records,
    load_records,
    run_workloads,
    write_records,
)


def _slowed(record: BenchRecord, factor: float = 1.5) -> BenchRecord:
    """A synthetic slowdown: times up, rates down by ``factor``."""
    metrics = {}
    for name, value in record.metrics.items():
        direction = METRIC_DIRECTIONS.get(name)
        if direction == "lower":
            metrics[name] = value * factor
        elif direction == "higher":
            metrics[name] = value / factor
        else:
            metrics[name] = value
    return BenchRecord(name=record.name, preset=record.preset,
                       metrics=metrics)


class TestBenchRecord:
    def test_roundtrip(self):
        record = BenchRecord(name="event_loop", preset="tiny",
                             metrics={"wall_time_s": 0.5,
                                      "events_per_sec": 1e6})
        payload = json.loads(record.to_json())
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert BenchRecord.from_dict(payload) == record

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigurationError):
            BenchRecord.from_dict({"schema": 99, "name": "x",
                                   "preset": "tiny", "metrics": {}})

    def test_filename(self):
        record = BenchRecord(name="planner_cold", preset="tiny", metrics={})
        assert record.filename == "BENCH_planner_cold.json"


class TestRunWorkloads:
    def test_event_loop_tiny(self):
        (record,) = run_workloads(["event_loop"], preset="tiny")
        assert record.name == "event_loop"
        assert record.preset == "tiny"
        assert record.metrics["wall_time_s"] > 0
        assert record.metrics["events_per_sec"] > 0
        assert record.metrics["events_executed"] >= 5_000

    def test_planner_workloads_tiny(self):
        cold, warm = run_workloads(["planner_cold", "planner_warm"],
                                   preset="tiny")
        assert cold.metrics["planner_hit_rate"] == 0.0
        assert warm.metrics["planner_hit_rate"] == 1.0
        assert warm.metrics["solves_per_sec"] > cold.metrics["solves_per_sec"]

    def test_repeats_keep_best(self):
        (record,) = run_workloads(["event_loop"], preset="tiny", repeats=2)
        assert record.metrics["wall_time_s"] > 0

    def test_default_selection_is_every_workload(self):
        assert set(WORKLOADS) == {"event_loop", "figure6_sweep",
                                  "batch_sweep", "runtime_scenario",
                                  "million_sessions", "planner_cold",
                                  "planner_warm", "admission_storm",
                                  "replan_epochs", "flash_crowd",
                                  "service_churn", "lint"}

    def test_runtime_scenario_tiny(self):
        (record,) = run_workloads(["runtime_scenario"], preset="tiny")
        # The gated rate counts session-lifecycle events, not the
        # run loop's handful of control-timer calendar entries.
        assert record.metrics["session_events"] > 0
        assert (record.metrics["events_per_sec"]
                == pytest.approx(record.metrics["session_events"]
                                 / record.metrics["wall_time_s"]))
        assert (record.metrics["events_executed"]
                < record.metrics["session_events"])

    def test_million_sessions_tiny(self):
        (record,) = run_workloads(["million_sessions"], preset="tiny")
        assert record.metrics["sessions"] > 1_000
        # The torrent shape keeps the population far under capacity:
        # every arrival admits.
        assert record.metrics["sessions"] == record.metrics["arrivals"]
        assert record.metrics["sessions_per_sec"] > 0

    def test_batch_sweep_tiny(self):
        (record,) = run_workloads(["batch_sweep"], preset="tiny")
        assert record.metrics["wall_time_s"] > 0
        assert record.metrics["solves_per_sec"] > 0
        assert record.metrics["demand_points"] >= 10_000
        assert record.metrics["inverse_lanes"] >= 16

    def test_admission_storm_tiny(self):
        (record,) = run_workloads(["admission_storm"], preset="tiny")
        assert record.metrics["probe_ratio"] >= 5.0
        assert record.metrics["planner_probes_warm_run"] > 0
        assert (record.metrics["planner_probes_cold_run"]
                > record.metrics["planner_probes_warm_run"])
        assert record.metrics["admissions"] > 0
        assert record.metrics["solves_per_sec"] > 0

    def test_replan_epochs_tiny(self):
        (record,) = run_workloads(["replan_epochs"], preset="tiny")
        assert record.metrics["probe_ratio"] > 1.0
        assert record.metrics["planner_probes_warm_run"] > 0
        assert record.metrics["solves_per_sec"] > 0

    def test_flash_crowd_tiny(self):
        (record,) = run_workloads(["flash_crowd"], preset="tiny")
        for key in ("wall_time_s", "events_per_sec", "fanout_ratio",
                    "sessions_prefix", "sessions_whole", "batched_joins",
                    "io_streams", "prefix_probes_cold_run",
                    "prefix_probes_warm_run", "probe_ratio"):
            assert key in record.metrics
        assert record.metrics["fanout_ratio"] > 1.0
        assert record.metrics["batched_joins"] > 0
        # Hinted epoch replans must replay warm, and cheaper than cold.
        assert record.metrics["prefix_probes_warm_run"] > 0
        assert (record.metrics["prefix_probes_warm_run"]
                < record.metrics["prefix_probes_cold_run"])

    def test_service_churn_tiny(self):
        (record,) = run_workloads(["service_churn"], preset="tiny")
        assert record.metrics["ops"] > 0
        assert record.metrics["ops_per_sec"] > 0
        # The churn drives real EVENT_FLOW traffic: admits parked in
        # replan windows must get finalized by replan-done events.
        assert record.metrics["pending_finalized"] > 0
        assert record.metrics["events_published"] >= record.metrics["ops"]

    def test_lint_tiny(self):
        (record,) = run_workloads(["lint"], preset="tiny")
        assert record.metrics["wall_time_s"] > 0
        assert record.metrics["files_parsed_cold"] > 0
        assert (record.metrics["files_checked"]
                == record.metrics["files_parsed_cold"])
        # The warm pass over an untouched tree replays entirely from
        # the content-hash cache: nothing is re-parsed.
        assert record.metrics["files_parsed_warm"] == 0.0
        assert (record.metrics["cache_hits_warm"]
                == record.metrics["files_checked"])
        # The repository lints clean against its own rules.
        assert record.metrics["findings"] == 0.0

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            run_workloads(["nope"], preset="tiny")

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            run_workloads(["event_loop"], preset="huge")

    def test_repeats_validated(self):
        with pytest.raises(ConfigurationError):
            run_workloads(["event_loop"], preset="tiny", repeats=0)


def _small(name: str) -> dict[str, float]:
    (record,) = run_workloads([name], preset="small")
    return record.metrics


class TestSmallPresetCounts:
    """The CI preset's deterministic work counts, pinned exactly.

    Every workload is seeded, so these counters are the same on any
    machine and only the wall-clock metrics vary.  A change that moves
    one of them changes the work the gated path does: update the number
    here on purpose, never loosen it to a ratio.
    """

    def test_event_loop_events_executed(self):
        # 64 staggered chains, 3126 firings each up to the horizon.
        assert _small("event_loop")["events_executed"] == 200064

    def test_admission_storm_probes(self):
        metrics = _small("admission_storm")
        assert metrics["planner_probes_cold_run"] == 480
        assert metrics["planner_probes_warm_run"] == 66
        assert metrics["probe_ratio"] == 480 / 66
        assert metrics["admissions"] == 2400
        # Admits below the capacity threshold solve nothing: the warm
        # storm's plan-cache misses are its capacity searches and the
        # rejects past them (138 while every admit solved its DRAM).
        assert metrics["plan_cache_misses_warm_run"] == 45

    def test_replan_epochs_probes(self):
        metrics = _small("replan_epochs")
        assert metrics["planner_probes_cold_run"] == 234
        assert metrics["planner_probes_warm_run"] == 42

    def test_flash_crowd_prefix_advantage(self):
        metrics = _small("flash_crowd")
        assert metrics["sessions_prefix"] == 1988
        assert metrics["sessions_whole"] == 1630
        assert metrics["batched_joins"] == 1410
        assert metrics["io_streams"] == 578
        assert metrics["fanout_ratio"] == 1988 / 578
        assert metrics["prefix_probes_cold_run"] == 126
        assert metrics["prefix_probes_warm_run"] == 30

    def test_service_churn_event_flow(self):
        metrics = _small("service_churn")
        assert metrics["ops"] == 49630
        assert metrics["pending_finalized"] == 1440
        assert metrics["events_published"] == 51103

    def test_runtime_scenario_session_events(self):
        assert _small("runtime_scenario")["session_events"] == 85305

    def test_million_sessions_admits_every_arrival(self):
        metrics = _small("million_sessions")
        assert metrics["sessions"] == 149873
        assert metrics["arrivals"] == 149873
        assert metrics["sessions_per_sec"] > 0
        assert metrics["session_events"] == 299667
        # 28 column bytes a row: time f8, kind u1, session id i8,
        # title i8, served-by code u1, reason code u2.
        assert metrics["audit_log_bytes"] == 299667 * 28 == 8390676


class TestPersistence:
    def test_write_and_load(self, tmp_path):
        records = [BenchRecord(name="event_loop", preset="tiny",
                               metrics={"wall_time_s": 0.25}),
                   BenchRecord(name="planner_cold", preset="tiny",
                               metrics={"solves_per_sec": 100.0})]
        paths = write_records(records, tmp_path)
        assert sorted(p.name for p in paths) == [
            "BENCH_event_loop.json", "BENCH_planner_cold.json"]
        loaded = load_records(tmp_path)
        assert loaded == {record.name: record for record in records}

    def test_load_single_file(self, tmp_path):
        record = BenchRecord(name="event_loop", preset="tiny",
                             metrics={"wall_time_s": 0.25})
        (path,) = write_records([record], tmp_path)
        assert load_records(path) == {"event_loop": record}

    def test_load_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_records(tmp_path)

    def test_load_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_records(tmp_path / "nope")


class TestCompareRecords:
    BASE = {"event_loop": BenchRecord(
        name="event_loop", preset="tiny",
        metrics={"wall_time_s": 1.0, "events_per_sec": 1e6,
                 "events_executed": 5_000.0})}

    def test_self_comparison_is_clean(self):
        comparisons, regressions = compare_records(self.BASE, self.BASE)
        assert len(comparisons) == 2  # the two gated metrics
        assert regressions == []

    def test_synthetic_slowdown_flagged(self):
        slow = {name: _slowed(record)
                for name, record in self.BASE.items()}
        _, regressions = compare_records(slow, self.BASE,
                                         tolerance_pct=10.0)
        flagged = {(r.workload, r.metric) for r in regressions}
        assert ("event_loop", "wall_time_s") in flagged
        assert ("event_loop", "events_per_sec") in flagged

    def test_within_tolerance_passes(self):
        mild = {name: _slowed(record, factor=1.05)
                for name, record in self.BASE.items()}
        _, regressions = compare_records(mild, self.BASE,
                                         tolerance_pct=10.0)
        assert regressions == []

    def test_improvement_never_flagged(self):
        fast = {name: _slowed(record, factor=0.5)  # 2x faster
                for name, record in self.BASE.items()}
        _, regressions = compare_records(fast, self.BASE,
                                         tolerance_pct=0.0)
        assert regressions == []

    def test_disjoint_workloads_ignored(self):
        other = {"planner_cold": BenchRecord(
            name="planner_cold", preset="tiny",
            metrics={"wall_time_s": 9.0})}
        comparisons, regressions = compare_records(other, self.BASE)
        assert comparisons == [] and regressions == []

    def test_informational_metrics_not_gated(self):
        worse_info = dict(self.BASE["event_loop"].metrics)
        worse_info["events_executed"] *= 100
        current = {"event_loop": BenchRecord(
            name="event_loop", preset="tiny", metrics=worse_info)}
        _, regressions = compare_records(current, self.BASE,
                                         tolerance_pct=0.0)
        assert regressions == []

    def test_tolerance_validated(self):
        with pytest.raises(ConfigurationError):
            compare_records(self.BASE, self.BASE, tolerance_pct=-1.0)

    def test_rate_regression_mirrors_wall_time(self):
        # A rate at a quarter of its baseline scores like a run four
        # times as long: 300% worse, past CI's 200% tolerance.
        quarter = {"event_loop": BenchRecord(
            name="event_loop", preset="tiny",
            metrics={"events_per_sec": 0.25e6})}
        (comparison,), regressions = compare_records(
            quarter, self.BASE, tolerance_pct=200.0)
        assert comparison.regression_pct == pytest.approx(300.0)
        assert regressions == [comparison]
        assert "300.0% worse" in comparison.describe()

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_a_rate_of_zero_or_below_is_a_regression(self, rate):
        stalled = {"event_loop": BenchRecord(
            name="event_loop", preset="tiny",
            metrics={"events_per_sec": rate})}
        _, regressions = compare_records(stalled, self.BASE,
                                         tolerance_pct=1e9)
        assert [r.metric for r in regressions] == ["events_per_sec"]


class TestBenchCli:
    def _record(self, tmp_path, subdir):
        out = tmp_path / subdir
        code = main(["bench", "--preset", "tiny", "--workload",
                     "event_loop", "--out", str(out)])
        assert code == 0
        return out

    def test_record_emits_schema_versioned_json(self, tmp_path):
        out = self._record(tmp_path, "run")
        payload = json.loads((out / "BENCH_event_loop.json").read_text())
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["name"] == "event_loop"
        assert payload["metrics"]["wall_time_s"] > 0

    def _baseline(self, tmp_path, out, factor):
        """``out``'s records rescaled by ``factor`` (see ``_slowed``)."""
        baseline = tmp_path / "baseline"
        write_records([_slowed(record, factor)
                       for record in load_records(out).values()], baseline)
        return baseline

    def test_compare_against_slower_baseline_exits_zero(self, tmp_path):
        out = self._record(tmp_path, "run")
        # A baseline 100x slower than this machine: a fresh run records
        # and passes the gate in one call, even at zero tolerance.
        baseline = self._baseline(tmp_path, out, 100.0)
        assert main(["bench", "--preset", "tiny", "--workload",
                     "event_loop", "--out", str(tmp_path / "again"),
                     "--compare", str(baseline), "--tolerance", "0"]) == 0
        assert (tmp_path / "again" / "BENCH_event_loop.json").is_file()

    def test_synthetic_slowdown_exits_nonzero(self, tmp_path):
        out = self._record(tmp_path, "run")
        # A baseline 100x faster: the fresh run is a slowdown far past
        # any timing noise.
        baseline = self._baseline(tmp_path, out, 0.01)
        assert main(["bench", "--preset", "tiny", "--workload",
                     "event_loop", "--compare", str(baseline),
                     "--tolerance", "10"]) == 1

    def test_unknown_workload_is_an_error(self, tmp_path):
        assert main(["bench", "--preset", "tiny", "--workload",
                     "nope"]) == 1
