"""Smoke test of the end-to-end benchmark at a tiny scale.

One ``bench.py run`` over every workload, with horizons and API cycles
scaled down, must pass every correctness check, print every metric
``BENCHMARK.json`` names with its unit, and trace at least 95% of the
traced wall time, including calls that arrive through a ``from X
import f`` alias.  Two more tests pin the memory metric to the child's
own peak, not the spawning process's, and ``compare``'s verdict rules.
"""

from __future__ import annotations

import json
import subprocess
import sys

import bench
import child
import pytest


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "bench.py"), "run", "--seed", "3",
         "--scale", "0.06", "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False)
    return proc, out


def test_every_workload_runs_and_passes_its_checks(smoke):
    proc, out = smoke
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.WORKLOADS)
    assert "CHECK FAILED" not in proc.stdout
    for workload in bench.WORKLOADS:
        record = json.loads((out / f"{workload}.json").read_text())
        assert record["correct"] is True


def test_every_benchmark_metric_is_printed_with_its_unit(smoke):
    proc, _ = smoke
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    named = spec["end_to_end"] + spec["per_layer"]
    for workload, metrics in result["metrics"].items():
        for entry in named:
            printed = metrics[entry["name"]]
            assert printed["unit"] == entry["unit"], (workload, entry)
            assert isinstance(printed["value"], (int, float))
    for entry in spec["end_to_end"]:
        assert any(line.split()[:1] == [entry["name"]]
                   and entry["unit"] in line.split()
                   for line in proc.stdout.splitlines()), entry["name"]


def test_trace_covers_the_wall_time_and_reaches_from_import_aliases(smoke):
    proc, out = smoke
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, metrics in result["metrics"].items():
        assert metrics["trace.coverage"]["value"] >= 0.95, workload
        assert metrics["trace.overhead_ratio"]["value"] > 0, workload
    trace = json.loads((out / "trace_cache_catalog.json").read_text())
    assert "repro.runtime.placement.demand_at" in trace["aliases"]
    via_alias = [row for row in trace["rows"]
                 if row["binding"] == "repro.runtime.placement.demand_at"]
    assert sum(row["calls"] for row in via_alias) > 0
    assert {row["parent"] for row in via_alias} == {"runtime.placement"}


def test_peak_rss_is_the_childs_own(tmp_path):
    # Touch every page, so this process really holds >= 200 MB.
    ballast = b"\x01" * (200 << 20)
    report = tmp_path / "report.json"
    config = bench.CONFIGS / "service_api" / "adaptive-cache.json"
    code, stderr = bench.spawn(["api", str(config), "--cycles", "0",
                                "--report", str(report)])
    assert code == 0, stderr
    parent_mb = child.peak_rss_mb()
    child_mb = json.loads(report.read_text())["peak_rss_mb"]
    assert parent_mb >= 200
    assert 5 < child_mb < 150, child_mb
    assert len(ballast) == 200 << 20


def test_compare_verdicts_follow_the_readme_rules():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [x * 0.8 for x in parent]
    assert bench.verdict(parent, faster, "lower", 0.25)[0] == "improved"
    assert bench.verdict(parent, [x * 1.3 for x in parent], "lower",
                         0.25)[0] == "worse"
    assert bench.verdict(parent, [x * 1.01 for x in parent], "lower",
                         0.25)[0] == "no-change"
    wide = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    assert bench.verdict(wide, wide[::-1], "lower", 0.25)[0] == "unresolved"
    # Without a bound, "worse" mirrors "improved".
    assert bench.verdict(parent, faster, "higher", None)[0] == "worse"
