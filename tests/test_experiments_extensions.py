"""Extension-experiment runners."""

import pytest

from repro.experiments.extensions import (
    run_ext_blocking,
    run_ext_hybrid,
    run_ext_placement,
    run_ext_regions,
    run_ext_robustness,
    run_ext_sptf,
    run_ext_startup,
    run_ext_write_mix,
)
from repro.units import KB


class TestStartupExperiment:
    def test_four_configurations_per_media(self):
        result = run_ext_startup()
        assert result.table is not None
        assert len(result.table.rows) == 2 * 4

    def test_cache_starts_fastest(self):
        result = run_ext_startup(bit_rates={"DVD": 1_000 * KB})
        worst = {row[1]: float(row[3]) for row in result.table.rows}
        assert worst["cache"] < worst["direct"]
        assert worst["buffer (pipeline fill)"] > worst["direct"]

    def test_startup_ordering_per_media(self):
        result = run_ext_startup()
        worst = {(row[0], row[1]): float(row[3]) for row in result.table.rows}
        for media in ("DivX", "DVD"):
            assert worst[(media, "cache")] < worst[(media, "direct")]
            assert worst[(media, "buffer (pipeline fill)")] > \
                100 * worst[(media, "direct")]
            # The bypass policy brings the buffer's startup back under
            # the pipeline fill.
            assert worst[(media, "buffer (bypass)")] < \
                worst[(media, "buffer (pipeline fill)")]


class TestPlacementExperiment:
    def test_gain_curve_shape(self):
        result = run_ext_placement()
        series = result.series[0]
        # Uniform endpoint ~1.0, interior maximum above it.
        assert series.y[0] == pytest.approx(1.0, abs=1e-6)
        assert max(series.y) > 1.05


class TestSptfExperiment:
    def test_speedup_everywhere(self):
        result = run_ext_sptf(batch_sizes=(8, 32), n_batches=4)
        assert all(v > 1.0 for v in result.series[0].y)


class TestBlockingExperiment:
    def test_mems_configs_block_less(self):
        result = run_ext_blocking(budgets_gb=(1.0, 2.0))
        rows = {(row[0], row[1]): float(row[3]) for row in result.table.rows}
        for budget in ("1 GB", "2 GB"):
            assert rows[(budget, "MEMS buffer")] < rows[(budget, "disk only")]
            assert rows[(budget, "MEMS cache")] < rows[(budget, "disk only")]


class TestHybridExperiment:
    def test_one_series_per_distribution(self):
        result = run_ext_hybrid()
        assert [s.label for s in result.series] == ["1:99", "5:95", "20:80"]
        # Every split k_cache = 0..k is evaluated.
        for series in result.series:
            assert series.x == [0.0, 1.0, 2.0, 3.0, 4.0]
        # Under 1:99 popularity the best split beats the worst by 1.5x+.
        assert max(result.series[0].y) > 1.5 * min(result.series[0].y)


class TestRobustnessExperiment:
    def test_headroom_reduces_starvation(self):
        result = run_ext_robustness(n_streams=40, n_cycles=20)
        series = result.series[0]
        # Starvation is (weakly) decreasing in the provisioned headroom
        # and effectively gone with generous padding.
        assert series.y[0] >= series.y[-1]
        assert series.y[-1] < series.y[0] * 0.2 or series.y[0] == 0.0

    def test_bare_minimum_starves_and_cushion_does_not(self):
        series = run_ext_robustness(n_streams=40, n_cycles=25).series[0]
        assert series.y[0] > 0
        assert series.y[-1] == pytest.approx(0.0, abs=1e-6)


class TestRegionsExperiment:
    def test_map_is_rendered(self):
        result = run_ext_regions(n_rate_points=4, n_budget_points=3)
        assert any("b=buffer" in note for note in result.notes)
        assert len(result.series) == 4

    def test_both_mems_regions_on_the_map(self):
        result = run_ext_regions(n_rate_points=5, n_budget_points=4)
        note = next(note for note in result.notes if "b=buffer" in note)
        grid = note.split("rows:")[0]
        assert "b" in grid and "c" in grid


class TestGenerationsExperiment:
    def test_later_generations_save_more(self):
        from repro.experiments.extensions import run_ext_generations

        result = run_ext_generations()
        reductions = [float(row[-1].rstrip("%"))
                      for row in result.table.rows]
        # G1 -> G2 -> G3: monotone improvement, all cost-effective at
        # high utilisation.
        assert reductions == sorted(reductions)
        assert all(r > 0 for r in reductions)

    def test_bank_sized_for_double_bandwidth(self):
        from repro.experiments.extensions import run_ext_generations

        result = run_ext_generations()
        for row in result.table.rows:
            k = int(row[1])
            rate_mb = float(row[2])
            # k devices must carry 2 x 240 MB/s of stream load.
            assert k * rate_mb > 2 * 240


class TestWriteMixExperiment:
    def test_writers_decrease_with_readers(self):
        result = run_ext_write_mix()
        series = result.series[0]
        assert all(a >= b for a, b in zip(series.y, series.y[1:]))
        assert series.y[0] > 0
