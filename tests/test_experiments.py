"""Experiment runners: every table and figure regenerates with the
paper's qualitative shape."""

import pytest

from repro.experiments import figure2, figure6, figure7, figure8, figure9
from repro.experiments import figure10, tables
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.errors import ConfigurationError
from repro.units import KB, MB


class TestFigure2:
    def test_mems_dominates_at_small_ios(self):
        result = figure2.run()
        mems = next(s for s in result.series if "MEMS" in s.label)
        disk = next(s for s in result.series if "Disk" in s.label)
        # At every swept IO size the MEMS curve is above the disk curve
        # until the disk approaches its (lower) media-rate asymptote.
        small = range(40)  # the small-IO regime
        assert all(mems.y[i] > disk.y[i] for i in small)
        # An order of magnitude smaller IOs reach 50% utilisation.
        assert "smaller on MEMS" in result.notes[0]

    def test_curves_approach_media_rates(self):
        result = figure2.run()
        mems = next(s for s in result.series if "MEMS" in s.label)
        disk = next(s for s in result.series if "Disk" in s.label)
        assert mems.y[-1] == pytest.approx(320, rel=0.05)
        assert disk.y[-1] == pytest.approx(300, rel=0.15)
        # Both approached from below.
        assert 300 < mems.y[-1] <= 320
        assert 250 < disk.y[-1] <= 300

    def test_both_monotone(self):
        result = figure2.run(n_points=50)
        for series in result.series:
            assert series.y == sorted(series.y)


class TestFigure6:
    def test_with_mems_reduces_dram_order_of_magnitude(self):
        factors = figure6.reduction_factors(max_streams=1e4)
        # Section 5.1.1: "reduced by an order of magnitude".
        assert all(f > 8 for f in factors.values())

    def test_panel_a_paper_extremes(self):
        result = figure6.run(with_mems=False)
        mp3 = next(s for s in result.series if s.label == "mp3")
        hdtv = next(s for s in result.series if s.label == "HDTV")
        # ~1 TB for 10 KB/s streams, ~1 GB for 10 MB/s at full load.
        assert 300 < max(mp3.y) < 3_000
        assert 0.3 < max(hdtv.y) < 3.0

    def test_lower_bitrate_needs_more_dram_at_fixed_throughput(self):
        result = figure6.run(with_mems=False, max_streams=1e3)
        mp3 = next(s for s in result.series if s.label == "mp3")
        dvd = next(s for s in result.series if s.label == "DVD")
        # Compare at equal *throughput* N*B: mp3 at N=1000 vs DVD at
        # N=10 carry 10 MB/s each.
        mp3_at_1000 = mp3.y[mp3.x.index(1000.0)]
        dvd_at_10 = dvd.y[dvd.x.index(10.0)]
        assert mp3_at_1000 > dvd_at_10

    def test_series_end_at_saturation(self):
        result = figure6.run(with_mems=False)
        hdtv = next(s for s in result.series if s.label == "HDTV")
        assert max(hdtv.x) < 30  # 300 MB/s / 10 MB/s

    def test_order_of_magnitude_over_full_sweep(self):
        # The paper's whole N range (to 1e5), not just the first decades.
        for label, factor in figure6.reduction_factors().items():
            assert factor > 8, f"{label}: only {factor:.1f}x"

    @pytest.mark.parametrize("with_mems", [False, True])
    def test_dram_monotone_in_streams(self, with_mems):
        for series in figure6.run(with_mems=with_mems).series:
            assert series.y == sorted(series.y)


class TestFigure7:
    def test_panel_a_monotone_in_ratio(self):
        result = figure7.run_panel_a(ratios=[1.0, 3.0, 5.0, 10.0])
        for series in result.series:
            assert series.y == sorted(series.y)

    def test_panel_a_design_principle(self):
        # Low/medium bit-rates benefit most (design principle (i)).
        result = figure7.run_panel_a(ratios=[5.0])
        by_label = {s.label: s.y[0] for s in result.series}
        assert by_label["mp3"] > 50
        assert by_label["HDTV"] < by_label["DVD"]

    def test_panel_b_grid_regions(self):
        result = figure7.run_panel_b(n_rate_points=6, n_ratio_points=4)
        assert len(result.series) == 6
        # The low-rate / high-ratio corner achieves > 50% reduction.
        low_rate = result.series[0]
        assert low_rate.y[-1] > 50

    def test_panel_a_paper_shape(self):
        result = figure7.run_panel_a()
        by_label = {s.label: s for s in result.series}
        for series in result.series:
            assert all(a <= b + 1e-9 for a, b in zip(series.y, series.y[1:]))
        # Low/medium bit-rates gain 55%+ at the case-study ratio of 5,
        # HDTV-class streams far less.
        at5 = by_label["mp3"].x.index(5.0)
        for label in ("mp3", "DivX", "DVD"):
            assert by_label[label].y[at5] > 55
        assert by_label["HDTV"].y[at5] < 40
        # The $20 bank caps the reduction strictly below 100%.
        assert max(max(s.y) for s in result.series) < 100.0

    def test_panel_b_paper_regions(self):
        rows = figure7.run_panel_b(n_rate_points=10,
                                   n_ratio_points=8).series
        # One row per bit-rate, ascending: the >75% band exists in the
        # low-rate, high-ratio corner and never at the highest rate.
        assert rows[0].y[-1] > 70
        assert max(rows[-1].y) < 75
        # At the highest ratio the >70% band covers the low and medium
        # bit-rates and collapses at HDTV-class rates.
        top_ratio = [row.y[-1] for row in rows]
        assert all(v > 70 for v in top_ratio[:-2])
        assert top_ratio[-1] < 25


class TestFigure8:
    def test_savings_scale_with_inverse_bitrate(self):
        result = figure8.run(max_streams=1e5)
        peaks = {s.label: max(s.y) for s in result.series if s.y}
        # Section 5.1.2: tens of $ (HDTV) to tens of thousands (mp3).
        assert peaks["mp3"] > 5_000
        assert peaks["HDTV"] < 100
        assert peaks["mp3"] > peaks["DivX"] > peaks["DVD"] > peaks["HDTV"]
        assert peaks["mp3"] > 10_000
        assert peaks["DivX"] > 1_000
        assert peaks["DVD"] > 100
        # A factor-of-ten ladder between adjacent bit-rates (the DRAM
        # reduction scales as 1/B at fixed utilisation).
        assert 5 < peaks["mp3"] / peaks["DivX"] < 20
        assert 5 < peaks["DivX"] / peaks["DVD"] < 20
        for series in result.series:
            assert all(a <= b * (1 + 1e-9)
                       for a, b in zip(series.y, series.y[1:]))


class TestFigure9:
    def test_replication_wins_at_heavy_skew(self):
        n = {c: figure9.throughput(10 * KB, 200.0, 4, c,
                                   _dist("1:99")) for c in
             ("none", "replicated", "striped")}
        assert n["replicated"] > n["striped"] > n["none"]

    def test_cache_loses_at_uniform_popularity(self):
        none = figure9.throughput(10 * KB, 100.0, 2, "none", _dist("50:50"))
        cached = figure9.throughput(10 * KB, 100.0, 2, "replicated",
                                    _dist("50:50"))
        assert cached < none

    def test_cache_gain_nearly_bitrate_independent(self):
        # Section 5.2.3: improvement is almost independent of bit-rate.
        gains = []
        for rate in (10 * KB, 1 * MB):
            none = figure9.throughput(rate, 200.0, 4, "none", _dist("1:99"))
            repl = figure9.throughput(rate, 200.0, 4, "replicated",
                                      _dist("1:99"))
            gains.append(repl / none)
        assert gains[0] > 2 and gains[1] > 2
        assert gains[0] / gains[1] == pytest.approx(1.0, abs=0.35)

    def test_table_structure(self):
        result = figure9.run(bit_rate=10 * KB,
                             distributions=("1:99", "50:50"))
        assert result.table is not None
        assert len(result.table.rows) == 2 * 3  # dists x configs

    def test_panel_a_policy_ordering(self):
        result = figure9.run_panel_a()
        # Replication wins under heavy skew at every budget.
        repl = _table_row(result, "1:99", "replicated")
        stri = _table_row(result, "1:99", "striped")
        none = _table_row(result, "1:99", "w/o")
        assert all(r >= s for r, s in zip(repl, stri))
        assert all(r > n for r, n in zip(repl, none))
        # Striping overtakes replication at milder skew ($200, k=4).
        assert (_table_row(result, "5:95", "striped")[-1]
                > _table_row(result, "5:95", "replicated")[-1])
        # At uniform popularity the cache loses to plain DRAM.
        uniform_cache = _table_row(result, "50:50", "replicated")
        uniform_none = _table_row(result, "50:50", "w/o")
        assert all(c < n for c, n in zip(uniform_cache, uniform_none))

    def test_panel_b_high_bitrate(self):
        result = figure9.run_panel_b()
        repl = _table_row(result, "1:99", "replicated")
        none = _table_row(result, "1:99", "w/o")
        # The cache still multiplies throughput at 1 MB/s ...
        assert repl[-1] > 3 * none[-1]
        # ... while extra budget alone barely helps at high bit-rates.
        assert none[-1] < none[0] * 1.15


class TestFigure10:
    def test_optimal_bank_size_exists_for_skewed(self):
        result = figure10.run(max_devices=8)
        skewed = next(s for s in result.series if s.label == "1:99")
        best = max(skewed.y)
        assert best > 100  # the paper reports up to ~2.4x (= +140%)
        best_k = skewed.x[skewed.y.index(best)]
        assert 1 < best_k < 8  # interior optimum
        by_label = {s.label: s for s in result.series}
        # Every skewed distribution peaks strictly inside the k range
        # and declines past its optimum.
        for spec in ("1:99", "5:95", "10:90"):
            series = by_label[spec]
            best = max(series.y)
            best_k = series.x[series.y.index(best)]
            assert best > 0
            assert series.x[0] < best_k < series.x[-1], \
                f"{spec}: optimum at boundary k={best_k}"
            after = [y for x, y in zip(series.x, series.y) if x > best_k]
            assert after and after[-1] < best
        assert max(max(s.y) for s in result.series) < 300
        # Milder skew, smaller peak.
        assert max(by_label["1:99"].y) > max(by_label["10:90"].y) > \
            max(by_label["20:80"].y)

    def test_uniform_always_degrades(self):
        result = figure10.run(max_devices=8)
        uniform = next(s for s in result.series if s.label == "50:50")
        assert all(v < 0 for v in uniform.y)

    def test_stops_when_budget_exhausted(self):
        result = figure10.run(total_cost=30.0, max_devices=8)
        # $30 buys at most 2 devices ($10 each) + some DRAM.
        for series in result.series:
            assert max(series.x) <= 2


class TestTables:
    def test_table1_no_mismatches(self):
        result = tables.run_table1()
        assert result.table is not None
        assert not any("MISMATCH" in note for note in result.notes)
        # 2002 and 2007 rows for each of the three media.
        assert len(result.table.rows) == 6

    def test_table3_values_rendered(self):
        result = tables.run_table3()
        rendered = result.table.render()
        assert "20,000" in rendered      # RPM
        assert "0.45" in rendered        # MEMS full stroke
        assert "0.14" in rendered        # X settle
        assert "300" in rendered         # disk bandwidth, MB/s
        assert "320" in rendered         # G3 bandwidth, MB/s
        # The paper reports a latency ratio near 5 for this device pair.
        note = next(n for n in result.notes if "latency ratio" in n)
        assert 4.0 < float(note.split("=")[1].split()[0]) < 6.0


class TestRegistry:
    def test_all_eleven_paper_artifacts_registered(self):
        from repro.experiments.registry import PAPER_EXPERIMENTS

        assert len(PAPER_EXPERIMENTS) == 11
        for expected in ("table1", "figure2", "table3", "figure6a",
                         "figure6b", "figure7a", "figure7b", "figure8",
                         "figure9a", "figure9b", "figure10"):
            assert expected in PAPER_EXPERIMENTS
            assert expected in EXPERIMENTS

    def test_extensions_registered(self):
        from repro.experiments.registry import EXTENSION_EXPERIMENTS

        assert len(EXTENSION_EXPERIMENTS) >= 7
        assert all(eid.startswith("ext-") for eid in EXTENSION_EXPERIMENTS)

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("figure99")


def _dist(spec: str):
    from repro.core.popularity import BimodalPopularity

    return BimodalPopularity.parse(spec)


def _table_row(result, distribution: str, configuration: str) -> list[int]:
    for row in result.table.rows:
        if row[0] == distribution and configuration in str(row[1]):
            return [int(v) for v in row[2:]]
    raise AssertionError(f"row {distribution}/{configuration} missing")
