"""Tests for the per-figure builders."""

import math

import pytest

from repro.engine import jobs
from repro.engine.pool import ParallelEngine
from repro.harness import figures
from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.isa.optypes import ExecUnitKind
from repro.isa.tracegen import TraceGenerator
from repro.workloads import registry
from repro.workloads.characterization import instruction_mix_table

from tests.conftest import TEST_SCALE


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    settings = ExperimentSettings(scale=TEST_SCALE,
                                  benchmarks=("hotspot", "nw", "sgemm"))
    return ExperimentRunner(settings)


class TestFig1b:
    def test_rows_cover_four_bars(self, runner):
        rows = figures.fig1b_rows(runner)
        labels = {(r[0], r[1]) for r in rows}
        assert labels == {("baseline", "int"), ("baseline", "fp"),
                          ("conv_pg", "int"), ("conv_pg", "fp")}

    def test_baseline_has_no_overhead(self, runner):
        for row in figures.fig1b_rows(runner):
            if row[0] == "baseline":
                assert row[3] == pytest.approx(0.0)

    def test_components_are_fractions(self, runner):
        for row in figures.fig1b_rows(runner):
            dyn, ovh, stat = row[2], row[3], row[4]
            assert 0.0 <= dyn <= 1.0
            assert 0.0 <= ovh <= 1.0
            assert 0.0 <= stat <= 1.0

    def test_fp_more_static_dominated_than_int(self, runner):
        rows = {(r[0], r[1]): r for r in figures.fig1b_rows(runner)}
        # Figure 1b: static share of FP baseline energy far exceeds INT's.
        assert rows[("baseline", "fp")][4] > rows[("baseline", "int")][4]


class TestFig3:
    def test_three_panels(self, runner):
        rows = figures.fig3_rows(runner)
        assert [r[0] for r in rows] == ["conv_pg", "gates", "blackout"]

    def test_regions_sum_to_one(self, runner):
        for row in figures.fig3_rows(runner):
            assert row[1] + row[2] + row[3] == pytest.approx(1.0)

    def test_blackout_loss_region_empty(self, runner):
        rows = {r[0]: r for r in figures.fig3_rows(runner)}
        assert rows["blackout"][2] == pytest.approx(0.0)

    def test_series_shape(self, runner):
        series = figures.fig3_series(runner, "conv_pg",
                                     max_length=25)
        assert len(series) == 25
        assert sum(f for _, f in series) == pytest.approx(1.0, abs=1e-9)


def _mix_table_rows(settings: ExperimentSettings) -> list:
    """Figure 5a's rows, built from ``instruction_mix_table``."""
    return [[entry["benchmark"], entry["int"], entry["fp"], entry["sfu"],
             entry["ldst"]]
            for entry in instruction_mix_table(settings.benchmarks,
                                               seed=settings.seed,
                                               scale=settings.scale)]


class TestFig5:
    def test_mix_rows(self, runner):
        rows = figures.fig5a_rows(runner)
        assert len(rows) == 3
        for row in rows:
            assert row[1] + row[2] + row[3] + row[4] == pytest.approx(1.0)

    def test_mix_rows_equal_instruction_mix_table(self, runner):
        assert figures.fig5a_rows(runner) == \
            _mix_table_rows(runner.settings)

    def test_mix_rows_read_the_engine_cache(self, tmp_path, monkeypatch):
        settings = ExperimentSettings(scale=TEST_SCALE,
                                      benchmarks=("hotspot", "nw"))
        engine = ParallelEngine(cache_dir=str(tmp_path), ledger=False)
        cached = ExperimentRunner(settings, engine=engine)
        cached.prefetch([(name, "baseline")
                         for name in settings.benchmarks])
        expected = _mix_table_rows(settings)
        # Nothing in this process may hold a trace to serve the rows.
        monkeypatch.setattr(jobs, "_last_trace", None)
        monkeypatch.setattr(figures, "_MIX_BY_TRACE", {})
        registry._generate_cached.cache_clear()

        def no_generation(generator):
            raise AssertionError(f"generated {generator.spec.name}")

        monkeypatch.setattr(TraceGenerator, "generate", no_generation)
        rows = figures.fig5a_rows(cached)
        assert rows == expected
        # A rebuild in the same process reads no trace at all.
        monkeypatch.setattr(jobs, "load_or_build_kernel", None)
        monkeypatch.setattr(figures, "load_or_build_kernel", None)
        assert figures.fig5a_rows(cached) == rows

    def test_active_warp_rows_sorted(self, runner):
        rows = figures.fig5b_rows(runner)
        avgs = [row[1] for row in rows]
        assert avgs == sorted(avgs, reverse=True)


class TestFig8:
    def test_fig8a_normalised_to_baseline(self, runner):
        rows = figures.fig8a_rows(runner, ExecUnitKind.INT)
        assert rows[-1][0] == "geomean"
        for row in rows[:-1]:
            for value in row[1:]:
                assert value > 0.0

    def test_fig8b_signed_metric_in_range(self, runner):
        for row in figures.fig8b_rows(runner, ExecUnitKind.INT)[:-1]:
            for value in row[1:]:
                assert -1.0 <= value <= 1.0

    def test_fig8c_conv_reference_is_one(self, runner):
        # Normalising conv to conv would be 1; the figure omits it and
        # reports the three techniques relative to conv.
        rows = figures.fig8c_rows(runner, ExecUnitKind.INT)
        assert len(rows[0]) == 4  # benchmark + three techniques


class TestGeomeanRow:
    """The shared exclusion policy behind every geomean summary row."""

    def test_no_exclusions_keeps_plain_label(self):
        row = figures._geomean_row([["a", 2.0, 4.0], ["b", 8.0, 4.0]])
        assert row[0] == "geomean"
        assert row[1] == pytest.approx(4.0)
        assert row[2] == pytest.approx(4.0)

    def test_nan_cells_excluded_not_clamped(self):
        # Pre-fix behaviour clamped NaN/zero to 1e-9, dragging a
        # two-benchmark geomean down ~4.5 orders of magnitude.
        row = figures._geomean_row(
            [["a", 2.0], ["b", math.nan], ["c", 8.0]])
        assert row[0] == "geomean (1 excluded)"
        assert row[1] == pytest.approx(4.0)

    def test_label_reports_worst_column(self):
        row = figures._geomean_row(
            [["a", math.nan, 2.0], ["b", math.nan, 8.0],
             ["c", 3.0, math.nan]])
        assert row[0] == "geomean (2 excluded)"
        assert row[1] == pytest.approx(3.0)
        assert row[2] == pytest.approx(4.0)

    def test_all_excluded_column_is_nan(self):
        row = figures._geomean_row([["a", math.nan], ["b", 0.0]])
        assert row[0] == "geomean (2 excluded)"
        assert math.isnan(row[1])


class TestFig9and10:
    def test_fig9_has_average_row(self, runner):
        rows = figures.fig9_rows(runner, ExecUnitKind.INT)
        assert rows[-1][0] == "average"
        assert len(rows) == 4  # three benchmarks + average

    def test_fig9_fp_excludes_integer_only(self, runner):
        rows = figures.fig9_rows(runner, ExecUnitKind.FP)
        names = [r[0] for r in rows]
        assert "nw" not in names

    def test_fig10_geomean_positive(self, runner):
        rows = figures.fig10_rows(runner)
        assert rows[-1][0] == "geomean"
        assert all(v > 0.0 for v in rows[-1][1:])

    def test_chip_savings_keys(self, runner):
        est = figures.chip_savings_estimate(runner)
        assert est["chip_savings_at_50pct_leakage"] > \
            est["chip_savings_at_33pct_leakage"]


class TestSec75:
    def test_static_rows(self):
        rows = figures.sec75_rows()
        assert rows[0][0] == 176  # total storage bits in the inventory
        assert rows[0][2] == pytest.approx(0.0025, abs=0.001)
