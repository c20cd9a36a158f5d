"""Tests for parameter sweeps (Figures 6 and 11)."""

import pytest

from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.harness.sweeps import (
    BET_VALUES,
    IDLE_DETECT_VALUES,
    WAKEUP_VALUES,
    bet_sweep,
    idle_detect_sweep,
    sweep_rows,
    wakeup_sweep,
)

from tests.conftest import TEST_SCALE


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentSettings(
        scale=TEST_SCALE, benchmarks=("hotspot", "sgemm")))


class TestPaperSweepPoints:
    def test_values_match_paper(self):
        assert BET_VALUES == (9, 14, 19)
        assert WAKEUP_VALUES == (3, 6, 9)
        assert IDLE_DETECT_VALUES == tuple(range(0, 11))


class TestBetSweep:
    def test_grid_shape(self, runner):
        points = bet_sweep(runner, values=(9, 19))
        assert len(points) == 4  # 2 values x 2 techniques
        assert {p.value for p in points} == {9, 19}
        assert {p.technique for p in points} == \
            {"conv_pg", "warped_gates"}

    def test_performance_positive(self, runner):
        for point in bet_sweep(runner, values=(14,)):
            assert point.performance > 0.5

    def test_rows_format(self, runner):
        points = bet_sweep(runner, values=(14,))
        rows = sweep_rows(points)
        assert len(rows[0]) == 5 + 1  # metrics + benchmark coverage
        assert all(not p.failed and p.benchmarks == 2 for p in points)


class TestWakeupSweep:
    def test_grid_shape(self, runner):
        points = wakeup_sweep(runner, values=(3, 9))
        assert {p.value for p in points} == {3, 9}

    def test_conv_perf_degrades_with_big_wakeup(self, runner):
        # The paper's headline sensitivity: conventional gating pays the
        # wakeup latency constantly, so a 9-cycle wakeup hurts it more
        # than a 3-cycle one.
        points = wakeup_sweep(runner, values=(3, 9),
                              techniques=("conv_pg",))
        perf = {p.value: p.performance for p in points}
        assert perf[9] <= perf[3] + 0.02


class TestIdleDetectSweep:
    def test_correlation_results_cover_benchmarks(self, runner):
        results = idle_detect_sweep(runner, values=(2, 5, 8))
        assert {r.benchmark for r in results} == {"hotspot", "sgemm"}

    def test_points_align_with_values(self, runner):
        results = idle_detect_sweep(runner, values=(2, 5, 8))
        assert all(len(r.points) == 3 for r in results)

    def test_pearson_in_valid_range(self, runner):
        for result in idle_detect_sweep(runner, values=(2, 5, 8)):
            assert -1.0 <= result.pearson <= 1.0

    def test_sorted_by_correlation(self, runner):
        results = idle_detect_sweep(runner, values=(2, 5, 8))
        rs = [r.pearson for r in results]
        assert rs == sorted(rs, reverse=True)
