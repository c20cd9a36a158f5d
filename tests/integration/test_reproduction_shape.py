"""Shape assertions: the qualitative claims of the paper must hold.

These tests run a moderate-scale subset of the suite and assert the
*direction* of every headline result — who wins, and roughly how — not
absolute numbers (our substrate is a synthetic trace model, not the
authors' GPGPU-Sim testbed; see DESIGN.md section 2).
"""

import pytest

from repro.analysis.idle_periods import region_fractions
from repro.harness.experiment import (
    ExperimentRunner,
    ExperimentSettings,
    geomean,
    normalized_performance,
)
from repro.isa.optypes import ExecUnitKind

#: Mid-size scale: big enough for stable statistics, small enough for CI.
SHAPE_SCALE = 0.5
SHAPE_BENCHMARKS = ("hotspot", "sgemm", "mri", "bfs", "srad", "cutcp")


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentSettings(
        scale=SHAPE_SCALE, benchmarks=SHAPE_BENCHMARKS))


@pytest.fixture(scope="module")
def full_scale_runner() -> ExperimentRunner:
    """Full-scale runs for the distribution tests that need the real
    idle statistics (small workloads change the idle-length regime)."""
    return ExperimentRunner(ExperimentSettings(
        scale=1.0, benchmarks=("hotspot", "sgemm", "cutcp")))


def mean_savings(runner, technique, kind):
    values = [runner.static_savings(name, technique, kind)
              for name in runner.settings.benchmarks]
    return sum(values) / len(values)


def perf_geomean(runner, technique):
    values = []
    for name in runner.settings.benchmarks:
        values.append(normalized_performance(
            runner.baseline(name), runner.run(name, technique)))
    return geomean(values)


class TestSavingsOrdering:
    """Figure 9's qualitative ordering across techniques."""

    def test_blackout_beats_conventional(self, runner):
        for kind in (ExecUnitKind.INT, ExecUnitKind.FP):
            conv = mean_savings(runner, "conv_pg", kind)
            naive = mean_savings(runner, "naive_blackout", kind)
            assert naive > conv

    def test_warped_gates_beats_conventional_clearly(self, runner):
        conv = mean_savings(runner, "conv_pg", ExecUnitKind.INT)
        warped = mean_savings(runner, "warped_gates",
                              ExecUnitKind.INT)
        assert warped > conv * 1.1
        # FP margin is thinner on this compute-heavy subset; require a
        # strict win (the full suite shows ~1.2x, see EXPERIMENTS.md).
        conv_fp = mean_savings(runner, "conv_pg", ExecUnitKind.FP)
        warped_fp = mean_savings(runner, "warped_gates",
                                 ExecUnitKind.FP)
        assert warped_fp > conv_fp

    def test_fp_savings_exceed_int_savings(self, runner):
        # FP units are less utilised, so more of their time is gateable
        # (the paper reports 46.5% FP vs 31.6% INT for Warped Gates).
        warped_int = mean_savings(runner, "warped_gates",
                                  ExecUnitKind.INT)
        warped_fp = mean_savings(runner, "warped_gates",
                                 ExecUnitKind.FP)
        assert warped_fp > warped_int

    def test_all_gating_techniques_net_positive_on_suite(self, runner):
        for technique in ("conv_pg", "gates", "naive_blackout",
                          "coord_blackout",
                          "warped_gates"):
            assert mean_savings(runner, technique, ExecUnitKind.INT) > 0


class TestPerformanceOrdering:
    """Figure 10's qualitative ordering."""

    def test_naive_blackout_is_worst(self, runner):
        naive = perf_geomean(runner, "naive_blackout")
        warped = perf_geomean(runner, "warped_gates")
        assert warped >= naive

    def test_all_techniques_within_reasonable_band(self, runner):
        for technique in ("conv_pg", "gates", "naive_blackout",
                          "coord_blackout",
                          "warped_gates"):
            perf = perf_geomean(runner, technique)
            assert perf > 0.9, f"{technique} lost >10% performance"

    def test_conv_pg_near_baseline(self, runner):
        # Scaled-down workloads exaggerate per-wakeup costs; the full
        # 18-benchmark suite measures ~0.99 (EXPERIMENTS.md).
        assert perf_geomean(runner, "conv_pg") > 0.94


class TestIdleDistributionShape:
    """Figure 3's distribution shifts (full-scale hotspot, as the paper)."""

    def test_baseline_dominated_by_short_periods(self, full_scale_runner):
        result = full_scale_runner.run("hotspot", "conv_pg")
        regions = region_fractions(result.idle_histogram(ExecUnitKind.INT))
        # Paper: 83.4% below idle-detect for hotspot; we measure ~0.83.
        assert regions.wasted > 0.7

    def test_gates_grows_the_gain_region(self, full_scale_runner):
        conv = region_fractions(
            full_scale_runner.run("hotspot", "conv_pg")
            .idle_histogram(ExecUnitKind.INT))
        gates = region_fractions(
            full_scale_runner.run("hotspot", "gates")
            .idle_histogram(ExecUnitKind.INT))
        assert gates.gain > conv.gain
        assert gates.wasted < conv.wasted

    def test_blackout_empties_loss_region(self, full_scale_runner):
        result = full_scale_runner.run("hotspot", "naive_blackout")
        regions = region_fractions(result.idle_histogram(ExecUnitKind.INT))
        assert regions.loss == pytest.approx(0.0)
        assert regions.gain > 0.2


class TestWakeupReduction:
    """Figure 8c: Warped Gates gates less often than conventional PG."""

    def test_warped_gates_fewer_events_than_conv(self, full_scale_runner):
        ratios = []
        for name in full_scale_runner.settings.benchmarks:
            conv = full_scale_runner.run(name, "conv_pg") \
                .gating_totals(ExecUnitKind.INT).gating_events
            warped = full_scale_runner.run(name, "warped_gates") \
                .gating_totals(ExecUnitKind.INT).gating_events
            if conv:
                ratios.append(warped / conv)
        # Paper reports a 46% reduction; we measure ~15-50% depending on
        # benchmark, and require a clear net reduction here.
        assert sum(ratios) / len(ratios) < 0.9


class TestAdaptiveBehaviour:
    """Section 5.1: the adaptive window stays within bounds and reacts."""

    def test_final_idle_detect_bounded(self, runner):
        for name in runner.settings.benchmarks:
            result = runner.run(name, "warped_gates")
            for value in result.idle_detect_final.values():
                assert 5 <= value <= 10

    def test_adaptive_reduces_critical_wakeups(self, runner):
        # Versus plain Coordinated Blackout, adapting the window must
        # not increase critical wakeups on the pressured benchmarks.
        worse = 0
        for name in runner.settings.benchmarks:
            coord = runner.run(name, "coord_blackout")
            warped = runner.run(name, "warped_gates")
            c = coord.gating_totals(ExecUnitKind.INT).critical_wakeups
            w = warped.gating_totals(ExecUnitKind.INT).critical_wakeups
            if w > c:
                worse += 1
        assert worse <= len(runner.settings.benchmarks) // 2


class TestSensitivityShape:
    """Figure 11: Warped Gates dominates at harsher PG parameters."""

    def test_warped_gates_beats_conv_at_bet_19(self, runner):
        from repro.power.params import GatingParams
        gating = GatingParams(bet=19)
        conv = [runner.static_savings(n, "conv_pg",
                                      ExecUnitKind.INT, gating=gating)
                for n in runner.settings.benchmarks]
        warped = [runner.static_savings(n, "warped_gates",
                                        ExecUnitKind.INT, gating=gating)
                  for n in runner.settings.benchmarks]
        assert sum(warped) > sum(conv)

    def test_gap_widens_with_bet(self, runner):
        from repro.power.params import GatingParams
        gaps = {}
        for bet in (9, 19):
            gating = GatingParams(bet=bet)
            conv = sum(runner.static_savings(
                n, "conv_pg", ExecUnitKind.INT, gating=gating)
                for n in runner.settings.benchmarks)
            warped = sum(runner.static_savings(
                n, "warped_gates", ExecUnitKind.INT,
                gating=gating) for n in runner.settings.benchmarks)
            gaps[bet] = warped - conv
        assert gaps[19] > gaps[9]
