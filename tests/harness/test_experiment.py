"""Tests for the experiment runner and derived metrics."""

import math
from dataclasses import replace

import pytest

from repro.core.spec import technique_spec
from repro.harness.experiment import (
    ExperimentRunner,
    ExperimentSettings,
    geomean,
    geomean_excluding,
    normalized_performance,
)
from repro.isa.optypes import ExecUnitKind
from repro.power.energy import domain_energy
from repro.power.params import EnergyParams, GatingParams, INT_DYN_PER_ISSUE

from tests.conftest import TEST_SCALE

SETTINGS = ExperimentSettings(scale=TEST_SCALE, benchmarks=("hotspot",))


class TestRunnerCaching:
    def test_memoises_identical_runs(self):
        runner = ExperimentRunner(SETTINGS)
        a = runner.run("hotspot", "baseline")
        b = runner.run("hotspot", "baseline")
        assert a is b

    def test_different_gating_params_not_conflated(self):
        runner = ExperimentRunner(SETTINGS)
        a = runner.run("hotspot", "conv_pg",
                       gating=GatingParams(idle_detect=5))
        b = runner.run("hotspot", "conv_pg",
                       gating=GatingParams(idle_detect=9))
        assert a is not b

    def test_suite_covers_grid(self):
        runner = ExperimentRunner(ExperimentSettings(
            scale=TEST_SCALE, benchmarks=("hotspot", "nw")))
        grid = runner.suite(techniques=("baseline", "conv_pg"))
        assert set(grid) == {("hotspot", "baseline"),
                             ("hotspot", "conv_pg"),
                             ("nw", "baseline"),
                             ("nw", "conv_pg")}


class TestMetrics:
    def test_baseline_savings_zero(self):
        runner = ExperimentRunner(SETTINGS)
        assert runner.static_savings("hotspot", "baseline",
                                     ExecUnitKind.INT) == 0.0

    def test_savings_bounded_above_by_one(self):
        runner = ExperimentRunner(SETTINGS)
        for kind in (ExecUnitKind.INT, ExecUnitKind.FP):
            s = runner.static_savings("hotspot", "warped_gates",
                                      kind)
            assert s <= 1.0

    def test_breakdown_normalises(self):
        runner = ExperimentRunner(SETTINGS)
        norm = runner.energy_breakdown(
            "hotspot", "baseline", ExecUnitKind.INT).normalized()
        assert norm.dynamic + norm.static == pytest.approx(1.0)
        assert norm.overhead == 0.0

    def test_fp_population_excludes_integer_only(self):
        runner = ExperimentRunner(ExperimentSettings(
            scale=TEST_SCALE, benchmarks=("hotspot", "lavaMD", "nw")))
        assert runner.fp_benchmarks() == ("hotspot",)

    def test_energy_params_per_kind(self):
        assert SETTINGS.energy_params(ExecUnitKind.INT).dyn_per_issue > \
            SETTINGS.energy_params(ExecUnitKind.FP).dyn_per_issue


class TestHandBuiltSpecGating:
    """A hand-built spec keeps its own gating: it is simulated and
    scored at its own BET, never at the campaign's."""

    SPEC = replace(technique_spec("conv_pg"), gating=GatingParams(bet=24))

    def _expected(self, runner):
        result = runner.run("hotspot", self.SPEC)
        params = EnergyParams.for_unit(dyn_per_issue=INT_DYN_PER_ISSUE,
                                       bet=24)
        return domain_energy(result.unit_activity(ExecUnitKind.INT), params)

    def test_static_savings_simulate_and_score_the_specs_bet(self):
        runner = ExperimentRunner(SETTINGS)
        savings = runner.static_savings("hotspot", self.SPEC,
                                        ExecUnitKind.INT)
        assert savings == self._expected(runner).static_savings
        assert {m.spec["gating"]["bet"] for m in runner.manifests} == {24}

    def test_energy_breakdown_scores_the_specs_bet(self):
        runner = ExperimentRunner(SETTINGS)
        breakdown = runner.energy_breakdown("hotspot", self.SPEC,
                                            ExecUnitKind.INT)
        expected = self._expected(runner)
        assert expected.overhead > 0
        assert breakdown == expected


class TestNormalizedPerformance:
    def test_identity(self):
        runner = ExperimentRunner(SETTINGS)
        base = runner.baseline("hotspot")
        assert normalized_performance(base, base) == 1.0

    def test_slower_run_below_one(self):
        runner = ExperimentRunner(SETTINGS)
        base = runner.baseline("hotspot")
        naive = runner.run("hotspot", "naive_blackout")
        # Blackout may cost cycles but never a large factor at this scale.
        assert 0.5 < normalized_performance(base, naive) <= 1.2


class TestGeomean:
    def test_known_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestGeomeanExcluding:
    """The documented companion policy: strict ``geomean`` raises on
    bad input, ``geomean_excluding`` drops it and reports the count."""

    def test_clean_input_matches_strict(self):
        value, excluded = geomean_excluding([1.0, 4.0])
        assert value == pytest.approx(geomean([1.0, 4.0]))
        assert excluded == 0

    def test_drops_nonfinite_and_nonpositive(self):
        value, excluded = geomean_excluding(
            [2.0, math.nan, 8.0, 0.0, -1.0, math.inf])
        assert value == pytest.approx(4.0)
        assert excluded == 4

    def test_nothing_survives_is_nan(self):
        value, excluded = geomean_excluding([math.nan, 0.0])
        assert math.isnan(value)
        assert excluded == 2

    def test_empty_is_nan_with_zero_excluded(self):
        value, excluded = geomean_excluding([])
        assert math.isnan(value)
        assert excluded == 0
