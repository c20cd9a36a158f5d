"""Tests for SimResult's derived accessors."""

import pytest

from repro.core.techniques import build_sm
from repro.isa.optypes import ExecUnitKind
from repro.sim.memory import MemoryStats
from repro.sim.sm import SimResult
from repro.sim.stats import SMStats
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

from tests.conftest import SMALL_SM


@pytest.fixture(scope="module")
def warped_result():
    kernel = build_kernel("hotspot", scale=0.25)
    sm = build_sm(kernel, "warped_gates",
                  sm_config=SMALL_SM,
                  dram_latency=get_profile("hotspot").dram_latency)
    return sm.run()


class TestAccessors:
    def test_pipeline_names_per_kind(self, warped_result):
        assert warped_result.pipeline_names(ExecUnitKind.INT) == \
            ("INT0", "INT1")
        assert warped_result.pipeline_names(ExecUnitKind.LDST) == ("LDST",)

    def test_unit_activity_consistency(self, warped_result):
        activity = warped_result.unit_activity(ExecUnitKind.INT)
        assert activity.cycles == 2 * warped_result.cycles
        assert activity.gated_cycles == sum(
            warped_result.domain_stats[n].gated_cycles
            for n in ("INT0", "INT1"))
        assert activity.issues == \
            warped_result.pipeline_issues["INT0"] + \
            warped_result.pipeline_issues["INT1"]
        assert 0 < activity.lane_work <= activity.issues

    def test_gating_totals_merge_all_counters(self, warped_result):
        totals = warped_result.gating_totals(ExecUnitKind.FP)
        per_domain = [warped_result.domain_stats[n]
                      for n in ("FP0", "FP1")]
        for field in ("gating_events", "wakeups", "gated_cycles",
                      "compensated_cycles", "uncompensated_cycles",
                      "critical_wakeups", "denied_wakeups",
                      "waking_cycles", "on_cycles",
                      "wakeups_uncompensated"):
            assert getattr(totals, field) == \
                sum(getattr(s, field) for s in per_domain)

    def test_gating_totals_for_ungated_kind_is_zero(self, warped_result):
        totals = warped_result.gating_totals(ExecUnitKind.LDST)
        assert totals.gated_cycles == 0
        assert totals.gating_events == 0

    def test_idle_histogram_merges_clusters(self, warped_result):
        merged = warped_result.idle_histogram(ExecUnitKind.INT)
        separate = [warped_result.stats.idle_trackers[n].histogram
                    for n in ("INT0", "INT1")]
        assert sum(merged.values()) == sum(
            sum(h.values()) for h in separate)

    def test_idle_fraction_in_unit_range(self, warped_result):
        for kind in (ExecUnitKind.INT, ExecUnitKind.FP,
                     ExecUnitKind.SFU, ExecUnitKind.LDST):
            assert 0.0 <= warped_result.idle_fraction(kind) <= 1.0

    def test_compensated_metric_definition(self, warped_result):
        totals = warped_result.gating_totals(ExecUnitKind.INT)
        expected = (totals.compensated_cycles
                    - totals.uncompensated_cycles) / (
                        2 * warped_result.cycles)
        assert warped_result.compensated_metric(ExecUnitKind.INT) == \
            pytest.approx(expected)

    def test_unknown_kind_empty(self):
        result = SimResult(
            kernel_name="x", technique="baseline", cycles=1,
            stats=SMStats(), memory=MemoryStats(), domain_stats={},
            idle_detect_final={}, pipeline_issues={},
            pipeline_lane_work={}, pipelines_by_kind={})
        assert result.pipeline_names(ExecUnitKind.INT) == ()
        assert result.idle_histogram(ExecUnitKind.INT) == {}
        activity = result.unit_activity(ExecUnitKind.INT)
        assert activity.cycles == 0 and activity.issues == 0
