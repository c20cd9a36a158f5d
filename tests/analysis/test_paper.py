"""Sanity checks on the paper-reference constants module."""

import pytest

from repro.analysis import paper
from repro.core.techniques import PAPER_TECHNIQUES


class TestInternalConsistency:
    def test_savings_cover_all_paper_techniques(self):
        names = set(PAPER_TECHNIQUES)
        assert set(paper.FIG9_INT_SAVINGS) == names
        assert set(paper.FIG9_FP_SAVINGS) == names
        assert set(paper.FIG10_PERFORMANCE) == names

    def test_fp_savings_exceed_int_savings(self):
        for technique, int_saving in paper.FIG9_INT_SAVINGS.items():
            assert paper.FIG9_FP_SAVINGS[technique] > int_saving

    def test_savings_monotone_conv_to_warped(self):
        order = ["conv_pg", "gates", "naive_blackout", "coord_blackout",
                 "warped_gates"]
        for table in (paper.FIG9_INT_SAVINGS, paper.FIG9_FP_SAVINGS):
            values = [table[t] for t in order]
            assert values == sorted(values)

    def test_headline_matches_fig9(self):
        assert paper.HEADLINE.int_savings == \
            paper.FIG9_INT_SAVINGS["warped_gates"]
        assert paper.HEADLINE.fp_savings == \
            paper.FIG9_FP_SAVINGS["warped_gates"]

    def test_headline_ratio_is_consistent(self):
        ratio = paper.FIG9_INT_SAVINGS["warped_gates"] / \
            paper.FIG9_INT_SAVINGS["conv_pg"]
        assert ratio == pytest.approx(
            paper.HEADLINE.savings_ratio_vs_conventional, abs=0.1)

    def test_fig3_regions_sum_to_one(self):
        for regions in paper.FIG3_REGIONS.values():
            assert sum(regions) == pytest.approx(1.0, abs=0.001)

    def test_fig3_blackout_loss_region_empty(self):
        assert paper.FIG3_REGIONS["blackout"][1] == 0.0

    def test_chip_ranges_ordered(self):
        low33, high33 = paper.CHIP_SAVINGS_AT_33PCT
        low50, high50 = paper.CHIP_SAVINGS_AT_50PCT
        assert low33 < high33 and low50 < high50
        assert low50 > low33 and high50 > high33

    def test_defaults_match_our_gating_params(self):
        from repro.power.params import GatingParams
        params = GatingParams()
        assert params.idle_detect == paper.DEFAULT_IDLE_DETECT
        assert params.bet == paper.DEFAULT_BET
        assert params.wakeup_delay == paper.DEFAULT_WAKEUP
        assert params.bet in paper.BET_RANGE_EXPLORED

    def test_adaptive_defaults_match(self):
        from repro.core.adaptive import AdaptiveConfig
        config = AdaptiveConfig()
        assert config.epoch_cycles == paper.ADAPTIVE_EPOCH_CYCLES
        assert config.threshold == paper.ADAPTIVE_THRESHOLD
        assert (config.min_idle_detect, config.max_idle_detect) == \
            paper.ADAPTIVE_BOUNDS

    def test_suite_size_matches_workloads(self):
        from repro.workloads.specs import BENCHMARK_NAMES
        assert len(BENCHMARK_NAMES) == paper.N_BENCHMARKS


class TestTolerances:
    def test_bands_are_ordered(self):
        for group, band in paper.TOLERANCES.items():
            assert 0 <= band.warn <= band.fail, group

    def test_validation(self):
        with pytest.raises(ValueError, match="must not exceed"):
            paper.Tolerance(warn=0.2, fail=0.1)
        with pytest.raises(ValueError, match=">= 0"):
            paper.Tolerance(warn=-0.1, fail=0.1)

    def test_every_headline_group_is_covered(self):
        # Every artifact headline resolves to a band, and no band is
        # dead weight.
        from repro.harness.artifact import headline_references
        groups = {ref.group for ref in headline_references()}
        assert groups == set(paper.TOLERANCES)
