"""Tests for the section 7.5 hardware-overhead bookkeeping."""

import pytest

from repro.power.overhead import (
    SM_COUNTERS,
    bits_by_technique,
    overhead_report,
    total_storage_bits,
)


class TestInventory:
    def test_all_three_techniques_present(self):
        techniques = {spec.technique for spec in SM_COUNTERS}
        assert techniques == {"GATES", "Blackout", "Adaptive"}

    def test_gates_type_field_matches_warp_slots(self):
        type_bits = next(s for s in SM_COUNTERS
                         if s.name == "instruction_type_bits")
        assert type_bits.bits == 2      # two-bit decoded type
        assert type_bits.count == 48    # one per resident warp slot

    def test_rdy_counters_five_bits(self):
        # Four 5-bit counters, per the paper's Figure 7 description.
        rdy = next(s for s in SM_COUNTERS if s.name == "rdy_counters")
        assert rdy.bits == 5 and rdy.count == 4

    def test_blackout_counter_covers_bet(self):
        bet = next(s for s in SM_COUNTERS
                   if s.name == "blackout_bet_counters")
        # 5 bits hold BET values up to 24 (the largest value explored).
        assert 2 ** bet.bits > 24
        assert bet.count == 4  # two INT + two FP clusters

    def test_gates_needs_more_storage_than_blackout(self):
        # Section 7.5: GATES' per-warp type bits and ACTV/RDY counters
        # outweigh Blackout's four BET countdowns.
        inventory = bits_by_technique()
        assert inventory["GATES"] > inventory["Blackout"]

    def test_total_bits_consistency(self):
        assert total_storage_bits() == \
            sum(s.bits * s.count for s in SM_COUNTERS)
        assert total_storage_bits() == \
            sum(bits_by_technique().values())


class TestReport:
    def test_paper_reported_fractions(self):
        report = overhead_report()
        # 1,210.8 um^2 over 48.1 mm^2 => ~0.003% area (paper 7.5).
        assert 100.0 * report.area_fraction == pytest.approx(0.0025,
                                                             abs=0.001)
        # 1.55e-3 W over 1.92 W => ~0.08% dynamic power.
        assert 100.0 * report.dynamic_fraction == pytest.approx(0.081,
                                                                abs=0.005)
        # 1.21e-5 W over 1.61 W => ~0.0007% leakage.
        assert 100.0 * report.leakage_fraction == pytest.approx(0.00075,
                                                                abs=0.0002)

    def test_rows_shape(self):
        rows = overhead_report().rows()
        assert len(rows) == 1
        assert set(rows[0]) == {"total_bits", "area_um2", "area_pct",
                                "dynamic_pct", "leakage_pct"}
