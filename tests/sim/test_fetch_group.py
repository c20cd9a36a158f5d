"""Tests for the fetch-group scheduler (Narasiman-style baseline)."""

import pytest

from repro.isa.instructions import fp_op, int_op
from repro.sim.sched.base import IssueCandidate, SchedulerView
from repro.sim.sched.fetch_group import FetchGroupScheduler


def cand(slot, inst=None, ready=True):
    return IssueCandidate(slot=slot, age=slot,
                          inst=inst or int_op(dest=0), ready=ready)


class TestGrouping:
    def test_group_count(self):
        assert FetchGroupScheduler(n_slots=48, group_size=8).n_groups == 6
        assert FetchGroupScheduler(n_slots=10, group_size=4).n_groups == 3

    def test_current_group_first(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        candidates = [cand(0), cand(5), cand(12)]
        ordered = sched.order(0, candidates, SchedulerView())
        # Group 0 is current, so slot 0 leads.
        assert ordered[0].slot == 0

    def test_rotates_when_current_group_drains(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        # Nothing ready in group 0; groups 1 and 3 have ready warps.
        candidates = [cand(5), cand(13)]
        ordered = sched.order(0, candidates, SchedulerView())
        assert ordered[0].slot == 5          # nearest group wins
        assert sched.group_rotations == 1

    def test_stays_on_group_while_it_has_work(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        candidates = [cand(1), cand(9)]
        sched.order(0, candidates, SchedulerView())
        sched.order(1, candidates, SchedulerView())
        assert sched.group_rotations == 0

    def test_wraps_around_groups(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        sched._current_group = 3
        candidates = [cand(2)]  # only group 0 ready
        ordered = sched.order(0, candidates, SchedulerView())
        assert ordered[0].slot == 2
        assert sched._current_group == 0

    def test_not_ready_filtered(self):
        sched = FetchGroupScheduler(n_slots=8, group_size=4)
        candidates = [cand(0, ready=False), cand(1)]
        ordered = sched.order(0, candidates, SchedulerView())
        assert [c.slot for c in ordered] == [1]

    def test_empty_ready_set(self):
        sched = FetchGroupScheduler(n_slots=8, group_size=4)
        assert sched.order(0, [cand(0, ready=False)],
                           SchedulerView()) == []
        assert sched.group_rotations == 0

    def test_type_blind_within_group(self):
        sched = FetchGroupScheduler(n_slots=8, group_size=8)
        candidates = [cand(0, int_op(dest=0)), cand(1, fp_op(dest=0))]
        ordered = sched.order(0, candidates, SchedulerView())
        assert [c.slot for c in ordered] == [0, 1]

    def test_reset(self):
        sched = FetchGroupScheduler(n_slots=16, group_size=4)
        sched.order(0, [cand(13)], SchedulerView())
        sched.reset()
        assert sched._current_group == 0
        assert sched.group_rotations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FetchGroupScheduler(n_slots=0)
        with pytest.raises(ValueError):
            FetchGroupScheduler(n_slots=8, group_size=0)


class TestEndToEnd:
    def test_runs_full_benchmark(self):
        from repro.core.techniques import run_benchmark
        result = run_benchmark("hotspot", "fetch_group_conv_pg",
                               scale=0.25)
        assert result.stats.instructions_retired > 0
        assert result.technique == "fetch_group_conv_pg"
        # Conventional gating attached.
        assert set(result.domain_stats) == {"INT0", "INT1", "FP0", "FP1"}
