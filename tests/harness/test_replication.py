"""Tests for multi-seed replication."""

import pytest

from repro.harness.experiment import ExperimentSettings
from repro.harness.replication import (
    REPLICATION_HEADERS,
    _estimate,
    replicate,
    replication_rows,
)

SETTINGS = ExperimentSettings(scale=0.2, benchmarks=("hotspot", "nw"))


class TestEstimate:
    def test_single_sample(self):
        est = _estimate([0.5])
        assert est.mean == 0.5
        assert est.stdev == 0.0
        assert est.n == 1

    def test_mean_and_sample_stdev(self):
        est = _estimate([1.0, 2.0, 3.0])
        assert est.mean == pytest.approx(2.0)
        assert est.stdev == pytest.approx(1.0)

    def test_empty(self):
        assert _estimate([]).n == 0


class TestReplicate:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            replicate(SETTINGS, seeds=())

    def test_structure_and_ordering(self):
        results = replicate(SETTINGS, seeds=(0, 1),
                            techniques=("conv_pg", "warped_gates"))
        assert [r.technique for r in results] == \
            ["conv_pg", "warped_gates"]
        for result in results:
            assert result.int_savings.n == 2
            assert result.performance.n == 2
            assert result.benchmarks == (2, 2)  # full population, both seeds

    def test_single_seed_zero_spread(self):
        results = replicate(SETTINGS, seeds=(0,),
                            techniques=("conv_pg",))
        assert results[0].int_savings.stdev == 0.0

    def test_metrics_plausible(self):
        results = replicate(SETTINGS, seeds=(0, 1),
                            techniques=("warped_gates",))
        result = results[0]
        assert -1.0 <= result.int_savings.mean <= 1.0
        assert 0.5 < result.performance.mean < 1.5

    def test_fp_excludes_integer_only(self):
        # With only integer-only benchmarks, FP savings stay zero.
        settings = ExperimentSettings(scale=0.2, benchmarks=("nw",))
        results = replicate(settings, seeds=(0,),
                            techniques=("warped_gates",))
        assert results[0].fp_savings.mean == 0.0

    def test_rows_shape(self):
        results = replicate(SETTINGS, seeds=(0,),
                            techniques=("conv_pg",))
        rows = replication_rows(results)
        assert len(rows[0]) == len(REPLICATION_HEADERS)
        assert rows[0][0] == "conv_pg"
