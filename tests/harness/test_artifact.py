"""Tests for the paper-artifact pipeline (``repro figures``)."""

import json
import math
from types import SimpleNamespace

import pytest

from repro.analysis import paper
from repro.harness import figures
from repro.harness.artifact import (
    FIGURES,
    HeadlineReference,
    collect_headlines,
    evaluate_headlines,
    figure_names,
    generate_artifact,
    headline_references,
    overall_verdict,
)
from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.harness.export import load_json_rows
from repro.isa.optypes import ExecUnitKind

from tests.conftest import TEST_SCALE

#: Every file each figure directory must contain.
FIGURE_FILES = ("data.csv", "data.json", "summary.md", "plot.py",
                "manifest.json")


class TestRegistry:
    def test_names_in_paper_order(self):
        assert figure_names() == (
            "fig1b", "fig3", "fig5a", "fig5b", "fig6", "fig8a", "fig8b",
            "fig8c", "fig9a", "fig9b", "fig10", "sec75")

    def test_only_sec75_is_closed_form(self):
        assert [name for name, spec in FIGURES.items()
                if not spec.simulates] == ["sec75"]


class TestHeadlineReferences:
    def test_metrics_unique_and_complete(self):
        refs = headline_references()
        metrics = [ref.metric for ref in refs]
        assert len(metrics) == len(set(metrics))
        # 5+5+5 fig9/fig10, 3 fig8b, 2 fig8c, 9 fig3, 2 sec73, 4 sec75.
        assert len(metrics) == 35

    def test_every_group_has_a_tolerance_band(self):
        for ref in headline_references():
            assert ref.group in paper.TOLERANCES
            assert ref.tolerance is paper.TOLERANCES[ref.group]

    def test_ranges_only_for_sec73(self):
        for ref in headline_references():
            if ref.group == "sec73":
                assert ref.low < ref.high
            else:
                assert ref.low == ref.high


class TestEvaluateHeadlines:
    def _paper_perfect(self):
        return {ref.metric: (ref.low + ref.high) / 2
                for ref in headline_references()}

    def test_paper_values_all_pass(self):
        checks = evaluate_headlines(self._paper_perfect())
        assert len(checks) == 35
        assert all(c.verdict == "PASS" for c in checks)
        assert all(c.abs_error == 0.0 for c in checks)
        assert overall_verdict(checks) == "PASS"

    def test_perturbed_metric_flips_to_fail(self):
        # The negative test the golden digests can't give us: push one
        # constant past its fail band and the gate must trip.
        measured = self._paper_perfect()
        band = paper.TOLERANCES["fig9_int"]
        measured["fig9_int/warped_gates"] += band.fail + 0.01
        checks = evaluate_headlines(measured)
        by_metric = {c.metric: c for c in checks}
        assert by_metric["fig9_int/warped_gates"].verdict == "FAIL"
        assert overall_verdict(checks) == "FAIL"
        # Every other metric is untouched.
        others = [c for c in checks if c.metric != "fig9_int/warped_gates"]
        assert all(c.verdict == "PASS" for c in others)

    def test_warn_band_between_pass_and_fail(self):
        ref = HeadlineReference("m", "fig10", 0.99, 0.99, "test")
        band = paper.TOLERANCES["fig10"]
        for delta, expected in ((0.0, "PASS"),
                                (band.warn / 2, "PASS"),
                                ((band.warn + band.fail) / 2, "WARN"),
                                (band.fail * 2, "FAIL")):
            checks = evaluate_headlines({"m": 0.99 + delta},
                                        references=[ref])
            assert checks[0].verdict == expected, delta

    def test_inside_a_range_reference_is_zero_error(self):
        ref = HeadlineReference("m", "sec73", 0.0162, 0.0243, "test")
        checks = evaluate_headlines({"m": 0.020}, references=[ref])
        assert checks[0].abs_error == 0.0
        assert checks[0].verdict == "PASS"

    def test_nan_measurement_always_fails(self):
        ref = HeadlineReference("m", "fig10", 0.99, 0.99, "test")
        checks = evaluate_headlines({"m": math.nan}, references=[ref])
        assert checks[0].verdict == "FAIL"
        # to_dict keeps the document standard JSON: NaN becomes null.
        document = checks[0].to_dict()
        assert document["measured"] is None
        assert document["abs_error"] is None

    def test_missing_measurements_are_skipped(self):
        checks = evaluate_headlines({"fig10/warped_gates": 0.99})
        assert [c.metric for c in checks] == ["fig10/warped_gates"]

    def test_overall_verdict_precedence(self):
        def check(verdict):
            return SimpleNamespace(verdict=verdict)
        assert overall_verdict([]) == "FAIL"
        assert overall_verdict([check("PASS"), check("WARN")]) == "WARN"
        assert overall_verdict([check("WARN"), check("FAIL")]) == "FAIL"


class _StubResult:
    def __init__(self, frac: float) -> None:
        self._frac = frac

    def idle_fraction(self, kind) -> float:
        return self._frac


class _StubRunner:
    """Just enough runner surface for fig8a_rows: benchmarks plus
    idle fractions for baseline and every technique."""

    def __init__(self, idle) -> None:
        self._idle = idle
        self.settings = SimpleNamespace(benchmarks=tuple(idle))

    def baseline(self, name: str) -> _StubResult:
        return _StubResult(self._idle[name][0])

    def run(self, name: str, technique) -> _StubResult:
        return _StubResult(self._idle[name][1])


class TestFig8aZeroBaseline:
    """Regression test for the 1e-9 clamp bug: one benchmark whose
    baseline never idles used to drag the suite geomean down ~9 orders
    of magnitude; now it is excluded and visibly counted."""

    IDLE = {"a": (0.5, 0.4), "b": (0.25, 0.2), "c": (0.4, 0.1)}

    def test_geomean_finite_and_matches_dropped_benchmark(self):
        with_zero = dict(self.IDLE, zero=(0.0, 0.1))
        rows = figures.fig8a_rows(_StubRunner(with_zero),
                                  ExecUnitKind.INT)
        dropped = figures.fig8a_rows(_StubRunner(self.IDLE),
                                     ExecUnitKind.INT)
        assert rows[-1][0] == "geomean (1 excluded)"
        assert dropped[-1][0] == "geomean"
        for measured, reference in zip(rows[-1][1:], dropped[-1][1:]):
            assert math.isfinite(measured)
            assert measured == pytest.approx(reference, rel=0.01)

    def test_zero_baseline_cell_is_nan_not_zero(self):
        rows = figures.fig8a_rows(
            _StubRunner(dict(self.IDLE, zero=(0.0, 0.1))),
            ExecUnitKind.INT)
        zero_row = next(r for r in rows if r[0] == "zero")
        assert all(math.isnan(v) for v in zero_row[1:])


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """One full artifact generation, shared across the golden tests."""
    settings = ExperimentSettings(scale=TEST_SCALE,
                                  benchmarks=("hotspot", "nw", "sgemm"))
    runner = ExperimentRunner(settings)
    out_dir = tmp_path_factory.mktemp("artifact") / "results"
    report = generate_artifact(runner, out_dir, check=True)
    return report, runner


class TestGeneratedArtifact:
    def test_every_figure_directory_complete(self, artifact):
        report, _ = artifact
        assert [a.name for a in report.figures] == list(figure_names())
        for name in figure_names():
            directory = report.out_dir / name
            for filename in FIGURE_FILES:
                assert (directory / filename).exists(), (name, filename)

    def test_index_and_headline_written(self, artifact):
        report, _ = artifact
        assert (report.out_dir / "index.md").exists()
        assert (report.out_dir / "headline.json").exists()
        index = (report.out_dir / "index.md").read_text()
        assert report.verdict in index
        for name in figure_names():
            assert f"{name}/summary.md" in index

    def test_headline_covers_every_reference_metric(self, artifact):
        report, _ = artifact
        document = json.loads(
            (report.out_dir / "headline.json").read_text())
        expected = {ref.metric for ref in headline_references()}
        checked = {c["metric"] for c in document["checks"]}
        assert checked == expected
        assert document["verdict"] == report.verdict
        assert all(c["verdict"] in ("PASS", "WARN", "FAIL")
                   for c in document["checks"])
        counts = document["counts"]
        assert sum(counts.values()) == len(document["checks"])

    def test_manifests_carry_provenance(self, artifact):
        report, runner = artifact
        for figure in report.figures:
            manifest = json.loads(
                (figure.directory / "manifest.json").read_text())
            assert manifest["figure"] == figure.name
            assert manifest["seed"] == runner.settings.seed
            assert manifest["scale"] == runner.settings.scale
            assert manifest["benchmarks"] == \
                list(runner.settings.benchmarks)
            assert manifest["run_id"] == report.run_id
            assert manifest["n_rows"] == len(figure.rows)
            if figure.name == "sec75":
                assert manifest["techniques"] == {}
            else:
                hashes = manifest["techniques"]
                assert "warped_gates" in hashes and "baseline" in hashes
                assert all(hashes.values())

    def test_data_json_round_trips(self, artifact):
        report, _ = artifact
        for figure in report.figures:
            records = load_json_rows(figure.directory / "data.json")
            assert len(records) == len(figure.rows)
            assert list(records[0]) == list(FIGURES[figure.name].headers)

    def test_plot_stub_is_valid_python(self, artifact):
        report, _ = artifact
        for figure in report.figures:
            source = (figure.directory / "plot.py").read_text()
            compile(source, f"{figure.name}/plot.py", "exec")

    def test_collect_headlines_matches_written_checks(self, artifact):
        report, _ = artifact
        measured = collect_headlines(
            {a.name: a.rows for a in report.figures})
        rechecked = evaluate_headlines(measured)
        assert [(c.metric, c.verdict) for c in rechecked] == \
            [(c.metric, c.verdict) for c in report.checks]

    def test_figure_subset_skips_unmeasured_references(self, artifact):
        # A sec75-only artifact measures only the four overhead rows;
        # those are closed-form reproductions of the paper's own
        # constants, so the subset verdict is a deterministic PASS.
        _, runner = artifact
        measured = collect_headlines(
            {"sec75": figures.sec75_rows()})
        checks = evaluate_headlines(measured)
        assert {c.metric for c in checks} == {
            "sec75/area_um2", "sec75/area_pct", "sec75/dynamic_pct",
            "sec75/leakage_pct"}
        assert overall_verdict(checks) == "PASS"
