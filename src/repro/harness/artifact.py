"""One-command paper-artifact pipeline with tolerance-gated checks.

``repro figures`` drives every figure builder in
:mod:`repro.harness.figures` through one shared
:class:`~repro.harness.experiment.ExperimentRunner` (engine-cached, so
warm reruns are near-instant) and writes one directory per figure::

    results/
      index.md            — artifact overview + headline verdicts
      headline.json       — per-metric PASS/WARN/FAIL vs the paper
      fig9a/
        data.csv          — the figure's rows
        data.json         — same rows, standard JSON (NaN -> null)
        summary.md        — rendered Markdown table + paper reference
        plot.py           — standalone matplotlib stub over data.csv
        manifest.json     — provenance: spec hashes, seed, scale,
                            git sha, run id

The headline check is the scientific analogue of the digest-based
golden suite: every number the paper's evaluation text quotes (Figure
9 suite averages, Figure 10 geomean, Figure 8b/8c summaries, Figure 3
hotspot regions, the section 7.3 chip estimate and the section 7.5
overhead table) is compared against the constants in
:mod:`repro.analysis.paper` under the per-group tolerance bands in
:data:`repro.analysis.paper.TOLERANCES`.  A regression in GATES or
Blackout logic that shifts Figure 9 savings by ten percent fails the
band even though every bit-identity digest (which pins *inputs*, not
science) would still pass.
"""

from __future__ import annotations

import json
import math
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis import paper
from repro.analysis.paper import TOLERANCES, Tolerance
from repro.core.spec import validate_names
from repro.core.techniques import (
    BASELINE_AND_PAPER_TECHNIQUES,
    PAPER_TECHNIQUES,
)
from repro.harness import figures
from repro.harness.experiment import ExperimentRunner
from repro.harness.export import (
    rows_to_csv,
    rows_to_json,
    rows_to_markdown,
)
from repro.isa.optypes import ExecUnitKind
from repro.obs.ledger import new_run_id

Row = List[object]

#: Region labels of the Figure 3 triples, in row order.
FIG3_REGION_LABELS = ("wasted", "loss", "gain")

#: Section 7.5 metric labels, in the builder's column order (the
#: leading total-bits column is informational, not a paper headline).
SEC75_METRICS = ("area_um2", "area_pct", "dynamic_pct", "leakage_pct")


# ---------------------------------------------------------------------------
# Figure registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FigureSpec:
    """One regenerable paper figure: headers, builder, provenance."""

    name: str
    title: str
    headers: Tuple[str, ...]
    build: Callable[[ExperimentRunner], List[Row]]
    paper_ref: str
    #: Whether the builder simulates (False: closed-form, e.g. sec75).
    simulates: bool = True


def _fig9a_rows(runner: ExperimentRunner) -> List[Row]:
    return figures.fig9_rows(runner, ExecUnitKind.INT)


def _fig9b_rows(runner: ExperimentRunner) -> List[Row]:
    return figures.fig9_rows(runner, ExecUnitKind.FP)


def _sec75_rows(runner: ExperimentRunner) -> List[Row]:
    return figures.sec75_rows()


#: Every figure the artifact regenerates, in paper order.
FIGURES: Dict[str, FigureSpec] = {
    spec.name: spec for spec in (
        FigureSpec("fig1b", "Baseline vs conventional-PG energy "
                            "breakdown (suite average)",
                   figures.FIG1B_HEADERS, figures.fig1b_rows,
                   "Figure 1b"),
        FigureSpec("fig3", "Idle-period regions on hotspot "
                           "(wasted / loss / gain)",
                   figures.FIG3_HEADERS, figures.fig3_rows,
                   "Figure 3, sections 3.1/4.1/5"),
        FigureSpec("fig5a", "Instruction mix per benchmark",
                   figures.FIG5A_HEADERS, figures.fig5a_rows,
                   "Figure 5a"),
        FigureSpec("fig5b", "Active-warp population per benchmark",
                   figures.FIG5B_HEADERS, figures.fig5b_rows,
                   "Figure 5b"),
        FigureSpec("fig6", "Critical wakeups vs runtime correlation",
                   figures.FIG6_HEADERS, figures.fig6_rows,
                   "Figure 6"),
        FigureSpec("fig8a", "Idle fraction normalised to baseline",
                   figures.FIG8A_HEADERS, figures.fig8a_rows,
                   "Figure 8a, section 7.2"),
        FigureSpec("fig8b", "Compensated-state residency",
                   figures.FIG8B_HEADERS, figures.fig8b_rows,
                   "Figure 8b, section 7.2"),
        FigureSpec("fig8c", "Gating events normalised to conventional "
                            "gating",
                   figures.FIG8C_HEADERS, figures.fig8c_rows,
                   "Figure 8c, section 7.2"),
        FigureSpec("fig9a", "INT static energy savings",
                   figures.FIG9_HEADERS, _fig9a_rows,
                   "Figure 9a, section 7.3"),
        FigureSpec("fig9b", "FP static energy savings",
                   figures.FIG9_HEADERS, _fig9b_rows,
                   "Figure 9b, section 7.3"),
        FigureSpec("fig10", "Normalised performance",
                   figures.FIG10_HEADERS, figures.fig10_rows,
                   "Figure 10, section 7.4"),
        FigureSpec("sec75", "Hardware overhead summary",
                   figures.SEC75_HEADERS, _sec75_rows,
                   "Section 7.5", simulates=False),
    )
}


def figure_names() -> Tuple[str, ...]:
    """Registered figure names, in paper order."""
    return tuple(FIGURES)


# ---------------------------------------------------------------------------
# Headline references and tolerance verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeadlineReference:
    """One paper-quoted number (or range) a measured headline checks
    against.  ``low == high`` for scalar references; the section 7.3
    chip estimates keep the paper's quoted range."""

    metric: str
    group: str
    low: float
    high: float
    source: str

    @property
    def tolerance(self) -> Tolerance:
        """The group's band from :data:`~repro.analysis.paper.TOLERANCES`."""
        return TOLERANCES[self.group]


def headline_references() -> List[HeadlineReference]:
    """Every headline metric, bound to its paper constant and band."""
    refs: List[HeadlineReference] = []
    for tech, value in paper.FIG9_INT_SAVINGS.items():
        refs.append(HeadlineReference(f"fig9_int/{tech}", "fig9_int",
                                      value, value, "Fig. 9a"))
    for tech, value in paper.FIG9_FP_SAVINGS.items():
        refs.append(HeadlineReference(f"fig9_fp/{tech}", "fig9_fp",
                                      value, value, "Fig. 9b"))
    for tech, value in paper.FIG10_PERFORMANCE.items():
        refs.append(HeadlineReference(f"fig10/{tech}", "fig10",
                                      value, value, "Fig. 10"))
    for tech, value in paper.FIG8B_COMPENSATED.items():
        refs.append(HeadlineReference(f"fig8b/{tech}", "fig8b",
                                      value, value, "Fig. 8b"))
    for tech, value in paper.FIG8C_WAKEUPS.items():
        refs.append(HeadlineReference(f"fig8c/{tech}", "fig8c",
                                      value, value, "Fig. 8c"))
    for config, regions in paper.FIG3_REGIONS.items():
        for label, value in zip(FIG3_REGION_LABELS, regions):
            refs.append(HeadlineReference(f"fig3/{config}/{label}",
                                          "fig3", value, value,
                                          "Fig. 3"))
    low, high = paper.CHIP_SAVINGS_AT_33PCT
    refs.append(HeadlineReference("sec73/chip_savings_at_33pct_leakage",
                                  "sec73", low, high, "Section 7.3"))
    low, high = paper.CHIP_SAVINGS_AT_50PCT
    refs.append(HeadlineReference("sec73/chip_savings_at_50pct_leakage",
                                  "sec73", low, high, "Section 7.3"))
    refs.append(HeadlineReference("sec75/area_um2", "sec75_area_um2",
                                  paper.OVERHEAD_AREA_UM2,
                                  paper.OVERHEAD_AREA_UM2,
                                  "Section 7.5"))
    for label, value in (("area_pct", paper.OVERHEAD_AREA_PCT),
                         ("dynamic_pct", paper.OVERHEAD_DYNAMIC_PCT),
                         ("leakage_pct", paper.OVERHEAD_LEAKAGE_PCT)):
        refs.append(HeadlineReference(f"sec75/{label}", "sec75_pct",
                                      value, value, "Section 7.5"))
    return refs


@dataclass(frozen=True)
class HeadlineCheck:
    """One measured headline's verdict against its paper band."""

    metric: str
    measured: float
    paper_low: float
    paper_high: float
    abs_error: float
    warn_tol: float
    fail_tol: float
    verdict: str
    source: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe record for ``headline.json`` (non-finite -> null)."""
        def safe(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None
        return {
            "metric": self.metric,
            "measured": safe(self.measured),
            "paper_low": self.paper_low,
            "paper_high": self.paper_high,
            "abs_error": safe(self.abs_error),
            "warn_tol": self.warn_tol,
            "fail_tol": self.fail_tol,
            "verdict": self.verdict,
            "source": self.source,
        }


def _verdict(error: float, tolerance: Tolerance) -> str:
    if not math.isfinite(error):
        return "FAIL"
    if error <= tolerance.warn:
        return "PASS"
    if error <= tolerance.fail:
        return "WARN"
    return "FAIL"


def evaluate_headlines(measured: Dict[str, float],
                       references: Optional[
                           Sequence[HeadlineReference]] = None,
                       ) -> List[HeadlineCheck]:
    """Verdicts for every reference with a measured value.

    Pure — callers control both sides, so tests can prove the gate
    trips: feed the paper constants back in (all PASS), then perturb
    one value past its fail band (FAIL).  The error is the distance to
    the nearest edge of the paper band (zero inside it); a non-finite
    measured value can never be in band and always FAILs.
    """
    checks: List[HeadlineCheck] = []
    for ref in references if references is not None \
            else headline_references():
        if ref.metric not in measured:
            continue
        value = float(measured[ref.metric])
        if math.isfinite(value):
            if ref.low <= value <= ref.high:
                error = 0.0
            else:
                error = min(abs(value - ref.low), abs(value - ref.high))
        else:
            error = math.inf
        tolerance = ref.tolerance
        checks.append(HeadlineCheck(
            metric=ref.metric, measured=value,
            paper_low=ref.low, paper_high=ref.high,
            abs_error=error, warn_tol=tolerance.warn,
            fail_tol=tolerance.fail,
            verdict=_verdict(error, tolerance), source=ref.source))
    return checks


def overall_verdict(checks: Sequence[HeadlineCheck]) -> str:
    """FAIL dominates WARN dominates PASS; no checks is a FAIL too
    (an artifact that measured nothing cannot be in band)."""
    if not checks:
        return "FAIL"
    verdicts = {check.verdict for check in checks}
    if "FAIL" in verdicts:
        return "FAIL"
    if "WARN" in verdicts:
        return "WARN"
    return "PASS"


# ---------------------------------------------------------------------------
# Measured-headline collection from figure rows
# ---------------------------------------------------------------------------


def _summary_row(rows: Sequence[Row], label: str) -> Optional[Row]:
    for row in rows:
        if isinstance(row[0], str) and row[0].startswith(label):
            return row
    return None


def _columns(row: Row, names: Sequence[str],
             prefix: str) -> Dict[str, float]:
    return {f"{prefix}/{name}": float(value)
            for name, value in zip(names, row[1:])}


def collect_headlines(rows_by_figure: Dict[str, Sequence[Row]],
                      ) -> Dict[str, float]:
    """Extract every checkable headline from generated figure rows.

    Figures missing from ``rows_by_figure`` (a ``--figures`` subset)
    simply contribute no metrics; :func:`evaluate_headlines` skips
    references without a measurement.
    """
    from repro.power.energy import chip_level_savings

    measured: Dict[str, float] = {}
    row = _summary_row(rows_by_figure.get("fig9a", ()), "average")
    if row is not None:
        measured.update(_columns(row, PAPER_TECHNIQUES, "fig9_int"))
    row = _summary_row(rows_by_figure.get("fig9b", ()), "average")
    if row is not None:
        measured.update(_columns(row, PAPER_TECHNIQUES, "fig9_fp"))
    row = _summary_row(rows_by_figure.get("fig10", ()), "geomean")
    if row is not None:
        measured.update(_columns(row, PAPER_TECHNIQUES, "fig10"))
    row = _summary_row(rows_by_figure.get("fig8b", ()), "mean")
    if row is not None:
        measured.update(_columns(
            row, ("conv_pg", "gates", "warped_gates"), "fig8b"))
    row = _summary_row(rows_by_figure.get("fig8c", ()), "geomean")
    if row is not None:
        for key, value in _columns(row, figures.FIG8_TECHNIQUES,
                                   "fig8c").items():
            if key.split("/", 1)[1] in paper.FIG8C_WAKEUPS:
                measured[key] = value
    for row in rows_by_figure.get("fig3", ()):
        for label, value in zip(FIG3_REGION_LABELS, row[1:4]):
            measured[f"fig3/{row[0]}/{label}"] = float(value)
    # Section 7.3 is arithmetic over the Figure 9 warped-gates averages.
    int_avg = measured.get("fig9_int/warped_gates")
    fp_avg = measured.get("fig9_fp/warped_gates")
    if int_avg is not None and fp_avg is not None:
        for share, key in ((0.33, "chip_savings_at_33pct_leakage"),
                           (0.50, "chip_savings_at_50pct_leakage")):
            measured[f"sec73/{key}"] = chip_level_savings(
                int_avg, fp_avg, leakage_share_of_chip=share)
    sec75 = rows_by_figure.get("sec75", ())
    if sec75:
        # Row layout: [total_bits, area_um2, area_pct, dynamic_pct,
        # leakage_pct]; the leading bit count is informational.
        measured.update(_columns(sec75[0], SEC75_METRICS, "sec75"))
    return measured


# ---------------------------------------------------------------------------
# Artifact generation
# ---------------------------------------------------------------------------

_PLOT_STUB = '''\
"""Regenerate the {name} chart from data.csv.

Standalone: run ``python plot.py`` next to data.csv.  Requires
matplotlib (not a dependency of the reproduction itself); the CSV/JSON
rows are the canonical artifact either way.
"""

import csv
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load():
    with open(HERE / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def main():
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is not installed; see data.csv for the rows")
    headers, rows = load()
    labels = [row[0] for row in rows]
    series = list(range(1, len(headers)))
    width = 0.8 / max(len(series), 1)
    fig, ax = plt.subplots(figsize=(max(6, len(labels)), 4))
    for i, col in enumerate(series):
        values = []
        for row in rows:
            try:
                values.append(float(row[col]))
            except ValueError:
                values.append(float("nan"))
        ax.bar([x + i * width for x in range(len(labels))], values,
               width=width, label=headers[col])
    ax.set_xticks([x + 0.4 - width / 2 for x in range(len(labels))])
    ax.set_xticklabels(labels, rotation=60, ha="right", fontsize=8)
    ax.set_title({title!r})
    ax.legend(fontsize=8)
    fig.tight_layout()
    out = HERE / "{name}.png"
    fig.savefig(out, dpi=150)
    print(f"wrote {{out}}")


if __name__ == "__main__":
    main()
'''


def _git_sha(root: Optional[Union[str, Path]] = None) -> str:
    """Current short commit sha, or "" outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=None if root is None else str(root),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _technique_hashes(runner: ExperimentRunner) -> Dict[str, str]:
    """Spec hash per paper technique, as the runner resolves it."""
    return {name: runner._resolve(name).spec_hash()
            for name in BASELINE_AND_PAPER_TECHNIQUES}


@dataclass
class FigureArtifact:
    """One generated figure directory."""

    name: str
    directory: Path
    rows: List[Row]
    manifest: Dict[str, object]


@dataclass
class ArtifactReport:
    """Everything one ``repro figures`` invocation produced."""

    out_dir: Path
    run_id: str
    git_sha: str
    figures: List[FigureArtifact]
    checks: List[HeadlineCheck]
    verdict: Optional[str]
    elapsed_seconds: float

    @property
    def counts(self) -> Dict[str, int]:
        """Verdict tally over the headline checks."""
        counts = {"PASS": 0, "WARN": 0, "FAIL": 0}
        for check in self.checks:
            counts[check.verdict] += 1
        return counts


def _select_figures(names: Optional[Sequence[str]]) -> List[FigureSpec]:
    if names is None:
        return list(FIGURES.values())
    validated = validate_names(tuple(names), tuple(FIGURES), "figure")
    return [FIGURES[name] for name in validated]


def _prefetch_grid(runner: ExperimentRunner,
                   specs: Sequence[FigureSpec]) -> None:
    """Warm the engine cache with the shared benchmark x technique
    grid before any builder runs (figure 6's sweep prefetches its own
    idle-detect grid inside the builder)."""
    if not any(spec.simulates for spec in specs):
        return
    requests = [(name, "baseline")
                for name in runner.settings.benchmarks]
    requests += [(name, technique)
                 for name in runner.settings.benchmarks
                 for technique in PAPER_TECHNIQUES]
    runner.prefetch(requests)


def generate_figure(runner: ExperimentRunner, spec: FigureSpec,
                    out_dir: Union[str, Path],
                    formats: Sequence[str] = ("csv", "json", "md"),
                    run_id: str = "", git_sha: str = "",
                    ) -> FigureArtifact:
    """Build one figure and write its artifact directory."""
    directory = Path(out_dir) / spec.name
    directory.mkdir(parents=True, exist_ok=True)
    rows = spec.build(runner)
    written: List[str] = []
    if "csv" in formats:
        rows_to_csv(spec.headers, rows, path=directory / "data.csv")
        written.append("data.csv")
    if "json" in formats:
        rows_to_json(spec.headers, rows, path=directory / "data.json",
                     figure=spec.name)
        written.append("data.json")
    if "md" in formats:
        summary = rows_to_markdown(
            spec.headers, rows,
            title=f"{spec.name}: {spec.title}")
        summary += (f"\nPaper reference: {spec.paper_ref}."
                    f"  Regenerate: `python -m repro --scale "
                    f"{runner.settings.scale} figures --figures "
                    f"{spec.name}`.\n")
        (directory / "summary.md").write_text(summary, encoding="utf-8")
        written.append("summary.md")
    (directory / "plot.py").write_text(
        _PLOT_STUB.format(name=spec.name, title=spec.title),
        encoding="utf-8")
    written.append("plot.py")
    manifest: Dict[str, object] = {
        "figure": spec.name,
        "title": spec.title,
        "paper_ref": spec.paper_ref,
        "headers": list(spec.headers),
        "n_rows": len(rows),
        "seed": runner.settings.seed,
        "scale": runner.settings.scale,
        "benchmarks": list(runner.settings.benchmarks),
        "techniques": (_technique_hashes(runner)
                       if spec.simulates else {}),
        "git_sha": git_sha,
        "run_id": run_id,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                      time.gmtime()),
        "files": written,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return FigureArtifact(name=spec.name, directory=directory,
                          rows=rows, manifest=manifest)


def _write_headline(report: ArtifactReport, runner: ExperimentRunner,
                    ) -> None:
    document = {
        "run_id": report.run_id,
        "git_sha": report.git_sha,
        "seed": runner.settings.seed,
        "scale": runner.settings.scale,
        "benchmarks": list(runner.settings.benchmarks),
        "verdict": report.verdict,
        "counts": report.counts,
        "checks": [check.to_dict() for check in report.checks],
    }
    (report.out_dir / "headline.json").write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _write_index(report: ArtifactReport, runner: ExperimentRunner,
                 ) -> None:
    lines = [
        "# Paper artifact",
        "",
        f"Run `{report.run_id}`"
        + (f" at `{report.git_sha}`" if report.git_sha else "")
        + f", seed {runner.settings.seed}, scale "
          f"{runner.settings.scale}, "
          f"{len(runner.settings.benchmarks)} benchmark(s), "
          f"generated in {report.elapsed_seconds:.1f}s.",
        "",
        "| figure | rows | paper reference |",
        "|---|---|---|",
    ]
    for artifact in report.figures:
        lines.append(f"| [{artifact.name}]({artifact.name}/summary.md) "
                     f"| {len(artifact.rows)} "
                     f"| {artifact.manifest['paper_ref']} |")
    if report.verdict is not None:
        counts = report.counts
        lines += [
            "",
            f"## Headline checks — {report.verdict}",
            "",
            f"{counts['PASS']} PASS / {counts['WARN']} WARN / "
            f"{counts['FAIL']} FAIL vs the tolerance bands in "
            f"`repro.analysis.paper.TOLERANCES` "
            f"(see `headline.json`).",
            "",
            "| metric | measured | paper | error | verdict |",
            "|---|---|---|---|---|",
        ]
        for check in report.checks:
            band = (f"{check.paper_low:.4g}"
                    if check.paper_low == check.paper_high
                    else f"{check.paper_low:.4g}–{check.paper_high:.4g}")
            measured = (f"{check.measured:.4g}"
                        if math.isfinite(check.measured) else "—")
            error = (f"{check.abs_error:.4g}"
                     if math.isfinite(check.abs_error) else "—")
            lines.append(f"| {check.metric} | {measured} | {band} "
                         f"| {error} | {check.verdict} |")
    (report.out_dir / "index.md").write_text(
        "\n".join(lines) + "\n", encoding="utf-8")


def generate_artifact(runner: ExperimentRunner,
                      out_dir: Union[str, Path],
                      figure_subset: Optional[Sequence[str]] = None,
                      formats: Sequence[str] = ("csv", "json", "md"),
                      check: bool = True) -> ArtifactReport:
    """Regenerate the paper artifact into ``out_dir``.

    The whole pipeline shares ``runner``'s memo cache (and its engine's
    persistent cache when one is attached), so the ~110-run grid is
    simulated once and every figure after the first is a lookup.  With
    ``check`` (the default) the measured headlines are evaluated
    against the paper's tolerance bands and ``headline.json`` written;
    ``verdict`` is then PASS/WARN/FAIL, else None.
    """
    t0 = time.perf_counter()
    specs = _select_figures(figure_subset)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = new_run_id()
    git_sha = _git_sha()
    _prefetch_grid(runner, specs)
    artifacts = [generate_figure(runner, spec, out_dir,
                                 formats=formats, run_id=run_id,
                                 git_sha=git_sha)
                 for spec in specs]
    checks: List[HeadlineCheck] = []
    verdict: Optional[str] = None
    if check:
        rows_by_figure = {a.name: a.rows for a in artifacts}
        checks = evaluate_headlines(collect_headlines(rows_by_figure))
        verdict = overall_verdict(checks)
    report = ArtifactReport(out_dir=out_dir, run_id=run_id,
                            git_sha=git_sha, figures=artifacts,
                            checks=checks, verdict=verdict,
                            elapsed_seconds=time.perf_counter() - t0)
    if check:
        _write_headline(report, runner)
    _write_index(report, runner)
    report.elapsed_seconds = time.perf_counter() - t0
    return report
