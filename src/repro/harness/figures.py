"""One builder per paper figure.

Each function returns printable rows (lists matching a header tuple) or
series so that the artifact pipeline (:mod:`repro.harness.artifact`)
and the examples can render exactly the rows/series the paper's figure
reports.  All builders take an
:class:`repro.harness.experiment.ExperimentRunner`, so results are
shared across figures through its cache.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import math

from repro.analysis.idle_periods import region_fractions, histogram_series
from repro.core.techniques import PAPER_TECHNIQUES
from repro.harness.experiment import (
    ExperimentRunner,
    geomean_excluding,
    normalized_performance,
)
from repro.engine.jobs import load_or_build_kernel, trace_cache_key
from repro.isa.optypes import ALL_OP_CLASSES, ExecUnitKind, OpClass
from repro.power.energy import chip_level_savings
from repro.power.overhead import overhead_report, total_storage_bits

Row = List[object]

#: Figure 8a/8c legend order.
FIG8_TECHNIQUES: Tuple[str, ...] = ("gates", "coord_blackout", "warped_gates")


# ---------------------------------------------------------------------------
# Figure 1b: baseline vs conventional-PG energy breakdown
# ---------------------------------------------------------------------------

FIG1B_HEADERS = ("config", "unit", "dynamic", "overhead", "static")


def fig1b_rows(runner: ExperimentRunner) -> List[Row]:
    """Suite-average normalised energy breakdown (Figure 1b's bars)."""
    rows: List[Row] = []
    for technique in ("baseline", "conv_pg"):
        for kind, unit in ((ExecUnitKind.INT, "int"),
                           (ExecUnitKind.FP, "fp")):
            benchmarks = (runner.settings.benchmarks
                          if kind is ExecUnitKind.INT
                          else runner.fp_benchmarks())
            dyn = ovh = stat = 0.0
            count = 0
            for name in benchmarks:
                norm = runner.energy_breakdown(name, technique,
                                               kind).normalized()
                if norm.baseline_total == 0:
                    continue
                dyn += norm.dynamic
                ovh += norm.overhead
                stat += norm.static
                count += 1
            if count:
                rows.append([technique, unit, dyn / count, ovh / count,
                             stat / count])
    return rows


# ---------------------------------------------------------------------------
# Figure 3: idle-period length distributions (hotspot)
# ---------------------------------------------------------------------------

FIG3_HEADERS = ("config", "lt_idle_detect", "loss_region", "gain_region",
                "periods")

#: (sub-figure label, technique) in the paper's panel order.  Panel (c)
#: uses Naive Blackout: with every >= idle-detect window gated and every
#: gated window held past break-even, the loss region is exactly empty,
#: which is the property Figure 3c illustrates.
FIG3_CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("conv_pg", "conv_pg"),
    ("gates", "gates"),
    ("blackout", "naive_blackout"),
)


def fig3_rows(runner: ExperimentRunner, benchmark: str = "hotspot",
              kind: ExecUnitKind = ExecUnitKind.INT) -> List[Row]:
    """Three-region idle-period split per technique (Figure 3a-3c)."""
    gating = runner.settings.gating
    rows: List[Row] = []
    for label, technique in FIG3_CONFIGS:
        result = runner.run(benchmark, technique)
        regions = region_fractions(result.idle_histogram(kind),
                                   idle_detect=gating.idle_detect,
                                   bet=gating.bet)
        rows.append([label, regions.wasted, regions.loss, regions.gain,
                     regions.total_periods])
    return rows


def fig3_series(runner: ExperimentRunner, technique,
                benchmark: str = "hotspot",
                kind: ExecUnitKind = ExecUnitKind.INT,
                max_length: int = 25) -> List[Tuple[int, float]]:
    """Per-length frequency series (the plotted curve of Figure 3)."""
    result = runner.run(benchmark, technique)
    return histogram_series(result.idle_histogram(kind),
                            max_length=max_length)


# ---------------------------------------------------------------------------
# Figure 5: workload characterisation
# ---------------------------------------------------------------------------

FIG5A_HEADERS = ("benchmark", "int", "fp", "sfu", "ldst")
FIG5B_HEADERS = ("benchmark", "avg_active", "max_active",
                 "paper_avg", "paper_max")


#: Measured instruction mix per trace key.  Figure 5a needs only these
#: four floats per benchmark, so a rebuild in the same process reads no
#: trace at all.
_MIX_BY_TRACE: Dict[str, Dict[OpClass, float]] = {}


def fig5a_rows(runner: ExperimentRunner) -> List[Row]:
    """Instruction mix per benchmark, measured from the generated traces.

    Each trace is read through
    :func:`~repro.engine.jobs.load_or_build_kernel` with the runner's
    run cache (which the artifact's prefetch has already filled), so
    no trace is regenerated and at most one is held at a time.  The
    rows equal the measured columns of
    :func:`repro.workloads.characterization.instruction_mix_table`,
    value for value.
    """
    settings = runner.settings
    engine = runner.engine
    cache = engine.open_cache() if engine is not None else None
    rows: List[Row] = []
    for name in settings.benchmarks:
        key = trace_cache_key(name, settings.seed, settings.scale)
        mix = _MIX_BY_TRACE.get(key)
        if mix is None:
            mix = _MIX_BY_TRACE[key] = load_or_build_kernel(
                name, settings.seed, settings.scale,
                cache=cache).op_class_mix()
        rows.append([name] + [mix[cls] for cls in ALL_OP_CLASSES])
    return rows


def fig5b_rows(runner: ExperimentRunner) -> List[Row]:
    """Active-warp population per benchmark, from baseline runs."""
    from repro.workloads.specs import get_profile
    rows: List[Row] = []
    for name in runner.settings.benchmarks:
        result = runner.baseline(name)
        profile = get_profile(name)
        rows.append([name, result.stats.avg_active_warps,
                     result.stats.active_warp_max,
                     profile.paper_avg_active_warps,
                     profile.paper_max_active_warps])
    rows.sort(key=lambda r: -float(r[1]))
    return rows


# ---------------------------------------------------------------------------
# Figure 6: critical wakeups vs runtime correlation
# ---------------------------------------------------------------------------

FIG6_HEADERS = ("benchmark", "pearson_r", "max_cw_per_kcyc",
                "worst_norm_runtime")


def fig6_rows(runner: ExperimentRunner) -> List[Row]:
    """Per-benchmark critical-wakeup correlation summary (Figure 6)."""
    from repro.harness.sweeps import idle_detect_sweep
    rows: List[Row] = []
    for result in idle_detect_sweep(runner):
        rows.append([result.benchmark, result.pearson,
                     max(x for x, _ in result.points),
                     max(y for _, y in result.points)])
    return rows


# ---------------------------------------------------------------------------
# Figure 8: power-gating opportunity
# ---------------------------------------------------------------------------

FIG8A_HEADERS = ("benchmark", "gates", "coord_blackout", "warped_gates")
FIG8B_HEADERS = ("benchmark", "conv_pg", "gates", "warped_gates")
FIG8C_HEADERS = ("benchmark", "gates", "coord_blackout", "warped_gates")


def fig8a_rows(runner: ExperimentRunner,
               kind: ExecUnitKind = ExecUnitKind.INT) -> List[Row]:
    """Idle-cycle fraction normalised to the baseline scheduler."""
    rows: List[Row] = []
    for name in runner.settings.benchmarks:
        base = runner.baseline(name).idle_fraction(kind)
        row: Row = [name]
        for technique in FIG8_TECHNIQUES:
            frac = runner.run(name, technique).idle_fraction(kind)
            # A benchmark whose baseline never idles has no defined
            # ratio: NaN, which the geomean row excludes (a 0.0 here
            # used to collapse the suite geomean through the clamp).
            row.append(frac / base if base else math.nan)
        rows.append(row)
    rows.append(_geomean_row(rows))
    return rows


def fig8b_rows(runner: ExperimentRunner,
               kind: ExecUnitKind = ExecUnitKind.INT) -> List[Row]:
    """Signed compensated-state residency (Figure 8b)."""
    techniques = ("conv_pg", "gates", "warped_gates")
    rows: List[Row] = []
    for name in runner.settings.benchmarks:
        row: Row = [name]
        for technique in techniques:
            row.append(runner.run(name, technique).compensated_metric(kind))
        rows.append(row)
    means: Row = ["mean"]
    for col in range(1, len(techniques) + 1):
        means.append(sum(float(r[col]) for r in rows) / len(rows))
    rows.append(means)
    return rows


def fig8c_rows(runner: ExperimentRunner,
               kind: ExecUnitKind = ExecUnitKind.INT) -> List[Row]:
    """Gating events (wakeups) normalised to conventional gating."""
    rows: List[Row] = []
    for name in runner.settings.benchmarks:
        conv = runner.run(name, "conv_pg")
        conv_events = conv.gating_totals(kind).gating_events
        row: Row = [name]
        for technique in FIG8_TECHNIQUES:
            events = runner.run(name, technique) \
                .gating_totals(kind).gating_events
            row.append(events / conv_events if conv_events else math.nan)
        rows.append(row)
    rows.append(_geomean_row(rows))
    return rows


def _geomean_row(rows: Sequence[Row]) -> Row:
    """Summary row under the shared exclusion policy.

    Non-finite and non-positive cells are excluded per column (the
    :func:`repro.harness.experiment.geomean_excluding` policy) instead
    of clamped — one degenerate benchmark used to drag a suite geomean
    down ~9 orders of magnitude through a 1e-9 floor.  When any column
    excluded values, the label cell reports the worst-case count so the
    reduced population is visible in every rendered table.
    """
    excluded_max = 0
    values_by_col: List[float] = []
    for col in range(1, len(rows[0])):
        value, excluded = geomean_excluding(float(r[col]) for r in rows)
        values_by_col.append(value)
        excluded_max = max(excluded_max, excluded)
    label = ("geomean" if not excluded_max
             else f"geomean ({excluded_max} excluded)")
    return [label] + values_by_col


# ---------------------------------------------------------------------------
# Figure 9: static energy savings
# ---------------------------------------------------------------------------

FIG9_HEADERS = ("benchmark", "conv_pg", "gates", "naive_blackout",
                "coord_blackout", "warped_gates")


def fig9_rows(runner: ExperimentRunner,
              kind: ExecUnitKind) -> List[Row]:
    """Per-benchmark static savings + suite average (Figures 9a / 9b)."""
    benchmarks = (runner.settings.benchmarks if kind is ExecUnitKind.INT
                  else runner.fp_benchmarks())
    rows: List[Row] = []
    for name in benchmarks:
        row: Row = [name]
        for technique in PAPER_TECHNIQUES:
            row.append(runner.static_savings(name, technique, kind))
        rows.append(row)
    means: Row = ["average"]
    for col in range(1, len(PAPER_TECHNIQUES) + 1):
        means.append(sum(float(r[col]) for r in rows) / len(rows))
    rows.append(means)
    return rows


def chip_savings_estimate(runner: ExperimentRunner) -> Dict[str, float]:
    """Section 7.3 arithmetic from the measured Figure 9 averages."""
    int_avg = fig9_rows(runner, ExecUnitKind.INT)[-1][-1]
    fp_avg = fig9_rows(runner, ExecUnitKind.FP)[-1][-1]
    return {
        "int_static_savings": float(int_avg),
        "fp_static_savings": float(fp_avg),
        "chip_savings_at_33pct_leakage": chip_level_savings(
            float(int_avg), float(fp_avg), leakage_share_of_chip=0.33),
        "chip_savings_at_50pct_leakage": chip_level_savings(
            float(int_avg), float(fp_avg), leakage_share_of_chip=0.50),
    }


# ---------------------------------------------------------------------------
# Figure 10: performance impact
# ---------------------------------------------------------------------------

FIG10_HEADERS = ("benchmark", "conv_pg", "gates", "naive_blackout",
                 "coord_blackout", "warped_gates")


def fig10_rows(runner: ExperimentRunner) -> List[Row]:
    """Normalised performance per benchmark + geomean (Figure 10)."""
    rows: List[Row] = []
    for name in runner.settings.benchmarks:
        base = runner.baseline(name)
        row: Row = [name]
        for technique in PAPER_TECHNIQUES:
            row.append(normalized_performance(
                base, runner.run(name, technique)))
        rows.append(row)
    rows.append(_geomean_row(rows))
    return rows


# ---------------------------------------------------------------------------
# Section 7.5: hardware overhead
# ---------------------------------------------------------------------------

SEC75_HEADERS = ("total_bits", "area_um2", "area_pct", "dynamic_pct",
                 "leakage_pct")


def sec75_rows() -> List[Row]:
    """Counter inventory overhead summary (section 7.5)."""
    report = overhead_report()
    return [[total_storage_bits(), report.area_um2,
             100.0 * report.area_fraction,
             100.0 * report.dynamic_fraction,
             100.0 * report.leakage_fraction]]
