"""The paper's figure shapes, checked on a generated artifact directory.

The paper's claims are orderings and ranges: Blackout variants save
more static energy than conventional gating (Fig. 9), Warped Gates
gets back to about 1% performance loss (Fig. 10), GATES moves idle
periods out of the too-short region (Fig. 3).  ``repro figures
--check`` bands the quoted headline numbers; this module asserts the
orderings around them.  It reads each figure's ``data.json`` and
simulates nothing.

The shapes hold at the scale the bands were calibrated for (1.0, all
18 benchmarks), not at the tier-1 fixture's reduced scale, so the
module runs only against a full-scale artifact::

    PYTHONPATH=src python -m repro --jobs 2 figures --out results-full --check
    PYTHONPATH=src python -m pytest tests/harness/test_paper_shapes.py \\
        --artifact-dir results-full

Without ``--artifact-dir`` every test skips; a directory that does not
exist fails.
"""

import json
from pathlib import Path

import pytest

from repro.harness.artifact import FIGURES
from repro.harness.export import load_json_rows
from repro.power.energy import chip_level_savings
from repro.workloads.characterization import count_low_occupancy
from repro.workloads.specs import BENCHMARK_NAMES, INTEGER_ONLY_BENCHMARKS


@pytest.fixture(scope="module")
def artifact_dir(request) -> Path:
    raw = request.config.getoption("--artifact-dir")
    if raw is None:
        pytest.skip("needs --artifact-dir DIR, a full-scale "
                    "`repro figures` output directory")
    path = Path(raw)
    if not path.is_dir():
        pytest.fail(f"--artifact-dir {raw}: no such directory")
    return path


def records(artifact_dir: Path, figure: str):
    return load_json_rows(artifact_dir / figure / "data.json")


def by_label(rows):
    """Rows keyed by their first column (benchmark, config, ...)."""
    return {next(iter(row.values())): row for row in rows}


@pytest.mark.parametrize("figure", [name for name, spec in FIGURES.items()
                                    if spec.simulates])
def test_artifact_is_full_scale(artifact_dir, figure):
    manifest = json.loads(
        (artifact_dir / figure / "manifest.json").read_text())
    assert manifest["scale"] == 1.0
    assert sorted(manifest["benchmarks"]) == sorted(BENCHMARK_NAMES)


def test_fig1b_static_dominates_until_gated(artifact_dir):
    rows = {(r["config"], r["unit"]): r
            for r in records(artifact_dir, "fig1b")}
    base_int, base_fp = rows[("baseline", "int")], rows[("baseline", "fp")]
    # FP is more static-dominated than INT; conventional gating turns
    # some static energy into savings plus a visible overhead.
    assert base_fp["static"] > base_int["static"]
    assert rows[("conv_pg", "int")]["static"] < base_int["static"]
    assert rows[("conv_pg", "fp")]["static"] < base_fp["static"]
    assert rows[("conv_pg", "int")]["overhead"] > 0.0


def test_fig3_regions(artifact_dir):
    rows = by_label(records(artifact_dir, "fig3"))
    conv, gates, blackout = rows["conv_pg"], rows["gates"], rows["blackout"]
    # (a) Short periods dominate under the baseline scheduler.
    assert conv["lt_idle_detect"] > 0.5
    # (b) GATES moves mass out of the too-short region into the gain one.
    assert gates["lt_idle_detect"] < conv["lt_idle_detect"]
    assert gates["gain_region"] > conv["gain_region"]
    # (c) Blackout empties the loss region entirely.
    assert blackout["loss_region"] == 0.0
    assert blackout["gain_region"] > gates["gain_region"]


def test_fig5a_instruction_mix(artifact_dir):
    rows = by_label(records(artifact_dir, "fig5a"))
    assert len(rows) == 18
    for name, row in rows.items():
        if name in INTEGER_ONLY_BENCHMARKS:
            assert row["fp"] == 0.0
        else:
            assert row["fp"] > 0.05
        mix = row["int"] + row["fp"] + row["sfu"] + row["ldst"]
        assert abs(mix - 1.0) < 1e-9


def test_fig5b_active_warps(artifact_dir):
    rows = records(artifact_dir, "fig5b")
    assert len(rows) == 18
    for row in rows:
        assert 0.0 < row["avg_active"] <= 48.0
        assert row["avg_active"] <= row["max_active"]
    # The paper's low-occupancy group (5 of 18 under ten warps) exists.
    assert count_low_occupancy(
        [{"avg_active_warps": r["avg_active"]} for r in rows]) >= 3


def test_fig6_critical_wakeups_track_slowdown(artifact_dir):
    rows = records(artifact_dir, "fig6")
    assert all(-1.0 <= r["pearson_r"] <= 1.0 for r in rows)
    # Some benchmark links critical wakeups strongly to slowdown.  A
    # non-zero r also means that benchmark's sweep spanned a range of
    # wakeup rates: pearson_r is 0.0 on a constant axis.
    assert max(r["pearson_r"] for r in rows) > 0.5


def test_fig8a_idle_fraction_stays_in_ballpark(artifact_dir):
    geo = records(artifact_dir, "fig8a")[-1]
    assert geo["benchmark"] == "geomean"
    for technique in ("gates", "coord_blackout", "warped_gates"):
        assert 0.7 < geo[technique] < 1.5


def test_fig8b_compensated_residency(artifact_dir):
    rows = records(artifact_dir, "fig8b")
    mean = rows[-1]
    assert mean["benchmark"] == "mean"
    # Compensated residency dominates at suite level for every
    # technique, and Blackout keeps the per-benchmark overhang bounded.
    for technique in ("conv_pg", "gates", "warped_gates"):
        assert mean[technique] > 0.0
    for row in rows[:-1]:
        assert row["warped_gates"] > -0.35


def test_fig8c_adaptation_cuts_events(artifact_dir):
    geo = records(artifact_dir, "fig8c")[-1]
    assert geo["benchmark"] == "geomean"
    assert geo["warped_gates"] <= geo["gates"] + 0.02
    for technique in ("gates", "coord_blackout", "warped_gates"):
        assert 0.3 < geo[technique] < 1.6


@pytest.mark.parametrize("figure", ["fig9a", "fig9b"])
def test_fig9_blackout_beats_conventional(artifact_dir, figure):
    avg = records(artifact_dir, figure)[-1]
    assert avg["benchmark"] == "average"
    conv = avg["conv_pg"]
    assert avg["naive_blackout"] > conv
    assert avg["coord_blackout"] > conv
    assert avg["warped_gates"] > conv
    # The full system keeps (approximately) the best savings, and
    # everything saves net energy at suite level.
    assert avg["warped_gates"] >= avg["naive_blackout"] * 0.9
    assert conv > 0


def test_fig9b_excludes_integer_only_benchmarks(artifact_dir):
    names = [r["benchmark"] for r in records(artifact_dir, "fig9b")]
    assert names[-1] == "average"
    assert sorted(names[:-1]) == sorted(
        n for n in BENCHMARK_NAMES if n not in INTEGER_ONLY_BENCHMARKS)


def test_sec73_chip_level_estimate(artifact_dir):
    int_avg = records(artifact_dir, "fig9a")[-1]["warped_gates"]
    fp_avg = records(artifact_dir, "fig9b")[-1]["warped_gates"]
    at_33 = chip_level_savings(int_avg, fp_avg, leakage_share_of_chip=0.33)
    at_50 = chip_level_savings(int_avg, fp_avg, leakage_share_of_chip=0.50)
    assert 0.0 < at_33 < 0.05
    assert at_50 > at_33


def test_fig10_warped_gates_recovers_performance(artifact_dir):
    geo = records(artifact_dir, "fig10")[-1]
    assert geo["benchmark"] == "geomean"
    for technique in ("conv_pg", "gates", "naive_blackout",
                      "coord_blackout", "warped_gates"):
        assert geo[technique] > 0.9
    # Best of the three Blackout variants, and close to conventional.
    assert geo["warped_gates"] >= geo["naive_blackout"]
    assert geo["warped_gates"] >= geo["coord_blackout"] - 0.01
    assert geo["warped_gates"] > 0.95


def test_sec75_overhead_magnitudes(artifact_dir):
    (row,) = records(artifact_dir, "sec75")
    assert row["area_pct"] < 1e-2        # paper: 0.003% of the SM
    assert row["dynamic_pct"] < 1e-1     # paper: 0.08% dynamic
    assert row["leakage_pct"] < 1e-2     # paper: 0.0007% leakage
