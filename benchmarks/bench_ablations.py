"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but the decompositions its design sections
argue for:

* How much of Blackout's win needs GATES' coalescing?
  (``blackout_no_gates`` vs ``naive_blackout``)
* What does GATES scheduling alone cost/do, without any gating?
  (``gates_no_pg`` vs ``baseline``)
* Does the two-level baseline matter, or would single-level
  round-robin behave the same under conventional gating?
  (``lrr_conv_pg`` vs ``conv_pg``)
* Is *any* warp clustering enough, or does GATES' type clustering
  specifically matter?  (``fetch_group_conv_pg`` — a Narasiman-style
  fetch-group scheduler — vs ``gates``-family results)
"""

from repro.analysis.report import format_table
from repro.harness.experiment import geomean, normalized_performance
from repro.isa.optypes import ExecUnitKind

from conftest import print_figure

ABLATION_TECHNIQUES = (
    "conv_pg",
    "lrr_conv_pg",
    "fetch_group_conv_pg",
    "ccws_conv_pg",
    "gates_no_pg",
    "naive_blackout",
    "blackout_no_gates",
    "warped_gates",
)


def regenerate(runner):
    rows = []
    for technique in ABLATION_TECHNIQUES:
        int_savings, fp_savings, perf = [], [], []
        for name in runner.settings.benchmarks:
            base = runner.baseline(name)
            result = runner.run(name, technique)
            int_savings.append(runner.static_savings(
                name, technique, ExecUnitKind.INT))
            if name in runner.fp_benchmarks():
                fp_savings.append(runner.static_savings(
                    name, technique, ExecUnitKind.FP))
            perf.append(normalized_performance(base, result))
        rows.append([technique,
                     sum(int_savings) / len(int_savings),
                     sum(fp_savings) / len(fp_savings),
                     geomean(perf)])
    return rows


def test_ablations(sweep_runner):
    rows = regenerate(sweep_runner)
    text = format_table(("technique", "int_savings", "fp_savings",
                         "geomean_perf"), rows,
                        title="Ablations: isolating each mechanism")
    print_figure("ABLATIONS", text)

    by_name = {r[0]: r for r in rows}
    # GATES alone (no PG) saves nothing -- it only shapes idleness.
    assert by_name["gates_no_pg"][1] == 0.0
    assert by_name["gates_no_pg"][2] == 0.0
    # Blackout without GATES still works (the state machine alone pays),
    # demonstrating the two mechanisms are separable.
    assert by_name["blackout_no_gates"][1] > 0.0
    # The full system beats conventional gating on savings.
    assert by_name["warped_gates"][1] > by_name["conv_pg"][1]
    # Every configuration stays within a sane performance band.
    for row in rows:
        assert row[3] > 0.85
