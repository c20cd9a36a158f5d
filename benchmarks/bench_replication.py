"""Multi-seed replication of the headline table.

The synthetic traces are random draws from statistical models, so the
headline numbers carry sampling noise.  This bench reruns the Figure
9/10 summary over several seeds and reports mean +/- sample standard
deviation, verifying that the paper's qualitative orderings are stable
properties of the models rather than one lucky draw.
"""

from repro.analysis.report import format_table
from repro.harness.experiment import ExperimentSettings
from repro.harness.replication import (
    REPLICATION_HEADERS,
    replicate,
    replication_rows,
)

from conftest import print_figure

SEEDS = (0, 1, 2)


def regenerate(figure_scale):
    settings = ExperimentSettings(
        scale=min(figure_scale, 0.5),
        benchmarks=("hotspot", "sgemm", "cutcp", "srad", "bfs", "mri"))
    return replicate(settings, seeds=SEEDS)


def test_replicated_headline(figure_scale):
    results = regenerate(figure_scale)
    rows = replication_rows(results)
    text = format_table(REPLICATION_HEADERS, rows,
                        title=f"Headline metrics over {len(SEEDS)} "
                              f"seeds (6-benchmark subset)")
    print_figure("REPLICATION", text + "\n\nthe qualitative orderings "
                 "(blackout > conventional savings; warped gates "
                 "recovers performance) must hold at every seed")

    by_name = {r.technique: r for r in results}
    conv = by_name["conv_pg"]
    warped = by_name["warped_gates"]
    naive = by_name["naive_blackout"]
    # Mean orderings across seeds.
    assert warped.int_savings.mean > conv.int_savings.mean
    assert naive.int_savings.mean > conv.int_savings.mean
    assert warped.performance.mean >= naive.performance.mean - 0.01
    # Sampling noise stays small relative to the effects.
    assert warped.int_savings.stdev < 0.1
    assert warped.performance.stdev < 0.05
