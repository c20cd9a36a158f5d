"""Figure 11: sensitivity to break-even time and wakeup delay.

Regenerates both panels: suite-average INT/FP static savings and
geomean performance for conventional power gating vs Warped Gates,
across BET in {9, 14, 19} (11a) and wakeup delay in {3, 6, 9} (11b).
The paper's shape: Warped Gates always wins, the gap widens at harsher
parameters, and conventional gating's performance collapses with a
nine-cycle wakeup while Warped Gates stays flat.
"""

from repro.analysis.report import format_table
from repro.harness.sweeps import (
    SWEEP_HEADERS,
    bet_sweep,
    sweep_rows,
    wakeup_sweep,
)

from conftest import print_figure


def by_cell(points):
    return {(p.value, p.technique): p for p in points}


def test_fig11a_bet_sensitivity(sweep_runner):
    points = bet_sweep(sweep_runner)
    text = format_table(SWEEP_HEADERS, sweep_rows(points),
                        title="Figure 11a: break-even time sensitivity")
    print_figure("FIG 11a", text + "\n\npaper: at BET 19, conv saves "
                 "only ~17% INT static while warped gates saves ~33% "
                 "(nearly 2x)")

    cells = by_cell(points)
    for bet in (9, 14, 19):
        conv = cells[(bet, "conv_pg")]
        warped = cells[(bet, "warped_gates")]
        # Warped Gates outperforms conventional gating at every BET.
        assert warped.int_savings > conv.int_savings
    # The savings gap widens as BET grows.
    gap = {bet: cells[(bet, "warped_gates")].int_savings
           - cells[(bet, "conv_pg")].int_savings
           for bet in (9, 19)}
    assert gap[19] > gap[9]


def test_fig11b_wakeup_sensitivity(sweep_runner):
    points = wakeup_sweep(sweep_runner)
    text = format_table(SWEEP_HEADERS, sweep_rows(points),
                        title="Figure 11b: wakeup delay sensitivity")
    print_figure("FIG 11b", text + "\n\npaper: at 9-cycle wakeup, conv "
                 "drops to 6%/10% INT/FP savings and ~10% perf loss; "
                 "warped gates sustains 33%/48% with ~3% loss")

    cells = by_cell(points)
    for wakeup in (3, 6, 9):
        conv = cells[(wakeup, "conv_pg")]
        warped = cells[(wakeup, "warped_gates")]
        assert warped.int_savings > conv.int_savings
        assert warped.fp_savings > conv.fp_savings
    # Warped Gates' savings stay nearly flat across wakeup delays while
    # conventional gating degrades.
    warped_drop = cells[(3, "warped_gates")].int_savings - \
        cells[(9, "warped_gates")].int_savings
    conv_drop = cells[(3, "conv_pg")].int_savings - \
        cells[(9, "conv_pg")].int_savings
    assert conv_drop >= warped_drop - 0.02
