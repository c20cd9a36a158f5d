#!/usr/bin/env python3
"""Quickstart: compare Warped Gates against its baselines on one benchmark.

Runs the paper's representative benchmark (hotspot) under the no-gating
baseline, conventional power gating, and the full Warped Gates system,
then prints the headline metrics: INT/FP static energy savings, the
idle-period region split (Figure 3's view), and normalised performance.

Usage::

    python examples/quickstart.py [benchmark] [--scale 1.0]
"""

import argparse

from repro.analysis.idle_periods import region_fractions
from repro.analysis.report import format_fraction, format_table
from repro.harness.experiment import (
    ExperimentRunner,
    ExperimentSettings,
    normalized_performance,
)
from repro.isa.optypes import ExecUnitKind
from repro.workloads.specs import BENCHMARK_NAMES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="hotspot",
                        choices=BENCHMARK_NAMES)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    args = parser.parse_args()

    settings = ExperimentSettings(scale=args.scale,
                                  benchmarks=(args.benchmark,))
    runner = ExperimentRunner(settings)
    techniques = ("conv_pg", "warped_gates")

    base = runner.baseline(args.benchmark)
    print(f"benchmark: {args.benchmark}  "
          f"(cycles={base.cycles}, IPC={base.stats.ipc:.2f}, "
          f"avg active warps={base.stats.avg_active_warps:.1f})\n")

    rows = []
    for technique in techniques:
        result = runner.run(args.benchmark, technique)
        int_sav = runner.static_savings(args.benchmark, technique,
                                        ExecUnitKind.INT)
        fp_sav = runner.static_savings(args.benchmark, technique,
                                       ExecUnitKind.FP)
        regions = region_fractions(
            result.idle_histogram(ExecUnitKind.INT),
            idle_detect=settings.gating.idle_detect,
            bet=settings.gating.bet)
        rows.append([
            technique,
            format_fraction(int_sav),
            format_fraction(fp_sav),
            f"{normalized_performance(base, result):.3f}",
            f"{regions.wasted:.0%}/{regions.loss:.0%}/{regions.gain:.0%}",
        ])
    print(format_table(
        ("technique", "int static saved", "fp static saved",
         "norm. perf", "idle regions (waste/loss/gain)"),
        rows, title="Warped Gates quickstart"))
    print("\nExpected shape: Warped Gates saves more static energy than "
          "conventional gating, empties the loss region, and keeps "
          "performance within ~1-2% of baseline.")


if __name__ == "__main__":
    main()
