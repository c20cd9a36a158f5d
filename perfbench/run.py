"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload gtx480 --seed 0 --seconds 17 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.  The two lines before it
give the paper-headline verdicts and the workload's combined identity
digest.  README.md in this directory describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Separate processes timed for setup_s (its value is their median).
SETUP_SAMPLES = 5


def _parse(argv):
    from perfbench.workloads import LAYERS, WHY
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="; ".join(f"{name}: {why} (layers: {', '.join(LAYERS[name])})"
                         for name, why in WHY.items()))
    parser.add_argument("--workload", required=True, choices=tuple(WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=17.0,
                        help="measurement length; sets the number of "
                             "whole passes (see workloads.passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the workload's objects, "
                             "print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


def _setup(workload: str, work: Path) -> None:
    """What a user pays before the first timed call: imports, plus the
    runner and engine objects for the artifact."""
    from repro.core import techniques  # noqa: F401
    from repro.harness import artifact  # noqa: F401
    from repro.sim.gpu import GPU  # noqa: F401
    from repro.workloads import registry  # noqa: F401
    if workload == "artifact":
        from perfbench.workloads import _new_runner
        _new_runner(0, work / "setup-cache").engine.close()


def _time_setup(workload: str) -> float:
    """Median wall time from process start to 'ready' of fresh setups."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--setup-only"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: {line!r}")
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest engine worker
    (ru_maxrss is in KiB on Linux).  Read before the setup probes run,
    so the only children counted are the workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _end_to_end(outcome, peak_rss_mb: float, setup_s: float) -> dict:
    wall = statistics.median(p.seconds for p in outcome.passes)
    cycles = statistics.median(p.cycles / p.seconds for p in outcome.passes)
    instr = statistics.median(p.instructions / p.seconds
                              for p in outcome.passes)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "sim_cycles_per_s": cycles,
        "sim_instr_per_s": instr,
        "peak_rss_mb": peak_rss_mb,
    }


def _headlines(headlines) -> dict:
    """PASS count and mean ``abs_error / fail_tol`` of the headlines."""
    return {
        "analysis.headline_pass": sum(c.verdict == "PASS"
                                      for c in headlines),
        "analysis.headline_err": (sum(c.abs_error / c.fail_tol
                                      for c in headlines) / len(headlines)
                                  if headlines else 0.0),
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / "perfbench" / "_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.setup_only:
            _setup(args.workload, work)
            print("ready", flush=True)
            return 0
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _setup(args.workload, work)
    from perfbench import checks, tracing, workloads

    tracer = tracing.install(work / "spool") if args.trace else None
    try:
        n_passes = workloads.passes(args.workload, args.seconds)
        if args.workload == "artifact":
            outcome = workloads.run_artifact(args.seed, n_passes, work,
                                             tracer)
        else:
            outcome = workloads.run_direct(args.seed, n_passes,
                                           args.workload == "gtx480", tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    headlines = _headlines(outcome.headlines)
    # A run whose cells raised has no report; it is already incorrect.
    warm = (statistics.median(outcome.warm_seconds)
            if outcome.warm_seconds else 0.0)
    if args.trace:
        values = {**outcome.layers, **headlines}
        values["trace.wall_s"] = statistics.median(
            p.seconds for p in outcome.passes)
        values["warm.trace.wall_s"] = warm
        problems = checks.accounting_violations(values)
        outcome.problems += problems
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(outcome, _peak_rss_mb(),
                             _time_setup(args.workload))
        problems = []
        wanted = spec["end_to_end"]

    for problem in outcome.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    verdicts = [c.verdict for c in outcome.headlines]
    print(f"headlines {args.workload} seed={args.seed}: "
          + ", ".join(f"{verdicts.count(v)} {v}"
                      for v in ("PASS", "WARN", "FAIL"))
          + f"; mean error/fail_tol "
            f"{headlines['analysis.headline_err']:.4f}; rebuilt from held "
            f"results in {warm:.4f} s (median of "
            f"{len(outcome.warm_seconds)})")
    print(f"digest {args.workload} seed={args.seed} {outcome.digest}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
