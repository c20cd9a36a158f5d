"""The benchmark's three workloads.

Each workload is a closed loop from one process: the next operation
starts when the previous one has finished.  Its only input is the
trace-generation seed; modelled state starts empty in every cell, as
in the paper's runs.  A run measures ``passes(workload, seconds)``
whole passes, then checks every result outside the timed part.

``WHY`` and ``LAYERS`` record why each workload exists and which layers
it is predicted to exercise; README.md has the full table.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import checks

#: The two techniques the direct workloads simulate: the paper's
#: conventional gating and its full system.
TECHNIQUES = ("conv_pg", "warped_gates")

#: Worker processes of the artifact workload's engine.
ENGINE_WORKERS = 2

#: Warm artifact regenerations per run (their median is reported).
WARM_PASSES = 5

#: Length of one pass on a 2-core container, in seconds.  It turns a
#: run's ``--seconds`` into a pass count that does not depend on how
#: fast the machine is, so every run of a workload does the same work
#: (and peak memory, which grows with the pass count, stays put).
NOMINAL_PASS_SECONDS = {"suite_1sm": 13.0, "gtx480": 17.0,
                        "artifact": 60.0}


def passes(workload: str, seconds: float) -> int:
    """Whole passes in a run of ``seconds``: at least one."""
    return max(1, math.ceil(seconds / NOMINAL_PASS_SECONDS[workload]))

WHY = {
    "suite_1sm": "dense single-SM regime: most cycles run in dense-kernel "
                 "windows, so a cycle-core change shows here first",
    "gtx480": "sparse 15-SM parts: most SM-cycles are span-skipped and the "
              "dense kernel never runs, so span-skipping cost shows here",
    "artifact": "the end-to-end paper artifact, the only workload through "
                "service, engine, cache, harness and obs; the warm pass "
                "isolates orchestration cost",
}

LAYERS = {
    "suite_1sm": ("workloads", "core", "sim.kernel", "sim.stepper",
                  "power", "harness.headlines"),
    "gtx480": ("workloads", "core", "sim.gpu", "sim.fastforward",
               "sim.stepper", "power", "harness.headlines"),
    "artifact": ("service", "engine", "cache", "harness", "obs",
                 "analysis", "workloads", "core", "sim", "power"),
}


@dataclass
class Pass:
    """One timed pass: wall seconds and simulated work."""

    seconds: float
    cycles: int
    instructions: int


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    passes: List[Pass] = field(default_factory=list)
    warm_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    headlines: list = field(default_factory=list)
    #: Per-layer values (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)

    def fail(self, problems: List[str]) -> None:
        """Count one operation, failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# ---------------------------------------------------------------------------
# shared report: the per-result static savings a `repro run` user gets
# ---------------------------------------------------------------------------

def static_savings(result, kind) -> float:
    """Fig. 9 metric of one result: net static energy saved vs no gating
    (the computation ``ExperimentRunner.static_savings`` makes)."""
    from repro.power import energy
    from repro.power.params import (EnergyParams, FP_DYN_PER_ISSUE,
                                    GatingParams, INT_DYN_PER_ISSUE)
    from repro.isa.optypes import ExecUnitKind
    dyn = INT_DYN_PER_ISSUE if kind is ExecUnitKind.INT else FP_DYN_PER_ISSUE
    params = EnergyParams.for_unit(dyn_per_issue=dyn,
                                   bet=GatingParams().bet)
    return energy.domain_energy(result.unit_activity(kind),
                                params).static_savings


def savings_headlines(cells: Dict[Tuple[str, str], object]) -> list:
    """Fig. 9 INT/FP averages and the section 7.3 chip estimate of the
    two simulated techniques, checked against the paper's bands."""
    from repro.harness import artifact
    from repro.isa.optypes import ExecUnitKind
    from repro.power.energy import chip_level_savings
    from repro.workloads import BENCHMARK_NAMES, INTEGER_ONLY_BENCHMARKS
    fp_names = [b for b in BENCHMARK_NAMES
                if b not in INTEGER_ONLY_BENCHMARKS]
    measured: Dict[str, float] = {}
    for kind, group, names in ((ExecUnitKind.INT, "fig9_int",
                                BENCHMARK_NAMES),
                               (ExecUnitKind.FP, "fig9_fp", fp_names)):
        for technique in TECHNIQUES:
            values = [static_savings(cells[(name, technique)], kind)
                      for name in names]
            measured[f"{group}/{technique}"] = sum(values) / len(values)
    for share, key in ((0.33, "chip_savings_at_33pct_leakage"),
                       (0.50, "chip_savings_at_50pct_leakage")):
        measured[f"sec73/{key}"] = chip_level_savings(
            measured["fig9_int/warped_gates"],
            measured["fig9_fp/warped_gates"], leakage_share_of_chip=share)
    return artifact.evaluate_headlines(measured)


# ---------------------------------------------------------------------------
# direct workloads: suite_1sm and gtx480
# ---------------------------------------------------------------------------

def _direct_pass(seed: int, device: bool, outcome: Outcome,
                 ) -> Dict[Tuple[str, str], object]:
    """One timed pass of 18 benchmarks x TECHNIQUES; returns results."""
    from repro.core import techniques
    from repro.sim.gpu import GPU
    from repro.workloads import BENCHMARK_NAMES, registry
    from repro.workloads.specs import get_profile

    # Trace generation is part of every cold run a user makes, so the
    # in-process trace memo must not carry over from the last pass.
    registry._generate_cached.cache_clear()
    cells: Dict[Tuple[str, str], object] = {}
    cycles = instructions = 0
    start = time.perf_counter()
    for name in BENCHMARK_NAMES:
        kernel = registry.build_kernel(name, seed=seed, scale=1.0)
        latency = get_profile(name).dram_latency
        for technique in TECHNIQUES:
            try:
                if device:
                    result = GPU.from_preset(
                        "gtx480", technique, dram_latency=latency,
                        fast_forward=True).run(kernel)
                    cycles += sum(r.cycles for r in result.sm_results)
                    instructions += result.total_instructions
                else:
                    result = techniques.build_sm(
                        kernel, technique, dram_latency=latency,
                        fast_forward=True).run()
                    cycles += result.cycles
                    instructions += result.stats.instructions_retired
            except Exception as exc:  # an operation that raises fails
                result = exc
            cells[(name, technique)] = result
    outcome.passes.append(Pass(time.perf_counter() - start, cycles,
                               instructions))
    return cells


def _check_direct(cells, seed: int, device: bool, outcome: Outcome,
                  ) -> List[str]:
    """Invariants per cell; returns the per-cell digests in run order."""
    from repro.core.digest import device_result_digest, result_digest
    from repro.workloads import registry
    digests: List[str] = []
    for (name, technique), result in cells.items():
        if isinstance(result, Exception):
            outcome.fail([f"{name}/{technique} raised {result!r}"])
            digests.append("raised")
            continue
        expected = registry.build_kernel(name, seed=seed,
                                         scale=1.0).total_instructions
        if device:
            outcome.fail(checks.device_violations(result, expected))
            digests.append(device_result_digest(result))
        else:
            outcome.fail(checks.result_violations(result, expected))
            digests.append(result_digest(result))
    return digests


def run_direct(seed: int, n_passes: int, device: bool,
               tracer=None) -> Outcome:
    outcome = Outcome()
    cells: Dict = {}
    for _ in range(n_passes):
        cells = _direct_pass(seed, device, outcome)
    if tracer is not None:
        outcome.layers = _layer_values(tracer, len(outcome.passes))
        tracer.reset()
    # The report is rebuilt from held results, like a warm artifact pass.
    headlines: list = []
    if not any(isinstance(r, Exception) for r in cells.values()):
        t0 = time.perf_counter()
        headlines = savings_headlines(cells)
        outcome.warm_seconds.append(time.perf_counter() - t0)
    if tracer is not None:
        outcome.layers.update(_layer_values(tracer, 1, prefix="warm."))
        tracer.uninstall()
    digests = _check_direct(cells, seed, device, outcome)
    outcome.headlines = headlines
    outcome.digest = checks.combined_digest(
        digests + [f"{c.metric}={c.measured!r}" for c in headlines])
    return outcome


# ---------------------------------------------------------------------------
# artifact workload
# ---------------------------------------------------------------------------

#: Which figure each headline group is read from (a FAIL fails them).
HEADLINE_FIGURES = {
    "fig9_int": ("fig9a",), "fig9_fp": ("fig9b",), "fig10": ("fig10",),
    "fig8b": ("fig8b",), "fig8c": ("fig8c",), "fig3": ("fig3",),
    "sec73": ("fig9a", "fig9b"), "sec75": ("sec75",),
}


def _new_runner(seed: int, cache: Path):
    from repro.engine import ParallelEngine
    from repro.harness.experiment import ExperimentRunner, ExperimentSettings
    engine = ParallelEngine(jobs=ENGINE_WORKERS, cache_dir=str(cache))
    return ExperimentRunner(ExperimentSettings(seed=seed, scale=1.0),
                            engine=engine)


def _add_phases(phases: Dict[str, float], manifests) -> None:
    """Add the manifests' per-phase worker seconds into ``phases``."""
    for manifest in manifests:
        for phase, value in manifest.wall_seconds.items():
            phases[phase] = phases.get(phase, 0.0) + value


def run_artifact(seed: int, n_passes: int, work: Path,
                 tracer=None) -> Outcome:
    from repro.engine.cache import RunCache
    from repro.harness.artifact import generate_artifact

    outcome = Outcome()
    spool = work / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    cold_phases: Dict[str, float] = {}
    for index in range(n_passes):
        cache = work / f"cache{index}"
        shutil.rmtree(cache, ignore_errors=True)
        runner = _new_runner(seed, cache)
        t0 = time.perf_counter()
        report = generate_artifact(runner, work / "cold", check=True)
        runner.engine.close()
        elapsed = time.perf_counter() - t0
        fresh = [m for m in runner.manifests if not m.cache_hit]
        outcome.passes.append(Pass(elapsed,
                                   sum(m.cycles for m in fresh),
                                   sum(m.instructions for m in fresh)))
        _add_phases(cold_phases, runner.manifests)
    if tracer is not None:
        tracer.merge_spool(spool)
        outcome.layers = _layer_values(tracer, len(outcome.passes),
                                       phases=cold_phases)
        outcome.layers["cache.bytes"] = RunCache(cache).total_bytes()
        tracer.reset()

    warm_reports = []
    warm_simulated: List[int] = []
    warm_phases: Dict[str, float] = {}
    for _ in range(WARM_PASSES):
        warm = _new_runner(seed, cache)
        t0 = time.perf_counter()
        warm_reports.append(generate_artifact(warm, work / "warm",
                                              check=True))
        warm.engine.close()
        outcome.warm_seconds.append(time.perf_counter() - t0)
        _add_phases(warm_phases, warm.manifests)
        warm_simulated.append(sum(not m.cache_hit for m in warm.manifests))
    if tracer is not None:
        tracer.merge_spool(spool)
        outcome.layers.update(_layer_values(
            tracer, WARM_PASSES, prefix="warm.", phases=warm_phases))
        tracer.uninstall()

    digests = _check_artifact(runner, report,
                              zip(warm_reports, warm_simulated), cache,
                              outcome)
    outcome.headlines = report.checks
    outcome.digest = checks.combined_digest(digests)
    return outcome


def _check_artifact(runner, report, warm_passes, cache: Path,
                    outcome: Outcome) -> List[str]:
    """Cells and figures of the last cold pass, and the warm passes
    (``(report, cells simulated)`` pairs); returns digests."""
    from repro.core.digest import result_digest
    from repro.engine.cache import RunCache
    from repro.engine.jobs import load_or_build_kernel

    traces = RunCache(cache, janitor=False)
    expected: Dict[Tuple, int] = {}
    tickets = sorted(runner.service.tickets(), key=lambda t: repr(t.key))
    digests: List[str] = []
    for ticket in tickets:
        job = ticket.outcome
        if job is None or not job.ok:
            outcome.fail([f"{ticket.label}: engine outcome "
                          f"{getattr(job, 'status', None)}"])
            digests.append("failed")
            continue
        trace = (ticket.request.benchmark, ticket.request.seed,
                 ticket.request.scale)
        if trace not in expected:
            expected[trace] = load_or_build_kernel(
                *trace, cache=traces).total_instructions
        outcome.fail(checks.result_violations(job.result, expected[trace]))
        digests.append(result_digest(job.result))

    failing = {}
    for check in report.checks:
        if check.verdict == "FAIL":
            group = check.metric.split("/", 1)[0]
            for figure in HEADLINE_FIGURES.get(group, (group,)):
                failing.setdefault(figure, []).append(
                    f"{figure}: headline {check.metric} FAIL")
    cold = [c.to_dict() for c in report.checks]
    for figure in report.figures:
        outcome.fail(failing.get(figure.name, []))
    for warm, simulated in warm_passes:
        problems = [problem for figure in warm.figures
                    for problem in failing.get(figure.name, [])]
        if simulated:
            problems.append(f"warm pass simulated {simulated} cells")
        if [c.to_dict() for c in warm.checks] != cold:
            problems.append("warm headlines differ from the cold pass")
        outcome.fail(problems)
    digests += [f"{c.metric}={c.measured!r}" for c in report.checks]
    return digests


# ---------------------------------------------------------------------------
# per-layer values of a traced pass
# ---------------------------------------------------------------------------

def _layer_values(tracer, passes: int, prefix: str = "",
                  phases: Optional[Dict[str, float]] = None,
                  ) -> Dict[str, float]:
    """Per-pass layer metrics from the tracer's aggregates."""
    s, n, c = tracer.seconds, tracer.calls, tracer.counts.get
    out: Dict[str, float] = {
        "workloads.build_kernel_s": s("workloads.build_kernel"),
        "workloads.build_kernel_calls": n("workloads.build_kernel"),
        "core.build_sm_s": s("core.build_sm"),
        "core.build_sm_calls": n("core.build_sm"),
        "sim.run_s": s("sim.run"),
        "sim.runs": n("sim.run"),
        "sim.cycles": c("sim.cycles", 0),
        "sim.kernel_window_s": s("sim.kernel_window"),
        "sim.kernel_windows": n("sim.kernel_window"),
        "sim.kernel_window_cycles": c("sim.kernel_window_cycles", 0),
        "sim.ff_advance_s": s("sim.ff_advance"),
        "sim.ff_advance_calls": n("sim.ff_advance"),
        "sim.ff_skipped_cycles": c("sim.ff_skipped_cycles", 0),
        "sim.planner_overhead_cycles": c("sim.planner_overhead_cycles", 0),
        "sim.gpu_run_s": s("sim.gpu_run"),
        "sim.split_kernel_s": s("sim.split_kernel"),
        "power.energy_s": s("power.energy"),
        "service.prefetch_s": s("service.prefetch"),
        "service.execute_s": s("service.execute"),
        "service.submits": n("service.submit"),
        "service.deduped": c("service.deduped", 0),
        "engine.run_sim_jobs_s": s("engine.run_sim_jobs"),
        "engine.jobs": c("engine.jobs", 0),
        "cache.get_s": s("cache.get"),
        "cache.gets": n("cache.get"),
        "cache.put_s": s("cache.put"),
        "cache.puts": n("cache.put"),
        "cache.bytes": 0,  # the artifact sets it after its cold pass
        "harness.prefetch_s": s("harness.prefetch"),
        "harness.evaluate_headlines_s": s("harness.evaluate_headlines"),
        "obs.ledger_write_s": s("obs.ledger_write"),
        "obs.ledger_records": n("obs.ledger_write"),
    }
    from repro.harness.artifact import figure_names
    for figure in figure_names():
        out[f"harness.fig.{figure}_s"] = s(f"harness.fig.{figure}")
    out["sim.stepped_cycles"] = (out["sim.cycles"]
                                 - out["sim.kernel_window_cycles"]
                                 - out["sim.ff_skipped_cycles"])
    out["sim.stepped_s"] = (out["sim.run_s"] - out["sim.kernel_window_s"]
                            - out["sim.ff_advance_s"])
    phases = phases or {}
    out["engine.worker_simulate_s"] = phases.get("simulate", 0.0)
    out["engine.worker_build_trace_s"] = phases.get("build_trace", 0.0)
    out["engine.worker_cache_load_s"] = phases.get("cache_load", 0.0)
    out["trace.spans"] = sum(v[0] for v in tracer.spans.values())
    out = {name: value / passes for name, value in out.items()}

    # Ratios are per pass already.
    calls = out["sim.ff_advance_calls"]
    out["sim.ff_yield"] = c("sim.ff_skips", 0) / passes / calls \
        if calls else 0.0
    cycles = out["sim.cycles"]
    for part in ("kernel_window", "ff_skipped", "stepped"):
        out[f"sim.{part}_share"] = (out[f"sim.{part}_cycles"] / cycles
                                    if cycles else 0.0)
    gets = out["cache.gets"]
    out["cache.hit_ratio"] = c("cache.hits", 0) / passes / gets \
        if gets else 0.0
    busy = (out["engine.worker_simulate_s"]
            + out["engine.worker_build_trace_s"]
            + out["engine.worker_cache_load_s"])
    pool = ENGINE_WORKERS * out["engine.run_sim_jobs_s"]
    out["engine.pool_busy_ratio"] = busy / pool if pool else 0.0
    return {prefix + name: value for name, value in out.items()}

