"""Tests of the benchmark's correctness checks and per-layer tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import pytest

from perfbench import checks, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.25


def _cell(benchmark="hotspot", technique="warped_gates", fast_forward=True):
    from repro.core.techniques import build_sm
    from repro.workloads.registry import build_kernel
    from repro.workloads.specs import get_profile
    kernel = build_kernel(benchmark, seed=0, scale=SCALE)
    result = build_sm(kernel, technique,
                      dram_latency=get_profile(benchmark).dram_latency,
                      fast_forward=fast_forward).run()
    return kernel, result


@pytest.fixture(scope="module")
def cell():
    return _cell()


def test_sound_result_has_no_violations(cell):
    kernel, result = cell
    assert checks.result_violations(result, kernel.total_instructions) == []


@pytest.mark.parametrize("doctor, expected", [
    (lambda r: setattr(next(iter(r.stats.idle_trackers.values())),
                       "idle_cycles",
                       next(iter(r.stats.idle_trackers.values()))
                       .idle_cycles + 1), "busy"),
    (lambda r: setattr(next(iter(r.domain_stats.values())), "on_cycles",
                       next(iter(r.domain_stats.values())).on_cycles + 1),
     "waking"),
    (lambda r: setattr(next(iter(r.domain_stats.values())),
                       "compensated_cycles",
                       next(iter(r.domain_stats.values()))
                       .compensated_cycles + 1), "uncompensated"),
    (lambda r: setattr(r.stats, "instructions_retired",
                       r.stats.instructions_retired - 1), "retired"),
])
def test_doctored_result_is_a_failed_operation(doctor, expected):
    kernel, result = _cell()
    doctor(result)
    problems = checks.result_violations(result, kernel.total_instructions)
    assert problems and expected in problems[0]
    outcome = workloads.Outcome()
    outcome.fail(checks.result_violations(_cell()[1],
                                          kernel.total_instructions))
    outcome.fail(problems)
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_device_instruction_total_is_checked():
    from repro.sim.gpu import GPU
    from repro.workloads.registry import build_kernel
    kernel = build_kernel("bfs", seed=0, scale=SCALE)
    result = GPU.from_preset("gtx480", "conv_pg",
                             fast_forward=True).run(kernel)
    assert checks.device_violations(result, kernel.total_instructions) == []
    problems = checks.device_violations(result,
                                        kernel.total_instructions + 1)
    assert len(problems) == 1 and "SMs retired" in problems[0]


def test_accounting_check():
    sound = {"sim.cycles": 100, "sim.kernel_window_cycles": 60,
             "sim.ff_skipped_cycles": 10, "sim.stepped_cycles": 30,
             "sim.stepped_s": 0.5}
    assert checks.accounting_violations(sound) == []
    assert checks.accounting_violations(
        {**sound, "sim.stepped_cycles": 31})
    negative = checks.accounting_violations(
        {"sim.cycles": 0, "sim.stepped_s": -0.1})
    assert negative == ["sim.stepped_s is negative: -0.1"]


def test_combined_digest_is_order_sensitive():
    assert checks.combined_digest(["a", "b"]) \
        != checks.combined_digest(["b", "a"])
    assert checks.combined_digest(["a", "b"]) \
        == checks.combined_digest(["a", "b"])


def test_traced_cells_account_for_every_cycle(tmp_path):
    from repro.core import techniques
    from repro.sim.sm import StreamingMultiprocessor
    original_run = StreamingMultiprocessor.run
    original_build_sm = techniques.build_sm
    tracer = tracing.install(tmp_path)
    try:
        cycles = 0
        for benchmark in ("hotspot", "bfs"):
            cycles += _cell(benchmark)[1].cycles
        values = workloads._layer_values(tracer, passes=1)
    finally:
        tracer.uninstall()
    assert StreamingMultiprocessor.run is original_run
    assert techniques.build_sm is original_build_sm
    assert values["sim.runs"] == 2 and values["sim.cycles"] == cycles
    assert values["sim.kernel_window_cycles"] + \
        values["sim.ff_skipped_cycles"] > 0
    assert checks.accounting_violations(values) == []

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(values) | {"trace.wall_s", "warm.trace.wall_s",
                              "analysis.headline_pass",
                              "analysis.headline_err"}
    produced |= {f"warm.{name}" for name in values}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_worker_spans_reach_the_parent(tmp_path):
    from repro.engine import ParallelEngine
    from repro.harness.experiment import ExperimentRunner, ExperimentSettings
    spool = tmp_path / "spool"
    spool.mkdir()
    tracer = tracing.install(spool)
    try:
        engine = ParallelEngine(jobs=2, cache_dir=str(tmp_path / "cache"))
        runner = ExperimentRunner(
            ExperimentSettings(scale=SCALE, benchmarks=("hotspot", "bfs")),
            engine=engine)
        runner.prefetch([(b, t) for b in ("hotspot", "bfs")
                         for t in ("conv_pg", "warped_gates")])
        engine.close()
        assert tracer.merge_spool(spool) >= 1
        values = workloads._layer_values(tracer, passes=1)
    finally:
        tracer.uninstall()
    assert values["sim.runs"] == 4
    assert values["engine.jobs"] == 4
    # Each result once; each trace at least once (two workers may both
    # miss the same trace and build it).
    assert 6 <= values["cache.puts"] <= 8
    assert checks.accounting_violations(values) == []
