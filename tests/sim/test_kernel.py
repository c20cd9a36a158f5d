"""Dense-step kernel: windowing, resync and equality unit tests.

The golden identity suite pins whole kernel-driven runs bit-identical;
these tests exercise the kernel's moving parts directly — window
boundaries, drain inside a window, interleaving kernel windows with
serial stepping — and the fast path that alternates kernel windows
with span skips.
"""

import pytest

from repro.core.techniques import build_sm
from repro.sim.kernel import DenseStepKernel
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile
from tests.sim.identity import canonical_result, run_kernel_to_drain

SCALE = 0.2


def _build(benchmark: str, technique: str, **kwargs):
    kernel = build_kernel(benchmark, seed=0, scale=SCALE)
    return build_sm(kernel, technique,
                    dram_latency=get_profile(benchmark).dram_latency,
                    **kwargs)


def _serial_result(benchmark: str, technique: str):
    return _build(benchmark, technique).run()


def _prepared(benchmark: str, technique: str):
    """An SM ready to be driven by a kernel core directly."""
    sm = _build(benchmark, technique)
    sm._ran = True
    sm.scheduler.reset()
    sm._prepare()
    return sm


@pytest.mark.parametrize("technique", ("baseline", "warped_gates"))
@pytest.mark.parametrize("bench_name", ("hotspot", "bfs"))
def test_forced_kernel_bit_identical(bench_name, technique):
    serial = _serial_result(bench_name, technique)
    forced = run_kernel_to_drain(_build(bench_name, technique))
    assert forced.cycles == serial.cycles
    assert forced.metrics == serial.metrics
    assert forced.domain_stats == serial.domain_stats
    assert forced.warp_records == serial.warp_records
    assert canonical_result(forced) == canonical_result(serial)


def test_window_boundaries_are_invisible():
    """Many short windows equal one long window equal the serial run.

    Every window entry does a full resync from the live SM state, so
    chopping the run into arbitrary windows must not change anything.
    """
    serial = canonical_result(_serial_result("bfs", "gates"))
    sm = _prepared("bfs", "gates")
    core = DenseStepKernel(sm)
    cycle = 0
    while not sm._drained():
        cycle = core.run_window(cycle, cycle + 97)
    assert core.windows > 1
    assert canonical_result(sm._collect(cycle)) == serial


def test_drain_stops_window_early():
    """A window past the drain point returns at the drain cycle."""
    expected = _serial_result("hotspot", "baseline").cycles
    sm = _prepared("hotspot", "baseline")
    core = DenseStepKernel(sm)
    end = core.run_window(0, expected + 10_000)
    assert sm._drained()
    assert end == expected
    assert core.cycles == expected


def test_kernel_windows_interleave_with_serial_stepping():
    """Kernel windows and serial steps compose to the same run.

    This is the fast-forward handoff shape: some cycles stepped by the
    serial loop, some handed to the kernel, resyncing each time.
    """
    serial = canonical_result(_serial_result("bfs", "conv_pg"))
    sm = _prepared("bfs", "conv_pg")
    core = DenseStepKernel(sm)
    cycle = 0
    turn = 0
    while not sm._drained():
        if turn % 2:
            cycle = core.run_window(cycle, cycle + 64)
        else:
            for _ in range(64):
                if sm._drained():
                    break
                sm._step(cycle)
                cycle += 1
        turn += 1
    assert canonical_result(sm._collect(cycle)) == serial


def test_single_window_run_equals_serial():
    """One window spanning the whole run reproduces the serial run."""
    serial = canonical_result(_serial_result("bfs", "warped_gates"))
    sm = _prepared("bfs", "warped_gates")
    core = DenseStepKernel(sm)
    cycle = core.run_window(0, sm.config.max_cycles)
    assert canonical_result(sm._collect(cycle)) == serial


def test_fast_path_windows_and_skips_dense_run():
    """A dense full-scale run both executes kernel windows and skips
    spans between them, and still matches the serial run."""
    def build(fast_forward):
        return build_sm(build_kernel("bfs", seed=0, scale=1.0), "warped_gates",
                        dram_latency=get_profile("bfs").dram_latency,
                        fast_forward=fast_forward)

    serial = canonical_result(build(False).run())
    sm = build(True)
    result = sm.run()
    assert canonical_result(result) == serial
    assert sm._kernel_core.cycles > 0
    assert sm._forwarder.skipped_cycles > 0


def test_planner_overhead_not_in_metrics():
    """planner_overhead_cycles stays out of the digested metrics so
    fast-forwarded runs keep the serial digest."""
    sm = _build("bfs", "conv_pg", fast_forward=True)
    result = sm.run()
    assert not any("planner" in key for key in result.metrics)
