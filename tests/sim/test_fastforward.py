"""Span fast-forward: bit-identical to the cycle-by-cycle loop.

The forwarder's design rule is that every cycle on which anything
interesting can happen is executed — idle *and* busy quiescent
spans alike are jumped; these tests pin the observable contract —
identical cycles, identical flat metrics, identical gating counters —
across every technique, and check the forwarder actually skips where
it should and disables itself where it must.
"""

import pytest

from repro.core.techniques import Technique, TechniqueConfig, build_sm
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile
from tests.sim.identity import (GOLDEN_BENCHMARKS, GOLDEN_SCALE,
                                GOLDEN_TECHNIQUES)

SCALE = 0.2


def _run(benchmark: str, technique: Technique, fast_forward: bool,
         scale: float = SCALE):
    kernel = build_kernel(benchmark, seed=0, scale=scale)
    sm = build_sm(kernel, TechniqueConfig(technique),
                  dram_latency=get_profile(benchmark).dram_latency,
                  fast_forward=fast_forward)
    return sm, sm.run()


@pytest.mark.parametrize("technique", list(Technique),
                         ids=lambda t: t.value)
@pytest.mark.parametrize("bench_name", ("hotspot", "bfs"))
def test_fast_forward_bit_identical(bench_name, technique):
    _, serial = _run(bench_name, technique, fast_forward=False)
    _, forwarded = _run(bench_name, technique, fast_forward=True)
    assert forwarded.cycles == serial.cycles
    assert forwarded.metrics == serial.metrics
    assert forwarded.domain_stats == serial.domain_stats
    assert forwarded.idle_detect_final == serial.idle_detect_final
    assert forwarded.pipeline_issues == serial.pipeline_issues
    assert forwarded.warp_records == serial.warp_records


def test_forwarder_actually_skips():
    sm, _ = _run("bfs", Technique.CONV_PG, fast_forward=True)
    assert sm._forwarder is not None
    assert sm._forwarder.supported
    assert sm._forwarder.skipped_cycles > 0
    assert sm._forwarder.skips > 0


def test_serial_run_has_no_forwarder():
    sm, _ = _run("hotspot", Technique.BASELINE, fast_forward=False)
    assert sm._forwarder is None


def test_ccws_disables_forwarding():
    """The CCWS decay hook touches every cycle: no span is skippable,
    so the forwarder turns itself off rather than paying the planner."""
    sm, _ = _run("hotspot", Technique.CCWS_CONV_PG, fast_forward=True)
    assert sm._forwarder is not None
    assert not sm._forwarder.supported
    assert sm._forwarder.skipped_cycles == 0


def test_enabled_bus_suppresses_skipping():
    """Event subscribers see every cycle, so an enabled bus forces the
    cycle-by-cycle path (identical results, no skips)."""
    from repro.obs.bus import EventBus

    kernel = build_kernel("hotspot", seed=0, scale=SCALE)
    bus = EventBus(enabled=True)
    sm = build_sm(kernel, TechniqueConfig(Technique.CONV_PG),
                  dram_latency=get_profile("hotspot").dram_latency,
                  bus=bus, fast_forward=True)
    events = []
    bus.subscribe(events.append)
    result = sm.run()
    assert sm._forwarder.skipped_cycles == 0
    _, serial = _run("hotspot", Technique.CONV_PG, fast_forward=False)
    assert result.metrics == serial.metrics


def test_zero_instruction_warp_is_released_before_a_skip():
    """A warp launched with an empty trace frees its slot next cycle.

    With one slot, the empty warp blocks the launcher while nothing
    else is in flight — a quiet-looking cycle that must still execute,
    or the slot never frees.
    """
    from repro.isa.instructions import int_op, load_op
    from repro.isa.trace import KernelTrace, WarpTrace
    from repro.sim.config import SMConfig

    kernel = KernelTrace(name="empty_warp", warps=(
        WarpTrace(0, (load_op(dest=0, line_addr=0),
                      int_op(dest=1, srcs=(0,)))),
        WarpTrace(1, ()),
        WarpTrace(2, (int_op(dest=0),))))
    results = []
    for fast_forward in (False, True):
        sm = build_sm(kernel, TechniqueConfig(Technique.CONV_PG),
                      sm_config=SMConfig(max_resident_warps=1),
                      fast_forward=fast_forward)
        results.append(sm.run())
    assert results[1].cycles == results[0].cycles
    assert results[1].warp_records == results[0].warp_records
    assert results[1].metrics == results[0].metrics


#: Forwarder coverage summed over the 15 gtx480 parts at scale 1.0:
#: (skipped_cycles, skips) of the one fast path, which tries every
#: quiet cycle.
DEVICE_COVERAGE = {
    ("bfs", "conv_pg"): (61403, 3197),
    ("bfs", "warped_gates"): (58432, 2582),
    ("nw", "conv_pg"): (19747, 440),
    ("nw", "warped_gates"): (18210, 398),
}

#: skipped_cycles of the same cells under the earlier planner, whose
#: failed-plan backoff and dense-kernel handoff missed span starts —
#: a floor the coverage may never fall below.
DEVICE_SKIPPED_FLOOR = {
    ("bfs", "conv_pg"): 59122,
    ("bfs", "warped_gates"): 56785,
    ("nw", "conv_pg"): 19345,
    ("nw", "warped_gates"): 17894,
}


def _device_part_sms(bench_name, technique):
    """Run every gtx480 part of one benchmark on the fast path."""
    from repro.core.device import device_preset
    from repro.sim.gpu import GPU, split_kernel

    preset = device_preset("gtx480")
    latency = get_profile(bench_name).dram_latency
    gpu = GPU.from_preset("gtx480", technique, dram_latency=latency,
                          fast_forward=True)
    parts = split_kernel(build_kernel(bench_name, seed=0, scale=1.0),
                         preset.n_sms)
    part_latency = gpu._effective_dram_latency(len(parts))
    for part in parts:
        sm = build_sm(part, technique, sm_config=preset.sm,
                      dram_latency=part_latency, fast_forward=True)
        yield sm, sm.run()


@pytest.mark.parametrize("bench_name,technique", sorted(DEVICE_COVERAGE),
                         ids=lambda value: value)
def test_sparse_device_parts_keep_skip_coverage(bench_name, technique):
    """A speed-only fast-path change must not shrink what it skips.

    Device parts hold a handful of warps in many slots — the regime the
    span skipper pays off in most — so coverage is pinned exactly there.
    """
    skipped = skips = 0
    for sm, _ in _device_part_sms(bench_name, technique):
        skipped += sm._forwarder.skipped_cycles
        skips += sm._forwarder.skips
    assert skipped >= DEVICE_SKIPPED_FLOOR[(bench_name, technique)]
    assert (skipped, skips) == DEVICE_COVERAGE[(bench_name, technique)]


def _assert_windowed_or_skipped(sm, result):
    """Every cycle of a fast-path run was kernel-executed or skipped.

    The traced benchmark derives serially stepped cycles as cycles -
    windowed - skipped; this is the identity that keeps it at zero.
    """
    assert (sm._forwarder.skipped_cycles + sm._kernel_core.cycles
            == result.cycles)


@pytest.mark.parametrize("bench_name,technique",
                         [(bench, tech) for bench in GOLDEN_BENCHMARKS
                          for tech in GOLDEN_TECHNIQUES]
                         + [("hotspot", "ccws_conv_pg")])
def test_fast_path_cycles_are_windowed_or_skipped(bench_name, technique):
    """The kernel and the span skipper never both claim a cycle."""
    sm, result = _run(bench_name, Technique(technique), fast_forward=True,
                      scale=GOLDEN_SCALE)
    _assert_windowed_or_skipped(sm, result)
    if technique == "ccws_conv_pg":
        assert sm._forwarder.skipped_cycles == 0


@pytest.mark.parametrize("technique", ("conv_pg", "warped_gates"))
def test_device_fast_path_cycles_are_windowed_or_skipped(technique):
    for sm, result in _device_part_sms("bfs", technique):
        _assert_windowed_or_skipped(sm, result)


def test_max_cycles_overrun_raises_identically():
    from dataclasses import replace

    from repro.sim.config import SMConfig

    config = replace(SMConfig(), max_cycles=50)
    errors = []
    for fast_forward in (False, True):
        sm = build_sm(build_kernel("hotspot", seed=0, scale=SCALE),
                      TechniqueConfig(Technique.CONV_PG),
                      sm_config=config,
                      dram_latency=get_profile("hotspot").dram_latency,
                      fast_forward=fast_forward)
        with pytest.raises(RuntimeError):
            sm.run()
        errors.append(sm.stats.cycles)
    assert errors[0] == errors[1]
