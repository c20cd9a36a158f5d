"""Span fast-forward: bit-identical to the cycle-by-cycle loop.

The forwarder's design rule is that every cycle on which anything
interesting can happen is real-stepped — idle *and* busy quiescent
spans alike are jumped; these tests pin the observable contract —
identical cycles, identical flat metrics, identical gating counters —
across every technique, and check the forwarder actually skips where
it should and disables itself where it must.
"""

import pytest

from repro.core.techniques import Technique, TechniqueConfig, build_sm
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

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


#: Forwarder coverage summed over the 15 gtx480 parts at scale 1.0:
#: (skipped_cycles, skips, plans, dense_windows), recorded before the
#: planner's per-warp scan was restricted to resident warps.
DEVICE_COVERAGE = {
    ("bfs", "conv_pg"): (59122, 2455, 8028, 0),
    ("bfs", "warped_gates"): (56785, 2163, 7998, 0),
    ("nw", "conv_pg"): (19345, 280, 1095, 0),
    ("nw", "warped_gates"): (17894, 291, 1220, 0),
}


@pytest.mark.parametrize("bench_name,technique", sorted(DEVICE_COVERAGE),
                         ids=lambda value: value)
def test_sparse_device_parts_keep_skip_coverage(bench_name, technique):
    """A speed-only planner change must not shrink what it skips.

    Device parts hold a handful of warps in many slots — the regime the
    planner's cost controls target — so coverage is pinned exactly there.
    """
    from repro.core.device import device_preset
    from repro.sim.gpu import GPU, split_kernel

    preset = device_preset("gtx480")
    latency = get_profile(bench_name).dram_latency
    gpu = GPU.from_preset("gtx480", technique, dram_latency=latency,
                          fast_forward=True)
    parts = split_kernel(build_kernel(bench_name, seed=0, scale=1.0),
                         preset.n_sms)
    part_latency = gpu._effective_dram_latency(len(parts))
    totals = [0, 0, 0, 0]
    for part in parts:
        sm = build_sm(part, technique, sm_config=preset.sm,
                      dram_latency=part_latency, fast_forward=True)
        sm.run()
        forwarder = sm._forwarder
        for index, value in enumerate((
                forwarder.skipped_cycles, forwarder.skips,
                forwarder.plans, forwarder.dense_windows)):
            totals[index] += value
    assert tuple(totals) == DEVICE_COVERAGE[(bench_name, technique)]


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
