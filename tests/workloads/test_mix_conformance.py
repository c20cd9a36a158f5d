"""Suite-wide calibration conformance: generated traces match specs.

The Figure 5a reproduction is only as good as the generator's fidelity
to the per-benchmark mixes; this parametrised check covers all 18
benchmarks.  All but the last check are trace generation only, so they
stay fast; the last simulates each benchmark once at test scale.
"""

import pytest

from repro.core.techniques import build_sm
from repro.isa.optypes import ALL_OP_CLASSES
from repro.workloads.registry import build_kernel
from repro.workloads.specs import BENCHMARK_NAMES, get_profile

from tests.conftest import TEST_SCALE


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_generated_mix_matches_spec(name):
    kernel = build_kernel(name, scale=0.5)
    measured = kernel.op_class_mix()
    spec_mix = get_profile(name).spec.mix
    for cls in ALL_OP_CLASSES:
        assert measured[cls] == pytest.approx(spec_mix[cls], abs=0.06), \
            f"{name}: {cls.name} mix drifted from its specification"


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_memory_instructions_respect_footprint(name):
    kernel = build_kernel(name, scale=0.25)
    # Scaled footprint: registry shrinks it with the workload.
    from repro.workloads.registry import scaled_spec
    footprint = scaled_spec(get_profile(name).spec, 0.25).footprint_lines
    for warp in kernel.warps:
        for inst in warp:
            if inst.is_mem:
                assert 0 <= inst.line_addr < footprint


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_divergence_masks_legal(name):
    kernel = build_kernel(name, scale=0.25)
    lanes = [i.active_lanes for w in kernel.warps for i in w]
    assert all(1 <= l <= 32 for l in lanes)
    profile = get_profile(name)
    if profile.spec.branch_prob == 0.0:
        assert all(n == 32 for n in lanes)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_baseline_issues_exactly_the_trace_mix(name):
    # Figure 5a reports the traces' static mix as the benchmarks' mix;
    # that holds because every trace instruction issues exactly once.
    kernel = build_kernel(name, scale=TEST_SCALE)
    sm = build_sm(kernel, "baseline",
                  dram_latency=get_profile(name).dram_latency,
                  fast_forward=True)
    assert sm.run().stats.issued_by_class == kernel.op_class_counts()
