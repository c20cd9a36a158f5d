"""Device-level integration table (15-SM GTX480).

Baseline vs warped gates over three benchmarks on a 15-SM device: the
sanity net that device savings and runtime track the per-SM story.
"""

from repro.analysis.report import format_table
from repro.core.techniques import build_sm
from repro.isa.optypes import ExecUnitKind
from repro.sim.gpu import GPU
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile

from conftest import print_figure

N_SMS = 15
BENCHMARKS = ("srad", "lbm", "hotspot")


def run_device(name: str, technique: str, scale: float):
    profile = get_profile(name)

    def factory(kernel):
        return build_sm(kernel, technique,
                        dram_latency=profile.dram_latency)

    kernel = build_kernel(name, scale=scale)
    return GPU(n_sms=N_SMS, sm_factory=factory).run(kernel)


def regenerate():
    # Always full-scale kernels: splitting a scaled-down kernel over 15
    # SMs starves each SM of warps and measures occupancy, not gating.
    rows = []
    for name in BENCHMARKS:
        base = run_device(name, "baseline", 1.0)
        wg = run_device(name, "warped_gates", 1.0)
        activity = wg.unit_activity(ExecUnitKind.INT)
        savings = (activity.gated_cycles - activity.gating_events * 14) \
            / activity.cycles if activity.cycles else 0.0
        rows.append([name, len(wg.sm_results), wg.cycles,
                     base.cycles / wg.cycles, savings])
    return rows


def test_device_level_run():
    rows = regenerate()
    text = format_table(
        ("benchmark", "sms_used", "device_cycles", "norm_perf",
         "device_int_savings"), rows,
        title=f"Device-level Warped Gates ({N_SMS} SMs)")
    print_figure("DEVICE", text)

    for row in rows:
        assert row[1] >= 2                # work actually spread out
        assert row[3] > 0.85              # no pathological slowdown
        assert row[4] > 0.0               # device-level net savings
