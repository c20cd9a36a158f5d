"""Multi-SM GPU wrapper.

GTX480 has 15 SMs; the paper's per-unit statistics are per-SM and the
SMs run independent thread blocks.  :class:`GPU` distributes a kernel's
warps round-robin over N SMs (block-level work distribution), runs each
SM independently, and aggregates results.

The one cross-SM interaction modelled is the shared memory side: a
:class:`~repro.core.device.MemorySideConfig` inflates the effective
DRAM latency as a deterministic function of how many SMs are active,
computed *once before the fan-out* — so SMs stay mutually independent
(and picklable for the parallel engine), and a single-SM device sees
exactly the base latency (the neutrality the single-SM golden digests
rely on).  Everything else the paper measures lives inside the SM.

Building an SM per technique is the caller's job (the harness passes an
``sm_factory`` or a declarative config), so the GPU wrapper stays
technique-agnostic.  :meth:`GPU.from_preset` wires the full paper
platform (``gtx480``) from the device-preset registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.optypes import ExecUnitKind
from repro.isa.trace import KernelTrace, WarpTrace
from repro.power.energy import DomainEnergy, EnergyBreakdown, domain_energy
from repro.power.params import (
    EnergyParams,
    FP_DYN_PER_ISSUE,
    INT_DYN_PER_ISSUE,
)
from repro.sim.sm import SimResult, StreamingMultiprocessor

SMFactory = Callable[[KernelTrace], StreamingMultiprocessor]


def split_kernel(kernel: KernelTrace, n_sms: int) -> List[KernelTrace]:
    """Distribute a kernel's warps round-robin over ``n_sms`` SMs.

    SMs with no warps are dropped (a tiny kernel may not fill the GPU).
    """
    if n_sms < 1:
        raise ValueError("n_sms must be >= 1")
    buckets: List[List[WarpTrace]] = [[] for _ in range(n_sms)]
    for i, warp in enumerate(kernel.warps):
        buckets[i % n_sms].append(warp)
    parts: List[KernelTrace] = []
    for sm_id, bucket in enumerate(buckets):
        if not bucket:
            continue
        renumbered = [WarpTrace(warp_id=j, instructions=w.instructions)
                      for j, w in enumerate(bucket)]
        parts.append(KernelTrace(
            name=f"{kernel.name}#sm{sm_id}", warps=renumbered,
            max_resident_warps=kernel.max_resident_warps))
    return parts


@dataclass
class GPUResult:
    """Aggregated multi-SM run results."""

    kernel_name: str
    technique: str
    sm_results: Tuple[SimResult, ...]

    @property
    def cycles(self) -> int:
        """Device runtime: the slowest SM bounds the kernel."""
        return max(r.cycles for r in self.sm_results)

    @property
    def total_instructions(self) -> int:
        """Warp instructions retired across every SM."""
        return sum(r.stats.instructions_retired for r in self.sm_results)

    def unit_activity(self, kind: ExecUnitKind) -> DomainEnergy:
        """Summed per-kind activity across all SMs."""
        total = DomainEnergy(0, 0, 0, 0)
        for result in self.sm_results:
            total = total + result.unit_activity(kind)
        return total

    def idle_histogram(self, kind: ExecUnitKind) -> Dict[int, int]:
        """Device-wide idle-period histogram for one unit kind."""
        merged: Dict[int, int] = {}
        for result in self.sm_results:
            for length, count in result.idle_histogram(kind).items():
                merged[length] = merged.get(length, 0) + count
        return merged

    def energy_breakdown(
            self, bet: int = 14) -> Dict[ExecUnitKind, EnergyBreakdown]:
        """Chip-level per-domain energy breakdown (Figure 1b shape).

        Sums every SM's INT/FP domain activity — leakage cycles, gated
        cycles, divergence-weighted issues, gating events — and runs
        the aggregate through the calibrated energy model, yielding
        one dynamic / static / overhead breakdown per unit kind for
        the whole chip.  ``bet`` sets the per-event gating overhead
        (break-even time, in leak-cycles; the paper's default is 14).
        """
        out: Dict[ExecUnitKind, EnergyBreakdown] = {}
        for kind, dyn in ((ExecUnitKind.INT, INT_DYN_PER_ISSUE),
                          (ExecUnitKind.FP, FP_DYN_PER_ISSUE)):
            params = EnergyParams.for_unit(dyn_per_issue=dyn, bet=bet)
            out[kind] = domain_energy(self.unit_activity(kind), params)
        return out


class GPU:
    """A device of independent SMs sharing a work distributor.

    Two construction styles:

    * ``GPU(n, sm_factory)`` — legacy closure-based wiring; runs
      serially only (closures don't pickle).
    * ``GPU(n, config="warped_gates", sm_config=..., ...)`` —
      declarative wiring from a technique name or
      :class:`~repro.core.spec.TechniqueSpec`, resolved once here and
      held as the spec in ``config``; it additionally allows
      ``run(kernel, engine=...)`` to fan the per-SM parts over a
      :class:`~repro.engine.pool.ParallelEngine`.
    """

    def __init__(self, n_sms: int, sm_factory: Optional[SMFactory] = None,
                 *, config=None, sm_config=None,
                 dram_latency: Optional[int] = None,
                 memory_side=None,
                 fast_forward: bool = False) -> None:
        if n_sms < 1:
            raise ValueError("n_sms must be >= 1")
        if (sm_factory is None) == (config is None):
            raise ValueError("pass exactly one of sm_factory or config")
        if memory_side is not None and config is None:
            # The contention model works by overriding the per-part
            # DRAM latency, which only the declarative path controls —
            # an opaque closure has already baked its latency in.
            raise ValueError(
                "memory_side needs config-based construction")
        if config is not None:
            from repro.core.spec import as_spec
            config = as_spec(config)
        self.n_sms = n_sms
        self.config = config
        self.sm_config = sm_config
        self.dram_latency = dram_latency
        self.memory_side = memory_side
        self.fast_forward = fast_forward
        self.sm_factory = sm_factory

    @classmethod
    def from_preset(cls, name: str, config, *,
                    dram_latency: Optional[int] = None,
                    fast_forward: bool = False) -> "GPU":
        """Build the full chip a named device preset describes.

        ``config`` is the technique (a registered name or a
        :class:`~repro.core.spec.TechniqueSpec`); the preset supplies
        SM count, per-SM structure and the shared memory side.
        Unknown preset names raise with a did-you-mean suggestion.
        """
        from repro.core.device import device_preset
        preset = device_preset(name)
        return cls(preset.n_sms, config=config, sm_config=preset.sm,
                   dram_latency=dram_latency,
                   memory_side=preset.memory_side,
                   fast_forward=fast_forward)

    def _effective_dram_latency(self, n_active: int) -> Optional[int]:
        """Per-part DRAM latency after memory-side contention.

        Resolved once per launch from the *active* SM count (parts
        after empty-bucket dropping), before any SM runs — the
        contention model must not depend on runtime traffic, or the
        parts would stop being independent.
        """
        if self.memory_side is None or n_active <= 1:
            return self.dram_latency
        base = self.dram_latency
        if base is None:
            sm_config = self.sm_config
            if sm_config is None:
                from repro.sim.config import SMConfig
                sm_config = SMConfig()
            base = sm_config.memory.dram_latency
        return self.memory_side.effective_dram_latency(base, n_active)

    def run(self, kernel: KernelTrace, engine=None) -> GPUResult:
        """Split, run and aggregate one kernel launch.

        With an ``engine`` (and config-based construction), the
        independent SM parts execute on the worker pool; results are
        aggregated in part order, identical to the serial path.
        """
        parts = split_kernel(kernel, self.n_sms)
        if self.sm_factory is not None:
            results = [self.sm_factory(part).run() for part in parts]
        else:
            dram_latency = self._effective_dram_latency(len(parts))
            if engine is not None:
                from repro.engine.jobs import SMPartJob, execute_sm_part
                from repro.sim.config import SMConfig
                jobs = [SMPartJob(part=part, config=self.config,
                                  sm_config=self.sm_config or SMConfig(),
                                  dram_latency=dram_latency,
                                  fast_forward=self.fast_forward)
                        for part in parts]
                results = engine.map(execute_sm_part, jobs)
            else:
                from repro.core.techniques import build_sm
                results = [build_sm(part, self.config,
                                    sm_config=self.sm_config,
                                    dram_latency=dram_latency,
                                    fast_forward=self.fast_forward).run()
                           for part in parts]
        technique = results[0].technique if results else "baseline"
        return GPUResult(kernel_name=kernel.name, technique=technique,
                         sm_results=tuple(results))
