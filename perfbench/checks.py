"""Correctness checks the benchmark applies outside its timed part.

* :func:`result_violations` — the run invariants every simulated
  result must satisfy (instruction conservation, idle-tracker and
  gating-domain cycle accounting).
* :func:`accounting_violations` — the traced run's cycle split and
  derived self times must add up.
* :func:`combined_digest` — one sha256 over the workload's per-result
  identity digests, so a speed-only change can show that every
  simulated statistic is unchanged.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional


def result_violations(result, expected_instructions: Optional[int] = None,
                      ) -> List[str]:
    """Broken invariants of one single-SM ``SimResult`` (empty: sound).

    ``expected_instructions`` is the trace's instruction count; pass
    None for one part of a device run, whose count is checked over the
    whole device instead.
    """
    name = f"{result.kernel_name}/{result.technique}"
    stats = result.stats
    cycles = result.cycles
    problems: List[str] = []
    if stats.instructions_issued != stats.instructions_retired:
        problems.append(f"{name}: issued {stats.instructions_issued} != "
                        f"retired {stats.instructions_retired}")
    if expected_instructions is not None \
            and stats.instructions_retired != expected_instructions:
        problems.append(f"{name}: retired {stats.instructions_retired} != "
                        f"trace {expected_instructions}")
    for unit, tracker in sorted(stats.idle_trackers.items()):
        if tracker.busy_cycles + tracker.idle_cycles != cycles:
            problems.append(
                f"{name}: tracker {unit} busy {tracker.busy_cycles} + idle "
                f"{tracker.idle_cycles} != cycles {cycles}")
    for domain, gating in sorted(result.domain_stats.items()):
        if gating.on_cycles + gating.gated_cycles + gating.waking_cycles \
                != cycles:
            problems.append(
                f"{name}: domain {domain} on {gating.on_cycles} + gated "
                f"{gating.gated_cycles} + waking {gating.waking_cycles} "
                f"!= cycles {cycles}")
        if gating.compensated_cycles + gating.uncompensated_cycles \
                != gating.gated_cycles:
            problems.append(
                f"{name}: domain {domain} compensated "
                f"{gating.compensated_cycles} + uncompensated "
                f"{gating.uncompensated_cycles} != gated "
                f"{gating.gated_cycles}")
    return problems


def device_violations(result, expected_instructions: int) -> List[str]:
    """Broken invariants of one multi-SM ``GPUResult``."""
    problems = [problem for part in result.sm_results
                for problem in result_violations(part)]
    if result.total_instructions != expected_instructions:
        problems.append(f"{result.kernel_name}/{result.technique}: SMs "
                        f"retired {result.total_instructions} != trace "
                        f"{expected_instructions}")
    return problems


def accounting_violations(layer: Dict[str, float]) -> List[str]:
    """Broken identities of one traced pass's per-layer metrics.

    Stepped, kernel-windowed and span-skipped cycles must add up to the
    simulated cycles, and every derived self time must be >= 0.
    """
    def get(name: str) -> float:
        return layer.get(name, 0)

    problems: List[str] = []
    split = (get("sim.stepped_cycles") + get("sim.kernel_window_cycles")
             + get("sim.ff_skipped_cycles"))
    if split != get("sim.cycles"):
        problems.append(f"stepped + windowed + skipped cycles {split:g} "
                        f"!= cycles {get('sim.cycles'):g}")
    for name in ("sim.stepped_cycles", "sim.stepped_s"):
        if get(name) < 0:
            problems.append(f"{name} is negative: {get(name):g}")
    return problems


def combined_digest(parts: Iterable[str]) -> str:
    """sha256 over the ordered per-operation digests."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()
