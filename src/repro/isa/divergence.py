"""SIMT control-flow divergence model for trace generation.

Real GPGPU warps execute data-dependent branches: the SIMT stack serially
executes each taken path with a reduced active-lane mask and reconverges
at the immediate post-dominator.  The observable effect on the power
model is the *active-lane fraction* of each dynamic instruction — a warp
running 8 of 32 lanes burns roughly a quarter of the dynamic energy of a
full warp in the execution units (mask-gated lanes do not toggle), which
is exactly the mask-activity signal GPUWattch weighs.

:class:`DivergenceModel` is a small reconvergence-stack simulator used by
the trace generator: with probability ``branch_prob`` per instruction a
warp pushes a divergent region (the current mask splits by a random
taken fraction for a geometric number of instructions, then the
complementary path runs, then the mask pops).  Nesting is bounded by
``max_depth`` like a hardware SIMT stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    import numpy as np

#: SIMT width of a warp on Fermi.
WARP_LANES = 32


@dataclass
class _Region:
    """One open divergent region on the stack."""

    lanes_current: int     # active lanes on the path being executed
    lanes_other: int       # lanes parked for the complementary path
    remaining: int         # instructions left on the current path
    other_length: int      # instructions the complementary path will run


class DivergenceModel:
    """Per-warp active-lane mask sequence generator.

    Deterministic for a given RNG: the trace generator passes its seeded
    generator so masks replay identically across techniques.
    """

    def __init__(self, branch_prob: float, mean_region_length: float = 6.0,
                 max_depth: int = 4) -> None:
        if not 0.0 <= branch_prob <= 1.0:
            raise ValueError("branch_prob must be in [0, 1]")
        if mean_region_length < 1.0:
            raise ValueError("mean_region_length must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.branch_prob = branch_prob
        self.mean_region_length = mean_region_length
        self.max_depth = max_depth
        self._stack: List[_Region] = []

    @property
    def depth(self) -> int:
        """Current nesting depth (diagnostics/tests)."""
        return len(self._stack)

    def current_lanes(self) -> int:
        """Active lanes for the next instruction."""
        if not self._stack:
            return WARP_LANES
        return self._stack[-1].lanes_current

    def step(self, rng: np.random.Generator) -> int:
        """Advance one instruction; returns its active-lane count.

        The returned mask applies to the instruction being generated;
        divergence state (path switches, reconvergence, new branches)
        updates afterwards, mirroring a branch taking effect on the
        instructions that follow it.
        """
        lanes = self.current_lanes()
        self._retire_one_instruction()
        # A new branch splits the mask that is live *after* any path
        # switch/reconvergence above, not the pre-step mask.
        self._maybe_branch(rng, self.current_lanes())
        return lanes

    # ------------------------------------------------------------------

    def _retire_one_instruction(self) -> None:
        if not self._stack:
            return
        region = self._stack[-1]
        region.remaining -= 1
        if region.remaining > 0:
            return
        if region.other_length > 0:
            # Switch to the complementary path: the parked lanes run,
            # the just-finished path's lanes park.
            region.lanes_current, region.lanes_other = \
                region.lanes_other, region.lanes_current
            region.remaining = region.other_length
            region.other_length = 0
        else:
            # Both paths done: reconverge (pop).
            self._stack.pop()

    def _maybe_branch(self, rng: np.random.Generator, lanes: int) -> None:
        if len(self._stack) >= self.max_depth:
            return
        if lanes < 2:
            return  # a single-lane path cannot diverge further
        if self.branch_prob == 0.0 or rng.random() >= self.branch_prob:
            return
        taken = int(rng.integers(1, lanes))  # 1 .. lanes-1
        p = 1.0 / self.mean_region_length
        first_len = int(rng.geometric(p))
        second_len = int(rng.geometric(p))
        self._stack.append(_Region(
            lanes_current=taken, lanes_other=lanes - taken,
            remaining=first_len, other_length=second_len))

    def reset(self) -> None:
        """Drop all divergence state (new warp)."""
        self._stack.clear()
