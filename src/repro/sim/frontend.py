"""Front end: resident-warp contexts, instruction buffers and fetch.

Mirrors the fetch/decode stage of Figure 1a: decoded instructions land in
a small per-warp instruction buffer (I-buffer) whose head is the entry
the issue stage sees, carrying the valid bit, decoded bits — including
the two-bit instruction type GATES relies on — and the ready bit driven
by the scoreboard.

Warp launch is also handled here: a kernel may launch more warps than the
SM can host (48 on Fermi); finished warp slots are refilled from the
launch queue, the way successive thread blocks refill a real SM.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.isa.instructions import Instruction
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.scoreboard import Scoreboard


class WarpContext:
    """Runtime state of one resident warp slot.

    Slotted and deliberately property-light on the hot paths: the
    per-warp state fetch and classification read (``trace_len``,
    ``trace_insts``, the ``head_*`` classification cache) is stored as
    plain attributes.

    Once a :class:`FetchEngine` owns the slot list, the three calls
    that can make a warp need fetch — :meth:`assign`, :meth:`pop_head`
    and :meth:`release` (which ends the need) — keep the engine's
    needy-slot mask exact, so nothing else may mutate ``ibuffer`` or
    ``fetch_pc`` of a bound warp.
    """

    __slots__ = ("slot", "trace", "trace_len", "trace_insts", "fetch_pc",
                 "ibuffer", "scoreboard", "retired", "outstanding",
                 "cache_popped", "cache_version", "head_inst",
                 "head_ready_at", "head_mem_until", "head_unresolved",
                 "cand_ready", "cand_stalled", "fetch", "fetch_bit")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        #: The fetch engine owning this slot (set by FetchEngine.bind)
        #: and this slot's bit in its needy mask.
        self.fetch: Optional["FetchEngine"] = None
        self.fetch_bit = 1 << slot
        self.trace: Optional[WarpTrace] = None
        #: len(trace), 0 while unoccupied — ``fetch_pc >= trace_len`` is
        #: the branch the fetch loop takes per warp per cycle.
        self.trace_len = 0
        #: The trace's raw instruction sequence (skips WarpTrace.__getitem__).
        self.trace_insts: Sequence[Instruction] = ()
        self.fetch_pc = 0            # next trace index to fetch
        self.ibuffer: Deque[Instruction] = deque()
        self.scoreboard = Scoreboard()
        self.retired = 0
        #: Instructions issued but not yet fully completed (pipeline or
        #: memory); a slot is only recycled when this drains to zero.
        self.outstanding = 0
        # --- incremental classification cache -------------------------
        # Valid while (cache_popped, cache_version) matches the warp's
        # issued-instruction count and its scoreboard version; holds the
        # head instruction's absolute-cycle readiness summary
        # (Scoreboard.head_status) plus memoised IssueCandidate objects,
        # so per-cycle classification is integer compares, not operand
        # scans and allocations.
        self.cache_popped = -1
        self.cache_version = -1
        self.head_inst: Optional[Instruction] = None
        self.head_ready_at = 0
        self.head_mem_until = 0
        self.head_unresolved = False
        self.cand_ready = None
        self.cand_stalled = None

    # ------------------------------------------------------------------

    def assign(self, trace: WarpTrace) -> None:
        """Occupy this slot with a freshly launched warp."""
        self.trace = trace
        self.trace_len = len(trace)
        self.trace_insts = trace.instructions
        self.fetch_pc = 0
        self.ibuffer.clear()
        self.scoreboard.reset()
        self.retired = 0
        self.outstanding = 0
        self.cache_popped = -1
        fetch = self.fetch
        if fetch is not None:
            if self.trace_len:
                fetch.needy |= self.fetch_bit
            else:
                fetch.needy &= ~self.fetch_bit

    @property
    def occupied(self) -> bool:
        """True while a warp lives in this slot."""
        return self.trace is not None

    @property
    def trace_exhausted(self) -> bool:
        """True once every instruction of the warp has been fetched."""
        return self.fetch_pc >= self.trace_len

    def finished(self) -> bool:
        """True once every instruction has issued and completed."""
        return (self.trace is not None and self.fetch_pc >= self.trace_len
                and not self.ibuffer and self.outstanding == 0)

    def head(self) -> Optional[Instruction]:
        """The instruction the issue stage considers for this warp."""
        return self.ibuffer[0] if self.ibuffer else None

    def pop_head(self) -> Instruction:
        """Remove the head instruction at issue.

        The buffer now has room, so a warp with trace left needs fetch.
        """
        fetch = self.fetch
        if fetch is not None and self.fetch_pc < self.trace_len:
            fetch.needy |= self.fetch_bit
        return self.ibuffer.popleft()

    def release(self) -> None:
        """Free the slot after the warp fully completes."""
        fetch = self.fetch
        if fetch is not None:
            fetch.needy &= ~self.fetch_bit
        self.trace = None
        self.trace_len = 0
        self.trace_insts = ()
        self.ibuffer.clear()
        self.scoreboard.reset()
        self.outstanding = 0
        self.cache_popped = -1


class FetchEngine:
    """Round-robin fetch/decode feeding the per-warp I-buffers.

    Per-cycle cost is proportional to the warps that need fetch, not to
    the slot count: :attr:`needy` holds one bit per slot, set exactly
    when the slot is occupied, has unfetched trace and has I-buffer
    room.  The bound :class:`WarpContext` objects set bits as they gain
    that need (assign, issue pop) and clear them on release; ``tick``
    clears the bits of the warps it tops up or runs dry.
    """

    def __init__(self, fetch_width: int, ibuffer_entries: int) -> None:
        if fetch_width < 1:
            raise ValueError("fetch_width must be >= 1")
        if ibuffer_entries < 1:
            raise ValueError("ibuffer_entries must be >= 1")
        self.fetch_width = fetch_width
        self.ibuffer_entries = ibuffer_entries
        self._rr_start = 0
        #: Needy-slot bitmask (bit i <=> warps[i] needs fetch).
        self.needy = 0
        self._warps: Optional[List[WarpContext]] = None
        self._all_bits = 0

    def bind(self, warps: List[WarpContext]) -> None:
        """Take ownership of ``warps`` and rebuild the mask from scratch.

        ``tick`` binds a new slot list on first sight; the SM binds its
        list at construction so the mask is valid before the first tick.
        """
        self._warps = warps
        self._all_bits = (1 << len(warps)) - 1
        entries = self.ibuffer_entries
        needy = 0
        for index, warp in enumerate(warps):
            warp.fetch = self
            warp.fetch_bit = 1 << index
            if warp.fetch_pc < warp.trace_len \
                    and len(warp.ibuffer) < entries:
                needy |= warp.fetch_bit
        self.needy = needy

    def tick(self, warps: List[WarpContext]) -> int:
        """Fetch up to ``fetch_width`` instructions into needy buffers.

        Round-robins across warp slots so no warp starves the front end:
        the scan starts one slot later every cycle and visits the needy
        slots in cyclic slot order.  Returns the number of instructions
        fetched (statistics).
        """
        if warps is not self._warps:
            self.bind(warps)
        n = len(warps)
        if n == 0:
            return 0
        start = self._rr_start
        self._rr_start = start + 1 if start + 1 < n else 0
        needy = self.needy
        if not needy:
            return 0
        # Rotate the mask so bit 0 is slot ``start``: lowest set bit
        # first is then exactly the round-robin visiting order.
        pending = (needy >> start) \
            | ((needy << (n - start)) & self._all_bits)
        width = self.fetch_width
        entries = self.ibuffer_entries
        fetched = 0
        while pending:
            low = pending & -pending
            pending ^= low
            index = start + low.bit_length() - 1
            if index >= n:
                index -= n
            warp = warps[index]
            pc = warp.fetch_pc
            buf = warp.ibuffer
            take = width - fetched
            free = entries - len(buf)
            room = warp.trace_len - pc
            if take >= free or take >= room:
                # This fill tops the buffer up or runs the trace dry.
                if take > free:
                    take = free
                if take > room:
                    take = room
                needy ^= warp.fetch_bit
            buf.extend(warp.trace_insts[pc:pc + take])
            warp.fetch_pc = pc + take
            fetched += take
            if fetched >= width:
                break
        self.needy = needy
        return fetched

    def skip_idle_cycles(self, span: int, n_warps: int) -> None:
        """Replay ``span`` ticks on a quiescent front end.

        When every occupied warp is trace-exhausted or has a full
        I-buffer, ``tick`` fetches nothing and only rotates the
        round-robin pointer — which this replays in bulk for the idle
        fast-forward path.
        """
        if n_warps:
            self._rr_start = (self._rr_start + span) % n_warps


class WarpLauncher:
    """Feeds kernel warps into SM slots as residency frees up."""

    def __init__(self, kernel: KernelTrace, max_resident: int) -> None:
        self.kernel = kernel
        self.max_resident = min(max_resident, kernel.max_resident_warps)
        self._next = 0

    @property
    def remaining(self) -> int:
        """Warps not yet launched."""
        return self.kernel.n_warps - self._next

    def pop_next(self, cycle: int = 0,
                 resident: int = 0) -> Optional[WarpTrace]:
        """Take the next queued warp trace, or None when exhausted.

        ``cycle`` and ``resident`` are accepted (and ignored) so the
        single-kernel launcher is interface-compatible with
        :class:`MultiKernelLauncher`, whose launch decisions depend on
        both.
        """
        if self._next >= self.kernel.n_warps:
            return None
        trace = self.kernel.warps[self._next]
        self._next += 1
        return trace

    def launch_blocked_until(self, cycle: int, resident: int) -> float:
        """Earliest cycle a queued warp could launch (fast-forward bound).

        For the single-kernel launcher a queued warp launches whenever a
        slot frees up, so with warps still queued the answer is "now" —
        the planner then refuses to skip (a free slot plus a queued warp
        means the next cycle does real work).
        """
        if self._next >= self.kernel.n_warps:
            return float("inf")
        return cycle

    def launch_into(self, warps: List[WarpContext]) -> int:
        """Fill free slots (up to the residency cap) with queued warps."""
        launched = 0
        resident = sum(1 for w in warps if w.occupied)
        for warp in warps:
            if self._next >= self.kernel.n_warps:
                break
            if resident >= self.max_resident:
                break
            if not warp.occupied:
                warp.assign(self.kernel.warps[self._next])
                self._next += 1
                resident += 1
                launched += 1
        return launched


class MultiKernelLauncher:
    """Back-to-back kernel launches with barriers and idle gaps.

    Real GPGPU applications launch kernels in sequence: kernel ``k+1``
    cannot start until every thread block of kernel ``k`` has retired
    (a device-level barrier), and host-side work often leaves the SM
    idle for a while in between.  Those inter-kernel windows are where
    *SM-granular* power gating (Wang et al., the paper's section 8
    comparison) earns its keep, so modelling them lets the granularity
    analysis cover both regimes.

    Interface-compatible with :class:`WarpLauncher` as the SM uses it:
    ``remaining`` plus ``pop_next(cycle, resident)``.
    """

    def __init__(self, kernels: "List[KernelTrace]", max_resident: int,
                 gap_cycles: int = 0) -> None:
        if not kernels:
            raise ValueError("need at least one kernel")
        if gap_cycles < 0:
            raise ValueError("gap_cycles must be >= 0")
        self.kernels = list(kernels)
        self.max_resident_cap = max_resident
        self.gap_cycles = gap_cycles
        self._index = 0
        self._inner = WarpLauncher(self.kernels[0], max_resident)
        self._gap_until: Optional[int] = None
        # Warps in kernels after the current one; ``remaining`` is read
        # every cycle, so the suffix sum is cached and refreshed only on
        # kernel advance.
        self._later_warps = sum(k.n_warps for k in self.kernels[1:])
        #: Cycles at which each kernel's first warp launched (stats).
        self.kernel_start_cycles: List[int] = []

    @property
    def max_resident(self) -> int:
        """Residency cap applied to the current kernel."""
        return self._inner.max_resident

    @property
    def remaining(self) -> int:
        """Warps not yet launched, across all queued kernels."""
        return self._inner.remaining + self._later_warps

    @property
    def current_kernel_index(self) -> int:
        """Index of the kernel currently launching."""
        return self._index

    def pop_next(self, cycle: int = 0,
                 resident: int = 0) -> Optional[WarpTrace]:
        """Next warp to launch at ``cycle``, or None.

        Returns None while (a) the current kernel is fully launched but
        its warps still occupy slots (the barrier), or (b) the
        inter-kernel gap has not elapsed.
        """
        if self._inner.remaining:
            if not self.kernel_start_cycles or \
                    self._inner.remaining == self.kernels[self._index].n_warps:
                if len(self.kernel_start_cycles) <= self._index:
                    self.kernel_start_cycles.append(cycle)
            return self._inner.pop_next()
        if self._index + 1 >= len(self.kernels):
            return None
        if resident > 0:
            return None  # barrier: previous kernel still draining
        if self._gap_until is None:
            self._gap_until = cycle + self.gap_cycles
        if cycle < self._gap_until:
            return None
        self._index += 1
        self._inner = WarpLauncher(self.kernels[self._index],
                                   self.max_resident_cap)
        self._later_warps = sum(k.n_warps
                                for k in self.kernels[self._index + 1:])
        self._gap_until = None
        return self.pop_next(cycle, resident)

    def launch_blocked_until(self, cycle: int, resident: int) -> float:
        """Earliest cycle a launch attempt could do something
        (fast-forward bound; mirrors :meth:`pop_next` without mutating).

        Note the ``_gap_until is None`` case returns ``cycle``: the next
        ``pop_next`` call *starts* the gap countdown (a mutation), so the
        planner must real-step it rather than skip over it.
        """
        if self._inner.remaining:
            return cycle
        if self._index + 1 >= len(self.kernels):
            return float("inf")
        if resident > 0:
            return float("inf")  # barrier: launch waits on retirements
        if self._gap_until is None:
            return cycle
        return max(cycle, self._gap_until)
