"""Quiescent-span fast-forward for the SM main loop.

GPGPU workloads spend long stretches on cycles where the step functions
do no *decision* work — and not only while idle.  Two span families
qualify:

* **Idle spans** — every resident warp stalled on a known-latency
  event: an outstanding DRAM round trip, a producer a fixed number of
  cycles from writeback, a gated unit counting down its break-even
  time.  Fetch buffers are full, nothing issues, the pipelines are
  empty.
* **Busy spans** — work is in flight but its outcome is already
  determined: long-latency pipelines draining toward known completion
  cycles, the ready set empty, fetch quiescent, every scoreboard head
  with a known writeback bound.  Each such cycle the issue stage walks
  an empty ready list and the gating controllers observe "busy" —
  state drift that is bulk-replayable arithmetic.

These are the paper's gating opportunity seen from the simulator: the
long idle stretches on the execution units are the spans skipped here.

``fast_forward=True`` is one fast path with two halves that
:meth:`StreamingMultiprocessor.run` alternates, never nesting one in
the other: :meth:`DenseStepKernel.run_window
<repro.sim.kernel.DenseStepKernel.run_window>` executes every cycle
that is not skipped and returns just before a cycle its incremental
state proves quiet on the warp side; :meth:`SpanFastForwarder.advance`
then jumps the clock over the quiet span starting there, if one does.
The design rule that makes bit-identity easy to argue is that **every
cycle on which anything interesting can happen is executed**; only
provably-quiet maximal sub-spans are skipped.  "Interesting" cycles
are collected as a lower bound from every stateful component, each
reporting its next *state-changing* cycle:

* the warp side, from the kernel (:meth:`DenseStepKernel.quiet_until
  <repro.sim.kernel.DenseStepKernel.quiet_until>`): no slot ready, no
  fetch streaming, no retry or finished warp pending, and the earliest
  of the slots' transition events (a pending window expiring at
  ``mem_until``, a ready flip at ``ready_at``), the oldest in-flight
  pipeline completion (:meth:`ExecPipeline.next_state_change`) and the
  next memory delivery (:meth:`MemorySubsystem.next_completion_cycle`).
  A head blocked on an *unresolved* load pends until an LDST
  completion resolves it, so the LDST pipe's drain bound covers it (no
  LDST work in flight forces an executed cycle);
* gating domains — while the attached pipeline is idle, gate taking
  effect, blackout expiry, wakeup completion and the policy's
  predicted gate-fire cycle (:meth:`GatingDomain.next_idle_event`);
  while it is busy, the wake-completion edge and the pipeline's
  busy-until watermark (:meth:`GatingDomain.next_busy_event`);
* cycle hooks — e.g. the adaptive-epoch controller's epoch-closing
  cycle (``idle_next_event``); a hook without that method disables
  skipping entirely;
* the launcher — the earliest cycle a queued warp could launch
  (``launch_blocked_until``);
* the scheduler — a pending GATES priority flip under the frozen view
  (``idle_flip_pending``) forces an executed cycle so the flip happens
  inside an ordinary ``order`` call;
* the run cap — ``config.max_cycles``, so an over-long run raises at
  exactly the serial cycle.

When the minimum of those bounds lies beyond the current cycle, the
span up to (but excluding) the bound is applied in bulk: gating-domain
idle/waking/busy counters, warp-population samples, no-ready-warp stall
counters, the fetch and scheduler round-robin pointers, and the cycle
count all advance by exactly what ``span`` individual ``_step`` calls
would have produced.  (The per-pipeline idle trackers need no bulk
update at all: they accumulate busy/idle *spans* between absolute
cycle marks, so a skipped stretch lands in the right period when the
next issue — or the end-of-run flush — integrates it.)  The only
serial/fast-forward divergence is *internal* scoreboard garbage
(completed producers are dropped at the next executed writeback
instead of every cycle), which is unobservable: a producer whose ready
cycle has passed blocks nothing and classifies as nothing.

Planning costs O(gated domains + hooks) on top of the kernel's O(1)
warp-side verdict, so every quiet cycle is tried — no span start is
lost to a backoff.  A span that ends where another begins (a pending
slot turning into a not-yet-ready one, say) chains inside one
:meth:`~SpanFastForwarder.advance` call.

Skipping statistics (``skipped_cycles``, ``skips``) live on the
forwarder, *not* in the run's metrics — results stay byte-identical
to serial runs by construction.
"""

from __future__ import annotations

from repro.isa.optypes import ALL_OP_CLASSES, OpClass
from repro.power.gating import GatingPolicy
from repro.sim.sched.base import SchedulerView


class SpanFastForwarder:
    """Plans and applies quiescent-span skips for one SM run.

    Built by :meth:`StreamingMultiprocessor.run` for every fast-path
    run, after all domains and hooks are attached, alongside the
    :class:`~repro.sim.kernel.DenseStepKernel` whose incremental warp
    state it plans from.
    """

    def __init__(self, sm, kernel) -> None:
        self.sm = sm
        self._kernel = kernel
        #: Cycles jumped over instead of executed (diagnostics only).
        self.skipped_cycles = 0
        #: Number of skip spans applied.
        self.skips = 0
        #: The frozen scheduler view of the last plan; refilled by every
        #: plan that reaches the scheduler check, read by ``_apply``.
        self._view = SchedulerView()
        self.supported = self._check_supported()
        # The kernel hands quiet cycles back only when they can be
        # skipped; otherwise it runs to the end.
        kernel.stop_when_quiet = self.supported

    # ------------------------------------------------------------------
    # capability check (once per run)
    # ------------------------------------------------------------------

    def _check_supported(self) -> bool:
        sm = self.sm
        if sm.bus.enabled:
            # Event subscribers see every cycle.
            return False
        if not sm.scheduler.supports_idle_skip:
            return False
        if sm.regfile is not None:
            # Operand-collector arbitration state has no bulk replay.
            return False
        if not hasattr(sm.launcher, "launch_blocked_until"):
            return False
        for hook in sm.hooks:
            if not hasattr(hook, "idle_next_event"):
                return False
            if hook.idle_next_event(0) <= 0:
                # The hook pins every cycle (e.g. the CCWS decay hook):
                # no span could ever be skipped, so don't pay the
                # planning cost either.
                return False
        for domain in sm.domains.values():
            # A policy that keeps the base idle_cycles_until_gate cannot
            # predict its own gate decision.
            if type(domain.policy).idle_cycles_until_gate \
                    is GatingPolicy.idle_cycles_until_gate:
                return False
        return True

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def advance(self, cycle: int) -> int:
        """Skip ahead from ``cycle`` if a quiet span starts here.

        Returns the first cycle that must be executed (== ``cycle``
        when no skip is possible).  On a skip, all bulk accounting for
        the span [cycle, returned) has been applied; spans that abut
        are chained.
        """
        if not self.supported:
            return cycle
        start = cycle
        target = self._plan(cycle)
        while target > cycle:
            self._apply(cycle, target)
            cycle = target
            target = self._plan(cycle)
        if cycle == start:
            self.sm.stats.planner_overhead_cycles += 1
        return cycle

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def _plan(self, cycle: int) -> int:
        """Return the earliest interesting cycle >= ``cycle``.

        Any return <= ``cycle`` means "execute normally".  The kernel's
        warp-side verdict comes first: on unskippable cycles it costs a
        few attribute checks.
        """
        sm = self.sm
        kernel = self._kernel
        bound = kernel.quiet_until(cycle, sm.config.max_cycles)
        if bound <= cycle:
            return cycle

        for pipe, domain in sm._gated_pipes:
            if cycle < pipe.busy_until:
                # Busy throughout [cycle, busy_until): the controller
                # observes "busy" each cycle, so only a wake completion
                # (or the busy->idle edge itself) can change behaviour.
                event = domain.next_busy_event(cycle)
                if event is not None:
                    if event <= cycle:
                        return cycle
                    if event < bound:
                        bound = event
                if pipe.busy_until < bound:
                    bound = pipe.busy_until
            else:
                event = domain.next_idle_event(cycle)
                if event is None or event <= cycle:
                    return cycle
                if event < bound:
                    bound = event

        for hook in sm.hooks:
            event = hook.idle_next_event(cycle)
            if event <= cycle:
                return cycle
            if event < bound:
                bound = event

        resident = len(sm._resident)
        if sm.launcher.remaining and resident < len(sm.warps):
            event = sm.launcher.launch_blocked_until(cycle, resident)
            if event <= cycle:
                return cycle
            if event < bound:
                bound = event

        view = self._view
        actv = view.actv_counts
        actv4 = kernel._actv4
        for index, cls in enumerate(ALL_OP_CLASSES):
            actv[cls] = actv4[index]
        for cls in (OpClass.INT, OpClass.FP):
            view.type_in_blackout[cls] = sm._type_in_blackout(cycle, cls)
        if sm.scheduler.idle_flip_pending(cycle, view):
            return cycle
        return int(bound)

    # ------------------------------------------------------------------
    # bulk application
    # ------------------------------------------------------------------

    def _apply(self, cycle: int, target: int) -> None:
        """Account the quiet span [cycle, target) in bulk.

        Mirrors exactly what ``span`` ordinary ``_step`` calls would do
        on a no-issue cycle; see the module docstring for the argument
        that each per-cycle stage reduces to these updates.
        """
        sm = self.sm
        span = target - cycle
        stats = sm.stats
        actv = self._view.actv_counts

        # stage 4: classification samples.  Coordinated Blackout
        # policies read sm.actv_counts during the span, and the next
        # plan refills the planner's view, so copy rather than alias.
        kernel = self._kernel
        n_active = kernel._n_active
        stats.active_warp_sum += span * n_active
        stats.pending_warp_sum += span * kernel._n_pending
        if n_active > stats.active_warp_max:
            stats.active_warp_max = n_active
        sm.actv_counts.update(actv)

        # stage 3: fetch round-robin pointer
        sm.fetch.skip_idle_cycles(span, len(sm.warps))

        # stage 5: empty issue slots + scheduler pointer drift
        stats.stalls.no_ready_warp += span * sm.config.issue_width
        sm.scheduler.skip_idle_cycles(span)

        # stage 6: gating domains.  Busy pipelines pin the idle counter
        # at zero for the whole span (the span never crosses their
        # busy->idle edge — busy_until bounds it); idle ones accrue
        # idle cycles exactly as serial observation would.  The idle
        # trackers need no work at all here: they integrate busy/idle
        # spans from absolute cycles at the next issue (or the
        # end-of-run flush), so a skipped span lands in the right
        # period automatically.
        for pipe, domain in sm._gated_pipes:
            if cycle < pipe.busy_until:
                domain.skip_busy_cycles(cycle, span)
            else:
                domain.skip_idle_cycles(cycle, span)

        stats.cycles += span
        self.skipped_cycles += span
        self.skips += 1
        if kernel._resume == cycle:
            # Nothing executed over the span, so the kernel's state
            # still holds at its end.
            kernel._resume = target
