"""Incremental step kernel: the executing half of the SM fast path.

With ``fast_forward=True`` every cycle that is not skipped runs here.
:meth:`DenseStepKernel.run_window` executes windows of cycles against a
per-slot state block instead of re-deriving the whole classification
every cycle (the per-warp Python dispatch in ``_classify``/``order``/
``_issue`` that dominates the serial ``SM._step``), and returns just
before a cycle that state proves quiet on the warp side —
:meth:`DenseStepKernel.quiet_until` — so :mod:`repro.sim.fastforward`
can jump the span starting there.  The two never nest.

Two layers share the work:

* **Window entry** — every resident warp with a head is classified
  once from its memoised head summary, seeding the incremental state
  below.  The summaries follow the ``(popped, scoreboard version)``
  stamp discipline of the scalar cache, so a resync costs two integer
  compares per unchanged warp.  A window that resumes where a
  quiet-stopped one ended — the fast path, across a skipped span —
  needs none: nothing executed in between, and the span's time-driven
  changes wait in the transition heap.
* **Per cycle** — classification is maintained *by delta*, not
  recomputed: each slot carries a category (no head / unresolved /
  memory-pending / active-not-ready / ready); aggregate counts, the
  per-class ACTV counters and sorted ready-slot lists are updated only
  when a slot's category changes.  Time-driven changes (a pending
  window expiring at ``mem_until``, a ready flip at ``ready_at``) come
  from a min-heap of per-slot transition events; state-driven changes
  come from exactly the events that can invalidate the scalar cache.
  (Per-cycle numpy reductions over <= 48 slots were measured slower
  than the Python they replace — per-call overhead dominates at this
  width — which is why the cycle loop is event-driven.
  ``docs/performance.md`` has numbers.)

The synchronisation rules mirror the scalar cache's invalidation
conditions, which are complete by construction:

* ``scoreboard.version`` bumps only in ``record_issue`` (the issue
  walk), ``resolve_memory`` (writeback / retry drains) and ``reset``
  (slot reassignment);
* the popped-count half of the stamp changes only when an issue pops
  the buffer or a slot is (re)assigned;
* fetch appends move ``fetch_pc`` and the buffer length together, so a
  non-empty head row stays valid under fetch — only empty→non-empty
  transitions (tracked in ``_empty``) need a first classification;
* the kernel never calls ``release_completed``: a completed producer
  blocks nothing and classifies as nothing (the scoreboard's own
  contract — every readiness predicate compares the cycle against the
  producer's ready cycle), so dropping it is unobservable and the
  per-resident-warp scan each writeback would be pure overhead.  A
  later issue to the same register overwrites the stale entry;
* residency changes always replace the ``sm._resident`` list object,
  so one identity check per cycle detects them and triggers a full
  resync;
* between version bumps, recomputing a head summary at any cycle
  yields identical values (the cache's documented invariant), so the
  cached absolute thresholds driving the event heap never go stale.

Issue ordering runs natively for the built-in scheduler family via
their declared ``dense_order_mode`` (GATES' rank-bucket rotation, the
two-level last-issuer rotation, classic LRR), each transcribed from —
and kept decision-identical to — the scheduler's ``order``; every
other scheduler takes the generic path, which materialises the same
candidate list the scalar ``_classify`` builds and calls ``order``
itself.  Either way the hazard walk, bookkeeping, power update and
event publishes are faithful transcriptions of ``SM._step``'s stages:
a kernel-stepped window is bit-identical to the same cycles stepped
serially, and the golden identity harness pins that for every
technique.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import List, Optional, Set

from repro.isa.optypes import ALL_OP_CLASSES, ExecUnitKind, OpClass
from repro.obs.events import IssueStall
from repro.power.gating import DomainState
from repro.sim.sched.base import IssueCandidate

_CUDA_OP_CLASSES = (OpClass.INT, OpClass.FP)

#: Per-slot categories of the incremental classification.  Ordered so
#: ``cat >= CAT_WAIT`` means "in the active set".
CAT_NONE, CAT_UNRES, CAT_PEND, CAT_WAIT, CAT_READY = range(5)


class DenseStepKernel:
    """Executor for windows of cycles, maintained incrementally.

    Built by :meth:`StreamingMultiprocessor.run` for every fast-path
    run (``fast_forward=True``).  One instance serves one SM run;
    :meth:`run_window` may be called any number of times and
    resynchronises its classification state on entry, unless the
    window resumes exactly where a quiet-stopped one ended.
    """

    def __init__(self, sm) -> None:
        self.sm = sm
        #: Cycles executed through the kernel (diagnostics only — never
        #: part of a run's metrics, like the forwarder's skip counters).
        self.cycles = 0
        #: Windows executed (diagnostics only).
        self.windows = 0
        #: When True, :meth:`run_window` returns just before a cycle
        #: whose warp side :meth:`quiet_until` proves quiet, handing it
        #: to the span forwarder.  Set by the forwarder when it can skip.
        self.stop_when_quiet = False
        #: The cycle a quiet-stopped window returned at (advanced by the
        #: forwarder over each span it skips): a window entered there
        #: needs no resync, because nothing has executed since.
        self._resume = -1
        n_slots = self._n_slots = len(sm.warps)
        #: Resident slots whose I-buffer is empty with trace left to
        #: fetch: the only slots a fetch tick can flip NO_HEAD → KNOWN.
        self._empty: Set[int] = set()
        #: Slots whose scoreboard resolved a load this writeback (their
        #: classification is stale until refreshed).
        self._dirty: Set[int] = set()
        self._threshold = sm.config.memory.pending_threshold
        # --- incremental classification state --------------------------
        self._cat: List[int] = [CAT_NONE] * n_slots
        self._opx: List[int] = [0] * n_slots
        #: Per-slot generation counter; a heap event older than the
        #: slot's generation is orphaned (lazy invalidation).
        self._gen: List[int] = [0] * n_slots
        self._heap: list = []
        self._n_active = 0
        self._n_pending = 0
        #: Pending slots whose head waits on an unresolved load.
        self._n_unres = 0
        self._actv4: List[int] = [0, 0, 0, 0]
        #: Set whenever ``_actv4`` changes; stage 4 copies it into the
        #: scheduler view's ACTV dict only then.
        self._actv_changed = True
        #: Ready slots ascending, overall and per op-class index: the
        #: rotations below slice these instead of sorting per cycle.
        self._ready_all: List[int] = []
        self._ready_cls: List[List[int]] = [[], [], [], []]
        sched = sm.scheduler
        self._all_cands = sched.needs_all_candidates
        #: Native ordering mode declared by the scheduler, or None for
        #: the generic call-order-every-cycle path.
        self._mode: Optional[str] = getattr(sched, "dense_order_mode",
                                            None)
        #: Active slots ascending — maintained only for the generic
        #: path, which must hand the scheduler the full active set.
        self._active_all: Optional[List[int]] = \
            [] if self._mode is None else None
        self._rank_order = None
        if self._mode == "gates":
            # Single source of truth for the priority ladder: the rank
            # tables are derived from the scheduler's own class order.
            from repro.core.gates import _CLASS_ORDER
            self._rank_order = {
                highest: tuple(int(cls) for cls in order)
                for highest, order in _CLASS_ORDER.items()}

    # ------------------------------------------------------------------
    # window driver
    # ------------------------------------------------------------------

    def run_window(self, start: int, end: int) -> int:
        """Execute cycles ``[start, end)`` (stopping early on drain).

        With :attr:`stop_when_quiet` set, the window also stops just
        before the first cycle whose warp side is quiet (see
        :meth:`quiet_until`).  Returns the first cycle *not* executed;
        always > ``start`` when the SM is not drained and ``start <
        end``, so the caller's main loop makes progress.
        """
        sm = self.sm
        self.windows += 1
        if sm._sm_tracker is None:
            sm._bind_trackers()
        if start != self._resume:
            self._sync_all(start)
        cycle = start
        drained = sm._drained
        step = self._cycle
        quiet = self.quiet_until if self.stop_when_quiet else None
        while cycle < end and not drained():
            step(cycle)
            cycle += 1
            if quiet is not None and quiet(cycle, end) > cycle:
                self._resume = cycle
                break
        self.cycles += cycle - start
        return cycle

    def quiet_until(self, cycle: int, horizon) -> int:
        """First cycle after ``cycle`` at which the warp side can change.

        Called between cycles (``cycle`` not yet executed).  The warp
        side is quiet when no slot is ready, fetch has nothing to
        stream, no retry or finished warp awaits, and every pipeline
        drain, memory event and slot transition lies beyond ``cycle``;
        the earliest of those (capped at ``horizon``) is returned.
        Otherwise returns ``cycle``.  Slot transitions due at ``cycle``
        are applied first — exactly what stage 4 would do — so a quiet
        verdict describes the classification ``cycle`` will see.
        """
        if self._ready_all:
            return cycle
        sm = self.sm
        if sm.fetch.needy or sm._retry or sm._finish_check:
            return cycle
        heap = self._heap
        if heap and heap[0][0] <= cycle:
            self._transitions(cycle)
            if self._ready_all:
                return cycle
        gen = self._gen
        while heap and heap[0][2] != gen[heap[0][1]]:
            heappop(heap)  # orphaned events would only shorten the bound
        bound = horizon
        if heap and heap[0][0] < bound:
            bound = heap[0][0]
        ldst_flight = False
        for pipe in sm.pipelines:
            nxt = pipe.next_state_change(cycle)
            if nxt is not None:
                if nxt <= cycle:
                    return cycle
                if nxt < bound:
                    bound = nxt
                if pipe.kind is ExecUnitKind.LDST:
                    ldst_flight = True
        if self._n_unres and not ldst_flight:
            # An unresolved load with no LDST completion to bound its
            # resolution (cannot happen outside retry pressure, which
            # already answered) — refuse rather than guess.
            return cycle
        mem_event = sm.memory.next_completion_cycle()
        if mem_event <= cycle:
            return cycle
        if mem_event < bound:
            bound = mem_event
        return bound

    # ------------------------------------------------------------------
    # classification state maintenance
    # ------------------------------------------------------------------

    def _sync_all(self, cycle: int) -> None:
        """Rebuild the whole classification state at ``cycle``.

        Called at window entry and after any residency change.  Warp
        caches whose ``(popped, version)`` stamp is unchanged cost two
        integer compares each.
        """
        sm = self.sm
        n_slots = len(sm.warps)
        self._cat = [CAT_NONE] * n_slots
        self._gen = [0] * n_slots
        self._heap = []
        self._n_active = 0
        self._n_pending = 0
        self._n_unres = 0
        self._actv4 = [0, 0, 0, 0]
        self._actv_changed = True
        self._ready_all = []
        self._ready_cls = [[], [], [], []]
        if self._mode is None:
            self._active_all = []
        empty = self._empty
        empty.clear()
        self._dirty.clear()
        for warp in sm._resident:
            buf = warp.ibuffer
            if not buf:
                if warp.fetch_pc < warp.trace_len:
                    empty.add(warp.slot)
                continue
            self._refresh_cache(warp, buf)
            self._classify_slot(warp, cycle)

    def _refresh_cache(self, warp, buf) -> None:
        """The scalar stamp-guarded head-summary refresh, verbatim.

        Identical to the memoised refresh in ``SM._classify`` (the
        planner shares it too), so the warp's cached candidates stay
        interchangeable between the kernel and the serial path mid-run.
        """
        scoreboard = warp.scoreboard
        popped = warp.fetch_pc - len(buf)
        version = scoreboard.version
        if popped != warp.cache_popped or version != warp.cache_version:
            head = buf[0]
            (warp.head_ready_at, warp.head_mem_until,
             warp.head_unresolved) = scoreboard.head_status(
                head, self._threshold)
            warp.cache_popped = popped
            warp.cache_version = version
            warp.head_inst = head
            age = self.sm._ages[warp.slot]
            warp.cand_ready = IssueCandidate(warp.slot, age, head, True)
            warp.cand_stalled = (
                IssueCandidate(warp.slot, age, head, False)
                if self._all_cands else None)

    def _classify_slot(self, warp, cycle: int) -> None:
        """(Re)derive one slot's category and add its contributions.

        The slot must currently contribute nothing (fresh sync, or
        :meth:`_remove` just ran).  Pushes at most one transition event
        — the earliest future cycle at which the category can change on
        its own — so each slot has at most one live heap entry.
        """
        slot = warp.slot
        gen = self._gen[slot] + 1
        self._gen[slot] = gen
        opx = int(warp.head_inst.op_class)
        self._opx[slot] = opx
        if warp.head_unresolved:
            self._cat[slot] = CAT_UNRES
            self._n_pending += 1
            self._n_unres += 1
            return
        mem_until = warp.head_mem_until
        if cycle < mem_until:
            self._cat[slot] = CAT_PEND
            self._n_pending += 1
            heappush(self._heap, (mem_until, slot, gen))
            return
        self._n_active += 1
        self._actv4[opx] += 1
        self._actv_changed = True
        if self._active_all is not None:
            insort(self._active_all, slot)
        ready_at = warp.head_ready_at
        if cycle >= ready_at:
            self._cat[slot] = CAT_READY
            insort(self._ready_all, slot)
            insort(self._ready_cls[opx], slot)
        else:
            self._cat[slot] = CAT_WAIT
            heappush(self._heap, (ready_at, slot, gen))

    def _remove(self, slot: int) -> None:
        """Retract one slot's contributions (its category becomes NONE)."""
        cat = self._cat[slot]
        if cat >= CAT_WAIT:
            self._n_active -= 1
            opx = self._opx[slot]
            self._actv4[opx] -= 1
            self._actv_changed = True
            if self._active_all is not None:
                self._active_all.remove(slot)
            if cat == CAT_READY:
                self._ready_all.remove(slot)
                self._ready_cls[opx].remove(slot)
        elif cat:
            self._n_pending -= 1
            if cat == CAT_UNRES:
                self._n_unres -= 1
        self._cat[slot] = CAT_NONE

    def _refresh(self, warp, cycle: int) -> None:
        """Re-sync one non-empty slot after a tracked state change."""
        buf = warp.ibuffer
        popped = warp.fetch_pc - len(buf)
        version = warp.scoreboard.version
        if popped == warp.cache_popped \
                and version == warp.cache_version:
            return  # nothing actually moved; contributions stand
        self._refresh_cache(warp, buf)
        self._remove(warp.slot)
        self._classify_slot(warp, cycle)

    def _transitions(self, cycle: int) -> None:
        """Apply every slot transition event due at or before ``cycle``."""
        heap = self._heap
        gen = self._gen
        warps = self.sm.warps
        while heap and heap[0][0] <= cycle:
            slot = heap[0][1]
            if heappop(heap)[2] == gen[slot]:
                self._remove(slot)
                self._classify_slot(warps[slot], cycle)

    def _invalidate(self, slot: int) -> None:
        """Drop a slot that no longer has a head (freed/empty buffer)."""
        self._remove(slot)
        self._gen[slot] += 1  # orphan any in-flight transition event

    # ------------------------------------------------------------------
    # one dense cycle
    # ------------------------------------------------------------------

    def _cycle(self, cycle: int) -> None:
        sm = self.sm

        # stage 1: writeback (transcribed, collecting resolved slots)
        self._writeback(cycle)

        # stage 2: warp management; any residency change replaces the
        # _resident list object, which forces a full resync.  With no
        # warp that may have finished and no launch possible (nothing
        # queued, or no free slot) the call would do nothing.
        resident_before = sm._resident
        if sm._finish_check or (sm.launcher.remaining
                                and len(resident_before) < self._n_slots):
            sm._manage_warps(cycle)
        if sm._resident is not resident_before:
            self._sync_all(cycle)
        elif self._dirty:
            warps = sm.warps
            for slot in self._dirty:
                warp = warps[slot]
                if warp.ibuffer:
                    self._refresh(warp, cycle)
            self._dirty.clear()

        # stage 3: fetch; classify heads fetch flipped NO_HEAD -> KNOWN.
        sm.stats.fetched += sm.fetch.tick(sm.warps)
        empty = self._empty
        if empty:
            warps = sm.warps
            for slot in [s for s in empty if warps[s].ibuffer]:
                self._refresh(warps[slot], cycle)
                empty.discard(slot)

        # stage 4: classification = due transition events + aggregates.
        heap = self._heap
        if heap and heap[0][0] <= cycle:
            self._transitions(cycle)
        view = sm._view
        if self._actv_changed:
            self._actv_changed = False
            actv = view.actv_counts
            actv4 = self._actv4
            for index, cls in enumerate(ALL_OP_CLASSES):
                actv[cls] = actv4[index]
            sm.actv_counts = actv
        if sm._has_blackout:
            blackout = view.type_in_blackout
            for cls in _CUDA_OP_CLASSES:
                doms = sm._blackout_domains[cls]
                flag = bool(doms)
                for domain in doms:
                    gated_since = domain._gated_since
                    if gated_since is None \
                            or cycle - gated_since >= domain.bet:
                        flag = False
                        break
                blackout[cls] = flag
        stats = sm.stats
        n_active = self._n_active
        stats.active_warp_sum += n_active
        stats.pending_warp_sum += self._n_pending
        if n_active > stats.active_warp_max:
            stats.active_warp_max = n_active

        # stage 5: schedule-select + issue walk
        regfile = sm.regfile
        if regfile is not None:
            regfile.begin_cycle()
        ordered = self._order(cycle, view)
        if ordered:
            issued = self._walk(cycle, ordered)
            warps = sm.warps
            for slot in issued:
                warp = warps[slot]
                if warp.ibuffer:
                    self._refresh(warp, cycle)
                else:
                    self._invalidate(slot)
                    if warp.fetch_pc < warp.trace_len:
                        empty.add(slot)
        else:
            width = sm._issue_width
            stats.stalls.no_ready_warp += width
            bus = sm.bus
            if bus.enabled:
                stall = IssueStall(cycle, "no_ready_warp")
                publish = bus.publish
                for _ in range(width):
                    publish(stall)

        # stage 6: power update, cycle count, hooks
        sm._update_power(cycle)
        stats.cycles += 1
        for hook in sm.hooks:
            hook.on_cycle(cycle)

    # ------------------------------------------------------------------
    # stage transcriptions
    # ------------------------------------------------------------------

    def _writeback(self, cycle: int) -> None:
        """``SM._writeback`` with resolved-load slot collection.

        A slot's classification goes stale during writeback exactly
        when its scoreboard version bumps, i.e. when ``resolve_memory``
        ran — a successful non-store access.  Retires touch no stamped
        state.  Unlike ``SM._writeback`` the kernel never scans for
        completed producers (see the module docstring).
        """
        sm = self.sm
        dirty = self._dirty
        memory = sm.memory
        if cycle >= memory.next_event:
            for completion in memory.tick(cycle):
                sm._retire(completion.warp_slot)
        for pipe in sm.pipelines:
            flight = pipe._in_flight
            if flight and flight[0][0] <= cycle:
                for done in pipe.drain(cycle):
                    inst = done.inst
                    if inst.is_mem:
                        slot = done.warp_slot
                        if sm._access_memory(cycle, slot, inst) \
                                and not inst.is_store:
                            dirty.add(slot)
                    else:
                        sm._retire(done.warp_slot)
        if sm._retry:
            still_waiting = []
            for slot, inst in sm._retry:
                if not sm._access_memory(cycle, slot, inst,
                                         requeue=False):
                    still_waiting.append((slot, inst))
                elif not inst.is_store:
                    dirty.add(slot)
            sm._retry = still_waiting

    def _order(self, cycle: int, view) -> Optional[List[int]]:
        """The scheduler's issue order for this cycle, as slot indices.

        Native modes replicate the per-cycle mutations of the
        scheduler's ``order`` exactly (GATES' priority update, LRR's
        pointer advance) including on no-ready cycles, because the
        scalar issue stage calls ``order`` unconditionally.  Returns a
        falsy value when nothing is ready.
        """
        sm = self.sm
        sched = sm.scheduler
        mode = self._mode
        if mode is None:
            # Generic path: same candidate list _classify builds, in
            # ascending slot order, then the scheduler's own order().
            candidates: List[IssueCandidate] = []
            rdy = view.rdy_counts
            ready_cls = self._ready_cls
            for index, cls in enumerate(ALL_OP_CLASSES):
                rdy[cls] = len(ready_cls[index])
            active_all = self._active_all
            if active_all:
                warps = sm.warps
                cat = self._cat
                all_cands = self._all_cands
                append = candidates.append
                for slot in active_all:
                    warp = warps[slot]
                    if cat[slot] == CAT_READY:
                        append(warp.cand_ready)
                    elif all_cands:
                        append(warp.cand_stalled)
            return [c.slot
                    for c in sched.order(cycle, candidates, view)]
        if mode == "gates":
            sched._update_priority(cycle, view)
            if not self._ready_all:
                return None
            start = (sched._last_slot + 1) % sched.n_slots
            ready_cls = self._ready_cls
            order: List[int] = []
            for opx in self._rank_order[sched._highest]:
                bucket = ready_cls[opx]
                if bucket:
                    order += self._rotate(bucket, start)
            return order
        if mode == "rotate_every_cycle":
            start = sched._pointer
            sched._pointer = (start + 1) % sched.n_slots
            if not self._ready_all:
                return None
            return self._rotate(self._ready_all, start)
        # "rotate_after_last"
        if not self._ready_all:
            return None
        return self._rotate(self._ready_all,
                            (sched._last_slot + 1) % sched.n_slots)

    @staticmethod
    def _rotate(slots: List[int], start: int) -> List[int]:
        """Rotate an ascending unique slot list to begin at ``start``.

        Equivalent to ``rotated_ready`` on slot-ascending candidates:
        slots >= start first, then the wrap-around block.
        """
        index = bisect_left(slots, start)
        if index == 0 or index == len(slots):
            return slots
        return slots[index:] + slots[:index]

    def _walk(self, cycle: int, ordered: List[int]) -> List[int]:
        """The hazard walk of ``SM._issue``'s ordered branch, verbatim.

        ``ordered`` holds slot indices; each maps to the warp's
        memoised ready candidate — the very object the scalar path
        would hand the scheduler, so ``on_issue`` sees identical
        arguments.  Returns the slots that issued, so the caller can
        refresh them (an issue pops the buffer and bumps the version).
        """
        sm = self.sm
        width = sm._issue_width
        issued = 0
        issued_slots: List[int] = []
        regfile = sm.regfile
        stats = sm.stats
        stalls = stats.stalls
        unit_table = sm._unit_table
        warps = sm.warps
        bus = sm.bus
        publish_events = bus.enabled
        for slot in ordered:
            if issued >= width:
                break
            candidate = warps[slot].cand_ready
            inst = candidate.inst
            pipes, doms, n_pipes, is_ldst = unit_table[inst.op_class]
            if is_ldst and sm._retry:
                stalls.mshr_full += 1
                if publish_events:
                    bus.publish(IssueStall(cycle, "mshr_full"))
                continue
            index = slot % n_pipes
            pipe = pipes[index]
            domain = doms[index]
            if domain is not None \
                    and not (domain._gated_since is None
                             and cycle >= domain._wake_done):
                if domain.state(cycle) is DomainState.WAKING:
                    stalls.unit_waking += 1
                    if publish_events:
                        bus.publish(IssueStall(cycle, "unit_waking"))
                    continue
                domain.request_wakeup(cycle)
                if domain._gated_since is not None:
                    stalls.unit_gated += 1
                    if publish_events:
                        bus.publish(IssueStall(cycle, "unit_gated"))
                else:
                    stalls.unit_waking += 1
                    if publish_events:
                        bus.publish(IssueStall(cycle, "unit_waking"))
                continue
            if cycle < pipe._port_free_at:
                stalls.structural += 1
                if publish_events:
                    bus.publish(IssueStall(cycle, "structural"))
                continue
            warp = warps[slot]
            warp.pop_head()
            conflict = (regfile.charge(slot, inst)
                        if regfile is not None else 0)
            warp.scoreboard.record_issue(inst, cycle + conflict)
            pipe.issue(cycle, slot, inst, extra_hold=conflict)
            until = sm._sm_busy_until
            if cycle >= until:
                tracker = sm._sm_tracker
                tracker.observe_busy_span(until - sm._sm_span_start)
                tracker.observe_idle_span(cycle - until)
                sm._sm_span_start = cycle
                until = cycle
            pipe_until = pipe.busy_until
            if pipe_until > until:
                until = pipe_until
            sm._sm_busy_until = until
            warp.outstanding += 1
            stats.instructions_issued += 1
            stats.issued_by_class[inst.op_class] += 1
            sm.scheduler.on_issue(cycle, candidate)
            issued += 1
            issued_slots.append(slot)
        return issued_slots


__all__ = ["DenseStepKernel", "CAT_NONE", "CAT_UNRES", "CAT_PEND",
           "CAT_WAIT", "CAT_READY"]
