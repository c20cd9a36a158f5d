"""The synchronous simulation-service core.

One object — :class:`SimulationService` — owns the whole run path that
was previously duplicated across the experiment runner, the sweeps, the
replication harness and the CLI:

* **requests, not call sites**: a :class:`JobRequest` is the frozen
  identity of one simulation (benchmark, resolved technique spec, SM
  config, seed, scale, fast-forward choice);
* **single-flight dedupe**: concurrent or repeated submissions of the
  same request share one :class:`JobTicket` — one engine execution, N
  responses — keyed on the spec's canonical
  :meth:`~repro.core.spec.TechniqueSpec.spec_hash` so a registered
  name and an equal hand-built spec land on one ticket;
* **structured lifecycle**: tickets move ``queued`` → ``running`` →
  a terminal :class:`JobState` mapped from the engine's
  :class:`~repro.engine.faults.JobStatus`; every acceptance and state
  change is published on the engine's telemetry bus as
  :class:`~repro.obs.telemetry.ServiceJobAccepted` /
  :class:`~repro.obs.telemetry.ServiceJobStateChanged`;
* **both execution paths**: with an engine, jobs go through
  :meth:`~repro.engine.pool.ParallelEngine.run_sim_jobs` (persistent
  cache, retries, ledger); without one, the inline path reproduces the
  classic serial runner byte-for-byte, including event-bus wiring.

The service is synchronous and thread-safe.  The engine itself is
*not* thread-safe (per-batch telemetry state), so all engine access is
serialised behind one lock — concurrency buys dedupe, not parallel
batches; the engine's own worker pool provides the fan-out.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.spec import TechniqueSpec, as_spec
from repro.core.techniques import build_sm
from repro.engine.faults import JobFailedError, last_error_line
from repro.engine.jobs import JobOutcome, SimJob
from repro.obs.bus import EventBus
from repro.obs.manifest import RunManifest, config_hash
from repro.obs.telemetry import (
    EngineEvent,
    ServiceJobAccepted,
    ServiceJobStateChanged,
    job_label,
)
from repro.sim.config import SMConfig
from repro.sim.sm import SimResult
from repro.workloads.registry import build_kernel
from repro.workloads.specs import get_profile


class JobState(str, Enum):
    """Lifecycle of one service job.

    The terminal states mirror :class:`~repro.engine.faults.JobStatus`
    value-for-value, so ``JobState(outcome.status.value)`` is the whole
    mapping.
    """

    QUEUED = "queued"
    RUNNING = "running"
    OK = "ok"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """True for settled states (anything but queued/running)."""
        return self not in (JobState.QUEUED, JobState.RUNNING)


@dataclass(frozen=True)
class JobRequest:
    """The frozen identity of one requested simulation.

    ``technique`` may be given as a registered name or a
    :class:`~repro.core.spec.TechniqueSpec`; it is resolved once, at
    construction, and holds the spec every key uses — the same
    convention as :class:`~repro.engine.jobs.SimJob`.

    ``fast_forward=None`` (the default) defers to the executing path:
    the engine's configured default when one is attached, plain serial
    simulation inline — exactly what the pre-service runner did.
    """

    benchmark: str
    technique: TechniqueSpec
    sm_config: SMConfig = field(default_factory=SMConfig)
    seed: int = 0
    scale: float = 1.0
    fast_forward: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "technique", as_spec(self.technique))

    def label(self) -> str:
        """Telemetry label, matching the engine's ``job_label`` form."""
        return f"{self.benchmark}/{self.technique.name}/s{self.seed}"

    def key(self, fast_forward: bool) -> Tuple:
        """The single-flight dedupe key, with fast-forward resolved.

        Finer than the old runner memo key — it also pins the SM config
        and the resolved fast-forward flag, so one service shared by
        differently-configured callers can never alias their cells.
        """
        return (self.benchmark, self.technique.spec_hash(), self.seed,
                self.scale, config_hash(self.sm_config), fast_forward)

    def to_sim_job(self, fast_forward: bool) -> SimJob:
        """The engine-level :class:`SimJob` this request resolves to."""
        return SimJob(benchmark=self.benchmark, config=self.technique,
                      sm_config=self.sm_config, seed=self.seed,
                      scale=self.scale, fast_forward=fast_forward)


class JobTicket:
    """One deduped unit of work and everything observable about it.

    Tickets are created by :meth:`SimulationService.submit` and shared
    by every submission of the same request.  ``submissions`` counts
    how many times the ticket was (re-)submitted — the observable proof
    of single-flight dedupe.
    """

    def __init__(self, job_id: str, request: JobRequest, key: Tuple,
                 fast_forward: bool) -> None:
        self.job_id = job_id
        self.request = request
        self.key = key
        self.fast_forward = fast_forward
        self.label = request.label()
        self.state = JobState.QUEUED
        self.outcome: Optional[JobOutcome] = None
        self.submissions = 1
        self.created_at = time.time()
        self._done = threading.Event()
        self._run_lock = threading.Lock()
        self._exception: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        """True once the ticket has settled (without blocking)."""
        return self._done.is_set()

    def result(self) -> SimResult:
        """The settled result; raises like the classic runner.

        A terminally failed engine job raises
        :class:`~repro.engine.faults.JobFailedError`; an inline-path
        exception is re-raised as itself.  Call only on a done ticket.
        """
        if not self._done.is_set():
            raise RuntimeError(f"job {self.job_id} has not settled yet")
        if self._exception is not None:
            raise self._exception
        assert self.outcome is not None
        if not self.outcome.ok:
            raise_for_outcome(self.request.benchmark,
                              self.request.technique, self.outcome)
        return self.outcome.result


def raise_for_outcome(benchmark: str, spec: TechniqueSpec,
                      outcome: JobOutcome) -> None:
    """Raise the canonical :class:`JobFailedError` for a failed cell.

    Moved verbatim from ``ExperimentRunner._raise_failure`` so the
    runner, the service and the CLI all phrase failures identically.
    """
    reason = last_error_line(outcome.error) or outcome.status.value
    raise JobFailedError(
        f"{benchmark}/{spec.name} {outcome.status.value} "
        f"after {outcome.attempts} attempt(s): {reason}",
        status=outcome.status, error=outcome.error)


class SimulationService:
    """Spec-addressed, single-flight simulation execution.

    Args:
        engine: Optional :class:`~repro.engine.pool.ParallelEngine`.
            With one, jobs gain the persistent cache, retries and the
            run ledger; without one, the inline serial path runs.
        bus: Optional :class:`~repro.obs.bus.EventBus` wired into every
            inline-built SM.  A service with a bus ignores the engine —
            event streams are inherently in-process — preserving the
            runner's long-standing rule.
        worker: Optional override for the engine-side executing
            callable, passed through to
            :meth:`~repro.engine.pool.ParallelEngine.run_sim_jobs` —
            the fault-injection seam the test-suite uses.

    Thread-safety: the ticket table has its own lock; all engine access
    is serialised behind ``_exec_lock`` (the engine keeps per-batch
    telemetry state and must never see two batches at once).  Inline
    execution is serialised the same way — the bus, when present, is a
    single in-process stream.
    """

    def __init__(self, engine=None, bus: Optional[EventBus] = None,
                 worker: Optional[Callable[[SimJob], JobOutcome]] = None):
        self.bus = bus
        self.engine = engine if bus is None else None
        self.worker = worker
        self._lock = threading.Lock()
        self._exec_lock = threading.Lock()
        self._tickets: Dict[str, JobTicket] = {}
        self._by_key: Dict[Tuple, JobTicket] = {}
        #: Provenance records, one per actual execution (not per
        #: submission), in settle order.
        self.manifests: List[RunManifest] = []
        self._telemetry_bus = self._find_telemetry_bus()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> Tuple[JobTicket, bool]:
        """Register one request; returns ``(ticket, created)``.

        ``created`` is True when this submission created the ticket
        (the caller is then responsible for driving :meth:`execute`);
        False marks a deduped submission sharing an existing ticket.
        """
        fast_forward = self._resolve_fast_forward(request)
        key = request.key(fast_forward)
        with self._lock:
            ticket = self._by_key.get(key)
            if ticket is not None:
                ticket.submissions += 1
                created = False
            else:
                ticket = JobTicket(uuid.uuid4().hex[:12], request, key,
                                   fast_forward)
                self._tickets[ticket.job_id] = ticket
                self._by_key[key] = ticket
                created = True
        self._publish(ServiceJobAccepted.now(
            job_id=ticket.job_id, label=ticket.label,
            spec_hash=request.technique.spec_hash(), deduped=not created))
        return ticket, created

    def tickets(self) -> List[JobTicket]:
        """Every known ticket, oldest first."""
        with self._lock:
            return sorted(self._tickets.values(),
                          key=lambda t: t.created_at)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, ticket: JobTicket) -> JobOutcome:
        """Drive one ticket to a terminal state (idempotent).

        The first caller in executes; concurrent callers block on the
        per-ticket lock and return the shared settled outcome.  Engine
        failures settle the ticket (and are memoised — re-reading a
        failed cell never silently re-simulates); inline exceptions
        settle the ticket for waiters but *drop it from the dedupe
        table*, preserving the classic runner's non-memoising inline
        behaviour.
        """
        if ticket._done.is_set():
            return self._settled(ticket)
        with ticket._run_lock:
            if ticket._done.is_set():
                return self._settled(ticket)
            self._set_state(ticket, JobState.RUNNING)
            try:
                if self.engine is not None:
                    outcome = self._execute_engine(ticket)
                else:
                    outcome = self._execute_inline(ticket)
            except BaseException as exc:
                self._settle_exception(ticket, exc)
                raise
            self._settle(ticket, outcome)
            return outcome

    def run(self, request: JobRequest) -> SimResult:
        """Submit + execute + unwrap: the whole classic run() contract.

        Deduped against every other submission; raises
        :class:`JobFailedError` for terminally failed engine cells and
        re-raises inline exceptions as themselves.
        """
        ticket, _ = self.submit(request)
        self.execute(ticket)
        return ticket.result()

    def prefetch(self, requests: Sequence[JobRequest]) -> List[JobTicket]:
        """Fan a batch through the engine as *one* ledgered batch.

        Already-settled and in-flight cells are skipped (their tickets
        are still returned, in request order, duplicates collapsed).
        Without an engine this is a no-op beyond ticket registration —
        the inline path computes lazily, as the serial runner always
        has.
        """
        tickets: List[JobTicket] = []
        owned: List[JobTicket] = []
        seen = set()
        for request in requests:
            ticket, created = self.submit(request)
            if ticket.job_id in seen:
                continue
            seen.add(ticket.job_id)
            tickets.append(ticket)
            if created:
                owned.append(ticket)
        if self.engine is None or not owned:
            return tickets
        with self._exec_lock:
            # Re-check under the lock: a concurrent execute() may have
            # settled (or be about to settle) some of our tickets.
            batch = [t for t in owned
                     if not t.done and t._run_lock.acquire(blocking=False)]
            try:
                if not batch:
                    return tickets
                for ticket in batch:
                    self._set_state(ticket, JobState.RUNNING)
                jobs = [t.request.to_sim_job(t.fast_forward)
                        for t in batch]
                outcomes = self._run_engine_batch(jobs)
                for ticket, outcome in zip(batch, outcomes):
                    self._settle(ticket, outcome)
            finally:
                for ticket in batch:
                    ticket._run_lock.release()
        return tickets

    # ------------------------------------------------------------------
    # execution paths
    # ------------------------------------------------------------------

    def _execute_engine(self, ticket: JobTicket) -> JobOutcome:
        with self._exec_lock:
            job = ticket.request.to_sim_job(ticket.fast_forward)
            return self._run_engine_batch([job])[0]

    def _run_engine_batch(self, jobs: List[SimJob]) -> List[JobOutcome]:
        """One engine batch; must be called under ``_exec_lock``."""
        if self.worker is not None:
            return self.engine.run_sim_jobs(jobs, worker=self.worker)
        return self.engine.run_sim_jobs(jobs)

    def _execute_inline(self, ticket: JobTicket) -> JobOutcome:
        """The classic serial path, byte-for-byte, as a JobOutcome.

        Mirrors the pre-service ``ExperimentRunner._run_uncached``: the
        service bus is wired into the SM, the manifest carries the
        ``build_trace`` / ``simulate`` wall phases and the SM bus's
        publication count.  Serialised behind ``_exec_lock`` so a
        shared bus only ever sees one run at a time.
        """
        request = ticket.request
        spec = request.technique
        with self._exec_lock:
            t0 = time.perf_counter()
            kernel = build_kernel(request.benchmark, seed=request.seed,
                                  scale=request.scale)
            t1 = time.perf_counter()
            sm = build_sm(kernel, spec, sm_config=request.sm_config,
                          dram_latency=get_profile(
                              request.benchmark).dram_latency,
                          bus=self.bus,
                          fast_forward=ticket.fast_forward)
            result = sm.run()
            t2 = time.perf_counter()
        manifest = RunManifest(
            benchmark=request.benchmark,
            technique=spec.name,
            seed=request.seed,
            scale=request.scale,
            config_hash=config_hash(spec.spec_hash(), request.sm_config),
            cycles=result.cycles,
            instructions=result.stats.instructions_retired,
            wall_seconds={"build_trace": t1 - t0, "simulate": t2 - t1},
            events_published=sm.bus.events_published,
            spec=spec.to_dict())
        return JobOutcome(result=result, manifest=manifest)

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------

    def _settle(self, ticket: JobTicket, outcome: JobOutcome) -> None:
        ticket.outcome = outcome
        with self._lock:
            self.manifests.append(outcome.manifest)
        self._set_state(ticket, JobState(outcome.status.value))
        ticket._done.set()

    def _settle_exception(self, ticket: JobTicket,
                          exc: BaseException) -> None:
        """Settle an inline-path exception without memoising it.

        Waiters blocked on the ticket re-raise the stored exception;
        the key is dropped from the dedupe table so the next submission
        re-attempts — exactly the classic runner, where an inline raise
        left nothing in the memo.
        """
        ticket._exception = exc
        with self._lock:
            self._by_key.pop(ticket.key, None)
            self._tickets.pop(ticket.job_id, None)
        self._set_state(ticket, JobState.FAILED)
        ticket._done.set()

    def _settled(self, ticket: JobTicket) -> JobOutcome:
        if ticket._exception is not None:
            raise ticket._exception
        assert ticket.outcome is not None
        return ticket.outcome

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def _set_state(self, ticket: JobTicket, state: JobState) -> None:
        ticket.state = state
        self._publish(ServiceJobStateChanged.now(
            job_id=ticket.job_id, label=ticket.label,
            state=state.value))

    def _find_telemetry_bus(self) -> Optional[EventBus]:
        telemetry = getattr(self.engine, "telemetry", None)
        bus = getattr(telemetry, "bus", None)
        return bus if getattr(bus, "enabled", False) else None

    def _publish(self, event: EngineEvent) -> None:
        if self._telemetry_bus is not None:
            self._telemetry_bus.publish(event)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _resolve_fast_forward(self, request: JobRequest) -> bool:
        if request.fast_forward is not None:
            return request.fast_forward
        if self.engine is not None:
            return self.engine.fast_forward
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            n = len(self._tickets)
        return (f"SimulationService(engine={self.engine!r}, "
                f"tickets={n})")


__all__ = [
    "JobRequest",
    "JobState",
    "JobTicket",
    "SimulationService",
    "job_label",
    "raise_for_outcome",
]
