"""Spans around calls into the simulator's layers, for the traced run.

The benchmark records spans from its own files: :func:`install` swaps
each public function or method at a layer boundary for a wrapper that
times the call, and :meth:`Tracer.uninstall` puts the originals
back.  Spans are aggregated in memory per name (calls and inclusive
seconds), plus counters read from return values.

Engine workers are forked from the benchmark process, so they inherit
the wrappers.  Their spans come back through a spool directory: the
per-job entry that replaces ``repro.engine.pool.execute_job`` writes
the worker's totals since the fork to ``<spool>/<pid>.json`` after
every job, and :meth:`Tracer.merge_spool` adds them to the parent's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The tracer installed in this process.  Forked engine workers find
#: it here; nothing else reads it.
_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Per-name span aggregates and counters for one process."""

    def __init__(self) -> None:
        #: The process that installed the wrappers, and the one whose
        #: totals ``spans``/``counts`` hold (a worker after its fork).
        self.home = self.pid = os.getpid()
        #: name -> [calls, inclusive seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._restore: List[tuple] = []
        self._base_spans: Dict[str, List[float]] = {}
        self._base_counts: Dict[str, float] = {}

    # -- recording -------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``on_result(tracer, args,
        result)`` turns its return value into counters.  ``name`` may
        be a callable that names each span from the call's arguments."""
        spans = self.spans
        fixed = None if callable(name) else spans.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals = fixed if fixed is not None else \
                spans.setdefault(name(args), [0, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                totals[0] += 1
                totals[1] += clock() - start
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def calls(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def reset(self) -> None:
        """Zero every aggregate in place (the wrappers keep theirs)."""
        for totals in self.spans.values():
            totals[:] = [0, 0.0]
        self.counts.clear()

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, name,
              on_result: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` and every ``repro`` module-level alias of
        the same function (``from x import f`` copies)."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, on_result)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [module for key, module in list(sys.modules.items())
                        if key.startswith("repro") and module is not owner
                        and getattr(module, attr, None) is original]
        for target in targets:
            self._restore.append((target, attr, original))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original function back (reverse order)."""
        global _ACTIVE
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)
        if _ACTIVE is self:
            _ACTIVE = None

    # -- engine workers ---------------------------------------------------

    def _enter_worker(self) -> None:
        """First job in a forked worker: start counting from here."""
        self.pid = os.getpid()
        self._base_spans = {k: list(v) for k, v in self.spans.items()}
        self._base_counts = dict(self.counts)

    def _spool(self, directory: str) -> None:
        delta = {
            "spans": {k: [v[i] - self._base_spans.get(k, (0, 0.0))[i]
                          for i in range(2)]
                      for k, v in self.spans.items()},
            "counts": {k: v - self._base_counts.get(k, 0)
                       for k, v in self.counts.items()},
        }
        path = Path(directory) / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(delta), encoding="utf-8")
        os.replace(tmp, path)

    def merge_spool(self, directory: Path) -> int:
        """Add every worker's spooled totals; returns the worker count."""
        merged = 0
        for path in sorted(Path(directory).glob("*.json")):
            delta = json.loads(path.read_text(encoding="utf-8"))
            for name, values in delta["spans"].items():
                totals = self.spans.setdefault(name, [0, 0.0])
                for i in range(2):
                    totals[i] += values[i]
            for name, value in delta["counts"].items():
                self.count(name, value)
            path.unlink()
            merged += 1
        return merged


def _worker_job(spool: str, job, cache_dir=None, cache_max_bytes=None):
    """Traced stand-in for ``repro.engine.jobs.execute_job``: in a
    forked worker, spool the worker's totals after every job."""
    from repro.engine.jobs import execute_job
    tracer = _ACTIVE
    if tracer is None or tracer.home == os.getpid():
        return execute_job(job, cache_dir=cache_dir,
                           cache_max_bytes=cache_max_bytes)
    if tracer.pid != os.getpid():
        tracer._enter_worker()
    try:
        return execute_job(job, cache_dir=cache_dir,
                           cache_max_bytes=cache_max_bytes)
    finally:
        tracer._spool(spool)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _on_sm_run(tracer, args, result) -> None:
    tracer.count("sim.cycles", result.cycles)
    tracer.count("sim.planner_overhead_cycles",
                 result.stats.planner_overhead_cycles)


def _on_window(tracer, args, result) -> None:
    tracer.count("sim.kernel_window_cycles", result - args[1])


def _on_advance(tracer, args, result) -> None:
    skipped = result - args[1]
    if skipped:
        tracer.count("sim.ff_skipped_cycles", skipped)
        tracer.count("sim.ff_skips")


def _on_cache_get(tracer, args, result) -> None:
    if result is not None:
        tracer.count("cache.hits")


def _on_submit(tracer, args, result) -> None:
    if not result[1]:
        tracer.count("service.deduped")


def _on_run_sim_jobs(tracer, args, result) -> None:
    tracer.count("engine.jobs", len(result))


def install(spool: Path) -> Tracer:
    """Wrap every layer boundary the per-layer metrics read."""
    global _ACTIVE
    from repro.core import techniques
    from repro.engine import jobs, pool
    from repro.engine.cache import RunCache
    from repro.harness import artifact
    from repro.harness.experiment import ExperimentRunner
    from repro.obs.ledger import LedgerWriter
    from repro.power import energy
    from repro.service.core import SimulationService
    from repro.sim import gpu
    from repro.sim.fastforward import SpanFastForwarder
    from repro.sim.kernel import DenseStepKernel
    from repro.sim.sm import StreamingMultiprocessor
    from repro.workloads import registry

    tracer = Tracer()
    tracer.patch(registry, "build_kernel", "workloads.build_kernel")
    tracer.patch(jobs, "load_or_build_kernel", "workloads.build_kernel")
    tracer.patch(techniques, "build_sm", "core.build_sm")
    tracer.patch(StreamingMultiprocessor, "run", "sim.run", _on_sm_run)
    tracer.patch(DenseStepKernel, "run_window", "sim.kernel_window",
                 _on_window)
    tracer.patch(SpanFastForwarder, "advance", "sim.ff_advance",
                 _on_advance)
    tracer.patch(gpu.GPU, "run", "sim.gpu_run")
    tracer.patch(gpu, "split_kernel", "sim.split_kernel")
    tracer.patch(energy, "domain_energy", "power.energy")
    tracer.patch(SimulationService, "submit", "service.submit",
                 _on_submit)
    tracer.patch(SimulationService, "prefetch", "service.prefetch")
    tracer.patch(SimulationService, "execute", "service.execute")
    tracer.patch(pool.ParallelEngine, "run_sim_jobs",
                 "engine.run_sim_jobs", _on_run_sim_jobs)
    tracer.patch(RunCache, "get", "cache.get", _on_cache_get)
    tracer.patch(RunCache, "put", "cache.put")
    tracer.patch(ExperimentRunner, "prefetch", "harness.prefetch")
    tracer.patch(artifact, "generate_figure",
                 lambda args: f"harness.fig.{args[1].name}")
    tracer.patch(artifact, "evaluate_headlines",
                 "harness.evaluate_headlines")
    tracer.patch(LedgerWriter, "job", "obs.ledger_write")
    tracer._restore.append((pool, "execute_job", pool.execute_job))
    pool.execute_job = functools.partial(_worker_job, str(spool))
    _ACTIVE = tracer
    return tracer
