"""SimulationService core: dedupe, lifecycle, parity, wire format.

The headline guarantees pinned here:

* **Single-flight**: N concurrent submissions of one spec-addressed
  request share one ticket and one engine execution — proven with an
  on-disk execution counter that survives the process pool.
* **Golden parity**: a service-run result digests identically to the
  classic serial :class:`ExperimentRunner` path (the same canonical
  sha256 the golden identity suite pins).
* **Lifecycle**: tickets move queued → running → terminal, feeds
  replay-then-close, failures keep the classic raising contract.
"""

import threading
from functools import partial

import pytest

from repro.core.digest import result_digest
from repro.engine import FaultPolicy, ParallelEngine
from repro.engine.faults import JobFailedError
from repro.engine.jobs import execute_job
from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.service.core import JobRequest, JobState, SimulationService

from tests.engine.faults import (
    CountingWorker,
    FaultPlan,
    FaultyEngine,
    count_executions,
    sim_job_key,
)

SCALE = 0.1


def request(benchmark="bfs", technique="warped_gates", **kwargs):
    kwargs.setdefault("scale", SCALE)
    return JobRequest(benchmark=benchmark, technique=technique, **kwargs)


class TestSingleFlight:
    def test_concurrent_same_spec_submits_execute_once(self, tmp_path):
        """Four racing submitters; the pool runs the cell exactly once."""
        cache_dir = str(tmp_path / "cache")
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        engine = ParallelEngine(jobs=2, cache_dir=cache_dir)
        service = SimulationService(
            engine=engine,
            worker=CountingWorker(partial(execute_job,
                                          cache_dir=cache_dir),
                                  str(marker_dir), key=sim_job_key))
        results = [None] * 4
        barrier = threading.Barrier(4)

        def submit(i):
            barrier.wait()
            results[i] = service.run(request())

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # One execution (cross-process counter), one manifest, one
        # ticket with four recorded submissions — and every caller got
        # the *same* settled result object.
        assert count_executions(marker_dir, "bfs/warped_gates/s0") == 1
        assert len(service.manifests) == 1
        (ticket,) = service.tickets()
        assert ticket.submissions == 4
        assert ticket.snapshot()["deduped"] is True
        assert all(r is results[0] for r in results)

    def test_spec_addressing_aliases_equivalent_techniques(self):
        from repro.core.spec import technique_spec

        service = SimulationService()
        a, created_a = service.submit(request(technique="warped_gates"))
        b, created_b = service.submit(
            request(technique="warped_gates"))
        c, created_c = service.submit(
            request(technique=technique_spec("warped_gates")))
        assert created_a and not created_b and not created_c
        assert a is b is c and a.submissions == 3

    def test_distinct_settings_never_alias(self):
        service = SimulationService()
        base, _ = service.submit(request())
        for other in (request(seed=1), request(scale=0.2),
                      request(technique="conv_pg"),
                      request(fast_forward=True)):
            ticket, created = service.submit(other)
            assert created and ticket is not base


class TestGoldenParity:
    def test_service_digest_matches_serial_runner(self, tmp_path):
        """Engine-served result == classic serial path, bit for bit."""
        engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
        with SimulationService(engine=engine) as service:
            served = service.run(request())
        runner = ExperimentRunner(ExperimentSettings(
            scale=SCALE, benchmarks=("bfs",)))
        serial = runner.run("bfs", "warped_gates")
        assert result_digest(served) == result_digest(serial)

    def test_inline_service_digest_matches_serial_runner(self):
        with SimulationService() as service:
            inline = service.run(request())
        runner = ExperimentRunner(ExperimentSettings(
            scale=SCALE, benchmarks=("bfs",)))
        serial = runner.run("bfs", "warped_gates")
        assert result_digest(inline) == result_digest(serial)


class TestLifecycle:
    def test_states_and_feed_replay(self):
        service = SimulationService()
        ticket, created = service.submit(request())
        assert created and ticket.state is JobState.QUEUED
        service.execute(ticket)
        assert ticket.state is JobState.OK and ticket.done
        records = []
        unsubscribe = ticket.feed.subscribe(records.append)
        unsubscribe()
        records = [r for r in records if isinstance(r, dict)]
        states = [r["state"] for r in records if r["record"] == "state"]
        assert states == ["queued", "running", "ok"]
        done = [r for r in records if r["record"] == "done"]
        assert len(done) == 1 and done[0]["cycles"] > 0

    def test_engine_failure_is_memoised_and_raises(self, tmp_path):
        plan = FaultPlan(crash=("bfs/warped_gates/s0",))
        engine = FaultyEngine(plan, jobs=1,
                              cache_dir=str(tmp_path / "cache"),
                              policy=FaultPolicy(max_retries=0))
        service = SimulationService(engine=engine)
        ticket, _ = service.submit(request())
        service.execute(ticket)
        assert ticket.state is JobState.FAILED
        with pytest.raises(JobFailedError, match="bfs/warped_gates"):
            ticket.result()
        # Memoised: resubmitting dedupes onto the failed ticket, and
        # no second execution happens.
        again, created = service.submit(request())
        assert again is ticket and not created
        assert len(service.manifests) == 1

    def test_inline_exception_is_not_memoised(self, monkeypatch):
        service = SimulationService()
        import repro.service.core as core

        def boom(*args, **kwargs):
            raise RuntimeError("injected inline failure")

        monkeypatch.setattr(core, "build_kernel", boom)
        ticket, _ = service.submit(request())
        with pytest.raises(RuntimeError, match="injected"):
            service.execute(ticket)
        assert ticket.state is JobState.FAILED
        monkeypatch.undo()
        # The key was dropped: the next submission re-attempts fresh.
        retry, created = service.submit(request())
        assert created and retry is not ticket
        assert service.run(request()).cycles > 0

    def test_prefetch_is_one_batch_and_skips_settled(self, tmp_path):
        engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
        service = SimulationService(engine=engine)
        service.run(request())  # settle one cell up front
        tickets = service.prefetch([
            request(), request(technique="conv_pg"),
            request(technique="baseline"), request()])  # dup collapses
        assert len(tickets) == 3
        assert all(t.done for t in tickets)
        assert len(service.manifests) == 3  # 1 direct + 2 batched
        assert service.drain(timeout=1.0)


class TestWireFormat:
    def test_round_trip(self):
        original = request(seed=3, fast_forward=False)
        parsed = JobRequest.from_dict(original.to_dict())
        assert parsed.key(False) == original.key(False)

    def test_validation_errors_name_the_offence(self):
        with pytest.raises(ValueError, match="unknown key"):
            JobRequest.from_dict({"benchmark": "bfs",
                                  "technique": "conv_pg", "bogus": 1})
        with pytest.raises(ValueError, match="exactly one of"):
            JobRequest.from_dict({"benchmark": "bfs"})
        with pytest.raises(ValueError, match="exactly one of"):
            JobRequest.from_dict({"benchmark": "bfs",
                                  "technique": "conv_pg",
                                  "spec": {"name": "x"}})
        with pytest.raises(ValueError, match="did you mean"):
            JobRequest.from_dict({"benchmark": "bsf",
                                  "technique": "conv_pg"})
        with pytest.raises(ValueError, match="'seed'"):
            JobRequest.from_dict({"benchmark": "bfs",
                                  "technique": "conv_pg", "seed": "0"})
        with pytest.raises(ValueError, match="JSON object"):
            JobRequest.from_dict(["not", "a", "dict"])
