"""ServerCore + Supervisor, in process: journal-first ordering, probes.

These tests drive the daemon's core without the socket layer: submits,
dedup, backpressure, the journal-before-memory invariant under injected
journal faults, a real (spawned) worker pool executing probe jobs
with crash/requeue/poison handling, and the supervisor loop's event
wake-ups (submit, worker reply, worker exit, stop).
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import threading
import time
from collections import Counter

import pytest

from repro.errors import ServeError
from repro.experiments import faults
from repro.serve import supervisor as supervisor_module
from repro.serve.daemon import ServeConfig, ServerCore
from repro.serve.journal import JournalError, replay_file
from repro.serve.queue import DONE, FAILED, PENDING
from repro.serve.supervisor import Supervisor


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)
    faults.reset_fault_state()
    yield
    faults.reset_fault_state()


def _core(tmp_path, **overrides) -> ServerCore:
    overrides.setdefault("state_dir", tmp_path / "serve")
    return ServerCore(ServeConfig.from_env(**overrides))


def _probe(nonce, **extra):
    return {"kind": "probe", "nonce": nonce, **extra}


def _settle(core, job_ids, timeout_s):
    """Wait until every job is done or failed; fail the test on timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if all(core.queue.jobs[j].state in (DONE, FAILED) for j in job_ids):
            return
        time.sleep(0.002)
    states = Counter(core.queue.jobs[j].state for j in job_ids)
    raise AssertionError(
        f"jobs did not settle within {timeout_s:.0f}s: {dict(states)}"
    )


class TestCoreOps:
    def test_submit_status_result_lifecycle(self, tmp_path):
        core = _core(tmp_path)
        response = core.submit(_probe("a"))
        assert response["ok"] and not response["deduped"]
        job_id = response["job_id"]
        assert core.status(job_id)["state"] == PENDING
        assert core.status(job_id)["pending_ahead"] == 0

        job = core.claim_job("w0")
        assert job.job_id == job_id
        core.finish_job(job_id, {"echo": "a"})
        view = core.result(job_id)
        assert view["state"] == DONE and view["result"] == {"echo": "a"}
        core.close()

    def test_dedup_returns_same_job(self, tmp_path):
        core = _core(tmp_path)
        first = core.submit(_probe("same"))
        second = core.submit(_probe("same"))
        assert second["deduped"] and second["job_id"] == first["job_id"]
        assert core.counters()["deduped"] == 1
        core.close()

    def test_backpressure_busy_with_retry_after(self, tmp_path):
        core = _core(tmp_path, queue_max=1, retry_after_s=7.5)
        assert core.submit(_probe("a"))["ok"]
        rejected = core.submit(_probe("b"))
        assert not rejected["ok"]
        assert rejected["code"] == "busy"
        assert rejected["retry_after"] == 7.5
        assert core.counters()["busy_rejected"] == 1
        # Dedup onto the existing job is still admitted while full.
        assert core.submit(_probe("a"))["deduped"]
        core.close()

    def test_draining_rejects_new_submits(self, tmp_path):
        core = _core(tmp_path)
        before = core.submit(_probe("a"))
        core.start_drain()
        rejected = core.submit(_probe("b"))
        assert rejected["code"] == "draining"
        # Existing jobs stay visible (status/result keep working).
        assert core.status(before["job_id"])["ok"]
        # Dedup of an already-accepted job is not new work: admitted.
        assert core.submit(_probe("a"))["deduped"]
        core.close()

    def test_unknown_job_and_bad_spec(self, tmp_path):
        core = _core(tmp_path)
        assert core.status("nope")["code"] == "unknown_job"
        assert core.result("nope")["code"] == "unknown_job"
        with pytest.raises(ServeError):
            core.submit({"kind": "not-a-kind"})
        core.close()


class TestJournalFirstOrdering:
    def test_failed_journal_write_rejects_submit(self, tmp_path, monkeypatch):
        core = _core(tmp_path)
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=journal_write,kind=raise_transient"
        )
        faults.reset_fault_state()
        with pytest.raises(JournalError):
            core.submit(_probe("lost"))
        # The queue must not know a job the journal never recorded.
        assert core.queue.jobs == {}
        assert core.counters()["submitted"] == 0
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_fault_state()
        # And the daemon keeps serving once the disk recovers.
        assert core.submit(_probe("kept"))["ok"]
        core.close()

    def test_failed_claim_journal_keeps_job_pending(
        self, tmp_path, monkeypatch
    ):
        core = _core(tmp_path)
        core.submit(_probe("a"))
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=job_claim,kind=raise_transient"
        )
        faults.reset_fault_state()
        with pytest.raises((JournalError, OSError)):
            core.claim_job("w0")
        job = next(iter(core.queue.jobs.values()))
        assert job.state == PENDING and job.attempts == 0
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_fault_state()
        assert core.claim_job("w0").job_id == job.job_id
        core.close()

    def test_restart_recovers_claimed_job(self, tmp_path):
        core = _core(tmp_path)
        done = core.submit(_probe("done"))["job_id"]
        core.finish_job(core.claim_job("w0").job_id, {"echo": 1})
        inflight = core.submit(_probe("inflight"))["job_id"]
        core.claim_job("w0")
        core.close()  # no clean completion for `inflight`: daemon "dies"

        core2 = _core(tmp_path)
        assert core2.counters()["recovered"] == 1
        assert core2.result(done)["state"] == DONE
        assert core2.status(inflight)["state"] == PENDING
        # The recovered claim counts toward the restart budget.
        assert core2.queue.jobs[inflight].attempts == 1
        core2.close()

    def test_startup_compaction_bounds_journal(self, tmp_path):
        core = _core(tmp_path)
        for i in range(20):
            job_id = core.submit(_probe(f"n{i}"))["job_id"]
            core.finish_job(core.claim_job("w0").job_id, {"echo": i})
        size_before = core.config.journal_path.stat().st_size
        core.close()
        core2 = _core(tmp_path)
        # 60 records (submit+claim+complete each) compact to 40
        # (submit+complete), and every result survives.
        assert core2.config.journal_path.stat().st_size < size_before
        records, _, dropped = replay_file(core2.config.journal_path)
        assert dropped == 0
        assert sum(r["type"] == "complete" for r in records) == 20
        assert len(core2.queue.jobs) == 20
        assert all(j.state == DONE for j in core2.queue.jobs.values())
        core2.close()


class TestSupervisedExecution:
    def test_probe_jobs_complete_and_failures_classify(self, tmp_path):
        core = _core(tmp_path, workers=2)
        supervisor = Supervisor(
            core, workers=2, heartbeat_s=0.2, job_timeout_s=30.0,
            restart_budget=1,
        )
        ok = core.submit(_probe("ok", payload={"v": 1}))["job_id"]
        bad = core.submit(_probe("bad", fail="deterministic"))["job_id"]
        supervisor.start()
        try:
            _settle(core, [ok, bad], timeout_s=60)
        finally:
            supervisor.stop()
        assert core.result(ok)["result"]["echo"] == {"v": 1}
        view = core.result(bad)
        assert view["state"] == FAILED
        assert view["error"]["error_type"] == "FaultInjected"
        assert view["error"]["kind"] == "deterministic"
        core.close()

    def test_transient_failure_retries_then_poisons(self, tmp_path):
        core = _core(tmp_path, workers=1)
        supervisor = Supervisor(
            core, workers=1, heartbeat_s=0.2, job_timeout_s=30.0,
            restart_budget=2,
        )
        # Fails transiently on every attempt: retried up to the budget,
        # then failed as a structured poison job.
        job_id = core.submit(_probe("flaky", fail="transient"))["job_id"]
        supervisor.start()
        try:
            _settle(core, [job_id], timeout_s=60)
        finally:
            supervisor.stop()
        view = core.result(job_id)
        assert view["state"] == FAILED
        assert view["error"]["error_type"] == "CrashLoop"
        assert view["attempts"] == 3  # budget 2 -> 3 attempts total
        assert core.counters()["requeued"] == 2
        core.close()

    def test_worker_crash_respawns_and_requeues(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=worker,kind=exit,times=1"
        )
        monkeypatch.setenv(
            "REPRO_FAULTS_STATE", str(tmp_path / "fault-state")
        )
        faults.reset_fault_state()
        core = _core(tmp_path, workers=1)
        supervisor = Supervisor(
            core, workers=1, heartbeat_s=0.2, job_timeout_s=30.0,
            restart_budget=3,
        )
        job_id = core.submit(_probe("crashy"))["job_id"]
        supervisor.start()
        try:
            _settle(core, [job_id], timeout_s=60)
        finally:
            supervisor.stop()
        # First attempt died with the worker; the respawned worker
        # reran it to completion.
        view = core.result(job_id)
        assert view["state"] == DONE
        assert view["attempts"] == 2
        assert core.counters()["worker_respawns"] >= 1
        core.close()


class TestWorkerJobState:
    def test_flow_jobs_release_placed_designs(self, monkeypatch):
        """A worker runs many jobs; none may pin a finished design."""
        import gc
        import weakref

        from repro.experiments import runner
        from repro.serve.supervisor import _execute_job

        runner.clear_memory_caches()
        designs = []
        real_run = runner.run_configuration

        def recording_run(*args, **kwargs):
            design, result = real_run(*args, **kwargs)
            designs.append(weakref.ref(design))
            return design, result

        monkeypatch.setattr(runner, "run_configuration", recording_run)
        # Seeds no other test uses: a disk-cache hit returns no design.
        for seed, config in ((301, "2D_12T"), (302, "3D_HET"), (303, "3D_HET")):
            payload = _execute_job(
                "flow",
                {"design": "aes", "config": config, "period_ns": 0.9,
                 "scale": 0.1, "seed": seed},
                1,
            )
            assert payload["result"]["config"] == config
        gc.collect()
        assert len(designs) == 3
        assert not runner._result_cache
        assert [ref() for ref in designs] == [None, None, None]


class TestEventDrivenLoop:
    """The loop's housekeeping timeout is raised to 30 s here, so work
    that finishes sooner was started by an event, not by a tick."""

    @pytest.fixture(autouse=True)
    def _slow_housekeeping(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "HOUSEKEEPING_S", 30.0)

    @staticmethod
    def _supervisor(core, workers=1, restart_budget=0):
        # A 2 s beat is stale only after 6 s: a busy host must not make
        # the watchdog restart a worker and retry its job.
        return Supervisor(
            core, workers=workers, heartbeat_s=2.0, job_timeout_s=60.0,
            restart_budget=restart_budget,
        )

    def test_submits_dispatch_without_a_tick(self, tmp_path):
        core = _core(tmp_path)
        warm = core.submit(_probe("warm"))["job_id"]
        supervisor = self._supervisor(core)
        supervisor.start()
        try:
            _settle(core, [warm], timeout_s=25)  # worker boot
            started = time.monotonic()
            for i in range(20):
                job_id = core.submit(_probe(f"seq{i}", payload=i))["job_id"]
                _settle(core, [job_id], timeout_s=10)
            elapsed = time.monotonic() - started
        finally:
            supervisor.stop()
        assert elapsed < 10.0, f"20 probes took {elapsed:.1f}s"
        assert core.counters()["completed"] == 21
        core.close()

    def test_dead_worker_is_reaped_without_a_tick(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "site=worker,kind=exit,times=1")
        monkeypatch.setenv(
            "REPRO_FAULTS_STATE", str(tmp_path / "fault-state")
        )
        faults.reset_fault_state()
        core = _core(tmp_path)
        # Pending before start: the first tick dispatches it, so what
        # follows -- exit, reap, requeue, redispatch, harvest -- must
        # all be driven by the worker's sentinel and pipe.
        job_id = core.submit(_probe("crashy"))["job_id"]
        supervisor = self._supervisor(core, restart_budget=3)
        supervisor.start()
        try:
            _settle(core, [job_id], timeout_s=25)
            assert core.counters()["worker_respawns"] == 1
            # An idle worker has no pipe in the wait set: its process
            # sentinel alone must bring the reaper.
            os.kill(supervisor.workers[0].proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while core.counters()["worker_respawns"] < 2:
                assert time.monotonic() < deadline, "idle worker not reaped"
                time.sleep(0.002)
        finally:
            supervisor.stop()
        view = core.result(job_id)
        assert view["state"] == DONE
        assert view["attempts"] == 2
        core.close()

    def test_stop_returns_at_once(self, tmp_path):
        core = _core(tmp_path)
        warm = core.submit(_probe("warm"))["job_id"]
        supervisor = self._supervisor(core)
        supervisor.start()
        try:
            _settle(core, [warm], timeout_s=25)
        finally:
            started = time.monotonic()
            supervisor.stop()
            elapsed = time.monotonic() - started
        assert not supervisor._thread.is_alive()
        assert elapsed < 1.0, f"stop() took {elapsed:.2f}s"
        core.close()

    def test_concurrent_submits_lose_no_wakeup(self, tmp_path):
        """8 threads each submit 25 probes, one at a time, to 3 workers
        (more workers than the host has cores) with a tiny switch
        interval, so submits land on the shared wake channel while the
        loop is mid-tick.  With housekeeping at 30 s, a job stranded by
        a lost wake-up is a timeout, not a slow run."""
        core = _core(tmp_path)
        supervisor = self._supervisor(core, workers=3)
        payloads: dict[str, str] = {}
        errors: list[BaseException] = []
        lock = threading.Lock()

        def submit_many(thread: int) -> None:
            try:
                for i in range(25):
                    payload = f"t{thread}-{i}"
                    response = core.submit(_probe(payload, payload=payload))
                    assert response["ok"] and not response["deduped"]
                    with lock:
                        payloads[response["job_id"]] = payload
                    _settle(core, [response["job_id"]], timeout_s=20)
            except Exception as exc:  # noqa: BLE001 -- asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        supervisor.start()
        try:
            sys.setswitchinterval(1e-6)
            threads = [
                threading.Thread(target=submit_many, args=(t,))
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=25)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
        finally:
            sys.setswitchinterval(interval)
            supervisor.stop()
        assert len(payloads) == 200
        for job_id, payload in payloads.items():
            view = core.result(job_id)
            assert view["state"] == DONE, view
            assert view["attempts"] == 1
            assert view["result"]["echo"] == payload
        records, _, _ = replay_file(core.config.journal_path)
        claims = Counter(r["job_id"] for r in records if r["type"] == "claim")
        assert set(claims) == set(payloads)
        assert set(claims.values()) == {1}
        core.close()

    def test_start_stop_cycles_leak_no_descriptors(self, tmp_path):
        core = _core(tmp_path)

        def cycle() -> None:
            supervisor = self._supervisor(core)
            supervisor.start()
            supervisor.stop()
            assert not supervisor._thread.is_alive()

        def open_fds() -> int:
            gc.collect()
            return len(os.listdir("/proc/self/fd"))

        cycle()  # the first spawn also starts multiprocessing's helpers
        before = open_fds()
        for _ in range(20):
            cycle()
        assert open_fds() == before
        core.close()
