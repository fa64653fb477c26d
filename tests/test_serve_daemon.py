"""ServerCore + Supervisor, in process: journal-first ordering, probes.

These tests drive the daemon's core without the socket layer: submits,
dedup, backpressure, the journal-before-memory invariant under injected
journal faults, and a real (spawned) worker pool executing probe jobs
with crash/requeue/poison handling.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ServeError
from repro.experiments import faults
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
        assert core.stats.deduped == 1
        core.close()

    def test_backpressure_busy_with_retry_after(self, tmp_path):
        core = _core(tmp_path, queue_max=1, retry_after_s=7.5)
        assert core.submit(_probe("a"))["ok"]
        rejected = core.submit(_probe("b"))
        assert not rejected["ok"]
        assert rejected["code"] == "busy"
        assert rejected["retry_after"] == 7.5
        assert core.stats.busy_rejected == 1
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
        assert core.stats.submitted == 0
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
        assert core2.stats.recovered == 1
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
    def _run(self, core, supervisor, job_ids, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(
                core.queue.jobs[j].state in (DONE, FAILED) for j in job_ids
            ):
                return
            time.sleep(0.05)
        states = {j: core.queue.jobs[j].state for j in job_ids}
        raise AssertionError(f"jobs did not settle: {states}")

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
            self._run(core, supervisor, [ok, bad])
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
            self._run(core, supervisor, [job_id])
        finally:
            supervisor.stop()
        view = core.result(job_id)
        assert view["state"] == FAILED
        assert view["error"]["error_type"] == "CrashLoop"
        assert view["attempts"] == 3  # budget 2 -> 3 attempts total
        assert core.stats.requeued == 2
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
            self._run(core, supervisor, [job_id])
        finally:
            supervisor.stop()
        # First attempt died with the worker; the respawned worker
        # reran it to completion.
        view = core.result(job_id)
        assert view["state"] == DONE
        assert view["attempts"] == 2
        assert core.stats.worker_respawns >= 1
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
