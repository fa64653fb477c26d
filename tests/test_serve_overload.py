"""Overload resilience: shedding, deadlines, retention, scaling, client.

Covers the admission-control and retention layers added on top of the
crash-safe daemon: priority-aware load shedding at the high-water mark,
per-job deadlines failing as structured ``DeadlineExceeded`` without
claiming workers, LRU+TTL eviction of terminal results (with journal
tombstones that survive restarts -- including a Hypothesis property
over record orderings), online journal compaction that is crash-safe at
either fault phase, the disk-pressure degraded mode, the supervisor's
adaptive pool scaling, and the client-side breaker/backoff/resubmit
discipline.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ServeError
from repro.experiments import faults
from repro.experiments.faults import FaultInjected
from repro.serve.client import ServeClient, request
from repro.serve.daemon import ServeConfig, ServerCore
from repro.serve.journal import Journal, replay_file
from repro.serve.queue import DONE, EVICTED, FAILED, PENDING, JobQueue
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


def _submit(queue, nonce, priority=0, deadline_s=0.0):
    return queue.apply(queue.submit_record(
        "probe", {"kind": "probe", "nonce": nonce}, f"key-{nonce}",
        priority, deadline_s,
    ))


def _move(queue, rtype, job, **fields):
    return queue.apply({"type": rtype, "job_id": job.job_id, **fields})


# ----------------------------------------------------------------------
# queue: shedding, deadlines, retention primitives
# ----------------------------------------------------------------------
class TestQueueShedding:
    def test_victim_is_lowest_priority_newest(self):
        queue = JobQueue()
        _submit(queue, "urgent", priority=0)
        old_low = _submit(queue, "low-old", priority=5)
        new_low = _submit(queue, "low-new", priority=5)
        victim = queue.shed_candidate(1)
        assert victim is new_low
        assert victim is not old_low

    def test_equal_priority_never_sheds(self):
        queue = JobQueue()
        _submit(queue, "a", priority=5)
        assert queue.shed_candidate(5) is None
        assert queue.shed_candidate(6) is None
        assert queue.shed_candidate(4) is not None

    def test_running_jobs_are_not_candidates(self):
        queue = JobQueue()
        job = _submit(queue, "busy", priority=9)
        _move(queue, "claim", job, worker="w0")
        assert queue.shed_candidate(0) is None


class TestQueueDeadlines:
    def test_expired_pending_filters_and_orders(self):
        queue = JobQueue()
        now = time.time()
        late2 = _submit(queue, "late2", deadline_s=now - 1.0)
        late1 = _submit(queue, "late1", deadline_s=now - 5.0)
        _submit(queue, "fresh", deadline_s=now + 60.0)
        _submit(queue, "forever")  # no deadline
        expired = queue.expired_pending(now)
        assert [j.job_id for j in expired] == [late1.job_id, late2.job_id]

    def test_claimed_jobs_do_not_expire(self):
        queue = JobQueue()
        job = _submit(queue, "running", deadline_s=time.time() - 1.0)
        _move(queue, "claim", job, worker="w0")
        assert queue.expired_pending() == []


class TestQueueRetention:
    def _finish(self, queue, nonce, finished_s):
        job = _submit(queue, nonce)
        _move(queue, "claim", job, worker="w0")
        _move(queue, "complete", job, result={"echo": nonce},
              finished_s=finished_s)
        return job

    def test_lru_bound_names_oldest_finishers(self):
        queue = JobQueue()
        now = time.time()
        jobs = [self._finish(queue, f"j{i}", now + i) for i in range(4)]
        candidates = queue.evict_candidates(retain_jobs=2, retain_s=0, now=now)
        assert [j.job_id for j in candidates] == [
            jobs[0].job_id, jobs[1].job_id
        ]

    def test_ttl_bound_expires_old_results(self):
        queue = JobQueue()
        now = time.time()
        old = self._finish(queue, "old", now - 100.0)
        self._finish(queue, "new", now - 1.0)
        candidates = queue.evict_candidates(
            retain_jobs=0, retain_s=50.0, now=now
        )
        assert [j.job_id for j in candidates] == [old.job_id]

    def test_evict_releases_key_and_leaves_tombstone(self):
        queue = JobQueue()
        job = self._finish(queue, "gone", time.time())
        _move(queue, "evict", job, evicted_s=123.0)
        assert job.job_id not in queue.jobs
        assert queue.lookup_key(job.key) is None
        # The tombstone takes what the record lacks from the job.
        tombstone = queue.evicted[job.job_id]
        assert (tombstone["state"], tombstone["key"]) == (DONE, job.key)
        assert tombstone["evicted_s"] == 123.0
        # The spec may be resubmitted as a brand-new job.
        again = _submit(queue, "gone")
        assert again.job_id != job.job_id

    def test_evict_refuses_live_jobs(self):
        queue = JobQueue()
        job = _submit(queue, "live")
        # Evicting a live job moves nothing.
        assert _move(queue, "evict", job) is job
        assert queue.jobs[job.job_id].state == PENDING
        assert job.job_id not in queue.evicted

    def test_tombstones_are_bounded(self):
        queue = JobQueue(max_tombstones=3)
        jobs = [self._finish(queue, f"j{i}", time.time()) for i in range(5)]
        for job in jobs:
            _move(queue, "evict", job)
        assert len(queue.evicted) == 3
        assert jobs[0].job_id not in queue.evicted
        assert jobs[4].job_id in queue.evicted


# ----------------------------------------------------------------------
# queue restore: retention wins over any record ordering
# ----------------------------------------------------------------------
def _submit_record(i, seq):
    return {
        "type": "submit", "seq": seq, "job_id": f"j{i}", "job_seq": i,
        "key": f"key-{i}", "kind": "probe",
        "spec": {"kind": "probe", "nonce": str(i)},
        "priority": 0, "submitted_s": 1.0 + i,
    }


def _terminal_record(i, seq, done):
    if done:
        return {"type": "complete", "seq": seq, "job_id": f"j{i}",
                "result": {"echo": i}, "finished_s": 100.0 + i}
    return {"type": "fail", "seq": seq, "job_id": f"j{i}",
            "error": {"error_type": "ProbeFail", "message": "x"},
            "finished_s": 100.0 + i}


def _evict_record(i, seq):
    return {"type": "evict", "seq": seq, "job_id": f"j{i}",
            "key": f"key-{i}", "kind": "probe", "state": DONE,
            "finished_s": 100.0 + i, "evicted_s": 200.0 + i}


class TestRestoreRetentionWins:
    def test_evicted_job_stays_tombstoned(self):
        queue = JobQueue()
        queue.restore([
            _submit_record(0, 0),
            _terminal_record(0, 1, done=True),
            _evict_record(0, 2),
        ])
        assert "j0" not in queue.jobs
        assert "j0" in queue.evicted
        assert queue.lookup_key("key-0") is None

    def test_evict_record_before_submit_still_wins(self):
        queue = JobQueue()
        queue.restore([
            _evict_record(0, 2),
            _submit_record(0, 0),
            _terminal_record(0, 1, done=True),
        ])
        assert "j0" not in queue.jobs
        assert "j0" in queue.evicted

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_interleaving_preserves_terminal_and_eviction(self, data):
        """Terminal-wins + retention-wins over arbitrary merge orders.

        Per-job chains (submit then terminal) are interleaved in any
        order Hypothesis picks, with evict records dropped in at
        arbitrary positions; however the merge lands, an evicted job is
        a tombstone and a kept job retains its terminal state.
        """
        n_jobs = data.draw(st.integers(min_value=1, max_value=5), label="jobs")
        done_flags = data.draw(
            st.lists(st.booleans(), min_size=n_jobs, max_size=n_jobs),
            label="done",
        )
        evicted_ids = data.draw(
            st.sets(st.integers(min_value=0, max_value=n_jobs - 1)),
            label="evicted",
        )
        chains = [
            [_submit_record(i, 2 * i), _terminal_record(i, 2 * i + 1,
                                                        done_flags[i])]
            for i in range(n_jobs)
        ]
        loose = [_evict_record(i, 100 + i) for i in sorted(evicted_ids)]
        records = []
        while chains or loose:
            pick = data.draw(
                st.integers(min_value=0, max_value=len(chains) + len(loose) - 1),
                label="pick",
            )
            if pick < len(chains):
                records.append(chains[pick].pop(0))
                if not chains[pick]:
                    chains.pop(pick)
            else:
                records.append(loose.pop(pick - len(chains)))

        queue = JobQueue()
        recovered = queue.restore(records)
        assert recovered == []
        for i in range(n_jobs):
            job_id = f"j{i}"
            if i in evicted_ids:
                assert job_id not in queue.jobs
                assert job_id in queue.evicted
                assert queue.lookup_key(f"key-{i}") is None
            else:
                state = queue.jobs[job_id].state
                assert state == (DONE if done_flags[i] else FAILED)
        # The round trip holds: re-serializing and restoring again
        # reproduces the same split of resident vs tombstoned jobs.
        second = JobQueue()
        second.restore(queue.live_records())
        assert set(second.jobs) == set(queue.jobs)
        assert set(second.evicted) == set(queue.evicted)


# ----------------------------------------------------------------------
# core: deadline admission, shedding, retry_after, retention, disk
# ----------------------------------------------------------------------
class TestCoreDeadlines:
    def test_expired_job_fails_structured_without_claiming(self, tmp_path):
        core = _core(tmp_path)
        job_id = core.submit(_probe("late"), deadline=0.01)["job_id"]
        time.sleep(0.05)
        assert core.expire_deadlines() == 1
        view = core.result(job_id)
        assert view["state"] == FAILED
        assert view["error"]["error_type"] == "DeadlineExceeded"
        assert core.counters()["expired"] == 1
        # The failure is journaled: a restarted core agrees.
        core.close()
        reborn = _core(tmp_path)
        assert reborn.result(job_id)["state"] == FAILED
        reborn.close()

    def test_claim_never_hands_out_expired_jobs(self, tmp_path):
        core = _core(tmp_path)
        late = core.submit(_probe("late"), deadline=0.01)["job_id"]
        fresh = core.submit(_probe("fresh"))["job_id"]
        time.sleep(0.05)
        claimed = core.claim_job("w0")
        assert claimed.job_id == fresh
        assert core.result(late)["error"]["error_type"] == "DeadlineExceeded"
        core.close()


class TestCoreShedding:
    def test_high_priority_submit_sheds_lowest(self, tmp_path):
        core = _core(tmp_path, queue_max=2)
        core.submit(_probe("keep"), priority=1)
        victim_id = core.submit(_probe("cheap"), priority=9)["job_id"]
        response = core.submit(_probe("urgent"), priority=0)
        assert response["ok"] and not response["deduped"]
        view = core.result(victim_id)
        assert view["state"] == FAILED
        assert view["error"]["error_type"] == "LoadShed"
        assert core.counters()["shed"] == 1
        submits = _family(core, "repro_submits_total")
        assert {"disposition": "shed"} in [s["labels"] for s in submits]
        core.close()

    def test_equal_priority_flood_gets_busy_not_shed(self, tmp_path):
        core = _core(tmp_path, queue_max=1, retry_after_s=1.5)
        core.submit(_probe("first"), priority=3)
        rejected = core.submit(_probe("second"), priority=3)
        assert rejected["code"] == "busy"
        assert rejected["retry_after"] >= 1.5
        assert core.counters()["shed"] == 0
        core.close()

    def test_retry_after_scales_with_backlog_over_drain_rate(self, tmp_path):
        core = _core(tmp_path, queue_max=2, retry_after_s=0.5)
        # 30 terminal transitions in the window -> 1 job/s drain rate.
        now = time.time()
        for i in range(30):
            core._note_terminal(now - i * 0.5)
        core.submit(_probe("a"))
        core.submit(_probe("b"))
        rejected = core.submit(_probe("c"))
        assert rejected["code"] == "busy"
        # 2 pending at ~1/s -> about 2 seconds, never below the floor.
        assert 1.0 <= rejected["retry_after"] <= 4.0
        core.close()


class TestCoreRetention:
    def _finish_n(self, core, n):
        ids = []
        for i in range(n):
            job_id = core.submit(_probe(f"r{i}"))["job_id"]
            core.claim_job("w0")
            core.finish_job(job_id, {"echo": i})
            ids.append(job_id)
        return ids

    def test_eviction_answers_structured_and_survives_restart(self, tmp_path):
        core = _core(tmp_path, retain_jobs=1, retain_s=0.0)
        ids = self._finish_n(core, 3)
        assert core.enforce_retention() == 2
        assert core.counters()["evicted"] == 2
        view = core.result(ids[0])
        assert view["code"] == "evicted"
        assert view["state"] == EVICTED
        assert view["terminal_state"] == DONE
        assert str(core.config.journal_path) == view["journal"]
        assert core.result(ids[2])["state"] == DONE
        core.close()
        reborn = _core(tmp_path, retain_jobs=1, retain_s=0.0)
        assert reborn.result(ids[0])["code"] == "evicted"
        assert reborn.result(ids[2])["state"] == DONE
        # The key was released: the same spec resubmits as a new job.
        again = reborn.submit(_probe("r0"))
        assert again["ok"] and not again["deduped"]
        assert again["job_id"] != ids[0]
        reborn.close()

    def test_online_compaction_shrinks_journal(self, tmp_path):
        core = _core(
            tmp_path, retain_jobs=1, retain_s=0.0,
            compact_min=10, compact_ratio=0.8,
        )
        self._finish_n(core, 8)
        core.enforce_retention()
        before = core.journal.records_in_file
        assert core.maybe_compact() is True
        assert core.journal.records_in_file < before
        assert core.counters()["compactions"] == 1
        core.close()
        # The compacted journal still restores the full picture.
        reborn = _core(tmp_path, retain_jobs=1, retain_s=0.0)
        assert reborn.result("absent") ["code"] == "unknown_job"
        assert len(reborn.queue.evicted) == 7
        reborn.close()

    def test_compaction_respects_min_records(self, tmp_path):
        core = _core(tmp_path, compact_min=10_000)
        self._finish_n(core, 3)
        assert core.maybe_compact() is False
        core.close()


class TestCoreRestart:
    def test_restart_rebuilds_the_live_queue(self, tmp_path):
        """A reopened core holds the queue the closed one held.

        One core commits every kind of transition -- complete, fail,
        requeue, a deadline expiry judged 5 s ahead, a shed at the
        high-water mark, retention evictions -- on both sides of an
        online compaction.  Reopened on the same state directory, its
        live records must be equal, all but their journal ``seq``, and
        every job must answer ``result`` as before.
        """
        config = dict(queue_max=3, retain_jobs=5, retain_s=0.0,
                      compact_min=8, compact_ratio=0.9)
        core = _core(tmp_path, **config)
        ids = []
        for i in range(6):
            ids.append(core.submit(_probe(f"old{i}"))["job_id"])
            assert core.claim_job("w0").job_id == ids[-1]
            core.finish_job(ids[-1], {"echo": i})
        assert core.enforce_retention() == 1
        assert core.maybe_compact() is True

        ids.append(core.submit(_probe("done"))["job_id"])
        core.claim_job("w0")
        core.finish_job(ids[-1], {"echo": "done"})
        ids.append(core.submit(_probe("fail"))["job_id"])
        core.claim_job("w0")
        core.fail_job(ids[-1], {"error_type": "ProbeFail", "message": "x"})
        ids.append(core.submit(_probe("again"))["job_id"])
        core.claim_job("w0")
        core.requeue_job(ids[-1], "worker died")
        ids.append(core.submit(_probe("late"), deadline=1.0)["job_id"])
        assert core.expire_deadlines(now=time.time() + 5.0) == 1
        for nonce, priority in (("keep", 1), ("cheap", 9), ("urgent", 0)):
            ids.append(core.submit(_probe(nonce), priority=priority)["job_id"])
        assert core.counters()["shed"] == 1
        assert core.enforce_retention() == 4
        before = core.queue.live_records()
        views = {job_id: core.result(job_id) for job_id in ids}
        core.close()

        reborn = _core(tmp_path, **config)
        after = reborn.queue.live_records()
        reborn_views = {job_id: reborn.result(job_id) for job_id in ids}
        reborn.close()

        def unseq(records):
            return [{k: v for k, v in r.items() if k != "seq"}
                    for r in records]

        # old0-old4 are tombstones; old5 was finished before the
        # compaction and stays resident with its attempt.
        assert [r["type"] for r in before].count("evict") == 5
        assert views[ids[5]]["state"] == DONE
        assert views[ids[5]]["attempts"] == 1
        assert unseq(after) == unseq(before)
        assert reborn_views == views


    def test_ids_stay_fresh_once_every_job_is_evicted(self, tmp_path):
        """A journal of tombstones alone still advances the job seq, so
        resubmitting an evicted spec never reuses its id -- a reused id
        would be tombstoned, result and all, by the next restart."""
        config = dict(retain_jobs=0, retain_s=60.0)
        core = _core(tmp_path, **config)
        first = core.submit(_probe("a"))["job_id"]
        core.claim_job("w0")
        core.finish_job(first, {"echo": 1})
        assert core.enforce_retention(now=time.time() + 100.0) == 1
        core.close()
        _core(tmp_path, **config).close()  # startup compaction
        core = _core(tmp_path, **config)
        again = core.submit(_probe("a"))["job_id"]
        assert again != first
        core.claim_job("w0")
        core.finish_job(again, {"echo": 2})
        core.close()
        reborn = _core(tmp_path, **config)
        assert reborn.result(again)["result"] == {"echo": 2}
        assert reborn.result(first)["code"] == "evicted"
        reborn.close()


class TestCoreDiskPressure:
    def test_disk_full_fault_flips_and_recovers(self, tmp_path, monkeypatch):
        core = _core(tmp_path, min_free_mb=64.0)
        monkeypatch.setenv("REPRO_FAULTS", "site=disk_full,kind=raise,times=0")
        faults.reset_fault_state()
        assert core.check_disk() is True
        rejected = core.submit(_probe("nope"))
        assert rejected["code"] == "disk_pressure"
        assert rejected["retry_after"] > 0
        assert core.counters()["disk_rejected"] == 1
        # Reads stay available in degraded mode.
        assert core.stats_view()["ok"]
        # Space returns: hysteresis exit, submits resume.
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_fault_state()
        assert core.check_disk() is False
        assert core.submit(_probe("yes"))["ok"]
        core.close()

    def test_degraded_mode_is_journaled(self, tmp_path, monkeypatch):
        core = _core(tmp_path, min_free_mb=64.0)
        monkeypatch.setenv("REPRO_FAULTS", "site=disk_full,kind=raise,times=1")
        faults.reset_fault_state()
        core.check_disk()
        core.close()
        records, _, _ = replay_file(tmp_path / "serve" / "journal.wal")
        modes = [r["mode"] for r in records if r["type"] == "degraded"]
        assert modes == ["enter"]


# ----------------------------------------------------------------------
# journal: online compaction is crash-safe at either phase
# ----------------------------------------------------------------------
class TestCompactionCrash:
    def _journal_with_records(self, tmp_path, n=4):
        journal = Journal(tmp_path / "j.wal")
        journal.open()
        for i in range(n):
            journal.append("submit", job_id=f"j{i}")
        return journal

    def test_crash_before_rename_keeps_old_journal(self, tmp_path, monkeypatch):
        journal = self._journal_with_records(tmp_path)
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=compaction_crash,kind=raise,phase=written"
        )
        faults.reset_fault_state()
        with pytest.raises(FaultInjected):
            journal.compact([{"type": "submit", "seq": 0, "job_id": "j0"}])
        journal.close()
        records, _, dropped = replay_file(tmp_path / "j.wal")
        assert dropped == 0
        assert len(records) == 4  # the old journal, intact

    def test_crash_after_rename_keeps_new_journal(self, tmp_path, monkeypatch):
        journal = self._journal_with_records(tmp_path)
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=compaction_crash,kind=raise,phase=replaced"
        )
        faults.reset_fault_state()
        with pytest.raises(FaultInjected):
            journal.compact([{"type": "submit", "seq": 0, "job_id": "j0"}])
        journal.close()
        records, _, dropped = replay_file(tmp_path / "j.wal")
        assert dropped == 0
        assert len(records) == 1  # the new journal, fully replaced


# ----------------------------------------------------------------------
# supervisor: adaptive scaling + gauge-label hygiene
# ----------------------------------------------------------------------
def _family(core, name):
    for family in core.metrics_view()["metrics"]["families"]:
        if family["name"] == name:
            return family["samples"]
    return []


def _heartbeat_workers(core):
    return {s["labels"]["worker"]
            for s in _family(core, "repro_heartbeat_age_seconds")}


def _workers_gauge(core):
    return {s["labels"]["state"]: s["value"]
            for s in _family(core, "repro_workers")}


class TestAutoscale:
    def test_pool_grows_under_pressure_and_retires_idle(self, tmp_path):
        core = _core(tmp_path)
        supervisor = Supervisor(
            core, workers=1, max_workers=2, scale_up_pending=2,
            scale_cooldown_s=0.0, idle_retire_s=0.2,
            heartbeat_s=0.2, job_timeout_s=30.0, restart_budget=1,
        )
        for i in range(4):
            core.submit(_probe(f"load{i}", seconds=0.3))
        supervisor.start()
        try:
            grew = False
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                supervisor_size = len(supervisor.workers)
                grew = grew or supervisor_size > 1
                pending = core.queue.pending_count()
                running = core.queue.running_count()
                if grew and pending == 0 and running == 0 \
                        and supervisor_size == 1:
                    break
                time.sleep(0.05)
            assert grew, "pool never scaled past the floor"
            assert len(supervisor.workers) == 1, "pool never converged back"
            # Only the survivor keeps a heartbeat label; retired and
            # never-booted names are gone from the registry.
            time.sleep(0.3)  # one more watchdog pass publishes ages
            live = {h.name for h in supervisor.workers}
            assert _heartbeat_workers(core) <= live
            gauge = _workers_gauge(core)
            assert sum(gauge.values()) == 1
        finally:
            supervisor.stop()
        core.close()

    def test_no_scaling_past_ceiling(self, tmp_path):
        core = _core(tmp_path)
        supervisor = Supervisor(
            core, workers=1, max_workers=1, scale_up_pending=1,
            scale_cooldown_s=0.0, idle_retire_s=30.0,
            heartbeat_s=0.2, job_timeout_s=30.0, restart_budget=1,
        )
        for i in range(6):
            core.submit(_probe(f"burst{i}"))
        supervisor.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                assert len(supervisor.workers) == 1
                if core.queue.pending_count() == 0 \
                        and core.queue.running_count() == 0:
                    break
                time.sleep(0.05)
        finally:
            supervisor.stop()
        core.close()

    def test_drop_worker_removes_gauge_label(self, tmp_path):
        core = _core(tmp_path)
        core.note_heartbeat("w0", 0.5)
        core.note_heartbeat("w1", 0.1)
        assert _heartbeat_workers(core) == {"w0", "w1"}
        core.drop_worker("w0")
        assert _heartbeat_workers(core) == {"w1"}
        # Dropping an unknown worker is a harmless no-op.
        core.drop_worker("w99")
        core.close()


# ----------------------------------------------------------------------
# client: breaker, backoff, resubmit-after-eviction
# ----------------------------------------------------------------------
class TestClientResilience:
    def test_reconnect_error_carries_attempts_and_cause(self, tmp_path):
        with pytest.raises(ServeError) as excinfo:
            request(tmp_path / "no.sock", {"op": "ping"}, reconnect_s=0.2)
        error = excinfo.value
        assert error.context["attempts"] >= 1
        assert "FileNotFoundError" in error.context["last_error"]
        assert "attempt(s)" in str(error)

    def test_circuit_breaker_opens_after_consecutive_failures(self, tmp_path):
        client = ServeClient(
            tmp_path / "no.sock", reconnect_s=0.0,
            breaker_threshold=2, breaker_cooldown_s=0.2,
        )
        for _ in range(2):
            with pytest.raises(ServeError):
                client.ping()
        # The third call fails fast without touching the socket.
        started = time.monotonic()
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert time.monotonic() - started < 0.1
        assert excinfo.value.context["code"] == "circuit_open"
        assert excinfo.value.context["failures"] == 2
        # After the cooldown the breaker lets a probe through again.
        time.sleep(0.25)
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.context.get("code") != "circuit_open"

    def test_run_backs_off_on_busy_then_succeeds(self, tmp_path, monkeypatch):
        client = ServeClient(tmp_path / "no.sock")
        replies = iter([
            {"ok": False, "code": "busy", "error": "full", "retry_after": 0.05},
            {"ok": True, "job_id": "j1", "state": PENDING, "deduped": False},
        ])
        monkeypatch.setattr(
            client, "submit", lambda job, **kw: next(replies)
        )
        monkeypatch.setattr(
            client, "wait",
            lambda job_id, **kw: {"ok": True, "state": DONE,
                                  "job_id": job_id, "result": {"echo": 1}},
        )
        started = time.monotonic()
        view = client.run(_probe("x"), timeout_s=10.0)
        assert view["state"] == DONE
        assert time.monotonic() - started >= 0.05  # honored the hint

    def test_run_resubmits_after_eviction(self, tmp_path, monkeypatch):
        client = ServeClient(tmp_path / "no.sock")
        submits = []

        def fake_submit(job, **kw):
            submits.append(job)
            return {"ok": True, "job_id": f"j{len(submits)}",
                    "state": PENDING, "deduped": False}

        waits = iter([
            {"ok": False, "code": "evicted", "state": EVICTED,
             "job_id": "j1", "terminal_state": DONE},
            {"ok": True, "state": DONE, "job_id": "j2",
             "result": {"echo": 2}},
        ])
        monkeypatch.setattr(client, "submit", fake_submit)
        monkeypatch.setattr(client, "wait", lambda job_id, **kw: next(waits))
        view = client.run(_probe("y"), timeout_s=10.0)
        assert view["state"] == DONE
        assert len(submits) == 2  # the eviction triggered one resubmit

    def test_run_surfaces_hard_rejections(self, tmp_path, monkeypatch):
        client = ServeClient(tmp_path / "no.sock")
        monkeypatch.setattr(
            client, "submit",
            lambda job, **kw: {"ok": False, "code": "bad_request",
                               "error": "nope"},
        )
        with pytest.raises(ServeError) as excinfo:
            client.run(_probe("z"), timeout_s=5.0)
        assert excinfo.value.context["code"] == "bad_request"
