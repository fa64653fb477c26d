"""Job queue: priority order, single-flight dedup, backpressure, restore.

Every transition is a journal record applied by ``JobQueue.apply``.
"""

from __future__ import annotations

import pytest

from repro.serve.queue import DONE, FAILED, PENDING, RUNNING, JobQueue, QueueFull


def _submit(queue, nonce, priority=0):
    spec = {"kind": "probe", "nonce": nonce}
    return queue.apply(
        queue.submit_record("probe", spec, f"key-{nonce}", priority)
    )


def _move(queue, rtype, job, **fields):
    return queue.apply({"type": rtype, "job_id": job.job_id, **fields})


def test_fifo_within_priority():
    queue = JobQueue()
    a = _submit(queue, "a")
    b = _submit(queue, "b")
    assert queue.next_pending() is a
    _move(queue, "claim", a, worker="w0")
    assert queue.next_pending() is b


def test_lower_priority_value_runs_first():
    queue = JobQueue()
    _submit(queue, "bulk", priority=5)
    urgent = _submit(queue, "urgent", priority=-1)
    assert queue.next_pending() is urgent


def test_single_flight_dedup_and_release_on_failure():
    queue = JobQueue()
    job = _submit(queue, "x")
    assert queue.lookup_key(job.key) is job
    _move(queue, "claim", job, worker="w0")
    assert queue.lookup_key(job.key) is job  # running still dedups
    _move(queue, "complete", job, result={"echo": 1})
    assert queue.lookup_key(job.key) is job  # done still dedups

    other = _submit(queue, "y")
    _move(queue, "claim", other, worker="w0")
    _move(queue, "fail", other, error={"error_type": "X", "message": "boom"})
    # Failure releases the key: the spec may be resubmitted fresh.
    assert queue.lookup_key(other.key) is None
    retry = queue.apply(
        queue.submit_record("probe", dict(other.spec), other.key, 0)
    )
    assert retry.job_id != other.job_id
    assert queue.lookup_key(other.key) is retry


def test_backpressure_high_water_mark():
    queue = JobQueue(max_pending=2)
    _submit(queue, "a")
    _submit(queue, "b")
    with pytest.raises(QueueFull):
        queue.submit_record("probe", {"kind": "probe"}, "key-c", 0)
    # Claiming one frees a slot.
    _move(queue, "claim", queue.next_pending(), worker="w0")
    _submit(queue, "c")


def test_claim_requires_pending():
    queue = JobQueue()
    job = _submit(queue, "a")
    _move(queue, "claim", job, worker="w0")
    # A second claim of a running job moves nothing.
    assert _move(queue, "claim", job, worker="w1") is job
    assert (job.state, job.worker, job.attempts) == (RUNNING, "w0", 1)


def test_requeue_returns_job_to_heap():
    queue = JobQueue()
    job = _submit(queue, "a")
    _move(queue, "claim", job, worker="w0")
    assert queue.next_pending() is None
    _move(queue, "requeue", job, reason="test")
    assert job.state == PENDING
    assert queue.next_pending() is job
    assert job.attempts == 1  # attempts survive the requeue


def test_position_counts_earlier_pending():
    queue = JobQueue()
    _submit(queue, "a")
    b = _submit(queue, "b")
    late_urgent = _submit(queue, "c", priority=-1)
    assert queue.position(late_urgent.job_id) == 0
    assert queue.position(b.job_id) == 2
    assert queue.position("missing") is None


def test_restore_requeues_claimed_and_keeps_terminal():
    records = [
        {"type": "submit", "job_id": "j0", "job_seq": 0, "key": "k0",
         "kind": "probe", "spec": {"kind": "probe"}, "priority": 0,
         "submitted_s": 1.0},
        {"type": "submit", "job_id": "j1", "job_seq": 1, "key": "k1",
         "kind": "probe", "spec": {"kind": "probe"}, "priority": 0,
         "submitted_s": 2.0},
        {"type": "submit", "job_id": "j2", "job_seq": 2, "key": "k2",
         "kind": "probe", "spec": {"kind": "probe"}, "priority": 0,
         "submitted_s": 3.0},
        {"type": "claim", "job_id": "j0", "worker": "w0", "attempt": 1},
        {"type": "claim", "job_id": "j1", "worker": "w1", "attempt": 1},
        {"type": "complete", "job_id": "j1", "result": {"echo": 1}},
        # A claim arriving after the terminal record must not reopen it.
        {"type": "claim", "job_id": "j1", "worker": "w1", "attempt": 2},
        {"type": "unknown_future_type", "job_id": "j2"},
    ]
    queue = JobQueue()
    recovered = queue.restore(records)
    assert recovered == ["j0"]  # claimed but unfinished -> requeued
    assert queue.jobs["j0"].state == PENDING
    assert queue.jobs["j0"].attempts == 1
    assert queue.jobs["j1"].state == DONE
    assert queue.jobs["j1"].result == {"echo": 1}
    assert queue.jobs["j2"].state == PENDING
    # Dedup index restored too: done and pending jobs still hold keys.
    assert queue.lookup_key("k1").job_id == "j1"
    # Dispatch order resumes from submission order.
    assert queue.next_pending().job_id == "j0"
    # New ids never collide with restored ones.
    fresh = queue.submit_record("probe", {"kind": "probe"}, "k3", 0)
    assert fresh["job_seq"] == 3


def test_restore_then_live_records_round_trips():
    queue = JobQueue()
    a = _submit(queue, "a")
    b = _submit(queue, "b")
    c = _submit(queue, "c")
    _move(queue, "claim", a, worker="w0")
    _move(queue, "complete", a, result={"echo": "a"})
    _move(queue, "claim", b, worker="w0")
    _move(queue, "fail", b, error={"error_type": "X", "message": "m"})

    rebuilt = JobQueue()
    rebuilt.restore(queue.live_records())
    assert {j.job_id: j.state for j in rebuilt.jobs.values()} == {
        a.job_id: DONE, b.job_id: FAILED, c.job_id: PENDING,
    }
    assert rebuilt.jobs[a.job_id].result == {"echo": "a"}
    assert rebuilt.next_pending().job_id == c.job_id


def test_apply_takes_every_time_from_the_record():
    queue = JobQueue()
    job = _submit(queue, "a")
    _move(queue, "claim", job, worker="w0", claimed_s=10.0)
    _move(queue, "complete", job, result={"echo": 1}, finished_s=12.5)
    assert (job.claimed_s, job.finished_s) == (10.0, 12.5)
    # A record without a time stores none: the reducer reads no clock.
    other = _submit(queue, "b")
    _move(queue, "claim", other, worker="w0")
    _move(queue, "fail", other, error={"error_type": "X", "message": "m"})
    assert (other.claimed_s, other.finished_s) == (0.0, 0.0)


def test_finished_jobs_never_reopen():
    queue = JobQueue()
    job = _submit(queue, "a")
    _move(queue, "claim", job, worker="w0")
    _move(queue, "complete", job, result={"echo": 1}, finished_s=5.0)
    for rtype in ("claim", "requeue", "complete", "fail"):
        _move(queue, rtype, job, worker="w1", result={"echo": 2},
              error={"error_type": "X", "message": "m"}, finished_s=9.0)
    assert (job.state, job.result, job.finished_s) == (DONE, {"echo": 1}, 5.0)
    assert job.error is None and job.attempts == 1
