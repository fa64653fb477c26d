"""Priority job queue with single-flight dedup and journal restore.

The queue is deliberately *dumb about durability*: it is a pure
in-memory state machine, and :class:`~repro.serve.daemon.ServerCore`
journals every transition **before** calling the matching mutator here.
That ordering is the recovery invariant -- anything the memory knows,
the journal already knows -- and it is what lets
:meth:`JobQueue.restore` rebuild the exact queue from a replayed record
list after a crash.

Single-flight dedup: jobs are keyed by the content address of their
normalized spec (:func:`repro.serve.protocol.job_key`).  A submit whose
key matches a live (pending/running/done) job returns that job instead
of creating a new one -- two clients asking for the same matrix share
one execution and both read the same result.  Only a *failed* job's key
is released, so resubmitting known-bad work is allowed to try again.

Backpressure: ``max_pending`` bounds the pending backlog.  A submit
past the high-water mark raises :class:`QueueFull` (the daemon turns
that into a ``busy`` + ``retry_after`` response) -- except when it
dedups onto an existing job, which costs nothing.  At the mark the
daemon may instead *shed*: :meth:`JobQueue.shed_candidate` names the
lowest-priority, newest pending job, and evicting it makes room for a
strictly higher-priority submit -- overload degrades the cheap work
first instead of blanket-rejecting the important work.

Deadlines: a job may carry an absolute ``deadline_s``.
:meth:`JobQueue.expired_pending` lists the pending jobs whose deadline
has passed so the daemon can fail them as ``DeadlineExceeded`` --
checked at claim time too, so an expired job never occupies a worker.

Retention: terminal jobs are tracked in finish order.
:meth:`JobQueue.evict_candidates` names the terminal jobs past the
count/age retention bounds and :meth:`JobQueue.evict` drops one from
memory, leaving a bounded tombstone so ``result`` can answer with a
structured ``evicted`` record instead of ``unknown_job``.  Eviction
releases the single-flight key: resubmitting the same spec is the
documented recovery path (content addressing plus the result cache make
the rerun cheap and byte-identical).
"""

from __future__ import annotations

import heapq
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ServeError
from repro.log import get_logger

__all__ = [
    "DONE",
    "EVICTED",
    "FAILED",
    "Job",
    "JobQueue",
    "PENDING",
    "QueueFull",
    "RUNNING",
    "STATES",
]

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: Tombstone pseudo-state: the job reached DONE/FAILED, then retention
#: dropped its payload from memory.  Never a live ``Job.state``.
EVICTED = "evicted"
STATES = (PENDING, RUNNING, DONE, FAILED)

_log = get_logger("serve.queue")


class QueueFull(ServeError):
    """The pending backlog is past the high-water mark (shed load)."""


@dataclass
class Job:
    """One unit of served work, from submit to its terminal record."""

    job_id: str
    key: str  # content-addressed single-flight key
    kind: str
    spec: dict
    priority: int = 0  # lower runs sooner; FIFO within a priority
    seq: int = 0  # submission order (heap tiebreak, stable ids)
    state: str = PENDING
    attempts: int = 0
    worker: str = ""
    submitted_s: float = 0.0
    claimed_s: float = 0.0  # last claim time (job wait/run latency metrics)
    deadline_s: float = 0.0  # absolute wall-clock deadline (0 = none)
    finished_s: float = 0.0  # terminal-transition time (retention TTL)
    result: dict | None = None  # payload of the complete record
    error: dict | None = None  # structured failure of the fail record

    def status_view(self) -> dict:
        """The JSON-safe view ``status`` responses return (no payload)."""
        view = {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "worker": self.worker if self.state == RUNNING else "",
            "error": self.error,
        }
        if self.deadline_s:
            view["deadline_s"] = self.deadline_s
        return view


class JobQueue:
    """In-memory queue: priority heap + dedup index + job table."""

    def __init__(
        self, max_pending: int | None = None, max_tombstones: int = 4096
    ):
        self.max_pending = max_pending
        self.max_tombstones = max(1, max_tombstones)
        self.jobs: dict[str, Job] = {}
        self.evicted: OrderedDict[str, dict] = OrderedDict()  # tombstones
        self._by_key: dict[str, str] = {}
        self._heap: list[tuple[int, int, str]] = []  # (priority, seq, id)
        self._terminal: OrderedDict[str, None] = OrderedDict()  # finish order
        self._next_seq = 0

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return sum(1 for job in self.jobs.values() if job.state == PENDING)

    def running_count(self) -> int:
        return sum(1 for job in self.jobs.values() if job.state == RUNNING)

    def lookup_key(self, key: str) -> Job | None:
        """The live (non-failed) job already covering this key, if any."""
        job_id = self._by_key.get(key)
        if job_id is None:
            return None
        job = self.jobs[job_id]
        return None if job.state == FAILED else job

    def make_job(
        self,
        kind: str,
        spec: dict,
        key: str,
        priority: int,
        deadline_s: float = 0.0,
    ) -> Job:
        """Build (but do not enqueue) the next job for this spec.

        Split from :meth:`add` so the caller can journal the submit
        record -- with the final job id and seq -- *before* the queue
        mutates.  Raises :class:`QueueFull` past the high-water mark.
        """
        if (
            self.max_pending is not None
            and self.pending_count() >= self.max_pending
        ):
            raise QueueFull(
                f"queue is full ({self.pending_count()} pending,"
                f" high-water mark {self.max_pending})"
            )
        seq = self._next_seq
        return Job(
            job_id=f"j{seq:06d}-{key[:8]}",
            key=key,
            kind=kind,
            spec=spec,
            priority=priority,
            seq=seq,
            submitted_s=time.time(),
            deadline_s=deadline_s,
        )

    def shed_candidate(self, priority: int) -> Job | None:
        """The pending job a ``priority`` submit may displace, if any.

        The victim is the *lowest-priority, newest* pending job -- the
        work the queue would run last anyway -- and only a strictly
        higher-priority submit (lower number) may displace it: equal
        priority never sheds, so a flood at one priority cannot rotate
        itself through the queue.
        """
        victim: Job | None = None
        for job in self.jobs.values():
            if job.state != PENDING:
                continue
            if victim is None or (job.priority, job.seq) > (
                victim.priority, victim.seq
            ):
                victim = job
        if victim is not None and victim.priority > priority:
            return victim
        return None

    def expired_pending(self, now: float | None = None) -> list[Job]:
        """Pending jobs whose deadline has passed (oldest deadline first).

        The caller fails each as ``DeadlineExceeded`` -- this is a pure
        query so the journal-first ordering stays in the daemon.
        """
        now = time.time() if now is None else now
        expired = [
            job
            for job in self.jobs.values()
            if job.state == PENDING and job.deadline_s
            and job.deadline_s <= now
        ]
        return sorted(expired, key=lambda j: (j.deadline_s, j.seq))

    def add(self, job: Job) -> Job:
        """Enqueue a job built by :meth:`make_job` (journal already has it)."""
        self._next_seq = max(self._next_seq, job.seq + 1)
        self.jobs[job.job_id] = job
        self._by_key[job.key] = job.job_id
        if job.state == PENDING:
            heapq.heappush(self._heap, (job.priority, job.seq, job.job_id))
        return job

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def next_pending(self) -> Job | None:
        """Peek the highest-priority pending job without claiming it."""
        while self._heap:
            _prio, _seq, job_id = self._heap[0]
            job = self.jobs.get(job_id)
            if job is not None and job.state == PENDING:
                return job
            heapq.heappop(self._heap)  # stale entry (claimed/failed/replaced)
        return None

    def mark_claimed(self, job_id: str, worker: str) -> Job:
        """Transition pending -> running (claim record already journaled)."""
        job = self.jobs[job_id]
        if job.state != PENDING:
            raise ServeError(f"cannot claim job {job_id} in state {job.state}")
        job.state = RUNNING
        job.worker = worker
        job.attempts += 1
        job.claimed_s = time.time()
        return job

    def mark_requeued(self, job_id: str, *, attempts: int | None = None) -> Job:
        """Transition running -> pending (worker died, hang, daemon restart)."""
        job = self.jobs[job_id]
        job.state = PENDING
        job.worker = ""
        if attempts is not None:
            job.attempts = attempts
        heapq.heappush(self._heap, (job.priority, job.seq, job.job_id))
        return job

    def mark_done(self, job_id: str, result: dict | None) -> Job:
        job = self.jobs[job_id]
        job.state = DONE
        job.worker = ""
        job.result = result
        job.finished_s = job.finished_s or time.time()
        self._terminal[job_id] = None
        return job

    def mark_failed(self, job_id: str, error: dict) -> Job:
        job = self.jobs[job_id]
        job.state = FAILED
        job.worker = ""
        job.error = error
        job.finished_s = job.finished_s or time.time()
        self._terminal[job_id] = None
        # Release the single-flight key so the spec may be resubmitted.
        if self._by_key.get(job.key) == job.job_id:
            del self._by_key[job.key]
        return job

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------
    def evict_candidates(
        self,
        retain_jobs: int,
        retain_s: float,
        now: float | None = None,
    ) -> list[Job]:
        """Terminal jobs past the retention bounds, oldest finish first.

        ``retain_jobs`` caps how many terminal jobs stay resident (LRU
        by finish order); ``retain_s`` expires any terminal job older
        than that.  Either bound <= 0 disables that dimension.
        """
        now = time.time() if now is None else now
        candidates: list[Job] = []
        over = (
            len(self._terminal) - retain_jobs if retain_jobs > 0 else 0
        )
        for index, job_id in enumerate(self._terminal):
            job = self.jobs.get(job_id)
            if job is None:  # defensive: tombstoned out of band
                continue
            too_many = index < over
            too_old = (
                retain_s > 0
                and job.finished_s
                and now - job.finished_s > retain_s
            )
            if too_many or too_old:
                candidates.append(job)
        return candidates

    def evict(self, job_id: str, evicted_s: float | None = None) -> dict:
        """Drop one terminal job from memory, leaving a tombstone.

        Releases the single-flight key -- an evicted result can only be
        recovered by resubmitting the spec, so the resubmit must create
        a fresh job.  Returns the tombstone (what ``result`` answers
        with, and what journal compaction preserves).
        """
        job = self.jobs.get(job_id)
        if job is None or job.state not in (DONE, FAILED):
            raise ServeError(
                f"cannot evict job {job_id}:"
                f" {'unknown' if job is None else job.state}"
            )
        tombstone = {
            "job_id": job.job_id,
            "key": job.key,
            "kind": job.kind,
            "state": job.state,
            "finished_s": job.finished_s,
            "evicted_s": time.time() if evicted_s is None else evicted_s,
        }
        del self.jobs[job_id]
        self._terminal.pop(job_id, None)
        if self._by_key.get(job.key) == job_id:
            del self._by_key[job.key]
        self._remember_tombstone(tombstone)
        return tombstone

    def _remember_tombstone(self, tombstone: dict) -> None:
        job_id = str(tombstone.get("job_id", ""))
        if not job_id:
            return
        self.evicted[job_id] = tombstone
        self.evicted.move_to_end(job_id)
        while len(self.evicted) > self.max_tombstones:
            self.evicted.popitem(last=False)

    def position(self, job_id: str) -> int | None:
        """How many pending jobs run before this one (``None`` if not pending)."""
        job = self.jobs.get(job_id)
        if job is None or job.state != PENDING:
            return None
        return sum(
            1
            for other in self.jobs.values()
            if other.state == PENDING
            and (other.priority, other.seq) < (job.priority, job.seq)
        )

    # ------------------------------------------------------------------
    # journal restore
    # ------------------------------------------------------------------
    def restore(self, records: list[dict]) -> list[str]:
        """Rebuild the queue from replayed journal records.

        Applies the same reduction the live daemon performs, then
        converts every job the journal left ``running`` back to
        ``pending`` -- a claim without a terminal record means the
        worker died with the daemon, and the job must run again.
        Completed and failed jobs keep their terminal state forever (a
        claim replayed *after* a complete record is ignored: finished
        work is never reopened), and **retention wins over terminal**:
        a job with an ``evict`` record anywhere in the replay stays a
        tombstone no matter where its other records land -- an evicted
        result must never resurrect into memory.  Returns the ids of
        the recovered (requeued) jobs so the caller can journal their
        requeue records.
        """
        evict_records: dict[str, dict] = {}
        for record in records:
            rtype = record.get("type")
            if rtype == "evict":
                job_id = record.get("job_id")
                if isinstance(job_id, str) and job_id:
                    evict_records[job_id] = record
                continue
            if rtype == "submit":
                spec = record.get("spec")
                job_id = record.get("job_id")
                if not isinstance(spec, dict) or not isinstance(job_id, str):
                    continue
                if job_id in self.jobs:
                    continue  # duplicate submit record: first one wins
                job = Job(
                    job_id=job_id,
                    key=str(record.get("key", "")),
                    kind=str(record.get("kind", "")),
                    spec=spec,
                    priority=int(record.get("priority", 0)),
                    seq=int(record.get("job_seq", 0)),
                    submitted_s=float(record.get("submitted_s", 0.0)),
                    deadline_s=float(record.get("deadline_s", 0.0)),
                )
                self.jobs[job.job_id] = job
                self._by_key[job.key] = job.job_id
                self._next_seq = max(self._next_seq, job.seq + 1)
                continue
            job = self.jobs.get(record.get("job_id", ""))
            if job is None or job.state in (DONE, FAILED):
                continue
            if rtype == "claim":
                job.state = RUNNING
                job.worker = str(record.get("worker", ""))
                job.attempts = int(record.get("attempt", job.attempts + 1))
            elif rtype == "requeue":
                job.state = PENDING
                job.worker = ""
                job.attempts = int(record.get("attempts", job.attempts))
            elif rtype == "complete":
                job.state = DONE
                job.worker = ""
                job.finished_s = float(record.get("finished_s", 0.0))
                result = record.get("result")
                job.result = result if isinstance(result, dict) else None
            elif rtype == "fail":
                job.state = FAILED
                job.worker = ""
                job.finished_s = float(record.get("finished_s", 0.0))
                error = record.get("error")
                job.error = error if isinstance(error, dict) else {
                    "error_type": "ServeError", "message": "unknown failure",
                }
                if self._by_key.get(job.key) == job.job_id:
                    del self._by_key[job.key]
            # unknown record types: forward-compatible no-op

        # Retention wins: an evicted job never re-enters memory, whatever
        # order its records replayed in.  The tombstone merges whatever
        # the evict record knew with whatever the reduction learned.
        for job_id, record in evict_records.items():
            job = self.jobs.pop(job_id, None)
            if job is not None:
                self._terminal.pop(job_id, None)
                if self._by_key.get(job.key) == job_id:
                    del self._by_key[job.key]
            self._remember_tombstone(
                {
                    "job_id": job_id,
                    "key": str(record.get("key", job.key if job else "")),
                    "kind": str(record.get("kind", job.kind if job else "")),
                    "state": str(
                        record.get(
                            "state",
                            job.state if job is not None
                            and job.state in (DONE, FAILED) else DONE,
                        )
                    ),
                    "finished_s": float(
                        record.get(
                            "finished_s", job.finished_s if job else 0.0
                        )
                    ),
                    "evicted_s": float(record.get("evicted_s", 0.0)),
                }
            )

        recovered: list[str] = []
        for job in self.jobs.values():
            if job.state == RUNNING:
                job.state = PENDING
                job.worker = ""
                recovered.append(job.job_id)
        terminal = sorted(
            (j for j in self.jobs.values() if j.state in (DONE, FAILED)),
            key=lambda j: (j.finished_s, j.seq),
        )
        for job in terminal:
            self._terminal[job.job_id] = None
        for job in self.jobs.values():
            if job.state == PENDING:
                heapq.heappush(self._heap, (job.priority, job.seq, job.job_id))
        if recovered:
            _log.warning(
                "journal recovery requeued %d in-flight job(s): %s",
                len(recovered), ", ".join(sorted(recovered)),
            )
        return sorted(recovered)

    def live_records(self) -> list[dict]:
        """Re-serialize the queue for journal compaction.

        One submit record per job plus its terminal (or attempts-
        preserving requeue) record, in submission order, then one
        ``evict`` record per tombstone -- replaying these reproduces
        this exact queue, including which results retention already
        dropped.
        """
        records: list[dict] = []
        for job in sorted(self.jobs.values(), key=lambda j: j.seq):
            submit = {
                "type": "submit",
                "seq": 2 * job.seq,
                "job_id": job.job_id,
                "job_seq": job.seq,
                "key": job.key,
                "kind": job.kind,
                "spec": job.spec,
                "priority": job.priority,
                "submitted_s": job.submitted_s,
            }
            if job.deadline_s:
                submit["deadline_s"] = job.deadline_s
            records.append(submit)
            extra: dict | None = None
            if job.state == DONE:
                extra = {"type": "complete", "result": job.result,
                         "finished_s": job.finished_s}
            elif job.state == FAILED:
                extra = {"type": "fail", "error": job.error,
                         "finished_s": job.finished_s}
            elif job.attempts:
                extra = {"type": "requeue", "attempts": job.attempts,
                         "reason": "compaction"}
            if extra is not None:
                extra.update({"seq": 2 * job.seq + 1, "job_id": job.job_id})
                records.append(extra)
        seq = 2 * self._next_seq
        for tombstone in self.evicted.values():
            records.append({"type": "evict", "seq": seq, **tombstone})
            seq += 1
        return records
