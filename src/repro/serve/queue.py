"""Priority job queue with single-flight dedup, rebuilt by journal replay.

The queue is deliberately *dumb about durability*: it is an in-memory
state machine with one mutator, :meth:`JobQueue.apply`, which moves a
job by one journal record (``submit``, ``claim``, ``requeue``,
``complete``, ``fail`` or ``evict``) and reads no clock.
:class:`~repro.serve.daemon.ServerCore` journals every record
**before** applying it, and :meth:`JobQueue.restore` is a replay of the
journal through the same ``apply``, so the live queue and the queue a
restart rebuilds cannot disagree.  The batch pool
(:class:`~repro.serve.supervisor.BatchPool`) applies the same records
without journaling them.

Single-flight dedup: jobs are keyed by the content address of their
normalized spec (:func:`repro.serve.protocol.job_key`).  A submit whose
key matches a live (pending/running/done) job returns that job instead
of creating a new one -- two clients asking for the same matrix share
one execution and both read the same result.  Only a *failed* job's key
is released, so resubmitting known-bad work is allowed to try again.

Backpressure: ``max_pending`` bounds the pending backlog.  Past the
high-water mark :meth:`JobQueue.submit_record` raises :class:`QueueFull`
(the daemon turns that into a ``busy`` + ``retry_after`` response) --
a submit that dedups onto an existing job never asks, as it costs
nothing.  At the mark the
daemon may instead *shed*: :meth:`JobQueue.shed_candidate` names the
lowest-priority, newest pending job, and failing it makes room for a
strictly higher-priority submit -- overload degrades the cheap work
first instead of blanket-rejecting the important work.

Deadlines: a job may carry an absolute ``deadline_s``.
:meth:`JobQueue.expired_pending` lists the pending jobs whose deadline
has passed so the daemon can fail them as ``DeadlineExceeded`` --
checked at claim time too, so an expired job never occupies a worker.

Retention: terminal jobs are tracked in finish order.
:meth:`JobQueue.evict_candidates` names the terminal jobs past the
count/age retention bounds and an ``evict`` record drops one from
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


def _submit_of(job: Job) -> dict:
    """The ``submit`` record that enqueues ``job``."""
    record = {
        "type": "submit",
        "job_id": job.job_id,
        "job_seq": job.seq,
        "key": job.key,
        "kind": job.kind,
        "spec": job.spec,
        "priority": job.priority,
        "submitted_s": job.submitted_s,
    }
    if job.deadline_s:
        record["deadline_s"] = job.deadline_s
    return record


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

    def submit_record(
        self,
        kind: str,
        spec: dict,
        key: str,
        priority: int,
        deadline_s: float = 0.0,
    ) -> dict:
        """The ``submit`` record of the next job for this spec.

        Building it moves nothing, so the caller can journal the record
        -- with the final job id and seq -- before :meth:`apply`
        enqueues the job.  Raises :class:`QueueFull` past the high-water
        mark.
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
        return _submit_of(Job(
            job_id=f"j{seq:06d}-{key[:8]}", key=key, kind=kind, spec=spec,
            priority=priority, seq=seq, submitted_s=time.time(),
            deadline_s=deadline_s,
        ))

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

    # ------------------------------------------------------------------
    # the reducer
    # ------------------------------------------------------------------
    def apply(self, record: dict) -> Job | None:
        """Move one job by one journal record: the queue's only mutator.

        ``submit`` enqueues, ``claim`` runs, ``requeue`` returns a job
        to pending (keeping its attempts), ``complete`` and ``fail``
        finish it, and ``evict`` drops a finished job, leaving a
        tombstone.  Every value a job holds comes from its records,
        never from a clock.  A record that does not fit the job's state
        moves nothing: a second submit of an id, a claim of a job that
        is not pending, any record for a finished job (finished work is
        never reopened) other than its evict, an evict of a live job,
        and unknown record types (forward compatibility).  Returns the
        job the record names -- an evicted one as it was when dropped
        -- or ``None`` when there is none.
        """
        rtype = record.get("type")
        job_id = record.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            return None
        job = self.jobs.get(job_id)
        if rtype == "submit":
            spec = record.get("spec")
            if job is not None or not isinstance(spec, dict):
                return job
            job = self.jobs[job_id] = Job(
                job_id=job_id,
                key=str(record.get("key", "")),
                kind=str(record.get("kind", "")),
                spec=spec,
                priority=int(record.get("priority", 0)),
                seq=int(record.get("job_seq", 0)),
                submitted_s=float(record.get("submitted_s", 0.0)),
                deadline_s=float(record.get("deadline_s", 0.0)),
            )
            self._by_key[job.key] = job_id
            self._next_seq = max(self._next_seq, job.seq + 1)
            heapq.heappush(self._heap, (job.priority, job.seq, job_id))
        elif rtype == "evict":
            if job is None or job.state in (DONE, FAILED):
                self._drop(job_id, record)
        elif job is None or job.state in (DONE, FAILED):
            pass  # finished work is never reopened
        elif rtype == "claim":
            if job.state == PENDING:
                job.state = RUNNING
                job.worker = str(record.get("worker", ""))
                job.attempts = int(record.get("attempt", job.attempts + 1))
                job.claimed_s = float(record.get("claimed_s", 0.0))
        elif rtype == "requeue":
            if job.state == RUNNING:
                heapq.heappush(self._heap, (job.priority, job.seq, job_id))
            job.state = PENDING
            job.worker = ""
            job.attempts = int(record.get("attempts", job.attempts))
        elif rtype in ("complete", "fail"):
            job.worker = ""
            job.attempts = int(record.get("attempts", job.attempts))
            job.finished_s = float(record.get("finished_s", 0.0))
            self._terminal[job_id] = None
            if rtype == "complete":
                job.state = DONE
                result = record.get("result")
                job.result = result if isinstance(result, dict) else None
            else:
                job.state = FAILED
                error = record.get("error")
                job.error = error if isinstance(error, dict) else {
                    "error_type": "ServeError", "message": "unknown failure",
                }
                # Release the single-flight key so the spec may be
                # resubmitted.
                if self._by_key.get(job.key) == job_id:
                    del self._by_key[job.key]
        return job

    def _drop(self, job_id: str, record: dict) -> None:
        """Drop a job from memory for its evict record, leaving a tombstone.

        Releases the single-flight key -- an evicted result can only be
        recovered by resubmitting the spec, so the resubmit must create
        a fresh job.  The tombstone (what ``result`` answers with, and
        what journal compaction preserves) merges whatever the record
        knew with whatever the job knew.  It keeps the job's seq, so a
        queue replayed from tombstones alone never hands out an evicted
        job's id again.
        """
        job = self.jobs.pop(job_id, None)
        state = DONE
        if job is not None:
            self._terminal.pop(job_id, None)
            if self._by_key.get(job.key) == job_id:
                del self._by_key[job.key]
            state = job.state if job.state in (DONE, FAILED) else DONE
        tombstone = self.evicted[job_id] = {
            "job_id": job_id,
            "key": str(record.get("key", job.key if job else "")),
            "kind": str(record.get("kind", job.kind if job else "")),
            "state": str(record.get("state", state)),
            "finished_s": float(
                record.get("finished_s", job.finished_s if job else 0.0)
            ),
            "evicted_s": float(record.get("evicted_s", 0.0)),
        }
        seq = record.get("job_seq", job.seq if job else None)
        if seq is not None:
            tombstone["job_seq"] = int(seq)
            self._next_seq = max(self._next_seq, int(seq) + 1)
        self.evicted.move_to_end(job_id)
        while len(self.evicted) > self.max_tombstones:
            self.evicted.popitem(last=False)

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
        """Rebuild the queue by replaying journal records through :meth:`apply`.

        Two passes follow the replay.  **Retention wins over
        terminal**: a job with an ``evict`` record anywhere in the
        replay stays a tombstone no matter where its other records land
        -- an evicted result must never resurrect into memory.  Then
        every job the journal left ``running`` is requeued: a claim
        without a terminal record means the worker died with the
        daemon, and the job must run again.  Returns the ids of the
        recovered jobs so the caller can journal their requeue records.
        """
        for record in records:
            self.apply(record)
        evicts = {r.get("job_id"): r for r in records if r.get("type") == "evict"}
        for job_id, record in evicts.items():
            if job_id in self.jobs:
                self._drop(job_id, record)
        recovered = sorted(
            job.job_id for job in self.jobs.values() if job.state == RUNNING
        )
        for job_id in recovered:
            self.apply({"type": "requeue", "job_id": job_id})
        # Replay finishes jobs in file order, and compaction writes them
        # in submission order; retention's LRU needs finish order.
        self._terminal = OrderedDict.fromkeys(sorted(
            self._terminal,
            key=lambda job_id: (self.jobs[job_id].finished_s,
                                self.jobs[job_id].seq),
        ))
        if recovered:
            _log.warning(
                "journal recovery requeued %d in-flight job(s): %s",
                len(recovered), ", ".join(recovered),
            )
        return recovered

    def live_records(self) -> list[dict]:
        """Re-serialize the queue for journal compaction.

        One submit record per job plus its terminal (or requeue) record,
        which keeps its attempts, in submission order, then one
        ``evict`` record per tombstone -- replaying these reproduces
        this exact queue, including which results retention already
        dropped.
        """
        records: list[dict] = []
        for job in sorted(self.jobs.values(), key=lambda j: j.seq):
            records.append({**_submit_of(job), "seq": 2 * job.seq})
            extra: dict | None = None
            if job.state == DONE:
                extra = {"type": "complete", "result": job.result,
                         "finished_s": job.finished_s}
            elif job.state == FAILED:
                extra = {"type": "fail", "error": job.error,
                         "finished_s": job.finished_s}
            elif job.attempts:
                extra = {"type": "requeue", "reason": "compaction"}
            if extra is not None:
                extra.update({"seq": 2 * job.seq + 1, "job_id": job.job_id,
                              "attempts": job.attempts})
                records.append(extra)
        seq = 2 * self._next_seq
        for tombstone in self.evicted.values():
            records.append({"type": "evict", "seq": seq, **tombstone})
            seq += 1
        return records
