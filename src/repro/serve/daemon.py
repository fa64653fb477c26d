"""The flow-as-a-service daemon: intake, recovery, backpressure, drain.

``repro serve`` turns the batch matrix engine into a long-lived
evaluation server.  Clients speak the JSON-lines protocol of
:mod:`repro.serve.protocol` over a Unix socket; jobs flow through the
journaled queue (:mod:`repro.serve.queue`) into the supervised worker
pool (:mod:`repro.serve.supervisor`).

Crash safety is one invariant, enforced in :class:`ServerCore`: **the
journal is written and fsync'd before any in-memory transition, and
before any acknowledgment leaves the process.**  Every job transition
takes one path, ``ServerCore._commit``: journal the record, apply that
same record to the queue (:meth:`~repro.serve.queue.JobQueue.apply`),
then count and publish it.  Restart (including after ``kill -9``)
replays the journal through the same ``apply``, requeues whatever was
claimed but unfinished, and compacts the file, so a restarted daemon
holds the queue the old one held.  Re-running a recovered matrix
job costs nothing redundant: completed cells reload from the
content-addressed result cache and interrupted matrices resume through
their run-manifest, so a served run interrupted at any instant still
converges to results byte-identical to a clean batch run.

Admission control: past ``REPRO_SERVE_QUEUE_MAX`` pending jobs a submit
either *sheds* -- when the submit outranks the lowest-priority pending
job, that victim is failed with a structured ``LoadShed`` error and the
submit is admitted in its place -- or is rejected with ``code=busy``
and a ``retry_after`` hint derived from the observed drain rate, so
clients back off proportionally to the actual backlog instead of a
constant.  Deduplicated submits are always admitted -- they add no
work.  A submit may carry a relative ``deadline``; pending jobs whose
deadline passes are failed as ``DeadlineExceeded`` by the maintenance
loop (and checked again at claim time) without ever occupying a worker.

Bounded retention: terminal job payloads are held under an LRU count
bound and a TTL (``REPRO_SERVE_RETAIN_JOBS`` / ``_RETAIN_S``); evicted
jobs answer ``result`` with a structured ``evicted`` tombstone pointing
at the journal, and resubmitting the same spec is the supported
recovery path (the content-addressed result cache makes the rerun
byte-identical and cheap).  The journal is compacted online -- under
the core lock, with the same atomic rewrite used at startup -- whenever
the live-record fraction drops below ``REPRO_SERVE_COMPACT_RATIO``.  A
disk-pressure guard flips the daemon into a journaled degraded mode
(submits rejected with ``code=disk_pressure``, in-flight work finishes)
below ``REPRO_SERVE_MIN_FREE_MB`` instead of dying on ENOSPC, and
recovers with hysteresis once space returns.

Graceful drain: SIGTERM/SIGINT flips the daemon into draining mode --
new submits are rejected (``code=draining``), status/result stay
available, in-flight jobs get ``REPRO_SERVE_DRAIN_S`` seconds to
finish, the journal is flushed, and the process exits 0.  Jobs still
running at the deadline stay claimed in the journal and are requeued by
the next start.

Observability: every daemon counter lives in the core's typed metrics
registry (:mod:`repro.obs.registry`); ``metrics`` returns its snapshot
and ``stats`` reads its counters off it (finished jobs' flow counters
stay apart, in the ``telemetry`` window).  ``trace JOB`` returns the
job's incrementally-stitched span tree, and ``subscribe`` turns the
connection into a long-lived JSON-lines feed (:mod:`repro.serve.events`)
of job state transitions, live worker span open/close, supervisor
lifecycle actions, and periodic metric summaries.  The feed is
journaled nowhere and never blocks the daemon: each subscriber has a
bounded queue that drops-and-counts under backpressure.

Environment knobs (all prefixed ``REPRO_SERVE_``)
-------------------------------------------------
``DIR`` state directory (journal, socket, pidfile); ``WORKERS`` pool
floor; ``MAX_WORKERS`` pool ceiling the autoscaler may grow to;
``SCALE_UP_PENDING`` pending-jobs-per-worker pressure that triggers a
scale-up; ``SCALE_COOLDOWN_S`` hysteresis between scale events;
``IDLE_RETIRE_S`` idle time before a surplus worker retires;
``QUEUE_MAX`` pending high-water mark; ``HEARTBEAT_S`` worker
heartbeat interval (stale after 3x); ``JOB_TIMEOUT_S`` per-job hang
limit (0 disables); ``RESTART_BUDGET`` attempts before a poison job is
failed; ``DRAIN_S`` drain deadline; ``RETAIN_JOBS`` / ``RETAIN_S``
terminal-result retention bounds;
``COMPACT_RATIO`` live-record fraction below which the journal is
compacted online; ``COMPACT_MIN`` journal records before online
compaction is considered; ``MIN_FREE_MB`` free-disk floor under which
submits are rejected with ``code=disk_pressure``; ``TRACE``
worker-side span forwarding (default on; falsy disables).  CLI flags
override the environment.

The ``busy`` hint floor (``retry_after_s``, 2 s), the telemetry
reporting window (``telemetry_window_s``, an hour) and the retained
per-job trace trees (``trace_keep``, 32) are :class:`ServeConfig`
fields with no variable of their own.  The feed publishes a ``metrics``
event every :data:`METRICS_INTERVAL_S` and keeps the
:class:`~repro.serve.events.EventBus` default queue and backlog
bounds.
"""

from __future__ import annotations

import errno
import os
import signal
import socket
import socketserver
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, fields
from pathlib import Path

from repro.errors import ServeError
from repro.experiments.cache import cache_dir
from repro.experiments.faults import FaultInjected, inject
from repro.experiments.telemetry import TelemetryView
from repro.log import get_logger
from repro.obs import add_span_event
from repro.obs.registry import MetricsRegistry
from repro.serve.events import EventBus, JobTrace
from repro.serve.journal import Journal, JournalError
from repro.serve.protocol import (
    ProtocolError,
    encode_message,
    job_key,
    normalize_spec,
    read_message,
)
from repro.serve.queue import DONE, EVICTED, FAILED, RUNNING, JobQueue, QueueFull
from repro.serve.supervisor import Supervisor

__all__ = ["ServeConfig", "ServerCore", "serve"]

_log = get_logger("serve.daemon")

#: Cadence of the feed's periodic ``metrics`` event (s).
METRICS_INTERVAL_S = 2.0


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, "") or default)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, "") or default)
    except ValueError:
        return default


@dataclass
class ServeConfig:
    """Resolved daemon configuration (env defaults, CLI overrides)."""

    state_dir: Path
    workers: int = 2
    max_workers: int = 0  # autoscale ceiling; 0 = same as workers
    scale_up_pending: int = 2  # pending jobs per worker before growing
    scale_cooldown_s: float = 5.0  # hysteresis between scale events
    idle_retire_s: float = 30.0  # idle time before a surplus worker retires
    queue_max: int = 64
    heartbeat_s: float = 1.0
    job_timeout_s: float = 600.0
    restart_budget: int = 3
    drain_s: float = 30.0
    retry_after_s: float = 2.0
    retain_jobs: int = 512  # terminal results kept resident (0 = unbounded)
    retain_s: float = 86400.0  # terminal result TTL (0 = unbounded)
    compact_ratio: float = 0.5  # live fraction below which to compact
    compact_min: int = 512  # journal records before compaction considered
    min_free_mb: float = 64.0  # free-disk floor before degraded mode
    socket_path: Path | None = None
    worker_trace: bool = True  # workers trace + forward live spans
    telemetry_window_s: float = 3600.0  # stats_view telemetry horizon
    trace_keep: int = 32  # per-job trace trees retained

    @staticmethod
    def from_env(**overrides) -> "ServeConfig":
        """Build from ``$REPRO_SERVE_*``; non-``None`` overrides win."""
        state_dir = Path(
            os.environ.get("REPRO_SERVE_DIR") or (cache_dir() / "serve")
        ).expanduser()
        trace_raw = os.environ.get("REPRO_SERVE_TRACE", "1").strip().lower()
        config = ServeConfig(
            state_dir=state_dir,
            workers=_env_int("REPRO_SERVE_WORKERS", 2),
            max_workers=_env_int("REPRO_SERVE_MAX_WORKERS", 0),
            scale_up_pending=_env_int("REPRO_SERVE_SCALE_UP_PENDING", 2),
            scale_cooldown_s=_env_float("REPRO_SERVE_SCALE_COOLDOWN_S", 5.0),
            idle_retire_s=_env_float("REPRO_SERVE_IDLE_RETIRE_S", 30.0),
            queue_max=_env_int("REPRO_SERVE_QUEUE_MAX", 64),
            heartbeat_s=_env_float("REPRO_SERVE_HEARTBEAT_S", 1.0),
            job_timeout_s=_env_float("REPRO_SERVE_JOB_TIMEOUT_S", 600.0),
            restart_budget=_env_int("REPRO_SERVE_RESTART_BUDGET", 3),
            drain_s=_env_float("REPRO_SERVE_DRAIN_S", 30.0),
            retain_jobs=_env_int("REPRO_SERVE_RETAIN_JOBS", 512),
            retain_s=_env_float("REPRO_SERVE_RETAIN_S", 86400.0),
            compact_ratio=_env_float("REPRO_SERVE_COMPACT_RATIO", 0.5),
            compact_min=_env_int("REPRO_SERVE_COMPACT_MIN", 512),
            min_free_mb=_env_float("REPRO_SERVE_MIN_FREE_MB", 64.0),
            worker_trace=trace_raw not in ("", "0", "false", "off", "no"),
        )
        for name, value in overrides.items():
            if value is None:
                continue
            if name not in {f.name for f in fields(ServeConfig)}:
                raise ServeError(f"unknown serve option {name!r}")
            setattr(config, name, value)
        config.state_dir = Path(config.state_dir)
        # The ceiling can never undercut the floor: "max_workers=0"
        # (unset) and any value below `workers` both mean "fixed pool".
        config.max_workers = max(config.workers, config.max_workers)
        if config.socket_path is None:
            config.socket_path = config.state_dir / "serve.sock"
        config.socket_path = Path(config.socket_path)
        return config

    @property
    def journal_path(self) -> Path:
        return self.state_dir / "journal.wal"

    @property
    def pid_path(self) -> Path:
        return self.state_dir / "daemon.pid"


#: ``stats`` key -> the registry family and label values it reads.
_STATS_FAMILIES: dict[str, tuple[str, tuple[str, ...]]] = {
    "submitted": ("repro_submits_total", ("accepted",)),
    "deduped": ("repro_submits_total", ("deduped",)),
    "completed": ("repro_jobs_total", ("done",)),
    "failed": ("repro_jobs_total", ("failed",)),
    "requeued": ("repro_jobs_total", ("requeued",)),
    "recovered": ("repro_jobs_total", ("recovered",)),
    "busy_rejected": ("repro_submits_total", ("busy",)),
    "draining_rejected": ("repro_submits_total", ("draining",)),
    "disk_rejected": ("repro_submits_total", ("disk_pressure",)),
    "shed": ("repro_submits_total", ("shed",)),
    "expired": ("repro_jobs_total", ("expired",)),
    "evicted": ("repro_jobs_total", ("evicted",)),
    "compactions": ("repro_compactions_total", ()),
    "worker_respawns": ("repro_worker_restarts_total", ()),
    "hangs_detected": ("repro_worker_hangs_total", ()),
}


class ServerCore:
    """Journal + queue + metrics behind one lock; transport-agnostic.

    Every job transition goes through :meth:`_commit`: journal (fsync'd)
    first, then the queue, then counts, events and acknowledgment.  A
    :class:`JournalError` aborts the transition entirely -- the daemon
    would rather refuse work than accept work it might lose.
    """

    #: Drain-rate observation window (seconds) behind ``retry_after``.
    DRAIN_WINDOW_S = 30.0
    #: Degraded mode exits only once free space doubles the floor.
    DISK_RECOVER_FACTOR = 2.0

    def __init__(self, config: ServeConfig):
        self.config = config
        self.started_s = time.time()
        self.draining = False
        self.degraded = False  # disk-pressure mode: submits rejected
        # Called when a submit leaves a job pending; a started
        # Supervisor installs its wake() so dispatch need not wait.
        self.on_pending = None
        self._lock = threading.RLock()
        # Terminal-transition timestamps inside DRAIN_WINDOW_S; their
        # rate converts queue depth into an honest retry_after hint.
        self._terminal_times: deque = deque()
        # Observability: the registry is per-core (tests spin up several
        # cores per process), the bus fans live events to subscribers,
        # and _traces holds incrementally-stitched per-job span trees.
        self.registry = MetricsRegistry()
        self._init_metrics()
        self.bus = EventBus(registry=self.registry)
        self._traces: OrderedDict[str, JobTrace] = OrderedDict()
        # Finished-job telemetry, (wall_s, snapshot) pairs pruned to the
        # reporting window -- the fix for the old unbounded process-
        # global merge (a week-old daemon now reports recent activity).
        self._telemetry_window: deque = deque()
        config.state_dir.mkdir(parents=True, exist_ok=True)
        self.journal = Journal(config.journal_path, registry=self.registry)
        records = self.journal.open()
        self.queue = JobQueue(max_pending=config.queue_max)
        recovered = self.queue.restore(records)
        if records:
            # Startup is the one quiet moment: squash the replayed
            # history down to its live state so the file stays bounded.
            self.journal.compact(self.queue.live_records())
        for job_id in recovered:
            attempts = self.queue.jobs[job_id].attempts
            self._commit(
                {"type": "requeue", "job_id": job_id, "attempts": attempts,
                 "reason": "recovered"},
                count="recovered", reason="recovered", attempts=attempts,
            )

    def _init_metrics(self) -> None:
        reg = self.registry
        self._queue_depth = reg.gauge(
            "repro_queue_depth", "Jobs pending in the priority queue"
        )
        self._jobs_running = reg.gauge(
            "repro_jobs_running", "Jobs currently claimed by workers"
        )
        self._jobs_total = reg.counter(
            "repro_jobs_total",
            "Job state transitions by terminal/requeue state",
            labels=("state",),
        )
        self._submits_total = reg.counter(
            "repro_submits_total",
            "Submit requests by admission disposition",
            labels=("disposition",),
        )
        self._wait_hist = reg.histogram(
            "repro_job_wait_seconds",
            "Submit-to-claim latency (queue wait) per claim",
        )
        self._run_hist = reg.histogram(
            "repro_job_run_seconds",
            "Claim-to-terminal latency per finished/failed job",
        )
        self._restarts_total = reg.counter(
            "repro_worker_restarts_total",
            "Worker processes respawned (crash, stale heartbeat, hang)",
        )
        self._hangs_total = reg.counter(
            "repro_worker_hangs_total", "Worker restarts caused by a hang"
        )
        self._heartbeat_age = reg.gauge(
            "repro_heartbeat_age_seconds",
            "Seconds since each worker's last heartbeat",
            labels=("worker",),
        )
        self._workers_gauge = reg.gauge(
            "repro_workers",
            "Worker processes by lifecycle state",
            labels=("state",),
        )
        for state in ("idle", "busy", "booting"):
            self._workers_gauge.labels(state=state).set(0)
        self._evictions_total = reg.counter(
            "repro_evictions_total",
            "Terminal job payloads dropped by retention bounds",
        )
        self._compactions_total = reg.counter(
            "repro_compactions_total",
            "Online journal compactions performed",
        )
        self._degraded_gauge = reg.gauge(
            "repro_degraded",
            "1 while the daemon rejects submits under disk pressure",
        )
        self._stage_seconds = reg.counter(
            "repro_stage_seconds_total",
            "Cumulative wall seconds per flow stage, fed from live spans",
            labels=("stage",),
        )
        self._feed_subscribers = reg.gauge(
            "repro_feed_subscribers", "Live subscribe connections"
        )

    # ------------------------------------------------------------------
    # client-facing operations
    # ------------------------------------------------------------------
    def submit(
        self, raw_spec: dict, priority: int = 0, deadline: float = 0.0
    ) -> dict:
        spec = normalize_spec(raw_spec)
        key = job_key(spec)
        priority = int(priority)
        deadline = float(deadline or 0.0)
        deadline_s = time.time() + deadline if deadline > 0 else 0.0
        with self._lock:
            existing = self.queue.lookup_key(key)
            if existing is not None:
                self._submits_total.labels(disposition="deduped").inc()
                return {
                    "ok": True,
                    "job_id": existing.job_id,
                    "state": existing.state,
                    "deduped": True,
                }
            if self.draining:
                self._submits_total.labels(disposition="draining").inc()
                return {
                    "ok": False,
                    "code": "draining",
                    "error": "daemon is draining; submit again after restart",
                    "retry_after": self.config.retry_after_s,
                }
            if self.degraded:
                self._submits_total.labels(disposition="disk_pressure").inc()
                return {
                    "ok": False,
                    "code": "disk_pressure",
                    "error": "daemon is degraded (disk pressure); submits"
                             " resume once space is reclaimed",
                    "retry_after": self._retry_after_hint(),
                }
            try:
                record = self.queue.submit_record(
                    spec["kind"], spec, key, priority, deadline_s
                )
            except QueueFull as exc:
                victim = self.queue.shed_candidate(priority)
                if victim is None:
                    self._submits_total.labels(disposition="busy").inc()
                    return {
                        "ok": False,
                        "code": "busy",
                        "error": str(exc),
                        "retry_after": self._retry_after_hint(),
                    }
                self._shed_locked(victim, priority)
                record = self.queue.submit_record(
                    spec["kind"], spec, key, priority, deadline_s
                )
            try:
                job = self._commit(record, priority=priority)
            except JournalError as exc:
                if exc.errno == errno.ENOSPC:
                    # The disk filled between maintenance ticks: the
                    # submit was not acknowledged and must not be kept.
                    self._enter_degraded_locked(free_mb=0.0)
                    self._submits_total.labels(
                        disposition="disk_pressure"
                    ).inc()
                    return {
                        "ok": False,
                        "code": "disk_pressure",
                        "error": f"journal write hit ENOSPC: {exc}",
                        "retry_after": self._retry_after_hint(),
                    }
                raise
            self._submits_total.labels(disposition="accepted").inc()
            if self.on_pending is not None:
                self.on_pending()
            return {
                "ok": True,
                "job_id": job.job_id,
                "state": job.state,
                "deduped": False,
            }

    def _missing_view(self, job_id: str) -> dict:
        """The answer for a job not in memory: its ``evicted`` tombstone
        when retention dropped it, else ``unknown_job``."""
        tombstone = self.queue.evicted.get(job_id)
        if tombstone is None:
            return {
                "ok": False, "code": "unknown_job",
                "error": f"no such job {job_id!r}",
            }
        return {
            "ok": False,
            "code": "evicted",
            "job_id": job_id,
            "state": EVICTED,
            "kind": tombstone.get("kind", ""),
            "key": tombstone.get("key", ""),
            "terminal_state": tombstone.get("state", ""),
            "finished_s": tombstone.get("finished_s", 0.0),
            "evicted_s": tombstone.get("evicted_s", 0.0),
            "journal": str(self.config.journal_path),
            "error": (
                f"job {job_id} finished as {tombstone.get('state')!r} but"
                " retention evicted its payload; resubmit the same spec"
                " (the result cache makes the rerun cheap and"
                " byte-identical) or consult the journal"
            ),
        }

    def status(self, job_id: str) -> dict:
        with self._lock:
            job = self.queue.jobs.get(job_id)
            if job is None:
                return self._missing_view(job_id)
            view = job.status_view()
            position = self.queue.position(job_id)
            if position is not None:
                view["pending_ahead"] = position
            view["ok"] = True
            view["draining"] = self.draining
            return view

    def result(self, job_id: str) -> dict:
        with self._lock:
            job = self.queue.jobs.get(job_id)
            if job is None:
                return self._missing_view(job_id)
            view = job.status_view()
            view["ok"] = True
            if job.state == DONE:
                view["result"] = job.result
            return view

    def counters(self) -> dict:
        """The ``stats`` dict: counters off the registry, plus uptime."""
        values = self.registry.values
        with self._lock:
            counts = {key: int(values(family).get(labels, 0))
                      for key, (family, labels) in _STATS_FAMILIES.items()}
        counts["uptime_s"] = time.time() - self.started_s
        return counts

    def stats_view(self) -> dict:
        with self._lock:
            return {
                "ok": True,
                "draining": self.draining,
                "pending": self.queue.pending_count(),
                "running": self.queue.running_count(),
                "jobs": len(self.queue.jobs),
                "stats": self.counters(),
                "telemetry": self._windowed_telemetry(),
            }

    def _windowed_telemetry(self) -> dict:
        """The run counters of the finished jobs inside the reporting
        window, merged from their registry snapshots.

        Called with the lock held.  Pruning happens here (reads are the
        only consumer), so a quiet daemon costs nothing.
        """
        horizon = time.time() - self.config.telemetry_window_s
        window = self._telemetry_window
        while window and window[0][0] < horizon:
            window.popleft()
        merged = MetricsRegistry()
        for _ts, snap in window:
            merged.merge(snap)
        return TelemetryView(merged).snapshot()

    def publish_metrics(self) -> None:
        """Publish one periodic ``metrics`` feed event, its counts read
        off the registry (the telemetry window is left alone)."""
        with self._lock:
            counts = self.counters()
            self.bus.publish(
                "metrics", pending=self.queue.pending_count(),
                running=self.queue.running_count(), jobs=len(self.queue.jobs),
                completed=counts["completed"], failed=counts["failed"],
                worker_respawns=counts["worker_respawns"],
                feed_dropped=self.bus.dropped_total(),
            )

    def _update_queue_gauges(self) -> None:
        self._queue_depth.set(self.queue.pending_count())
        self._jobs_running.set(self.queue.running_count())

    def _note_terminal(self, when: float) -> None:
        """Record one terminal transition for drain-rate estimation."""
        self._terminal_times.append(when)

    def _retry_after_hint(self) -> float:
        """Backpressure hint from the observed drain rate (lock held).

        ``pending / rate`` estimates when a queue slot frees up; the
        configured constant is the floor, and the answer whenever
        nothing finished recently enough to estimate a rate.
        """
        now = time.time()
        window = self._terminal_times
        while window and now - window[0] > self.DRAIN_WINDOW_S:
            window.popleft()
        floor = self.config.retry_after_s
        if not window:
            return floor
        rate = len(window) / self.DRAIN_WINDOW_S
        pending = self.queue.pending_count()
        return round(min(120.0, max(floor, pending / rate)), 2)

    def _commit(
        self, record: dict, count: str = "", telemetry=None, trace=None,
        **event,
    ):
        """Move one job by one record; returns the job (lock held).

        The daemon's only job transition, in one order: journal the
        record (fsync'd), apply that same record to the queue, then
        count it and publish its ``job_state`` event.  ``count`` labels
        its ``repro_jobs_total`` sample, ``telemetry`` and ``trace`` are
        a finished attempt's, and ``event`` extends the event.  A
        :class:`JournalError` leaves memory untouched.
        """
        job = self.queue.jobs.get(record["job_id"])
        ran = job is not None and job.state == RUNNING
        fields = {k: v for k, v in record.items() if k != "type"}
        record = self.journal.append(record["type"], **fields)
        job = self.queue.apply(record)
        rtype = record["type"]
        if count:
            self._jobs_total.labels(state=count).inc()
        if rtype == "claim" and job.submitted_s:
            self._wait_hist.observe(max(0.0, job.claimed_s - job.submitted_s))
        elif rtype in ("complete", "fail"):
            self._note_terminal(job.finished_s)
            if ran:
                self._run_hist.observe(max(0.0, job.finished_s - job.claimed_s))
        elif rtype == "evict":
            self._traces.pop(job.job_id, None)
            self._evictions_total.inc()
        if telemetry:
            self._telemetry_window.append((time.time(), telemetry))
        if trace:
            self._trace_for(job.job_id, job.kind).set_final(trace)
        self._update_queue_gauges()
        self.bus.publish(
            "job_state", job_id=job.job_id, kind=job.kind,
            state=EVICTED if rtype == "evict" else job.state, **event,
        )
        return job

    def _shed_locked(self, victim, priority: int) -> None:
        """Fail one pending job to admit a higher-priority submit.

        Called with the lock held at the high-water mark.  The shed is
        journaled first, exactly like any failure, so it survives a
        crash -- the victim's client reads a structured ``LoadShed``
        error, never a silent disappearance.
        """
        error = {
            "error_type": "LoadShed",
            "message": (
                f"shed at the high-water mark ({self.config.queue_max}"
                f" pending) to admit a priority-{priority} submit"
            ),
            "kind": "deterministic",
            "priority": victim.priority,
        }
        self._commit(
            {"type": "fail", "job_id": victim.job_id, "error": error,
             "finished_s": time.time()},
            count="shed", error_type="LoadShed", reason="shed",
        )
        self._submits_total.labels(disposition="shed").inc()
        _log.warning(
            "shed pending job %s (priority %d) for a priority-%d submit",
            victim.job_id, victim.priority, priority,
        )

    def _enter_degraded_locked(self, free_mb: float) -> None:
        if self.degraded:
            return
        self.degraded = True
        self._degraded_gauge.set(1)
        # Best-effort journal record: on a truly full disk the append
        # fails, but the mode itself lives in memory and the guard
        # re-enters it after a restart as long as pressure persists.
        try:
            self.journal.append(
                "degraded", mode="enter", free_mb=round(free_mb, 1)
            )
        except JournalError:
            pass
        self.bus.publish("lifecycle", action="degraded_enter",
                         free_mb=round(free_mb, 1))
        _log.warning(
            "entering degraded mode: %.1f MiB free under the"
            " %.1f MiB floor; rejecting submits",
            free_mb, self.config.min_free_mb,
        )

    def _exit_degraded_locked(self, free_mb: float) -> None:
        if not self.degraded:
            return
        self.degraded = False
        self._degraded_gauge.set(0)
        try:
            self.journal.append(
                "degraded", mode="exit", free_mb=round(free_mb, 1)
            )
        except JournalError:
            pass
        self.bus.publish("lifecycle", action="degraded_exit",
                         free_mb=round(free_mb, 1))
        _log.warning(
            "leaving degraded mode: %.1f MiB free; accepting submits",
            free_mb,
        )

    # ------------------------------------------------------------------
    # observability operations
    # ------------------------------------------------------------------
    def metrics_view(self) -> dict:
        """The registry snapshot with queue/feed gauges freshened."""
        with self._lock:
            self._update_queue_gauges()
            self._feed_subscribers.set(self.bus.subscriber_count())
            return {"ok": True, "metrics": self.registry.snapshot()}

    def trace_view(self, job_id: str) -> dict:
        """The job's span tree as assembled so far (valid mid-run)."""
        with self._lock:
            job = self.queue.jobs.get(job_id)
            if job is None:
                return {
                    "ok": False, "code": "unknown_job",
                    "error": f"no such job {job_id!r}",
                }
            trace = self._traces.get(job_id)
            return {
                "ok": True,
                "job_id": job_id,
                "state": job.state,
                "stages": trace.stage_count() if trace else 0,
                "trace": trace.roots() if trace else [],
            }

    def feed_snapshot(self, job_id: str | None = None) -> dict:
        """The state a new subscriber needs before live events make
        sense: every live job's status view plus daemon stats."""
        with self._lock:
            jobs = {
                jid: job.status_view()
                for jid, job in self.queue.jobs.items()
                if job_id is None or jid == job_id
            }
            return {
                "jobs": jobs,
                "draining": self.draining,
                "stats": self.counters(),
            }

    def _trace_for(self, job_id: str, kind: str = "") -> JobTrace:
        """The job's trace assembler, creating and bounding as needed.

        Called with the lock held.  Eviction is FIFO over *finished*
        insertion order -- with ``trace_keep`` far above the worker
        count, a running job's trace is never evicted in practice.
        """
        trace = self._traces.get(job_id)
        if trace is None:
            trace = self._traces[job_id] = JobTrace(job_id, kind)
            while len(self._traces) > max(1, self.config.trace_keep):
                self._traces.popitem(last=False)
        return trace

    def note_progress(self, job_id: str, span_msg: dict, worker: str = "") -> None:
        """Fold one forwarded worker span transition into the feed.

        Publishes a ``span_open``/``span_close`` event, grows the job's
        incremental trace with completed depth-1 subtrees, and feeds the
        per-stage wall-seconds counter.
        """
        phase = span_msg.get("phase")
        name = str(span_msg.get("name", ""))
        depth = int(span_msg.get("depth", 0) or 0)
        with self._lock:
            job = self.queue.jobs.get(job_id)
            kind = job.kind if job is not None else ""
            trace = self._trace_for(job_id, kind)
            if phase == "open":
                if depth == 0:
                    trace.note_root(span_msg)
                self.bus.publish(
                    "span_open", job_id=job_id, name=name, depth=depth,
                    worker=worker, attrs=span_msg.get("attrs") or {},
                )
                return
            duration = float(span_msg.get("duration_s", 0.0) or 0.0)
            tree = span_msg.get("tree")
            if depth == 1 and isinstance(tree, dict):
                trace.add_stage(tree)
            if name and duration > 0:
                self._stage_seconds.labels(stage=name).inc(duration)
            self.bus.publish(
                "span_close", job_id=job_id, name=name, depth=depth,
                worker=worker, duration_s=duration,
                status=span_msg.get("status", "ok"),
            )

    def note_heartbeat(self, worker: str, age_s: float) -> None:
        """Watchdog hook: publish each worker's heartbeat age gauge."""
        self._heartbeat_age.labels(worker=worker).set(age_s)

    def lifecycle(self, action: str, **fields) -> None:
        """Record one supervisor lifecycle action everywhere it matters:
        the event feed, the metrics registry, and the daemon's own span
        (when the daemon process is being traced)."""
        clean = {k: v for k, v in fields.items() if v is not None}
        self.bus.publish("lifecycle", action=action, **clean)
        if action == "worker_restart":
            self._restarts_total.inc()
            if clean.get("hang"):
                self._hangs_total.inc()
        add_span_event(f"serve:{action}", **clean)

    # ------------------------------------------------------------------
    # supervisor-facing operations (each one commit)
    # ------------------------------------------------------------------
    def job(self, job_id: str):
        with self._lock:
            return self.queue.jobs.get(job_id)

    def claim_job(self, worker: str):
        with self._lock:
            # An expired job must never occupy a worker: sweep the
            # deadline queue right at the claim boundary too, not just
            # on the maintenance tick.
            self.expire_deadlines()
            job = self.queue.next_pending()
            if job is None:
                return None
            attempt = job.attempts + 1
            with inject(
                "job_claim", job=job.job_id, kind=job.kind, worker=worker
            ):
                return self._commit(
                    {"type": "claim", "job_id": job.job_id, "worker": worker,
                     "attempt": attempt, "claimed_s": time.time()},
                    worker=worker, attempt=attempt,
                )

    def finish_job(self, job_id: str, payload, telemetry=None, trace=None) -> None:
        with self._lock:
            job = self.queue.jobs.get(job_id)
            if job is None or job.state in (DONE, FAILED):
                return
            self._commit(
                {"type": "complete", "job_id": job_id,
                 "result": payload if isinstance(payload, dict) else None,
                 "finished_s": time.time()},
                count="done", telemetry=telemetry, trace=trace,
            )

    def fail_job(self, job_id: str, error: dict, telemetry=None, trace=None) -> None:
        with self._lock:
            job = self.queue.jobs.get(job_id)
            if job is None or job.state in (DONE, FAILED):
                return
            self._commit(
                {"type": "fail", "job_id": job_id, "error": error,
                 "finished_s": time.time()},
                count="failed", telemetry=telemetry, trace=trace,
                error_type=error.get("error_type"),
            )
            _log.warning(
                "job %s failed: %s: %s",
                job_id, error.get("error_type"), error.get("message"),
            )

    def requeue_job(self, job_id: str, reason: str, telemetry=None) -> None:
        with self._lock:
            job = self.queue.jobs.get(job_id)
            if job is None or job.state != RUNNING:
                return
            self._commit(
                {"type": "requeue", "job_id": job_id,
                 "attempts": job.attempts, "reason": reason},
                count="requeued", telemetry=telemetry, reason=reason,
                attempts=job.attempts,
            )
            _log.warning("requeued job %s: %s", job_id, reason)

    # ------------------------------------------------------------------
    # periodic maintenance (deadlines, retention, compaction, disk)
    # ------------------------------------------------------------------
    def expire_deadlines(self, now: float | None = None) -> int:
        """Fail every pending job whose deadline has passed.

        Each expiry is a journaled structured failure -- the client
        reads ``DeadlineExceeded``, never a stuck ``pending``.  Safe to
        call from any thread at any time; returns how many expired.
        """
        with self._lock:
            now = time.time() if now is None else now
            expired = self.queue.expired_pending(now)
            for job in expired:
                error = {
                    "error_type": "DeadlineExceeded",
                    "message": (
                        f"deadline passed {now - job.deadline_s:.1f}s ago"
                        " while the job was still pending"
                    ),
                    "kind": "deterministic",
                    "deadline_s": job.deadline_s,
                }
                self._commit(
                    {"type": "fail", "job_id": job.job_id, "error": error,
                     "finished_s": now},
                    count="expired", error_type="DeadlineExceeded",
                )
            return len(expired)

    def enforce_retention(self, now: float | None = None) -> int:
        """Evict terminal jobs past the count/age retention bounds.

        Journal first (an ``evict`` record), memory second -- replaying
        the journal after a crash reproduces exactly which payloads
        were dropped, and :meth:`JobQueue.restore` guarantees an
        evicted job never resurrects.  Returns how many were evicted.
        """
        with self._lock:
            now = time.time() if now is None else now
            candidates = self.queue.evict_candidates(
                self.config.retain_jobs, self.config.retain_s, now
            )
            for job in candidates:
                self._commit(
                    {"type": "evict", "job_id": job.job_id, "key": job.key,
                     "kind": job.kind, "state": job.state,
                     "finished_s": job.finished_s, "evicted_s": now},
                    count="evicted", terminal_state=job.state,
                )
            return len(candidates)

    def maybe_compact(self) -> bool:
        """Rewrite the journal online once mostly-dead records dominate.

        Uses a cheap live-record estimate (two records per resident job,
        one per tombstone) against the journal's durable record count;
        below ``compact_ratio`` the queue is re-serialized through the
        same atomic compactor the startup path uses.  Runs under the
        core lock, so submits briefly queue behind a compaction --
        that is the price of never replaying an unbounded file.
        """
        with self._lock:
            total = self.journal.records_in_file
            if total < max(1, self.config.compact_min):
                return False
            live = 2 * len(self.queue.jobs) + len(self.queue.evicted)
            if live / total >= self.config.compact_ratio:
                return False
            self.journal.compact(self.queue.live_records())
            self._compactions_total.inc()
            self.lifecycle(
                "journal_compacted", before=total,
                after=self.journal.records_in_file,
            )
            return True

    def _disk_free_mb(self) -> float:
        """Free space on the state-dir filesystem, in MiB.

        The ``disk_full`` fault site models a full disk: an injected
        fault reads as zero bytes free.
        """
        try:
            with inject("disk_full", path=str(self.config.state_dir)):
                usage = os.statvfs(self.config.state_dir)
        except FaultInjected:
            return 0.0
        except OSError:
            return float("inf")  # cannot stat: do not flap into degraded
        return usage.f_bavail * usage.f_frsize / (1024 * 1024)

    def check_disk(self) -> bool:
        """Flip degraded mode on disk pressure; recover with hysteresis.

        Degraded entry triggers at ``min_free_mb``; exit waits for
        ``DISK_RECOVER_FACTOR`` times that, so a daemon hovering at the
        floor does not oscillate.  Returns the current degraded state.
        """
        floor = self.config.min_free_mb
        if floor <= 0:
            return False
        free_mb = self._disk_free_mb()
        with self._lock:
            if not self.degraded and free_mb < floor:
                self._enter_degraded_locked(free_mb)
            elif self.degraded and free_mb >= self.DISK_RECOVER_FACTOR * floor:
                self._exit_degraded_locked(free_mb)
            return self.degraded

    def maintenance(self) -> None:
        """One background upkeep pass; every step is independently safe."""
        self.expire_deadlines()
        self.enforce_retention()
        self.maybe_compact()
        self.check_disk()

    # ------------------------------------------------------------------
    # worker-pool observability hooks
    # ------------------------------------------------------------------
    def drop_worker(self, worker: str) -> None:
        """Forget a retired/reaped worker's per-worker gauge labels.

        Without this a weeks-old autoscaling daemon accumulates one
        dead ``heartbeat_age_seconds`` label set per worker it ever
        ran.
        """
        self._heartbeat_age.remove(worker=worker)

    def trace_label(self, job_id: str, worker: str) -> str:
        """Supervisor hook: the ``worker=`` attribute a finished
        attempt's spans carry in this process's trace."""
        return f"serve:{worker}"

    def note_worker_pool(self, counts: dict) -> None:
        """Supervisor hook: publish ``repro_workers{state}`` gauges."""
        for state in ("idle", "busy", "booting"):
            self._workers_gauge.labels(state=state).set(
                int(counts.get(state, 0))
            )

    def start_drain(self) -> None:
        with self._lock:
            self.draining = True

    def close(self) -> None:
        self.bus.close()
        with self._lock:
            self.journal.close()


# ----------------------------------------------------------------------
# socket transport
# ----------------------------------------------------------------------
class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        core: ServerCore = self.server.core  # type: ignore[attr-defined]
        try:
            message = read_message(self.rfile)
        except ProtocolError as exc:
            self._reply({"ok": False, "code": "bad_request", "error": str(exc)})
            return
        if message is None:
            return
        op = message.get("op")
        try:
            if op == "ping":
                response = {"ok": True, "pid": os.getpid()}
            elif op == "submit":
                response = core.submit(
                    message.get("job") or {},
                    priority=int(message.get("priority", 0) or 0),
                    deadline=float(message.get("deadline", 0) or 0),
                )
            elif op == "status":
                response = core.status(str(message.get("job_id", "")))
            elif op == "result":
                response = core.result(str(message.get("job_id", "")))
            elif op == "stats":
                response = core.stats_view()
            elif op == "metrics":
                response = core.metrics_view()
            elif op == "trace":
                response = core.trace_view(str(message.get("job_id", "")))
            elif op == "subscribe":
                self._subscribe(core, message)
                return  # long-lived connection; already closed by now
            elif op == "drain":
                self.server.request_shutdown()  # type: ignore[attr-defined]
                response = {"ok": True, "draining": True}
            else:
                response = {
                    "ok": False, "code": "bad_request",
                    "error": f"unknown op {op!r}",
                }
        except ProtocolError as exc:
            response = {"ok": False, "code": "bad_request", "error": str(exc)}
        except JournalError as exc:
            response = {"ok": False, "code": "internal", "error": str(exc)}
        self._reply(response, op=str(op))

    def _subscribe(self, core: ServerCore, message: dict) -> None:
        """Serve one long-lived feed connection until either side quits.

        The first line is ``{"ok": true, "snapshot": {...}}``, then the
        backlog replay, then live events as they happen -- one JSON
        object per line, exactly the request framing in reverse.  The
        daemon notices a dead client at the next write (every metric
        tick at the latest) and unsubscribes it; a bus shutdown (drain)
        wakes the blocking read and ends the stream cleanly.
        """
        job_id = str(message.get("job_id") or "") or None
        sub = core.bus.subscribe(
            job_id=job_id, backlog=bool(message.get("backlog", True))
        )
        core._feed_subscribers.set(core.bus.subscriber_count())
        try:
            self.wfile.write(
                encode_message(
                    {"ok": True, "snapshot": core.feed_snapshot(job_id)}
                )
            )
            self.wfile.flush()
            while True:
                event = sub.get(timeout_s=0.5)
                if event is None:
                    if sub.closed:
                        return
                    continue
                self.wfile.write(encode_message(event))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # the subscriber went away; nothing to clean but state
        finally:
            core.bus.unsubscribe(sub)
            core._feed_subscribers.set(core.bus.subscriber_count())

    def _reply(self, response: dict, op: str = "?") -> None:
        try:
            # Context key is `request`, not `op`: op= is reserved by the
            # fault-spec syntax for corrupt_design operators.
            with inject("client_disconnect", request=op):
                self.wfile.write(encode_message(response))
                self.wfile.flush()
        except FaultInjected:
            # Injected mid-response disconnect: close without replying,
            # exactly as a client crash or cut connection would look.
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # the client went away; its retry will reconnect


class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, socket_path: Path, core: ServerCore, stop_event):
        self.core = core
        self._stop_event = stop_event
        super().__init__(str(socket_path), _Handler)

    def request_shutdown(self) -> None:
        self._stop_event.set()


def _claim_pidfile(pid_path: Path) -> None:
    """Refuse to double-start; adopt the pidfile of a dead daemon."""
    pid_path.parent.mkdir(parents=True, exist_ok=True)
    for _ in range(2):
        try:
            fd = os.open(pid_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, str(os.getpid()).encode("ascii"))
            os.close(fd)
            return
        except FileExistsError:
            try:
                pid = int(pid_path.read_text().strip() or "0")
            except (OSError, ValueError):
                pid = 0
            if pid > 0 and pid != os.getpid() and _pid_alive(pid):
                raise ServeError(
                    f"daemon already running (pid {pid}, {pid_path})"
                ) from None
            # Stale pidfile from a killed daemon: take over.
            pid_path.unlink(missing_ok=True)
    raise ServeError(f"cannot claim pidfile {pid_path}")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def serve(config: ServeConfig) -> int:
    """Run the daemon until drained; returns the process exit status.

    Blocks the calling thread.  SIGTERM/SIGINT (or a client ``drain``
    op) stop intake, give in-flight jobs ``drain_s`` seconds, flush the
    journal, and return 0.
    """
    _claim_pidfile(config.pid_path)
    stop = threading.Event()
    core = ServerCore(config)
    try:
        config.socket_path.unlink(missing_ok=True)
        server = _Server(config.socket_path, core, stop)
    except OSError as exc:
        config.pid_path.unlink(missing_ok=True)
        core.close()
        raise ServeError(
            f"cannot bind socket {config.socket_path}: {exc}"
        ) from exc

    supervisor = Supervisor(
        core,
        workers=config.workers,
        max_workers=config.max_workers,
        scale_up_pending=config.scale_up_pending,
        scale_cooldown_s=config.scale_cooldown_s,
        idle_retire_s=config.idle_retire_s,
        heartbeat_s=config.heartbeat_s,
        job_timeout_s=config.job_timeout_s,
        restart_budget=config.restart_budget,
        forward_spans=config.worker_trace,
    )

    def on_signal(signum, _frame):
        _log.warning("received signal %d; draining", signum)
        stop.set()

    old_handlers = {
        sig: signal.signal(sig, on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    server_thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="repro-serve-socket",
        daemon=True,
    )
    ticker_stop = threading.Event()

    def maintenance_ticker():
        # Two cadences in one loop.  Maintenance (deadline expiry,
        # retention, online compaction, the disk guard) runs every
        # tick -- deadlines should expire within ~half a second of
        # passing.  Metric summaries keep METRICS_INTERVAL_S, double
        # as feed keepalives (a dead subscriber is detected at the next
        # tick's failed write), and are skipped with no subscribers
        # (the backlog ring should hold job history, not clock noise).
        last_metrics = time.monotonic()
        while not ticker_stop.wait(0.5):
            try:
                core.maintenance()
            except Exception:  # noqa: BLE001 -- upkeep must outlive bugs
                _log.exception("maintenance pass failed; continuing")
            now = time.monotonic()
            if now - last_metrics >= METRICS_INTERVAL_S:
                last_metrics = now
                if core.bus.subscriber_count():
                    core.publish_metrics()

    ticker_thread = threading.Thread(
        target=maintenance_ticker, name="repro-serve-maintenance", daemon=True
    )
    try:
        supervisor.start()
        server_thread.start()
        ticker_thread.start()
        _log.warning(
            "serving on %s (journal %s, %d worker(s), %d job(s) recovered)",
            config.socket_path, config.journal_path,
            config.workers, core.counters()["recovered"],
        )
        stop.wait()
        # --- graceful drain -------------------------------------------
        core.start_drain()  # submits now answer code=draining
        drained = supervisor.drain(config.drain_s)
        _log.warning(
            "drain %s; shutting down",
            "complete" if drained else "timed out",
        )
    finally:
        ticker_stop.set()
        supervisor.stop()
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=5.0)
        if ticker_thread.ident is not None:
            ticker_thread.join(timeout=2.0)
        core.close()
        config.socket_path.unlink(missing_ok=True)
        config.pid_path.unlink(missing_ok=True)
        for sig, handler in old_handlers.items():
            signal.signal(sig, handler)
    return 0
