"""Worker-pool supervisor: heartbeats, hang detection, restart budgets.

This is the package's one worker pool, and two kinds of caller drive it:

- the serving daemon runs it on a thread of its own
  (:meth:`Supervisor.start`).  The daemon is multi-threaded, and forking
  a threaded parent is how deadlocks are born, so its workers start
  with the spawn method;
- a batch run -- ``run_matrix(jobs > 1)`` or ``explore(jobs > 1)`` --
  drives it from the calling thread (:class:`BatchPool`, through
  :meth:`Supervisor.drive`) over an in-memory
  :class:`~repro.serve.queue.JobQueue` and no journal.  That caller is
  single-threaded, so its workers start with the platform's default
  method (fork on Linux): they inherit the caller's imports, and a
  ``__main__`` script without an import guard is never re-run.

Each worker is a separate process connected by a duplex pipe and a
shared heartbeat timestamp, and runs every job through
:func:`_worker_main`.  The driving thread sleeps in
:func:`multiprocessing.connection.wait` on a wait set of

- the **wake channel**, a non-blocking self-pipe that the core writes
  to when a submit leaves a job pending;
- the pipe of every **busy** worker (a finished job or a live span);
- the process **sentinel** of every worker (readable once it exits);

and runs one scheduling step, :meth:`Supervisor.tick`, as soon as any
of them is ready, or after ``HOUSEKEEPING_S`` when none is.  A step is:

1. **harvest** -- pull finished-job replies off worker pipes and hand
   them to the core (which journals before mutating);
2. **reap** -- a dead worker process (crash, ``os._exit``, OOM kill) is
   replaced and its job requeued as a *transient* failure;
3. **watchdog** -- a worker whose heartbeat went stale (the process is
   wedged) or whose job outlived the per-job timeout, measured from
   dispatch (the flow is hung), is killed, replaced, and its job
   requeued;
4. **autoscale** -- grow or shrink the pool (below);
5. **dispatch** -- idle workers claim the highest-priority pending job
   (claim journaled and fsync'd *before* the job crosses the pipe);
6. **publish** -- refresh the pool-state gauges.

So a job is dispatched, harvested or requeued within about a
millisecond of the event behind it, while the housekeeping timeout
bounds how late the clock-driven checks (heartbeat staleness, job
timeouts, idle retirement, the gauges) can run.  Requeues and respawns
happen inside the step, before its dispatch, so only submits -- which
arrive on other threads -- need the wake channel.  A batch run submits
everything before it drives the pool, so it has no wake channel.

Requeues respect a **restart budget**: a job whose attempts exceed it
is failed as a poison job (``crash_loop``) instead of being allowed to
take the pool down forever.  Worker death, a hang and a transient error
(:data:`~repro.experiments.resilience.TRANSIENT_ERRORS`) retry; a
deterministic error fails the job at once.  A batch run takes its
budget from ``RetryPolicy.max_retries`` and its per-job timeout from
``RetryPolicy.timeout_s``.  Every restart reaches the core, which
counts it, as ``core.lifecycle("worker_restart", ...)``, with
``hang=True`` when the watchdog killed the worker.

The pool size is adaptive between a floor (``workers``) and a ceiling
(``max_workers``): when the pending backlog outgrows
``scale_up_pending`` jobs per worker, one worker is added per
``scale_cooldown_s`` of sustained pressure, and a surplus worker idle
for ``idle_retire_s`` is retired back toward the floor.  Scaling is
deliberately one-worker-at-a-time with a shared cooldown (hysteresis):
a burst neither forks a worker storm nor thrashes spawn/retire cycles,
and the watchdog/restart-budget machinery only ever sees workers that
exist for real work.  Worker names are monotonic (``w0, w1, ...`` --
never reused, even across respawns), so every lifecycle event and
per-worker gauge names exactly one process; retired and reaped names
drop their gauge label sets via ``core.drop_worker``.

Workers double as crash-confinement cells: they set ``PR_SET_PDEATHSIG``
so a ``kill -9`` of the daemon or batch run kills them too (no orphan
keeps burning CPU, double-running a flow after a restart requeues it,
or holding a forked copy of the run-manifest lock), and their heartbeat
thread exits the process if the parent pid changes, as a fallback where
pdeathsig is unavailable.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time

from repro.experiments.faults import inject
from repro.experiments.resilience import PoolUnavailable
from repro.experiments.telemetry import count, merge_snapshot
from repro.log import get_logger
from repro.obs import attach_subtree
from repro.serve.queue import JobQueue

__all__ = ["BatchPool", "Supervisor", "WorkerHandle"]

_log = get_logger("serve.supervisor")

#: Longest the supervisor loop waits between scheduling steps when no
#: event arrives: the watchdog, autoscaler and pool gauges run at least
#: this often, and ``drain`` re-checks the pool at this interval.
HOUSEKEEPING_S = 0.05

#: Seconds a booting worker (spawn + imports) may go without its first
#: heartbeat before the watchdog replaces it.
BOOT_GRACE_S = 30.0


# ----------------------------------------------------------------------
# worker process side
# ----------------------------------------------------------------------
def _set_pdeathsig() -> None:
    """Ask Linux to SIGKILL this worker when its parent dies."""
    try:
        import ctypes

        PR_SET_PDEATHSIG = 1
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except Exception:  # noqa: BLE001 -- best-effort on non-Linux
        pass


def _heartbeat_loop(name, heartbeat, parent_pid, interval_s, stop):
    """Worker-side thread: beat the shared timestamp, watch the parent."""
    from repro.experiments.faults import inject

    while not stop.is_set():
        with inject("heartbeat", worker=name):
            heartbeat.value = time.time()
        if os.getppid() != parent_pid:
            # The daemon died without pdeathsig delivering: do not keep
            # running (and possibly double-running) its job as an orphan.
            os._exit(40)
        stop.wait(interval_s)


def _execute_job(kind: str, spec: dict, attempt: int) -> dict:
    """Run one job body; returns its JSON-safe result payload.

    Flow, sweep, matrix and dse jobs release the runner's in-process
    caches when they end.  The daemon deduplicates resubmits by job key
    and a batch run never resubmits a finished job, so the worker never
    reads those entries back; kept, they would pin every finished job's
    placed design for the worker's whole life.
    """
    if kind == "probe":
        from repro.experiments.faults import FaultInjected

        if spec.get("seconds"):
            time.sleep(float(spec["seconds"]))
        fail = spec.get("fail")
        if fail == "deterministic":
            raise FaultInjected("probe requested a deterministic failure")
        if fail == "transient":
            raise OSError("probe requested a transient failure")
        return {"echo": spec.get("payload"), "attempt": attempt}
    from repro.experiments.runner import clear_memory_caches

    try:
        return _execute_flow_job(kind, spec, attempt)
    finally:
        clear_memory_caches()


def _execute_flow_job(kind: str, spec: dict, attempt: int) -> dict:
    if kind == "sweep":
        from repro.experiments.runner import find_target_period

        period = find_target_period(
            spec["design"], scale=spec["scale"], seed=spec["seed"]
        )
        return {"design": spec["design"], "period_ns": period}
    if kind == "flow":
        from repro.experiments.runner import run_configuration

        _design, result = run_configuration(
            spec["design"],
            spec["config"],
            period_ns=spec["period_ns"],
            scale=spec["scale"],
            seed=spec["seed"],
        )
        return {"result": result.to_dict()}
    if kind == "dse":
        # Batch-only: the spec crosses the pipe, never the journal, so
        # it carries the config and exploration objects as they are.
        from repro.experiments.dse.search import evaluate_config

        return evaluate_config(spec["cfg"], spec["explore"], spec["hint"])
    # matrix: serial inside the worker (no nested pools); interrupted
    # attempts resume through the run-manifest + content-addressed cache,
    # so a requeued matrix never re-executes a completed cell.
    from repro.experiments.runner import run_matrix

    matrix = run_matrix(
        designs=tuple(spec["designs"]),
        config_names=tuple(spec["configs"]),
        scale=spec["scale"],
        seed=spec["seed"],
        jobs=1,
        keep_going=True,
        resume=attempt > 1,
        target_periods=dict(spec["periods"]) or None,
    )
    return {
        "ok": matrix.ok,
        "target_periods": dict(matrix.target_periods),
        "results": {
            f"{d}/{c}": r.to_dict() for (d, c), r in matrix.results.items()
        },
        "failed": [cell.to_dict() for cell in matrix.all_failures()],
    }


#: Only spans this shallow are forwarded live (job root + its stages);
#: deeper sub-steps stay in the end-of-job snapshot, keeping the feed's
#: per-span cost flat no matter how deep a flow's trace goes.
_FORWARD_MAX_DEPTH = 1


def _span_forwarder(conn, job_id: str):
    """Build a span observer streaming shallow transitions up the pipe.

    Each forwarded message is ``{"job_id", "status": "progress", "span":
    {...}}`` -- the same channel as the final reply, so ordering with the
    job's completion is guaranteed by the pipe.  A close at depth 1
    carries the whole completed subtree (one stage / one matrix cell);
    the daemon stitches those into the job's incremental trace.  Send
    failures are swallowed: a dying daemon must not crash the flow.
    """

    def forward(phase: str, sp, depth: int) -> None:
        if depth > _FORWARD_MAX_DEPTH:
            return
        msg = {"phase": phase, "name": sp.name, "depth": depth}
        if phase == "open":
            msg["start_wall_s"] = sp.start_wall_s
            msg["start_perf_s"] = sp.start_perf_s
            msg["attrs"] = {
                k: v
                for k, v in sp.attrs.items()
                if isinstance(v, (str, int, float, bool))
            }
        else:
            msg["duration_s"] = sp.duration_s
            msg["status"] = sp.status
            if depth == _FORWARD_MAX_DEPTH:
                msg["tree"] = sp.to_dict()
        try:
            conn.send({"job_id": job_id, "status": "progress", "span": msg})
        except (BrokenPipeError, OSError, ValueError):
            pass

    return forward


def _worker_main(
    name: str,
    conn,
    heartbeat,
    parent_pid: int,
    interval_s: float,
    forward_spans: bool = True,
):
    """Worker entry point: loop on jobs from the pipe until told to stop."""
    from repro.experiments.faults import inject
    from repro.experiments.resilience import classify_job_error
    from repro.log import init_from_env
    from repro.obs import (
        add_span_observer,
        enable_tracing,
        remove_span_observer,
        reset_trace,
        trace_snapshot,
    )
    from repro.obs.registry import get_registry, reset_registry

    # The worker inherits the SIGINT block its parent holds across start.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    _set_pdeathsig()
    init_from_env()
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(name, heartbeat, parent_pid, interval_s, stop),
        daemon=True,
    )
    beat.start()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        job_id, kind, spec, attempt = task
        reset_registry()
        reset_trace(from_env=True)
        forwarder = None
        if forward_spans:
            # Live progress needs spans even when $REPRO_TRACE is unset:
            # the served flow is always traced (PR 3 measured tracing at
            # ~0% overhead, and the feed-overhead benchmark guards it).
            enable_tracing()
            forwarder = _span_forwarder(conn, job_id)
            add_span_observer(forwarder)
        try:
            with inject(
                "worker", stage=kind, job=job_id, worker=name,
                design=spec.get("design"), config=spec.get("config"),
            ):
                payload = _execute_job(kind, spec, attempt)
            reply = {"job_id": job_id, "status": "done", "payload": payload}
        except Exception as exc:  # noqa: BLE001 -- process boundary
            reply = {
                "job_id": job_id,
                "status": "failed",
                "error": {
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                    "kind": classify_job_error(exc),
                    "attempt": attempt,
                    "worker": name,
                },
            }
        finally:
            if forwarder is not None:
                remove_span_observer(forwarder)
        reply["telemetry"] = get_registry().snapshot()
        reply["trace"] = trace_snapshot()
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    stop.set()


# ----------------------------------------------------------------------
# daemon side
# ----------------------------------------------------------------------
class WorkerHandle:
    """One supervised worker process and its channel state."""

    def __init__(
        self,
        name: str,
        ctx,
        heartbeat_interval_s: float,
        forward_spans: bool = True,
    ):
        self.name = name
        self.ctx = ctx
        self.heartbeat_interval_s = heartbeat_interval_s
        self.forward_spans = forward_spans
        self.proc = None
        self.conn = None
        self.heartbeat = None
        self.job_id: str | None = None
        self.job_started_s = 0.0
        self.spawn()

    def spawn(self) -> None:
        # 0.0 = "no beat since spawn": the watchdog grants booting
        # workers a grace period (spawn + imports dwarf heartbeat_s).
        self.spawned_s = time.time()
        self.heartbeat = self.ctx.Value("d", 0.0)
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        self.proc = self.ctx.Process(
            target=_worker_main,
            args=(
                self.name,
                child_conn,
                self.heartbeat,
                os.getpid(),
                self.heartbeat_interval_s,
                self.forward_spans,
            ),
            daemon=True,
            name=f"repro-serve-{self.name}",
        )
        # SIGINT is held across the fork: its KeyboardInterrupt would
        # otherwise be raised inside an at-fork callback, where CPython
        # reports and drops it, and the interrupted run would go on.
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self.proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        child_conn.close()
        self.conn = parent_conn
        self.job_id = None
        self.job_started_s = 0.0
        self.idle_since = time.monotonic()  # retire-after-idle clock

    @property
    def idle(self) -> bool:
        return self.job_id is None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def last_beat_s(self) -> float:
        return float(self.heartbeat.value)

    def assign(self, job) -> None:
        self.job_id = job.job_id
        self.job_started_s = time.monotonic()
        self.conn.send((job.job_id, job.kind, job.spec, job.attempts))

    def kill(self) -> None:
        """Hard-stop the process (hung or crashed); the pipe dies with it."""
        try:
            if self.proc is not None and self.proc.is_alive():
                self.proc.kill()
            if self.proc is not None:
                self.proc.join(timeout=2.0)
        except (OSError, ValueError):
            pass
        try:
            if self.conn is not None:
                self.conn.close()
        except OSError:
            pass

    def stop(self, timeout_s: float = 2.0) -> None:
        """Polite shutdown: close the intake, then join, then kill."""
        try:
            if self.conn is not None:
                self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        try:
            if self.proc is not None:
                self.proc.join(timeout=timeout_s)
        except (OSError, ValueError):
            pass
        self.kill()


class Supervisor:
    """Drives the worker pool from one daemon thread."""

    def __init__(
        self,
        core,
        *,
        workers: int,
        heartbeat_s: float,
        job_timeout_s: float,
        restart_budget: int,
        max_workers: int = 0,
        scale_up_pending: int = 2,
        scale_cooldown_s: float = 5.0,
        idle_retire_s: float = 30.0,
        forward_spans: bool = True,
    ):
        self.core = core
        self.workers_wanted = max(1, workers)
        self.max_workers = max(self.workers_wanted, max_workers)
        self.scale_up_pending = max(1, scale_up_pending)
        self.scale_cooldown_s = max(0.0, scale_cooldown_s)
        self.idle_retire_s = max(0.0, idle_retire_s)
        self.heartbeat_s = heartbeat_s
        self.job_timeout_s = job_timeout_s
        self.restart_budget = restart_budget
        self.forward_spans = forward_spans
        self.ctx = None  # chosen by how the pool is driven (see _boot)
        self.workers: list[WorkerHandle] = []
        self._draining = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._worker_seq = 0  # names are monotonic, never reused
        self._last_scale = 0.0  # cooldown clock shared by up and down
        # Wake channel (read end, write end): open while the loop runs.
        # The lock keeps a wake() on another thread from writing to a
        # descriptor number the loop has just closed and the OS reused.
        self._wake_r: int | None = None
        self._wake_w: int | None = None
        self._wake_lock = threading.Lock()

    def _next_name(self) -> str:
        name = f"w{self._worker_seq}"
        self._worker_seq += 1
        return name

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        # Submits arrive on socket threads: the core wakes the loop as
        # soon as one leaves a job pending.  A core without the hook
        # (a test double) is served on the housekeeping timeout.
        if hasattr(self.core, "on_pending"):
            self.core.on_pending = self.wake
        self._boot(multiprocessing.get_context("spawn"))
        self._publish_pool()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-supervisor", daemon=True
        )
        self._thread.start()

    def _boot(self, ctx) -> None:
        """Start the floor of workers with start method ``ctx``.

        Workers join ``self.workers`` as they start, so a failed boot
        leaves the started ones where the caller's cleanup finds them.
        """
        self.ctx = ctx
        while len(self.workers) < self.workers_wanted:
            self.workers.append(
                WorkerHandle(
                    self._next_name(), ctx, self.heartbeat_s,
                    self.forward_spans,
                )
            )
        for handle in self.workers:
            self.core.lifecycle("worker_boot", worker=handle.name)

    def drive(self) -> None:
        """Run the core's jobs to completion on the calling thread.

        The batch form of :meth:`start`: no loop thread and no wake
        channel, and workers start with the platform's default method
        (see the module docstring).  Returns once no job is pending or
        running, leaving the workers up for the next batch; :meth:`stop`
        ends them.  On any exception -- a ``KeyboardInterrupt``, or an
        ``OSError`` from a worker that could not start -- the workers
        are killed before it propagates, and the next call boots afresh.
        """
        try:
            if not self.workers:
                self._boot(multiprocessing.get_context())
            while True:
                self.tick()
                if not self._pending_jobs() and all(
                    handle.idle for handle in self.workers
                ):
                    return
                self._wait_for_event()
        except BaseException:
            for handle in self.workers:
                handle.kill()
            self.workers = []
            raise

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                try:
                    self.tick()
                    self._wait_for_event()
                except Exception:  # noqa: BLE001 -- the pool must outlive bugs
                    _log.exception("supervisor tick failed; continuing")
                    self._stop.wait(HOUSEKEEPING_S)
        finally:
            # Closed by the loop itself, not by stop(): a loop that
            # outlives stop()'s join must not wait on a closed (and
            # possibly reused) descriptor.
            with self._wake_lock:
                os.close(self._wake_r)
                os.close(self._wake_w)
                self._wake_r = self._wake_w = None

    def _wait_for_event(self) -> None:
        """Block until the next tick is due: a wake, a reply from a busy
        worker or a worker exit, else the housekeeping timeout."""
        waitables = [] if self._wake_r is None else [self._wake_r]
        for handle in self.workers:
            waitables.append(handle.proc.sentinel)
            # A killed handle's pipe is closed until its respawn.
            if not handle.idle and not handle.conn.closed:
                waitables.append(handle.conn)
        ready = multiprocessing.connection.wait(waitables, HOUSEKEEPING_S)
        if self._wake_r in ready:
            # Drained before the tick runs: a submit landing during the
            # tick leaves its byte here, and the next wait returns at once.
            try:
                while os.read(self._wake_r, 512):
                    pass
            except BlockingIOError:
                pass

    def wake(self) -> None:
        """Run a tick now instead of at the housekeeping timeout.

        Safe from any thread and never blocks; a no-op while the loop
        is not running.
        """
        with self._wake_lock:
            if self._wake_w is None:
                return
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # the pipe is full: a wake-up is already pending

    def stop(self) -> None:
        """Stop the loop and the workers (jobs in flight stay claimed:
        the journal requeues them on the next daemon start)."""
        self._stop.set()
        self.wake()  # the loop is blocked in its wait: end it now
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        for handle in self.workers:
            handle.stop()

    def drain(self, timeout_s: float) -> bool:
        """Finish in-flight jobs without dispatching new ones.

        Returns ``True`` when every worker went idle in time.  Jobs
        still running at the deadline stay claimed in the journal -- the
        next daemon start requeues them -- and their workers are killed.
        """
        self._draining = True
        self.core.lifecycle(
            "drain_begin",
            timeout_s=timeout_s,
            busy=[h.name for h in self.workers if not h.idle],
        )
        deadline = time.monotonic() + timeout_s
        complete = False
        while time.monotonic() < deadline:
            if all(handle.idle for handle in self.workers):
                complete = True
                break
            time.sleep(HOUSEKEEPING_S)
        busy = [] if complete else [
            h.name for h in self.workers if not h.idle
        ]
        if busy:
            _log.warning(
                "drain timeout after %.1fs; %s still busy (their jobs"
                " will be recovered from the journal on restart)",
                timeout_s, ", ".join(busy),
            )
        self.core.lifecycle("drain_end", complete=not busy, busy=busy)
        return not busy

    # ------------------------------------------------------------------
    # one scheduling step (also driven directly by tests)
    # ------------------------------------------------------------------
    def tick(self) -> None:
        self._harvest()
        self._reap()
        self._watchdog()
        if not self._draining:
            self._autoscale()
            self._dispatch()
        self._publish_pool()

    def _pending_jobs(self) -> int:
        """Queue-depth pressure signal."""
        try:
            # Lock-free read of a concurrently-mutated table: a torn
            # scan only skews one tick's pressure estimate.
            return self.core.queue.pending_count()
        except RuntimeError:
            return 0

    def _autoscale(self) -> None:
        """Grow under sustained pressure, retire after sustained idle.

        One worker per cooldown window in either direction: the shared
        ``_last_scale`` clock is the hysteresis that keeps the restart
        budget and watchdog looking at a stable pool, not a thrashing
        one.  The ``scale_event`` fault site can veto (or crash) either
        transition for chaos testing.
        """
        now = time.monotonic()
        if now - self._last_scale < self.scale_cooldown_s:
            return
        pending = self._pending_jobs()
        pool = len(self.workers)
        if pool < self.max_workers and pending >= self.scale_up_pending * pool:
            with inject("scale_event", direction="up", pool=pool):
                handle = WorkerHandle(
                    self._next_name(), self.ctx, self.heartbeat_s,
                    self.forward_spans,
                )
            self.workers.append(handle)
            self._last_scale = now
            self.core.lifecycle(
                "worker_scale_up", worker=handle.name,
                pool=len(self.workers), pending=pending,
            )
            _log.warning(
                "scaled up to %d worker(s) (%d pending): booted %s",
                len(self.workers), pending, handle.name,
            )
            return
        if pool <= self.workers_wanted:
            return
        for handle in reversed(self.workers):
            idle_s = now - handle.idle_since
            if not handle.idle or idle_s < self.idle_retire_s:
                continue
            with inject("scale_event", direction="down", worker=handle.name):
                self.workers.remove(handle)
            handle.stop(timeout_s=1.0)
            self.core.drop_worker(handle.name)
            self._last_scale = now
            self.core.lifecycle(
                "worker_retire", worker=handle.name,
                pool=len(self.workers), idle_s=round(idle_s, 2),
            )
            _log.warning(
                "retired idle worker %s (%.1fs idle); pool back to %d",
                handle.name, idle_s, len(self.workers),
            )
            return

    def _publish_pool(self) -> None:
        """Feed the ``repro_workers{state}`` gauges through the core."""
        counts = {"idle": 0, "busy": 0, "booting": 0}
        for handle in self.workers:
            if not handle.idle:
                counts["busy"] += 1
            elif handle.last_beat_s() == 0.0:
                counts["booting"] += 1
            else:
                counts["idle"] += 1
        self.core.note_worker_pool(counts)

    def _harvest(self) -> None:
        for handle in self.workers:
            if handle.idle or handle.conn is None:
                continue
            try:
                while handle.conn.poll(0):
                    reply = handle.conn.recv()
                    self._deliver(handle, reply)
            except (EOFError, OSError):
                continue  # the reaper below deals with the corpse

    def _deliver(self, handle: WorkerHandle, reply: dict) -> None:
        job_id = reply.get("job_id")
        if job_id != handle.job_id:
            _log.warning(
                "worker %s replied for %s while assigned %s; dropping",
                handle.name, job_id, handle.job_id,
            )
            return
        if reply.get("status") == "progress":
            # A live span transition, not a completion: feed it to the
            # core (event bus + incremental job trace) and keep the job
            # assigned -- the terminal reply is still coming.
            self.core.note_progress(
                job_id, reply.get("span") or {}, worker=handle.name
            )
            return
        handle.job_id = None
        handle.idle_since = time.monotonic()
        telemetry = reply.get("telemetry")
        trace = reply.get("trace")
        if trace:
            attach_subtree(
                trace, worker=self.core.trace_label(job_id, handle.name)
            )
        if reply.get("status") == "done":
            self.core.finish_job(
                job_id, reply.get("payload"), telemetry, trace=trace
            )
            return
        error = reply.get("error") or {}
        if error.get("kind") == "transient":
            self._requeue_or_poison(
                job_id,
                reason=f"transient failure: {error.get('error_type')}:"
                       f" {error.get('message')}",
                telemetry=telemetry,
                error=error,
            )
        else:
            self.core.fail_job(job_id, error, telemetry, trace=trace)

    def _reap(self) -> None:
        for handle in self.workers:
            if handle.alive():
                continue
            exitcode = handle.proc.exitcode if handle.proc else None
            job_id = handle.job_id
            dead = handle.name
            handle.kill()
            _log.warning(
                "worker %s died (exit %s)%s; respawning",
                dead, exitcode,
                f" while running {job_id}" if job_id else "",
            )
            # The replacement gets a fresh name: per-worker gauges and
            # lifecycle events always describe exactly one process.
            self.core.drop_worker(dead)
            handle.name = self._next_name()
            handle.spawn()
            self.core.lifecycle(
                "worker_restart",
                worker=handle.name,
                replaces=dead,
                reason=f"worker died (exit {exitcode})",
                job_id=job_id,
            )
            if job_id is not None:
                self._requeue_or_poison(
                    job_id, reason=f"worker died (exit {exitcode})"
                )

    def _watchdog(self) -> None:
        now = time.time()
        mono = time.monotonic()
        for handle in self.workers:
            if not handle.alive():
                continue  # the reaper handles corpses
            beat = handle.last_beat_s()
            if beat == 0.0:
                # Still booting (spawn + imports): grace, not staleness.
                stale = now - handle.spawned_s > BOOT_GRACE_S
                self.core.note_heartbeat(handle.name, 0.0)
            else:
                stale = now - beat > 3.0 * self.heartbeat_s
                self.core.note_heartbeat(handle.name, max(0.0, now - beat))
            hung = (
                not handle.idle
                and self.job_timeout_s > 0
                and mono - handle.job_started_s > self.job_timeout_s
            )
            if not stale and not hung:
                continue
            job_id = handle.job_id
            why = (
                f"job exceeded {self.job_timeout_s:.1f}s timeout" if hung
                else f"heartbeat stale for >{3.0 * self.heartbeat_s:.1f}s"
            )
            _log.warning(
                "worker %s is wedged (%s); killing and respawning",
                handle.name, why,
            )
            if stale:
                self.core.lifecycle(
                    "heartbeat_stale",
                    worker=handle.name,
                    age_s=round(now - beat, 3) if beat else None,
                    job_id=job_id,
                )
            wedged = handle.name
            handle.kill()
            self.core.drop_worker(wedged)
            handle.name = self._next_name()
            handle.spawn()
            self.core.lifecycle(
                "worker_restart", worker=handle.name, replaces=wedged,
                reason=why, job_id=job_id, hang=True,
            )
            if job_id is not None:
                self._requeue_or_poison(job_id, reason=why)

    def _requeue_or_poison(
        self,
        job_id: str,
        *,
        reason: str,
        telemetry=None,
        error: dict | None = None,
    ) -> None:
        job = self.core.job(job_id)
        if job is None:
            return
        if job.attempts > self.restart_budget:
            poison = {
                "error_type": "CrashLoop",
                "message": (
                    f"job failed {job.attempts} attempt(s), over the"
                    f" restart budget of {self.restart_budget};"
                    f" last: {reason}"
                ),
                "kind": "transient",
                "attempt": job.attempts,
            }
            if error:
                poison["cause"] = error
            self.core.lifecycle(
                "restart_budget_exhausted",
                job_id=job_id,
                attempts=job.attempts,
                budget=self.restart_budget,
                reason=reason,
            )
            self.core.fail_job(job_id, poison, telemetry)
            return
        self.core.requeue_job(job_id, reason, telemetry)

    def _dispatch(self) -> None:
        for handle in self.workers:
            if not handle.idle or not handle.alive():
                continue
            job = self.core.claim_job(handle.name)
            if job is None:
                return
            try:
                handle.assign(job)
            except (BrokenPipeError, OSError):
                # Worker died between claim and send: requeue right away;
                # the reaper respawns the process on the next tick.
                handle.job_id = None
                self._requeue_or_poison(
                    job.job_id, reason="worker pipe broke at dispatch"
                )


# ----------------------------------------------------------------------
# batch runs: one Supervisor driven from the calling thread
# ----------------------------------------------------------------------
#: Heartbeat interval of batch workers (stale after 3x): the daemon's
#: default.
BATCH_HEARTBEAT_S = 1.0


class BatchPool:
    """One Supervisor for one ``run_matrix`` or ``explore`` call.

    Runs batches of ``{label: (kind, spec)}`` jobs on workers that
    outlive each batch, so a matrix's period searches and its cells use
    the same workers; leaving the ``with`` block stops them.  The pool
    is its Supervisor's core: it keeps the in-memory queue, merges every
    attempt's telemetry into this process's, and labels each stitched
    trace subtree with its job's label.  Its jobs move by the records
    the daemon journals, applied to the in-memory queue
    (:meth:`~repro.serve.queue.JobQueue.apply`) with no journal.
    ``policy.timeout_s`` is the per-job timeout, measured from dispatch,
    and ``policy.max_retries`` the restart budget.
    """

    def __init__(self, workers: int, policy) -> None:
        self.queue = JobQueue()
        self._labels: dict[str, str] = {}
        self._done: dict[str, dict] = {}
        self._failed: dict[str, dict] = {}
        self.supervisor = Supervisor(
            self,
            workers=workers,
            heartbeat_s=BATCH_HEARTBEAT_S,
            job_timeout_s=policy.timeout_s or 0.0,
            restart_budget=policy.max_retries,
            forward_spans=False,
        )

    def __enter__(self) -> "BatchPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.supervisor.stop()

    def run(self, jobs: dict[str, tuple[str, dict]]) -> tuple[dict, dict]:
        """Run one batch; returns ``(payloads, errors)`` keyed by label.

        An error is the worker's structured failure: deterministic, or
        a transient ``CrashLoop`` once the restart budget is spent.  A
        job in neither dict lost its worker to a failed restart and is
        left to the caller's serial path.  Raises
        :class:`~repro.experiments.resilience.PoolUnavailable` when no
        worker could start and nothing finished.
        """
        if not jobs:
            return {}, {}
        # A fresh queue per batch: drive() returns only with every
        # worker idle, so no reply can arrive for an earlier batch.
        self.queue = JobQueue()
        self._labels, self._done, self._failed = {}, {}, {}
        for label, (kind, spec) in jobs.items():
            job = self.queue.apply(
                self.queue.submit_record(kind, spec, label, 0)
            )
            self._labels[job.job_id] = label
        try:
            self.supervisor.drive()
        except OSError as exc:
            if not self._done and not self._failed:
                raise PoolUnavailable(str(exc)) from exc
            _log.warning(
                "worker pool failed (%s); %d job(s) left for the serial path",
                exc, len(jobs) - len(self._done) - len(self._failed),
            )
        return self._done, self._failed

    # -- the core interface the Supervisor drives ----------------------
    def job(self, job_id: str):
        return self.queue.jobs.get(job_id)

    def claim_job(self, worker: str):
        job = self.queue.next_pending()
        if job is None:
            return None
        return self.queue.apply(
            {"type": "claim", "job_id": job.job_id, "worker": worker}
        )

    def trace_label(self, job_id: str, worker: str) -> str:
        return self._labels[job_id]

    def finish_job(self, job_id: str, payload, telemetry=None, trace=None) -> None:
        self.queue.apply(
            {"type": "complete", "job_id": job_id, "result": payload}
        )
        self._done[self._labels[job_id]] = payload
        merge_snapshot(telemetry)

    def fail_job(self, job_id: str, error: dict, telemetry=None, trace=None) -> None:
        self.queue.apply({"type": "fail", "job_id": job_id, "error": error})
        self._failed[self._labels[job_id]] = error
        merge_snapshot(telemetry)

    def requeue_job(self, job_id: str, reason: str, telemetry=None) -> None:
        self.queue.apply({"type": "requeue", "job_id": job_id, "reason": reason})
        count("retries")
        _log.warning("retrying %s: %s", self._labels[job_id], reason)
        merge_snapshot(telemetry)

    # A batch run keeps no per-worker gauges and streams no progress.
    def drop_worker(self, worker: str) -> None:
        pass

    def note_heartbeat(self, worker: str, age_s: float) -> None:
        pass

    def note_progress(self, job_id: str, span_msg: dict, worker: str = "") -> None:
        pass

    def note_worker_pool(self, counts: dict) -> None:
        pass

    def lifecycle(self, action: str, **fields) -> None:
        """Count a worker restart, and a hang, in this run's counters."""
        if action == "worker_restart":
            count("worker_respawns")
            if fields.get("hang"):
                count("timeouts")
