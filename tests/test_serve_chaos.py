"""Chaos acceptance: served matrix under crash+hang+kill -9 == clean run.

The scenario the whole PR exists for: a five-configuration ``aes``
matrix is served while the harness injects

1. a worker crash at task entry (``site=worker,kind=exit``) -- the
   supervisor respawns the worker and requeues the job;
2. a wedged flow on the final configuration (``site=cell,kind=hang``)
   -- the attempt is alive but stuck when
3. the daemon itself is ``kill -9``'d mid-run.

A restarted daemon must recover the job from the journal, resume it
through the run-manifest, and converge to results **byte-identical** to
a clean in-process batch run -- with the result cache proving that no
completed flow ever executed twice (the final attempt's telemetry shows
cache hits for every pre-kill cell, flow runs only for the rest).

The whole run happens under observation: a subscribe client rides each
daemon incarnation collecting the event feed (and must not perturb the
byte-identical outcome), the supervisor's lifecycle actions
(worker boot, the injected crash's restart) are asserted from the feed,
the job's span tree is queried mid-run, ``repro metrics --prom`` is
scraped mid-run and validated as Prometheus exposition, and the
collected events replay through :class:`TopModel` to the job's true
final state.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import cache
from repro.experiments.configs import CONFIG_NAMES
from repro.experiments.runner import run_matrix
from repro.obs.registry import validate_prometheus
from repro.serve.topview import TopModel
from tests.serve_utils import (
    child_pids,
    daemon_env,
    pid_alive,
    start_daemon,
    stop_daemon,
    wait_until,
)

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="POSIX-only chaos test"
)

DESIGN = "aes"
SCALE = 0.4
SEED = 17
PERIOD_NS = 1.1
HANG_CONFIG = CONFIG_NAMES[-1]  # the last cell the serial matrix runs

MATRIX_SPEC = {
    "kind": "matrix",
    "designs": [DESIGN],
    "configs": list(CONFIG_NAMES),
    "scale": SCALE,
    "seed": SEED,
    "periods": {DESIGN: PERIOD_NS},
}


def _manifest_key() -> str:
    return cache.manifest_key(
        (DESIGN,), tuple(CONFIG_NAMES), scale=SCALE, seed=SEED,
        periods={DESIGN: PERIOD_NS},
    )


def _completed_cells(served_cache) -> int:
    """Completed-cell count in the served run-manifest (daemon's cache)."""
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(served_cache)
    try:
        manifest = cache.load_manifest(_manifest_key())
    finally:
        if old is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = old
    return len(manifest.get("completed", [])) if manifest else 0


class _FeedCollector:
    """Background subscribe client: collects one incarnation's feed."""

    def __init__(self, socket_path):
        from repro.serve.client import ServeClient

        self.snapshots: list[dict] = []
        self.events: list[dict] = []
        self.stopped = False
        self._client = ServeClient(socket_path)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        for event in self._client.subscribe(idle_s=0.3, reconnect_s=3.0):
            if self.stopped:
                return
            if event is None:
                continue
            if "snapshot" in event:
                self.snapshots.append(event)
            else:
                self.events.append(event)

    def stop(self, timeout_s: float = 15.0):
        self.stopped = True
        self._thread.join(timeout_s)
        assert not self._thread.is_alive(), "feed collector did not stop"

    def lifecycle_actions(self) -> list[str]:
        return [
            e.get("action") for e in self.events
            if e.get("event") == "lifecycle"
        ]

    def replay(self) -> TopModel:
        model = TopModel()
        for snapshot in self.snapshots[:1]:
            model.apply_snapshot(snapshot)
        for event in self.events:
            model.apply(event)
        return model


def _scrape_prometheus(env: dict) -> str:
    """``repro metrics`` via the CLI, exactly as the CI job scrapes it."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "metrics"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_served_matrix_survives_chaos_byte_identical(
    tmp_path, monkeypatch
):
    state_dir = tmp_path / "serve"
    served_cache = tmp_path / "cache-served"
    clean_cache = tmp_path / "cache-clean"
    env = daemon_env(
        state_dir,
        REPRO_CACHE_DIR=str(served_cache),
        REPRO_SERVE_WORKERS="1",
        REPRO_SERVE_HEARTBEAT_S="1.0",
        # Recovered claims keep counting attempts across restarts, so
        # the budget must absorb crash + kill + hang attempts.
        REPRO_SERVE_RESTART_BUDGET="10",
        REPRO_SERVE_JOB_TIMEOUT_S="300",
        # The hang must be long enough to be the thing kill -9
        # interrupts, but shorter than the job timeout and the final
        # wait: if the kill lands in the window after cell 4 completes
        # and *before* the worker reaches the hang site, the unconsumed
        # times=1 fault fires post-restart instead -- the recovered
        # attempt then just sleeps it off and still converges.
        REPRO_FAULTS=(
            "site=worker,kind=exit,times=1"
            f";site=cell,design={DESIGN},config={HANG_CONFIG}"
            ",kind=hang,seconds=45,times=1"
        ),
        REPRO_FAULTS_STATE=str(tmp_path / "fault-state"),
    )

    # --- incarnation 1: crash a worker, then die mid-hang -------------
    proc, client = start_daemon(state_dir, env=env)
    feed1 = _FeedCollector(state_dir / "serve.sock")
    job_id = None
    try:
        response = client.submit(MATRIX_SPEC)
        assert response["ok"]
        job_id = response["job_id"]
        # Attempt 1 dies at worker entry (site=worker). Attempt 2 runs
        # cells serially, caching each, until it wedges on the last
        # configuration (site=cell hang).  Wait for all four pre-hang
        # cells, then kill -9 the daemon while the worker is hung.
        wait_until(
            lambda: _completed_cells(served_cache)
            >= len(CONFIG_NAMES) - 1,
            timeout_s=180,
            what="pre-hang cells to be cached",
            poll_s=0.2,
        )
        time.sleep(1.0)  # let the worker enter the hung cell
        workers = child_pids(proc.pid)
        assert workers, "daemon should have live workers"
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        # The hung worker must not outlive the daemon: an orphan would
        # keep running the matrix and double-execute recovered cells.
        wait_until(
            lambda: not any(pid_alive(pid) for pid in workers),
            timeout_s=10, what="workers to die with the daemon",
        )
    finally:
        stop_daemon(proc)
        feed1.stop()  # its reconnect window expired with the daemon

    # The injected worker crash is visible in the feed as supervisor
    # lifecycle events: the boot of the pool, then the restart.
    actions = feed1.lifecycle_actions()
    assert "worker_boot" in actions
    assert "worker_restart" in actions
    # ... and the crashed attempt's requeue as a job_state transition.
    requeues = [
        e for e in feed1.events
        if e.get("event") == "job_state" and e.get("job_id") == job_id
        and e.get("state") == "pending" and e.get("reason")
    ]
    assert requeues, "worker crash should requeue the job on the feed"
    # Mid-chaos, the fold of everything streamed so far shows the job
    # alive (running or requeued), never invented as terminal.
    mid_model = feed1.replay()
    assert mid_model.job_state(job_id) in ("pending", "running")

    # --- incarnation 2: recover, dedup, finish --------------------------
    proc2, client2 = start_daemon(state_dir, env=env)
    feed2 = _FeedCollector(state_dir / "serve.sock")
    try:
        stats = client2.stats()["stats"]
        assert stats["recovered"] == 1
        # Submitting the identical spec dedups onto the recovered job:
        # no duplicated work, same job id across the daemon's lifetimes.
        again = client2.submit(MATRIX_SPEC)
        assert again["deduped"] and again["job_id"] == job_id

        # Mid-run observability, while the recovered attempt works:
        wait_until(
            lambda: client2.status(job_id).get("state") == "running",
            timeout_s=60, what="recovered job to be claimed",
        )
        trace_view = client2.trace(job_id)
        # (the job may race to done between the two calls; what matters
        # is that the query is answered while work was in flight)
        assert trace_view["ok"]
        assert trace_view["state"] in ("running", "done")
        assert isinstance(trace_view["trace"], list)  # valid mid-run
        prom = _scrape_prometheus(env)
        assert validate_prometheus(prom) == []
        for required in (
            "repro_queue_depth",
            "repro_jobs_running",
            "repro_job_wait_seconds",
            "repro_job_run_seconds",
            "repro_journal_fsync_seconds",
            "repro_worker_restarts_total",
            "repro_submits_total",
        ):
            assert required in prom, f"{required} missing from exposition"
        assert 'repro_jobs_total{state="recovered"} 1' in prom

        view = client2.wait(job_id, timeout_s=300, poll_s=0.5)
        assert view["state"] == "done"
        payload = view["result"]
        assert payload["ok"] is True
        assert payload["failed"] == []
        assert set(payload["results"]) == {
            f"{DESIGN}/{name}" for name in CONFIG_NAMES
        }

        # Telemetry proof of zero redundancy: the recovered attempt
        # loads every pre-kill cell from the result cache and runs
        # exactly one flow -- the cell the kill -9 interrupted (at
        # worst sleeping off a late-firing hang inside it first).
        telemetry = client2.stats()["telemetry"]
        assert telemetry["disk_hits"] == len(CONFIG_NAMES) - 1
        assert telemetry["flows_run"] == 1
        assert client2.stats()["stats"]["deduped"] >= 1

        # The finished job's stitched trace is retrievable after the
        # fact, and the streamed events fold to its true final state.
        final_trace = client2.trace(job_id)
        assert final_trace["ok"] and final_trace["state"] == "done"
        wait_until(
            lambda: feed2.replay().job_state(job_id) == "done",
            timeout_s=10, what="feed to stream the terminal transition",
        )
        model = feed2.replay()
        assert model.job_state(job_id) == "done"
        assert model.counts().get("done", 0) >= 1
        assert "worker_boot" in feed2.lifecycle_actions()
    finally:
        stop_daemon(proc2)
        feed2.stop()

    # --- clean batch run: must be byte-identical ------------------------
    monkeypatch.setenv("REPRO_CACHE_DIR", str(clean_cache))
    clean = run_matrix(
        designs=(DESIGN,),
        config_names=tuple(CONFIG_NAMES),
        scale=SCALE,
        seed=SEED,
        jobs=1,
        keep_going=True,
        target_periods={DESIGN: PERIOD_NS},
    )
    assert clean.ok
    assert payload["target_periods"] == {DESIGN: PERIOD_NS}
    for name in CONFIG_NAMES:
        served_cell = payload["results"][f"{DESIGN}/{name}"]
        clean_cell = clean.results[(DESIGN, name)].to_dict()
        assert json.dumps(served_cell, sort_keys=True) == json.dumps(
            clean_cell, sort_keys=True
        ), f"served vs clean mismatch in {DESIGN}/{name}"


# ======================================================================
# act two: sustained overload
# ======================================================================
FLOW_CONFIG = CONFIG_NAMES[0]
FLOW_SPEC = {
    "kind": "flow",
    "design": DESIGN,
    "config": FLOW_CONFIG,
    "period_ns": PERIOD_NS,
    "scale": SCALE,
    "seed": SEED,
}


def _probe_spec(nonce: str, **extra) -> dict:
    return {"kind": "probe", "nonce": nonce, **extra}


def test_overload_act_sheds_expires_and_survives_compaction_kill(
    tmp_path, monkeypatch
):
    """The overload act: flood past high-water, die mid-compaction.

    One flow job (the work that *must* survive) rides along while the
    harness floods the daemon 4x past its high-water mark with mixed
    priorities and deadlines: low-priority probes are shed for a
    higher-priority submit, a deadlined probe expires in the queue as a
    structured ``DeadlineExceeded`` without ever claiming a worker, and
    overflow submits bounce with drain-rate ``retry_after`` hints.
    Retention then evicts terminal probes until online compaction kicks
    in -- where an injected ``kind=exit`` kills the daemon mid-compact,
    before the rename.  The restarted daemon must replay the intact
    journal, finish every accepted job, and serve the flow result
    byte-identical to a clean in-process run with zero redundant flow
    executions (cache telemetry proves it).  Metrics stay a valid
    Prometheus exposition throughout, with the shed disposition and the
    worker-pool gauge visible.
    """
    state_dir = tmp_path / "serve"
    served_cache = tmp_path / "cache-served"
    clean_cache = tmp_path / "cache-clean"
    env = daemon_env(
        state_dir,
        REPRO_CACHE_DIR=str(served_cache),
        REPRO_SERVE_WORKERS="1",
        REPRO_SERVE_MAX_WORKERS="2",
        REPRO_SERVE_SCALE_UP_PENDING="2",
        REPRO_SERVE_SCALE_COOLDOWN_S="0.3",
        REPRO_SERVE_IDLE_RETIRE_S="5.0",
        REPRO_SERVE_HEARTBEAT_S="1.0",
        REPRO_SERVE_RESTART_BUDGET="10",
        REPRO_SERVE_JOB_TIMEOUT_S="120",
        REPRO_SERVE_QUEUE_MAX="4",
        REPRO_SERVE_RETAIN_JOBS="4",
        REPRO_SERVE_RETAIN_S="0",
        # High enough that compaction cannot fire before the churn
        # phase deliberately pushes the journal past it.
        REPRO_SERVE_COMPACT_MIN="150",
        REPRO_SERVE_COMPACT_RATIO="0.6",
        REPRO_FAULTS="site=compaction_crash,kind=exit,phase=written,times=1",
        REPRO_FAULTS_STATE=str(tmp_path / "fault-state"),
    )

    # --- incarnation 1: flood, shed, expire, die mid-compaction -------
    proc, client = start_daemon(state_dir, env=env)
    feed1 = _FeedCollector(state_dir / "serve.sock")
    try:
        # The must-survive work first, completed before the storm.
        flow_resp = client.submit(FLOW_SPEC)
        assert flow_resp["ok"]
        flow_id = flow_resp["job_id"]
        flow_view = client.wait(flow_id, timeout_s=120, poll_s=0.2)
        assert flow_view["state"] == "done"
        payload1 = flow_view["result"]["result"]

        # Deadline expiry: saturate the (still small) pool with slow
        # probes, then queue a deadlined probe behind them -- it must
        # fail as DeadlineExceeded in the queue, never claiming a
        # worker.
        for i in range(3):
            client.submit(_probe_spec(f"slow-{i}", seconds=1.0), priority=5)
        dl_resp = client.submit(
            _probe_spec("deadlined", seconds=0.0), priority=8, deadline=0.1
        )
        assert dl_resp["ok"]
        wait_until(
            lambda: client.status(dl_resp["job_id"]).get("state") == "failed",
            timeout_s=30, what="deadlined probe to expire", poll_s=0.1,
        )
        dl_view = client.result(dl_resp["job_id"])
        assert dl_view["error"]["error_type"] == "DeadlineExceeded"

        # Flood 4x past the high-water mark with mixed priorities and
        # deadlines: some get in, the rest bounce with retry hints.
        codes = []
        for i in range(16):
            resp = client.submit(
                _probe_spec(f"flood-{i}", seconds=0.5),
                priority=5,
                deadline=60.0 if i % 3 == 0 else 0.0,
            )
            codes.append(resp.get("code") if not resp["ok"] else "accepted")
            if resp.get("code") == "busy":
                assert resp["retry_after"] > 0
        assert "accepted" in codes
        assert "busy" in codes

        # Priority-aware shedding: keep the backlog full of priority-5
        # probes and push priority-0 submits until one evicts a victim.
        def _shed_count():
            return client.stats()["stats"]["shed"]

        vip = 0
        while _shed_count() == 0:
            assert vip < 40, "priority-0 submits never triggered a shed"
            for j in range(4):
                client.submit(
                    _probe_spec(f"refill-{vip}-{j}", seconds=0.5), priority=5
                )
            client.submit(_probe_spec(f"vip-{vip}"), priority=0)
            vip += 1
        assert _shed_count() >= 1

        # Mid-overload the exposition is still valid Prometheus, with
        # the shed disposition counted and the pool gauge published.
        prom = _scrape_prometheus(env)
        assert validate_prometheus(prom) == []
        assert 'repro_submits_total{disposition="shed"}' in prom
        assert "repro_workers{" in prom
        assert "repro_evictions_total" in prom

        # The adaptive pool grew past its floor under the backlog.
        wait_until(
            lambda: "worker_scale_up" in feed1.lifecycle_actions(),
            timeout_s=30, what="the pool to scale up on the feed",
        )

        # Churn: waves of instant probes push the journal past the
        # compaction threshold; the injected fault kills the daemon
        # mid-compact, before the rename (old journal stays intact).
        wave = 0
        deadline_t = time.monotonic() + 120.0
        while proc.poll() is None:
            assert time.monotonic() < deadline_t, (
                "daemon never reached the injected compaction crash"
            )
            for j in range(8):
                try:
                    client.submit(_probe_spec(f"churn-{wave}-{j}"))
                except Exception:  # noqa: BLE001 -- daemon may die mid-wave
                    break
            wave += 1
            time.sleep(0.2)
        proc.wait(timeout=10)
    finally:
        stop_daemon(proc)
        feed1.stop()

    # The feed streamed the overload coherently before the crash: the
    # shed victim failed with its structured reason, the deadlined
    # probe expired, and retention evictions were announced.
    feed_events = feed1.events
    shed_events = [
        e for e in feed_events
        if e.get("event") == "job_state" and e.get("state") == "failed"
        and e.get("error_type") == "LoadShed"
    ]
    assert shed_events, "shed victim never hit the feed"
    expired_events = [
        e for e in feed_events
        if e.get("event") == "job_state"
        and e.get("error_type") == "DeadlineExceeded"
    ]
    assert expired_events, "deadline expiry never hit the feed"
    evict_events = [
        e for e in feed_events
        if e.get("event") == "job_state" and e.get("state") == "evicted"
    ]
    assert evict_events, "retention evictions never hit the feed"

    # --- incarnation 2: replay the intact journal, finish the work ----
    proc2, client2 = start_daemon(state_dir, env=env)
    try:
        # Everything the first daemon accepted converges to a terminal
        # answer (done, failed, or an evicted tombstone) -- nothing is
        # lost and nothing stays pending forever.
        wait_until(
            lambda: client2.stats()["ok"], timeout_s=30,
            what="restarted daemon to answer stats",
        )
        wait_until(
            lambda: all(
                client2.status(e["job_id"]).get("state")
                in ("done", "failed", "evicted")
                for e in shed_events[:1]
            ),
            timeout_s=30, what="recovered jobs to settle",
        )

        # The flow result survives byte-identical with zero redundant
        # executions: resident results dedup, evicted ones resubmit and
        # load from the content-addressed cache -- either way no flow
        # runs again in this incarnation.
        view2 = client2.run(FLOW_SPEC, timeout_s=120)
        assert view2["state"] == "done"
        payload2 = view2["result"]["result"]
        assert json.dumps(payload2, sort_keys=True) == json.dumps(
            payload1, sort_keys=True
        )
        telemetry = client2.stats()["telemetry"]
        assert telemetry["flows_run"] == 0, (
            "the restarted daemon re-executed a cached flow"
        )

        # Metrics stayed coherent across the crash: a fresh, valid
        # exposition with the worker pool gauge pre-seeded.
        prom2 = _scrape_prometheus(env)
        assert validate_prometheus(prom2) == []
        assert "repro_workers{" in prom2
    finally:
        stop_daemon(proc2)

    # --- clean in-process run: byte-identical flow result -------------
    monkeypatch.setenv("REPRO_CACHE_DIR", str(clean_cache))
    from repro.experiments.runner import run_configuration

    _design, clean_result = run_configuration(
        DESIGN, FLOW_CONFIG, period_ns=PERIOD_NS, scale=SCALE, seed=SEED
    )
    assert json.dumps(payload1, sort_keys=True) == json.dumps(
        clean_result.to_dict(), sort_keys=True
    )
