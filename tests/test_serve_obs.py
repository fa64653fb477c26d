"""Serving observability: event bus, job traces, metrics, top model.

Everything here runs in-process (no daemon subprocess): the bus and
subscriber backpressure contract, the windowed daemon-side telemetry
(the fix for the old grow-forever merge), incremental trace stitching,
the metrics view's Prometheus round-trip, and the order-insensitivity
of the ``repro top`` event fold (hypothesis-checked).
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.registry import MetricsRegistry, validate_prometheus
from repro.obs.trace import Span
from repro.serve.daemon import ServeConfig, ServerCore
from repro.serve.events import EventBus, JobTrace, Subscriber
from repro.serve.topview import TopModel


def _core(tmp_path, **overrides) -> ServerCore:
    overrides.setdefault("state_dir", tmp_path / "serve")
    return ServerCore(ServeConfig.from_env(**overrides))


def _probe(nonce, **extra):
    return {"kind": "probe", "nonce": nonce, **extra}


# ----------------------------------------------------------------------
# EventBus / Subscriber
# ----------------------------------------------------------------------
class TestEventBus:
    def test_publish_stamps_seq_and_ts(self):
        bus = EventBus()
        first = bus.publish("job_state", job_id="j1", state="pending")
        second = bus.publish("lifecycle", action="worker_boot")
        assert first["event"] == "job_state" and first["job_id"] == "j1"
        assert second["seq"] == first["seq"] + 1
        assert first["ts"] > 0

    def test_kind_field_passes_through(self):
        # Job specs carry a `kind` field; the bus parameter must not
        # collide with it.
        bus = EventBus()
        event = bus.publish("job_state", job_id="j1", kind="matrix")
        assert event["kind"] == "matrix"

    def test_backlog_replay_for_late_subscriber(self):
        bus = EventBus(backlog=8)
        for i in range(5):
            bus.publish("job_state", job_id=f"j{i}", state="pending")
        sub = bus.subscribe()
        replayed = list(sub.drain())
        assert [e["job_id"] for e in replayed] == [f"j{i}" for i in range(5)]
        no_replay = bus.subscribe(backlog=False)
        assert list(no_replay.drain()) == []

    def test_job_filter_admits_daemon_wide_events(self):
        bus = EventBus()
        sub = bus.subscribe(job_id="j1", backlog=False)
        bus.publish("job_state", job_id="j1", state="running")
        bus.publish("job_state", job_id="j2", state="running")
        bus.publish("lifecycle", action="drain_begin")
        events = list(sub.drain())
        assert [e["event"] for e in events] == ["job_state", "lifecycle"]
        assert events[0]["job_id"] == "j1"

    def test_slow_subscriber_drops_and_counts(self):
        bus = EventBus(queue_max=4)
        slow = bus.subscribe(backlog=False)
        for i in range(20):
            bus.publish("job_state", job_id=f"j{i}", state="pending")
        assert slow.dropped == 16
        assert bus.dropped_total() == 16
        # the gap is surfaced before any post-gap event
        first = slow.get(timeout_s=0)
        assert first == {"event": "feed_gap", "dropped": 16}
        assert slow.get(timeout_s=0)["job_id"] == "j0"

    def test_publish_never_blocks_on_slow_subscriber(self):
        bus = EventBus(queue_max=2)
        bus.subscribe(backlog=False)  # never read: permanently full
        fast = bus.subscribe(backlog=False)
        received: list[dict] = []
        done = threading.Event()

        def reader():
            while True:
                event = fast.get(timeout_s=2.0)
                if event is None:
                    break
                if event["event"] == "feed_gap":
                    continue
                received.append(event)
                if len(received) == 500:
                    break
            done.set()

        thread = threading.Thread(target=reader)
        thread.start()
        start = time.monotonic()
        for i in range(500):
            bus.publish("job_state", job_id=f"j{i}", state="pending")
        publish_s = time.monotonic() - start
        assert done.wait(5.0)
        thread.join(5.0)
        # publishing 500 events past a wedged subscriber stays fast
        assert publish_s < 2.0
        # fast subscriber may drop under its own bound but never stalls
        assert len(received) + fast.dropped >= 500 - 2

    def test_close_wakes_blocked_reader(self):
        bus = EventBus()
        sub = bus.subscribe()
        got: list = []

        def reader():
            got.append(sub.get(timeout_s=10.0))

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        bus.close()
        thread.join(2.0)
        assert not thread.is_alive()
        assert got == [None]
        # a closed bus swallows publishes instead of erroring
        bus.publish("job_state", job_id="x", state="pending")

    def test_multi_client_fanout_under_load(self):
        bus = EventBus(queue_max=4096)
        subs = [bus.subscribe(backlog=False) for _ in range(4)]
        results: dict[int, list] = {i: [] for i in range(len(subs))}

        def reader(i: int, sub: Subscriber):
            while True:
                event = sub.get(timeout_s=2.0)
                if event is None or event.get("job_id") == "end":
                    break
                results[i].append(event["seq"])

        threads = [
            threading.Thread(target=reader, args=(i, sub))
            for i, sub in enumerate(subs)
        ]
        for t in threads:
            t.start()
        for i in range(300):
            bus.publish("job_state", job_id=f"j{i}", state="pending")
        bus.publish("job_state", job_id="end")
        for t in threads:
            t.join(5.0)
        for i in range(len(subs)):
            assert results[i] == sorted(results[i])
            assert len(results[i]) == 300


# ----------------------------------------------------------------------
# JobTrace stitching
# ----------------------------------------------------------------------
def _stage(name: str, start: float, dur: float) -> dict:
    sp = Span(name, {"design": "aes"})
    sp.start_wall_s = 100.0 + start
    sp._start_perf = start
    sp.duration_s = dur
    return sp.to_dict()


class TestJobTrace:
    def test_midrun_roots_synthesize_open_parent(self):
        trace = JobTrace("j1", "flow")
        trace.note_root(
            {"name": "flow", "attrs": {"design": "aes"},
             "start_wall_s": 100.0, "start_perf_s": 0.0}
        )
        trace.add_stage(_stage("synthesis", 0.0, 1.0))
        trace.add_stage(_stage("placement", 1.0, 2.0))
        roots = trace.roots()
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "flow" and root["status"] == "open"
        assert [c["name"] for c in root["children"]] == [
            "synthesis", "placement",
        ]
        assert root["duration_s"] == pytest.approx(3.0)
        assert trace.stage_count() == 2

    def test_midrun_tree_is_a_valid_chrome_trace(self):
        trace = JobTrace("j1", "flow")
        trace.add_stage(_stage("synthesis", 0.0, 1.0))
        spans = [Span.from_dict(d) for d in trace.roots()]
        assert validate_chrome_trace(to_chrome_trace(spans)) == []

    def test_final_snapshot_wins(self):
        trace = JobTrace("j1", "flow")
        trace.add_stage(_stage("synthesis", 0.0, 1.0))
        final_root = Span("flow", {"design": "aes"})
        final_root.duration_s = 9.0
        final_root.status = "ok"
        trace.set_final([final_root.to_dict()])
        roots = trace.roots()
        assert roots[0]["duration_s"] == 9.0
        assert roots[0]["status"] != "open"

    def test_unnamed_job_gets_kind_placeholder(self):
        trace = JobTrace("j9", "matrix")
        trace.add_stage(_stage("flow", 0.5, 1.0))
        root = trace.roots()[0]
        assert root["name"] == "job:matrix"
        assert root["attrs"]["job_id"] == "j9"
        assert root["start_wall_s"] == pytest.approx(100.5)


# ----------------------------------------------------------------------
# ServerCore observability
# ----------------------------------------------------------------------
class TestCoreObservability:
    def test_submit_claim_finish_publishes_job_states(self, tmp_path):
        core = _core(tmp_path)
        sub = core.bus.subscribe()
        job_id = core.submit(_probe("a"))["job_id"]
        core.claim_job("w0")
        core.finish_job(job_id, {"echo": 1})
        states = [
            e["state"] for e in sub.drain() if e["event"] == "job_state"
        ]
        assert states == ["pending", "running", "done"]
        core.close()

    def test_metrics_view_round_trips_prometheus(self, tmp_path):
        core = _core(tmp_path)
        job_id = core.submit(_probe("a"))["job_id"]
        core.claim_job("w0")
        core.finish_job(job_id, {"echo": 1})
        core.submit(_probe("a"))  # dedup disposition
        view = core.metrics_view()
        assert view["ok"]
        from repro.obs.registry import render_prometheus

        text = render_prometheus(view["metrics"])
        assert validate_prometheus(text) == []
        assert 'repro_submits_total{disposition="accepted"} 1' in text
        assert 'repro_submits_total{disposition="deduped"} 1' in text
        assert 'repro_jobs_total{state="done"} 1' in text
        assert "repro_job_wait_seconds_count 1" in text
        assert "repro_job_run_seconds_count 1" in text
        assert "repro_journal_fsync_seconds_count" in text
        assert "repro_queue_depth 0" in text
        core.close()

    def test_note_progress_feeds_trace_and_stage_seconds(self, tmp_path):
        core = _core(tmp_path)
        sub = core.bus.subscribe()
        job_id = core.submit(_probe("a"))["job_id"]
        core.claim_job("w0")
        core.note_progress(
            job_id,
            {"phase": "open", "name": "flow", "depth": 0,
             "start_wall_s": 100.0, "start_perf_s": 0.0, "attrs": {}},
            worker="w0",
        )
        core.note_progress(
            job_id,
            {"phase": "close", "name": "synthesis", "depth": 1,
             "duration_s": 1.5, "status": "ok",
             "tree": _stage("synthesis", 0.0, 1.5)},
            worker="w0",
        )
        view = core.trace_view(job_id)
        assert view["ok"] and view["stages"] == 1
        assert view["trace"][0]["name"] == "flow"
        events = [e["event"] for e in sub.drain()]
        assert "span_open" in events and "span_close" in events
        text = core.registry.to_prometheus()
        assert 'repro_stage_seconds_total{stage="synthesis"} 1.5' in text
        core.close()

    def test_trace_view_unknown_job(self, tmp_path):
        core = _core(tmp_path)
        view = core.trace_view("nope")
        assert not view["ok"] and view["code"] == "unknown_job"
        core.close()

    def test_trace_retention_is_bounded(self, tmp_path):
        core = _core(tmp_path, trace_keep=2)
        ids = []
        for i in range(4):
            job_id = core.submit(_probe(str(i)))["job_id"]
            ids.append(job_id)
            core.claim_job("w0")
            core.note_progress(
                job_id,
                {"phase": "close", "name": "probe", "depth": 1,
                 "duration_s": 0.1, "status": "ok",
                 "tree": _stage("probe", 0.0, 0.1)},
            )
            core.finish_job(job_id, {})
        assert len(core._traces) == 2
        assert core.trace_view(ids[0])["stages"] == 0  # evicted
        assert core.trace_view(ids[-1])["stages"] == 1
        core.close()

    def test_lifecycle_counts_restarts(self, tmp_path):
        core = _core(tmp_path)
        sub = core.bus.subscribe()
        core.lifecycle("worker_boot", worker="w0")
        core.lifecycle("worker_restart", worker="w0", reason="crash")
        core.lifecycle("worker_restart", worker="w1", reason="stale")
        events = [e for e in sub.drain() if e["event"] == "lifecycle"]
        assert [e["action"] for e in events] == [
            "worker_boot", "worker_restart", "worker_restart",
        ]
        assert "repro_worker_restarts_total 2" in (
            core.registry.to_prometheus()
        )
        core.close()

    def test_feed_snapshot_filters_by_job(self, tmp_path):
        core = _core(tmp_path)
        a = core.submit(_probe("a"))["job_id"]
        core.submit(_probe("b"))
        snap = core.feed_snapshot()
        assert len(snap["jobs"]) == 2
        only_a = core.feed_snapshot(a)
        assert list(only_a["jobs"]) == [a]
        core.close()


def _flows(flows_run: int) -> dict:
    """A finished job's registry snapshot that counted ``flows_run``."""
    registry = MetricsRegistry()
    registry.counter("repro_flows_run_total").inc(flows_run)
    return registry.snapshot()


class TestWindowedTelemetry:
    """Regression: daemon-side telemetry no longer grows without bound.

    The old core merged every finished job's telemetry into the
    process's counters forever; now registry snapshots live in a
    timestamped window and ``stats`` reports only what fits in it.
    """

    def test_stats_telemetry_reflects_finished_jobs(self, tmp_path):
        core = _core(tmp_path)
        job_id = core.submit(_probe("a"))["job_id"]
        core.claim_job("w0")
        core.finish_job(
            job_id, {}, telemetry=_flows(3)
        )
        telemetry = core.stats_view()["telemetry"]
        assert telemetry["flows_run"] == 3
        core.close()

    def test_old_entries_age_out_of_the_window(self, tmp_path):
        core = _core(tmp_path, telemetry_window_s=0.2)
        job_id = core.submit(_probe("a"))["job_id"]
        core.claim_job("w0")
        core.finish_job(
            job_id, {}, telemetry=_flows(1)
        )
        assert core.stats_view()["telemetry"]["flows_run"] == 1
        time.sleep(0.3)
        aged = core.stats_view()["telemetry"]
        assert aged["flows_run"] == 0
        assert len(core._telemetry_window) == 0
        core.close()

    def test_window_is_bounded_not_cumulative(self, tmp_path):
        core = _core(tmp_path, telemetry_window_s=0.15)
        for i in range(3):
            job_id = core.submit(_probe(str(i)))["job_id"]
            core.claim_job("w0")
            core.finish_job(
                job_id, {}, telemetry=_flows(1)
            )
            time.sleep(0.06)
        # at most the window's worth of snapshots is ever merged
        merged = core.stats_view()["telemetry"]["flows_run"]
        assert merged < 3
        core.close()

    def test_global_telemetry_not_polluted(self, tmp_path):
        from repro.experiments.telemetry import get_telemetry

        before = get_telemetry().snapshot()["flows_run"]
        core = _core(tmp_path)
        job_id = core.submit(_probe("a"))["job_id"]
        core.claim_job("w0")
        core.finish_job(
            job_id, {}, telemetry=_flows(5)
        )
        after = get_telemetry().snapshot()["flows_run"]
        assert after == before
        core.close()

    def test_metrics_event_leaves_the_window_alone(
        self, tmp_path, monkeypatch
    ):
        """The ticker's ``metrics`` event reads the registry: it neither
        merges nor prunes the telemetry window."""
        core = _core(tmp_path, telemetry_window_s=0.05)
        sub = core.bus.subscribe()
        job_id = core.submit(_probe("a"))["job_id"]
        core.claim_job("w0")
        core.finish_job(job_id, {}, telemetry=_flows(2))
        core.submit(_probe("b"))
        time.sleep(0.1)  # aged out: a stats read would prune it now
        window = list(core._telemetry_window)

        def merged():
            raise AssertionError("the metrics event merged the window")

        monkeypatch.setattr(core, "_windowed_telemetry", merged)
        core.publish_metrics()
        assert list(core._telemetry_window) == window and len(window) == 1
        event = [e for e in sub.drain() if e["event"] == "metrics"][-1]
        assert {k: event[k] for k in (
            "pending", "running", "jobs", "completed", "failed",
            "worker_respawns", "feed_dropped",
        )} == {
            "pending": 1, "running": 0, "jobs": 2, "completed": 1,
            "failed": 0, "worker_respawns": 0, "feed_dropped": 0,
        }
        core.close()


# ----------------------------------------------------------------------
# stats op == metrics op
# ----------------------------------------------------------------------
#: Where each ``stats`` counter appears in the ``metrics`` exposition.
STATS_SAMPLES = {
    "submitted": ("repro_submits_total", {"disposition": "accepted"}),
    "deduped": ("repro_submits_total", {"disposition": "deduped"}),
    "completed": ("repro_jobs_total", {"state": "done"}),
    "failed": ("repro_jobs_total", {"state": "failed"}),
    "requeued": ("repro_jobs_total", {"state": "requeued"}),
    "recovered": ("repro_jobs_total", {"state": "recovered"}),
    "busy_rejected": ("repro_submits_total", {"disposition": "busy"}),
    "draining_rejected": ("repro_submits_total", {"disposition": "draining"}),
    "disk_rejected": ("repro_submits_total", {"disposition": "disk_pressure"}),
    "shed": ("repro_submits_total", {"disposition": "shed"}),
    "expired": ("repro_jobs_total", {"state": "expired"}),
    "evicted": ("repro_jobs_total", {"state": "evicted"}),
    "compactions": ("repro_compactions_total", {}),
    "worker_respawns": ("repro_worker_restarts_total", {}),
    "hangs_detected": ("repro_worker_hangs_total", {}),
}


class TestStatsAgreeWithMetrics:
    def test_every_counted_transition(self, tmp_path, monkeypatch):
        from repro.experiments import faults

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.reset_fault_state()
        knobs = dict(
            queue_max=2, retain_jobs=1, retain_s=0.0, compact_min=5,
            compact_ratio=0.99, min_free_mb=64.0,
        )
        # recovery: a claimed, unfinished job in the journal
        first = _core(tmp_path, **knobs)
        first.submit(_probe("recovered"))
        first.claim_job("w0")
        first.close()
        core = _core(tmp_path, **knobs)
        recovered = core.claim_job("w0")
        core.finish_job(recovered.job_id, {})  # done
        # accept, dedup, done
        a = core.submit(_probe("a"))["job_id"]
        assert core.submit(_probe("a"))["deduped"]
        core.claim_job("w0")
        core.finish_job(a, {})
        # fail
        b = core.submit(_probe("b"))["job_id"]
        core.claim_job("w0")
        core.fail_job(b, {"error_type": "Boom", "kind": "deterministic"})
        # requeue (the job stays pending)
        c = core.submit(_probe("c"))["job_id"]
        core.claim_job("w0")
        core.requeue_job(c, "worker died")
        # expiry
        core.submit(_probe("late"), deadline=0.01)
        time.sleep(0.05)
        assert core.expire_deadlines() == 1
        # busy, then shed: the queue holds c and a priority-5 job
        core.submit(_probe("low"), priority=5)
        assert core.submit(_probe("busy"), priority=5)["code"] == "busy"
        assert core.submit(_probe("urgent"), priority=1)["ok"]  # sheds low
        # disk pressure
        monkeypatch.setenv("REPRO_FAULTS", "site=disk_full,kind=raise,times=0")
        faults.reset_fault_state()
        assert core.check_disk() is True
        assert core.submit(_probe("disk"))["code"] == "disk_pressure"
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_fault_state()
        assert core.check_disk() is False
        # eviction, compaction
        assert core.enforce_retention() == 4
        assert core.maybe_compact() is True
        # a worker restart, then a hang
        core.lifecycle("worker_restart", worker="w1", reason="crash")
        core.lifecycle("worker_restart", worker="w2", reason="hung", hang=True)
        # draining
        core.start_drain()
        assert core.submit(_probe("drain"))["code"] == "draining"

        stats = core.stats_view()["stats"]
        samples = {
            (family["name"], json.dumps(sample["labels"], sort_keys=True)):
                sample["value"]
            for family in core.metrics_view()["metrics"]["families"]
            for sample in family["samples"]
            if "value" in sample
        }
        assert list(stats) == [*STATS_SAMPLES, "uptime_s"]
        for key, (family, labels) in STATS_SAMPLES.items():
            sample = samples[(family, json.dumps(labels, sort_keys=True))]
            assert type(stats[key]) is int
            assert stats[key] == sample, key
        assert stats["worker_respawns"] == 2 and stats["hangs_detected"] == 1
        assert stats["completed"] == 2 and stats["evicted"] == 4
        assert all(
            stats[key] == 1 for key in STATS_SAMPLES
            if key not in ("submitted", "completed", "evicted",
                           "worker_respawns")
        )
        assert stats["submitted"] == 6
        core.close()


# ----------------------------------------------------------------------
# TopModel: the repro top fold
# ----------------------------------------------------------------------
def _feed(job_ids: list[str]) -> list[dict]:
    """A plausible feed: per-job pending->running->stage->terminal."""
    events: list[dict] = []
    seq = 0

    def emit(event_kind: str, **fields):
        nonlocal seq
        seq += 1
        events.append(
            {"event": event_kind, "seq": seq, "ts": float(seq), **fields}
        )

    emit("lifecycle", action="worker_boot", worker="w0")
    for i, job_id in enumerate(job_ids):
        emit("job_state", job_id=job_id, state="pending", kind="flow")
        emit("job_state", job_id=job_id, state="running", kind="flow",
             worker=f"w{i % 2}", attempt=1)
        emit("span_open", job_id=job_id, name="synthesis", depth=1,
             worker=f"w{i % 2}", attrs={})
        emit("span_close", job_id=job_id, name="synthesis", depth=1,
             worker=f"w{i % 2}", duration_s=0.25, status="ok")
        if i % 3 == 2:
            emit("job_state", job_id=job_id, state="failed", kind="flow",
                 error_type="FlowError")
        else:
            emit("job_state", job_id=job_id, state="done", kind="flow")
    emit("metrics", pending=0, running=0, completed=2, failed=1,
         worker_respawns=0, feed_dropped=0)
    return events


class TestTopModel:
    def test_fold_reaches_terminal_state(self):
        model = TopModel()
        model.apply_snapshot({"snapshot": {"jobs": {}, "draining": False}})
        for event in _feed(["j1", "j2", "j3"]):
            model.apply(event)
        assert model.job_state("j1") == "done"
        assert model.job_state("j3") == "failed"
        assert model.counts() == {"done": 2, "failed": 1}
        assert model.jobs["j1"]["stages_done"] == 1
        rendered = model.render()
        assert "done=2" in rendered and "failed=1" in rendered
        assert "!FlowError" in rendered

    def test_snapshot_seeds_but_events_win(self):
        model = TopModel()
        model.apply(
            {"event": "job_state", "seq": 5, "ts": 1.0, "job_id": "j1",
             "state": "done", "kind": "flow"}
        )
        model.apply_snapshot(
            {"snapshot": {"jobs": {
                "j1": {"state": "running", "kind": "flow"},
                "j2": {"state": "pending", "kind": "sweep"},
            }}}
        )
        assert model.job_state("j1") == "done"  # event beat snapshot
        assert model.job_state("j2") == "pending"

    def test_replay_duplicates_are_idempotent(self):
        events = _feed(["j1", "j2"])
        model = TopModel()
        for event in events + events:  # reconnect replays the backlog
            model.apply(event)
        assert model.jobs["j1"]["stages_done"] == 1
        assert model.lifecycle_counts == {"worker_boot": 1}

    def test_feed_gap_accumulates(self):
        model = TopModel()
        model.apply({"event": "feed_gap", "dropped": 3})
        model.apply({"event": "feed_gap", "dropped": 2})
        assert model.dropped == 5
        assert "5 event(s) lost" in model.render()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_interleaving_converges(self, data):
        """The acceptance property: every interleaving of the feed's
        events folds to the same final dashboard state."""
        n_jobs = data.draw(st.integers(min_value=1, max_value=4))
        events = _feed([f"j{i}" for i in range(n_jobs)])
        shuffled = data.draw(st.permutations(events))
        expected = TopModel()
        for event in events:
            expected.apply(event)
        model = TopModel()
        for event in shuffled:
            model.apply(event)
        assert model.jobs == expected.jobs
        assert model.counts() == expected.counts()
        assert model.lifecycle_counts == expected.lifecycle_counts
        assert model.metrics == expected.metrics
        assert model.render() == expected.render()


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCliWiring:
    def test_new_commands_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["metrics", "--json"])
        assert args.json and args.func.__name__ == "_cmd_metrics"
        args = parser.parse_args(["top", "--once", "--interval", "0.5"])
        assert args.once and args.interval == 0.5
        args = parser.parse_args(["watch", "j1", "--timeout", "5"])
        assert args.job_id == "j1" and args.timeout == 5.0
        args = parser.parse_args(["result", "j1", "--trace", "out.json"])
        # dest is job_trace so main()'s process-level --trace hook
        # (which records and exports this process's spans) stays off
        assert args.job_trace == "out.json"
        assert getattr(args, "trace", None) is None

    def test_load_traces_aggregates_a_directory(self, tmp_path):
        from repro.obs.export import (
            load_traces,
            profile_summary,
            write_chrome_trace,
            write_jsonl,
        )

        a = Span("flow", {"design": "aes"})
        a.duration_s = 1.0
        b = Span("flow", {"design": "b14"})
        b.duration_s = 2.0
        write_chrome_trace(tmp_path / "job1.json", [a])
        write_jsonl(tmp_path / "job2.jsonl", [b])
        (tmp_path / "journal.wal").write_text("not a trace\n")
        (tmp_path / "result.json").write_text(json.dumps({"ok": True}))
        roots = load_traces(tmp_path)
        assert len(roots) == 2
        assert {r.name for r in roots} == {"flow"}
        table = profile_summary(roots, top=3)
        assert "flow" in table

    def test_load_traces_raises_when_nothing_loads(self, tmp_path):
        from repro.obs.export import load_traces

        empty = tmp_path / "only_garbage"
        empty.mkdir()
        (empty / "bad.json").write_text("{nope")
        with pytest.raises(ValueError):
            load_traces(empty)
