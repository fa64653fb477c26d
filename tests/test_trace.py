"""Tests for the observability subsystem (repro.obs).

Covers the span tracer's contract (nesting, no-op fast path, crash
truncation), the QoR metric registry, the exporters (Chrome trace-event
JSON, JSONL, ASCII views), the derivation of ``stage_seconds`` from
spans, cross-process stitching through the parallel matrix engine, and
the truncated-but-valid trace a quarantined cell leaves behind.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import faults
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import clear_memory_caches, run_matrix
from repro.experiments.telemetry import (
    get_telemetry,
    reset_telemetry,
    timed_stage,
)
from repro.obs import (
    METRIC_DEFS,
    MetricPoint,
    Span,
    attach_subtree,
    coverage_fraction,
    current_span,
    emit_metric,
    find_spans,
    span,
    trace,
    trace_roots,
    trace_snapshot,
    walk_spans,
)
from repro.obs.export import (
    load_trace,
    profile_summary,
    to_chrome_trace,
    tree_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

#: Zero-backoff policy so matrix tests never sleep.
FAST = RetryPolicy(max_retries=2, backoff_s=0.0, keep_going=True)


@pytest.fixture(autouse=True)
def clean_trace(monkeypatch):
    """Every test starts and ends with tracing off and no spans."""
    monkeypatch.delenv(trace.ENV_TRACE, raising=False)
    trace.reset_trace()
    trace.disable_tracing()
    yield
    trace.reset_trace()
    trace.disable_tracing()


@pytest.fixture
def tracing_on():
    trace.enable_tracing()
    yield
    trace.disable_tracing()


@pytest.fixture
def fresh_engine(monkeypatch, tmp_path):
    """Cold caches, private cache/fault-state dirs, zeroed telemetry."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path / "fault-state"))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset_fault_state()
    clear_memory_caches()
    reset_telemetry()
    yield
    faults.reset_fault_state()
    clear_memory_caches()
    reset_telemetry()


def _sample_tree() -> list[Span]:
    """A small deterministic span forest used by the exporter tests."""
    with span("flow", design="aes", config="3D_HET") as flow:
        with span("placement") as sp:
            sp.add_event("congestion_retry", attempt=0, peak=1.2)
            emit_metric("utilization", 0.82)
        with span("sta"):
            emit_metric("wns_ns", -0.05)
            emit_metric("tier_cells", 120, tier=1)
    assert flow.status == "ok"
    return trace_roots()


# ----------------------------------------------------------------------
# span mechanics
# ----------------------------------------------------------------------
class TestSpanBasics:
    def test_nesting_builds_a_tree(self, tracing_on):
        with span("a"):
            with span("b"):
                with span("c"):
                    pass
            with span("b2"):
                pass
        roots = trace_roots()
        assert [r.name for r in roots] == ["a"]
        assert [c.name for c in roots[0].children] == ["b", "b2"]
        assert [c.name for c in roots[0].children[0].children] == ["c"]

    def test_durations_are_positive_and_nested(self, tracing_on):
        with span("outer") as outer:
            with span("inner") as inner:
                sum(range(1000))
        assert outer.duration_s > 0.0
        assert inner.duration_s <= outer.duration_s
        assert outer.self_s >= 0.0

    def test_disabled_returns_shared_noop(self):
        assert not trace.tracing_enabled()
        a = span("x", attr=1)
        b = span("y")
        assert a is b  # the shared singleton: no allocation when off
        assert not a.is_recording
        with a as sp:
            sp.set_attr(k=1)
            sp.add_event("e")
        assert trace_roots() == []
        assert current_span() is None

    def test_exception_marks_error_and_keeps_tree(self, tracing_on):
        with pytest.raises(ValueError):
            with span("flow"):
                with span("placement"):
                    pass
                with span("cts"):
                    raise ValueError("no sinks")
        roots = trace_roots()
        assert len(roots) == 1
        flow = roots[0]
        assert flow.status == "error"
        cts = flow.children[1]
        assert cts.status == "error"
        events = [e for e in cts.events if e["name"] == "exception"]
        assert events and events[0]["type"] == "ValueError"
        assert "no sinks" in events[0]["message"]
        # The healthy sibling is untouched.
        assert flow.children[0].status == "ok"

    def test_attach_on_entry_truncated_tree_is_valid(self, tracing_on):
        # Simulate a killed process: a span entered but never exited.
        open_span = Span("flow")
        open_span.__enter__()
        snapshot = trace_snapshot()
        assert snapshot[0]["name"] == "flow"
        assert snapshot[0]["status"] == "open"
        open_span.__exit__(None, None, None)

    def test_env_init(self, monkeypatch):
        monkeypatch.setenv(trace.ENV_TRACE, "1")
        assert trace.init_from_env() is True
        for falsy in ("", "0", "false", "off", "no"):
            monkeypatch.setenv(trace.ENV_TRACE, falsy)
            assert trace.init_from_env() is False

    def test_add_span_event_reports_attachment(self, tracing_on):
        assert trace.add_span_event("orphan") is False
        with span("s") as sp:
            assert trace.add_span_event("hit", n=1) is True
        assert sp.events == [{"name": "hit", "n": 1}]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_emit_requires_active_span(self, tracing_on):
        assert emit_metric("wns_ns", -0.1) is None  # no span open
        with span("sta"):
            point = emit_metric("wns_ns", -0.1)
        assert point is not None
        assert point.unit == "ns"
        assert point.table  # registry fills the paper table in

    def test_registry_defaults_and_overrides(self, tracing_on):
        with span("s") as sp:
            emit_metric("hpwl_mm", 1.5)
            emit_metric("hpwl_mm", 2.5, unit="cm", table="nowhere")
            emit_metric("unregistered_thing", 1.0)
        assert sp.metrics[0].unit == "mm"
        assert sp.metrics[1].unit == "cm"
        assert sp.metrics[1].table == "nowhere"
        assert sp.metrics[2].unit == ""

    def test_callable_value_runs_only_when_recorded(self, tracing_on):
        calls = []

        def walk() -> float:
            calls.append(None)
            return 3.5

        assert emit_metric("hpwl_mm", walk) is None  # no span open
        with span("s") as sp:
            emit_metric("hpwl_mm", walk)
        assert len(calls) == 1
        assert sp.metrics[0].value == 3.5

    def test_tier_scoped_label(self):
        point = MetricPoint(name="tier_cells", value=42, unit="count", tier=1)
        assert point.label() == "tier_cells[t1]=42"

    def test_noop_when_disabled(self):
        assert emit_metric("wns_ns", -0.1) is None

    def test_registry_covers_the_paper_surfaces(self):
        # Spot-check the stage-metric -> paper-table mapping is present.
        for name in ("wns_ns", "miv_count", "clock_skew_ns",
                     "eco_cells_moved", "pinned_cells", "die_cost_1e6"):
            assert name in METRIC_DEFS
            assert METRIC_DEFS[name].table

    def test_roundtrip(self):
        point = MetricPoint(name="wns_ns", value=-0.25, unit="ns",
                            table="Table VI", tier=0)
        assert MetricPoint.from_dict(point.to_dict()) == point


# ----------------------------------------------------------------------
# timed_stage derives stage_seconds from the span (no double-booking)
# ----------------------------------------------------------------------
class TestTimedStage:
    def test_stage_seconds_equal_span_duration(self, tracing_on):
        reset_telemetry()
        with timed_stage("flow", design="aes") as sp:
            sum(range(10000))
        assert sp.is_recording
        recorded = get_telemetry().stage_seconds["flow"]
        assert recorded == sp.duration_s  # the same measurement, exactly
        assert trace_roots()[0].attrs["design"] == "aes"

    def test_works_with_tracing_off(self):
        reset_telemetry()
        with timed_stage("flow"):
            sum(range(10000))
        assert get_telemetry().stage_seconds["flow"] > 0.0
        assert trace_roots() == []


# ----------------------------------------------------------------------
# serialization and determinism
# ----------------------------------------------------------------------
class TestSerialization:
    def test_dict_roundtrip(self, tracing_on):
        roots = _sample_tree()
        rebuilt = Span.from_dict(roots[0].to_dict())
        assert rebuilt.to_dict() == roots[0].to_dict()
        assert rebuilt.children[1].metrics[1].tier == 1

    def test_deterministic_modulo_timestamps(self, tracing_on):
        first = [r.to_dict(strip_times=True) for r in _sample_tree()]
        trace.reset_trace()
        second = [r.to_dict(strip_times=True) for r in _sample_tree()]
        assert first == second

    def test_snapshot_and_stitch(self, tracing_on):
        worker_trees = [t for t in (_sample_tree(),)][0]
        snapshot = [r.to_dict() for r in worker_trees]
        trace.reset_trace()
        trace.enable_tracing()
        with span("matrix") as matrix:
            attached = attach_subtree(snapshot, worker="w1")
        assert [a.name for a in attached] == ["flow"]
        assert matrix.children[0].attrs["worker"] == "w1"
        # The stitched subtree is deep-rebuilt, not shared.
        assert matrix.children[0].children[0].name == "placement"

    def test_stitch_is_noop_when_disabled(self):
        assert attach_subtree([{"name": "x"}]) == []
        assert trace_roots() == []


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_valid_and_loadable(self, tracing_on, tmp_path):
        roots = _sample_tree()
        path = write_chrome_trace(tmp_path / "t.json", roots)
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []
        names = [e["name"] for e in obj["traceEvents"] if e.get("ph") == "X"]
        assert set(names) == {"flow", "placement", "sta"}
        # Events ride along: the retry is an instant event.
        instants = [e for e in obj["traceEvents"] if e.get("ph") == "i"]
        assert any(e["name"] == "congestion_retry" for e in instants)
        # Metrics are attached to the X event's args.
        sta = next(e for e in obj["traceEvents"]
                   if e.get("ph") == "X" and e["name"] == "sta")
        assert {m["name"] for m in sta["args"]["metrics"]} == {
            "wns_ns", "tier_cells"
        }

    def test_rejects_malformed(self):
        assert validate_chrome_trace({"no": "events"})
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x"}]}
        )
        bad_dur = {"traceEvents": [
            {"ph": "X", "name": "x", "ts": 0, "dur": -5, "pid": 1, "tid": 1}
        ]}
        assert any("dur" in p for p in validate_chrome_trace(bad_dur))

    def test_roundtrip_through_file(self, tracing_on, tmp_path):
        roots = _sample_tree()
        path = write_chrome_trace(tmp_path / "t.json", roots)
        loaded = load_trace(path)
        assert [r.name for r in loaded] == ["flow"]
        assert [c.name for c in loaded[0].children] == ["placement", "sta"]

    def test_worker_subtrees_get_their_own_thread_row(self, tracing_on):
        snapshot = [r.to_dict() for r in _sample_tree()]
        trace.reset_trace()
        trace.enable_tracing()
        with span("matrix"):
            attach_subtree(snapshot, worker="aes:2D_12T")
        obj = to_chrome_trace(trace_roots())
        tids = {e["tid"] for e in obj["traceEvents"] if e.get("ph") == "X"}
        assert len(tids) == 2  # the matrix row plus the worker's own row


class TestJsonlExport:
    def test_roundtrip(self, tracing_on, tmp_path):
        roots = _sample_tree()
        path = write_jsonl(tmp_path / "t.jsonl", roots)
        loaded = load_trace(path)
        assert [r.name for r in loaded] == ["flow"]
        sta = loaded[0].children[1]
        assert {m.name for m in sta.metrics} == {"wns_ns", "tier_cells"}
        records = [json.loads(line)
                   for line in path.read_text().splitlines() if line]
        assert records[0]["parent"] is None
        assert all(r["parent"] == 0 for r in records[1:])


class TestAsciiViews:
    def test_tree_summary_shows_metrics_and_events(self, tracing_on):
        text = tree_summary(_sample_tree())
        assert "flow" in text and "placement" in text
        assert "wns_ns=-0.05 ns" in text
        assert "congestion_retry" in text

    def test_profile_ranks_by_self_time(self, tracing_on):
        roots = _sample_tree()
        text = profile_summary(roots, top=2)
        lines = text.splitlines()
        assert lines[0].startswith("stage")
        assert len(lines) >= 3  # header + 2 rows + total

    def test_coverage_fraction(self, tracing_on):
        roots = _sample_tree()
        assert 0.0 <= coverage_fraction(roots[0]) <= 1.0
        empty = Span("leaf")
        assert coverage_fraction(empty) == 1.0  # zero-duration: vacuous


# ----------------------------------------------------------------------
# engine integration: stitching, quarantine, warm-run regression
# ----------------------------------------------------------------------
class TestMatrixIntegration:
    CONFIGS = ("2D_12T", "3D_9T")

    def _run(self, seed, jobs):
        return run_matrix(
            designs=("aes",), config_names=self.CONFIGS, scale=0.2,
            seed=seed, target_periods={"aes": 0.9}, jobs=jobs, policy=FAST,
        )

    def test_cross_process_stitching(self, fresh_engine, monkeypatch):
        monkeypatch.setenv(trace.ENV_TRACE, "1")
        trace.init_from_env()
        matrix = self._run(seed=210, jobs=2)
        assert matrix.ok
        roots = trace_roots()
        matrix_spans = find_spans("matrix", roots)
        assert len(matrix_spans) == 1
        flows = find_spans("flow", roots)
        assert len(flows) == len(self.CONFIGS)
        # Every flow subtree came from a worker and stayed attributable.
        workers = {sp.attrs.get("worker") for sp in flows}
        assert workers == {"aes:2D_12T", "aes:3D_9T"}
        # The stitched subtrees carry real stage spans and metrics.
        for flow in flows:
            assert find_spans("placement", [flow])
            assert any(sp.metrics for sp in walk_spans([flow]))
        assert validate_chrome_trace(to_chrome_trace(roots)) == []

    def test_quarantined_cell_leaves_truncated_valid_trace(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv(trace.ENV_TRACE, "1")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=cell,design=aes,config=3D_9T,kind=raise,times=0",
        )
        faults.reset_fault_state()
        trace.init_from_env()
        matrix = self._run(seed=211, jobs=1)
        assert set(matrix.failed) == {("aes", "3D_9T")}
        roots = trace_roots()
        matrix_span = find_spans("matrix", roots)[0]
        # The failure is a first-class span event on the matrix span.
        quarantines = [e for e in matrix_span.events
                       if e["name"] == "quarantined"]
        assert len(quarantines) == 1
        assert quarantines[0]["config"] == "3D_9T"
        assert "FaultInjected" in quarantines[0]["error"]
        # The failing cell's flow span is truncated but marked, and the
        # whole trace still validates as a Chrome trace.
        flows = find_spans("flow", roots)
        statuses = {sp.attrs.get("config"): sp.status for sp in flows}
        assert statuses["3D_9T"] == "error"
        assert statuses["2D_12T"] == "ok"
        assert validate_chrome_trace(to_chrome_trace(roots)) == []

    def test_fully_warm_matrix_emits_zero_flow_spans(
        self, fresh_engine, monkeypatch
    ):
        # Cold run (untraced) populates the on-disk cache.
        matrix = self._run(seed=212, jobs=1)
        assert matrix.ok
        assert get_telemetry().flows_run == len(self.CONFIGS)
        # Warm run: new process simulated by clearing the memory caches.
        clear_memory_caches()
        reset_telemetry()
        monkeypatch.setenv(trace.ENV_TRACE, "1")
        trace.init_from_env()
        warm = self._run(seed=212, jobs=1)
        assert warm.ok
        assert get_telemetry().flows_run == 0
        roots = trace_roots()
        assert find_spans("matrix", roots)
        assert find_spans("flow", roots) == []  # nothing executed
        assert find_spans("placement", roots) == []
