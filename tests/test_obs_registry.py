"""The typed metrics registry: families, snapshots, merge, exposition."""

from __future__ import annotations

import threading

import pytest

from repro.obs.registry import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    reset_registry,
    validate_prometheus,
)


class TestFamilies:
    def test_counter_only_goes_up(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_depth", "depth")
        g.set(7)
        g.inc()
        g.dec(3)
        assert g.value == 5.0

    def test_labeled_children_are_independent(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_jobs_total", "jobs", labels=("state",))
        fam.labels(state="done").inc(2)
        fam.labels(state="failed").inc()
        assert fam.labels(state="done").value == 2
        assert fam.labels(state="failed").value == 1
        # unlabeled access on a labeled family is a usage error
        with pytest.raises(ValueError):
            fam.inc()
        with pytest.raises(ValueError):
            fam.labels(nope="x")

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)  # lands in +Inf
        sample = reg.snapshot()["families"][0]["samples"][0]
        assert sample["counts"] == [1, 1, 1]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(5.55)

    def test_registration_is_idempotent_but_typed(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "x")
        assert reg.counter("repro_x_total") is a
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total")
        with pytest.raises(ValueError):
            reg.counter("repro_x_total", labels=("other",))
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("repro_ok_total", labels=("bad-label",))

    def test_default_buckets_cover_fsync_to_matrix(self):
        assert LATENCY_BUCKETS_S[0] <= 0.001
        assert LATENCY_BUCKETS_S[-1] >= 600
        assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)


class TestSnapshotMerge:
    def _registry_with_data(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "j", labels=("state",)).labels(
            state="done"
        ).inc(3)
        reg.gauge("repro_queue_depth", "q").set(4)
        reg.histogram("repro_wait_seconds", "w", buckets=(1.0,)).observe(0.5)
        return reg

    def test_merge_adds_counters_and_histograms(self):
        reg = self._registry_with_data()
        snap = reg.snapshot()
        other = MetricsRegistry()
        other.merge(snap)
        other.merge(snap)
        fam = other.counter("repro_jobs_total", labels=("state",))
        assert fam.labels(state="done").value == 6
        hist_sample = [
            f for f in other.snapshot()["families"]
            if f["name"] == "repro_wait_seconds"
        ][0]["samples"][0]
        assert hist_sample["count"] == 2
        assert hist_sample["counts"] == [2, 0]

    def test_values_reads_without_registering(self):
        reg = self._registry_with_data()
        assert reg.values("repro_jobs_total") == {("done",): 3.0}
        assert reg.values("repro_queue_depth") == {(): 4.0}
        assert reg.values("repro_absent_total") == {}
        assert "repro_absent_total" not in reg.to_prometheus()

    def test_merge_overwrites_gauges(self):
        reg = self._registry_with_data()
        other = MetricsRegistry()
        other.gauge("repro_queue_depth", "q").set(99)
        other.merge(reg.snapshot())
        assert other.gauge("repro_queue_depth").value == 4

    def test_snapshot_is_json_safe_and_stable(self):
        import json

        reg = self._registry_with_data()
        first = json.dumps(reg.snapshot(), sort_keys=True)
        second = json.dumps(reg.snapshot(), sort_keys=True)
        assert first == second

    def test_concurrent_mutation_is_consistent(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_hits_total", "h", labels=("who",))

        def hammer(who: str):
            child = fam.labels(who=who)
            for _ in range(500):
                child.inc()

        threads = [
            threading.Thread(target=hammer, args=(f"t{i % 3}",))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(
            s["value"]
            for s in reg.snapshot()["families"][0]["samples"]
        )
        assert total == 3000


class TestExposition:
    def test_round_trip_is_valid(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "jobs done", labels=("state",)).labels(
            state="done"
        ).inc(2)
        reg.gauge("repro_queue_depth", "depth").set(1)
        h = reg.histogram("repro_wait_seconds", "wait")
        h.observe(0.002)
        h.observe(700.0)
        text = reg.to_prometheus()
        assert validate_prometheus(text) == []
        assert '# TYPE repro_jobs_total counter' in text
        assert 'repro_jobs_total{state="done"} 2' in text
        assert 'le="+Inf"' in text
        assert text.endswith("\n")

    def test_render_matches_on_client_side(self):
        """A scraped snapshot renders identically to the daemon's own."""
        reg = MetricsRegistry()
        reg.histogram("repro_x_seconds", "x", buckets=(0.5,)).observe(0.1)
        assert render_prometheus(reg.snapshot()) == reg.to_prometheus()

    def test_label_escaping(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_err_total", "e", labels=("msg",))
        fam.labels(msg='quote " backslash \\ newline \n').inc()
        text = reg.to_prometheus()
        assert validate_prometheus(text) == []
        assert r"\"" in text and r"\\" in text and r"\n" in text

    def test_validator_rejects_broken_exposition(self):
        assert validate_prometheus("repro_x_total 1") != []  # no newline
        assert any(
            "no TYPE" in p
            for p in validate_prometheus("repro_x_total 1\n")
        )
        bad_bucket = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 1\n"
            "repro_h_count 3\n"
        )
        assert any(
            "not cumulative" in p for p in validate_prometheus(bad_bucket)
        )
        no_inf = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 1\n'
            "repro_h_sum 1\nrepro_h_count 1\n"
        )
        assert any(
            "+Inf" in p for p in validate_prometheus(no_inf)
        )
        assert any(
            "non-numeric" in p
            for p in validate_prometheus("# TYPE repro_g gauge\nrepro_g x\n")
        )
        # A name that merely starts with a typed family's name is not
        # one of its series: only histograms and summaries have those.
        borrowed = (
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 1\n"
            "repro_queue_depth_bogus 2\n"
        )
        problems = validate_prometheus(borrowed)
        assert len(problems) == 1
        assert "repro_queue_depth_bogus has no TYPE" in problems[0]
        assert validate_prometheus(
            "# TYPE repro_g gauge\nrepro_g 1\nrepro_g_count 1\n"
        ) != []

    def test_validator_accepts_summary_series(self):
        summary = (
            "# TYPE repro_s summary\n"
            'repro_s{quantile="0.5"} 1\n'
            "repro_s_sum 3\n"
            "repro_s_count 2\n"
        )
        assert validate_prometheus(summary) == []

    def test_validator_checks_inf_bucket_against_count(self):
        mismatched = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 2\n'
            "repro_h_sum 1\n"
            "repro_h_count 3\n"
        )
        assert any(
            "_count" in p for p in validate_prometheus(mismatched)
        )


class TestGlobalRegistry:
    def test_reset_replaces_singleton(self):
        first = get_registry()
        first.counter("repro_tmp_total").inc()
        fresh = reset_registry()
        assert fresh is get_registry()
        assert fresh is not first
        assert fresh.snapshot() == {"families": []}
