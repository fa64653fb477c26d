"""Tests for the persistently-cached, parallel evaluation-matrix engine.

Covers the headline regression (period_ns missing from the result-cache
key), the on-disk cache (round trip, corrupt-entry recovery, kill
switch), telemetry accounting (a warm matrix performs zero flow runs),
the parallel fan-out (identical to serial), and the target-period search
(convergence, key isolation, upper-bound failure).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import cache
from repro.experiments.runner import (
    _SWEEP_BOUNDS,
    clear_memory_caches,
    find_target_period,
    run_configuration,
    run_matrix,
)
from repro.experiments.telemetry import (
    TelemetryView,
    count,
    get_telemetry,
    merge_snapshot,
    record_cell,
    record_stage,
    reset_telemetry,
    timed_stage,
)
from repro.flow.report import FlowResult
from repro.obs.registry import MetricsRegistry, get_registry
from repro.power.analysis import PowerReport


def fake_result(design="aes", config="2D_12T", *, period_ns=1.0, wns_ns=0.0):
    return FlowResult(
        design=design, config=config, frequency_ghz=1.0 / period_ns,
        period_ns=period_ns, wns_ns=wns_ns, tns_ns=0.0, effective_delay_ns=1.0,
        si_area_mm2=1.0, footprint_mm2=1.0, chip_width_um=10.0, density=0.8,
        wirelength_mm=1.0, miv_count=0, cut_nets=0, total_power_mw=1.0,
        power=PowerReport(1.0, 0.0, 0.0, 0.0), pdp_pj=1.0, die_cost_1e6=1.0,
        cost_per_cm2=1.0, ppc=1.0, clock=None, critical_path=None,
        memory_nets=None, peak_congestion=0.5,
    )


class FakeConfig:
    """Stands in for a Configuration; scripted WNS per probed period."""

    def __init__(self, wns_of):
        self.calls: list[float] = []
        self._wns_of = wns_of

    def run(self, design_name, *, period_ns, **kwargs):
        self.calls.append(period_ns)
        return None, fake_result(
            design_name, period_ns=period_ns, wns_ns=self._wns_of(period_ns)
        )


@pytest.fixture
def fresh_engine(monkeypatch, tmp_path):
    """Cold memory caches + a private cache dir + zeroed telemetry."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memory_caches()
    reset_telemetry()
    yield
    clear_memory_caches()
    reset_telemetry()


class TestResultCacheKey:
    """The headline bugfix: period_ns is part of the result-cache key."""

    def test_explicit_period_does_not_poison_other_periods(self, fresh_engine):
        _d1, r1 = run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=11
        )
        _d2, r2 = run_configuration(
            "aes", "2D_12T", period_ns=1.2, scale=0.2, seed=11
        )
        # Before the fix the second call returned the 0.9 ns result.
        assert r1.period_ns == pytest.approx(0.9)
        assert r2.period_ns == pytest.approx(1.2)
        assert get_telemetry().flows_run == 2

    def test_same_period_still_hits_in_process(self, fresh_engine):
        _d1, r1 = run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=11
        )
        _d2, r2 = run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=11
        )
        assert r1 is r2
        assert get_telemetry().flows_run == 1
        assert get_telemetry().memory_hits == 1

    def test_kwargs_bypass_caching(self, fresh_engine):
        run_configuration("aes", "2D_12T", period_ns=0.9, scale=0.2, seed=11)
        reset_telemetry()
        run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=11, opt_iterations=2
        )
        assert get_telemetry().flows_run == 1  # ran again despite warm caches


class TestDiskCache:
    def test_round_trip_and_zero_flow_warm_start(self, fresh_engine):
        _d, cold = run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=12
        )
        clear_memory_caches()  # simulate a new process; disk survives
        reset_telemetry()
        design, warm = run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=12
        )
        telemetry = get_telemetry()
        assert telemetry.flows_run == 0
        assert telemetry.disk_hits == 1
        assert design is None  # disk entries carry no Design object
        assert warm.row() == cold.row()
        assert warm.power == cold.power

    def test_need_design_forces_flow_after_disk_hit(self, fresh_engine):
        run_configuration("aes", "2D_12T", period_ns=0.9, scale=0.2, seed=12)
        clear_memory_caches()
        reset_telemetry()
        design, _r = run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=12, need_design=True
        )
        assert design is not None
        assert get_telemetry().flows_run == 1

    def test_corrupt_entry_recovers_as_miss(self, fresh_engine):
        run_configuration("aes", "2D_12T", period_ns=0.9, scale=0.2, seed=13)
        entries = list(cache.cache_dir().glob("*.json"))
        assert entries
        for path in entries:
            path.write_text("{ truncated garbage")
        clear_memory_caches()
        reset_telemetry()
        _d, result = run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=13
        )
        assert result.period_ns == pytest.approx(0.9)
        assert get_telemetry().flows_run == 1  # re-ran, did not crash
        for path in entries:
            assert not path.exists() or json.loads(path.read_text())

    def test_kill_switch_disables_reads_and_writes(self, fresh_engine, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache.cache_enabled()
        run_configuration("aes", "2D_12T", period_ns=0.9, scale=0.2, seed=14)
        assert not list(cache.cache_dir().glob("*.json"))
        clear_memory_caches()
        reset_telemetry()
        run_configuration("aes", "2D_12T", period_ns=0.9, scale=0.2, seed=14)
        telemetry = get_telemetry()
        assert telemetry.flows_run == 1
        assert telemetry.disk_hits == 0 and telemetry.disk_misses == 0

    def test_key_varies_with_every_field(self):
        base = dict(scale=0.5, seed=1, period_ns=1.0)
        key = cache.result_key("aes", "3D_HET", **base)
        assert key == cache.result_key("aes", "3D_HET", **base)
        assert key != cache.result_key("cpu", "3D_HET", **base)
        assert key != cache.result_key("aes", "2D_9T", **base)
        assert key != cache.result_key(
            "aes", "3D_HET", scale=0.4, seed=1, period_ns=1.0
        )
        assert key != cache.result_key(
            "aes", "3D_HET", scale=0.5, seed=2, period_ns=1.0
        )
        assert key != cache.result_key(
            "aes", "3D_HET", scale=0.5, seed=1, period_ns=1.1
        )


class TestFlowResultSerialization:
    def test_full_round_trip_from_real_flow(self, fresh_engine):
        _d, result = run_configuration(
            "cpu", "3D_HET", period_ns=1.1, scale=0.4, seed=23
        )
        back = FlowResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.row() == result.row()
        assert back.power == result.power
        assert back.clock == result.clock
        assert back.critical_path == result.critical_path
        assert back.memory_nets == result.memory_nets

    def test_minimal_round_trip(self):
        result = fake_result()
        back = FlowResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back == result


class TestWarmMatrix:
    def test_second_run_matrix_performs_zero_flows(self, fresh_engine):
        designs, configs = ("aes",), ("2D_12T", "3D_9T")
        cold = run_matrix(
            designs=designs, config_names=configs, scale=0.2, seed=16
        )
        assert get_telemetry().flows_run > 0
        clear_memory_caches()  # next-process simulation
        reset_telemetry()
        warm = run_matrix(
            designs=designs, config_names=configs, scale=0.2, seed=16
        )
        telemetry = get_telemetry()
        assert telemetry.flows_run == 0
        assert telemetry.disk_hits >= 3  # 1 period + 2 results
        assert warm.target_periods == cold.target_periods
        for key, result in cold.results.items():
            assert warm.results[key].row() == result.row()

    def test_lazy_design_rebuild_on_warm_matrix(self, fresh_engine):
        designs, configs = ("aes",), ("2D_12T",)
        run_matrix(designs=designs, config_names=configs, scale=0.2, seed=16)
        clear_memory_caches()
        reset_telemetry()
        warm = run_matrix(
            designs=designs, config_names=configs, scale=0.2, seed=16
        )
        assert get_telemetry().flows_run == 0
        design = warm.designs[("aes", "2D_12T")]  # triggers one rebuild
        assert design is not None
        assert get_telemetry().flows_run == 1
        assert warm.designs[("aes", "2D_12T")] is design  # now memoized


class TestParallel:
    def test_parallel_cold_run_matches_serial(self, fresh_engine, monkeypatch):
        designs, configs = ("aes",), ("2D_12T", "3D_9T")
        parallel = run_matrix(
            designs=designs, config_names=configs, scale=0.2, seed=17, jobs=2
        )
        assert get_telemetry().flows_run > 0  # workers reported their runs
        monkeypatch.setenv("REPRO_CACHE", "0")
        clear_memory_caches()
        serial = run_matrix(
            designs=designs, config_names=configs, scale=0.2, seed=17, jobs=1
        )
        assert parallel.target_periods == serial.target_periods
        assert set(parallel.results) == set(serial.results)
        for key, result in serial.results.items():
            assert parallel.results[key].row() == result.row()

    def test_pool_failure_falls_back_to_serial(self, fresh_engine, monkeypatch):
        from repro.serve.supervisor import WorkerHandle

        def broken(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(WorkerHandle, "spawn", broken)
        matrix = run_matrix(
            designs=("aes",), config_names=("2D_12T",), scale=0.2, seed=18,
            jobs=4,
        )
        assert ("aes", "2D_12T") in matrix.results

    def test_default_jobs_env(self, monkeypatch):
        from repro.experiments.runner import default_jobs

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6
        monkeypatch.setenv("REPRO_JOBS", "-3")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_jobs() == 1


class TestFindTargetPeriod:
    def _patch_flow(self, monkeypatch, wns_of):
        fake = FakeConfig(wns_of)
        monkeypatch.setattr(
            "repro.experiments.runner.configurations",
            lambda: {"2D_12T": fake},
        )
        return fake

    def test_binary_search_converges(self, fresh_engine, monkeypatch):
        # Timing met iff period >= 0.8 ns: the search must converge onto
        # 0.8 from above within the bisection resolution.
        fake = self._patch_flow(
            monkeypatch, lambda p: 0.0 if p >= 0.8 else -1.0
        )
        period = find_target_period("aes", scale=0.123, seed=0)
        assert 0.8 <= period <= 0.85
        assert len(fake.calls) >= 4
        assert get_telemetry().period_probes == len(fake.calls)

    def test_cache_isolation_across_scale_and_seed(self, fresh_engine, monkeypatch):
        fake = self._patch_flow(
            monkeypatch, lambda p: 0.0 if p >= 0.8 else -1.0
        )
        p1 = find_target_period("aes", scale=0.123, seed=0)
        probes_first = len(fake.calls)
        # same key: served from memory, no new probes
        assert find_target_period("aes", scale=0.123, seed=0) == p1
        assert len(fake.calls) == probes_first
        # different scale and different seed each trigger a fresh search
        find_target_period("aes", scale=0.124, seed=0)
        assert len(fake.calls) > probes_first
        probes_second = len(fake.calls)
        find_target_period("aes", scale=0.123, seed=1)
        assert len(fake.calls) > probes_second

    def test_upper_bound_failure_returns_hi(self, fresh_engine, monkeypatch):
        # Nothing meets timing anywhere in the bracket: the search returns
        # the upper sweep bound unchanged (documented behavior) instead of
        # raising, and the caller sees the failure through wns_ns.
        self._patch_flow(monkeypatch, lambda p: -10.0)
        period = find_target_period("aes", scale=0.125, seed=0)
        assert period == _SWEEP_BOUNDS["aes"][1]

    def test_persists_to_disk(self, fresh_engine, monkeypatch):
        fake = self._patch_flow(
            monkeypatch, lambda p: 0.0 if p >= 0.8 else -1.0
        )
        p1 = find_target_period("aes", scale=0.126, seed=0)
        clear_memory_caches()
        reset_telemetry()
        assert find_target_period("aes", scale=0.126, seed=0) == p1
        assert get_telemetry().disk_hits == 1
        assert len(fake.calls) >= 4  # only the first search probed


def worker_snapshot(*cells) -> dict:
    """What a pool worker ships: its fresh registry's snapshot after
    recording ``cells`` as (design, config, seconds, source)."""
    reset_telemetry()
    for cell in cells:
        record_cell(*cell)
    return get_registry().snapshot()


class TestTelemetry:
    def test_merge_and_snapshot_round_trip(self):
        reset_telemetry()
        count("flows_run")
        count("memory_hits", 3)
        record_cell("cpu", "3D_HET", 2.5, "disk")
        record_stage("flow", 0.5)
        b = get_registry().snapshot()
        reset_telemetry()
        count("flows_run", 2)
        count("disk_hits")
        record_cell("aes", "2D_12T", 1.5, "flow")
        record_stage("flow", 1.5)
        merge_snapshot(b)
        a = get_telemetry()
        assert a.flows_run == 3
        assert a.memory_hits == 3
        assert a.cell_seconds[("cpu", "3D_HET")] == 2.5
        assert a.stage_seconds["flow"] == pytest.approx(2.0)
        again = MetricsRegistry()
        again.merge(get_registry().snapshot())
        assert TelemetryView(again).snapshot() == a.snapshot()
        assert TelemetryView(again).cell_source == a.cell_source

    def test_snapshot_keeps_its_keys_and_types(self):
        reset_telemetry()
        count("prefix_stages_reused", 3)
        record_cell("aes", "2D_12T", 1.5, "flow")
        snap = get_telemetry().snapshot()
        assert list(snap)[:13] == [
            "flows_run", "period_probes", "flow_stages_run",
            "prefix_stages_reused", "suffix_flows_reused", "dse_pruned",
            "memory_hits", "disk_hits", "disk_misses", "retries",
            "timeouts", "quarantined", "worker_respawns",
        ]
        assert all(type(snap[k]) is int for k in list(snap)[:13])
        assert snap["prefix_stages_reused"] == 3
        assert snap["cell_seconds"] == [["aes", "2D_12T", 1.5]]
        assert snap["cell_source"] == [["aes", "2D_12T", "flow"]]
        assert snap["stage_seconds"] == {}

    def test_view_taken_before_a_reset_keeps_its_values(self):
        reset_telemetry()
        count("flows_run", 2)
        before = get_telemetry()
        reset_telemetry()
        count("flows_run")
        assert before.flows_run == 2
        assert get_telemetry().flows_run == 1

    def test_a_rerecorded_cell_keeps_only_its_latest_report(self):
        reset_telemetry()
        record_cell("aes", "2D_12T", 1.5, "flow")
        record_cell("aes", "2D_12T", 0.0, "memory")
        assert get_telemetry().cell_source == {("aes", "2D_12T"): "memory"}
        assert get_telemetry().cell_seconds == {("aes", "2D_12T"): 0.0}

    def test_merge_warns_on_cell_collision(self, caplog):
        import logging

        b = worker_snapshot(("aes", "3D_9T", 2.0, "flow"),
                            ("cpu", "3D_9T", 3.0, "disk"))
        reset_telemetry()
        record_cell("aes", "3D_9T", 1.0, "flow")
        with caplog.at_level(logging.WARNING, logger="repro"):
            merge_snapshot(b)
        warnings = [r for r in caplog.records if "telemetry merge" in r.message]
        assert len(warnings) == 1  # only the colliding cell, not cpu
        assert "aes/3D_9T" in warnings[0].getMessage()
        # later report kept
        assert get_telemetry().cell_seconds[("aes", "3D_9T")] == 2.0

    def test_merge_disjoint_cells_is_silent(self, caplog):
        import logging

        b = worker_snapshot(("aes", "3D_9T", 2.0, "flow"))
        reset_telemetry()
        record_cell("aes", "2D_12T", 1.0, "flow")
        with caplog.at_level(logging.WARNING, logger="repro"):
            merge_snapshot(b)
        assert not [r for r in caplog.records if "telemetry merge" in r.message]

    def test_timed_stage_accumulates(self):
        reset_telemetry()
        with timed_stage("x"):
            pass
        with timed_stage("x"):
            pass
        assert get_telemetry().stage_seconds["x"] >= 0.0
        assert len(get_telemetry().stage_seconds) == 1

    def test_summary_mentions_key_counters(self):
        reset_telemetry()
        count("flows_run", 4)
        count("disk_hits", 2)
        count("disk_misses", 1)
        count("memory_hits", 7)
        record_cell("aes", "2D_12T", 1.25, "flow")
        text = get_telemetry().summary()
        assert "flows run" in text and "4" in text
        assert "disk 2 hits / 1 misses" in text
        assert "aes" in text and "[flow]" in text
