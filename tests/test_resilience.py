"""Tests for the fault-tolerant evaluation engine.

Driven end to end by the deterministic fault-injection harness
(:mod:`repro.experiments.faults`): worker crashes, hangs past the
timeout, corrupt cache writes and deterministically failing cells are
*injected* and every recovery path -- retry, worker respawn, quarantine,
partial-work carry, resume -- is asserted against a fault-free run.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.errors import PlacementError, ReproError
from repro.experiments import cache, faults
from repro.experiments.faults import (
    FaultInjected,
    TransientFaultInjected,
    inject,
    parse_spec,
)
from repro.experiments.resilience import (
    DETERMINISTIC,
    TRANSIENT,
    FailedCell,
    RetryPolicy,
    call_with_retry,
    classify,
    classify_job_error,
)
from repro.experiments.runner import (
    clear_memory_caches,
    run_configuration,
    run_matrix,
)
from repro.experiments.telemetry import get_telemetry, reset_telemetry

#: Zero-backoff policy so retry tests do not sleep.
FAST = RetryPolicy(max_retries=2, backoff_s=0.0, keep_going=True)


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


def rows_of(matrix):
    """Byte-exact serialized view of every completed cell."""
    return {
        key: json.dumps(result.to_dict(), sort_keys=True)
        for key, result in matrix.results.items()
    }


# ----------------------------------------------------------------------
# fault harness
# ----------------------------------------------------------------------
class TestFaultSpecParsing:
    def test_full_entry(self):
        (spec,) = parse_spec(
            "site=worker,design=aes,config=3D_HET,kind=hang,"
            "times=3,after=1,seconds=2.5,p=0.5,seed=9"
        )
        assert spec.site == "worker"
        assert spec.kind == "hang"
        assert spec.match == {"design": "aes", "config": "3D_HET"}
        assert (spec.times, spec.after) == (3, 1)
        assert spec.seconds == pytest.approx(2.5)
        assert (spec.p, spec.seed) == (0.5, 9)

    def test_multiple_entries_indexed(self):
        specs = parse_spec("site=cell,kind=raise;site=worker,kind=exit")
        assert [s.index for s in specs] == [0, 1]
        assert [s.kind for s in specs] == ["raise", "exit"]

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            parse_spec("site=cell,kind=explode")

    def test_missing_site_rejected(self):
        with pytest.raises(ValueError, match="missing site"):
            parse_spec("kind=raise")

    def test_non_kv_field_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_spec("site=cell,kind=raise,whatever")


class TestInject:
    def test_noop_without_env(self, fresh_engine):
        with inject("cell", design="aes"):
            ran = True
        assert ran

    def test_raise_matches_filters(self, fresh_engine, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=cell,design=aes,kind=raise,times=0"
        )
        with inject("cell", design="ldpc"):
            pass  # filter mismatch: no fire
        with pytest.raises(FaultInjected):
            with inject("cell", design="aes"):
                pass

    def test_injected_error_taxonomy(self):
        assert issubclass(FaultInjected, ReproError)
        assert issubclass(TransientFaultInjected, OSError)
        assert not issubclass(TransientFaultInjected, ReproError)

    def test_times_limits_fires(self, fresh_engine, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "site=cell,kind=raise,times=2")
        fired = 0
        for _ in range(5):
            try:
                with inject("cell"):
                    pass
            except FaultInjected:
                fired += 1
        assert fired == 2

    def test_after_skips_first_hits(self, fresh_engine, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=cell,kind=raise,after=2,times=1"
        )
        outcomes = []
        for _ in range(4):
            try:
                with inject("cell"):
                    outcomes.append("ok")
            except FaultInjected:
                outcomes.append("fault")
        assert outcomes == ["ok", "ok", "fault", "ok"]

    def test_state_dir_counts_across_processes(self, fresh_engine, monkeypatch):
        """Claim files make ``times`` global: a 'new process' (reset
        in-process state) still sees the budget as spent."""
        monkeypatch.setenv("REPRO_FAULTS", "site=cell,kind=raise,times=1")
        with pytest.raises(FaultInjected):
            with inject("cell"):
                pass
        faults.reset_fault_state()  # simulate a fresh worker process
        with inject("cell"):
            ran = True
        assert ran

    def test_corrupt_mangles_named_path_after_block(
        self, fresh_engine, monkeypatch, tmp_path
    ):
        target = tmp_path / "entry.json"
        monkeypatch.setenv("REPRO_FAULTS", "site=cache_write,kind=corrupt")
        with inject("cache_write", entry="result", path=str(target)):
            target.write_text('{"payload": {}}')
        assert "corrupted by fault injection" in target.read_text()

    def test_probabilistic_firing_is_seeded(self, fresh_engine, monkeypatch):
        # Per-process counting: a state dir would (correctly) keep the
        # hit counter climbing across the two runs compared below.
        monkeypatch.delenv("REPRO_FAULTS_STATE")
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=cell,kind=raise,times=0,p=0.5,seed=3"
        )

        def pattern():
            fired = []
            for _ in range(16):
                try:
                    with inject("cell"):
                        fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        first = pattern()
        faults.reset_fault_state()
        assert pattern() == first
        assert any(first) and not all(first)


# ----------------------------------------------------------------------
# error taxonomy and policy
# ----------------------------------------------------------------------
class TestClassification:
    def test_repro_errors_are_deterministic(self):
        assert classify(PlacementError("x")) == DETERMINISTIC
        assert classify(FaultInjected("x")) == DETERMINISTIC

    def test_os_level_errors_are_transient(self):
        assert classify(OSError("x")) == TRANSIENT
        assert classify(pickle.PicklingError("x")) == TRANSIENT
        assert classify(TimeoutError("x")) == TRANSIENT

    def test_arbitrary_bugs_are_deterministic(self):
        assert classify(ValueError("x")) == DETERMINISTIC

    def test_worker_classifies_flow_oserror_as_transient(self):
        assert classify_job_error(OSError("disk hiccup")) == TRANSIENT
        # ...but an ImportError from flow code is a bug, not weather.
        assert classify_job_error(ImportError("no such module")) == DETERMINISTIC


class TestRetryPolicy:
    def test_backoff_caps(self):
        policy = RetryPolicy(backoff_s=1.0)
        assert [policy.backoff(i) for i in range(4)] == [1.0, 2.0, 4.0, 4.0]

    def test_zero_backoff(self):
        assert RetryPolicy(backoff_s=0.0).backoff(5) == 0.0

    def test_with_overrides(self):
        policy = RetryPolicy()
        tuned = policy.with_overrides(
            keep_going=True, max_retries=7, timeout_s=1.5
        )
        assert (tuned.keep_going, tuned.max_retries, tuned.timeout_s) == (
            True, 7, 1.5,
        )
        assert policy.with_overrides() is policy


class TestFailedCell:
    def test_dict_round_trip(self):
        cell = FailedCell(
            "aes", "3D_HET", "flow", DETERMINISTIC, "PlacementError",
            "too full", 2,
        )
        assert FailedCell.from_dict(cell.to_dict()) == cell

    def test_raisable_reconstructs_repro_type(self):
        cell = FailedCell(
            "aes", "3D_HET", "flow", DETERMINISTIC, "PlacementError",
            "too full", 1,
        )
        exc = cell.raisable()
        assert isinstance(exc, PlacementError)
        assert "too full" in str(exc) and "design=aes" in str(exc)

    def test_raisable_prefers_original_exception(self):
        original = ValueError("boom")
        cell = FailedCell(
            "aes", "*", "flow", DETERMINISTIC, "ValueError", "boom", 1,
            exception=original,
        )
        assert cell.raisable() is original


class TestCallWithRetry:
    def test_transient_retried_then_succeeds(self, fresh_engine):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("weather")
            return 42

        value, failure = call_with_retry(
            flaky, policy=FAST, stage="flow", design="aes"
        )
        assert (value, failure) == (42, None)
        assert len(calls) == 3
        assert get_telemetry().retries == 2

    def test_deterministic_never_retried(self, fresh_engine):
        calls = []

        def bad():
            calls.append(1)
            raise PlacementError("overfull")

        value, failure = call_with_retry(
            bad, policy=FAST, stage="flow", design="aes", config="3D_HET"
        )
        assert value is None
        assert failure.kind == DETERMINISTIC
        assert failure.attempts == 1 and len(calls) == 1
        assert isinstance(failure.exception, PlacementError)
        assert "design=aes" in str(failure.exception)

    def test_retries_exhausted(self, fresh_engine):
        def always():
            raise OSError("forever")

        value, failure = call_with_retry(
            always, policy=FAST, stage="flow", design="aes"
        )
        assert value is None
        assert failure.kind == TRANSIENT
        assert failure.attempts == FAST.max_retries + 1


# ----------------------------------------------------------------------
# the matrix survives injected faults (serial path)
# ----------------------------------------------------------------------
class TestSerialQuarantine:
    def test_keep_going_quarantines_exactly_the_failing_cell(
        self, fresh_engine, monkeypatch, tmp_path
    ):
        configs = ("2D_12T", "3D_9T")
        clean = run_matrix(
            designs=("aes",), config_names=configs, scale=0.2, seed=80,
            target_periods={"aes": 0.9}, policy=FAST,
        )
        # A brand-new engine with a deterministic fault on one cell.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-faulted"))
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=cell,design=aes,config=3D_9T,kind=raise,times=0",
        )
        faults.reset_fault_state()
        clear_memory_caches()
        reset_telemetry()
        partial = run_matrix(
            designs=("aes",), config_names=configs, scale=0.2, seed=80,
            target_periods={"aes": 0.9}, policy=FAST,
        )
        assert set(partial.failed) == {("aes", "3D_9T")}
        assert not partial.ok
        cell = partial.failed[("aes", "3D_9T")]
        assert cell.kind == DETERMINISTIC
        assert cell.error_type == "FaultInjected"
        assert get_telemetry().quarantined == 1
        # Every other cell is byte-identical to the fault-free run.
        good = rows_of(partial)
        assert set(good) == {("aes", "2D_12T")}
        assert good[("aes", "2D_12T")] == rows_of(clean)[("aes", "2D_12T")]

    def test_fail_fast_raises_original_with_context(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=cell,design=aes,kind=raise,times=0"
        )
        with pytest.raises(FaultInjected) as excinfo:
            run_matrix(
                designs=("aes",), config_names=("2D_12T",), scale=0.2,
                seed=81, target_periods={"aes": 0.9},
            )
        assert "design=aes" in str(excinfo.value)
        assert "config=2D_12T" in str(excinfo.value)

    def test_transient_cell_fault_is_retried(self, fresh_engine, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=cell,design=aes,config=2D_12T,kind=raise_transient,times=1",
        )
        matrix = run_matrix(
            designs=("aes",), config_names=("2D_12T",), scale=0.2, seed=82,
            target_periods={"aes": 0.9}, policy=FAST,
        )
        assert matrix.ok
        telemetry = get_telemetry()
        assert telemetry.retries == 1
        assert telemetry.flows_run == 1

    def test_period_search_failure_quarantines_design_row(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=period_search,design=aes,kind=raise,times=0"
        )
        matrix = run_matrix(
            designs=("aes",), config_names=("2D_12T", "3D_9T"), scale=0.2,
            seed=83, policy=FAST,
        )
        assert not matrix.ok
        assert set(matrix.failed_periods) == {"aes"}
        assert matrix.failed_periods["aes"].stage == "period_search"
        assert not matrix.results  # the whole row is blocked


# ----------------------------------------------------------------------
# the matrix survives injected faults (parallel path)
# ----------------------------------------------------------------------
class TestParallelResilience:
    CONFIGS = ("2D_12T", "3D_9T", "3D_HET")

    def test_crash_hang_corruption_and_bad_cell_all_recovered(
        self, fresh_engine, monkeypatch, tmp_path
    ):
        """The headline acceptance scenario: a worker crash, a hang past
        the timeout, a corrupted cache write and one deterministically
        failing cell -- in a single keep-going parallel run.  Exactly the
        bad cell is quarantined; every other result is byte-identical to
        a fault-free serial run."""
        clean = run_matrix(
            designs=("aes",), config_names=self.CONFIGS, scale=0.2, seed=85,
            target_periods={"aes": 0.9}, policy=FAST,
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-faulted"))
        monkeypatch.setenv(
            "REPRO_FAULTS",
            # one worker crash...
            "site=worker,design=aes,config=3D_9T,kind=exit,times=1;"
            # ...one hang long past the timeout...
            "site=worker,design=aes,config=2D_12T,kind=hang,seconds=60,times=1;"
            # ...one corrupted result write...
            "site=cache_write,entry=result,kind=corrupt,times=1;"
            # ...and one deterministically bad cell.
            "site=cell,design=aes,config=3D_HET,kind=raise,times=0",
        )
        faults.reset_fault_state()
        clear_memory_caches()
        reset_telemetry()
        policy = RetryPolicy(
            max_retries=3, backoff_s=0.0, timeout_s=10.0, keep_going=True
        )
        partial = run_matrix(
            designs=("aes",), config_names=self.CONFIGS, scale=0.2, seed=85,
            jobs=3, target_periods={"aes": 0.9}, policy=policy,
        )
        assert set(partial.failed) == {("aes", "3D_HET")}
        assert partial.failed[("aes", "3D_HET")].kind == DETERMINISTIC
        good, reference = rows_of(partial), rows_of(clean)
        assert set(good) == {("aes", "2D_12T"), ("aes", "3D_9T")}
        for key, row in good.items():
            assert row == reference[key]
        telemetry = get_telemetry()
        assert telemetry.quarantined == 1
        assert telemetry.retries >= 1
        assert telemetry.worker_respawns >= 1

    def test_completed_cells_survive_pool_death(
        self, fresh_engine, monkeypatch
    ):
        """Satellite: pool death mid-wave no longer discards completed
        futures.  With the disk cache off, the only way to reach
        flows_run == n_cells after a crash is to carry the completed
        results forward instead of rerunning them."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=worker,design=aes,config=3D_9T,kind=exit,times=1",
        )
        matrix = run_matrix(
            designs=("aes",), config_names=self.CONFIGS, scale=0.2, seed=86,
            jobs=2, target_periods={"aes": 0.9}, policy=FAST,
        )
        assert matrix.ok
        telemetry = get_telemetry()
        assert telemetry.flows_run == len(self.CONFIGS)
        assert telemetry.worker_respawns >= 1

    def test_flow_raised_transient_error_does_not_rebuild_pool(
        self, fresh_engine, monkeypatch
    ):
        """Satellite: a flow-raised OSError inside a worker is retried as
        a job failure -- it is not mistaken for pool breakage (no pool
        rebuild, no serial fallback)."""
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=worker,design=aes,config=2D_12T,kind=raise_transient,times=1",
        )
        matrix = run_matrix(
            designs=("aes",), config_names=("2D_12T", "3D_9T"), scale=0.2,
            seed=87, jobs=2, target_periods={"aes": 0.9}, policy=FAST,
        )
        assert matrix.ok
        telemetry = get_telemetry()
        assert telemetry.retries == 1
        assert telemetry.worker_respawns == 0

    def test_deterministic_worker_failure_not_retried(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=cell,design=aes,config=3D_9T,kind=raise,times=0",
        )
        matrix = run_matrix(
            designs=("aes",), config_names=("2D_12T", "3D_9T"), scale=0.2,
            seed=88, jobs=2, target_periods={"aes": 0.9}, policy=FAST,
        )
        assert set(matrix.failed) == {("aes", "3D_9T")}
        assert matrix.failed[("aes", "3D_9T")].attempts == 1
        assert get_telemetry().retries == 0

    def test_hang_past_timeout_is_killed_and_retried(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=worker,design=aes,config=2D_12T,kind=hang,"
            "seconds=60,times=1",
        )
        policy = RetryPolicy(
            max_retries=2, backoff_s=0.0, timeout_s=6.0, keep_going=True
        )
        matrix = run_matrix(
            designs=("aes",), config_names=("2D_12T",), scale=0.2, seed=89,
            jobs=2, target_periods={"aes": 0.9}, policy=policy,
        )
        assert matrix.ok
        assert get_telemetry().timeouts == 1


class TestPerJobTimeout:
    def test_timeout_runs_from_dispatch_not_from_submission(
        self, fresh_engine, monkeypatch
    ):
        """A dozen 0.5 s probes on two workers take about 3 s in all,
        past the 2.5 s timeout, yet none of them is timed out: each
        job's clock starts when a worker takes it.  A probe that really
        hangs is still killed and retried once."""
        from repro.serve.supervisor import BatchPool

        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=worker,design=wedged,kind=hang,seconds=60,times=1",
        )
        jobs = {f"p{i}": ("probe", {"seconds": 0.5}) for i in range(12)}
        jobs["wedged"] = ("probe", {"design": "wedged"})
        policy = RetryPolicy(
            max_retries=2, backoff_s=0.0, timeout_s=2.5, keep_going=True
        )
        with BatchPool(2, policy) as pool:
            done, failed = pool.run(jobs)
        assert set(done) == set(jobs)
        assert failed == {}
        assert done["wedged"]["attempt"] == 2
        assert all(done[f"p{i}"]["attempt"] == 1 for i in range(12))
        telemetry = get_telemetry()
        assert telemetry.timeouts == 1
        assert telemetry.retries == 1
        assert telemetry.worker_respawns == 1


# ----------------------------------------------------------------------
# run-manifest and resume
# ----------------------------------------------------------------------
class TestResume:
    def test_interrupted_matrix_resumes_with_zero_redundant_flows(
        self, fresh_engine, monkeypatch
    ):
        """The acceptance criterion: after an interrupted run, resuming
        performs zero flow runs (and zero period probes) for everything
        that already completed -- telemetry-enforced."""
        configs = ("2D_12T", "3D_9T", "3D_HET")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=cell,design=aes,config=3D_HET,kind=raise,times=1",
        )
        with pytest.raises(FaultInjected):
            run_matrix(
                designs=("aes",), config_names=configs, scale=0.2, seed=90,
            )
        interrupted = get_telemetry()
        assert interrupted.flows_run > 0
        # New process: faults gone, memory cold, disk cache + manifest warm.
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_fault_state()
        clear_memory_caches()
        reset_telemetry()
        matrix = run_matrix(
            designs=("aes",), config_names=configs, scale=0.2, seed=90,
            resume=True,
        )
        assert matrix.ok
        telemetry = get_telemetry()
        assert telemetry.period_probes == 0  # periods came from the manifest
        assert telemetry.flows_run == 1  # only the previously-failed cell
        assert telemetry.disk_hits >= 2  # completed cells reloaded from disk

    def test_manifest_records_progress_and_failures(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=cell,design=aes,config=3D_9T,kind=raise,times=0",
        )
        run_matrix(
            designs=("aes",), config_names=("2D_12T", "3D_9T"), scale=0.2,
            seed=91, target_periods={"aes": 0.9}, policy=FAST,
        )
        key = cache.manifest_key(
            ("aes",), ("2D_12T", "3D_9T"), scale=0.2, seed=91,
            periods={"aes": 0.9},
        )
        manifest = cache.load_manifest(key)
        assert manifest is not None
        assert manifest["completed"] == [["aes", "2D_12T"]]
        assert manifest["complete"] is False
        (failed,) = manifest["failed"]
        assert failed["config"] == "3D_9T"
        assert failed["error_type"] == "FaultInjected"

    def test_complete_run_marks_manifest_complete(self, fresh_engine):
        run_matrix(
            designs=("aes",), config_names=("2D_12T",), scale=0.2, seed=92,
            target_periods={"aes": 0.9},
        )
        key = cache.manifest_key(
            ("aes",), ("2D_12T",), scale=0.2, seed=92, periods={"aes": 0.9}
        )
        manifest = cache.load_manifest(key)
        assert manifest["complete"] is True

    def test_resume_without_manifest_starts_cold(self, fresh_engine):
        matrix = run_matrix(
            designs=("aes",), config_names=("2D_12T",), scale=0.2, seed=93,
            target_periods={"aes": 0.9}, resume=True,
        )
        assert matrix.ok


# ----------------------------------------------------------------------
# corrupt cache writes
# ----------------------------------------------------------------------
class TestCorruptCacheWrite:
    def test_corrupted_entry_is_recovered_on_next_read(
        self, fresh_engine, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", "site=cache_write,entry=result,kind=corrupt,times=1"
        )
        _d, cold = run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=94
        )
        # The write was corrupted; a fresh process must treat it as a
        # miss, rerun the flow, and repair the entry.
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_fault_state()
        clear_memory_caches()
        reset_telemetry()
        _d, warm = run_configuration(
            "aes", "2D_12T", period_ns=0.9, scale=0.2, seed=94
        )
        assert get_telemetry().flows_run == 1  # recomputed, did not crash
        assert warm.row() == cold.row()
        clear_memory_caches()
        reset_telemetry()
        run_configuration("aes", "2D_12T", period_ns=0.9, scale=0.2, seed=94)
        assert get_telemetry().flows_run == 0  # entry healed


class TestMatrixFailureReporting:
    def test_failure_summary_table(self):
        from repro.experiments.runner import EvaluationMatrix

        matrix = EvaluationMatrix(scale=0.2, seed=0)
        matrix.failed[("aes", "3D_HET")] = FailedCell(
            "aes", "3D_HET", "flow", DETERMINISTIC, "PlacementError",
            "overfull", 2,
        )
        matrix.failed_periods["cpu"] = FailedCell(
            "cpu", "*", "period_search", TRANSIENT, "TimeoutError", "hung", 3
        )
        text = matrix.failure_summary()
        assert "aes" in text and "3D_HET" in text and "PlacementError" in text
        assert "cpu" in text and "period_search" in text
        assert not matrix.ok

    def test_empty_summary_when_ok(self):
        from repro.experiments.runner import EvaluationMatrix

        matrix = EvaluationMatrix(scale=0.2, seed=0)
        assert matrix.ok
        assert matrix.failure_summary() == ""
