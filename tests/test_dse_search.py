"""End-to-end contracts of the design-space explorer.

Small real flows (tiny scale, coarse period grid) prove the three perf
layers are *identity-preserving*: prefix-seeded flows byte-match cold
flows, warm reruns and resumes run zero flow stages, and pruning only
ever skips configs a front member provably dominates.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import CheckpointError
from repro.experiments.dse import (
    DseConfig,
    ExploreSpec,
    LatticeSpec,
    ParetoFront,
    explore,
)
from repro.experiments.dse.search import (
    PREFIX_STAGES,
    _maybe_prune,
    _objective_vector,
    load_report,
    period_grid,
)
from repro.experiments.dse.space import build_library
from repro.experiments.telemetry import get_telemetry, reset_telemetry
from repro.integrity.checkpoint import (
    rebind_checkpoint_tier_library,
    rebind_tier_library,
)

TINY = dict(
    design="aes", scale=0.08, opt_iterations=2, period_steps=5,
)


def tiny_spec(**overrides) -> ExploreSpec:
    kw = dict(TINY)
    lattice = overrides.pop("lattice", None) or LatticeSpec(
        slow_tracks=(8,), slow_vdd=(0.70, 0.90),
        tier_caps=(0.25,), fm_tolerances=(0.10,),
    )
    kw.update(overrides)
    return ExploreSpec(lattice=lattice, **kw)


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_telemetry()
    return tmp_path


def test_optimized_front_matches_naive_byte_for_byte(fresh_cache, monkeypatch):
    """Prefix reuse + warm starts + pruning change cost only: the
    Pareto front artifact is byte-identical to the naive explorer's."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / "naive"))
    naive = explore(tiny_spec(
        prune=False, reuse_prefix=False, warm_periods=False,
    ))
    naive_tel = get_telemetry()
    assert naive_tel.flow_stages_run > 0

    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / "opt"))
    reset_telemetry()
    optimized = explore(tiny_spec())
    tel = get_telemetry()
    assert tel.prefix_stages_reused > 0, "second config never reused the prefix"
    # Every reused prefix stage is a stage not executed: the optimized
    # run averages fewer stages per flow.  (Total stages can tie on a
    # 5-point grid, where a warm start may probe one extra period.)
    assert (tel.flow_stages_run / tel.flows_run
            < naive_tel.flow_stages_run / naive_tel.flows_run)
    assert optimized.front_json() == naive.front_json()


def test_warm_rerun_and_resume_run_zero_flow_stages(fresh_cache):
    spec = tiny_spec()
    first = explore(spec)
    assert first.rows and first.ok

    reset_telemetry()
    warm = explore(spec)
    tel = get_telemetry()
    assert tel.flows_run == 0 and tel.flow_stages_run == 0
    assert warm.front_json() == first.front_json()

    reset_telemetry()
    resumed = explore(spec, resume=True)
    tel = get_telemetry()
    assert tel.flows_run == 0 and tel.flow_stages_run == 0
    assert resumed.front_json() == first.front_json()


def test_interrupted_run_resumes_to_identical_front(fresh_cache):
    """Killing a run mid-way (simulated by deleting a manifest row)
    costs exactly the missing config on resume and converges on the
    same front bytes."""
    from repro.experiments import cache
    from repro.experiments.dse.search import _manifest_key

    spec = tiny_spec()
    full = explore(spec)
    assert len(full.rows) == 2

    mkey = _manifest_key(spec)
    manifest = cache.load_manifest(mkey)
    dropped = sorted(manifest["rows"])[0]
    del manifest["rows"][dropped]
    manifest["complete"] = False
    cache.store_manifest(mkey, manifest)

    reset_telemetry()
    resumed = explore(spec, resume=True)
    tel = get_telemetry()
    # The dropped config re-evaluates from the result cache (flows all
    # disk hits), every other config is restored from the manifest.
    assert tel.flow_stages_run == 0
    assert dropped in resumed.rows
    assert resumed.front_json() == full.front_json()


def test_report_mode_reads_without_running(fresh_cache):
    spec = tiny_spec()
    assert load_report(spec) is None
    ran = explore(spec)
    reset_telemetry()
    loaded = load_report(spec)
    tel = get_telemetry()
    assert tel.flows_run == 0
    assert loaded is not None
    assert loaded.front_json() == ran.front_json()
    assert loaded.rows.keys() == ran.rows.keys()


def test_incompatible_configs_reported_never_run(fresh_cache):
    spec = tiny_spec(lattice=LatticeSpec(
        slow_tracks=(8,), slow_vdd=(0.62, 0.90),
        tier_caps=(0.25,), fm_tolerances=(0.10,),
    ))
    report = explore(spec)
    assert len(report.incompatible) == 1
    assert "0.3*V_DDH" in report.incompatible[0]["reason"]
    assert all("0.62" not in label for label in report.rows)


def test_prefix_checkpoint_rebinds_only_when_safe(fresh_cache, tmp_path):
    """The independence claim behind prefix reuse is *enforced*: a
    pre-partition state rebinding to a different slow library succeeds,
    while a post-partition state (instances already on the slow die)
    refuses loudly instead of silently mixing corners -- in the payload
    form the in-memory store uses and in the checkpoint-envelope form."""
    from repro.flow.hetero import run_flow_hetero_3d

    ckpt = tmp_path / "ckpts"
    fast = build_library(12, None)
    slow_a = build_library(8, 0.70)
    slow_b = build_library(8, 0.90)
    run_flow_hetero_3d(
        "aes", fast, slow_a, period_ns=1.2, scale=0.08,
        opt_iterations=2, checkpoint_dir=ckpt,
    )
    envelopes = {
        p.name: json.loads(p.read_text()) for p in ckpt.glob("*.json")
    }
    prefix_names = [
        f"{i:02d}_{stage}.json" for i, stage in enumerate(PREFIX_STAGES)
    ]
    for name in prefix_names:
        payload = envelopes[name]["design"]
        rebound = rebind_tier_library(payload, 1, slow_b)
        assert rebound["tier_libs"]["1"]["name"] == slow_b.name
        assert payload["tier_libs"]["1"]["name"] == slow_a.name
        envelope = rebind_checkpoint_tier_library(envelopes[name], 1, slow_b)
        assert envelope["design"] == rebound
        assert envelope["checksum"] != envelopes[name]["checksum"]

    late = [n for n in sorted(envelopes) if n not in prefix_names]
    assert late, "flow produced no post-prefix checkpoints"
    with pytest.raises(CheckpointError, match="bound to"):
        rebind_tier_library(envelopes[late[-1]]["design"], 1, slow_b)
    with pytest.raises(CheckpointError, match="bound to"):
        rebind_checkpoint_tier_library(envelopes[late[-1]], 1, slow_b)


def test_suffix_reuse_serves_cached_flow_tail(fresh_cache, monkeypatch):
    """Evicting a (config, period) result while keeping the suffix
    cache forces re-evaluation down the fingerprint path: only the
    partitioning stage re-executes, and the tail comes back
    byte-identical from cache."""
    from repro.experiments import cache
    from repro.experiments.dse.search import (
        _flow_at_period,
        _result_cache_key,
    )

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    spec = tiny_spec()
    cfg = DseConfig(8, 0.70, 0.25, 0.10)
    period = period_grid(spec.design, spec.period_steps)[-1]
    cold = _flow_at_period(cfg, spec, period)
    tel = get_telemetry()
    assert tel.suffix_flows_reused == 0
    assert tel.flow_stages_run > 1

    rkey = _result_cache_key(cfg, spec, period)
    (cache.cache_dir() / f"{rkey}.json").unlink()

    reset_telemetry()
    again = _flow_at_period(cfg, spec, period)
    tel = get_telemetry()
    assert tel.suffix_flows_reused == 1
    # The prefix seeded synthesis + pseudo-place, the suffix cache
    # served everything after partitioning: one stage body ran.
    assert tel.flow_stages_run == 1
    assert again.to_dict() == cold.to_dict()


def test_partition_fingerprint_masks_parameter_echoes(tmp_path):
    """Two partitioned states differing only in the cap/fm parameter
    echoes fingerprint identically; any real state difference does not.
    Hashing the live design equals hashing its checkpoint file, so the
    in-memory fingerprint keys the same suffix entries as a reread one."""
    from repro.experiments.dse.search import (
        _PARTITION_STAGE,
        _partition_fingerprint,
    )
    from repro.flow.hetero import run_flow_hetero_3d
    from repro.integrity.checkpoint import (
        design_to_dict,
        read_checkpoint,
    )

    def fingerprint(notes: dict, tiers: list) -> str:
        return _partition_fingerprint({"tiers": tiers, "notes": notes})

    base = {"pinned_area_cap": 0.25, "fm_balance_tolerance": 0.10,
            "utilization_used": 0.82}
    a = fingerprint(base, [0, 1])
    b = fingerprint({**base, "pinned_area_cap": 0.30,
                     "pinned_cells": 5.0}, [0, 1])
    c = fingerprint(base, [1, 0])
    d = fingerprint({**base, "utilization_used": 0.70}, [0, 1])
    assert a == b, "parameter echoes leaked into the fingerprint"
    assert a != c and a != d

    design, _ = run_flow_hetero_3d(
        "aes", build_library(12, None), build_library(8, 0.70),
        period_ns=1.2, scale=0.08, opt_iterations=2,
        checkpoint_dir=tmp_path, until_stage=_PARTITION_STAGE,
    )
    (path,) = tmp_path.glob(f"*_{_PARTITION_STAGE}.json")
    _stage, payload = read_checkpoint(path)
    assert (_partition_fingerprint(design_to_dict(design))
            == _partition_fingerprint(payload))


def _checkpoint_writes(monkeypatch) -> list:
    """Destinations of every atomic checkpoint-file write from now on
    (cache entries are content hashes, not ``NN_stage.json``)."""
    import os
    import re

    written = []
    real = os.replace

    def spy(src, dst, *args, **kwargs):
        if re.fullmatch(r"\d\d_\w+\.json", os.path.basename(str(dst))):
            written.append(str(dst))
        return real(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", spy)
    return written


def test_cold_explore_writes_only_shared_prefix_checkpoints(
    fresh_cache, monkeypatch
):
    """Checkpoint files exist only for other processes: a cold sweep
    keeps every flow's state in memory, writes each prefix stage once
    per prefix key under ``<cache>/dse_prefix/``, reads none back and
    creates no per-flow temp directory."""
    import tempfile

    from repro.experiments import cache
    from repro.experiments.dse import search

    temp_dirs = []
    real_mkdtemp = tempfile.mkdtemp

    def mkdtemp(*args, **kwargs):
        temp_dirs.append((args, kwargs))
        return real_mkdtemp(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    reads = []
    real_read = search.read_checkpoint
    monkeypatch.setattr(
        search, "read_checkpoint",
        lambda path: reads.append(path) or real_read(path),
    )
    written = _checkpoint_writes(monkeypatch)

    report = explore(tiny_spec())
    assert report.ok and get_telemetry().prefix_stages_reused > 0
    root = cache.cache_dir() / "dse_prefix"
    keys = [p for p in root.iterdir() if p.is_dir()]
    assert keys
    assert all(Path(w).parent.parent == root for w in written)
    assert sorted(written) == sorted(
        str(k / f"{i:02d}_{stage}.json")
        for k in keys for i, stage in enumerate(PREFIX_STAGES)
    )
    assert reads == []
    assert temp_dirs == []


def test_rows_identical_whichever_layer_seeds_the_prefix(
    fresh_cache, monkeypatch
):
    """Every row is byte-identical whether flows seed from the
    in-process store, from the disk store (the in-process one emptied
    after every config), or not at all (``reuse_prefix=False``)."""
    from repro.experiments.dse import search

    spec = tiny_spec(lattice=LatticeSpec(
        slow_tracks=(8,), slow_vdd=(0.70, 0.81, 0.90),
        tier_caps=(0.25,), fm_tolerances=(0.10,),
    ))

    def rows(tag: str, spec=spec, **kwargs) -> tuple[str, dict]:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / tag))
        reset_telemetry()
        report = explore(spec, **kwargs)
        assert report.ok
        return json.dumps(report.rows, sort_keys=True), get_telemetry()

    memory, memory_tel = rows("memory")

    reads = []
    real_read = search.read_checkpoint
    monkeypatch.setattr(
        search, "read_checkpoint",
        lambda path: reads.append(path) or real_read(path),
    )
    disk, disk_tel = rows(
        "disk", progress=lambda _line: search._PREFIXES.clear()
    )
    assert reads, "no flow seeded from the disk store"
    assert disk_tel.prefix_stages_reused == memory_tel.prefix_stages_reused

    cold, cold_tel = rows("cold", replace(spec, reuse_prefix=False))
    assert cold_tel.prefix_stages_reused == 0
    assert memory == disk == cold


def test_parallel_sweep_matches_serial_front(fresh_cache, monkeypatch):
    """Pool workers cannot see each other's memory: they share prefix
    states through the disk store, and the front is the serial one."""
    spec = tiny_spec(lattice=LatticeSpec(
        slow_tracks=(8, 9), slow_vdd=(0.70, 0.90),
        tier_caps=(0.25,), fm_tolerances=(0.10,),
    ))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / "serial"))
    serial = explore(spec)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / "parallel"))
    reset_telemetry()
    parallel = explore(spec, jobs=2)
    assert parallel.ok and len(parallel.rows) == 4
    assert get_telemetry().prefix_stages_reused > 0
    assert parallel.front_json() == serial.front_json()


def test_parallel_sweep_survives_a_worker_crash(fresh_cache, monkeypatch):
    """A pool worker that dies mid-sweep is replaced and its config
    rerun: the front is still the serial one."""
    from repro.experiments import faults
    from repro.experiments.resilience import RetryPolicy

    spec = tiny_spec(lattice=LatticeSpec(
        slow_tracks=(8, 9), slow_vdd=(0.70, 0.90),
        tier_caps=(0.25,), fm_tolerances=(0.10,),
    ))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / "serial"))
    serial = explore(spec)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / "parallel"))
    # The claim files make times=1 count across worker processes.
    monkeypatch.setenv("REPRO_FAULTS_STATE", str(fresh_cache / "faults"))
    monkeypatch.setenv("REPRO_FAULTS", "site=worker,kind=exit,times=1")
    faults.reset_fault_state()
    reset_telemetry()
    try:
        parallel = explore(spec, jobs=2, policy=RetryPolicy(backoff_s=0.0))
    finally:
        faults.reset_fault_state()
    assert parallel.ok and len(parallel.rows) == 4
    telemetry = get_telemetry()
    assert telemetry.worker_respawns == 1
    assert telemetry.retries == 1
    assert parallel.front_json() == serial.front_json()


def test_traced_explore_names_its_bookkeeping(fresh_cache, monkeypatch):
    """Prefix seeding, publishing and the partition fingerprint run
    inside spans of their own, so ``repro profile`` attributes them
    instead of leaving them in ``dse_flow`` self time."""
    from repro.experiments import cache
    from repro.obs import (
        disable_tracing,
        enable_tracing,
        find_spans,
        reset_trace,
        trace_roots,
    )

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    reset_trace()
    enable_tracing()
    try:
        explore(tiny_spec())
    finally:
        disable_tracing()
    roots = trace_roots()
    reset_trace()
    flows = find_spans("dse_flow", roots)
    assert flows and len(flows) == get_telemetry().flows_run
    for flow in flows:
        assert len(find_spans("dse_prefix_seed", [flow])) == 1
        assert len(find_spans("dse_fingerprint", [flow])) == 1
    keys = list((cache.cache_dir() / "dse_prefix").iterdir())
    publishes = find_spans("dse_prefix_publish", roots)
    assert len(publishes) == len(keys) * len(PREFIX_STAGES)


def test_pruning_skips_are_certified_and_counted(fresh_cache):
    """Synthetic rows: a candidate whose every in-range neighbor is far
    worse than a front member must be pruned, with the certificate
    recorded; one with any potentially-better neighbor must not."""
    spec = tiny_spec(
        lattice=LatticeSpec(
            slow_tracks=(8,), slow_vdd=(0.66, 0.70, 0.90),
            tier_caps=(0.225, 0.25), fm_tolerances=(0.10,),
        ),
        prune_distance=1,
    )
    good = DseConfig(8, 0.70, 0.25, 0.10)
    bad = DseConfig(8, 0.90, 0.25, 0.10)
    rows = {
        good.label: {"config": good.to_dict(), "period_index": 2,
                     "metrics": {"pdp_pj": 1.0, "ppc": 100.0}},
        bad.label: {"config": bad.to_dict(), "period_index": 2,
                    "metrics": {"pdp_pj": 50.0, "ppc": 1.0}},
    }
    by_label = {lbl: DseConfig.from_dict(r["config"])
                for lbl, r in rows.items()}
    front = ParetoFront(2)
    for lbl, row in rows.items():
        front.add(lbl, _objective_vector(row, spec.objectives))

    candidate = DseConfig(8, 0.90, 0.225, 0.10)  # 1 step from `bad` only
    skip = _maybe_prune(candidate, spec, rows, by_label, front)
    assert skip is not None
    assert skip["dominated_by"] == good.label
    assert skip["neighbors"] == [bad.label]
    assert skip["distance"] == 1

    near_front = DseConfig(8, 0.66, 0.25, 0.10)  # 1 step from `good`
    assert _maybe_prune(near_front, spec, rows, by_label, front) is None

    # Widening the trust radius pulls `good`'s prediction into the
    # consensus bound: the pessimist's min un-certifies the same skip.
    wide = replace(spec, prune_distance=3)
    held = _maybe_prune(candidate, wide, rows, by_label, front)
    assert held is None


def test_period_grid_is_shared_and_deterministic():
    a = period_grid("aes", 9)
    b = period_grid("aes", 9)
    assert a == b
    assert a == sorted(a)
    assert len(set(a)) == len(a)
    with pytest.raises(ValueError):
        period_grid("aes", 1)


def test_spec_env_resolution():
    # Perf toggles stay out of the manifest identity: flipping them
    # must not change which stored run a resume finds.
    on = ExploreSpec(design="aes", prune=True,
                     warm_periods=True, reuse_prefix=True)
    off = ExploreSpec(design="aes", prune=False,
                      warm_periods=False, reuse_prefix=False)
    assert on.key_fields() == off.key_fields()
