"""End-to-end contracts of the design-space explorer.

Small real flows (tiny scale, coarse period grid) prove the three perf
layers are *identity-preserving*: prefix-seeded flows byte-match cold
flows, warm reruns and resumes run zero flow stages, and pruning only
ever skips configs a front member provably dominates.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
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
from repro.experiments.dse.space import build_library, generate_lattice
from repro.experiments.telemetry import get_telemetry, reset_telemetry
from repro.integrity.checkpoint import (
    rebind_checkpoint_tier_library,
    rebind_design_tier_library,
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
    form read from disk, in the checkpoint-envelope form, and in the
    snapshot form the stage memo holds."""
    from repro.flow.hetero import run_flow_hetero_3d
    from repro.integrity.checkpoint import design_from_dict, design_to_dict

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
        state = design_from_dict(payload)
        copy = rebind_design_tier_library(state, 1, slow_b)
        assert copy.tier_libs[1] is slow_b and copy.netlist is not state.netlist
        assert state.tier_libs[1].name == slow_a.name
        assert design_to_dict(copy) == rebound

    late = [n for n in sorted(envelopes) if n not in prefix_names]
    assert late, "flow produced no post-prefix checkpoints"
    with pytest.raises(CheckpointError, match="bound to"):
        rebind_tier_library(envelopes[late[-1]]["design"], 1, slow_b)
    with pytest.raises(CheckpointError, match="bound to"):
        rebind_checkpoint_tier_library(envelopes[late[-1]], 1, slow_b)
    with pytest.raises(CheckpointError, match="bound to"):
        rebind_design_tier_library(
            design_from_dict(envelopes[late[-1]]["design"]), 1, slow_b
        )


def test_suffix_reuse_serves_cached_flow_tail(fresh_cache, monkeypatch):
    """Evicting a (config, period) result while keeping the suffix
    cache forces re-evaluation down the tail-key path: only the
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


#: Partitioning's parameter-echo notes, which the reference fingerprint
#: below masks.
_ECHO_NOTES = frozenset({
    "pinned_cells",
    "pinned_area_fraction",
    "pinned_area_cap",
    "fm_balance_tolerance",
})


def _reference_fingerprint(payload: dict) -> str:
    """The tail key's predecessor, kept verbatim as a reference: a
    hash of the partitioned design's checkpoint payload with the
    parameter-echo notes masked out."""
    notes = payload.get("notes")
    if isinstance(notes, dict):
        payload = dict(payload)
        payload["notes"] = {
            k: v for k, v in notes.items()
            if k not in _ECHO_NOTES
        }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_tail_key_groups_configs_like_the_payload_fingerprint():
    """Keying the tail by the partition's inputs (prefix key, slow
    library, tier vector) groups a small lattice's partitioned states
    exactly as hashing the whole partitioned design did."""
    from repro.experiments.dse.search import (
        _PARTITION_STAGE,
        _prefix_cache_key,
        _tail_key,
    )
    from repro.flow.hetero import run_flow_hetero_3d
    from repro.flow.memo import stage_memo
    from repro.integrity.checkpoint import design_to_dict

    spec = tiny_spec(lattice=LatticeSpec(
        slow_tracks=(8, 9), slow_vdd=(0.70, 0.90),
        tier_caps=(0.20, 0.25, 0.275), fm_tolerances=(0.10, 0.12),
    ))
    fast = spec.lattice.fast_library()
    references, keys = [], []
    for period in period_grid(spec.design, spec.period_steps)[1:3]:
        pkey = _prefix_cache_key(spec, period)
        with stage_memo():
            for cfg in generate_lattice(spec.lattice)[0]:
                design, _ = run_flow_hetero_3d(
                    spec.design, fast,
                    build_library(cfg.slow_tracks, cfg.slow_vdd),
                    period_ns=period, scale=spec.scale, seed=spec.seed,
                    utilization=spec.utilization,
                    opt_iterations=spec.opt_iterations,
                    pinning_area_cap=cfg.tier_cap,
                    fm_tolerance=cfg.fm_tolerance,
                    until_stage=_PARTITION_STAGE,
                )
                references.append(
                    (period, _reference_fingerprint(design_to_dict(design)))
                )
                keys.append(_tail_key(pkey, design))

    def groups(labels: list) -> list[list[int]]:
        return sorted(
            [i for i, other in enumerate(labels) if other == label]
            for label in set(labels)
        )

    assert groups(keys) == groups(references)
    # The lattice both collapses configs onto one tail and tells
    # partitions apart.
    assert len(references) > len(set(references)) > 2


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
    """Every row is byte-identical whether flows seed from the stage
    memo, from the disk store (the memo emptied after every config), or
    not at all (``reuse_prefix=False``)."""
    from repro.experiments.dse import search
    from repro.flow.memo import current_memo

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
        "disk", progress=lambda _line: current_memo().clear()
    )
    assert reads, "no flow seeded from the disk store"
    assert disk_tel.prefix_stages_reused == memory_tel.prefix_stages_reused

    cold, cold_tel = rows("cold", replace(spec, reuse_prefix=False))
    assert cold_tel.prefix_stages_reused == 0
    assert memory == disk == cold


#: Two track heights, two supplies and two caps: every step of the
#: partitioning keys sees a pair of configs that differ in it.  (No 30%
#: cap: with or without the memo, one tight-period partition of this
#: tiny design then fails the strict tier-balance check.)
PARTITION_LATTICE = LatticeSpec(
    slow_tracks=(8, 9), slow_vdd=(0.70, 0.90),
    tier_caps=(0.20, 0.275), fm_tolerances=(0.10,),
)


@pytest.mark.parametrize("design,check", [
    ("aes", None),
    ("cpu", None),  # memory macros on the slow tier
    ("aes", "strict"),
])
def test_partition_store_changes_no_flow_result(
    fresh_cache, monkeypatch, design, check
):
    """Rows, and the result of every flow the searches ran, are
    byte-identical with and without the stage memo."""
    from repro.experiments.dse import search

    if check is None:
        monkeypatch.delenv("REPRO_CHECK", raising=False)
    else:
        monkeypatch.setenv("REPRO_CHECK", check)
    spec = tiny_spec(design=design, lattice=PARTITION_LATTICE)
    real_flow = search._flow_at_period

    def run(tag: str) -> tuple[str, dict]:
        flows = {}

        def recording(cfg, explore_spec, period_ns):
            result = real_flow(cfg, explore_spec, period_ns)
            flows[cfg.label, period_ns] = result.to_dict()
            return result

        monkeypatch.setattr(search, "_flow_at_period", recording)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / tag))
        report = explore(spec)
        assert report.ok
        return json.dumps(report.rows, sort_keys=True), flows

    stored = run("store")
    monkeypatch.setattr(search, "stage_memo", nullcontext)
    assert run("cold") == stored


def _partition_spans(spec: ExploreSpec) -> tuple[int, int, int, int]:
    """``(flows, distinct periods, pinning reports, FM partitions)`` of
    one traced cold sweep."""
    from repro.obs import (
        disable_tracing,
        enable_tracing,
        find_spans,
        reset_trace,
        trace_roots,
    )

    reset_trace()
    enable_tracing()
    try:
        assert explore(spec).ok
    finally:
        disable_tracing()
    roots = trace_roots()
    reset_trace()
    flows = find_spans("dse_flow", roots)
    stages = find_spans("partitioning", roots)
    return (
        len(flows),
        len({flow.attrs["period_ns"] for flow in flows}),
        len(find_spans("sta", stages)),
        len(find_spans("fm_partition", stages)),
    )


def test_partition_store_times_each_period_once(fresh_cache, monkeypatch):
    """With the memo, a sweep runs one pinning report per period it
    evaluates and fewer FM partitions than flows; with
    ``reuse_prefix=False`` every flow pays for both."""
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    spec = tiny_spec(lattice=PARTITION_LATTICE)
    flows, periods, reports, partitions = _partition_spans(spec)
    assert reports == periods < flows
    assert partitions < flows

    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / "no-reuse"))
    flows, periods, reports, partitions = _partition_spans(
        replace(spec, reuse_prefix=False)
    )
    assert reports == partitions == flows


def test_partition_store_hit_equals_cold_stage():
    """Post-partition states served from the memo equal cold stages.
    A config differing only in ``slow_vdd`` is a hit on every step (the
    slow-side area vector is compared by content); one differing in the
    tier cap or the track height computes its own pinning or FM."""
    from repro.flow.hetero import run_flow_hetero_3d
    from repro.flow.memo import stage_memo
    from repro.integrity.checkpoint import design_to_dict

    fast = build_library(12, None)
    # A tight period, where the two caps pin different sets.
    period = period_grid("aes", 5)[1]

    def partitioned(slow_tracks, slow_vdd, cap) -> dict:
        design, _ = run_flow_hetero_3d(
            "aes", fast, build_library(slow_tracks, slow_vdd),
            period_ns=period, scale=0.08, opt_iterations=2,
            pinning_area_cap=cap, until_stage="partitioning",
        )
        return design_to_dict(design)

    configs = [(8, 0.70, 0.20), (8, 0.90, 0.20), (8, 0.70, 0.275),
               (9, 0.70, 0.20)]
    cold = [partitioned(*cfg) for cfg in configs]
    assert cold[0]["notes"]["pinned_cells"] != cold[2]["notes"]["pinned_cells"]
    with stage_memo() as memo:
        stored = [partitioned(*configs[0])]
        # two synthesis entries, then slacks, pins and tiers
        entries = len(memo)
        stored.append(partitioned(*configs[1]))
        assert len(memo) == entries == 5
        stored += [partitioned(*cfg) for cfg in configs[2:]]
        assert len(memo) == 8  # a pins + tiers pair, then a tiers entry
    assert len(memo) == 0 and not memo.pinned
    for cold_state, stored_state in zip(cold, stored):
        assert stored_state == cold_state


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


def test_pool_workers_evaluate_under_the_memo(fresh_cache, monkeypatch):
    """``explore(jobs=2)``'s workers fork inside its stage memo block,
    so every config a worker evaluates runs under a memo."""
    import os

    from repro.experiments.dse import search
    from repro.flow.memo import current_memo

    log = fresh_cache / "evaluations.log"
    real = search.evaluate_config

    def spying(cfg, spec, hint_index=None):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {current_memo() is not None}\n")
        return real(cfg, spec, hint_index)

    monkeypatch.setattr(search, "evaluate_config", spying)
    spec = tiny_spec(lattice=LatticeSpec(
        slow_tracks=(8, 9), slow_vdd=(0.70, 0.90),
        tier_caps=(0.25,), fm_tolerances=(0.10,),
    ))
    assert explore(spec, jobs=2).ok
    evaluations = [line.split() for line in log.read_text().splitlines()]
    in_workers = [held for pid, held in evaluations if int(pid) != os.getpid()]
    assert in_workers and set(in_workers) == {"True"}


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
    """Prefix seeding, publishing and the partition's tail key run
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


def test_pruning_skips_are_certified_and_counted(fresh_cache, monkeypatch):
    """Synthetic rows: a candidate whose every in-range neighbor is far
    worse than a front member must be pruned, with the certificate
    recorded; one with any potentially-better neighbor must not."""
    spec = tiny_spec(
        lattice=LatticeSpec(
            slow_tracks=(8,), slow_vdd=(0.66, 0.70, 0.90),
            tier_caps=(0.225, 0.25), fm_tolerances=(0.10,),
        ),
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
    from repro.experiments.dse import search

    monkeypatch.setattr(search, "PRUNE_DISTANCE", 3)
    held = _maybe_prune(candidate, spec, rows, by_label, front)
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
