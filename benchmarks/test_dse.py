"""Design-space explorer speedup guards (naive vs optimized sweep).

One 200-config lattice (2 slow-die track heights x 5 supplies x 5
pinning caps x 4 FM tolerances) is explored twice from cold caches:

- **naive**: dominance pruning, stage-prefix reuse and warm period
  starts all disabled -- every config pays a full bisection period
  search of complete flows.  This run doubles as the exhaustive
  baseline for the byte-identity check.
- **optimized**: all three layers on (the ``repro explore`` defaults).

The guards are the PR's acceptance bar: >= 3x fewer flow-stage
executions, >= 2x wall clock, and a byte-identical Pareto front --
the optimizations are pure cost removal, never an answer change.

Measurements land in ``bench-results/BENCH_dse.json`` (gitignored).
Runs under ``benchmarks/`` only, never in the tier-1 suite.
"""

from __future__ import annotations

import os
import tempfile
import time

from conftest import emit, record_bench

from repro.experiments.dse import ExploreSpec, LatticeSpec, explore
from repro.experiments.telemetry import get_telemetry, reset_telemetry

SCALE = 0.08
SEED = 0
OPT_ITERATIONS = 2
PERIOD_STEPS = 17
LATTICE = LatticeSpec(
    slow_tracks=(8, 9),
    slow_vdd=(0.66, 0.70, 0.75, 0.81, 0.90),
    tier_caps=(0.20, 0.225, 0.25, 0.275, 0.30),
    fm_tolerances=(0.08, 0.10, 0.12, 0.15),
)  # 2 * 5 * 5 * 4 = 200 configs

MIN_STAGE_RATIO = 3.0
MIN_WALL_RATIO = 2.0


def _spec(**overrides) -> ExploreSpec:
    return ExploreSpec(
        design="aes",
        scale=SCALE,
        seed=SEED,
        lattice=LATTICE,
        opt_iterations=OPT_ITERATIONS,
        period_steps=PERIOD_STEPS,
        **overrides,
    )


def _run(**overrides):
    """One exploration from a cold, private cache; returns
    ``(report, telemetry_snapshot, wall_seconds)``."""
    old_dir = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-bench-dse-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        reset_telemetry()
        try:
            t0 = time.perf_counter()
            report = explore(_spec(**overrides))
            wall = time.perf_counter() - t0
        finally:
            if old_dir is not None:
                os.environ["REPRO_CACHE_DIR"] = old_dir
            else:
                os.environ.pop("REPRO_CACHE_DIR", None)
    return report, get_telemetry().snapshot(), wall


def test_dse_explorer_speedup():
    naive_report, naive_tel, naive_wall = _run(
        prune=False, reuse_prefix=False, warm_periods=False,
    )
    assert naive_report.ok, "naive exploration quarantined configs"
    assert len(naive_report.rows) == LATTICE.size

    opt_report, opt_tel, opt_wall = _run()
    assert opt_report.ok, "optimized exploration quarantined configs"

    stage_ratio = naive_tel["flow_stages_run"] / max(
        1, opt_tel["flow_stages_run"]
    )
    wall_ratio = naive_wall / opt_wall
    probe_ratio = naive_tel["period_probes"] / max(
        1, opt_tel["period_probes"]
    )
    identical = naive_report.front_json() == opt_report.front_json()

    record_bench(
        "BENCH_dse.json",
        "explorer",
        {
            "naive": {
                "wall_s": round(naive_wall, 2),
                "flows_run": naive_tel["flows_run"],
                "flow_stages_run": naive_tel["flow_stages_run"],
                "period_probes": naive_tel["period_probes"],
            },
            "optimized": {
                "wall_s": round(opt_wall, 2),
                "flows_run": opt_tel["flows_run"],
                "flow_stages_run": opt_tel["flow_stages_run"],
                "period_probes": opt_tel["period_probes"],
                "prefix_stages_reused": opt_tel["prefix_stages_reused"],
                "suffix_flows_reused": opt_tel["suffix_flows_reused"],
                "configs_pruned": opt_tel["dse_pruned"],
                "configs_evaluated": len(opt_report.rows),
            },
            "stage_ratio": round(stage_ratio, 2),
            "wall_ratio": round(wall_ratio, 2),
            "probe_ratio": round(probe_ratio, 2),
            "front_size": len(opt_report.front_ids),
            "front_byte_identical": identical,
        },
        sweep={
            "design": "aes",
            "scale": SCALE,
            "seed": SEED,
            "configs": LATTICE.size,
            "period_steps": PERIOD_STEPS,
            "opt_iterations": OPT_ITERATIONS,
        },
    )
    emit(
        "DSE explorer, %d-config sweep (aes, scale %.2f)"
        % (LATTICE.size, SCALE),
        f"naive      {naive_wall:7.1f} s, "
        f"{naive_tel['flow_stages_run']:6d} flow stages, "
        f"{naive_tel['period_probes']:4d} probes\n"
        f"optimized  {opt_wall:7.1f} s, "
        f"{opt_tel['flow_stages_run']:6d} flow stages, "
        f"{opt_tel['period_probes']:4d} probes "
        f"({opt_tel['prefix_stages_reused']} prefix stages reused, "
        f"{opt_tel['suffix_flows_reused']} flow tails reused, "
        f"{opt_tel['dse_pruned']} configs pruned)\n"
        f"stage ratio {stage_ratio:.2f}x (guard >= {MIN_STAGE_RATIO:.0f}x), "
        f"wall ratio {wall_ratio:.2f}x (guard >= {MIN_WALL_RATIO:.0f}x)\n"
        f"front       {len(opt_report.front_ids)} member(s), "
        f"byte-identical: {identical}",
    )
    assert identical, "optimized front diverged from the exhaustive baseline"
    assert opt_tel["prefix_stages_reused"] > 0, "prefix store never used"
    assert opt_tel["suffix_flows_reused"] > 0, "flow-tail reuse never fired"
    assert opt_tel["dse_pruned"] > 0, "dominance pruning never fired"
    assert stage_ratio >= MIN_STAGE_RATIO, (
        f"flow-stage ratio {stage_ratio:.2f}x below"
        f" {MIN_STAGE_RATIO:.0f}x guard"
    )
    assert wall_ratio >= MIN_WALL_RATIO, (
        f"wall-clock ratio {wall_ratio:.2f}x below"
        f" {MIN_WALL_RATIO:.0f}x guard"
    )
