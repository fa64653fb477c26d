"""Batch explorer: prefix reuse, warm period searches, pruning, resume.

One exploration pushes every runnable lattice config through a
per-config max-frequency search plus a final evaluation, against three
compounding cost reducers:

1. **Stage-prefix reuse.**  Synthesis and pseudo-place consume only
   ``(design, scale, seed, fast library, period, utilization)`` -- not
   the slow library, tier cap, or FM tolerance.  Their state is
   therefore computed once per *prefix key* (a content hash of exactly
   those fields) and re-slotted into every later config's flow via
   :func:`~repro.integrity.checkpoint.rebind_design_tier_library`.
   Within one :func:`explore` call it lives in the stage memo
   (:mod:`repro.flow.memo`): one snapshot (a structural copy) of the
   deepest prefix stage per key, and each flow resumes from a fresh
   copy of it.  The first computation of a key also writes both prefix
   stages as checkpoints under ``<cache>/dse_prefix/<key>/``, read
   (and re-slotted by
   :func:`~repro.integrity.checkpoint.rebind_tier_library`) when the
   memo has no entry (pool workers, later runs).  Reuse is counted in
   ``telemetry.prefix_stages_reused``; a fully warm sweep re-executes
   zero prefix stages.

2. **Warm-started period searches.**  Periods live on a shared
   geometric grid (:func:`period_grid`), so every config's search is a
   boundary search over grid indices
   (:func:`grid_boundary_search`) -- and the nearest already-evaluated
   lattice neighbor's index seeds it, collapsing the usual
   ``log2(steps)`` bisection to 1-2 probes.  Under a monotone
   pass/fail predicate the warm result is provably identical to the
   cold one (property-tested); sharing the grid is also what lets
   *different* configs share prefix checkpoints, since the prefix key
   contains the probe period.

   The same independence argument also runs *forward*: partitioning is
   the only stage the tier-cap and FM-tolerance axes feed, so each
   evaluation first runs through partitioning only (``until_stage``),
   keys the tail by the partition's inputs -- the prefix key, the slow
   library and the tier vector -- and serves the entire post-partition
   tail from the ``dse_suffix`` cache when any earlier config produced
   the same partition -- distinct (cap, fm) settings collapse onto far
   fewer distinct partitions.  On a miss the tail continues from the
   same in-memory design; no per-flow checkpoint is written.  Exact by
   construction; counted in ``telemetry.suffix_flows_reused``.

   Synthesis and partitioning are shared through the same memo
   (:mod:`repro.flow.memo`): one netlist generation per sweep, and the
   pseudo-3-D cell slacks, the pinned set and the bin-FM tier
   assignment each keyed by exactly what their step reads.  Configs
   that differ only in the slow die's supply share all three
   partitioning steps; the timing report runs once per prefix state.

3. **Dominance pruning.**  Before evaluating a config, its objective
   vector is lower-bounded from every evaluated lattice neighbor in
   range: each predicts the candidate as its own vector relaxed by the
   per-step optimism margin (:data:`PRUNE_MARGINS`), and the
   componentwise *minimum* of the predictions is the bound -- sound as
   soon as any one neighbor's smoothness assumption holds, which is
   what keeps configs across a partition-flip cliff safe.  If a front
   member is <= that bound everywhere and < somewhere
   (:meth:`~repro.experiments.dse.pareto.ParetoFront.certifies_skip`),
   the config cannot enter the front and is skipped -- logged with the
   bound and the dominating point, counted in ``telemetry.dse_pruned``,
   never silent.

Every flow evaluation is content-addressed in the on-disk cache, and a
run-manifest records completed rows per wave, so an interrupted
exploration resumes (``repro explore --resume``) with zero redundant
flow runs and a byte-identical final front.

:class:`ExploreSpec` switches each layer off for one run (``prune``,
``reuse_prefix``, ``warm_periods``; ``repro explore
--no-prune/--no-reuse/--no-warm``) without changing any row.  Tail
and partition reuse belong to the prefix layer; tail reuse is also off
whenever ``$REPRO_CHECK`` enables stage-boundary checks, the one
consumer of the parameter-echo notes the tail key leaves out.
:data:`PRUNE_DISTANCE` is the consensus radius of pruning: every
evaluated config within this many lattice steps contributes a
prediction to the componentwise-min bound.  Because the
bound is a minimum, widening the radius only
*loosens* it -- extra neighbors can veto a skip, never enable one -- so
larger values trade pruning yield for extra safety near metric cliffs.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError
from repro.experiments import cache
from repro.experiments.dse.pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    ParetoFront,
    pareto_mask,
)
from repro.experiments.dse.space import (
    DseConfig,
    LatticeSpec,
    build_library,
    generate_lattice,
)
from repro.experiments.faults import inject
from repro.experiments.resilience import (
    PoolUnavailable,
    RetryPolicy,
    call_with_retry,
    settle_pool_job,
)
from repro.experiments.telemetry import count, get_telemetry, timed_stage
from repro.flow.design import Design
from repro.flow.hetero import FAST_TIER, SLOW_TIER, run_flow_hetero_3d
from repro.flow.memo import current_memo, stage_memo
from repro.flow.report import FlowResult
from repro.integrity.contracts import CheckMode, current_mode
from repro.integrity.checkpoint import (
    checkpoint_path,
    design_from_dict,
    read_checkpoint,
    rebind_design_tier_library,
    rebind_tier_library,
    write_checkpoint,
)
from repro.log import get_logger
from repro.obs import emit_metric, span

__all__ = [
    "ExploreReport",
    "ExploreSpec",
    "evaluate_config",
    "explore",
    "grid_boundary_search",
    "load_report",
    "period_grid",
]

_log = get_logger("dse")

#: Stages whose output is independent of every per-config axis (slow
#: library, tier cap, FM tolerance) -- the shareable flow prefix, in
#: stage order.  The re-slot guard (``rebind_tier_library`` and
#: ``rebind_design_tier_library``) enforces the independence claim at
#: reuse time.
PREFIX_STAGES = ("synthesis", "pseudo_place")

#: Partitioning is the last stage that reads the tier cap / FM
#: tolerance axes; everything after it is a pure function of the
#: partitioned design state plus ``(period, utilization,
#: opt_iterations, seed)``.  That makes the whole flow *tail* reusable
#: across configs whose partitions collapse to the same state -- keyed
#: by the partition's inputs (:func:`_tail_key`).
_PARTITION_STAGE = "partitioning"
_SUFFIX_RESUME = "placement_3d"

#: The grid widens the 12T sweep bracket upward: low-voltage slow dies
#: can need more relaxed periods than the fast-library search ever saw.
_GRID_WIDEN = 1.5

#: Metrics copied into every report row (objectives are added on top).
_ROW_METRICS = (
    "frequency_ghz",
    "wns_ns",
    "total_power_mw",
    "pdp_pj",
    "die_cost_1e6",
    "ppc",
    "wirelength_mm",
)


#: Per-step optimism of the pruning lower-bound predictor, one margin
#: per lattice axis in ``(slow_tracks, slow_vdd, tier_cap,
#: fm_tolerance)`` order: any neighbor may underestimate the candidate
#: by up to 25% per lattice step before a skip becomes unsound.
PRUNE_MARGINS = (0.25, 0.25, 0.25, 0.25)

#: Consensus radius of pruning, in lattice steps.
PRUNE_DISTANCE = 1


@dataclass(frozen=True)
class ExploreSpec:
    """Everything one exploration depends on (picklable for workers)."""

    design: str
    scale: float = 0.4
    seed: int = 0
    lattice: LatticeSpec = field(default_factory=LatticeSpec)
    objectives: tuple[Objective, ...] = DEFAULT_OBJECTIVES
    opt_iterations: int = 4
    utilization: float = 0.82
    period_steps: int = 17
    prune: bool = True
    reuse_prefix: bool = True
    warm_periods: bool = True

    def key_fields(self) -> dict:
        """Fields that shape the run-manifest identity.

        The perf toggles stay out: pruning/reuse/warm starts change how
        much work runs, never what any evaluated row contains, so a
        resumed run may legally flip them.
        """
        return {
            "design": self.design,
            "scale": self.scale,
            "seed": self.seed,
            "lattice": self.lattice.to_dict(),
            "objectives": [o.label for o in self.objectives],
            "opt_iterations": self.opt_iterations,
            "utilization": self.utilization,
            "period_steps": self.period_steps,
        }


# ----------------------------------------------------------------------
# period grid + boundary search
# ----------------------------------------------------------------------
def period_grid(design: str, steps: int) -> list[float]:
    """Shared geometric period grid for one design.

    Sharing a *discrete* grid across every config is load-bearing twice:
    probe periods coincide across configs (so prefix checkpoints keyed
    by period are actually shared), and a warm-started search lands on
    exactly the periods a cold one would probe.
    """
    from repro.experiments.runner import _SWEEP_BOUNDS

    lo, hi = _SWEEP_BOUNDS[design]
    hi *= _GRID_WIDEN
    if steps < 2:
        raise ValueError("period grid needs at least 2 steps")
    ratio = hi / lo
    return [
        round(lo * ratio ** (i / (steps - 1)), 6) for i in range(steps)
    ]


def grid_boundary_search(n: int, passes, hint: int | None = None):
    """Minimal grid index whose probe passes; ``(index, probes)``.

    ``passes(i) -> bool`` must be monotone (False...False True...True)
    for the contract "returns the first passing index, or ``n - 1``
    when nothing passes"; under that assumption the result is identical
    for every ``hint`` -- including ``None`` (cold bisection) -- which
    the property tests pin.  A good hint (the neighbor config's answer)
    costs 1-2 probes; a bad one degrades gracefully to galloping +
    bisection, never worse than O(log n).
    """
    if n < 1:
        raise ValueError("empty period grid")
    probes = 0
    known: dict[int, bool] = {}

    def probe(i: int) -> bool:
        nonlocal probes
        if i not in known:
            probes += 1
            known[i] = bool(passes(i))
        return known[i]

    lo, hi = -1, n - 1  # invariant: lo failed (or virtual), answer in (lo, hi]
    if hint is not None and 0 <= hint < n:
        if probe(hint):
            if hint == 0 or not probe(hint - 1):
                return hint, probes
            # The boundary sits below the hint: gallop down.
            hi, step = hint - 1, 2
            while hi > 0:
                i = hint - step
                if i <= 0:
                    break
                if not probe(i):
                    lo = i
                    break
                hi = i
                step *= 2
        else:
            # The boundary sits above the hint: gallop up.
            lo, step = hint, 1
            while True:
                i = lo + step
                if i >= n - 1:
                    break
                if probe(i):
                    hi = i
                    break
                lo = i
                step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return hi, probes


# ----------------------------------------------------------------------
# cached flow evaluation with prefix reuse
# ----------------------------------------------------------------------
def _flow_key_fields(spec: ExploreSpec) -> dict:
    lat = spec.lattice
    return {
        "design": spec.design,
        "scale": spec.scale,
        "seed": spec.seed,
        "fast_tracks": lat.fast_tracks,
        "fast_vdd": lat.fast_vdd,
        "utilization": spec.utilization,
        "opt_iterations": spec.opt_iterations,
    }


def _result_cache_key(cfg: DseConfig, spec: ExploreSpec, period_ns: float) -> str:
    return cache.cache_key(
        "dse_result", period_ns=period_ns,
        **_flow_key_fields(spec), **cfg.key_fields(),
    )


def _prefix_cache_key(spec: ExploreSpec, period_ns: float) -> str:
    """Content hash of exactly the fields the prefix stages consume."""
    return cache.cache_key(
        "dse_prefix", period_ns=period_ns, **_flow_key_fields(spec)
    )


def _prefix_root() -> Path:
    return cache.cache_dir() / "dse_prefix"


def _tail_key(prefix_key: str, design: Design) -> str:
    """Content hash of what the post-partition tail consumes: the
    prefix state (``prefix_key``), the slow library, and the tier
    vector in instance order.

    Partitioning changes only the tiers, the remap of the slow tier to
    its library (a function of tier and library) and four notes that
    echo the cap/fm parameters, which no flow stage reads (only the
    stage-boundary checks do, and tail reuse is off whenever they are
    on).  Deliberately *not* keyed on the config axes -- the collapse
    of distinct (cap, fm) settings onto one partition is the entire
    savings."""
    slow = design.library_for_tier(SLOW_TIER)
    tiers = bytes(inst.tier for inst in design.netlist.instances.values())
    return cache.cache_key(
        "dse_suffix", prefix=prefix_key,
        slow_library=[slow.name, slow.tracks, slow.vdd_v],
        tiers=hashlib.sha256(tiers).hexdigest(),
    )


def _read_prefix(store: Path) -> tuple[int, dict] | None:
    """The deepest readable prefix checkpoint under ``store`` as
    ``(stage index, payload)``; a corrupt file falls back to the
    shallower stage."""
    for index in range(len(PREFIX_STAGES) - 1, -1, -1):
        path = checkpoint_path(store, index, PREFIX_STAGES[index])
        if not path.exists():
            continue
        try:
            _stage, payload = read_checkpoint(path)
        except CheckpointError as exc:
            _log.warning(
                "dse prefix %s unusable (%s); trying an earlier stage",
                path, exc,
            )
            continue
        return index, payload
    return None


def _seed_prefix(key: str, tier_libs: dict) -> tuple[int, Design | None]:
    """``(stages_reused, design)``: the deepest stored prefix state of
    ``key`` -- a copy of the stage memo's snapshot, else loaded from its
    checkpoints (and snapshotted into the memo) -- re-slotted for this
    config's slow library, or ``(0, None)``.  An unusable entry degrades
    to a cold start, never to a design bound to the wrong cells."""
    memo = current_memo()
    mkey = ("dse_prefix", key)
    entry = memo.get(mkey) if memo is not None else None
    slow_lib = tier_libs[SLOW_TIER]
    try:
        if entry is not None:
            index, state = entry
            design = rebind_design_tier_library(state, SLOW_TIER, slow_lib)
        else:
            entry = _read_prefix(_prefix_root() / key)
            if entry is None:
                return 0, None
            index, payload = entry
            design = design_from_dict(
                rebind_tier_library(payload, SLOW_TIER, slow_lib), tier_libs
            )
            if memo is not None:
                memo.put(mkey, (index, design.copy()))
    except CheckpointError as exc:
        _log.warning(
            "dse prefix %s/%s unusable (%s); running the prefix cold",
            key[:12], PREFIX_STAGES[index], exc,
        )
        if memo is not None:
            memo.pop(mkey, None)
        return 0, None
    return index + 1, design


def _publish_prefix(key: str, index: int, design: Design) -> None:
    """Record the state after prefix stage ``index``.

    The checkpoint file is written only when absent; concurrent
    publishers of one key write byte-identical content (the flow is
    deterministic) under per-process temp names, so last-wins is safe.
    Best-effort like every cache write.  The deepest stage also goes
    into the stage memo, as a snapshot (:meth:`Design.copy`).
    """
    root = _prefix_root() / key
    stage = PREFIX_STAGES[index]
    if not checkpoint_path(root, index, stage).exists():
        try:
            write_checkpoint(root, index, stage, design)
        except OSError as exc:
            _log.warning("dse prefix publish failed for %s: %s", key, exc)
    memo = current_memo()
    if memo is not None and index == len(PREFIX_STAGES) - 1:
        memo.put(("dse_prefix", key), (index, design.copy()))


def _flow_at_period(
    cfg: DseConfig, spec: ExploreSpec, period_ns: float
) -> FlowResult:
    """One (config, period) evaluation: cache, prefix-reuse, run, store."""
    rkey = _result_cache_key(cfg, spec, period_ns)
    if cache.cache_enabled():
        result = cache.load_result(rkey)
        if result is not None:
            count("disk_hits")
            return result
        count("disk_misses")

    fast_lib = spec.lattice.fast_library()
    slow_lib = build_library(cfg.slow_tracks, cfg.slow_vdd)
    flow = partial(
        run_flow_hetero_3d, spec.design, fast_lib, slow_lib,
        period_ns=period_ns,
        scale=spec.scale,
        seed=spec.seed,
        utilization=spec.utilization,
        opt_iterations=spec.opt_iterations,
        pinning_area_cap=cfg.tier_cap,
        fm_tolerance=cfg.fm_tolerance,
    )
    meta = {"design": spec.design, "dse": cfg.label, "period_ns": period_ns}
    with timed_stage(
        "dse_flow", design=spec.design, config=cfg.label, period_ns=period_ns
    ), inject("cell", design=spec.design, config=cfg.label):
        if spec.reuse_prefix and cache.cache_enabled():
            result = _flow_reusing(
                flow, spec, period_ns,
                {FAST_TIER: fast_lib, SLOW_TIER: slow_lib}, meta,
            )
        else:
            _design, result = flow()
        count("flows_run")
    if cache.cache_enabled():
        cache.store_result(rkey, result, meta=meta)
    return result


def _flow_reusing(
    flow, spec: ExploreSpec, period_ns: float, tier_libs: dict, meta: dict
) -> FlowResult:
    """Run one flow through the shared prefix states and the suffix cache.

    The design stays in memory from stage to stage: the flow stops
    after each prefix stage it has to compute (to publish it) and after
    partitioning (to key its tail), then continues from the same
    object.
    """
    pkey = _prefix_cache_key(spec, period_ns)
    with span("dse_prefix_seed"):
        seeded, design = _seed_prefix(pkey, tier_libs)
    for index in range(seeded, len(PREFIX_STAGES)):
        stage = PREFIX_STAGES[index]
        design, _ = flow(design=design, from_stage=stage, until_stage=stage)
        with span("dse_prefix_publish", stage=stage):
            _publish_prefix(pkey, index, design)

    # Suffix reuse is sound only while the stage-boundary checks are
    # off: they read the parameter-echo notes the tail key leaves out
    # (see _tail_key).
    use_suffix = current_mode(None) is CheckMode.OFF
    resume = _PARTITION_STAGE
    result = skey = None
    if use_suffix:
        # Stop after partitioning (the only stage the cap/fm axes
        # feed), key the partitioned state by its inputs, and serve the
        # whole tail from cache when another config already produced it.
        design, _ = flow(
            design=design, from_stage=resume, until_stage=_PARTITION_STAGE
        )
        with span("dse_fingerprint"):
            skey = _tail_key(pkey, design)
        result = cache.load_result(skey)
        resume = _SUFFIX_RESUME
    if result is not None:
        count("suffix_flows_reused")
        emit_metric("suffix_flows_reused", 1)
    else:
        _design, result = flow(design=design, from_stage=resume)
        if skey is not None:
            cache.store_result(skey, result, meta=meta)
    if seeded:
        count("prefix_stages_reused", seeded)
        emit_metric("prefix_stages_reused", seeded)
    return result


def evaluate_config(
    cfg: DseConfig, spec: ExploreSpec, hint_index: int | None = None
) -> dict:
    """Full evaluation of one config: period search + metrics row."""
    grid = period_grid(spec.design, spec.period_steps)
    # Re-import to keep one source of truth for the WNS acceptance band.
    from repro.experiments.runner import _WNS_TOLERANCE

    memo: dict[int, FlowResult] = {}

    def result_at(i: int) -> FlowResult:
        if i not in memo:
            memo[i] = _flow_at_period(cfg, spec, grid[i])
        return memo[i]

    def passes(i: int) -> bool:
        count("period_probes")
        result = result_at(i)
        return result.wns_ns >= -_WNS_TOLERANCE * grid[i]

    with timed_stage("dse_config", design=spec.design, config=cfg.label):
        hint = hint_index if spec.warm_periods else None
        index, probes = grid_boundary_search(len(grid), passes, hint=hint)
        emit_metric("period_probes", probes)
        result = result_at(index)

    metrics = {name: float(getattr(result, name)) for name in _ROW_METRICS}
    for objective in spec.objectives:
        if objective.metric not in metrics:
            try:
                metrics[objective.metric] = float(
                    getattr(result, objective.metric)
                )
            except (AttributeError, TypeError) as exc:
                raise ValueError(
                    f"objective metric {objective.metric!r} is not a"
                    f" numeric FlowResult field"
                ) from exc
    return {
        "label": cfg.label,
        "config": cfg.to_dict(),
        "period_ns": grid[index],
        "period_index": index,
        "probes": probes,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------
def _objective_vector(row: dict, objectives) -> tuple[float, ...]:
    return tuple(
        o.to_min(row["metrics"][o.metric]) for o in objectives
    )


def _compute_front(rows: dict, objectives) -> list[str]:
    """Final front over every evaluated row -- label-sorted, so the
    result is independent of evaluation order, interruption points,
    parallelism, and which configs pruning skipped (soundness means
    skipped configs could never have entered it)."""
    labels = sorted(rows)
    if not labels:
        return []
    points = np.array(
        [_objective_vector(rows[label], objectives) for label in labels]
    )
    mask = pareto_mask(points)
    return [label for label, keep in zip(labels, mask) if keep]


def _nearest_evaluated(
    cfg: DseConfig, by_label: dict[str, DseConfig], spec: ExploreSpec
) -> tuple[str, int] | None:
    best: tuple[int, str] | None = None
    for label, other in by_label.items():
        dist = spec.lattice.distance(cfg, other)
        if best is None or dist < best[0]:
            best = (dist, label)
            if dist == 1:
                break  # cannot do better on a lattice
    if best is None:
        return None
    return best[1], best[0]


def _optimism(spec: ExploreSpec, a: DseConfig, b: DseConfig) -> float:
    """Total prediction optimism between two lattice points: per-axis
    margin times per-axis step count, summed.  Anisotropic on purpose
    -- see :data:`PRUNE_MARGINS`."""
    ia = spec.lattice.axis_indices(a)
    ib = spec.lattice.axis_indices(b)
    return sum(
        m * abs(x - y) for m, x, y in zip(PRUNE_MARGINS, ia, ib)
    )


def _maybe_prune(
    cfg: DseConfig,
    spec: ExploreSpec,
    rows: dict[str, dict],
    by_label: dict[str, DseConfig],
    front: ParetoFront,
) -> dict | None:
    """Skip record when the config provably cannot enter the front.

    Every evaluated config within :data:`PRUNE_DISTANCE` lattice steps
    predicts a lower bound for the candidate: its own objective vector
    relaxed by the per-axis optimism of the path between them.  The
    candidate's bound is the *componentwise minimum* over all such
    predictions -- a pessimist's consensus.  ``min(e_1..e_k)`` is a
    true lower bound as soon as *any one* ``e_j`` is, so the skip is
    sound whenever at least one nearby neighbor's smoothness assumption
    holds -- which is what protects configs sitting across a metric
    cliff (a partition flip): their good-side neighbors drag the bound
    down and the certificate fails.  Only a front member that dominates
    the combined bound certifies the skip.
    """
    used: list[tuple[int, str]] = []
    bound: list[float] | None = None
    for label, other in by_label.items():
        dist = spec.lattice.distance(cfg, other)
        if dist > PRUNE_DISTANCE:
            continue
        optimism = _optimism(spec, cfg, other)
        vector = _objective_vector(rows[label], spec.objectives)
        estimate = [v - optimism * abs(v) for v in vector]
        used.append((dist, label))
        bound = (
            estimate if bound is None
            else [min(b, e) for b, e in zip(bound, estimate)]
        )
    if bound is None:
        return None
    certificate = front.certifies_skip(tuple(bound))
    if certificate is None:
        return None
    dominated_by, dom_vector = certificate
    used.sort()
    return {
        "reason": "dominance",
        "neighbors": [label for _, label in used],
        "distance": used[0][0],
        "lower_bound": list(bound),
        "dominated_by": dominated_by,
        "dominating_vector": list(dom_vector),
    }


@dataclass
class ExploreReport:
    """Everything one exploration produced (JSON-serializable)."""

    spec_fields: dict
    rows: dict[str, dict]
    skipped: dict[str, dict]
    incompatible: list[dict]
    failed: dict[str, dict]
    front_ids: list[str]
    objectives: list[str]
    telemetry: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed

    def front_rows(self) -> list[dict]:
        """Front rows with volatile perf counters stripped: ``probes``
        varies with warm starts and cache state without changing any
        result, so it cannot participate in the identity artifact."""
        rows = []
        for label in self.front_ids:
            row = dict(self.rows[label])
            row.pop("probes", None)
            rows.append(row)
        return rows

    def front_json(self) -> str:
        """Canonical serialization of the front -- the byte-identity
        artifact the benchmark and CI compare across run modes."""
        return json.dumps(
            self.front_rows(), sort_keys=True, separators=(",", ":")
        )

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_fields,
            "rows": self.rows,
            "skipped": self.skipped,
            "incompatible": self.incompatible,
            "failed": self.failed,
            "front": self.front_ids,
            "objectives": self.objectives,
            "telemetry": self.telemetry,
        }

    @staticmethod
    def from_dict(d: dict) -> "ExploreReport":
        return ExploreReport(
            spec_fields=dict(d.get("spec", {})),
            rows=dict(d.get("rows", {})),
            skipped=dict(d.get("skipped", {})),
            incompatible=list(d.get("incompatible", [])),
            failed=dict(d.get("failed", {})),
            front_ids=list(d.get("front", [])),
            objectives=list(d.get("objectives", [])),
            telemetry=dict(d.get("telemetry", {})),
        )

    def render(self, *, top: int | None = None) -> str:
        """ASCII Pareto report (``repro explore --report``)."""
        lines = [
            f"explored {len(self.rows)} config(s),"
            f" pruned {len(self.skipped)},"
            f" incompatible {len(self.incompatible)},"
            f" failed {len(self.failed)}",
            f"Pareto front ({' / '.join(self.objectives)}):"
            f" {len(self.front_ids)} member(s)",
            f"{'config':28s} {'period':>7s} {'freq':>6s} {'PDP':>9s}"
            f" {'PPC':>12s} {'power':>9s} {'cost':>8s}",
        ]
        ranked = sorted(
            self.front_ids,
            key=lambda l: self.rows[l]["metrics"].get("pdp_pj", 0.0),
        )
        if top is not None:
            ranked = ranked[:top]
        for label in ranked:
            row = self.rows[label]
            m = row["metrics"]
            lines.append(
                f"{label:28s} {row['period_ns']:7.3f}"
                f" {m.get('frequency_ghz', 0.0):6.2f}"
                f" {m.get('pdp_pj', 0.0):9.3f}"
                f" {m.get('ppc', 0.0):12.1f}"
                f" {m.get('total_power_mw', 0.0):9.3f}"
                f" {m.get('die_cost_1e6', 0.0):8.4f}"
            )
        if self.skipped:
            lines.append("pruned (dominance-certified, never evaluated):")
            for label in sorted(self.skipped):
                rec = self.skipped[label]
                lines.append(
                    f"  {label:28s} dominated by {rec['dominated_by']}"
                    f" (bound from {len(rec['neighbors'])} neighbor(s),"
                    f" nearest {rec['distance']} step(s))"
                )
        if self.failed:
            lines.append("failed:")
            for label in sorted(self.failed):
                rec = self.failed[label]
                lines.append(
                    f"  {label:28s} {rec.get('error_type', '?')}:"
                    f" {rec.get('message', '')}"
                )
        return "\n".join(lines)


def _manifest_key(spec: ExploreSpec) -> str:
    return cache.cache_key("dse_manifest", **spec.key_fields())


def _store_manifest(
    key: str, spec: ExploreSpec, rows, skipped, failed, *, complete: bool
) -> None:
    cache.store_manifest(
        key,
        {
            "spec": spec.key_fields(),
            "rows": rows,
            "skipped": skipped,
            "failed": failed,
            "complete": complete,
        },
    )


def load_report(spec: ExploreSpec) -> ExploreReport | None:
    """Rebuild the report of a stored run without evaluating anything.

    Powers ``repro explore --report``: reads the run-manifest for this
    spec and recomputes the front from the rows it recorded.  Returns
    ``None`` when no manifest exists (nothing was ever run).
    """
    manifest = cache.load_manifest(_manifest_key(spec))
    if manifest is None:
        return None
    configs, incompatible_pairs = generate_lattice(spec.lattice)
    rows = dict(manifest.get("rows", {}))
    return ExploreReport(
        spec_fields=spec.key_fields(),
        rows=rows,
        skipped=dict(manifest.get("skipped", {})),
        incompatible=[
            {"label": cfg.label, "config": cfg.to_dict(), "reason": reason}
            for cfg, reason in incompatible_pairs
        ],
        failed=dict(manifest.get("failed", {})),
        front_ids=_compute_front(rows, spec.objectives),
        objectives=[o.label for o in spec.objectives],
        telemetry={},
    )


def explore(
    spec: ExploreSpec,
    *,
    jobs: int = 1,
    resume: bool = False,
    policy: RetryPolicy | None = None,
    progress=None,
) -> ExploreReport:
    """Run one exploration end to end; quarantines failing configs.

    ``jobs > 1`` fans config evaluations out in waves of ``jobs`` over
    one worker pool (:class:`~repro.serve.supervisor.BatchPool`, with
    ``policy`` as its per-job timeout and restart budget);
    pruning/warm-start state advances between waves.  ``resume``
    restores completed rows and recorded skips from the run-manifest
    (zero redundant flow runs); ``progress`` is an optional callable
    receiving one status line per wave.
    """
    policy = policy or RetryPolicy()
    configs, incompatible_pairs = generate_lattice(spec.lattice)
    incompatible = [
        {"label": cfg.label, "config": cfg.to_dict(), "reason": reason}
        for cfg, reason in incompatible_pairs
    ]
    for entry in incompatible:
        _log.info(
            "config %s incompatible, not run: %s",
            entry["label"], entry["reason"],
        )

    rows: dict[str, dict] = {}
    skipped: dict[str, dict] = {}
    failed: dict[str, dict] = {}
    mkey = _manifest_key(spec)

    with cache.manifest_lock(mkey):
        if resume:
            manifest = cache.load_manifest(mkey)
            if manifest is None:
                _log.warning("no dse run-manifest to resume from; starting cold")
            else:
                rows = dict(manifest.get("rows", {}))
                skipped = dict(manifest.get("skipped", {}))
                _log.info(
                    "resuming exploration: %d row(s), %d skip(s) restored"
                    " (prior failures retry)",
                    len(rows), len(skipped),
                )

        front = ParetoFront(len(spec.objectives))
        by_label: dict[str, DseConfig] = {}
        for label in sorted(rows):
            cfg = DseConfig.from_dict(rows[label]["config"])
            by_label[label] = cfg
            front.add(label, _objective_vector(rows[label], spec.objectives))

        pending = [
            c for c in configs
            if c.label not in rows and c.label not in skipped
        ]
        wave_size = max(1, jobs)
        pool = None
        if jobs > 1:
            from repro.serve.supervisor import BatchPool

            pool = BatchPool(min(jobs, max(1, len(pending))), policy)
        # The memo is on exactly when _flow_at_period runs flows
        # through _flow_reusing.  Pool workers fork inside the block and
        # keep their copy of it for the pool's life.
        memo = (
            stage_memo()
            if spec.reuse_prefix and cache.cache_enabled()
            else nullcontext()
        )

        with span(
            "dse", design=spec.design, configs=len(configs), jobs=jobs
        ), pool or nullcontext(), memo:
            while pending:
                wave: list[DseConfig] = []
                hints: dict[str, int | None] = {}
                while pending and len(wave) < wave_size:
                    cfg = pending.pop(0)
                    if spec.prune:
                        skip = _maybe_prune(cfg, spec, rows, by_label, front)
                        if skip is not None:
                            skipped[cfg.label] = skip
                            count("dse_pruned")
                            emit_metric("dse_pruned", 1)
                            _log.info(
                                "pruned %s: bound %s (from %d neighbors)"
                                " dominated by %s",
                                cfg.label, skip["lower_bound"],
                                len(skip["neighbors"]), skip["dominated_by"],
                            )
                            continue
                    neighbor = _nearest_evaluated(cfg, by_label, spec)
                    hints[cfg.label] = (
                        rows[neighbor[0]]["period_index"]
                        if neighbor is not None else None
                    )
                    wave.append(cfg)
                if not wave:
                    break

                wave_rows = _run_wave(
                    wave, spec, hints, pool=pool, policy=policy, failed=failed
                )
                for label, row in wave_rows.items():
                    rows[label] = row
                    by_label[label] = DseConfig.from_dict(row["config"])
                    front.add(
                        label, _objective_vector(row, spec.objectives)
                    )
                _store_manifest(
                    mkey, spec, rows, skipped, failed, complete=False
                )
                if progress is not None:
                    progress(
                        f"evaluated {len(rows)}/{len(configs)}"
                        f" (pruned {len(skipped)}, failed {len(failed)},"
                        f" front {len(front)})"
                    )

        complete = (
            not failed
            and len(rows) + len(skipped) == len(configs)
        )
        _store_manifest(mkey, spec, rows, skipped, failed, complete=complete)

    report = ExploreReport(
        spec_fields=spec.key_fields(),
        rows=rows,
        skipped=skipped,
        incompatible=incompatible,
        failed=failed,
        front_ids=_compute_front(rows, spec.objectives),
        objectives=[o.label for o in spec.objectives],
        telemetry=get_telemetry().snapshot(),
    )
    return report


def _run_wave(
    wave: list[DseConfig],
    spec: ExploreSpec,
    hints: dict[str, int | None],
    *,
    pool,
    policy: RetryPolicy,
    failed: dict[str, dict],
) -> dict[str, dict]:
    """Evaluate one wave of configs (on the pool when it pays)."""
    results: dict[str, dict] = {}
    if pool is None or len(wave) < 2:
        _run_wave_serial(wave, spec, hints, policy, results, failed)
        return results
    try:
        done, errors = pool.run({
            f"dse:{cfg.label}": ("dse", {
                "design": spec.design, "config": cfg.label, "cfg": cfg,
                "explore": spec, "hint": hints.get(cfg.label),
            })
            for cfg in wave
        })
    except PoolUnavailable as exc:
        _log.warning(
            "worker pool unavailable (%s); evaluating wave serially", exc
        )
        _run_wave_serial(wave, spec, hints, policy, results, failed)
        return results
    for cfg in wave:
        row, failure = settle_pool_job(
            f"dse:{cfg.label}", done, errors,
            rescue=lambda c=cfg: evaluate_config(c, spec, hints.get(c.label)),
            policy=policy, stage="dse", design=spec.design, config=cfg.label,
        )
        _record_row(cfg, row, failure, results, failed)
    return results


def _run_wave_serial(
    wave: list[DseConfig],
    spec: ExploreSpec,
    hints: dict[str, int | None],
    policy: RetryPolicy,
    results: dict[str, dict],
    failed: dict[str, dict],
) -> None:
    for cfg in wave:
        value, failure = call_with_retry(
            lambda c=cfg: evaluate_config(c, spec, hints.get(c.label)),
            policy=policy, stage="dse",
            design=spec.design, config=cfg.label,
        )
        _record_row(cfg, value, failure, results, failed)


def _record_row(cfg: DseConfig, row, failure, results, failed) -> None:
    if failure is None:
        results[cfg.label] = row
        return
    failed[cfg.label] = failure.to_dict()
    _log.warning(
        "quarantined dse config %s after %d attempt(s): %s: %s",
        cfg.label, failure.attempts, failure.error_type, failure.message,
    )
