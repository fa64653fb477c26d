"""Evaluation-matrix runner: frequency targeting, execution, caching.

Methodology (Section IV-A2):

1. For each netlist, sweep the 12-track 2-D implementation over clock
   periods to find the maximum achievable frequency, accepting a period
   when WNS stays within ~5-7% of it.
2. That max frequency becomes the iso-performance target for all five
   configurations of the netlist.
3. Run every configuration at the target and collect the
   :class:`~repro.flow.report.FlowResult` for the tables.

Flow runs are seconds-to-minutes, so results are cached at two levels:

- **in-process** by ``(design, config, scale, seed, period_ns)`` --
  every Table/Figure benchmark in one session reads the same matrix;
- **on disk** (:mod:`repro.experiments.cache`) so a second process --
  the next pytest session, CLI call, or example script -- warm starts
  without running a single flow.  Disable with ``REPRO_CACHE=0``.

Independent matrix cells can fan out over worker processes (the
serving pool, :class:`~repro.serve.supervisor.BatchPool`); pass
``jobs=`` to :func:`run_matrix` or set ``$REPRO_JOBS``.  Cache traffic
and flow executions are counted by :mod:`repro.experiments.telemetry`.

Failure semantics (:mod:`repro.experiments.resilience`): transient
failures (worker crash, hang past the per-job timeout, OS-level errors)
are retried; deterministic failures (any
:class:`~repro.errors.ReproError`) are never retried.  With
``keep_going=True`` a failing cell is *quarantined* -- recorded as a
structured :class:`~repro.experiments.resilience.FailedCell` on
``matrix.failed`` -- and the rest of the matrix still completes.  A
run-manifest in the on-disk cache tracks target periods, completed
cells and quarantines as the run progresses, so an interrupted matrix
is resumable (``resume=True`` / ``repro matrix --resume``) with zero
redundant flow runs for already-completed cells.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.experiments import cache
from repro.experiments.configs import CONFIG_NAMES, configurations
from repro.experiments.faults import inject
from repro.experiments.resilience import (
    FailedCell,
    PoolUnavailable,
    RetryPolicy,
    call_with_retry,
    settle_pool_job,
)
from repro.experiments.telemetry import count, record_cell, timed_stage
from repro.flow.design import Design
from repro.flow.report import FlowResult
from repro.flow.memo import stage_memo
from repro.log import get_logger
from repro.netlist.generators import DESIGN_NAMES
from repro.obs import add_span_event, emit_metric, span

__all__ = [
    "default_jobs",
    "default_scale",
    "clear_memory_caches",
    "EvaluationMatrix",
    "find_target_period",
    "run_configuration",
    "run_matrix",
]

_log = get_logger("runner")

#: Period sweep bounds per design (ns): generous brackets around each
#: netlist's achievable range at the default scale.
_SWEEP_BOUNDS: dict[str, tuple[float, float]] = {
    "aes": (0.25, 1.6),
    "ldpc": (0.4, 2.4),
    "netcard": (0.4, 2.4),
    "cpu": (0.5, 3.0),
}

#: WNS acceptance band as a fraction of the period (paper: ~5-7%).
_WNS_TOLERANCE = 0.06

#: Most bisection steps of one target-period search.
_SEARCH_ITERATIONS = 6

_period_cache: dict[tuple[str, float, int], float] = {}
_result_cache: dict[
    tuple[str, str, float, int, float], tuple[Design | None, FlowResult]
] = {}


def default_scale() -> float:
    """Netlist scale used by benchmarks; override with $REPRO_SCALE."""
    return float(os.environ.get("REPRO_SCALE", "0.5"))


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` (default 1 = serial)."""
    try:
        jobs = int(os.environ.get("REPRO_JOBS", "1"))
    except ValueError:
        return 1
    return max(1, jobs)


def clear_memory_caches() -> None:
    """Drop the in-process period/result caches (tests; disk untouched)."""
    _period_cache.clear()
    _result_cache.clear()


def find_target_period(
    design_name: str,
    *,
    scale: float,
    seed: int = 0,
) -> float:
    """Binary-search the 12-track 2-D max frequency for one netlist.

    Each probe runs the full 2-D flow (with a reduced optimization budget
    for speed) and checks the paper's timing-met criterion.  The result
    is cached per ``(design, scale, seed)`` in process and on disk.

    If even the upper sweep bound fails timing, the search returns that
    upper bound ``hi`` unchanged: the caller gets the most relaxed period
    the bracket allows, and the matrix run will simply report negative
    slack at it.  (Callers that need to detect this can check
    ``result.wns_ns`` of the 2-D 12-track cell.)
    """
    mem_key = (design_name, scale, seed)
    cached = _period_cache.get(mem_key)
    if cached is not None:
        count("memory_hits")
        return cached

    disk_key = cache.period_key(
        design_name, scale=scale, seed=seed, iterations=_SEARCH_ITERATIONS
    )
    if cache.cache_enabled():
        from_disk = cache.load_period(disk_key)
        if from_disk is not None:
            count("disk_hits")
            _period_cache[mem_key] = from_disk
            return from_disk
        count("disk_misses")

    configs = configurations()
    lo, hi = _SWEEP_BOUNDS[design_name]
    best = hi
    probes = 0
    with timed_stage("period_search", design=design_name), inject(
        "period_search", design=design_name
    ):
        for _ in range(_SEARCH_ITERATIONS):
            mid = 0.5 * (lo + hi)
            _design, result = configs["2D_12T"].run(
                design_name,
                period_ns=mid,
                scale=scale,
                seed=seed,
                opt_iterations=8,
            )
            probes += 1
            count("period_probes")
            count("flows_run")
            if result.wns_ns >= -_WNS_TOLERANCE * mid:
                best = mid
                hi = mid
            else:
                lo = mid
            if hi - lo < 0.02:
                break
        # On the period_search span (the one wrapping this search's sta
        # spans), so traces carry the search cost as data: warm-start
        # wins are asserted by this metric, never by wall clock.
        emit_metric("period_probes", probes)
    _period_cache[mem_key] = best
    cache.store_period(
        disk_key, best, meta={"design": design_name, "scale": scale, "seed": seed}
    )
    return best


def run_configuration(
    design_name: str,
    config_name: str,
    *,
    period_ns: float | None = None,
    scale: float | None = None,
    seed: int = 0,
    need_design: bool = False,
    **kwargs,
) -> tuple[Design | None, FlowResult]:
    """Run (and cache) one cell of the evaluation matrix.

    The cache key is ``(design, config, scale, seed, period_ns)`` -- the
    period is part of the key, so a call with an explicit non-default
    period can never poison later default-period lookups (and vice
    versa).  Keyword overrides (``opt_iterations`` etc.) bypass caching
    entirely, as before.

    On an on-disk cache hit only the :class:`FlowResult` is available,
    so the returned design is ``None``; pass ``need_design=True`` to
    force a flow run when the caller needs the placed
    :class:`~repro.flow.design.Design` object itself.
    """
    scale = default_scale() if scale is None else scale
    if period_ns is None:
        period_ns = find_target_period(design_name, scale=scale, seed=seed)

    cacheable = not kwargs
    key = (design_name, config_name, scale, seed, period_ns)
    if cacheable:
        hit = _result_cache.get(key)
        if hit is not None and (hit[0] is not None or not need_design):
            count("memory_hits")
            record_cell(design_name, config_name, 0.0, "memory")
            return hit
        if not need_design and cache.cache_enabled():
            disk_key = cache.result_key(
                design_name, config_name, scale=scale, seed=seed,
                period_ns=period_ns,
            )
            start = time.perf_counter()
            result = cache.load_result(disk_key)
            if result is not None:
                count("disk_hits")
                seconds = time.perf_counter() - start
                record_cell(design_name, config_name, seconds, "disk")
                _result_cache[key] = (None, result)
                return None, result
            count("disk_misses")

    configs = configurations()
    start = time.perf_counter()
    with timed_stage("flow", design=design_name, config=config_name), inject(
        "cell", design=design_name, config=config_name
    ):
        design, result = configs[config_name].run(
            design_name, period_ns=period_ns, scale=scale, seed=seed, **kwargs
        )
    count("flows_run")
    record_cell(design_name, config_name, time.perf_counter() - start, "flow")
    if cacheable:
        _result_cache[key] = (design, result)
        cache.store_result(
            cache.result_key(
                design_name, config_name, scale=scale, seed=seed,
                period_ns=period_ns,
            ),
            result,
            meta={"design": design_name, "config": config_name},
        )
    return design, result


class _LazyDesigns(dict):
    """Per-matrix design map that rebuilds missing entries on demand.

    A disk-cache hit carries only the :class:`FlowResult`; benchmarks
    that inspect layouts (``matrix.designs[("cpu", "3D_HET")]``) get the
    placed design rebuilt transparently -- one flow run, only for the
    cells actually inspected, so a fully warm matrix still performs zero
    flow runs until somebody asks for a layout.
    """

    def __init__(self, matrix: "EvaluationMatrix"):
        super().__init__()
        self._matrix = matrix

    def __missing__(self, key: tuple[str, str]) -> Design:
        design_name, config_name = key
        design, _result = run_configuration(
            design_name,
            config_name,
            period_ns=self._matrix.target_periods.get(design_name),
            scale=self._matrix.scale,
            seed=self._matrix.seed,
            need_design=True,
        )
        self[key] = design
        return design


@dataclass
class EvaluationMatrix:
    """All results of the 4 x 5 evaluation.

    ``failed`` holds quarantined cells (``keep_going`` runs only) as
    structured :class:`FailedCell` records; ``failed_periods`` holds
    design-level period-search failures, which block that design's whole
    row.  A matrix with either non-empty is *partial* -- ``matrix.ok``
    is ``False`` and the CLI exits nonzero.
    """

    scale: float
    seed: int
    target_periods: dict[str, float] = field(default_factory=dict)
    results: dict[tuple[str, str], FlowResult] = field(default_factory=dict)
    designs: dict[tuple[str, str], Design] = field(default_factory=dict)
    failed: dict[tuple[str, str], FailedCell] = field(default_factory=dict)
    failed_periods: dict[str, FailedCell] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.designs, _LazyDesigns):
            lazy = _LazyDesigns(self)
            lazy.update(self.designs)
            self.designs = lazy

    @property
    def ok(self) -> bool:
        """Whether every requested cell completed."""
        return not self.failed and not self.failed_periods

    def record_cell_failure(self, key: tuple[str, str], cell: FailedCell) -> None:
        """Quarantine one cell (and count it in the telemetry)."""
        self.failed[key] = cell
        count("quarantined")
        add_span_event(
            "quarantined",
            stage=cell.stage,
            design=cell.design,
            config=cell.config,
            kind=cell.kind,
            attempts=cell.attempts,
            error=f"{cell.error_type}: {cell.message}",
        )
        _log.warning(
            "quarantined cell %s/%s after %d attempt(s): %s: %s",
            cell.design, cell.config, cell.attempts,
            cell.error_type, cell.message,
        )

    def record_period_failure(self, design: str, cell: FailedCell) -> None:
        """Quarantine a whole design row: its period search failed."""
        self.failed_periods[design] = cell
        count("quarantined")
        add_span_event(
            "quarantined",
            stage=cell.stage,
            design=cell.design,
            kind=cell.kind,
            attempts=cell.attempts,
            error=f"{cell.error_type}: {cell.message}",
        )
        _log.warning(
            "quarantined design %s (period search) after %d attempt(s): %s: %s",
            cell.design, cell.attempts, cell.error_type, cell.message,
        )

    def all_failures(self) -> list[FailedCell]:
        """Every quarantine record, period-search ones first."""
        return list(self.failed_periods.values()) + [
            self.failed[key] for key in sorted(self.failed)
        ]

    def failure_summary(self) -> str:
        """Human-readable per-cell failure table (empty string when ok)."""
        cells = self.all_failures()
        if not cells:
            return ""
        lines = [
            f"{'design':8s} {'config':8s} {'stage':14s} {'kind':14s}"
            f" {'attempts':8s} error"
        ]
        for cell in cells:
            lines.append(
                f"{cell.design:8s} {cell.config:8s} {cell.stage:14s}"
                f" {cell.kind:14s} {cell.attempts:<8d}"
                f" {cell.error_type}: {cell.message}"
            )
        return "\n".join(lines)

    def result(self, design: str, config: str) -> FlowResult:
        """One cell of the matrix."""
        return self.results[(design, config)]

    def design(self, design: str, config: str) -> Design:
        """The placed design of one cell (rebuilt on demand if warm)."""
        return self.designs[(design, config)]

    def hetero(self, design: str) -> FlowResult:
        """The heterogeneous implementation of one netlist."""
        return self.results[(design, "3D_HET")]

    def delta_pct(self, design: str, config: str, metric: str) -> float:
        """Table VII delta: (hetero - config) / config * 100 for a metric."""
        het = getattr(self.hetero(design), metric)
        ref = getattr(self.result(design, config), metric)
        if ref == 0:
            return 0.0
        return (het - ref) / ref * 100.0


def _store_run_manifest(
    manifest_key: str,
    matrix: EvaluationMatrix,
    designs: tuple[str, ...],
    config_names: tuple[str, ...],
    *,
    complete: bool,
) -> None:
    """Persist the run's progress (best-effort, like every cache write)."""
    cache.store_manifest(
        manifest_key,
        {
            "scale": matrix.scale,
            "seed": matrix.seed,
            "designs": list(designs),
            "configs": list(config_names),
            "target_periods": dict(matrix.target_periods),
            "completed": sorted([d, c] for d, c in matrix.results),
            "failed": [cell.to_dict() for cell in matrix.all_failures()],
            "complete": complete,
        },
    )


def _restore_from_manifest(manifest_key: str, matrix: EvaluationMatrix) -> None:
    """Seed a resuming matrix with the interrupted run's target periods.

    Completed cells are *not* copied -- they reload through the
    content-addressed result cache, which is what guarantees zero
    redundant flow runs.  Previously-failed cells get a fresh chance.
    """
    manifest = cache.load_manifest(manifest_key)
    if manifest is None:
        _log.warning("no run-manifest to resume from; starting cold")
        return
    periods = manifest.get("target_periods", {})
    if isinstance(periods, dict):
        for name, period in periods.items():
            if isinstance(period, (int, float)):
                matrix.target_periods[str(name)] = float(period)
                _period_cache[(str(name), matrix.scale, matrix.seed)] = float(
                    period
                )
    _log.info(
        "resuming matrix: %d period(s), %d completed cell(s),"
        " %d prior failure(s)",
        len(matrix.target_periods),
        len(manifest.get("completed", [])),
        len(manifest.get("failed", [])),
    )


def run_matrix(
    *,
    designs: tuple[str, ...] = DESIGN_NAMES,
    config_names: tuple[str, ...] = CONFIG_NAMES,
    scale: float | None = None,
    seed: int = 0,
    jobs: int | None = None,
    keep_going: bool = False,
    max_retries: int | None = None,
    timeout_s: float | None = None,
    resume: bool = False,
    target_periods: dict[str, float] | None = None,
    policy: RetryPolicy | None = None,
) -> EvaluationMatrix:
    """Run the full evaluation matrix (cached per cell).

    ``jobs`` (default ``$REPRO_JOBS``, else 1) fans the per-design
    period searches and then all independent cells out over worker
    processes; if no worker can start, the serial path takes over and
    produces identical results.

    Resilience: transient failures (worker crash, hang past
    ``timeout_s`` -- per job, from its dispatch -- OS-level errors) are
    retried up to ``max_retries`` times, on a fresh worker when the old
    one died -- completed cells are never discarded or rerun.
    Deterministic failures (any :class:`~repro.errors.ReproError`) are
    quarantined when ``keep_going`` is true: the matrix completes
    partially, with structured records on ``matrix.failed``.  With
    ``keep_going=False`` (default) the first unrecoverable failure
    raises, preserving the original exception (annotated with
    stage/design/config/attempt context).

    A run-manifest in the on-disk cache tracks progress; ``resume=True``
    restores the target periods of an interrupted run and reloads its
    completed cells from the result cache without rerunning a single
    flow.  ``target_periods`` pins explicit periods (skipping the
    per-design searches); ``policy`` overrides the whole retry policy
    (the individual ``keep_going``/``max_retries``/``timeout_s``
    arguments refine whichever policy is in effect).
    """
    scale = default_scale() if scale is None else scale
    jobs = default_jobs() if jobs is None else jobs
    policy = (policy or RetryPolicy()).with_overrides(
        keep_going=keep_going or None,
        max_retries=max_retries,
        timeout_s=timeout_s,
    )
    matrix = EvaluationMatrix(scale=scale, seed=seed)
    manifest_key = cache.manifest_key(
        designs, config_names, scale=scale, seed=seed, periods=target_periods
    )
    # The whole run holds the manifest lock: two processes resuming the
    # same shape (easy to do once matrices are served from a daemon)
    # would interleave manifest rewrites.  flock dies with the holder,
    # so an interrupted or killed run never leaves a stale lock behind.
    with cache.manifest_lock(manifest_key):
        if resume:
            _restore_from_manifest(manifest_key, matrix)
        if target_periods:
            matrix.target_periods.update(target_periods)

        try:
            with span("matrix", scale=scale, seed=seed, jobs=jobs):
                if jobs > 1 and _run_matrix_pool(
                    matrix,
                    designs=designs,
                    config_names=config_names,
                    jobs=jobs,
                    policy=policy,
                ):
                    pass
                else:
                    _run_matrix_serial(
                        matrix, designs, config_names, policy, manifest_key
                    )
        finally:
            _store_run_manifest(
                manifest_key, matrix, designs, config_names,
                complete=matrix.ok
                and all(
                    (d, c) in matrix.results
                    for d in designs
                    for c in config_names
                ),
            )

    if not matrix.ok and not policy.keep_going:
        raise matrix.all_failures()[0].raisable()
    return matrix


def _run_matrix_serial(
    matrix: EvaluationMatrix,
    designs: tuple[str, ...],
    config_names: tuple[str, ...],
    policy: RetryPolicy,
    manifest_key: str,
) -> None:
    """The serial path: one cell at a time, retry/quarantine aware.

    Each design row shares synthesis and partitioning through a stage
    memo of its own, so one design's entries live at a time.
    """
    for design_name in designs:
        with stage_memo():
            period = matrix.target_periods.get(design_name)
            if period is None:
                period, failure = call_with_retry(
                    lambda name=design_name: find_target_period(
                        name, scale=matrix.scale, seed=matrix.seed
                    ),
                    policy=policy, stage="period_search", design=design_name,
                )
                if failure is not None:
                    matrix.record_period_failure(design_name, failure)
                    if not policy.keep_going:
                        # run_matrix re-raises from matrix.failed_periods
                        return
                    continue
                matrix.target_periods[design_name] = period
                _store_run_manifest(
                    manifest_key, matrix, designs, config_names,
                    complete=False,
                )
            for config_name in config_names:
                key = (design_name, config_name)
                if key in matrix.results:
                    continue
                value, failure = call_with_retry(
                    lambda d=design_name, c=config_name, p=period: (
                        run_configuration(
                            d, c, period_ns=p, scale=matrix.scale,
                            seed=matrix.seed,
                        )
                    ),
                    policy=policy, stage="flow",
                    design=design_name, config=config_name,
                )
                if failure is not None:
                    matrix.record_cell_failure(key, failure)
                    if not policy.keep_going:
                        return
                    continue
                design, result = value
                matrix.results[key] = result
                if design is not None:
                    matrix.designs[key] = design
                _store_run_manifest(
                    manifest_key, matrix, designs, config_names,
                    complete=False,
                )


def _run_matrix_pool(
    matrix: EvaluationMatrix,
    *,
    designs: tuple[str, ...],
    config_names: tuple[str, ...],
    jobs: int,
    policy: RetryPolicy,
) -> bool:
    """Fill ``matrix`` on one worker pool, in two batches.

    The per-design period searches run first, then every cell the
    caches cannot serve.  Workers write the disk cache; the parent
    seeds its memory caches with what they return.  A job the pool
    could not finish gets one serial rescue (:func:`settle_pool_job`)
    before it is quarantined.  Returns ``False`` when no worker could
    start, so :func:`run_matrix` runs its serial loop instead; results
    are identical either way.
    """
    from repro.serve.supervisor import BatchPool

    scale, seed = matrix.scale, matrix.seed
    workers = min(jobs, len(designs) * len(config_names))
    try:
        with BatchPool(workers, policy) as pool:
            need = [d for d in designs if d not in matrix.target_periods]
            done, failed = pool.run({
                f"period_search:{name}": (
                    "sweep", {"design": name, "scale": scale, "seed": seed}
                )
                for name in need
            })
            for name in need:
                payload, failure = settle_pool_job(
                    f"period_search:{name}", done, failed,
                    rescue=lambda name=name: {
                        "period_ns": find_target_period(
                            name, scale=scale, seed=seed
                        )
                    },
                    policy=policy, stage="period_search", design=name,
                )
                if failure is not None:
                    matrix.record_period_failure(name, failure)
                    continue
                matrix.target_periods[name] = payload["period_ns"]
                _period_cache[(name, scale, seed)] = payload["period_ns"]

            cold: list[tuple[str, str, float]] = []
            for design_name in designs:
                period = matrix.target_periods.get(design_name)
                if period is None:
                    continue  # period search quarantined this design's row
                for config_name in config_names:
                    design, result = _lookup_cached(
                        design_name, config_name, period, scale, seed
                    )
                    if result is None:
                        cold.append((design_name, config_name, period))
                        continue
                    matrix.results[(design_name, config_name)] = result
                    if design is not None:
                        matrix.designs[(design_name, config_name)] = design
            done, failed = pool.run({
                f"{d}:{c}": ("flow", {
                    "design": d, "config": c, "period_ns": p,
                    "scale": scale, "seed": seed,
                })
                for d, c, p in cold
            })
            for d, c, p in cold:
                payload, failure = settle_pool_job(
                    f"{d}:{c}", done, failed,
                    rescue=lambda d=d, c=c, p=p: {
                        "result": run_configuration(
                            d, c, period_ns=p, scale=scale, seed=seed
                        )[1].to_dict()
                    },
                    policy=policy, stage="flow", design=d, config=c,
                )
                if failure is not None:
                    matrix.record_cell_failure((d, c), failure)
                    continue
                result = FlowResult.from_dict(payload["result"])
                matrix.results[(d, c)] = result
                _result_cache[(d, c, scale, seed, p)] = (None, result)
    except PoolUnavailable as exc:
        _log.warning("worker pool unavailable (%s); running serially", exc)
        return False
    return True


def _lookup_cached(design_name, config_name, period, scale, seed):
    """Memory-then-disk lookup of one cell without ever running a flow."""
    key = (design_name, config_name, scale, seed, period)
    hit = _result_cache.get(key)
    if hit is not None:
        count("memory_hits")
        record_cell(design_name, config_name, 0.0, "memory")
        return hit
    if cache.cache_enabled():
        result = cache.load_result(
            cache.result_key(
                design_name, config_name, scale=scale, seed=seed, period_ns=period
            )
        )
        if result is not None:
            count("disk_hits")
            record_cell(design_name, config_name, 0.0, "disk")
            _result_cache[key] = (None, result)
            return None, result
        # A miss here is not counted: the worker (or the serial rescue)
        # that actually runs the cell records it.
    return None, None
