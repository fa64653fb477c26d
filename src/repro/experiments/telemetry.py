"""Run counters of the evaluation-matrix engine, in the process registry.

Every count a run makes lives in the process-global metrics registry
(:func:`repro.obs.registry.get_registry`):

- ``flows_run`` / ``period_probes`` / ``flow_stages_run`` -- full flow
  executions, period-search probes among them, and stage bodies run by
  :func:`repro.flow.pipeline.execute_flow` (a warm run reports zero;
  the explorer's prefix reuse is proven by the stage count, not timing);
- ``prefix_stages_reused`` / ``suffix_flows_reused`` / ``dse_pruned``
  -- the explorer's perf layers: prefix stages served from the shared
  store, post-partition tails served from the fingerprint cache, and
  lattice configs skipped by dominance pruning (each skip is logged);
- ``memory_hits`` / ``disk_hits`` / ``disk_misses`` -- where each
  requested cell or period was served from;
- ``retries`` / ``timeouts`` / ``quarantined`` / ``worker_respawns``
  -- transient-failure retries, jobs killed past their per-job timeout
  or hung, cells quarantined as :class:`FailedCell` records, and pool
  workers replaced after they died or hung;
- ``cell_seconds`` / ``cell_source`` -- wall time and provenance
  (``"flow"``, ``"memory"``, ``"disk"``) of every matrix cell;
- ``stage_seconds`` -- cumulative wall time per named stage
  (``"period_search"``, ``"flow"``, ...).

Counter ``name`` is the family ``repro_<name>_total``, the cells are
the gauge ``repro_cell_seconds{design,config,source}`` and the stages
the counter ``repro_stage_seconds_total{stage}``.  Writers look their
family up at every write: a pool worker replaces the registry at every
job start and ships its snapshot home, where :func:`merge_snapshot`
folds it in, so the counters stay correct whether the matrix ran
serially or fanned out.  :func:`get_telemetry` is a read-only view.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.log import get_logger
from repro.obs import trace as _trace
from repro.obs.registry import MetricsRegistry, get_registry, reset_registry

__all__ = [
    "COUNTERS",
    "TelemetryView",
    "count",
    "get_telemetry",
    "merge_snapshot",
    "record_cell",
    "record_stage",
    "reset_telemetry",
    "timed_stage",
]

_log = get_logger("telemetry")

#: Run counter -> its registry family.
COUNTERS = {name: f"repro_{name}_total" for name in (
    "flows_run", "period_probes", "flow_stages_run", "prefix_stages_reused",
    "suffix_flows_reused", "dse_pruned", "memory_hits", "disk_hits",
    "disk_misses", "retries", "timeouts", "quarantined", "worker_respawns",
)}
CELL_SECONDS = "repro_cell_seconds"
STAGE_SECONDS = "repro_stage_seconds_total"


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to the run counter ``name`` (one of :data:`COUNTERS`)."""
    get_registry().counter(COUNTERS[name]).inc(amount)


def _forget_cell(registry: MetricsRegistry, design: str, config: str):
    """Drop a cell's report, whatever its source; returns the family."""
    labels = ("design", "config", "source")
    family = registry.gauge(CELL_SECONDS, labels=labels)
    for source in ("flow", "memory", "disk"):
        family.remove(design=design, config=config, source=source)
    return family


def record_cell(design: str, config: str, seconds: float, source: str) -> None:
    """Log one matrix cell: where it came from and how long it took."""
    family = _forget_cell(get_registry(), design, config)
    family.labels(design=design, config=config, source=source).set(seconds)


def record_stage(stage: str, seconds: float) -> None:
    """Accumulate wall time under a named stage."""
    family = get_registry().counter(STAGE_SECONDS, labels=("stage",))
    family.labels(stage=stage).inc(seconds)


def merge_snapshot(snapshot: dict | None) -> None:
    """Fold a pool worker's registry snapshot (if any) into this process's.

    The matrix dispatches each cell to exactly one worker, so a cell
    reported twice was attributed twice (double-counted wall time): it
    is logged, and only the later report is kept.
    """
    if not snapshot:
        return
    registry = get_registry()
    mine = TelemetryView(registry).cell_seconds
    incoming = MetricsRegistry()
    incoming.merge(snapshot)
    theirs = TelemetryView(incoming).cell_seconds
    for design, config in sorted(mine.keys() & theirs.keys()):
        _log.warning(
            "telemetry merge: cell %s/%s reported by more than one"
            " source (%.2fs then %.2fs); keeping the later report",
            design, config, mine[(design, config)], theirs[(design, config)],
        )
        _forget_cell(registry, design, config)
    registry.merge(snapshot)


class TelemetryView:
    """Read-only run counters of one registry (see :func:`get_telemetry`).

    Every :meth:`snapshot` key also reads as an attribute: the counters
    as ``int``, the cells as ``{(design, config): value}`` dicts.
    """

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry

    def __getattr__(self, name: str):
        if name not in (*COUNTERS, "cell_seconds", "cell_source",
                        "stage_seconds"):
            raise AttributeError(name)
        value = self.snapshot()[name]
        if name in ("cell_seconds", "cell_source"):
            return {(d, c): v for d, c, v in value}
        return value

    def __repr__(self) -> str:
        return f"TelemetryView({self.snapshot()!r})"

    def snapshot(self) -> dict:
        """A JSON-able dict of every counter (cell keys become lists)."""
        values = self._registry.values
        out: dict = {
            name: int(values(family).get((), 0))
            for name, family in COUNTERS.items()
        }
        cells = values(CELL_SECONDS)
        out["cell_seconds"] = [[d, c, v] for (d, c, _s), v in cells.items()]
        out["cell_source"] = [[d, c, s] for d, c, s in cells]
        stages = values(STAGE_SECONDS)
        out["stage_seconds"] = {stage: v for (stage,), v in stages.items()}
        return out

    def summary(self) -> str:
        """Multi-line human-readable report (``repro matrix --stats``)."""
        lines = [
            f"flows run        {self.flows_run}"
            f" (period probes {self.period_probes},"
            f" stages {self.flow_stages_run})",
            f"dse              prefix stages reused {self.prefix_stages_reused},"
            f" suffix flows reused {self.suffix_flows_reused},"
            f" configs pruned {self.dse_pruned}",
            f"cache            memory {self.memory_hits} hits,"
            f" disk {self.disk_hits} hits / {self.disk_misses} misses",
            f"resilience       retries {self.retries},"
            f" timeouts {self.timeouts},"
            f" quarantined {self.quarantined},"
            f" worker respawns {self.worker_respawns}",
        ]
        stages = sorted(self.stage_seconds.items())
        if stages:
            lines.append("stage wall time:")
            lines += [f"  {stage:20s} {sec:8.2f} s" for stage, sec in stages]
        cells = sorted(self._registry.values(CELL_SECONDS).items())
        if cells:
            lines.append("cells:")
            lines += [
                f"  {design:8s} {config:8s} {sec:8.2f} s  [{source}]"
                for (design, config, source), sec in cells
            ]
        return "\n".join(lines)


def get_telemetry() -> TelemetryView:
    """A view of the run counters in the current process registry.

    The view keeps reading the registry it was taken on, so one taken
    before :func:`reset_telemetry` keeps its values.
    """
    return TelemetryView(get_registry())


def reset_telemetry() -> TelemetryView:
    """Start a fresh process registry (start of a run / a worker job)."""
    return TelemetryView(reset_registry())


@contextmanager
def timed_stage(stage: str, **attrs):
    """Accumulate the block's wall time under ``stage`` -- as a span.

    Every ``timed_stage`` site is also a tracing span: with tracing
    enabled the block appears in the trace tree (with ``attrs``) and
    ``stage_seconds`` is *derived from the span's own clock*, so the
    trace and the telemetry can never disagree about a stage's wall
    time.  With tracing off, the span is the shared no-op and a local
    ``perf_counter`` pair does the timing, exactly as before.
    """
    sp = _trace.span(stage, **attrs)
    start = 0.0 if sp.is_recording else time.perf_counter()
    try:
        with sp:
            yield sp
    finally:
        seconds = (
            sp.duration_s if sp.is_recording
            else time.perf_counter() - start
        )
        record_stage(stage, seconds)
