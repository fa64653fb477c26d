"""Lightweight instrumentation for the evaluation-matrix engine.

A process-global :class:`Telemetry` object accumulates, per run:

- ``flows_run`` / ``period_probes`` -- how many full flow executions
  actually happened (the expensive part; a fully warm matrix run must
  report zero);
- ``flow_stages_run`` -- individual stage bodies executed by the staged
  driver (:func:`repro.flow.pipeline.execute_flow`); the design-space
  explorer's stage-prefix reuse is proven by this counter, not timing;
- ``prefix_stages_reused`` / ``suffix_flows_reused`` / ``dse_pruned``
  -- the explorer's perf layers: checkpointed stages served from the
  shared prefix store instead of re-executing, post-partition flow
  tails served whole from the partition-fingerprint cache, and lattice
  configs skipped by dominance pruning (every skip is also logged);
- ``memory_hits`` / ``disk_hits`` / ``disk_misses`` -- where each
  requested cell was served from;
- ``retries`` / ``timeouts`` / ``quarantined`` / ``worker_respawns``
  -- the resilience layer's activity: transient-failure retries, jobs
  killed past their per-job timeout, cells quarantined as
  :class:`FailedCell` records, and pool workers replaced after they
  died or hung;
- ``cell_seconds`` / ``cell_source`` -- wall time and provenance
  (``"flow"``, ``"memory"``, ``"disk"``) of every matrix cell;
- ``stage_seconds`` -- cumulative wall time per named stage
  (``"period_search"``, ``"flow"``, ...).

Worker processes of the worker pool carry their own instance; the
parent merges their snapshots with :meth:`Telemetry.merge`, so the
counters stay correct whether the matrix ran serially or fanned out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from repro.log import get_logger
from repro.obs import trace as _trace

__all__ = ["Telemetry", "get_telemetry", "reset_telemetry", "timed_stage"]

_log = get_logger("telemetry")


@dataclass
class Telemetry:
    """Counters and timings for one evaluation run."""

    flows_run: int = 0
    period_probes: int = 0
    flow_stages_run: int = 0
    prefix_stages_reused: int = 0
    suffix_flows_reused: int = 0
    dse_pruned: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    worker_respawns: int = 0
    cell_seconds: dict[tuple[str, str], float] = field(default_factory=dict)
    cell_source: dict[tuple[str, str], str] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_cell(
        self, design: str, config: str, seconds: float, source: str
    ) -> None:
        """Log one matrix cell: where it came from and how long it took."""
        self.cell_seconds[(design, config)] = seconds
        self.cell_source[(design, config)] = source

    def record_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall time under a named stage."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "Telemetry | dict") -> None:
        """Fold a worker snapshot (object or ``snapshot()`` dict) in."""
        if isinstance(other, dict):
            other = Telemetry.from_snapshot(other)
        self.flows_run += other.flows_run
        self.period_probes += other.period_probes
        self.flow_stages_run += other.flow_stages_run
        self.prefix_stages_reused += other.prefix_stages_reused
        self.suffix_flows_reused += other.suffix_flows_reused
        self.dse_pruned += other.dse_pruned
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.disk_misses += other.disk_misses
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.quarantined += other.quarantined
        self.worker_respawns += other.worker_respawns
        # Worker snapshots must describe disjoint cells: the matrix
        # dispatches each (design, config) to exactly one worker.  A
        # collision means a cell was attributed twice (double-counted
        # wall time), so make it diagnosable instead of silently keeping
        # whichever snapshot merged last.
        collisions = self.cell_seconds.keys() & other.cell_seconds.keys()
        for design, config in sorted(collisions):
            _log.warning(
                "telemetry merge: cell %s/%s reported by more than one"
                " source (%.2fs then %.2fs); keeping the later report",
                design, config,
                self.cell_seconds[(design, config)],
                other.cell_seconds[(design, config)],
            )
        self.cell_seconds.update(other.cell_seconds)
        self.cell_source.update(other.cell_source)
        for stage, seconds in other.stage_seconds.items():
            self.record_stage(stage, seconds)

    def snapshot(self) -> dict:
        """A picklable/JSON-able dict view (cell keys become lists)."""
        d = asdict(self)
        d["cell_seconds"] = [[k[0], k[1], v] for k, v in self.cell_seconds.items()]
        d["cell_source"] = [[k[0], k[1], v] for k, v in self.cell_source.items()]
        return d

    @staticmethod
    def from_snapshot(d: dict) -> "Telemetry":
        """Inverse of :meth:`snapshot`."""
        t = Telemetry(
            flows_run=d.get("flows_run", 0),
            period_probes=d.get("period_probes", 0),
            flow_stages_run=d.get("flow_stages_run", 0),
            prefix_stages_reused=d.get("prefix_stages_reused", 0),
            suffix_flows_reused=d.get("suffix_flows_reused", 0),
            dse_pruned=d.get("dse_pruned", 0),
            memory_hits=d.get("memory_hits", 0),
            disk_hits=d.get("disk_hits", 0),
            disk_misses=d.get("disk_misses", 0),
            retries=d.get("retries", 0),
            timeouts=d.get("timeouts", 0),
            quarantined=d.get("quarantined", 0),
            worker_respawns=d.get("worker_respawns", 0),
            stage_seconds=dict(d.get("stage_seconds", {})),
        )
        for design, config, v in d.get("cell_seconds", []):
            t.cell_seconds[(design, config)] = v
        for design, config, v in d.get("cell_source", []):
            t.cell_source[(design, config)] = v
        return t

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
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
        if self.stage_seconds:
            lines.append("stage wall time:")
            for stage, seconds in sorted(self.stage_seconds.items()):
                lines.append(f"  {stage:20s} {seconds:8.2f} s")
        if self.cell_seconds:
            lines.append("cells:")
            for key in sorted(self.cell_seconds):
                design, config = key
                src = self.cell_source.get(key, "?")
                lines.append(
                    f"  {design:8s} {config:8s} {self.cell_seconds[key]:8.2f} s"
                    f"  [{src}]"
                )
        return "\n".join(lines)


_telemetry = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-global telemetry accumulator."""
    return _telemetry


def reset_telemetry() -> Telemetry:
    """Zero the global accumulator (start of a run / a worker task)."""
    global _telemetry
    _telemetry = Telemetry()
    return _telemetry


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
        get_telemetry().record_stage(stage, seconds)
