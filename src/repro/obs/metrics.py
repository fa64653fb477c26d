"""QoR metrics: typed measurements the flow stages emit at boundaries.

Every number the paper's result tables report about an intermediate
flow state -- worst/total negative slack, HPWL, per-tier cell counts
and area, congestion overflow, MIV count, clock skew, repartition-ECO
deltas -- is a registered metric here.  Stages call
:func:`emit_metric` at their boundaries; the point attaches to the
active :class:`~repro.obs.trace.Span`, so the exported trace carries
the quality trajectory of the run, not just its timing.

``METRIC_DEFS`` records, per metric, its unit and the paper table (or
section) the number corresponds to, so ``repro trace`` output and the
documentation stay in sync with the reproduction targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "METRIC_DEFS",
    "MetricDef",
    "MetricPoint",
    "emit_metric",
    "hpwl_um",
    "net_hpwl_um",
]


@dataclass(frozen=True)
class MetricDef:
    """Registry entry: what one metric means and where the paper uses it."""

    unit: str
    table: str  # paper table/section the metric reproduces
    description: str


#: Registry of stage-boundary QoR metrics.  ``table`` names the paper
#: artifact each number feeds (Tables IV-VIII, Section III discussions).
METRIC_DEFS: dict[str, MetricDef] = {
    "cells": MetricDef("count", "Table VI", "instances in the netlist"),
    "cell_area_um2": MetricDef("um2", "Table VI", "total standard-cell area"),
    "tier_cells": MetricDef("count", "Table VIII", "instances on one tier"),
    "tier_area_um2": MetricDef("um2", "Table VIII", "cell area on one tier"),
    "utilization": MetricDef("frac", "Table VI", "placement utilization used"),
    "hpwl_mm": MetricDef("mm", "Table VI", "half-perimeter wirelength"),
    "routed_wl_mm": MetricDef("mm", "Table VI", "routed wirelength estimate"),
    "wns_ns": MetricDef("ns", "Table VI", "worst negative slack"),
    "tns_ns": MetricDef("ns", "Table VI", "total negative slack"),
    "peak_congestion": MetricDef(
        "frac", "Table VI", "98th-percentile bin routing utilization"
    ),
    "congestion_overflow": MetricDef(
        "frac", "Table VI", "fraction of bins over routing capacity"
    ),
    "miv_count": MetricDef("count", "Table VI", "monolithic inter-tier vias"),
    "cut_nets": MetricDef("count", "Table VI", "nets crossing the tier cut"),
    "density_pct": MetricDef("%", "Table VI", "placement density"),
    "total_power_mw": MetricDef("mW", "Table VI", "total power at signoff"),
    "die_cost_1e6": MetricDef("1e-6 C'", "Table VI", "die cost, Eq. (5)"),
    "pinned_cells": MetricDef(
        "count", "Sec III-A1", "critical cells pinned to the fast die"
    ),
    "pinned_area_fraction": MetricDef(
        "frac", "Sec III-A1", "fast-die area consumed by pinned cells"
    ),
    "critical_cell_fraction": MetricDef(
        "frac", "Sec III-C", "share of critical cells on the slow die"
    ),
    "clock_buffers": MetricDef("count", "Table VIII", "clock buffers inserted"),
    "clock_skew_ns": MetricDef("ns", "Table VIII", "global clock skew"),
    "clock_power_mw": MetricDef("mW", "Table VIII", "clock network power"),
    "clock_slow_tier_fraction": MetricDef(
        "frac", "Table VIII", "clock buffers on the slow (9T) tier"
    ),
    "eco_iterations": MetricDef(
        "count", "Sec III-C", "repartition-ECO loop iterations"
    ),
    "eco_cells_moved": MetricDef(
        "count", "Table V", "cells ECO-moved to the fast die"
    ),
    "eco_batches_accepted": MetricDef(
        "count", "Sec III-C", "accepted ECO batches"
    ),
    "eco_batches_rejected": MetricDef(
        "count", "Sec III-C", "rejected (undone) ECO batches"
    ),
    "eco_wns_gain_ns": MetricDef(
        "ns", "Table V", "WNS improvement from repartitioning"
    ),
    "legal_displacement_um": MetricDef(
        "um", "Sec IV-A2", "total legalization displacement"
    ),
    "opt_upsized": MetricDef("count", "Sec IV-A2", "cells upsized by timing opt"),
    "opt_buffers": MetricDef("count", "Sec IV-A2", "buffers inserted by opt"),
    "opt_downsized": MetricDef(
        "count", "Sec IV-A2", "cells downsized by area/power recovery"
    ),
    "integrity_violations": MetricDef(
        "count", "QoR gate", "invariant violations found at a stage boundary"
    ),
    "integrity_repairs": MetricDef(
        "count", "QoR gate", "auto-repairs applied at a stage boundary"
    ),
    "sta_full_runs": MetricDef(
        "count", "perf", "timing reports served by a full graph rebuild"
    ),
    "sta_incremental_runs": MetricDef(
        "count", "perf", "timing reports served incrementally (cone or reuse)"
    ),
    "sta_propagated_fraction": MetricDef(
        "frac", "perf", "share of combinational instances re-propagated"
    ),
    "place_full_runs": MetricDef(
        "count", "perf", "placement queries served by a full recompute"
    ),
    "place_incremental_runs": MetricDef(
        "count", "perf", "placement queries served by row/net-level reuse"
    ),
    "place_disturbed_fraction": MetricDef(
        "frac", "perf", "share of movable cells dirty at the last legalize"
    ),
    "period_probes": MetricDef(
        "count", "perf", "flow probes spent by one target-period search"
    ),
    "prefix_stages_reused": MetricDef(
        "count", "perf", "flow stages served from the DSE prefix store"
    ),
    "suffix_flows_reused": MetricDef(
        "count", "perf",
        "DSE flow tails served by partition-fingerprint reuse"
    ),
    "dse_pruned": MetricDef(
        "count", "perf", "lattice configs skipped by dominance pruning"
    ),
}


@dataclass(frozen=True)
class MetricPoint:
    """One QoR measurement emitted at a stage boundary.

    ``tier`` disambiguates per-tier metrics (``tier_cells`` etc.);
    ``unit``/``table`` default from :data:`METRIC_DEFS` for registered
    names so ad-hoc emissions stay self-describing.
    """

    name: str
    value: float
    unit: str = ""
    table: str = ""
    tier: int | None = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "table": self.table,
        }
        if self.tier is not None:
            d["tier"] = self.tier
        return d

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "MetricPoint":
        return MetricPoint(
            name=str(d.get("name", "?")),
            value=float(d.get("value", 0.0)),
            unit=str(d.get("unit", "")),
            table=str(d.get("table", "")),
            tier=d.get("tier"),
        )

    def label(self) -> str:
        """Compact human-readable rendering for the ASCII views."""
        tier = f"[t{self.tier}]" if self.tier is not None else ""
        unit = f" {self.unit}" if self.unit and self.unit != "count" else ""
        return f"{self.name}{tier}={self.value:g}{unit}"


def emit_metric(
    name: str,
    value: float | Callable[[], float],
    *,
    tier: int | None = None,
    unit: str | None = None,
    table: str | None = None,
) -> MetricPoint | None:
    """Attach one metric point to the active span.

    A no-op (returning ``None``) when tracing is disabled or no span is
    open, so stages can emit unconditionally at zero cost in production
    runs.  A value that walks the netlist is passed as a zero-argument
    callable, which runs only when a span records the point.
    """
    from repro.obs import trace

    sp = trace.current_span()
    if sp is None:
        return None
    if callable(value):
        value = value()
    spec = METRIC_DEFS.get(name)
    point = MetricPoint(
        name=name,
        value=float(value),
        unit=unit if unit is not None else (spec.unit if spec else ""),
        table=table if table is not None else (spec.table if spec else ""),
        tier=tier,
    )
    sp.add_metric(point)
    return point


def net_hpwl_um(net, instances) -> float:
    """Half-perimeter wirelength of one net (um); 0.0 when degenerate."""
    xs: list[float] = []
    ys: list[float] = []
    pins = list(net.sinks)
    if net.driver is not None:
        pins.append(net.driver)
    for inst_name, _pin in pins:
        inst = instances.get(inst_name)
        if inst is None or inst.x_um is None or inst.y_um is None:
            continue
        xs.append(inst.x_um)
        ys.append(inst.y_um)
    if len(xs) < 2:
        return 0.0
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def hpwl_um(netlist) -> float:
    """Half-perimeter wirelength over all placed nets (um).

    Uses instance origins (placement resolution is a row/site anyway);
    unplaced instances and single-pin nets contribute nothing.
    """
    total = 0.0
    instances = netlist.instances
    for net in netlist.nets.values():
        total += net_hpwl_um(net, instances)
    return total
