"""Cell-based timing-driven partitioning (Section III-A1).

Samal et al. used path-based analysis to find critical cells; the paper
argues that misses too many cells ("missing even a small fraction of
critical cells can lead to a large timing degradation") and instead
visits *every cell* and takes the worst slack among the paths through it.
That per-cell worst slack is exactly what the STA backward pass produces
(:attr:`repro.timing.sta.TimingReport.cell_slack`).

Cells are ranked by criticality and pinned to the fast die until either
the slack threshold or the area cap is hit.  The cap (20-30% of total
cell area) exists because critical cells cluster physically (they come
from the same RTL block) and pinning whole dense clusters to one die
creates overlap that 3-D legalization must undo, breaking the
pseudo-3-D/3-D placement correspondence.
"""

from __future__ import annotations

from repro.errors import PartitionError
from repro.netlist.core import Netlist
from repro.obs import emit_metric, span

__all__ = ["timing_based_pinning"]


def timing_based_pinning(
    netlist: Netlist,
    cell_slack: dict[str, float],
    *,
    fast_tier: int = 0,
    area_cap_fraction: float = 0.25,
    slack_threshold_ns: float | None = None,
) -> dict[str, int]:
    """Pin the most timing-critical cells to the fast tier.

    Parameters
    ----------
    cell_slack:
        Worst slack through each instance (from STA with cell slacks).
    fast_tier:
        The tier holding the fast library (0/bottom in the paper).
    area_cap_fraction:
        Maximum fraction of total standard-cell area that may be pinned
        (the paper limits this to 20%-30%).
    slack_threshold_ns:
        Only cells at or below this slack are candidates; ``None`` derives
        it as the 40th percentile of observed slacks, so roughly the worse
        half of the design competes for the fast-tier budget.

    Returns a ``{instance: fast_tier}`` dict for the pinned cells.
    """
    if not 0.0 < area_cap_fraction <= 0.5:
        raise PartitionError("area cap must be in (0, 0.5]")

    with span("timing_pinning", fast_tier=fast_tier):
        candidates = [
            (slack, name)
            for name, slack in cell_slack.items()
            if name in netlist.instances
            and not netlist.instances[name].cell.is_macro
        ]
        if not candidates:
            return {}
        candidates.sort()

        if slack_threshold_ns is None:
            slacks = sorted(s for s, _ in candidates)
            slack_threshold_ns = slacks[int(0.4 * (len(slacks) - 1))]

        total_area = netlist.cell_area_um2(lambda i: not i.cell.is_macro)
        budget = area_cap_fraction * total_area

        pinned: dict[str, int] = {}
        used = 0.0
        for slack, name in candidates:
            if slack > slack_threshold_ns:
                break
            area = netlist.instances[name].area_um2
            if used + area > budget:
                break
            pinned[name] = fast_tier
            used += area
        emit_metric("pinned_cells", len(pinned), tier=fast_tier)
        emit_metric(
            "pinned_area_fraction",
            used / total_area if total_area > 0 else 0.0,
            tier=fast_tier,
        )
        emit_metric(
            "critical_cell_fraction",
            len(pinned) / len(candidates),
        )
    return pinned
