"""Design-level PDN analysis: power maps, IR drop, noise margins.

Builds per-tier current maps from the placed design's power distribution
(every instance draws ``P / V_DD`` at its location; the clock network's
power is spread over its sink area), runs the stacked-grid solve, and
reports the figures a PDN signoff would: worst/average IR drop per tier,
drop as a fraction of each tier's supply, and whether the design meets a
noise-margin target.

The heterogeneous insight this surfaces (the Section V future-work
question): the top die of a hetero stack draws far less current than a
homogeneous 12-track top die, which largely offsets the via-feeding
penalty -- but its 0.81 V rail also has less margin to give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flow.design import Design
from repro.pdn.grid import PdnConfig, solve_ir_drop
from repro.power.activity import propagate_activities

__all__ = ["TierPdnReport", "PdnReport", "analyze_pdn"]

#: IR-drop budget as a fraction of the tier supply (signoff rule).
DROP_BUDGET_FRACTION = 0.05


@dataclass(frozen=True)
class TierPdnReport:
    """IR-drop summary of one tier."""

    tier: int
    vdd_v: float
    total_current_ma: float
    worst_drop_mv: float
    mean_drop_mv: float

    @property
    def worst_drop_fraction(self) -> float:
        """Worst drop relative to this tier's supply."""
        return self.worst_drop_mv / (self.vdd_v * 1000.0)

    def meets_budget(self) -> bool:
        """True when the worst drop stays inside the signoff budget."""
        return self.worst_drop_fraction <= DROP_BUDGET_FRACTION


@dataclass(frozen=True)
class PdnReport:
    """Full-chip PDN analysis result."""

    tiers: dict[int, TierPdnReport]
    config: PdnConfig

    @property
    def worst_tier(self) -> TierPdnReport:
        """The tier with the largest relative drop."""
        return max(self.tiers.values(), key=lambda t: t.worst_drop_fraction)

    def meets_budget(self) -> bool:
        """True when every tier meets the signoff budget."""
        return all(t.meets_budget() for t in self.tiers.values())


def _current_maps(design: Design, bins: int) -> dict[int, np.ndarray]:
    """Per-tier (bins, bins) current maps in mA from instance power."""
    fp = design.floorplan
    if fp is None:
        raise ValueError("design must be floorplanned for PDN analysis")
    netlist = design.netlist
    calc = design.calculator(placed=True)
    activities = propagate_activities(netlist)
    frequency = design.frequency_ghz

    maps = {tier: np.zeros((bins, bins)) for tier in design.tier_libs}

    for inst in netlist.instances.values():
        if not inst.is_placed:
            continue
        out_net = inst.net_of(inst.cell.output_pin)
        act = activities.get(out_net, 0.1) if out_net else 0.0
        power_mw = inst.cell.internal_energy_pj * act * frequency
        power_mw += inst.cell.leakage_mw
        if out_net is not None:
            cap = calc.net_parasitics(netlist.nets[out_net]).total_cap_ff
            vdd = inst.cell.vdd_v
            power_mw += 0.5 * cap * vdd * vdd * act * frequency / 1000.0
        current_ma = power_mw / inst.cell.vdd_v
        cx, cy = inst.center()
        r = min(bins - 1, max(0, int(cy / fp.height_um * bins)))
        c = min(bins - 1, max(0, int(cx / fp.width_um * bins)))
        tier = inst.tier if inst.tier in maps else 0
        maps[tier][r, c] += current_ma

    # Clock power: spread uniformly over each tier's share of buffers.
    if design.clock_report is not None:
        report = design.clock_report
        total = max(1, report.buffer_count)
        for tier, count in report.buffer_count_by_tier.items():
            if tier not in maps:
                continue
            vdd = design.tier_libs[tier].vdd_v
            share_mw = report.power_mw * count / total
            maps[tier] += share_mw / vdd / (bins * bins)
    return maps


def analyze_pdn(
    design: Design,
    config: PdnConfig | None = None,
    *,
    current_scale: float = 1.0,
) -> PdnReport:
    """IR-drop analysis of a placed (optionally heterogeneous) design.

    ``current_scale`` multiplies the extracted currents; repro-scale
    netlists are ~50x smaller than the paper's, so passing the cell-count
    ratio emulates full-scale current density (the comparative hetero-vs-
    homogeneous conclusions are scale-invariant either way).
    """
    config = config or PdnConfig()
    maps = _current_maps(design, config.bins)
    if current_scale != 1.0:
        maps = {tier: m * current_scale for tier, m in maps.items()}
    drops = solve_ir_drop(maps, config)
    tiers = {}
    for tier, drop in drops.items():
        tiers[tier] = TierPdnReport(
            tier=tier,
            vdd_v=design.tier_libs[tier].vdd_v,
            total_current_ma=float(maps[tier].sum()),
            worst_drop_mv=float(drop.max()),
            mean_drop_mv=float(drop.mean()),
        )
    return PdnReport(tiers=tiers, config=config)
