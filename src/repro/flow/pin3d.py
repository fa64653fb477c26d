"""Homogeneous Pin-3D flow (the baseline of reference [5]).

Pseudo-3-D stage: the whole netlist is implemented "2-D style" on the
3-D footprint (half the 2-D area) with cells logically shrunk to half
area so they all fit -- the Shrunk-2D abstraction Pin-3D builds on.
Tier assignment then runs placement-driven bin-based FM min-cut with
area balancing, both tiers are legalized at full cell size, and the 3-D
database is optimized with full-chip timing (our optimizer sees both
tiers at once, which is exactly the Pin-3D advantage over die-by-die
flows).

The published Pin-3D has no 3-D clock stage; ``run_flow_pin3d`` therefore
defaults to the MAJORITY-tier clock policy without the heterogeneous
enhancements, and the hetero flow (:mod:`repro.flow.hetero`) adds the
paper's Section III improvements on top.

The flow is the shared stages of :mod:`repro.flow.stages` around its one
stage of its own, partitioning, run by
:func:`~repro.flow.pipeline.execute_flow` (stage-boundary integrity
contracts, checksummed checkpoints, ``--from-stage`` resume).
"""

from __future__ import annotations

from repro.cts.tree import TierPolicy
from repro.flow.design import Design, EditJournal
from repro.flow.pipeline import FlowContext, Stage, execute_flow
from repro.flow.report import FlowResult
from repro.flow.stages import (
    cts_stage,
    legalization_stage,
    placement_3d_stage,
    placement_stage,
    signoff_stage,
    sizing_stage,
    synthesis_stage,
)
from repro.liberty.library import StdCellLibrary
from repro.obs import emit_metric, span
from repro.partition.bins import bin_fm_partition

__all__ = ["run_flow_pin3d", "apply_partition"]

#: Balance tolerance handed to :func:`bin_fm_partition`; recorded in
#: ``design.notes`` so the tier-balance integrity check knows the bound
#: the partitioner was asked to honor.
FM_BALANCE_TOLERANCE = 0.12


def apply_partition(design: Design, assignment: dict[str, int]) -> None:
    """Move every instance to its assigned tier (remapping if needed).

    Tier assignment rebinds most cells, so the design's calculator is
    dropped rather than patched net by net.
    """
    design.drop_calculator()
    journal = EditJournal(design)
    for name, tier in assignment.items():
        journal.move_to_tier(name, tier)


def run_flow_pin3d(
    design_name: str,
    lib: StdCellLibrary,
    *,
    period_ns: float,
    scale: float = 1.0,
    seed: int = 0,
    utilization: float = 0.82,
    opt_iterations: int = 12,
    check: str | None = None,
    checkpoint_dir: str | None = None,
    from_stage: str | None = None,
) -> tuple[Design, FlowResult]:
    """Implement one netlist as a homogeneous two-tier M3D design."""

    def partitioning(ctx: FlowContext) -> None:
        design = ctx.design
        netlist = design.netlist
        fp = design.floorplan
        with span("partitioning", design=design_name):
            areas = {
                name: inst.area_um2
                for name, inst in netlist.instances.items()
            }
            assignment = bin_fm_partition(
                netlist,
                fp.width_um,
                fp.height_um,
                areas,
                areas,
                balance_tolerance=FM_BALANCE_TOLERANCE,
            )
            apply_partition(design, assignment)
            design.notes["fm_balance_tolerance"] = FM_BALANCE_TOLERANCE
            emit_metric("cut_nets", lambda: len(netlist.cut_nets()))

    stages = [
        synthesis_stage(
            design_name, f"3D_{lib.tracks}T", {0: lib, 1: lib},
            period_ns=period_ns, scale=scale, seed=seed,
            utilization=utilization, first_macro_tier=0,
        ),
        placement_stage(pseudo_3d=True),
        Stage("partitioning", partitioning,
              ("connectivity", "tiers", "tier_balance")),
        placement_3d_stage(),
        legalization_stage(),
        # 3-D stage: full-chip timing optimization across both tiers.
        sizing_stage("optimize", opt_iterations),
        cts_stage(TierPolicy.MAJORITY),
        sizing_stage("postcts", max(2, opt_iterations // 4)),
        signoff_stage(),
    ]
    ctx = execute_flow(stages, check=check, checkpoint_dir=checkpoint_dir,
                       from_stage=from_stage, tier_libs={0: lib, 1: lib})
    return ctx.design, ctx.result
