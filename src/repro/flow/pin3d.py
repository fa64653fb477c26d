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

Like the other flows, the sequence is a list of
:class:`~repro.flow.pipeline.Stage` objects run by
:func:`~repro.flow.pipeline.execute_flow` (stage-boundary integrity
contracts, checksummed checkpoints, ``--from-stage`` resume).
"""

from __future__ import annotations

from repro.cts.tree import ClockTreeSynthesizer, TierPolicy
from repro.flow.design import Design
from repro.flow.opt import optimize_timing, recover_area
from repro.flow.pipeline import FlowContext, Stage, execute_flow
from repro.flow.report import FlowResult, finalize_design
from repro.flow.stages import legalize_all_tiers, place_with_congestion_control
from repro.flow.synthesis import synthesize
from repro.liberty.library import StdCellLibrary
from repro.obs import emit_metric, span
from repro.partition.bins import bin_fm_partition
from repro.place.floorplan import build_floorplan
from repro.place.quadratic import global_place

__all__ = ["run_flow_pin3d", "apply_partition"]

#: Balance tolerance handed to :func:`bin_fm_partition`; recorded in
#: ``design.notes`` so the tier-balance integrity check knows the bound
#: the partitioner was asked to honor.
FM_BALANCE_TOLERANCE = 0.12


def apply_partition(design: Design, assignment: dict[str, int]) -> None:
    """Move every instance to its assigned tier (remapping if needed)."""
    for name, tier in assignment.items():
        design.remap_instance_to_tier(name, tier)


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

    def synthesis(ctx: FlowContext) -> None:
        ctx.design = synthesize(
            design_name, f"3D_{lib.tracks}T", {0: lib, 1: lib},
            period_ns=period_ns, scale=scale, seed=seed,
            utilization=utilization,
        )
        # Memory macros alternate over the tiers so blockage stays
        # balanced (memory-over-logic stacking).
        for i, macro in enumerate(sorted(ctx.design.netlist.memory_macros(),
                                         key=lambda m: m.name)):
            macro.tier = i % 2

    def pseudo_place(ctx: FlowContext) -> None:
        # Pseudo-3-D stage: everything on one half-size footprint.
        place_with_congestion_control(
            ctx.design, demand_scale=0.5, area_scale=0.5
        )

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
                seed=seed,
            )
            apply_partition(design, assignment)
            design.notes["fm_balance_tolerance"] = FM_BALANCE_TOLERANCE
            emit_metric("cut_nets", len(netlist.cut_nets()))

    def placement_3d(ctx: FlowContext) -> None:
        # Re-floorplan from real per-tier demand (the macro tier may need
        # a different outline than the pseudo-3-D estimate) and re-place
        # on the final outline before per-tier legalization.
        design = ctx.design
        with span("placement", design=design_name, phase="3d"):
            fp3d = build_floorplan(
                design.netlist,
                design.tier_libs,
                design.notes.get("utilization_used", utilization),
            )
            design.floorplan = fp3d
            global_place(design.netlist, fp3d)

    def legalization(ctx: FlowContext) -> None:
        legalize_all_tiers(ctx.design)

    def optimize(ctx: FlowContext) -> None:
        # 3-D stage: full-chip timing optimization across both tiers.
        design = ctx.design
        calc = design.calculator(placed=True)
        optimize_timing(design, calc, max_iterations=opt_iterations)
        recover_area(design, calc)
        legalize_all_tiers(design)
        calc.invalidate()

    def cts(ctx: FlowContext) -> None:
        design = ctx.design
        synth = ClockTreeSynthesizer(
            design.netlist,
            design.tier_libs,
            TierPolicy.MAJORITY,
            frequency_ghz=design.frequency_ghz,
            slow_tier=1,
        )
        design.clock_report = synth.run()

    def postcts(ctx: FlowContext) -> None:
        design = ctx.design
        calc = design.calculator(placed=True)
        optimize_timing(design, calc,
                        max_iterations=max(2, opt_iterations // 4))
        recover_area(design, calc)
        legalize_all_tiers(design)
        calc.invalidate()

    def signoff(ctx: FlowContext) -> None:
        ctx.result = finalize_design(ctx.design)

    stages = [
        Stage("synthesis", synthesis, ("connectivity", "timing")),
        Stage("pseudo_place", pseudo_place, ("connectivity",)),
        Stage("partitioning", partitioning,
              ("connectivity", "tiers", "tier_balance")),
        Stage("placement_3d", placement_3d, ("connectivity", "tiers")),
        Stage("legalization", legalization,
              ("connectivity", "placement", "tiers")),
        Stage("optimize", optimize, ("connectivity", "placement", "timing")),
        Stage("cts", cts, ("connectivity", "timing")),
        Stage("postcts", postcts, ("connectivity", "placement", "timing")),
        Stage("signoff", signoff,
              ("connectivity", "placement", "tiers", "timing")),
    ]
    ctx = execute_flow(
        stages,
        check=check,
        checkpoint_dir=checkpoint_dir,
        from_stage=from_stage,
        tier_libs={0: lib, 1: lib},
    )
    return ctx.design, ctx.result
