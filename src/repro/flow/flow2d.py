"""The reference 2-D RTL-to-GDS flow.

Synthesis (generation + initial sizing) -> floorplan at target
utilization with congestion control -> quadratic global placement ->
legalization -> placement-aware timing optimization -> clock tree
synthesis -> post-CTS cleanup -> signoff.

Run once per library to produce the paper's 2-D 9-track and 2-D 12-track
configurations (Fig. 1(a)/(b)).

The flow is expressed as a list of :class:`~repro.flow.pipeline.Stage`
objects run by :func:`~repro.flow.pipeline.execute_flow`, which gives
every stage boundary an integrity contract (``--check``/``$REPRO_CHECK``)
and an optional checksummed checkpoint (``--checkpoint-dir`` /
``--from-stage``).
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

__all__ = ["run_flow_2d"]


def run_flow_2d(
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
    """Implement one netlist in 2-D with one library at one frequency."""

    def synthesis(ctx: FlowContext) -> None:
        ctx.design = synthesize(
            design_name, f"2D_{lib.tracks}T", {0: lib},
            period_ns=period_ns, scale=scale, seed=seed,
            utilization=utilization,
        )

    def placement(ctx: FlowContext) -> None:
        place_with_congestion_control(ctx.design)

    def legalization(ctx: FlowContext) -> None:
        legalize_all_tiers(ctx.design)

    def optimize(ctx: FlowContext) -> None:
        design = ctx.design
        calc = design.calculator(placed=True)
        optimize_timing(design, calc, max_iterations=opt_iterations)
        recover_area(design, calc)
        # Sizing changed cell widths; restore row legality.
        legalize_all_tiers(design)
        calc.invalidate_deferred()

    def cts(ctx: FlowContext) -> None:
        design = ctx.design
        synth = ClockTreeSynthesizer(
            design.netlist,
            design.tier_libs,
            TierPolicy.SINGLE,
            frequency_ghz=design.frequency_ghz,
        )
        design.clock_report = synth.run()

    def postcts(ctx: FlowContext) -> None:
        # Post-CTS: one light cleanup round against propagated clocks,
        # then a final power-driven area recovery ("the tool starts
        # optimizing for power" once timing is met, Section IV-A2).
        design = ctx.design
        calc = design.calculator(placed=True)
        optimize_timing(design, calc,
                        max_iterations=max(2, opt_iterations // 4))
        recover_area(design, calc)
        legalize_all_tiers(design)
        calc.invalidate_deferred()

    def signoff(ctx: FlowContext) -> None:
        ctx.result = finalize_design(ctx.design)

    stages = [
        Stage("synthesis", synthesis, ("connectivity", "timing")),
        Stage("placement", placement, ("connectivity",)),
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
        tier_libs={0: lib},
    )
    return ctx.design, ctx.result
