"""The reference 2-D RTL-to-GDS flow.

Synthesis (generation + initial sizing) -> floorplan at target
utilization with congestion control -> quadratic global placement ->
legalization -> placement-aware timing optimization -> clock tree
synthesis -> post-CTS cleanup -> signoff.

Run once per library to produce the paper's 2-D 9-track and 2-D 12-track
configurations (Fig. 1(a)/(b)).

The flow is a list of the shared stages of :mod:`repro.flow.stages`, run
by :func:`~repro.flow.pipeline.execute_flow`, which gives every stage
boundary an integrity contract (``--check``/``$REPRO_CHECK``) and an
optional checksummed checkpoint (``--checkpoint-dir`` / ``--from-stage``).
"""

from __future__ import annotations

from repro.cts.tree import TierPolicy
from repro.flow.design import Design
from repro.flow.pipeline import execute_flow
from repro.flow.report import FlowResult
from repro.flow.stages import (
    cts_stage,
    legalization_stage,
    placement_stage,
    signoff_stage,
    sizing_stage,
    synthesis_stage,
)
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
    stages = [
        synthesis_stage(
            design_name, f"2D_{lib.tracks}T", {0: lib},
            period_ns=period_ns, scale=scale, seed=seed,
            utilization=utilization,
        ),
        placement_stage(),
        legalization_stage(),
        sizing_stage("optimize", opt_iterations),
        cts_stage(TierPolicy.SINGLE),
        # Post-CTS: one light cleanup round against propagated clocks,
        # then a final power-driven area recovery ("the tool starts
        # optimizing for power" once timing is met, Section IV-A2).
        sizing_stage("postcts", max(2, opt_iterations // 4)),
        signoff_stage(),
    ]
    ctx = execute_flow(stages, check=check, checkpoint_dir=checkpoint_dir,
                       from_stage=from_stage, tier_libs={0: lib})
    return ctx.design, ctx.result
