"""Shared flow stages: placement, legalization, sizing, CTS and signoff.

The paper implements all five configurations with the same flow steps
(Section IV-A2): each stage two or more flows share is made here, check
set included, and each ``run_flow_*`` lists these stages around the
ones only it runs.

Every configuration sizes its floorplan by target utilization and then
checks routability; wire-dominated designs (LDPC) fail the congestion
check and retry at a lower utilization, which is precisely how the paper
ends up with 64% density for LDPC against ~82-88% for the others
("the routing is extremely congested ... so a tighter integration would
lead to a worse PPA for LDPC").
"""

from __future__ import annotations

from repro.cts.tree import ClockTreeSynthesizer, TierPolicy
from repro.errors import PlacementError
from repro.flow.design import Design
from repro.flow.opt import MAX_UTILIZATION, optimize_timing, recover_area
from repro.flow.pipeline import FlowContext, Stage
from repro.flow.report import finalize_design
from repro.flow.synthesis import synthesize
from repro.liberty.library import StdCellLibrary
from repro.log import get_logger
from repro.obs import emit_metric, span
from repro.obs.metrics import hpwl_um
from repro.place.floorplan import build_floorplan
from repro.place.legalizer import LegalizeStats
from repro.place.quadratic import global_place
from repro.route.congestion import analyze_congestion

__all__ = [
    "place_with_congestion_control", "legalize_all_tiers", "relegalize",
    "synthesis_stage", "placement_stage", "placement_3d_stage",
    "legalization_stage", "sizing_stage", "cts_stage", "signoff_stage",
]

#: Peak bin utilization above which the floorplan is declared unroutable.
CONGESTION_LIMIT = 1.00

#: Utilization shrink factor per congestion retry.
UTILIZATION_BACKOFF = 0.82

#: Maximum congestion-driven retries.
MAX_RETRIES = 3

_log = get_logger("stages")


def place_with_congestion_control(
    design: Design,
    *,
    demand_scale: float = 1.0,
    area_scale: float = 1.0,
) -> float:
    """Floorplan and globally place, lowering utilization until routable.

    Returns the utilization finally used (stored on the floorplan too).
    ``demand_scale``/``area_scale`` implement the pseudo-3-D shrink: the
    Pin-3D flows pass 0.5 so both tiers share one half-size footprint.
    """
    utilization = design.utilization_target
    lib = design.reference_library()
    last_peak = float("inf")
    with span("placement", design=design.name) as sp:
        for attempt in range(MAX_RETRIES + 1):
            with span("floorplan", attempt=attempt):
                fp = build_floorplan(
                    design.netlist,
                    design.tier_libs,
                    utilization,
                    demand_scale=demand_scale,
                )
            with span("global_place", attempt=attempt):
                global_place(design.netlist, fp, area_scale=area_scale)
            congestion = analyze_congestion(
                design.netlist,
                lib,
                fp.width_um,
                fp.height_um,
                design.tiers,
            )
            last_peak = congestion.peak_demand
            design.floorplan = fp
            if last_peak <= CONGESTION_LIMIT or attempt == MAX_RETRIES:
                break
            sp.add_event(
                "congestion_retry",
                attempt=attempt,
                peak=round(last_peak, 4),
                utilization=round(utilization, 4),
            )
            utilization *= UTILIZATION_BACKOFF
        if last_peak > CONGESTION_LIMIT:
            # Out of retries but still congested: the flow ships this
            # floorplan anyway (the paper's LDPC scenario), so leave a
            # loud record instead of returning silently.
            _log.warning(
                "%s: still congested after %d retries "
                "(peak %.3f > %.2f at utilization %.3f); "
                "shipping the congested floorplan",
                design.name, MAX_RETRIES, last_peak, CONGESTION_LIMIT,
                utilization,
            )
            sp.add_event(
                "congestion_retries_exhausted",
                retries=MAX_RETRIES,
                peak=round(last_peak, 4),
                utilization=round(utilization, 4),
            )
        emit_metric("utilization", utilization)
        emit_metric("peak_congestion", last_peak)
        emit_metric("hpwl_mm", lambda: hpwl_um(design.netlist) / 1000.0)
    design.notes["peak_congestion_at_floorplan"] = last_peak
    design.notes["utilization_used"] = utilization
    return utilization


def relegalize(design: Design) -> dict[int, LegalizeStats]:
    """Legalize every tier and invalidate the moved cells' nets.

    The design's calculator keeps every other net's parasitics: a cell
    the pass did not move has the same pins at the same place.
    """
    session = design.place_session()
    stats = session.legalize_all()
    calc = design.held_calculator()
    if calc is not None:
        instances = design.netlist.instances
        for name in session.last_moved:
            inst = instances.get(name)  # a dirtied cell may be gone
            if inst is None:
                continue
            for _pin, net_name in inst.connected_pins():
                calc.invalidate(net_name)
    return stats


def legalize_all_tiers(design: Design) -> dict[int, LegalizeStats]:
    """Legalize every tier against its own library's rows.

    Routed through the design's :class:`PlacementSession`, so calls after
    small edit batches re-pack only the disturbed rows (byte-identical to
    a full pass -- ``REPRO_PLACE=full`` forces the old behavior), and
    through :func:`relegalize`, so timing stays warm for every cell the
    pass left in place.
    """
    if design.floorplan is None:
        raise PlacementError("floorplan missing; place before legalizing")
    with span("legalization", design=design.name):
        stats = relegalize(design)
        for tier in design.tier_libs:
            emit_metric("tier_cells", stats[tier].cells, tier=tier)
            emit_metric(
                "tier_area_um2",
                lambda: design.netlist.tier_area_um2(tier),
                tier=tier,
            )
            emit_metric(
                "legal_displacement_um",
                stats[tier].total_displacement_um,
                tier=tier,
            )
    return stats


# -- the stages two or more flows share, each with its checks ---------------


def synthesis_stage(
    design_name: str,
    config: str,
    tier_libs: dict[int, StdCellLibrary],
    *,
    first_macro_tier: int | None = None,
    **options,
) -> Stage:
    """Synthesis (``options`` are :func:`synthesize`'s keywords).  A 3-D
    flow alternates the memory macros over the tiers from
    ``first_macro_tier`` on, so the per-tier blockage stays balanced."""

    def run(ctx: FlowContext) -> None:
        ctx.design = synthesize(design_name, config, tier_libs, **options)
        if first_macro_tier is not None:
            macros = sorted(ctx.design.netlist.memory_macros(),
                            key=lambda m: m.name)
            for i, macro in enumerate(macros):
                macro.tier = (i + first_macro_tier) % 2

    return Stage("synthesis", run, ("connectivity", "timing"))


def placement_stage(*, pseudo_3d: bool = False) -> Stage:
    """Global placement, or the pseudo-3-D one: the whole netlist on one
    half-size footprint, cells shrunk to half area."""
    shrink = 0.5 if pseudo_3d else 1.0
    return Stage("pseudo_place" if pseudo_3d else "placement",
                 lambda ctx: place_with_congestion_control(
                     ctx.design, demand_scale=shrink, area_scale=shrink),
                 ("connectivity",))


def placement_3d_stage(*, utilization_scale: float = 1.0) -> Stage:
    """Re-floorplan from real per-tier demand, at the utilization the
    pseudo-3-D placement ended at times ``utilization_scale``, and
    re-place on that outline."""

    def run(ctx: FlowContext) -> None:
        design = ctx.design
        utilization = design.notes["utilization_used"] * utilization_scale
        with span("placement", design=design.name, phase="3d"):
            design.floorplan = build_floorplan(
                design.netlist, design.tier_libs, utilization)
            global_place(design.netlist, design.floorplan)

    return Stage("placement_3d", run, ("connectivity", "tiers"))


def legalization_stage(name: str = "legalization") -> Stage:
    """Legalize every tier (``final_legalize`` is the same stage)."""
    return Stage(name, lambda ctx: legalize_all_tiers(ctx.design),
                 ("connectivity", "placement", "tiers"))


def sizing_stage(name: str, iterations: int, *,
                 max_fill: float = MAX_UTILIZATION,
                 recover: bool = True) -> Stage:
    """Timing optimization on the design's calculator, then (``recover``)
    area recovery and relegalization, since sizing changed cell widths
    (without them, legality is no postcondition).  The flow driver
    flushes the invalidations load cloning deferred."""

    def run(ctx: FlowContext) -> None:
        design = ctx.design
        calc = design.calculator(placed=True)
        optimize_timing(design, calc, max_iterations=iterations,
                        max_fill=max_fill)
        if recover:
            recover_area(design, calc)
            legalize_all_tiers(design)

    placement = ("placement",) if recover else ()
    return Stage(name, run, ("connectivity", *placement, "timing"))


def cts_stage(policy: TierPolicy) -> Stage:
    """Clock tree synthesis under one tier policy."""

    def run(ctx: FlowContext) -> None:
        design = ctx.design
        design.clock_report = ClockTreeSynthesizer(
            design.netlist, design.tier_libs, policy,
            frequency_ghz=design.frequency_ghz).run()

    return Stage("cts", run, ("connectivity", "timing"))


def signoff_stage() -> Stage:
    """Signoff: the finished design's :class:`FlowResult`."""

    def run(ctx: FlowContext) -> None:
        ctx.result = finalize_design(ctx.design)

    return Stage("signoff", run,
                 ("connectivity", "placement", "tiers", "timing"))
