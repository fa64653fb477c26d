"""Shared flow stages: congestion-driven floorplan/placement and legalization.

Every configuration sizes its floorplan by target utilization and then
checks routability; wire-dominated designs (LDPC) fail the congestion
check and retry at a lower utilization, which is precisely how the paper
ends up with 64% density for LDPC against ~82-88% for the others
("the routing is extremely congested ... so a tighter integration would
lead to a worse PPA for LDPC").
"""

from __future__ import annotations

from repro.errors import PlacementError
from repro.flow.design import Design
from repro.log import get_logger
from repro.obs import emit_metric, span
from repro.obs.metrics import hpwl_um
from repro.place.floorplan import build_floorplan
from repro.place.legalizer import LegalizeStats
from repro.place.quadratic import global_place
from repro.route.congestion import analyze_congestion

__all__ = ["place_with_congestion_control", "legalize_all_tiers", "relegalize"]

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
