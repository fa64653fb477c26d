"""Design invariants checked at flow-stage boundaries.

Each checker walks one aspect of a :class:`~repro.flow.design.Design`
and returns *every* violation it finds as a typed
:class:`InvariantViolation` record (unlike ``Netlist.validate``, which
raises on the first problem -- these feed the warn/repair/strict policy
of :mod:`repro.integrity.contracts`, so completeness matters).

The families mirror what the flow can actually break:

``connectivity``
    The netlist hypergraph: dangling nets, undriven nets, floating input
    pins, stale or mismatched driver/sink cross-references (a net bound
    by two output pins surfaces as a driver mismatch on one of them).
``placement``
    Physical legality: unplaced cells, cells outside the floorplan,
    cells off their tier's row grid, pairwise overlaps (including
    standard cells sitting on a macro of the same tier).
``tiers``
    3-D consistency: every instance on a tier that exists, every
    standard cell bound to its tier's library, level shifters present on
    every cross-voltage crossing that needs one (Section III-B), and the
    pinned critical-cell area within the paper's 20-30% cap (III-A1).
``tier_balance``
    The FM area balance between the two dies, checked right after
    partitioning against the tolerance the partitioner ran with.
``timing``
    Sanity of the timing graph: no combinational loops, and STA
    completes with finite worst/total slack.
``parasitics``
    The invalidation contract: every net the design's placed delay
    calculator holds parasitics for equals a fresh extraction, bit for
    bit.  The flow driver runs it at every stage boundary; it is a
    no-op while the design holds no calculator.

``check_result`` validates a finished :class:`FlowResult` (the ``repro
check`` command accepts saved results as well as checkpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.flow.design import Design
from repro.liberty.cells import CellFunction

__all__ = [
    "CHECKS",
    "InvariantViolation",
    "check_connectivity",
    "check_design",
    "check_parasitics",
    "check_placement",
    "check_result",
    "check_tier_balance",
    "check_tiers",
    "check_timing",
]

#: Position tolerance (um) for overlap / out-of-floorplan tests.
GEOM_EPS_UM = 1e-6

#: Row-alignment tolerance as a fraction of the row pitch.
ROW_ALIGN_TOL = 1e-4

#: Slack the pinned-area check allows over the configured cap.
PIN_CAP_SLACK = 0.02

#: Slack the tier-balance check allows over the FM tolerance.  The FM
#: tolerance bounds each *bin*; the global split is steered toward
#: balance but individual bins may lean, so the whole-die check gets
#: extra headroom.
BALANCE_SLACK = 0.08

#: Default FM balance tolerance when the flow did not record one
#: (matches ``bin_fm_partition``'s default).
DEFAULT_BALANCE_TOL = 0.12


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant: which check, what rule, on which object."""

    check: str  # "connectivity" | "placement" | "tiers" | ...
    code: str  # machine-readable rule id, e.g. "dangling-net"
    subject: str  # net / instance / metric the rule tripped on
    message: str  # human-readable detail
    repairable: bool = False  # a registered repair hook can fix it

    def __str__(self) -> str:
        return f"[{self.check}/{self.code}] {self.subject}: {self.message}"


# ----------------------------------------------------------------------
# connectivity
# ----------------------------------------------------------------------
def check_connectivity(design: Design) -> list[InvariantViolation]:
    """Netlist hypergraph consistency (the non-throwing ``validate``)."""
    netlist = design.netlist
    out: list[InvariantViolation] = []

    def bad(code: str, subject: str, message: str, *, repairable: bool = False):
        out.append(
            InvariantViolation("connectivity", code, subject, message,
                               repairable=repairable)
        )

    for inst in netlist.instances.values():
        for pin, net_name in inst.connected_pins():
            net = netlist.nets.get(net_name)
            if net is None:
                bad("missing-net", f"{inst.name}.{pin}",
                    f"bound to nonexistent net {net_name!r}")
                continue
            ref = (inst.name, pin)
            if inst.cell.pins[pin].direction == "output":
                if net.driver != ref:
                    bad("driver-mismatch", net_name,
                        f"output {inst.name}.{pin} bound but net driver is "
                        f"{net.driver!r} (multiple or misrecorded drivers)")
            elif ref not in net.sinks:
                bad("sink-missing", net_name,
                    f"input {inst.name}.{pin} bound but absent from sink list")
        for pin, spec in inst.cell.pins.items():
            if spec.direction != "output" and inst.net_of(pin) is None:
                bad("floating-input", f"{inst.name}.{pin}",
                    "input pin is unconnected")

    for net in netlist.nets.values():
        if net.driver is None and net.name not in netlist.ports:
            if net.sinks:
                bad("undriven-net", net.name,
                    f"{len(net.sinks)} sinks but no driver")
            else:
                bad("dangling-net", net.name,
                    "no driver and no sinks", repairable=True)
        if net.driver is not None:
            inst_name, pin = net.driver
            inst = netlist.instances.get(inst_name)
            if inst is None or inst.net_of(pin) != net.name:
                bad("stale-driver", net.name,
                    f"driver {inst_name}.{pin} does not point back")
        for inst_name, pin in net.sinks:
            inst = netlist.instances.get(inst_name)
            if inst is None or inst.net_of(pin) != net.name:
                bad("stale-sink", net.name,
                    f"sink {inst_name}.{pin} does not point back")
    return out


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def check_placement(design: Design) -> list[InvariantViolation]:
    """Physical legality of the current placement."""
    out: list[InvariantViolation] = []

    def bad(code: str, subject: str, message: str, *, repairable: bool = False):
        out.append(
            InvariantViolation("placement", code, subject, message,
                               repairable=repairable)
        )

    fp = design.floorplan
    if fp is None:
        bad("no-floorplan", design.name, "design has no floorplan")
        return out

    netlist = design.netlist
    # Per (tier, row) buckets of movable standard cells, for the O(n log n)
    # sweep: legal cells share exact row y-coordinates.
    rows: dict[tuple[int, float], list] = {}
    macro_rects: dict[int, list[tuple[str, float, float, float, float]]] = {}
    for m in fp.macros:
        macro_rects.setdefault(m.tier, []).append(
            (m.name, m.x_um, m.y_um, m.width_um, m.height_um)
        )

    for inst in netlist.instances.values():
        if not inst.is_placed:
            bad("unplaced", inst.name, "no placement location")
            continue
        w, h = inst.cell.width_um, inst.cell.height_um
        if (inst.x_um < -GEOM_EPS_UM or inst.y_um < -GEOM_EPS_UM
                or inst.x_um + w > fp.width_um + GEOM_EPS_UM
                or inst.y_um + h > fp.height_um + GEOM_EPS_UM):
            bad("out-of-floorplan", inst.name,
                f"at ({inst.x_um:.2f}, {inst.y_um:.2f}) size "
                f"({w:.2f} x {h:.2f}) outside "
                f"{fp.width_um:.2f} x {fp.height_um:.2f} die",
                repairable=not inst.fixed)
        if inst.fixed or inst.cell.is_macro:
            continue
        lib = design.tier_libs.get(inst.tier)
        if lib is None:
            continue  # the tiers check reports unknown tiers
        pitch = lib.cell_height_um
        r = inst.y_um / pitch
        if abs(r - round(r)) > ROW_ALIGN_TOL:
            bad("row-misaligned", inst.name,
                f"y={inst.y_um:.4f} not on the {pitch:.2f}um row grid "
                f"of tier {inst.tier}", repairable=True)
            continue  # off-grid cells are excluded from the row sweep
        rows.setdefault((inst.tier, round(r)), []).append(inst)
        for name, mx, my, mw, mh in macro_rects.get(inst.tier, ()):
            if (inst.x_um + w > mx + GEOM_EPS_UM
                    and mx + mw > inst.x_um + GEOM_EPS_UM
                    and inst.y_um + h > my + GEOM_EPS_UM
                    and my + mh > inst.y_um + GEOM_EPS_UM):
                bad("overlap", inst.name,
                    f"overlaps macro {name} on tier {inst.tier}",
                    repairable=True)

    for (tier, _row), cells in rows.items():
        cells.sort(key=lambda i: (i.x_um, i.name))
        for a, b in zip(cells, cells[1:]):
            if a.x_um + a.cell.width_um > b.x_um + GEOM_EPS_UM:
                bad("overlap", b.name,
                    f"overlaps {a.name} in row y={a.y_um:.2f} "
                    f"of tier {tier}", repairable=True)
    return out


# ----------------------------------------------------------------------
# tiers
# ----------------------------------------------------------------------
def check_tiers(design: Design) -> list[InvariantViolation]:
    """3-D consistency: tier existence, library binding, level shifters,
    and the Section III-A1 pinned critical-area cap."""
    out: list[InvariantViolation] = []

    def bad(code: str, subject: str, message: str, *, repairable: bool = False):
        out.append(
            InvariantViolation("tiers", code, subject, message,
                               repairable=repairable)
        )

    netlist = design.netlist
    for inst in netlist.instances.values():
        lib = design.tier_libs.get(inst.tier)
        if lib is None:
            bad("bad-tier", inst.name,
                f"on tier {inst.tier} but design has tiers "
                f"{sorted(design.tier_libs)}")
            continue
        if not inst.cell.is_macro and inst.cell.library_name != lib.name:
            bad("wrong-library", inst.name,
                f"bound to {inst.cell.library_name} on tier {inst.tier} "
                f"({lib.name})")

    # Level shifters: every low-to-high cross-voltage crossing must be
    # shifted.  Spurious shifters are deliberately not flagged -- ECO
    # moves can render a shifter redundant without making it illegal.
    # The rule only binds once insertion has run (the ``level_shifters``
    # note): earlier boundaries legitimately carry unshifted crossings.
    vdds = {lib.vdd_v for lib in design.tier_libs.values()}
    if (design.is_3d and len(vdds) > 1
            and "level_shifters" in design.notes):
        from repro.flow.levelshift import boundary_violations

        for net_name in boundary_violations(design):
            bad("missing-level-shifter", net_name,
                "low-rail driver reaches a high-rail sink unshifted",
                repairable=True)

    frac = design.notes.get("pinned_area_fraction")
    cap = design.notes.get("pinned_area_cap")
    if isinstance(frac, float) and isinstance(cap, float):
        if frac > cap + PIN_CAP_SLACK:
            bad("pinned-area-over-cap", "pinned_area_fraction",
                f"pinned {frac:.3f} of std-cell area exceeds the "
                f"{cap:.2f} cap (Section III-A1)")
    return out


def check_tier_balance(design: Design) -> list[InvariantViolation]:
    """FM area balance between the dies (meaningful right after
    partitioning; macro area excluded -- macro tiers are a free choice)."""
    if not design.is_3d:
        return []
    areas = [
        design.netlist.cell_area_um2(
            lambda i, t=tier: i.tier == t and not i.cell.is_macro
        )
        for tier in sorted(design.tier_libs)
    ]
    total = sum(areas)
    if total <= 0.0:
        return []
    imbalance = abs(areas[0] - areas[-1]) / total
    tol = design.notes.get("fm_balance_tolerance", DEFAULT_BALANCE_TOL)
    limit = float(tol) + BALANCE_SLACK
    if imbalance > limit:
        return [
            InvariantViolation(
                "tier_balance", "area-imbalance", "tier_area_um2",
                f"std-cell area split {areas[0]:.0f} / {areas[-1]:.0f} um2 "
                f"is {imbalance:.3f} imbalanced (limit {limit:.3f})",
            )
        ]
    return []


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def check_timing(design: Design) -> list[InvariantViolation]:
    """Timing-graph sanity: acyclic combinational core, finite STA."""
    from repro.errors import ReproError
    from repro.timing.incremental import TimingSession

    out: list[InvariantViolation] = []
    try:
        design.netlist.topological_order()
    except ReproError as exc:
        out.append(
            InvariantViolation("timing", "comb-loop", design.name, str(exc))
        )
        return out  # STA would loop forever on a cyclic graph

    placed = design.floorplan is not None and all(
        i.is_placed for i in design.netlist.instances.values()
    )
    # A placed design is checked on its own calculator and session, so a
    # boundary adds no second invalidation listener.  A calculator the
    # check had to build is released with it: a held one is dropped
    # (signoff already released the flow's), any other detached, so
    # reference counting frees both.
    held = design.held_calculator()
    calc = design.calculator(placed=placed)
    try:
        session = TimingSession.shared(
            design.netlist, calc, design.clock_latencies()
        )
        report = session.report(
            design.target_period_ns, with_cell_slacks=False
        )
    except ReproError as exc:
        out.append(
            InvariantViolation("timing", "sta-failed", design.name, str(exc))
        )
        return out
    finally:
        if calc is not held:
            if design.held_calculator() is calc:
                design.drop_calculator()
            else:
                calc.detach_sessions()
    for label, value in (("wns_ns", report.wns_ns), ("tns_ns", report.tns_ns)):
        if not math.isfinite(value):
            out.append(
                InvariantViolation("timing", "non-finite-slack", label,
                                   f"{label} = {value}")
            )
    return out


# ----------------------------------------------------------------------
# parasitics
# ----------------------------------------------------------------------
def check_parasitics(design: Design) -> list[InvariantViolation]:
    """Every cached net of the design's calculator is exact.

    An edit that changes a net's pins, positions, tiers or pin caps
    without invalidating the net leaves its cached parasitics stale,
    and every later timing query reads them.
    """
    from repro.timing.delaycalc import PlacementWireModel

    calc = design.held_calculator()
    if calc is None:
        return []
    netlist = design.netlist
    model = PlacementWireModel(design.reference_library())
    out: list[InvariantViolation] = []
    for net_name, cached in calc.cached_parasitics().items():
        net = netlist.nets.get(net_name)
        if net is None:
            out.append(InvariantViolation(
                "parasitics", "removed-net", net_name,
                "parasitics cached for a net the netlist no longer has",
                repairable=True,
            ))
        elif cached != model.extract(netlist, net):
            out.append(InvariantViolation(
                "parasitics", "stale-net", net_name,
                "cached parasitics differ from a fresh extraction",
                repairable=True,
            ))
    return out


#: Checker registry, in the order boundaries run them.
CHECKS = {
    "connectivity": check_connectivity,
    "placement": check_placement,
    "tiers": check_tiers,
    "tier_balance": check_tier_balance,
    "timing": check_timing,
    "parasitics": check_parasitics,
}


def check_design(
    design: Design, checks: tuple[str, ...] | None = None
) -> list[InvariantViolation]:
    """Run the named checks (default: all) and concatenate violations."""
    names = tuple(CHECKS) if checks is None else checks
    out: list[InvariantViolation] = []
    for name in names:
        try:
            checker = CHECKS[name]
        except KeyError:
            raise ValueError(
                f"unknown integrity check {name!r} "
                f"(expected one of {', '.join(CHECKS)})"
            ) from None
        out.extend(checker(design))
    return out


# ----------------------------------------------------------------------
# finished results
# ----------------------------------------------------------------------
def check_result(result) -> list[InvariantViolation]:
    """Validate a finished :class:`~repro.flow.report.FlowResult`.

    Accepts the dataclass or its ``to_dict`` form.  Checks that every
    scalar the paper tables consume is finite, that areas/costs are
    positive, and that the density is physically plausible.
    """
    from repro.flow.report import FlowResult

    if isinstance(result, dict):
        result = FlowResult.from_dict(result)

    out: list[InvariantViolation] = []

    def bad(code: str, subject: str, message: str):
        out.append(InvariantViolation("result", code, subject, message))

    for name, value in result.row().items():
        if not math.isfinite(value):
            bad("non-finite", name, f"{name} = {value}")
    for name, value in (
        ("si_area_mm2", result.si_area_mm2),
        ("footprint_mm2", result.footprint_mm2),
        ("period_ns", result.period_ns),
        ("die_cost_1e6", result.die_cost_1e6),
        ("total_power_mw", result.total_power_mw),
    ):
        if not (math.isfinite(value) and value > 0.0):
            bad("non-positive", name, f"{name} = {value}")
    if not 0.0 < result.density <= 1.0:
        bad("density-out-of-range", "density", f"density = {result.density}")
    if result.frequency_ghz > 0 and result.period_ns > 0:
        if abs(result.frequency_ghz * result.period_ns - 1.0) > 1e-6:
            bad("inconsistent", "frequency_ghz",
                f"frequency {result.frequency_ghz} does not invert "
                f"period {result.period_ns}")
    if result.miv_count < 0 or result.cut_nets < 0:
        bad("negative-count", "miv_count", "negative 3-D via statistics")
    return out
