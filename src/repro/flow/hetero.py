"""Hetero-Pin-3D: the paper's heterogeneous monolithic 3-D flow.

Section III's enhancements over plain Pin-3D, all implemented here:

1. **Timing-based partitioning** (III-A1): after the pseudo-3-D stage
   (12-track only -- the pseudo-3-D stage supports a single technology),
   per-cell worst slacks pin the critical cells to the fast bottom die,
   capped at 20-30% of cell area; bin-based FM min-cut handles the rest.
2. **Technology remap + footprint shrink** (IV-A2): cells assigned to the
   top tier are rebound to the 9-track library; with half the cell area
   now 25% smaller, total cell area drops ~12.5% and the footprint is
   rebuilt to maintain the target utilization.
3. **Heterogeneous 3-D CTS** (III-A2): one clock tree across both tiers
   (COVER-cell abstraction) with the PREFER_SLOW tier policy, yielding
   the top-die-heavy, low-power clock network of Table VIII.
4. **ECO repartitioning** (III-C, Algorithm 1): cells that real 3-D
   timing shows to be too slow for the 9-track die are ECO-moved to the
   12-track die, batch by batch, with undo on non-improvement.

Each enhancement can be disabled independently, which is how the Table V
ablation (Pin-3D vs Hetero-Pin-3D on the same heterogeneous stack) is
produced.

The flow runs as :class:`~repro.flow.pipeline.Stage` objects under
:func:`~repro.flow.pipeline.execute_flow`; the ``level_shift`` /
``final_shifters`` stages only exist when the library pair needs
shifters, and ``repartition`` only when the ECO loop is enabled, so the
stage list (and the checkpoint sequence) is deterministic for a given
set of flow arguments.
"""

from __future__ import annotations

from repro.cts.tree import ClockTreeSynthesizer, TierPolicy
from repro.flow.design import Design
from repro.flow.levelshift import insert_level_shifters
from repro.flow.opt import optimize_timing, recover_area
from repro.flow.pin3d import FM_BALANCE_TOLERANCE, apply_partition
from repro.flow.pipeline import FlowContext, Stage, execute_flow
from repro.flow.report import FlowResult, finalize_design
from repro.flow.stages import legalize_all_tiers, place_with_congestion_control
from repro.flow.synthesis import synthesize
from repro.liberty.library import StdCellLibrary
from repro.obs import emit_metric, span
from repro.partition.bins import bin_fm_partition
from repro.partition.repartition import (
    RepartitionConfig,
    RepartitionResult,
    repartition_eco,
)
from repro.partition.timing_driven import timing_based_pinning
from repro.place.floorplan import build_floorplan
from repro.place.quadratic import global_place
from repro.place.legalizer import row_capacity_um2
from repro.timing.incremental import TimingSession

__all__ = ["run_flow_hetero_3d"]

FAST_TIER = 0  # bottom die, 12-track at 0.90 V
SLOW_TIER = 1  # top die, 9-track at 0.81 V


def _run_repartition(
    design: Design,
    config: RepartitionConfig,
    fast_fill_cap: float = 0.93,
) -> RepartitionResult:
    """Wire Algorithm 1 to real STA, remap, and undo callbacks."""
    calc = design.calculator(placed=True)
    latencies = design.clock_latencies()
    # One incremental session spans the whole ECO loop: each batch of
    # tier moves invalidates only the touched nets, so every analyze()
    # call re-propagates just the moved cells' fanout cones.
    session = TimingSession(design.netlist, calc, latencies)

    def analyze():
        report = session.report(
            design.target_period_ns, with_cell_slacks=False
        )
        paths = session.top_paths(report, config.n_paths)
        return report.wns_ns, report.tns_ns, paths

    fast_capacity = (
        row_capacity_um2(
            design.floorplan, design.library_for_tier(FAST_TIER), FAST_TIER
        )
        * fast_fill_cap
    )
    fast_lib = design.library_for_tier(FAST_TIER)

    def move_to_fast(cells: list[str]):
        token = []
        fast_used = design.netlist.cell_area_um2(
            lambda i: i.tier == FAST_TIER and not i.cell.is_macro
        )
        for name in cells:
            inst = design.netlist.instances[name]
            if inst.cell.is_macro or inst.fixed:
                continue
            fast_cell = fast_lib.equivalent_of(inst.cell)
            if fast_used + fast_cell.area_um2 > fast_capacity:
                continue  # the fast die is out of legalizable room
            fast_used += fast_cell.area_um2
            token.append((name, inst.tier, inst.cell))
            design.remap_instance_to_tier(name, FAST_TIER)
            for _pin, net in inst.connected_pins():
                calc.invalidate(net)
        return token

    def undo(token) -> None:
        for name, tier, cell in token:
            inst = design.netlist.instances[name]
            inst.tier = tier
            design.netlist.rebind(name, cell)
            design.touch_placement(name)
            for _pin, net in inst.connected_pins():
                calc.invalidate(net)

    def tier_areas() -> tuple[float, float]:
        slow = design.netlist.tier_area_um2(SLOW_TIER)
        fast = design.netlist.tier_area_um2(FAST_TIER)
        return slow, fast

    def settle() -> None:
        # Re-legalize after each accepted batch so later analyze() calls
        # see real (legal) positions for the moved cells.  The placement
        # session re-packs only the rows the batch disturbed; timing is
        # then re-derived for the nets of every cell that actually moved.
        place = design.place_session()
        place.legalize_all()
        moved = place.last_moved
        if moved is None:
            calc.invalidate()
            return
        for name in moved:
            inst = design.netlist.instances.get(name)
            if inst is None:
                continue
            for _pin, net in inst.connected_pins():
                calc.invalidate(net)

    return repartition_eco(
        analyze, move_to_fast, undo, tier_areas, SLOW_TIER, config,
        settle=settle,
    )


def run_flow_hetero_3d(
    design_name: str,
    fast_lib: StdCellLibrary,
    slow_lib: StdCellLibrary,
    *,
    period_ns: float,
    scale: float = 1.0,
    seed: int = 0,
    utilization: float = 0.82,
    opt_iterations: int = 12,
    timing_partitioning: bool = True,
    hetero_cts: bool = True,
    repartition: bool = True,
    pinning_area_cap: float = 0.25,
    fm_tolerance: float | None = None,
    allow_level_shifters: bool = False,
    check: str | None = None,
    checkpoint_dir: str | None = None,
    from_stage: str | None = None,
    until_stage: str | None = None,
    design: Design | None = None,
) -> tuple[Design, FlowResult]:
    """Implement one netlist as a 9+12-track heterogeneous M3D design.

    ``fast_lib`` goes on the bottom tier, ``slow_lib`` on the top tier.
    Disabling ``timing_partitioning``/``hetero_cts``/``repartition``
    reproduces the plain Pin-3D baseline of Table V.

    ``pinning_area_cap`` bounds the fast-die area fraction the timing
    pinning may claim (the paper's 20-30% range) and ``fm_tolerance``
    overrides the FM partitioner's balance tolerance (default
    :data:`~repro.flow.pin3d.FM_BALANCE_TOLERANCE`) -- both are lattice
    axes of the design-space explorer (:mod:`repro.experiments.dse`).

    Library pairs violating the Section II-B voltage rule are rejected
    unless ``allow_level_shifters`` is set, in which case every illegal
    low-to-high crossing gets a level shifter -- the costly alternative
    Section III-B argues against, kept here so the tradeoff is measurable
    (see ``benchmarks/test_level_shifter_study.py``).

    ``until_stage`` stops after the named stage (checkpoint written,
    no signoff report) -- the returned result is ``None`` and the flow
    can be resumed later with ``from_stage``, from a checkpoint or from
    the returned design passed back as ``design``.
    """
    voltage_ok = fast_lib.voltage_compatible_with(slow_lib)
    if not voltage_ok and not allow_level_shifters:
        raise ValueError(
            "library pair violates the V_DDH - V_DDL < 0.3*V_DDH rule; "
            "level shifters would be required (Section III-B); pass "
            "allow_level_shifters=True to insert them anyway"
        )
    balance_tolerance = (
        FM_BALANCE_TOLERANCE if fm_tolerance is None else float(fm_tolerance)
    )

    # Pre-ECO optimization runs with a conservative fill bound: pushing a
    # 9-track-limited path with brute-force upsizing would fill the fast
    # die and leave the repartitioning loop nowhere to move cells.  When
    # level shifters will be inserted later, every sizing pass keeps
    # additional headroom for them.
    flow_fill = 0.93 if voltage_ok else 0.84
    pre_eco_fill = min(0.86, flow_fill) if repartition else (
        None if voltage_ok else flow_fill
    )

    def synthesis(ctx: FlowContext) -> None:
        ctx.design = synthesize(
            design_name, "3D_HET", {FAST_TIER: fast_lib, SLOW_TIER: slow_lib},
            period_ns=period_ns, scale=scale, seed=seed,
            utilization=utilization,
        )
        # Memory macros are corner-independent ("the same size in both
        # technology variants"), so their tier is a free choice;
        # alternating them over the two dies keeps the per-tier blockage
        # balanced and leaves the fast die room for the critical logic
        # that timing-based partitioning pins there.
        for i, macro in enumerate(sorted(ctx.design.netlist.memory_macros(),
                                         key=lambda m: m.name)):
            macro.tier = (i + SLOW_TIER) % 2

    def pseudo_place(ctx: FlowContext) -> None:
        # ---- pseudo-3-D stage (single technology: the fast library) ----
        place_with_congestion_control(
            ctx.design, demand_scale=0.5, area_scale=0.5
        )

    def partitioning(ctx: FlowContext) -> None:
        design = ctx.design
        netlist = design.netlist
        pseudo_fp = design.floorplan
        with span("partitioning", design=design_name):
            pinned: dict[str, int] = {}
            if timing_partitioning:
                calc = design.calculator(placed=True)
                session = TimingSession(netlist, calc)
                pinned = timing_based_pinning(
                    netlist,
                    session=session,
                    period_ns=period_ns,
                    fast_tier=FAST_TIER,
                    area_cap_fraction=pinning_area_cap,
                    # Cells within 30% of the period of criticality
                    # compete for the fast die; padding the fast tier
                    # with mid-slack cells would only waste the area the
                    # ECO loop later needs.
                    slack_threshold_ns=0.30 * period_ns,
                )
                design.notes["pinned_cells"] = float(len(pinned))
                std_area = netlist.cell_area_um2(
                    lambda i: not i.cell.is_macro
                )
                pinned_area = sum(
                    netlist.instances[n].area_um2 for n in pinned
                )
                design.notes["pinned_area_fraction"] = (
                    pinned_area / std_area if std_area > 0 else 0.0
                )
                design.notes["pinned_area_cap"] = pinning_area_cap

            # Balance with side-dependent areas: a cell moving to the top
            # tier will shrink to its 9-track equivalent, so the
            # partitioner measures each side in its own metric and both
            # dies land at the same fill.  Slightly more than half of the
            # original 12-track area migrates to the 9-track die,
            # shrinking total cell area by ~12-14% (Section IV-A2).
            areas_fast = {
                name: inst.area_um2
                for name, inst in netlist.instances.items()
            }
            areas_slow = {
                name: (
                    inst.area_um2
                    if inst.cell.is_macro
                    else slow_lib.equivalent_of(inst.cell).area_um2
                )
                for name, inst in netlist.instances.items()
            }
            assignment = bin_fm_partition(
                netlist,
                pseudo_fp.width_um,
                pseudo_fp.height_um,
                areas_fast,
                areas_slow,
                pinned=pinned,
                balance_tolerance=balance_tolerance,
                seed=seed,
            )
            apply_partition(design, assignment)  # remaps top tier to 9T
            design.notes["fm_balance_tolerance"] = balance_tolerance
            emit_metric("cut_nets", len(netlist.cut_nets()))

    def placement_3d(ctx: FlowContext) -> None:
        # ---- footprint shrink to maintain utilization ------------------
        # Per-tier demand now sizes the die: both tiers sit at the target
        # utilization, and the footprint shrinks relative to homogeneous
        # 3-D.
        design = ctx.design
        fp_util = design.notes.get("utilization_used", utilization)
        if not voltage_ok:
            # Reserve room for the level shifters (one per violating
            # crossing plus the ones later ECO moves will need).
            fp_util = fp_util * 0.85
        with span("placement", design=design_name, phase="3d"):
            new_fp = build_floorplan(
                design.netlist,
                design.tier_libs,
                fp_util,
            )
            design.floorplan = new_fp
            global_place(design.netlist, new_fp)

    def legalization(ctx: FlowContext) -> None:
        legalize_all_tiers(ctx.design)

    def level_shift(ctx: FlowContext) -> None:
        design = ctx.design
        ls_report = insert_level_shifters(design)
        design.notes["level_shifters"] = float(ls_report.shifters_inserted)
        legalize_all_tiers(design)

    def optimize(ctx: FlowContext) -> None:
        # ---- 3-D optimization ------------------------------------------
        design = ctx.design
        calc = design.calculator(placed=True)
        optimize_timing(
            design,
            calc,
            max_iterations=opt_iterations,
            **({"max_fill": pre_eco_fill} if pre_eco_fill else {}),
        )
        recover_area(design, calc)
        legalize_all_tiers(design)
        calc.invalidate()

    def cts(ctx: FlowContext) -> None:
        # ---- heterogeneous clock tree ----------------------------------
        design = ctx.design
        policy = TierPolicy.PREFER_SLOW if hetero_cts else TierPolicy.MAJORITY
        synth = ClockTreeSynthesizer(
            design.netlist,
            design.tier_libs,
            policy,
            frequency_ghz=design.frequency_ghz,
            slow_tier=SLOW_TIER,
        )
        design.clock_report = synth.run()

    def postcts(ctx: FlowContext) -> None:
        design = ctx.design
        calc = design.calculator(placed=True)
        optimize_timing(
            design,
            calc,
            max_iterations=max(2, opt_iterations // 4),
            **({"max_fill": pre_eco_fill} if pre_eco_fill else {}),
        )
        calc.invalidate()

    def repartition_stage(ctx: FlowContext) -> None:
        # ---- ECO repartitioning (Algorithm 1) --------------------------
        design = ctx.design
        config = RepartitionConfig(wns_target_ns=-0.02 * period_ns)
        eco = _run_repartition(design, config, fast_fill_cap=flow_fill)
        design.notes["eco_cells_moved"] = float(len(eco.cells_moved))
        design.notes["eco_batches_accepted"] = float(eco.batches_accepted)
        design.notes["eco_batches_rejected"] = float(eco.batches_rejected)
        design.notes["eco_stop"] = eco.stop_reason
        if eco.cells_moved:
            # The moved cells disturbed row legality; restore it before
            # the final sizing pass so it optimizes real parasitics.
            legalize_all_tiers(design)
            calc = design.calculator(placed=True)
            recover_area(design, calc)
            optimize_timing(
                design,
                calc,
                max_iterations=max(4, opt_iterations // 3),
                max_fill=flow_fill,
            )
            calc.invalidate()

    def final_shifters(ctx: FlowContext) -> None:
        # Optimization and ECO moves may have created fresh low-to-high
        # crossings; shift them too before signoff.
        design = ctx.design
        extra = insert_level_shifters(design)
        design.notes["level_shifters"] = (
            design.notes.get("level_shifters", 0.0) + extra.shifters_inserted
        )

    def final_legalize(ctx: FlowContext) -> None:
        legalize_all_tiers(ctx.design)

    def signoff(ctx: FlowContext) -> None:
        ctx.result = finalize_design(ctx.design)

    # The shifter rule is only enforced where shifters are guaranteed
    # present: optimization/CTS/ECO may legitimately create unshifted
    # crossings that ``final_shifters`` cleans up, so "tiers" stays out
    # of those boundaries in the shifter flow.
    stages = [
        Stage("synthesis", synthesis, ("connectivity", "timing")),
        Stage("pseudo_place", pseudo_place, ("connectivity",)),
        Stage("partitioning", partitioning,
              ("connectivity", "tiers", "tier_balance")),
        Stage("placement_3d", placement_3d, ("connectivity", "tiers")),
        Stage("legalization", legalization,
              ("connectivity", "placement", "tiers")),
    ]
    if not voltage_ok:
        stages.append(Stage("level_shift", level_shift,
                            ("connectivity", "placement", "tiers")))
    stages += [
        Stage("optimize", optimize, ("connectivity", "placement", "timing")),
        Stage("cts", cts, ("connectivity", "timing")),
        # No legalization after the post-CTS sizing pass (ECO runs next),
        # so placement legality is not a contract here.
        Stage("postcts", postcts, ("connectivity", "timing")),
    ]
    if repartition:
        stages.append(Stage("repartition", repartition_stage,
                            ("connectivity", "timing")))
    if not voltage_ok:
        stages.append(Stage("final_shifters", final_shifters,
                            ("connectivity",)))
    stages += [
        Stage("final_legalize", final_legalize,
              ("connectivity", "placement", "tiers")),
        Stage("signoff", signoff,
              ("connectivity", "placement", "tiers", "timing")),
    ]
    ctx = execute_flow(
        stages,
        check=check,
        checkpoint_dir=checkpoint_dir,
        from_stage=from_stage,
        until_stage=until_stage,
        tier_libs={FAST_TIER: fast_lib, SLOW_TIER: slow_lib},
        design=design,
    )
    return ctx.design, ctx.result
