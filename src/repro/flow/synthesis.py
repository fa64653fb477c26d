"""Synthesis stand-in: netlist generation and initial sizing.

The paper synthesizes each RTL in the target technology "for better PPA"
(Section IV-A2).  Our generators emit technology-bound netlists directly,
so this module covers the rest of what synthesis does: **initial
sizing** with a wire-load model -- drivers are sized so their output
load stays under a per-drive budget, design-rule violations are
buffered, then a few timing-driven sizing rounds run against the fanout
wire model (pre-placement).  The max-frequency search the paper applies
to the 12-track 2-D implementation lives in
:func:`~repro.experiments.runner.find_target_period`.

:func:`synthesize` is the synthesis stage every flow runs.  Inside a
:func:`~repro.flow.memo.stage_memo` block it keeps structural copies of
the sized netlists (:meth:`~repro.netlist.core.Netlist.copy`) in the
memo and serves each hit a fresh copy instead of regenerating it;
outside one it always runs cold.
"""

from __future__ import annotations

from repro.flow.design import Design, EditJournal
from repro.flow.memo import current_memo
from repro.flow.opt import optimize_timing
from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Netlist
from repro.netlist.generators import generate_netlist
from repro.obs import emit_metric, span
from repro.timing.delaycalc import DelayCalculator, FanoutWireModel

__all__ = ["fix_drv_violations", "initial_sizing", "synthesize"]

#: Load budget per unit drive (fF): a x1 gate should not see more.
LOAD_BUDGET_PER_DRIVE_FF = 6.0

#: Slew-derived max-load rule: a driver may see at most this many fF times
#: the inverse of its library's x1 inverter resistance (kOhm).  Slower
#: libraries therefore get proportionally stricter limits -- the root of
#: the 9-track "over-correction" (Section IV-B2): meeting design rules in
#: a slow library at a fast target demands far more buffering.
DRV_LOAD_BUDGET = 140.0

#: Buffering passes of :func:`fix_drv_violations`; a second pass fixes
#: what the repeaters of the first still overload.
DRV_FIX_PASSES = 2

#: Timing-driven sizing rounds against the fanout wire model.
TIMING_ROUNDS = 6


def max_drv_load_ff(lib: StdCellLibrary) -> float:
    """Library max-capacitance design rule derived from its x1 inverter."""
    from repro.liberty.cells import CellFunction

    inv = lib.get(CellFunction.INV, 1)
    mid_slew = inv.worst_arc_to_output().delay.slew_axis[2]
    # effective drive resistance from the delay slope (kOhm)
    d_lo = inv.worst_arc_to_output().delay.lookup(mid_slew, 1.0)
    d_hi = inv.worst_arc_to_output().delay.lookup(mid_slew, 11.0)
    r_kohm = (d_hi - d_lo) / 10.0 * 1e3
    return DRV_LOAD_BUDGET / max(r_kohm, 1e-6)


def fix_drv_violations(design: Design) -> int:
    """Buffer nets whose load exceeds the library max-cap rule.

    Sinks of an over-loaded net are split behind BUF x4 repeaters until
    every driver sees a legal load.  Runs pre-placement (buffers are
    placed by the global placer along with everything else).  Returns the
    number of buffers added.
    """
    from repro.liberty.cells import CellFunction

    netlist = design.netlist
    libs = design.libraries_by_name()
    journal = EditJournal(design)
    limits: dict[str, float] = {}  # max_drv_load_ff per library
    added = 0
    for _ in range(DRV_FIX_PASSES):
        pass_added = 0
        for net_name in list(netlist.nets):
            net = netlist.nets[net_name]
            if net.is_clock or net.driver is None:
                continue
            driver = netlist.instances[net.driver[0]]
            lib = libs[driver.cell.library_name]
            limit = limits.get(lib.name)
            if limit is None:
                limit = limits[lib.name] = max_drv_load_ff(lib)
            load = sum(
                netlist.instances[s].cell.input_capacitance_ff(p)
                for s, p in net.sinks
            )
            if load <= limit or len(net.sinks) < 2:
                continue
            groups = max(2, int(load / limit) + 1)
            buf_cell = lib.get(CellFunction.BUF, 4)
            sinks = list(net.sinks)
            chunk = (len(sinks) + groups - 1) // groups
            for g in range(groups):
                part = sinks[g * chunk : (g + 1) * chunk]
                if not part:
                    continue
                journal.insert_repeater(
                    net_name, part, "drvbuf", buf_cell, "drvnet",
                    tier=driver.tier, block=driver.block, over=driver.name,
                )
                pass_added += 1
        added += pass_added
        if pass_added == 0:
            break
    return added


def initial_sizing(design: Design) -> int:
    """Size gates against the wire-load model; returns cells resized.

    Three synthesis-style passes: a load-driven sizing pass (every driver
    gets the smallest drive whose budget covers its load), a
    design-rule-violation buffering pass, then a few rounds of the shared
    timing optimizer running on fanout-model parasitics.  Only the last
    pass reads the target period.
    """
    resized = _load_sizing(design)
    _timing_rounds(design)
    return resized


def _load_sizing(design: Design) -> int:
    """The period-independent passes of :func:`initial_sizing`."""
    netlist = design.netlist
    libs = design.libraries_by_name()
    calc = DelayCalculator(
        netlist, FanoutWireModel(design.reference_library()), libs
    )
    resized = 0
    for inst in list(netlist.instances.values()):
        if inst.cell.is_macro or inst.fixed:
            continue
        load = calc.output_load_ff(inst, inst.cell.output_pin)
        inst_lib = libs[inst.cell.library_name]
        drives = inst_lib.drives_for(inst.cell.function)
        want = next(
            (d for d in drives if d * LOAD_BUDGET_PER_DRIVE_FF >= load),
            drives[-1],
        )
        if want != inst.cell.drive:
            netlist.rebind(inst.name, inst_lib.get(inst.cell.function, want))
            resized += 1
    fix_drv_violations(design)
    return resized


def _timing_rounds(design: Design) -> None:
    """The period-dependent pass of :func:`initial_sizing`."""
    calc = DelayCalculator(
        design.netlist,
        FanoutWireModel(design.reference_library()),
        design.libraries_by_name(),
    )
    optimize_timing(design, calc, max_iterations=TIMING_ROUNDS)
    calc.detach_sessions()


def synthesize(
    design_name: str,
    config: str,
    tier_libs: dict[int, StdCellLibrary],
    *,
    period_ns: float,
    scale: float,
    seed: int,
    utilization: float,
) -> Design:
    """The synthesis stage: a sized netlist in a fresh :class:`Design`.

    The netlist is generated in, and sized against, the tier-0 library
    with every cell on tier 0.  Nothing else of ``tier_libs`` is read:
    a single-library netlist triggers no input-boundary derate, so a
    hetero design synthesizes exactly like the 12-track 2-D one.  That
    is what makes the memo's key (which has no config in it) exact.
    """
    lib = tier_libs[0]

    def fresh(netlist: Netlist) -> Design:
        return Design(
            name=design_name,
            config=config,
            netlist=netlist,
            tier_libs=tier_libs,
            target_period_ns=period_ns,
            utilization_target=utilization,
        )

    with span("synthesis", design=design_name, library=lib.name):
        memo = current_memo()
        if memo is None:
            design = fresh(generate_netlist(design_name, lib, scale=scale,
                                            seed=seed))
            initial_sizing(design)
        else:
            base_key = (design_name, id(lib), scale, seed)
            key = base_key + (period_ns,)
            stored = memo.get(key) or memo.get(base_key)
            if stored is None:
                design = fresh(generate_netlist(design_name, lib,
                                                scale=scale, seed=seed))
                _load_sizing(design)
                memo.put(base_key, design.netlist.copy(), lib)
            else:
                design = fresh(stored.copy())
            if key not in memo:
                _timing_rounds(design)
                memo.put(key, design.netlist.copy(), lib)
        emit_metric("cells", len(design.netlist.instances))
        emit_metric("cell_area_um2", design.netlist.cell_area_um2)
    return design
