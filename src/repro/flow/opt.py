"""Timing optimization: cell sizing, buffer insertion, area recovery.

This stands in for the optimization passes of a commercial PnR tool, and
its behaviour is what makes the paper's cross-configuration comparisons
meaningful:

- On violating paths, cells are **upsized** (next drive strength in the
  *instance's own tier library* -- the tool never crosses technologies,
  exactly the limitation Section I points out) and long wire segments are
  **buffered**.
- When timing is met with margin, high-slack cells are **downsized** for
  power ("when the timing target is not set tightly, the tool starts
  optimizing for power", Section IV-A2).

Because a 9-track design at a 12-track frequency target cannot close
timing with sizing alone, the optimizer keeps inflating area and power
and still ends with negative WNS -- the "over-correction" that makes the
9-track 2-D configurations lose on *every* metric in Table VII.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flow.design import Design
from repro.liberty.cells import CellFunction
from repro.obs import emit_metric, span
from repro.place.legalizer import row_capacity_um2
from repro.timing.delaycalc import DelayCalculator
from repro.timing.incremental import TimingSession

__all__ = ["AreaBudget", "OptimizeStats", "optimize_timing", "recover_area"]

#: Wire delay above which a segment is a buffering candidate (ns).
BUFFER_WIRE_THRESHOLD_NS = 0.025

#: Paths examined per optimization round.
PATHS_PER_ROUND = 12

#: WNS goal of optimization as a fraction of the period: slightly
#: negative, mirroring the paper's "allowing for a small negative slack
#: shows that the achieved frequency is the max possible".
TARGET_WNS_FRACTION = -0.02

#: Slack margin (fraction of period) above which cells may downsize.
RECOVERY_MARGIN = 0.12

#: Most cells one area recovery may downsize.
RECOVERY_MAX_CELLS = 2000


#: Fraction of the core area optimization may fill per tier.  Kept below
#: the legalizer's row-fill limit with margin for row-count quantization.
MAX_UTILIZATION = 0.93


class AreaBudget:
    """Per-tier area headroom enforced during optimization.

    Mirrors a PnR tool's max-utilization constraint: once a tier's core
    is (nearly) full, upsizing and buffering on that tier stop.  This is
    what leaves the 9-track configurations with large negative WNS at
    12-track frequencies instead of growing without bound.
    """

    def __init__(self, design: Design, max_fill: float = MAX_UTILIZATION) -> None:
        self._used: dict[int, float] = {}
        self._cap: dict[int, float] = {}
        if design.floorplan is None:
            # Pre-placement (synthesis) optimization is unconstrained.
            self._unbounded = True
            return
        self._unbounded = False
        for tier, lib in design.tier_libs.items():
            core = row_capacity_um2(design.floorplan, lib, tier)
            self._cap[tier] = core * max_fill
            self._used[tier] = design.netlist.cell_area_um2(
                lambda i, t=tier: i.tier == t and not i.cell.is_macro
            )

    def can_grow(self, tier: int, delta_um2: float) -> bool:
        """True when a tier can absorb ``delta_um2`` more cell area."""
        if self._unbounded or delta_um2 <= 0:
            return True
        return self._used.get(tier, 0.0) + delta_um2 <= self._cap.get(tier, 0.0)

    def apply(self, tier: int, delta_um2: float) -> None:
        """Record committed growth (or shrink, negative delta)."""
        if not self._unbounded:
            self._used[tier] = self._used.get(tier, 0.0) + delta_um2


@dataclass
class OptimizeStats:
    """What one optimization run did."""

    iterations: int = 0
    upsized: int = 0
    cloned: int = 0
    buffers_added: int = 0
    downsized: int = 0
    wns_before_ns: float = 0.0
    wns_after_ns: float = 0.0
    history: list[float] = field(default_factory=list)


def _try_upsize(
    design: Design,
    calc: DelayCalculator,
    inst_name: str,
    budget: AreaBudget,
) -> bool:
    """Upsize one instance within its tier library if it helps its arc delay."""
    inst = design.netlist.instances[inst_name]
    if inst.cell.is_macro or inst.fixed:
        return False
    lib = design.library_for_tier(inst.tier)
    if inst.cell.library_name != lib.name:
        lib = design.libraries_by_name()[inst.cell.library_name]
    bigger = lib.upsize(inst.cell)
    if bigger is None:
        return False
    if not budget.can_grow(inst.tier, bigger.area_um2 - inst.cell.area_um2):
        return False
    out_pin = inst.cell.output_pin
    load = calc.output_load_ff(inst, out_pin)
    old_arc = inst.cell.worst_arc_to_output()
    new_arc = bigger.worst_arc_to_output()
    old_d = old_arc.delay.lookup(0.05, load)
    new_d = new_arc.delay.lookup(0.05, load)
    # Upsizing raises input caps upstream; require a real win here.
    if new_d >= old_d - 1e-4:
        return False
    budget.apply(inst.tier, bigger.area_um2 - inst.cell.area_um2)
    design.netlist.rebind(inst_name, bigger)
    _invalidate_around(design, calc, inst_name)
    return True


def _invalidate_around(design: Design, calc: DelayCalculator, inst_name: str) -> None:
    inst = design.netlist.instances[inst_name]
    for _pin, net_name in inst.connected_pins():
        calc.invalidate(net_name)
    design.touch_placement(inst_name)


def _try_clone(
    design: Design,
    calc: DelayCalculator,
    inst_name: str,
    budget: AreaBudget,
) -> bool:
    """Duplicate a maxed-out driver and split its fanout (load cloning).

    When a violating cell is already at the strongest drive, synthesis
    tools duplicate the gate and divide its sinks -- halving the load each
    copy sees at the cost of a whole extra cell.  This transform is what
    lets a slow library keep converting area and power into speed at an
    aggressive target, producing the 9-track "over-correction" bloat of
    Section IV-B2.
    """
    netlist = design.netlist
    inst = netlist.instances[inst_name]
    if inst.cell.is_macro or inst.fixed:
        return False
    out_pin = inst.cell.output_pin
    out_net_name = inst.net_of(out_pin)
    if out_net_name is None:
        return False
    net = netlist.nets[out_net_name]
    if net.fanout < 2 or net.is_clock:
        return False
    if not budget.can_grow(inst.tier, inst.cell.area_um2):
        return False
    budget.apply(inst.tier, inst.cell.area_um2)

    clone_name = netlist.unique_name(f"{inst_name}_cl")
    clone = netlist.add_instance(clone_name, inst.cell, block=inst.block)
    clone.tier = inst.tier
    if inst.is_placed:
        clone.x_um, clone.y_um = inst.x_um, inst.y_um
    for pin in inst.cell.input_pins:
        src = inst.net_of(pin)
        if src is not None:
            netlist.connect(src, clone_name, pin)
    clock_pin = inst.cell.clock_pin
    if clock_pin is not None:
        src = inst.net_of(clock_pin)
        if src is not None:
            netlist.connect(src, clone_name, clock_pin)
    new_net = netlist.add_net(netlist.unique_name(f"{out_net_name}_cl"))
    netlist.connect(new_net.name, clone_name, out_pin)
    moved = net.sinks[len(net.sinks) // 2 :]
    for s, p in list(moved):
        netlist.disconnect(s, p)
        netlist.connect(new_net.name, s, p)
    calc.invalidate(out_net_name)
    calc.invalidate(new_net.name)
    # The clone's pins don't cover out_net, so touch both cells.
    design.touch_placement(inst_name)
    design.touch_placement(clone_name)
    return True


def _insert_buffer(
    design: Design,
    calc: DelayCalculator,
    driver_name: str,
    sink_name: str,
    budget: AreaBudget,
) -> bool:
    """Split the driver->sink connection with a buffer at the midpoint."""
    netlist = design.netlist
    driver = netlist.instances.get(driver_name)
    sink = netlist.instances.get(sink_name)
    if driver is None or sink is None:
        return False
    if not (driver.is_placed and sink.is_placed):
        return False
    out_net_name = driver.net_of(driver.cell.output_pin)
    if out_net_name is None:
        return False
    net = netlist.nets[out_net_name]
    sink_pins = [(s, p) for s, p in net.sinks if s == sink_name]
    if not sink_pins:
        return False

    lib = design.library_for_tier(driver.tier)
    if driver.cell.library_name in design.libraries_by_name():
        lib = design.libraries_by_name()[driver.cell.library_name]
    buf_cell = lib.get(CellFunction.BUF, 4)
    if not budget.can_grow(driver.tier, buf_cell.area_um2):
        return False
    budget.apply(driver.tier, buf_cell.area_um2)

    buf_name = netlist.unique_name("optbuf")
    buf = netlist.add_instance(buf_name, buf_cell, block=driver.block)
    buf.tier = driver.tier
    dx, dy = driver.center()
    sx, sy = sink.center()
    buf.x_um = (dx + sx) / 2.0
    buf.y_um = (dy + sy) / 2.0

    new_net = netlist.add_net(netlist.unique_name("optnet"))
    netlist.connect(out_net_name, buf_name, "A")
    netlist.connect(new_net.name, buf_name, "Y")
    for s, p in sink_pins:
        netlist.disconnect(s, p)
        netlist.connect(new_net.name, s, p)
    calc.invalidate(out_net_name)
    calc.invalidate(new_net.name)
    design.touch_placement(buf_name)
    return True


def optimize_timing(
    design: Design,
    calc: DelayCalculator,
    *,
    max_iterations: int = 12,
    max_fill: float = MAX_UTILIZATION,
) -> OptimizeStats:
    """Iteratively size and buffer until timing converges or stalls.

    Stops once WNS reaches :data:`TARGET_WNS_FRACTION` of the period.
    ``max_fill`` bounds per-tier area growth; the hetero flow runs its
    pre-ECO optimization with a tighter bound so the repartitioning
    loop still has fast-die room to move cells into.
    """
    with span("optimize", max_iterations=max_iterations):
        stats = _optimize(design, calc, max_iterations, max_fill)
        emit_metric("opt_upsized", stats.upsized)
        emit_metric("opt_buffers", stats.buffers_added)
    return stats


def _optimize(
    design: Design,
    calc: DelayCalculator,
    max_iterations: int,
    max_fill: float,
) -> OptimizeStats:
    stats = OptimizeStats()
    period = design.target_period_ns
    latencies = design.clock_latencies()
    target = TARGET_WNS_FRACTION * period
    budget = AreaBudget(design, max_fill)

    session = TimingSession.shared(design.netlist, calc, latencies)
    report = session.report(period, with_cell_slacks=True)
    stats.wns_before_ns = report.wns_ns
    stats.wns_after_ns = report.wns_ns

    for _ in range(max_iterations):
        stats.iterations += 1
        stats.history.append(report.wns_ns)
        if report.wns_ns >= target:
            break
        changed = 0

        # Cell-based coverage: every instance whose worst path violates is
        # an upsizing candidate, worst first.  This is what lets a slow
        # library "over-correct" -- at an unreachable frequency target the
        # whole violating cone inflates until the area budget is gone.
        violators = sorted(
            (
                (slack, name)
                for name, slack in report.cell_slack.items()
                if slack < target
            ),
        )
        # Worst-first, at most a quarter of the violators per round: the
        # STA rerun between rounds stops the optimizer from spending area
        # on paths an earlier upsize already fixed.
        round_cap = max(60, len(violators) // 4)
        for _slack, name in violators[:round_cap]:
            if _try_upsize(design, calc, name, budget):
                changed += 1
                stats.upsized += 1
            elif _try_clone(design, calc, name, budget):
                # already at max drive: duplicate and split the fanout
                changed += 1
                stats.cloned += 1

        # Wire-dominated segments on the worst paths get buffers.
        paths = session.top_paths(report, PATHS_PER_ROUND)
        for path in paths:
            prev_inst: str | None = None
            for step in path.steps:
                if (
                    step.wire_delay_ns > BUFFER_WIRE_THRESHOLD_NS
                    and prev_inst is not None
                ):
                    if _insert_buffer(
                        design, calc, prev_inst, step.instance, budget
                    ):
                        changed += 1
                        stats.buffers_added += 1
                prev_inst = step.instance

        if changed == 0:
            break
        report = session.report(period, with_cell_slacks=True)
        stats.wns_after_ns = report.wns_ns

    stats.wns_after_ns = report.wns_ns
    return stats


def recover_area(design: Design, calc: DelayCalculator) -> int:
    """Downsize high-slack cells for power; returns the number downsized.

    Only cells whose worst path slack exceeds ``RECOVERY_MARGIN`` of the
    period are candidates, and each downsizing is checked against the
    local delay increase so recovery cannot create new violations.  Up to
    two passes run (slacks are re-analyzed between passes), because the
    first wave of downsizing uncovers more recoverable slack; at most
    ``RECOVERY_MAX_CELLS`` cells are downsized.
    """
    with span("area_recovery", max_cells=RECOVERY_MAX_CELLS):
        downsized = _recover(design, calc)
        emit_metric("opt_downsized", downsized)
    return downsized


def _recover(design: Design, calc: DelayCalculator) -> int:
    period = design.target_period_ns
    latencies = design.clock_latencies()
    margin = RECOVERY_MARGIN * period
    libs = design.libraries_by_name()
    downsized = 0
    session = TimingSession.shared(design.netlist, calc, latencies)
    for _pass in range(2):
        report = session.report(period, with_cell_slacks=True)
        candidates = sorted(
            (
                (slack, name)
                for name, slack in report.cell_slack.items()
                if slack > margin
            ),
            reverse=True,
        )
        pass_count = 0
        for slack, name in candidates:
            if downsized >= RECOVERY_MAX_CELLS:
                break
            inst = design.netlist.instances[name]
            if inst.cell.is_macro or inst.fixed or inst.cell.is_sequential:
                continue
            lib = libs[inst.cell.library_name]
            smaller = lib.downsize(inst.cell)
            if smaller is None:
                continue
            load = calc.output_load_ff(inst, inst.cell.output_pin)
            old_d = inst.cell.worst_arc_to_output().delay.lookup(0.05, load)
            new_d = smaller.worst_arc_to_output().delay.lookup(0.05, load)
            if new_d - old_d < slack - margin:
                design.netlist.rebind(name, smaller)
                _invalidate_around(design, calc, name)
                downsized += 1
                pass_count += 1
        if pass_count == 0 or downsized >= RECOVERY_MAX_CELLS:
            break
    return downsized
