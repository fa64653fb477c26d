"""Level-shifter insertion for large inter-tier voltage gaps.

Section III-B: the paper *avoids* level shifters by keeping
``V_DDH - V_DDL < 0.3 x V_DDH`` -- with ~15% of nets crossing the tiers,
shifters on every crossing would wreck timing and power.  This module
implements the alternative the paper argues against, so the tradeoff can
be measured instead of asserted: given a heterogeneous design whose rail
gap is too large, insert a level shifter on every low-to-high crossing
and report the cost.

A signal driven from the low rail into a high-rail gate needs shifting
when the gap exceeds the receiving device's threshold voltage (the input
high would not register); high-to-low crossings are overdriven and safe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.design import Design
from repro.liberty.cells import CellFunction

__all__ = [
    "LevelShifterReport",
    "boundary_violations",
    "insert_level_shifters",
    "needs_level_shifter",
]


def needs_level_shifter(
    driver_vdd_v: float, sink_vdd_v: float, sink_vth_v: float
) -> bool:
    """True when a driver rail cannot legally drive a sink gate.

    The paper's legality condition: the rail gap must stay below the
    receiving device's threshold (with margin); only low-to-high
    crossings can violate it.
    """
    gap = sink_vdd_v - driver_vdd_v
    return gap > 0 and gap >= sink_vth_v


@dataclass(frozen=True)
class LevelShifterReport:
    """What insertion did to the design."""

    crossings_checked: int
    violating_nets: int
    shifters_inserted: int
    shifter_area_um2: float


def boundary_violations(design: Design) -> list[str]:
    """Names of nets whose low-rail driver cannot drive a high-rail sink."""
    netlist = design.netlist
    libs = design.libraries_by_name()
    violating = []
    for net in netlist.cut_nets():
        driver = netlist.driver_instance(net)
        if driver is None:
            continue
        for sink_name, _pin in net.sinks:
            sink = netlist.instances[sink_name]
            if sink.cell.function is CellFunction.LEVEL_SHIFTER:
                continue  # a shifter input is the legal foreign-rail sink
            sink_lib = libs[sink.cell.library_name]
            if needs_level_shifter(
                driver.cell.vdd_v, sink.cell.vdd_v, sink_lib.vth_v
            ):
                violating.append(net.name)
                break
    return violating


def insert_level_shifters(design: Design) -> LevelShifterReport:
    """Insert a level shifter on every violating tier crossing.

    The shifter comes from the *receiving* tier's library (it must produce
    that tier's full swing), is placed at the centroid of the sinks it
    serves, and takes over all high-rail sinks of the net.  Positions are
    approximate; callers re-legalize afterwards.
    """
    netlist = design.netlist
    libs = design.libraries_by_name()
    checked = 0
    violating = 0
    inserted = 0
    area = 0.0

    for net_name in [n.name for n in netlist.cut_nets()]:
        net = netlist.nets[net_name]
        driver = netlist.driver_instance(net)
        if driver is None:
            continue
        checked += 1
        needy = []
        for sink_name, pin in list(net.sinks):
            sink = netlist.instances[sink_name]
            if sink.cell.function is CellFunction.LEVEL_SHIFTER:
                continue  # already behind a shifter
            sink_lib = libs[sink.cell.library_name]
            if needs_level_shifter(
                driver.cell.vdd_v, sink.cell.vdd_v, sink_lib.vth_v
            ):
                needy.append((sink_name, pin))
        if not needy:
            continue
        violating += 1

        first_sink = netlist.instances[needy[0][0]]
        target_lib = libs[first_sink.cell.library_name]

        # Idempotency: a repeated pass (the post-ECO cleanup, or a repair
        # hook re-running insertion) must not double-insert.  If this net
        # already feeds a shifter producing the needed rail, route the new
        # sinks through that shifter's output instead of adding another.
        existing = None
        for sink_name, pin in net.sinks:
            cand = netlist.instances[sink_name]
            if (pin == "A"
                    and cand.cell.function is CellFunction.LEVEL_SHIFTER
                    and cand.cell.library_name == target_lib.name
                    and cand.net_of("Y") is not None):
                existing = cand
                break
        if existing is not None:
            out_net = existing.net_of("Y")
            for sink_name, pin in needy:
                netlist.disconnect(sink_name, pin)
                netlist.connect(out_net, sink_name, pin)
            # Both rerouted nets are pins of the existing shifter, so one
            # touch refreshes their HPWL/congestion entries.
            design.touch_placement(existing.name)
            continue

        ls_cell = target_lib.get(CellFunction.LEVEL_SHIFTER, 1)
        ls_name = netlist.unique_name("ls")
        ls = netlist.add_instance(ls_name, ls_cell, block=driver.block)
        ls.tier = first_sink.tier
        placed = [
            netlist.instances[s].center()
            for s, _p in needy
            if netlist.instances[s].is_placed
        ]
        if placed:
            ls.x_um = sum(p[0] for p in placed) / len(placed)
            ls.y_um = sum(p[1] for p in placed) / len(placed)
        new_net = netlist.add_net(netlist.unique_name(f"{net_name}_ls"))
        netlist.connect(net_name, ls_name, "A")
        netlist.connect(new_net.name, ls_name, "Y")
        for sink_name, pin in needy:
            netlist.disconnect(sink_name, pin)
            netlist.connect(new_net.name, sink_name, pin)
        design.touch_placement(ls_name)
        inserted += 1
        area += ls_cell.area_um2

    if violating:
        # The rewiring above reaches no delay calculator.
        design.drop_calculator()
    return LevelShifterReport(
        crossings_checked=checked,
        violating_nets=violating,
        shifters_inserted=inserted,
        shifter_area_um2=area,
    )
