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
from typing import Iterator

from repro.flow.design import Design, EditJournal
from repro.liberty.cells import CellFunction
from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Instance, Net, Netlist

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


def _low_to_high_sinks(
    netlist: Netlist,
    net: Net,
    driver: Instance,
    libs: dict[str, StdCellLibrary],
) -> Iterator[tuple[str, str]]:
    """The sinks of ``net`` its ``driver``'s rail cannot drive, in sink
    order; a shifter input is the legal foreign-rail sink."""
    for sink_name, pin in net.sinks:
        sink = netlist.instances[sink_name]
        if sink.cell.function is CellFunction.LEVEL_SHIFTER:
            continue
        if needs_level_shifter(driver.cell.vdd_v, sink.cell.vdd_v,
                               libs[sink.cell.library_name].vth_v):
            yield sink_name, pin


def boundary_violations(design: Design) -> list[str]:
    """Names of nets whose low-rail driver cannot drive a high-rail sink."""
    netlist = design.netlist
    libs = design.libraries_by_name()
    violating = []
    for net in netlist.cut_nets():
        driver = netlist.driver_instance(net)
        if driver is not None and any(
            _low_to_high_sinks(netlist, net, driver, libs)
        ):
            violating.append(net.name)
    return violating


def insert_level_shifters(design: Design) -> LevelShifterReport:
    """Insert a level shifter on every violating tier crossing.

    The shifter comes from the *receiving* tier's library (it must produce
    that tier's full swing), is placed at the centroid of the sinks it
    serves, and takes over all high-rail sinks of the net.  Positions are
    approximate; callers re-legalize afterwards.  The edits go through an
    :class:`EditJournal` on the design's held calculator, so timing stays
    warm for every net they leave alone.
    """
    netlist = design.netlist
    libs = design.libraries_by_name()
    journal = EditJournal(design, design.held_calculator())
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
        needy = list(_low_to_high_sinks(netlist, net, driver, libs))
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
            journal.move_sinks(needy, existing.net_of("Y"))
            continue

        ls_cell = target_lib.get(CellFunction.LEVEL_SHIFTER, 1)
        placed = [
            netlist.instances[s].center()
            for s, _p in needy
            if netlist.instances[s].is_placed
        ]
        xy = None
        if placed:
            xy = (sum(p[0] for p in placed) / len(placed),
                  sum(p[1] for p in placed) / len(placed))
        journal.insert_repeater(
            net_name, needy, "ls", ls_cell, f"{net_name}_ls",
            tier=first_sink.tier, block=driver.block, xy=xy,
        )
        inserted += 1
        area += ls_cell.area_um2

    return LevelShifterReport(
        crossings_checked=checked,
        violating_nets=violating,
        shifters_inserted=inserted,
        shifter_area_um2=area,
    )
