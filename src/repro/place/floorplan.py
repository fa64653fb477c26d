"""Floorplanning: die sizing from target utilization, macro placement.

The paper fixes the floorplan area from the synthesized netlist using a
target cell utilization (Section IV-A2), then holds that utilization
constant across all five configurations so area comparisons are fair.
This module reproduces that policy:

- each tier's requirement is ``std_cell_area / utilization`` plus the
  halo-padded area of the macros floorplanned *on that tier* (memory
  macros occupy one tier; the same region on the other tier is regular
  standard-cell area -- a genuine 3-D advantage the CPU design exercises);
- the die is sized by the most demanding tier, and all tiers share that
  one footprint;
- macros stack into a column on the left edge with a small halo, and the
  per-tier legalizer carves them out of the rows of their own tier only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

from repro.errors import PlacementError
from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Netlist, PortDirection

__all__ = ["MacroSlot", "Floorplan", "build_floorplan", "port_positions"]

#: Fractional halo (keep-out) added around each memory macro.
MACRO_HALO = 0.05


@dataclass(frozen=True)
class MacroSlot:
    """A placed macro: name plus its rectangle (lower-left corner)."""

    name: str
    x_um: float
    y_um: float
    width_um: float
    height_um: float
    tier: int = 0

    @property
    def halo_area_um2(self) -> float:
        """Blocked area including the keep-out halo."""
        return (
            self.width_um * (1 + MACRO_HALO) * self.height_um * (1 + MACRO_HALO)
        )


@dataclass
class Floorplan:
    """The die outline, macro placements, per-tier core accounting."""

    width_um: float
    height_um: float
    tiers: int
    utilization: float
    macros: list[MacroSlot] = field(default_factory=list)

    @property
    def area_um2(self) -> float:
        """Footprint area of one tier."""
        return self.width_um * self.height_um

    @property
    def silicon_area_um2(self) -> float:
        """Total silicon area across all tiers (the paper's 'Si Area')."""
        return self.area_um2 * self.tiers

    def blockage_area_um2(self, tier: int) -> float:
        """Macro (plus halo) area blocking standard cells on one tier."""
        return sum(m.halo_area_um2 for m in self.macros if m.tier == tier)

    def core_area_um2(self, tier: int | None = None) -> float:
        """Area available to standard cells.

        With ``tier`` given: that tier's free area.  Without: the total
        over all tiers (used for whole-chip density).
        """
        if tier is not None:
            return self.area_um2 - self.blockage_area_um2(tier)
        return sum(self.core_area_um2(t) for t in range(self.tiers))

    def density(self, netlist: Netlist) -> float:
        """Achieved standard-cell density over the free core area."""
        std_area = netlist.cell_area_um2(lambda i: not i.cell.is_macro)
        return std_area / self.core_area_um2()


def build_floorplan(
    netlist: Netlist,
    tier_libs: dict[int, StdCellLibrary],
    utilization: float,
    *,
    demand_scale: float = 1.0,
) -> Floorplan:
    """Size the die and place macros.

    ``tier_libs`` maps each tier to its library (one entry for 2-D).  Cell
    areas are taken from the instances' *current* bindings, so calling
    this after a heterogeneous remap automatically shrinks the footprint
    -- the paper's "the footprint is reduced accordingly to maintain the
    chip utilization" step.

    ``demand_scale`` scales the standard-cell area requirement; the
    pseudo-3-D stage passes 0.5 so the whole netlist shares one half-size
    3-D footprint (the Shrunk-2D abstraction).  In that mode the *total*
    (not per-tier) cell area defines demand.
    """
    if not 0.1 <= utilization <= 1.0:
        raise PlacementError(f"utilization {utilization} out of range")
    tiers = len(tier_libs)
    if tiers not in (1, 2):
        raise PlacementError("only 1- or 2-tier floorplans are supported")

    macros = sorted(netlist.memory_macros(), key=lambda m: m.name)
    blockage: dict[int, float] = {t: 0.0 for t in tier_libs}
    for macro in macros:
        tier = macro.tier if macro.tier in blockage else 0
        blockage[tier] += (
            macro.cell.width_um
            * (1 + MACRO_HALO)
            * macro.cell.height_um
            * (1 + MACRO_HALO)
        )

    if demand_scale != 1.0:
        # Pseudo-3-D: the final design spreads std cells *and* macro
        # blockage over both tiers, so the shared footprint is the whole
        # 2-D requirement scaled down.
        total_std = netlist.cell_area_um2(lambda i: not i.cell.is_macro)
        total_blockage = sum(blockage.values())
        die_area = (total_std / utilization + total_blockage) * demand_scale
    else:
        die_area = 0.0
        for tier in tier_libs:
            std_area = netlist.cell_area_um2(
                lambda i, t=tier: i.tier == t and not i.cell.is_macro
            )
            die_area = max(die_area, std_area / utilization + blockage[tier])
    if die_area <= 0:
        raise PlacementError("netlist has no standard cells")

    height = sqrt(die_area)
    width = die_area / height

    def pack(h: float) -> tuple[list[tuple[float, float]], float]:
        """Column-pack macros under height ``h``; return (positions, width).

        Tiers pack independently -- macros on different tiers may share
        the same (x, y) region, which is exactly the memory-over-memory
        stacking a 3-D floorplan allows.
        """
        positions: list[tuple[float, float] | None] = [None] * len(macros)
        needed_w = 0.0
        for tier in {m.tier for m in macros}:
            x = y = column_w = 0.0
            for i, macro in enumerate(macros):
                if macro.tier != tier:
                    continue
                halo_h = macro.cell.height_um * (1 + MACRO_HALO)
                halo_w = macro.cell.width_um * (1 + MACRO_HALO)
                if y + halo_h > h and y > 0.0:
                    x += column_w
                    y = 0.0
                    column_w = 0.0
                column_w = max(column_w, halo_w)
                positions[i] = (x, y)
                y += halo_h
            needed_w = max(needed_w, x + column_w)
        return positions, needed_w

    # Grow the outline until the macro packing fits inside it.
    positions: list[tuple[float, float]] = []
    if macros:
        tallest = max(m.cell.height_um for m in macros) * (1 + MACRO_HALO)
        height = max(height, tallest)
        width = max(width, die_area / height)
        for _ in range(8):
            positions, needed_w = pack(height)
            if needed_w <= width + 1e-9:
                break
            width = needed_w
            height = max(die_area / width, tallest)
        else:
            raise PlacementError("cannot pack macros into the die outline")
        width = max(width, die_area / height)

    fp = Floorplan(
        width_um=width,
        height_um=height,
        tiers=tiers,
        utilization=utilization,
    )

    for macro, (x, y) in zip(macros, positions):
        fp.macros.append(
            MacroSlot(
                name=macro.name,
                x_um=x,
                y_um=y,
                width_um=macro.cell.width_um,
                height_um=macro.cell.height_um,
                tier=macro.tier,
            )
        )
        macro.x_um = x
        macro.y_um = y
        macro.fixed = True
    return fp


def port_ring(
    netlist: Netlist, width_um: float, height_um: float
) -> dict[str, tuple[float, float]]:
    """Deterministic pad ring: ports spread evenly around the die boundary.

    Inputs occupy the left and bottom edges, outputs the right and top,
    in sorted-name order, so every run of every configuration sees the
    same external pin geometry.  Takes raw die dimensions so congestion
    analysis can reuse it without a full :class:`Floorplan`.
    """
    inputs = sorted(
        name for name, d in netlist.ports.items() if d is PortDirection.INPUT
    )
    outputs = sorted(
        name for name, d in netlist.ports.items() if d is PortDirection.OUTPUT
    )
    w, h = width_um, height_um
    positions: dict[str, tuple[float, float]] = {}

    def ring(names: list[str], edges: list[tuple[tuple[float, float], tuple[float, float]]]):
        if not names:
            return
        per_edge = (len(names) + len(edges) - 1) // len(edges)
        i = 0
        for (x0, y0), (x1, y1) in edges:
            count = min(per_edge, len(names) - i)
            for k in range(count):
                t = (k + 1) / (count + 1)
                positions[names[i]] = (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
                i += 1
            if i >= len(names):
                return

    ring(inputs, [((0, 0), (0, h)), ((0, 0), (w, 0))])
    ring(outputs, [((w, 0), (w, h)), ((0, h), (w, h))])
    return positions


def port_positions(
    netlist: Netlist, floorplan: Floorplan
) -> dict[str, tuple[float, float]]:
    """Pad ring of a floorplan (see :func:`port_ring`)."""
    return port_ring(netlist, floorplan.width_um, floorplan.height_um)
