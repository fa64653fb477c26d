"""Placement-driven bin-based FM partitioning.

The pseudo-3-D stage leaves every cell placed on the shared footprint;
tier assignment must then keep *local* area balanced so that both tiers
stay uniformly filled (they share one outline).  Following Pin-3D's
recipe, the placement is divided into a grid of bins and FM min-cut runs
per bin, with cells outside the bin acting as fixed terminals on their
current side.  A couple of sweeps propagate good assignments between
neighbouring bins.

Cells pinned by timing-based partitioning (Section III-A1) enter as fixed
terminals, so the min-cut optimization happens around the timing
constraints rather than fighting them.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.errors import PartitionError
from repro.netlist.core import Netlist
from repro.obs import span
from repro.partition.fm import fm_bipartition

__all__ = ["bin_fm_partition"]

#: Alternating-direction sweeps over the bins.
SWEEPS = 2


def _bin_of(x: float, y: float, w: float, h: float, grid: int) -> tuple[int, int]:
    bx = min(grid - 1, max(0, int(x / w * grid)))
    by = min(grid - 1, max(0, int(y / h * grid)))
    return bx, by


def bin_fm_partition(
    netlist: Netlist,
    width_um: float,
    height_um: float,
    area_side0: dict[str, float],
    area_side1: dict[str, float],
    *,
    pinned: dict[str, int] | None = None,
    grid: int = 4,
    balance_tolerance: float = 0.12,
    seed: int = 0,
) -> dict[str, int]:
    """Assign every instance a tier (0=bottom, 1=top).

    Parameters
    ----------
    netlist:
        A placed design (pseudo-3-D stage output).
    width_um / height_um:
        Footprint used for binning.
    area_side0 / area_side1:
        Per-side areas (see :mod:`repro.partition.fm`); for homogeneous
        3-D these are equal, for heterogeneous 3-D side 1 is the 9-track
        remapped area.
    pinned:
        Pre-decided sides (timing-critical cells, macros).

    Returns the assignment for every instance, including pinned ones.
    """
    with span("fm_partition", grid=grid, sweeps=SWEEPS):
        return _bin_fm_partition(
            netlist,
            width_um,
            height_um,
            area_side0,
            area_side1,
            pinned=pinned,
            grid=grid,
            balance_tolerance=balance_tolerance,
            seed=seed,
        )


def _bin_fm_partition(
    netlist: Netlist,
    width_um: float,
    height_um: float,
    area_side0: dict[str, float],
    area_side1: dict[str, float],
    *,
    pinned: dict[str, int] | None = None,
    grid: int = 4,
    balance_tolerance: float = 0.12,
    seed: int = 0,
) -> dict[str, int]:
    pinned = dict(pinned or {})
    area_side0 = dict(area_side0)
    area_side1 = dict(area_side1)
    rng = np.random.default_rng(seed)

    # Macros stay on the bottom tier unless the caller pinned them.
    for macro in netlist.memory_macros():
        pinned.setdefault(macro.name, macro.tier)

    # All standard cells are binned; pinned ones participate in area
    # balancing as fixed terminals (otherwise timing-based pinning would
    # silently over-subscribe the fast die).
    binned = [
        inst for inst in netlist.instances.values() if not inst.cell.is_macro
    ]
    for inst in binned:
        if not inst.is_placed:
            raise PartitionError(f"{inst.name} must be placed before bin FM")

    bins: dict[tuple[int, int], list] = defaultdict(list)
    for inst in binned:
        cx, cy = inst.center()
        bins[_bin_of(cx, cy, width_um, height_um, grid)].append(inst)

    # Memory macros block standard-cell area on their own tier, so the
    # cells of a bin a macro overlaps must overwhelmingly go to the other
    # tier (memory-over-logic, the CPU's 3-D layout).  Each macro's
    # footprint is spread over the bins it covers as immovable pseudo
    # cells that count toward that side's balance.
    blockers: list[tuple[tuple[int, int], object]] = []
    bin_w = width_um / grid
    bin_h = height_um / grid
    for mi, macro in enumerate(netlist.memory_macros()):
        if not macro.is_placed:
            continue
        x0, y0 = macro.x_um, macro.y_um
        x1 = x0 + macro.cell.width_um
        y1 = y0 + macro.cell.height_um
        bx0, by0 = _bin_of(x0, y0, width_um, height_um, grid)
        bx1, by1 = _bin_of(x1 - 1e-9, y1 - 1e-9, width_um, height_um, grid)
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                ox = min(x1, (bx + 1) * bin_w) - max(x0, bx * bin_w)
                oy = min(y1, (by + 1) * bin_h) - max(y0, by * bin_h)
                overlap = max(0.0, ox) * max(0.0, oy)
                if overlap <= 0:
                    continue
                side = pinned.get(macro.name, macro.tier)
                # Chunk the blocked area so no single pseudo cell blows up
                # the FM balance tolerance (which must admit moving the
                # largest movable cell, not the largest blocker).
                chunk = max(1.0, bin_w * bin_h / 8.0)
                pieces = max(1, int(overlap / chunk + 0.5))
                for piece in range(pieces):
                    name = f"__macro{mi}_{bx}_{by}_{piece}"
                    pinned[name] = side
                    area_side0[name] = overlap / pieces
                    area_side1[name] = overlap / pieces
                    blockers.append(((bx, by), name))
    blocker_names = {name for _key, name in blockers}

    # Initial assignment: pinned cells keep their side; the rest alternate
    # in x-order so each bin starts area balanced.
    assignment: dict[str, int] = dict(pinned)
    blocker_load: dict[tuple[int, int], list[float]] = defaultdict(
        lambda: [0.0, 0.0]
    )
    for key, name in blockers:
        blocker_load[key][assignment[name]] += area_side0[name]
    for key, members in sorted(bins.items()):
        members.sort(key=lambda i: (i.x_um, i.name))
        a0, a1 = blocker_load[key]
        for inst in members:
            if inst.name in pinned:
                side = pinned[inst.name]
            else:
                side = 0 if a0 <= a1 else 1
                assignment[inst.name] = side
            if side == 0:
                a0 += area_side0[inst.name]
            else:
                a1 += area_side1[inst.name]

    # Hyperedges touching each bin (computed once).
    net_members: list[list[str]] = []
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        owners = []
        if net.driver is not None:
            owners.append(net.driver[0])
        owners.extend(s for s, _p in net.sinks)
        unique = list(dict.fromkeys(owners))
        if len(unique) >= 2:
            net_members.append(unique)

    nets_touching_bin: dict[tuple[int, int], list[int]] = defaultdict(list)
    bin_of_cell: dict[str, tuple[int, int]] = {}
    for key, members in bins.items():
        for inst in members:
            bin_of_cell[inst.name] = key
    for ni, owners in enumerate(net_members):
        seen = set()
        for c in owners:
            key = bin_of_cell.get(c)
            if key is not None and key not in seen:
                seen.add(key)
                nets_touching_bin[key].append(ni)

    bin_keys = sorted(bins)
    for sweep in range(SWEEPS):
        order = list(bin_keys)
        if sweep % 2 == 1:
            order.reverse()
        blockers_in_bin: dict[tuple[int, int], list[str]] = defaultdict(list)
        for bkey, name in blockers:
            blockers_in_bin[bkey].append(name)
        for key in order:
            members = bins[key]
            if len(members) < 2:
                continue
            local_cells = [i.name for i in members] + blockers_in_bin[key]
            local_set = set(local_cells)
            # Pinned cells and macro blockers are immovable but count
            # toward the bin balance.
            fixed: set[str] = {c for c in local_cells if c in pinned}
            # Out-of-bin terminals become fixed pseudo-cells.
            local_nets: list[list[str]] = []
            extra_cells: list[str] = []
            for ni in nets_touching_bin[key]:
                owners = net_members[ni]
                net_local = []
                for c in owners:
                    if c in local_set:
                        net_local.append(c)
                    elif c in assignment:
                        term = f"__term{ni}_{assignment[c]}"
                        net_local.append(term)
                        if term not in fixed:
                            fixed.add(term)
                            extra_cells.append(term)
                if len(set(net_local)) >= 2:
                    local_nets.append(net_local)
            all_cells = local_cells + extra_cells
            initial = {c: assignment[c] for c in local_cells}
            a0 = dict(area_side0)
            a1 = dict(area_side1)
            for term in extra_cells:
                initial[term] = int(term[-1])
                a0[term] = 0.0
                a1[term] = 0.0
            # Steer this bin's split to cancel the global imbalance that
            # earlier bins' tolerance drift accumulated.
            g0 = sum(
                area_side0[n] for n, s in assignment.items()
                if s == 0 and n in area_side0
            )
            g1 = sum(
                area_side1[n] for n, s in assignment.items()
                if s == 1 and n in area_side1
            )
            bin_total = sum(a0[c] for c in local_cells) or 1.0
            target = 0.5 - (g0 - g1) / (2.0 * bin_total)
            target = min(0.65, max(0.35, target))
            result = fm_bipartition(
                all_cells,
                local_nets,
                a0,
                a1,
                initial=initial,
                fixed=fixed,
                balance_tolerance=balance_tolerance,
                balance_target=target,
            )
            for c in local_cells:
                assignment[c] = result.assignment[c]

    # Any instance not binned (e.g. unplaced fixed cells) defaults to 0.
    for inst in netlist.instances.values():
        assignment.setdefault(inst.name, 0)
    # Macro-blocker pseudo cells were bookkeeping only.
    for name in blocker_names:
        assignment.pop(name, None)
    _ = rng  # determinism knob reserved for tie-breaking extensions
    return assignment
