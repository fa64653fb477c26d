"""Placement-driven bin-based FM partitioning.

The pseudo-3-D stage leaves every cell placed on the shared footprint;
tier assignment must then keep *local* area balanced so that both tiers
stay uniformly filled (they share one outline).  Following Pin-3D's
recipe, the placement is divided into a grid of bins and FM min-cut runs
per bin, with the cells outside the bin acting as fixed terminals on
their current side.  A couple of sweeps propagate good assignments
between neighbouring bins, and each bin's balance target leans against
the global imbalance the bins before it left.

Cells pinned by timing-based partitioning (Section III-A1) and the
memory-macro blockers stay fixed, so the min-cut optimization happens
around the timing constraints rather than fighting them.

Every instance gets an integer id once per call, and each bin becomes
one :class:`~repro.partition.fm.FMGraph` over its own cells, built once:
a sweep only gathers the bin's sides, counts its nets' out-of-bin owners
per side as terminals, and scatters the refined sides back.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress
from operator import not_

from repro.errors import PartitionError
from repro.netlist.core import Netlist
from repro.obs import span
from repro.partition.fm import FMGraph

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
) -> dict[str, int]:
    pinned = dict(pinned or {})
    area_side0 = dict(area_side0)
    area_side1 = dict(area_side1)

    # Memory macros keep their current tier (the hetero flow starts them
    # on the slow die) unless the caller pinned them.
    for macro in netlist.memory_macros():
        pinned.setdefault(macro.name, macro.tier)

    # All standard cells are binned; pinned ones participate in area
    # balancing as fixed cells (otherwise timing-based pinning would
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
    blockers_in_bin: dict[tuple[int, int], list[str]] = defaultdict(list)
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
                    blockers_in_bin[bx, by].append(name)

    # Initial assignment: pinned cells keep their side; the rest alternate
    # in x-order so each bin starts area balanced.
    assignment: dict[str, int] = dict(pinned)
    for key, members in sorted(bins.items()):
        members.sort(key=lambda i: (i.x_um, i.name))
        a0 = a1 = 0.0
        for name in blockers_in_bin[key]:
            if assignment[name] == 0:
                a0 += area_side0[name]
            else:
                a1 += area_side0[name]
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

    # From here on a cell is its position in ``assignment``: ``sides``
    # holds the current tiers and the area vectors follow the same order,
    # so the global balance sums run over today's sequence.  A name
    # without an area adds 0.0, which leaves every sum unchanged.
    names = list(assignment)
    ids = {name: i for i, name in enumerate(names)}
    sides = list(assignment.values())
    areas0 = [area_side0.get(name, 0.0) for name in names]
    areas1 = [area_side1.get(name, 0.0) for name in names]

    # Each binned cell's bin and its slot there.
    home: list[tuple[int, int] | None] = [None] * len(names)
    slot = [0] * len(names)
    for key, members in bins.items():
        for i, inst in enumerate(members):
            c = ids[inst.name]
            home[c] = key
            slot[c] = i

    # A signal net with two distinct owners joins the FM of every bin of
    # two or more cells it touches, if it has two cells there, or one and
    # an owner elsewhere: the owners elsewhere are its terminals.
    nets_in: dict[tuple[int, int], tuple[list[list[int]], list[list[int]]]] = {
        key: ([], []) for key, members in bins.items() if len(members) >= 2
    }
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        owners = []
        if net.driver is not None:
            owners.append(net.driver[0])
        owners.extend(s for s, _p in net.sinks)
        unique = dict.fromkeys(owners)
        if len(unique) < 2:
            continue
        owner_ids = [ids[c] for c in unique if c in ids]
        for key in {home[c] for c in owner_ids}:
            if key not in nets_in:
                continue
            here = [slot[c] for c in owner_ids if home[c] == key]
            away = [c for c in owner_ids if home[c] != key]
            if len(here) >= 2 or away:
                pins, outside = nets_in[key]
                pins.append(here)
                outside.append(away)

    # One FM problem per bin: its members in (x, name) order, then its
    # macro blockers as fixed cells.
    problems: dict[tuple[int, int], tuple] = {}
    for key, (pins, outside) in nets_in.items():
        local = [inst.name for inst in bins[key]] + blockers_in_bin[key]
        area0 = [area_side0[name] for name in local]
        graph = FMGraph(
            pins, area0, [area_side1[name] for name in local],
            [name in pinned for name in local], local,
        )
        problems[key] = (
            graph, [ids[name] for name in local], outside, sum(area0) or 1.0
        )

    bin_keys = sorted(bins)
    for sweep in range(SWEEPS):
        order = list(bin_keys)
        if sweep % 2 == 1:
            order.reverse()
        for key in order:
            problem = problems.get(key)
            if problem is None:
                continue
            graph, cells, outside, bin_total = problem
            # Out-of-bin owners count as fixed terminals on their side.
            fixed1 = [sum(map(sides.__getitem__, away)) for away in outside]
            fixed0 = [len(away) - n1 for away, n1 in zip(outside, fixed1)]
            # Steer this bin's split to cancel the global imbalance that
            # earlier bins' tolerance drift accumulated.
            g0 = sum(compress(areas0, map(not_, sides)))
            g1 = sum(compress(areas1, sides))
            target = 0.5 - (g0 - g1) / (2.0 * bin_total)
            target = min(0.65, max(0.35, target))
            refined, _cut, _passes = graph.refine(
                [sides[c] for c in cells], fixed0, fixed1,
                balance_tolerance, target,
            )
            for c, side in zip(cells, refined):
                sides[c] = side

    assignment = dict(zip(names, sides))
    # Any instance not binned (e.g. unplaced fixed cells) defaults to 0.
    for inst in netlist.instances.values():
        assignment.setdefault(inst.name, 0)
    # Macro-blocker pseudo cells were bookkeeping only.
    for blocked in blockers_in_bin.values():
        for name in blocked:
            assignment.pop(name, None)
    return assignment
