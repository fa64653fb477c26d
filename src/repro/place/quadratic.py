"""Analytic global placement: quadratic wirelength + bisection spreading.

The placer follows the classic two-phase analytic recipe:

1. **Quadratic solve.**  Minimize the squared-wirelength objective
   ``sum_nets w * ((x_i - x_j)^2 + (y_i - y_j)^2)`` with I/O pads and
   macros as fixed anchors.  Small nets are expanded as cliques, large
   nets as ordered chains (a cheap bounded-degree approximation of the
   star model).  The resulting Laplacian system is solved once per axis
   with a shared sparse LU factorization.

2. **Recursive bisection spreading.**  The raw quadratic solution piles
   cells at the die center, so cells are recursively split into
   capacity-proportional halves along alternating axes and mapped into
   matching subregions, preserving relative order (and thus most of the
   quadratic solution's neighborhood structure).  Spreading and the
   final clip into the core run on plain floats; numpy and scipy serve
   only the sparse solve.

This is deliberately a wirelength-faithful placer rather than a
state-of-the-art one: every paper conclusion that depends on placement
(3-D footprint halving cuts wirelength ~25-35%, heterogeneous shrink cuts
it a bit more, memory nets shorten in 3-D) only needs relative fidelity.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import splu

from repro.errors import PlacementError
from repro.netlist.core import Netlist
from repro.place.floorplan import MACRO_HALO, Floorplan, port_positions

__all__ = ["global_place"]

#: Nets bigger than this use the chain expansion instead of a clique.
_CLIQUE_LIMIT = 4

#: Stop bisecting a region when it holds at most this many cells.
_LEAF_CELLS = 3


@dataclass
class _Problem:
    movable: list[str]
    index: dict[str, int]
    fixed_pos: dict[str, tuple[float, float]]


def _gather(netlist: Netlist, floorplan: Floorplan) -> _Problem:
    movable = sorted(
        name for name, inst in netlist.instances.items() if not inst.fixed
    )
    index = {name: i for i, name in enumerate(movable)}
    fixed_pos: dict[str, tuple[float, float]] = dict(
        port_positions(netlist, floorplan)
    )
    for inst in netlist.instances.values():
        if inst.fixed:
            if not inst.is_placed:
                raise PlacementError(f"fixed instance {inst.name} is unplaced")
            fixed_pos[inst.name] = inst.center()
    return _Problem(movable=movable, index=index, fixed_pos=fixed_pos)


def _net_pins(netlist: Netlist, net_name: str) -> list[str]:
    """Pin owners of a net: instance names, or the port name for PI nets."""
    net = netlist.nets[net_name]
    owners: list[str] = []
    if net.driver is not None:
        owners.append(net.driver[0])
    elif net_name in netlist.ports:
        owners.append(net_name)  # primary input pad anchor
    owners.extend(sink for sink, _pin in net.sinks)
    return owners


def _assemble(
    netlist: Netlist, problem: _Problem
) -> tuple[csc_matrix, np.ndarray, np.ndarray]:
    n = len(problem.movable)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    # Edge contributions are collected as flat (index, value) streams and
    # applied in one unbuffered np.add.at pass per array below -- the bulk
    # kernel processes indices in append order, so the accumulation order
    # (and hence every float) is identical to scalar `+=` in a loop.
    d_idx: list[int] = []
    d_val: list[float] = []
    a_idx: list[int] = []
    a_x: list[float] = []
    a_y: list[float] = []

    def add_edge(a: str, b: str, w: float) -> None:
        ia = problem.index.get(a)
        ib = problem.index.get(b)
        if ia is None and ib is None:
            return
        if ia is not None and ib is not None:
            d_idx.extend((ia, ib))
            d_val.extend((w, w))
            rows.extend((ia, ib))
            cols.extend((ib, ia))
            vals.extend((-w, -w))
        elif ia is not None:
            px, py = problem.fixed_pos[b]
            d_idx.append(ia)
            d_val.append(w)
            a_idx.append(ia)
            a_x.append(w * px)
            a_y.append(w * py)
        else:
            px, py = problem.fixed_pos[a]
            d_idx.append(ib)
            d_val.append(w)
            a_idx.append(ib)
            a_x.append(w * px)
            a_y.append(w * py)

    for net_name, net in netlist.nets.items():
        if net.is_clock:
            continue  # the clock is routed by CTS, not the signal placer
        owners = _net_pins(netlist, net_name)
        owners = [o for o in owners if o in problem.index or o in problem.fixed_pos]
        unique = list(dict.fromkeys(owners))
        p = len(unique)
        if p < 2:
            continue
        if p <= _CLIQUE_LIMIT:
            w = 1.0 / (p - 1)
            for i in range(p):
                for j in range(i + 1, p):
                    add_edge(unique[i], unique[j], w)
        else:
            w = 2.0 / p
            for i in range(p - 1):
                add_edge(unique[i], unique[i + 1], w)

    diag = np.zeros(n)
    bx = np.zeros(n)
    by = np.zeros(n)
    if d_idx:
        np.add.at(diag, np.asarray(d_idx), np.asarray(d_val))
    if a_idx:
        anchor_idx = np.asarray(a_idx)
        np.add.at(bx, anchor_idx, np.asarray(a_x))
        np.add.at(by, anchor_idx, np.asarray(a_y))

    # Weak anchor to the die center keeps isolated components well-posed.
    diag += 1e-4
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    return matrix, bx, by


def _split_coordinate(
    region: tuple[float, float, float, float],
    vertical: bool,
    frac: float,
    blockages: list[tuple[float, float, float, float]],
) -> float:
    """Coordinate dividing the region's *free* capacity at ``frac``: area
    minus macro blockage overlap (blockages never overlap each other in
    the same plane, so plain subtraction is exact)."""
    a = int(vertical)  # the cut sets an x (0) or a y (1) coordinate
    start, hi = region[a], region[a + 2]
    c0, c1 = region[1 - a], region[3 - a]
    holes = [
        (max(0.0, min(c1, b[3 - a]) - max(c0, b[1 - a])), max(start, b[a]), b[a + 2])
        for b in blockages
    ]
    across = max(0.0, c1 - c0)
    total = across * max(0.0, hi - start)
    for width, h0, h1 in holes:
        total -= width * max(0.0, min(hi, h1) - h0)
    lo = start
    if total <= 0:
        return lo + frac * (hi - lo)
    target = frac * total
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        free = across * max(0.0, mid - start)
        for width, h0, h1 in holes:
            free -= width * max(0.0, min(mid, h1) - h0)
        if max(free, 0.0) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _spread(
    xs: list[float],
    ys: list[float],
    areas: list[float],
    region: tuple[float, float, float, float],
    vertical: bool,
    out_x: list[float],
    out_y: list[float],
    order: list[int],
    blockages: list[tuple[float, float, float, float]],
) -> None:
    """Recursively bisect ``order`` (indices) into free-capacity halves."""
    x0, y0, x1, y1 = region
    if len(order) <= _LEAF_CELLS:
        # Spread leaves evenly along the longer axis of the region,
        # preserving their relative order along that axis.
        along_x = (x1 - x0) >= (y1 - y0)
        axis = xs if along_x else ys
        leaf = sorted(order, key=axis.__getitem__)
        for k, idx in enumerate(leaf):
            t = (k + 1) / (len(leaf) + 1)
            if along_x:
                out_x[idx] = x0 + t * (x1 - x0)
                out_y[idx] = y0 + 0.5 * (y1 - y0)
            else:
                out_x[idx] = x0 + 0.5 * (x1 - x0)
                out_y[idx] = y0 + t * (y1 - y0)
        return
    coord = ys if vertical else xs
    ranked = sorted(order, key=coord.__getitem__)
    cum = list(accumulate(map(areas.__getitem__, ranked)))
    split = bisect_left(cum, cum[-1] / 2.0) + 1
    split = min(max(split, 1), len(ranked) - 1)
    frac = cum[split - 1] / cum[-1]
    first, second = ranked[:split], ranked[split:]
    if vertical:
        ym = _split_coordinate(region, True, frac, blockages)
        ym = min(max(ym, y0 + 1e-6), y1 - 1e-6)
        _spread(xs, ys, areas, (x0, y0, x1, ym), False, out_x, out_y, first, blockages)
        _spread(xs, ys, areas, (x0, ym, x1, y1), False, out_x, out_y, second, blockages)
    else:
        xm = _split_coordinate(region, False, frac, blockages)
        xm = min(max(xm, x0 + 1e-6), x1 - 1e-6)
        _spread(xs, ys, areas, (x0, y0, xm, y1), True, out_x, out_y, first, blockages)
        _spread(xs, ys, areas, (xm, y0, x1, y1), True, out_x, out_y, second, blockages)


def global_place(
    netlist: Netlist,
    floorplan: Floorplan,
    *,
    area_scale: float = 1.0,
) -> None:
    """Place all movable instances inside the core region.

    ``area_scale`` shrinks cell areas during spreading; the pseudo-3-D
    stage of Pin-3D passes 0.5 so both tiers' cells share one footprint
    (the Shrunk-2D trick), while per-tier placement passes 1.0.
    Positions are written onto the instances (lower-left corners).
    """
    problem = _gather(netlist, floorplan)
    if not problem.movable:
        return
    matrix, bx, by = _assemble(netlist, problem)
    solver = splu(matrix)
    xs = solver.solve(bx)
    ys = solver.solve(by)

    instances = netlist.instances
    areas = [instances[name].area_um2 * area_scale for name in problem.movable]
    out_x = [0.0] * len(areas)
    out_y = [0.0] * len(areas)
    width, height = floorplan.width_um, floorplan.height_um
    # Macro halos (union over tiers) are capacity holes for spreading.
    seen: set[tuple[float, float]] = set()
    blockages: list[tuple[float, float, float, float]] = []
    for m in floorplan.macros:
        key = (round(m.x_um, 3), round(m.y_um, 3))
        if key in seen:
            continue  # macros stacked on the other tier share the hole
        seen.add(key)
        blockages.append(
            (
                m.x_um,
                m.y_um,
                m.x_um + m.width_um * (1 + MACRO_HALO),
                m.y_um + m.height_um * (1 + MACRO_HALO),
            )
        )
    _spread(
        xs.tolist(), ys.tolist(), areas, (0.0, 0.0, width, height), False,
        out_x, out_y, list(range(len(areas))), blockages,
    )

    for name, x, y in zip(problem.movable, out_x, out_y):
        inst = instances[name]
        w, h = inst.cell.width_um, inst.cell.height_um
        inst.x_um = min(max(x - w / 2, 0.0), width - w)
        inst.y_um = min(max(y - h / 2, 0.0), height - h)
