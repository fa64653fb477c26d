"""The placement kernels against a frozen copy of their numpy versions.

The congestion map and the global placer's spreading used to call numpy
on one to three elements at a time: per net ``np.arange``/``np.full``/
``np.concatenate`` strips replayed by ``np.add.at``, per spreading node
``argsort``/``cumsum``/``searchsorted`` and a bisection through
``_free_area``, per instance two scalar ``np.clip`` calls.  The live
kernels compute on plain floats with the same IEEE-754 operations in the
same order.  This module keeps the numpy versions verbatim and requires
the live kernels to agree with them bit for bit -- every demand bin
(``tobytes``) and every instance coordinate (``struct.pack``) -- on all
four designs (cpu's memory macros drive the blockage path), the
pseudo-3-D placement, a 3D_HET re-place, a placement session after
random edits, and random regions, blockages and pin sets.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from repro.flow.design import Design
from repro.flow.hetero import run_flow_hetero_3d
from repro.flow.stages import legalize_all_tiers, place_with_congestion_control
from repro.integrity.checkpoint import design_from_dict, design_to_dict
from repro.liberty.presets import make_library_pair
from repro.netlist.core import Net
from repro.netlist.generators import DESIGN_NAMES, generate_netlist
from repro.place.floorplan import MACRO_HALO, port_ring
from repro.place.quadratic import _assemble, _gather, _spread
from repro.route.congestion import _accumulate, _net_strips, analyze_congestion
from repro.timing.delaycalc import steiner_correction

LIB12, LIB9 = make_library_pair()
SCALE = 0.25
SEED = 1
PERIOD_NS = 0.6
_LEAF_CELLS = 3


# ----------------------------------------------------------------------
# the reference: the numpy kernels as they were
# ----------------------------------------------------------------------
def ref_net_strips(net, instances, pads, bins, bin_w, bin_h):
    if net.is_clock:
        return None
    points = []
    if net.driver is not None:
        points.append(instances[net.driver[0]].center())
    else:
        pad = pads.get(net.name)
        if pad is not None:
            points.append(pad)
    for sink, _pin in net.sinks:
        points.append(instances[sink].center())
    if len(points) < 2:
        return None
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
    length = hpwl * steiner_correction(len(net.sinks))
    if length <= 0:
        return None
    last = bins - 1
    bx0 = int(min(max(min(xs) / bin_w, 0), last))
    bx1 = int(min(max(max(xs) / bin_w, 0), last))
    by0 = int(min(max(min(ys) / bin_h, 0), last))
    by1 = int(min(max(max(ys) / bin_h, 0), last))
    nx = bx1 - bx0 + 1
    ny = by1 - by0 + 1
    correction = length / max(hpwl, 1e-9)
    dy0 = int(min(max(points[0][1] / bin_h, by0), by1))
    h_len = (max(xs) - min(xs)) * correction
    v_len = (max(ys) - min(ys)) * correction
    idx = np.concatenate(
        (
            dy0 * bins + np.arange(bx0, bx1 + 1),
            np.arange(by0, by1 + 1) * bins + bx1,
        )
    )
    val = np.concatenate(
        (np.full(nx, h_len / nx), np.full(ny, v_len / ny))
    )
    return idx, val


def ref_accumulate(strips, bins):
    items = [s for s in strips if s is not None]
    demand = np.zeros(bins * bins)
    if items:
        idx = np.concatenate([i for i, _v in items])
        val = np.concatenate([v for _i, v in items])
        np.add.at(demand, idx, val)
    return demand.reshape(bins, bins)


def ref_demand(netlist, width_um, height_um, bins=16):
    bin_w = width_um / bins
    bin_h = height_um / bins
    pads = port_ring(netlist, width_um, height_um)
    instances = netlist.instances
    return ref_accumulate(
        (
            ref_net_strips(net, instances, pads, bins, bin_w, bin_h)
            for net in netlist.nets.values()
        ),
        bins,
    )


def ref_free_area(region, blockages):
    x0, y0, x1, y1 = region
    area = max(0.0, x1 - x0) * max(0.0, y1 - y0)
    for bx0, by0, bx1, by1 in blockages:
        ox = max(0.0, min(x1, bx1) - max(x0, bx0))
        oy = max(0.0, min(y1, by1) - max(y0, by0))
        area -= ox * oy
    return max(area, 0.0)


def ref_split_coordinate(region, vertical, frac, blockages):
    x0, y0, x1, y1 = region
    lo, hi = (y0, y1) if vertical else (x0, x1)
    total = ref_free_area(region, blockages)
    if total <= 0:
        return lo + frac * (hi - lo)
    target = frac * total
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        sub = (x0, y0, x1, mid) if vertical else (x0, y0, mid, y1)
        if ref_free_area(sub, blockages) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_spread(names, xs, ys, areas, region, vertical, out_x, out_y, order,
               blockages):
    x0, y0, x1, y1 = region
    if len(order) == 0:
        return
    if len(order) <= _LEAF_CELLS:
        along_x = (x1 - x0) >= (y1 - y0)
        axis = xs if along_x else ys
        leaf = order[np.argsort(axis[order], kind="stable")]
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
    ranked = order[np.argsort(coord[order], kind="stable")]
    cum = np.cumsum(areas[ranked])
    half = cum[-1] / 2.0
    split = int(np.searchsorted(cum, half)) + 1
    split = min(max(split, 1), len(ranked) - 1)
    frac = cum[split - 1] / cum[-1]
    if vertical:
        ym = ref_split_coordinate(region, True, frac, blockages)
        ym = min(max(ym, y0 + 1e-6), y1 - 1e-6)
        ref_spread(names, xs, ys, areas, (x0, y0, x1, ym), False, out_x, out_y, ranked[:split], blockages)
        ref_spread(names, xs, ys, areas, (x0, ym, x1, y1), False, out_x, out_y, ranked[split:], blockages)
    else:
        xm = ref_split_coordinate(region, False, frac, blockages)
        xm = min(max(xm, x0 + 1e-6), x1 - 1e-6)
        ref_spread(names, xs, ys, areas, (x0, y0, xm, y1), True, out_x, out_y, ranked[:split], blockages)
        ref_spread(names, xs, ys, areas, (xm, y0, x1, y1), True, out_x, out_y, ranked[split:], blockages)


def ref_blockages(floorplan):
    seen = set()
    blockages = []
    for m in floorplan.macros:
        key = (round(m.x_um, 3), round(m.y_um, 3))
        if key in seen:
            continue
        seen.add(key)
        blockages.append(
            (
                m.x_um,
                m.y_um,
                m.x_um + m.width_um * (1 + MACRO_HALO),
                m.y_um + m.height_um * (1 + MACRO_HALO),
            )
        )
    return blockages


def ref_global_place(netlist, floorplan, area_scale=1.0):
    """``global_place``'s positions, computed without writing them."""
    problem = _gather(netlist, floorplan)
    matrix, bx, by = _assemble(netlist, problem)
    solver = splu(matrix)
    xs = solver.solve(bx)
    ys = solver.solve(by)
    areas = np.array(
        [
            netlist.instances[name].area_um2 * area_scale
            for name in problem.movable
        ]
    )
    out_x = np.empty_like(xs)
    out_y = np.empty_like(ys)
    region = (0.0, 0.0, floorplan.width_um, floorplan.height_um)
    order = np.arange(len(problem.movable))
    ref_spread(
        problem.movable, xs, ys, areas, region, False, out_x, out_y, order,
        ref_blockages(floorplan),
    )
    positions = {}
    for i, name in enumerate(problem.movable):
        inst = netlist.instances[name]
        positions[name] = (
            float(
                np.clip(out_x[i] - inst.cell.width_um / 2, region[0], region[2] - inst.cell.width_um)
            ),
            float(
                np.clip(out_y[i] - inst.cell.height_um / 2, 0.0, region[3] - inst.cell.height_um)
            ),
        )
    return positions


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------
def packed(values) -> bytes:
    return b"".join(struct.pack("d", v) for v in values)


def assert_placement_matches(design: Design, area_scale: float) -> None:
    netlist = design.netlist
    expected = ref_global_place(netlist, design.floorplan, area_scale)
    assert expected
    for name, (x, y) in expected.items():
        inst = netlist.instances[name]
        assert packed((inst.x_um, inst.y_um)) == packed((x, y)), name


def assert_congestion_matches(design: Design) -> None:
    fp = design.floorplan
    live = analyze_congestion(
        design.netlist, design.reference_library(), fp.width_um,
        fp.height_um, design.tiers,
    )
    expected = ref_demand(design.netlist, fp.width_um, fp.height_um)
    assert live.demand.tobytes() == expected.tobytes()
    assert live.demand.any()


# ----------------------------------------------------------------------
# states
# ----------------------------------------------------------------------
def placed_2d(design_name: str) -> Design:
    netlist = generate_netlist(design_name, LIB12, scale=SCALE, seed=SEED)
    design = Design(design_name, "2D_12T", netlist, {0: LIB12},
                    target_period_ns=PERIOD_NS)
    place_with_congestion_control(design)
    return design


def hetero_until(stage: str, design_name: str = "aes") -> Design:
    design, _ = run_flow_hetero_3d(
        design_name, LIB12, LIB9, period_ns=PERIOD_NS, scale=SCALE,
        seed=SEED, until_stage=stage,
    )
    return design


@pytest.fixture(scope="module")
def replaced_3d() -> Design:
    """A 3D_HET design right after its per-tier re-place."""
    return hetero_until("placement_3d")


# ----------------------------------------------------------------------
# tests on flow states
# ----------------------------------------------------------------------
@pytest.mark.parametrize("design_name", DESIGN_NAMES)
def test_designs_match_reference(design_name):
    design = placed_2d(design_name)
    assert bool(design.floorplan.macros) == (design_name == "cpu")
    assert_placement_matches(design, 1.0)
    assert_congestion_matches(design)
    legalize_all_tiers(design)
    assert_congestion_matches(design)


def test_pseudo_3d_placement_matches_reference():
    """Half-size footprint and half cell areas, with cpu's macros."""
    design = hetero_until("pseudo_place", "cpu")
    assert design.tiers == 2 and design.floorplan.macros
    assert_placement_matches(design, 0.5)
    assert_congestion_matches(design)


def test_3d_replace_matches_reference(replaced_3d):
    assert {inst.tier for inst in replaced_3d.netlist.instances.values()} \
        == {0, 1}
    assert_placement_matches(replaced_3d, 1.0)
    assert_congestion_matches(replaced_3d)


def test_session_after_random_edits_matches_reference(replaced_3d):
    design = design_from_dict(design_to_dict(replaced_3d))
    netlist = design.netlist
    legalize_all_tiers(design)
    session = design.place_session()
    fp = design.floorplan
    libs = design.libraries_by_name()
    rng = random.Random(SEED)
    movable = sorted(
        name for name, inst in netlist.instances.items()
        if not inst.fixed and not inst.cell.is_macro
    )
    for _round in range(5):
        for name in rng.sample(movable, 12):
            inst = netlist.instances[name]
            if rng.random() < 0.5:
                inst.x_um = rng.uniform(0.0, fp.width_um - inst.cell.width_um)
                inst.y_um = rng.uniform(0.0, fp.height_um - inst.cell.height_um)
            else:
                lib = libs[inst.cell.library_name]
                resized = lib.upsize(inst.cell) or lib.downsize(inst.cell)
                netlist.rebind(name, resized)
            session.dirty_cell(name)
        demand = session.congestion().demand
        expected = ref_demand(netlist, fp.width_um, fp.height_um)
        assert demand.tobytes() == expected.tobytes()
    assert session.stats.incremental_runs > 0


# ----------------------------------------------------------------------
# properties over random inputs
# ----------------------------------------------------------------------
class _Pin:
    """An instance stand-in: all ``_net_strips`` reads is the center."""

    def __init__(self, xy):
        self.xy = xy

    def center(self):
        return self.xy


# A coarse coordinate grid makes ties, shared pins and zero-length nets
# common; the free floats cover everything in between.
_coord = st.one_of(
    st.sampled_from([0.0, 1.5, 2.0, 7.25, 10.0]),
    st.floats(-5.0, 60.0, allow_nan=False),
)


@st.composite
def _nets(draw):
    n_inst = draw(st.integers(1, 12))
    instances = {
        f"i{k}": _Pin((draw(_coord), draw(_coord))) for k in range(n_inst)
    }
    names = sorted(instances)
    nets, pads = [], {}
    for k in range(draw(st.integers(1, 25))):
        sinks = [
            (name, "A")
            for name in draw(st.lists(st.sampled_from(names), max_size=6))
        ]
        name = f"n{k}"
        driver = None
        if draw(st.booleans()):
            driver = (draw(st.sampled_from(names)), "Y")
        elif draw(st.booleans()):
            pads[name] = (draw(_coord), draw(_coord))  # a pad-driven net
        nets.append(Net(name, driver=driver, sinks=sinks,
                        is_clock=draw(st.integers(0, 9)) == 0))
    return nets, instances, pads


@settings(max_examples=300, deadline=None)
@given(
    case=_nets(),
    bins=st.integers(1, 20),
    width=st.floats(1.0, 80.0),
    height=st.floats(1.0, 80.0),
)
def test_random_nets_match_reference(case, bins, width, height):
    nets, instances, pads = case
    bin_w, bin_h = width / bins, height / bins
    live = [_net_strips(n, instances, pads, bins, bin_w, bin_h) for n in nets]
    ref = [ref_net_strips(n, instances, pads, bins, bin_w, bin_h) for n in nets]
    assert [s is None for s in live] == [s is None for s in ref]
    assert (
        _accumulate(live, bins).tobytes() == ref_accumulate(ref, bins).tobytes()
    )


@st.composite
def _spreads(draw):
    x0, y0 = draw(_coord), draw(_coord)
    region = (x0, y0, x0 + draw(st.floats(0.5, 100.0)),
              y0 + draw(st.floats(0.5, 100.0)))
    n = draw(st.integers(1, 40))
    xs = [draw(_coord) for _ in range(n)]
    ys = [draw(_coord) for _ in range(n)]
    areas = [
        draw(st.one_of(st.just(1.0), st.floats(1e-3, 20.0))) for _ in range(n)
    ]
    blockages = []
    for _ in range(draw(st.integers(0, 3))):
        bx0, by0 = draw(_coord), draw(_coord)
        blockages.append((bx0, by0, bx0 + draw(st.floats(0.0, 40.0)),
                          by0 + draw(st.floats(0.0, 40.0))))
    return xs, ys, areas, region, blockages


@settings(max_examples=300, deadline=None)
@given(case=_spreads(), vertical=st.booleans())
def test_random_spreads_match_reference(case, vertical):
    xs, ys, areas, region, blockages = case
    n = len(xs)
    out_x, out_y = [0.0] * n, [0.0] * n
    _spread(xs, ys, areas, region, vertical, out_x, out_y, list(range(n)),
            blockages)
    ref_x, ref_y = np.zeros(n), np.zeros(n)
    ref_spread(
        [f"c{k}" for k in range(n)], np.array(xs), np.array(ys),
        np.array(areas), region, vertical, ref_x, ref_y, np.arange(n),
        blockages,
    )
    assert packed(out_x) == packed(ref_x.tolist())
    assert packed(out_y) == packed(ref_y.tolist())


@settings(max_examples=300, deadline=None)
@given(
    center=st.floats(-1e4, 1e4, allow_nan=False),
    size=st.floats(1e-3, 50.0),
    extent=st.floats(0.0, 1e4),
)
def test_pin_clip_equals_np_clip(center, size, extent):
    """``global_place``'s clip, including a die narrower than the cell."""
    corner = center - size / 2
    assert packed([min(max(corner, 0.0), extent - size)]) == packed(
        [float(np.clip(corner, 0.0, extent - size))]
    )
