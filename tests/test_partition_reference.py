"""The partition kernels against a frozen copy of their string-keyed versions.

Bin-based FM used to copy both design-wide area maps, re-sum the whole
assignment and name a ``__term{net}_{side}`` pseudo-cell per out-of-bin
owner in every bin of every sweep, and ``fm_bipartition`` kept its
gains, locks and heap entries in dicts and sets keyed by cell name.  The
live kernel (:class:`repro.partition.fm.FMGraph`) works on integer ids
with the same tie-break (name order), the same terminal counts (one per
out-of-bin owner) and the same summation order.  This module keeps the
string-keyed versions verbatim and requires the live code to agree with
them exactly: every assignment with its key order, and for
``fm_bipartition`` also the cut, the passes and the side areas.  Each
bin must also pose the same FM problem: cells in order, areas, starting
sides, fixed flags, nets, terminal counts per side and balance target.
That comparison is what catches a wrong terminal count, since FM reads a
side's count only through whether it is zero, and a reordered or
re-summed area, which moves the target by an ulp that rarely changes a
move.  The cases are the four designs' pseudo-3-D states under Pin-3D's
equal areas and under the hetero flow's side-dependent areas and pinned
set (cpu's memory macros drive the blocker path), random hypergraphs,
and random placements around a macro that spans several bins.
"""

from __future__ import annotations

import heapq
import random
import sys
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.flow.hetero as hetero
import repro.flow.pin3d as pin3d
import repro.partition.bins as bins_module
import repro.partition.fm as fm_module
from repro.errors import PartitionError
from repro.liberty.cells import CellFunction
from repro.liberty.presets import make_library_pair
from repro.netlist.core import Netlist
from repro.netlist.generators import DESIGN_NAMES
from repro.partition.bins import bin_fm_partition
from repro.partition.fm import FMGraph, FMResult, fm_bipartition

LIB12, LIB9 = make_library_pair()
SCALE = 0.25
SEED = 1
#: Periods short enough that timing-based pinning pins cells on every design.
PERIODS = {"aes": 0.6, "cpu": 0.6, "ldpc": 0.2, "netcard": 0.6}
TOLERANCES = (0.10, 0.12, 0.15)

MAX_PASSES = 6
SWEEPS = 2


# ----------------------------------------------------------------------
# the reference: the string-keyed kernels as they were
# ----------------------------------------------------------------------
def ref_fm_bipartition(
    cells: list[str],
    nets: list[list[str]],
    area_side0: dict[str, float],
    area_side1: dict[str, float],
    *,
    initial: dict[str, int],
    fixed: set[str] | None = None,
    balance_tolerance: float = 0.10,
    balance_target: float = 0.5,
) -> FMResult:
    """Today's ``fm_bipartition``, verbatim but for its docstring."""
    fixed = fixed or set()
    if not cells:
        raise PartitionError("nothing to partition")
    cell_set = set(cells)
    if len(cell_set) != len(cells):
        raise PartitionError("duplicate cell names")
    for c in cells:
        if c not in initial:
            raise PartitionError(f"no initial side for {c!r}")

    pruned_nets = [
        [c for c in net if c in cell_set] for net in nets
    ]
    pruned_nets = [net for net in pruned_nets if len(net) >= 2]

    nets_of: dict[str, list[int]] = {c: [] for c in cells}
    for ni, net in enumerate(pruned_nets):
        for c in net:
            nets_of[c].append(ni)

    side = dict(initial)
    # Total area is evaluated symmetrically: each side uses its own metric.
    total = sum(
        area_side0[c] if side[c] == 0 else area_side1[c] for c in cells
    )
    if total <= 0:
        raise PartitionError("zero total area")
    # The classic FM balance criterion must always admit moving the largest
    # movable cell, or a perfectly balanced start would freeze solid.
    movable_areas = [
        max(area_side0[c], area_side1[c]) for c in cells if c not in fixed
    ]
    max_cell = max(movable_areas) if movable_areas else 0.0
    balance_tolerance = max(balance_tolerance, max_cell / total + 1e-9)

    def side_areas(assign: dict[str, int]) -> tuple[float, float]:
        a0 = sum(area_side0[c] for c in cells if assign[c] == 0)
        a1 = sum(area_side1[c] for c in cells if assign[c] == 1)
        return a0, a1

    def gain_of(cell: str, assign: dict[str, int], counts: list[list[int]]) -> int:
        g = 0
        s = assign[cell]
        for ni in nets_of[cell]:
            from_count = counts[ni][s]
            to_count = counts[ni][1 - s]
            if from_count == 1:
                g += 1
            if to_count == 0:
                g -= 1
        return g

    # Per-net side counts, built once; every move (and rollback) updates
    # them in O(pins(cell)), carrying the cut size along so no pass ever
    # rescans the whole net list.
    counts = [
        [sum(1 for c in net if side[c] == 0), sum(1 for c in net if side[c] == 1)]
        for net in pruned_nets
    ]
    cut = sum(1 for c0, c1 in counts if c0 and c1)

    def move(cell: str) -> None:
        nonlocal cut
        s = side[cell]
        for ni in nets_of[cell]:
            c = counts[ni]
            was_cut = c[0] > 0 and c[1] > 0
            c[s] -= 1
            c[1 - s] += 1
            c_cut = c[0] > 0 and c[1] > 0
            cut += c_cut - was_cut
        side[cell] = 1 - s

    best_assign = dict(side)
    best_cut = cut
    passes_done = 0

    for _pass in range(MAX_PASSES):
        passes_done += 1
        a0, a1 = side_areas(side)
        locked: set[str] = set(fixed)
        heap: list[tuple[int, str]] = []
        current_gain: dict[str, int] = {}
        for c in cells:
            if c in locked:
                continue
            g = gain_of(c, side, counts)
            current_gain[c] = g
            heapq.heappush(heap, (-g, c))

        sequence: list[tuple[str, int]] = []  # (cell, cumulative gain)
        cum = 0
        best_prefix = 0
        best_prefix_gain = 0

        while heap:
            neg_g, cell = heapq.heappop(heap)
            if cell in locked or current_gain.get(cell) != -neg_g:
                continue
            s = side[cell]
            # balance check with side-dependent areas
            new_a0 = a0 - area_side0[cell] if s == 0 else a0 + area_side0[cell]
            new_a1 = a1 + area_side1[cell] if s == 0 else a1 - area_side1[cell]
            new_total = new_a0 + new_a1
            if not (
                new_total * (balance_target - balance_tolerance)
                <= new_a0
                <= new_total * (balance_target + balance_tolerance)
            ):
                locked.add(cell)
                continue
            # commit tentative move
            locked.add(cell)
            cum += current_gain[cell]
            move(cell)
            a0, a1 = new_a0, new_a1
            sequence.append((cell, cum))
            if cum > best_prefix_gain:
                best_prefix_gain = cum
                best_prefix = len(sequence)
            # update gains of neighbours (lazy: recompute + repush)
            touched: set[str] = set()
            for ni in nets_of[cell]:
                for other in pruned_nets[ni]:
                    if other not in locked and other not in touched:
                        touched.add(other)
            for other in touched:
                g = gain_of(other, side, counts)
                if g != current_gain.get(other):
                    current_gain[other] = g
                    heapq.heappush(heap, (-g, other))

        # roll back moves beyond the best prefix (counts/cut follow along)
        for cell, _g in sequence[best_prefix:]:
            move(cell)

        if cut < best_cut:
            best_cut = cut
            best_assign = dict(side)
        if best_prefix_gain <= 0:
            break
        side = dict(best_assign)

    a0, a1 = side_areas(best_assign)
    return FMResult(
        assignment=best_assign, cut_size=best_cut, passes=passes_done, area=(a0, a1)
    )


def ref_bin_of(x: float, y: float, w: float, h: float, grid: int) -> tuple[int, int]:
    bx = min(grid - 1, max(0, int(x / w * grid)))
    by = min(grid - 1, max(0, int(y / h * grid)))
    return bx, by


def ref_bin_fm_partition(
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
    """Today's ``_bin_fm_partition``, verbatim but for its docstring."""
    pinned = dict(pinned or {})
    area_side0 = dict(area_side0)
    area_side1 = dict(area_side1)

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
        bins[ref_bin_of(cx, cy, width_um, height_um, grid)].append(inst)

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
        bx0, by0 = ref_bin_of(x0, y0, width_um, height_um, grid)
        bx1, by1 = ref_bin_of(x1 - 1e-9, y1 - 1e-9, width_um, height_um, grid)
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
            result = ref_fm_bipartition(
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
    return assignment


def test_constants_unchanged():
    assert fm_module.MAX_PASSES == MAX_PASSES
    assert bins_module.SWEEPS == SWEEPS


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def assert_bins_match(netlist, width, height, area0, area1, pinned, tolerance,
                      grid=4) -> bool:
    """Run live and reference bin-FM on the same inputs.

    Every bin must pose the same FM problem on both sides -- its cells in
    order with their areas, starting sides and fixed flags, each net's
    local cells and its terminal count per side, and the balance target
    -- and the two must return the same assignment, key order included.
    Returns whether any bin held a macro blocker.
    """
    live_problems: list[tuple] = []
    ref_problems: list[tuple] = []
    names_of: dict[int, list[str]] = {}
    init, refine = FMGraph.__init__, FMGraph.refine
    reference = ref_fm_bipartition

    def spy_init(self, pins, area0, area1, fixed, names):
        names_of[id(self)] = names
        init(self, pins, area0, area1, fixed, names)

    def spy_refine(self, side, fixed0, fixed1, balance_tolerance, target):
        names = names_of[id(self)]
        live_problems.append((
            names, self.area0, self.area1, list(side), self.fixed,
            [[names[c] for c in net] for net in self.pins],
            list(fixed0), list(fixed1), target,
        ))
        return refine(self, side, fixed0, fixed1, balance_tolerance, target)

    def spy_reference(cells, nets, area0, area1, *, initial, fixed,
                      balance_tolerance, balance_target):
        local = [c for c in cells if not c.startswith("__term")]
        terminals = [[c for c in net if c.startswith("__term")] for net in nets]
        ref_problems.append((
            local, [area0[c] for c in local], [area1[c] for c in local],
            [initial[c] for c in local], [c in fixed for c in local],
            [[c for c in net if not c.startswith("__term")] for net in nets],
            [sum(t.endswith("_0") for t in ts) for ts in terminals],
            [sum(t.endswith("_1") for t in ts) for ts in terminals],
            balance_target,
        ))
        return reference(
            cells, nets, area0, area1, initial=initial, fixed=fixed,
            balance_tolerance=balance_tolerance, balance_target=balance_target,
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FMGraph, "__init__", spy_init)
        mp.setattr(FMGraph, "refine", spy_refine)
        mp.setattr(sys.modules[__name__], "ref_fm_bipartition", spy_reference)
        live = bin_fm_partition(
            netlist, width, height, area0, area1, pinned=pinned, grid=grid,
            balance_tolerance=tolerance,
        )
        expected = ref_bin_fm_partition(
            netlist, width, height, area0, area1, pinned=pinned, grid=grid,
            balance_tolerance=tolerance,
        )
    assert live_problems == ref_problems
    assert list(live.items()) == list(expected.items())
    return any(
        name.startswith("__macro") for problem in ref_problems
        for name in problem[0]
    )


def outcome(fn, cells, nets, area0, area1, **kwargs):
    """Everything an ``fm_bipartition`` call returns, or its error."""
    try:
        result = fn(cells, nets, area0, area1, **kwargs)
    except PartitionError as exc:
        return f"PartitionError: {exc}"
    return (
        list(result.assignment.items()), result.cut_size, result.passes,
        repr(result.area),
    )


# ----------------------------------------------------------------------
# the four designs' pseudo-3-D states
# ----------------------------------------------------------------------
class _Captured(Exception):
    """Ends a flow once its bin-FM inputs are recorded."""


def captured_inputs(flow_module, run) -> tuple:
    """The arguments a flow hands ``bin_fm_partition``, with a copy of
    the netlist as it stood then (the flow re-tiers it right after)."""
    seen = []

    def spy(netlist, width, height, area0, area1, *, pinned=None, **_kw):
        seen.append((
            netlist.copy(), width, height, dict(area0), dict(area1),
            None if pinned is None else dict(pinned),
        ))
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_module, "bin_fm_partition", spy)
        with pytest.raises(_Captured):
            run()
    return seen[0]


def design_inputs(name: str, scale: float) -> dict[str, tuple]:
    """Pin-3D's and the hetero flow's bin-FM inputs for one design."""
    period = PERIODS[name]
    return {
        "pin3d": captured_inputs(pin3d, lambda: pin3d.run_flow_pin3d(
            name, LIB12, period_ns=period, scale=scale, seed=SEED,
        )),
        "hetero": captured_inputs(hetero, lambda: hetero.run_flow_hetero_3d(
            name, LIB12, LIB9, period_ns=period, scale=scale, seed=SEED,
        )),
    }


@pytest.fixture(scope="module", params=DESIGN_NAMES)
def pseudo_3d(request):
    return request.param, design_inputs(request.param, SCALE)


@pytest.mark.parametrize("flow", ("pin3d", "hetero"))
def test_designs_match_reference(pseudo_3d, flow):
    name, inputs = pseudo_3d
    netlist, width, height, area0, area1, pinned = inputs[flow]
    if flow == "pin3d":
        assert pinned is None and area0 == area1
    else:
        assert pinned and area0 != area1
    for tolerance in TOLERANCES:
        blocked = assert_bins_match(
            netlist, width, height, area0, area1, pinned, tolerance
        )
        # cpu's memory macros overlap bins as fixed blocker cells
        assert blocked == (name == "cpu")


# ----------------------------------------------------------------------
# random hypergraphs
# ----------------------------------------------------------------------
AREAS = st.sampled_from([0.0, 0.25, 1.0, 1.5, 4.0])


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    # insertion order differs from name order, so ties show the rank
    order = draw(st.permutations(range(n)))
    cells = [f"c{k:02d}" for k in order]
    area0 = {c: draw(AREAS) for c in cells}
    if draw(st.booleans()):
        area1 = dict(area0)
    else:
        area1 = {c: draw(AREAS) for c in cells}
    # nets may name a cell twice or name a cell that is not in ``cells``
    pins = st.sampled_from(cells + ["ghost"])
    nets = draw(st.lists(
        st.lists(pins, min_size=1, max_size=5), max_size=3 * n
    ))
    initial = {c: draw(st.integers(min_value=0, max_value=1)) for c in cells}
    if draw(st.booleans()):
        initial["ghost"] = 1  # kept, in place, in the returned assignment
    mode = draw(st.sampled_from(["none", "some", "all"]))
    if mode == "all":
        fixed = set(cells)
    elif mode == "some":
        fixed = set(draw(st.lists(st.sampled_from(cells), max_size=n)))
    else:
        fixed = None
    # tolerances below the largest cell's share get widened
    tolerance = draw(st.sampled_from([0.0, 0.02, 0.10, 0.12, 0.15, 0.5]))
    target = draw(st.sampled_from([0.35, 0.5, 0.65]) | st.floats(0.35, 0.65))
    return cells, nets, area0, area1, dict(
        initial=initial, fixed=fixed, balance_tolerance=tolerance,
        balance_target=target,
    )


@settings(max_examples=400, deadline=None)
@given(case=hypergraphs())
def test_random_hypergraphs_match_reference(case):
    cells, nets, area0, area1, kwargs = case
    assert outcome(fm_bipartition, cells, nets, area0, area1, **kwargs) == \
        outcome(ref_fm_bipartition, cells, nets, area0, area1, **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    tolerance=st.sampled_from([0.02, 0.05, 0.10, 0.15]),
    target=st.sampled_from([0.35, 0.5, 0.65]),
)
def test_larger_hypergraphs_match_reference(seed, tolerance, target):
    """Graphs big enough for several passes, rollbacks and long runs of
    equal gains."""
    rng = random.Random(seed)
    n = rng.randint(20, 90)
    cells = [f"u{k}" for k in rng.sample(range(1000), n)]
    nets = [
        [rng.choice(cells) for _ in range(rng.choice((2, 2, 2, 3, 4, 7)))]
        for _ in range(rng.randint(n, 3 * n))
    ]
    area0 = {c: rng.choice((0.5, 1.0, 1.0, 2.0)) for c in cells}
    area1 = {c: a * rng.choice((1.0, 0.75)) for c, a in area0.items()}
    initial = {c: i % 2 for i, c in enumerate(cells)}
    fixed = set(rng.sample(cells, rng.randint(0, n // 4)))
    kwargs = dict(initial=initial, fixed=fixed, balance_tolerance=tolerance,
                  balance_target=target)
    assert outcome(fm_bipartition, cells, nets, area0, area1, **kwargs) == \
        outcome(ref_fm_bipartition, cells, nets, area0, area1, **kwargs)


# ----------------------------------------------------------------------
# random placements around a macro
# ----------------------------------------------------------------------
_LOGIC = (CellFunction.INV, CellFunction.NAND2, CellFunction.NOR2,
          CellFunction.AOI21, CellFunction.DFF)


def random_placement(rng: random.Random):
    """A placed netlist whose memory macro spans several bins, with its
    areas (side 1 shrunk per cell) and a pinned set that also names
    cells the netlist lacks."""
    width = height = 60.0
    netlist = Netlist("random")
    names = []
    for k in rng.sample(range(10_000), rng.randint(30, 160)):
        inst = netlist.add_instance(
            f"g{k}", LIB12.get(rng.choice(_LOGIC), 1), tier=0
        )
        inst.x_um = rng.uniform(0.0, width - inst.cell.width_um)
        inst.y_um = rng.uniform(0.0, height - inst.cell.height_um)
        names.append(inst.name)
    macro = netlist.add_instance(
        "mem0", LIB12.get(CellFunction.MEMORY, 1), tier=rng.choice((0, 1)),
        fixed=True,
    )
    macro.x_um = rng.uniform(0.0, width - macro.cell.width_um)
    macro.y_um = rng.uniform(0.0, height - macro.cell.height_um)
    drivers = []
    for name in names + ["mem0"]:
        inst = netlist.instances[name]
        net = netlist.add_net(f"n_{name}")
        netlist.connect(net.name, name, inst.cell.output_pin)
        drivers.append(net.name)
    for name in names + ["mem0"]:
        cell = netlist.instances[name].cell
        for pin in cell.pins:
            if pin != cell.output_pin and rng.random() < 0.9:
                netlist.connect(rng.choice(drivers), name, pin)
    area0 = {n: i.area_um2 for n, i in netlist.instances.items()}
    area1 = {n: a * rng.choice((1.0, 0.75)) for n, a in area0.items()}
    pinned = {n: rng.choice((0, 1)) for n in rng.sample(names, len(names) // 5)}
    if rng.random() < 0.5:
        pinned["mem0"] = 1 - macro.tier
    if rng.random() < 0.5:
        pinned["absent"] = rng.choice((0, 1))  # has no area: adds nothing
    return netlist, width, height, area0, area1, pinned


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    tolerance=st.sampled_from(TOLERANCES),
    grid=st.sampled_from([2, 4, 5]),
)
def test_random_placements_match_reference(seed, tolerance, grid):
    netlist, width, height, area0, area1, pinned = random_placement(
        random.Random(seed)
    )
    blocked = assert_bins_match(
        netlist, width, height, area0, area1, pinned, tolerance, grid
    )
    assert blocked
