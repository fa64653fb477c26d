"""Tests for global placement and legalization (repro.place)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlacementError
from repro.liberty.cells import CellFunction
from repro.liberty.presets import make_library_pair
from repro.netlist.core import Netlist
from repro.netlist.generators import generate_netlist
from repro.place.floorplan import (
    MACRO_HALO,
    Floorplan,
    MacroSlot,
    build_floorplan,
)
from repro.place.legalizer import (
    ROW_FILL_LIMIT,
    _build_rows,
    _split_row,
    legalize,
    row_capacity_um2,
)
from repro.place.quadratic import global_place


@pytest.fixture(scope="module")
def pair():
    return make_library_pair()


@pytest.fixture(scope="module")
def placed_aes(pair):
    lib12, _ = pair
    nl = generate_netlist("aes", lib12, scale=0.3, seed=3)
    fp = build_floorplan(nl, {0: lib12}, utilization=0.7)
    global_place(nl, fp)
    return nl, fp, lib12


class TestGlobalPlace:
    def test_everything_placed_inside_die(self, placed_aes):
        nl, fp, _lib = placed_aes
        for inst in nl.instances.values():
            assert inst.is_placed
            assert -1e-6 <= inst.x_um <= fp.width_um
            assert -1e-6 <= inst.y_um <= fp.height_um

    def test_deterministic(self, pair):
        lib12, _ = pair
        positions = []
        for _ in range(2):
            nl = generate_netlist("aes", lib12, scale=0.3, seed=3)
            fp = build_floorplan(nl, {0: lib12}, utilization=0.7)
            global_place(nl, fp)
            positions.append(
                {n: (i.x_um, i.y_um) for n, i in nl.instances.items()}
            )
        assert positions[0] == positions[1]

    def test_connected_cells_are_near(self, placed_aes):
        """Placement quality: connected pairs much closer than random pairs."""
        nl, fp, _lib = placed_aes
        import itertools
        import random

        rng = random.Random(0)
        connected = []
        for net in nl.nets.values():
            if net.is_clock or net.driver is None or not net.sinks:
                continue
            a = nl.instances[net.driver[0]].center()
            b = nl.instances[net.sinks[0][0]].center()
            connected.append(abs(a[0] - b[0]) + abs(a[1] - b[1]))
        names = sorted(nl.instances)
        random_pairs = []
        for _ in range(len(connected)):
            a = nl.instances[rng.choice(names)].center()
            b = nl.instances[rng.choice(names)].center()
            random_pairs.append(abs(a[0] - b[0]) + abs(a[1] - b[1]))
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(connected) < 0.6 * mean(random_pairs)


class TestLegalizer:
    def test_no_overlaps_and_row_alignment(self, placed_aes):
        nl, fp, lib = placed_aes
        legalize(nl, fp, lib, tier=0)
        pitch = lib.cell_height_um
        rows: dict[int, list] = {}
        for inst in nl.instances.values():
            if inst.cell.is_macro:
                continue
            row = round(inst.y_um / pitch)
            assert inst.y_um == pytest.approx(row * pitch, abs=1e-6)
            rows.setdefault(row, []).append(inst)
        for members in rows.values():
            members.sort(key=lambda i: i.x_um)
            for a, b in zip(members, members[1:]):
                assert b.x_um >= a.x_um + a.cell.width_um - 1e-6

    def test_cells_stay_inside_die(self, placed_aes):
        nl, fp, lib = placed_aes
        legalize(nl, fp, lib, tier=0)
        for inst in nl.instances.values():
            assert inst.x_um >= -1e-6
            assert inst.x_um + inst.cell.width_um <= fp.width_um + 1e-6

    def test_only_requested_tier_moves(self, pair):
        lib12, _ = pair
        nl = generate_netlist("aes", lib12, scale=0.3, seed=3)
        names = sorted(nl.instances)
        for name in names[::2]:
            nl.instances[name].tier = 1
        fp = build_floorplan(nl, {0: lib12, 1: lib12}, utilization=0.7)
        global_place(nl, fp)
        before = {n: (i.x_um, i.y_um) for n, i in nl.instances.items() if i.tier == 1}
        legalize(nl, fp, lib12, tier=0)
        after = {n: (i.x_um, i.y_um) for n, i in nl.instances.items() if i.tier == 1}
        assert before == after

    def test_overfull_tier_raises(self, pair):
        lib12, _ = pair
        nl = generate_netlist("aes", lib12, scale=0.3, seed=3)
        fp = build_floorplan(nl, {0: lib12}, utilization=0.7)
        global_place(nl, fp)
        fp.width_um *= 0.6  # shrink the die after placement
        with pytest.raises(PlacementError):
            legalize(nl, fp, lib12, tier=0)

    def test_macro_blockages_respected(self, pair):
        lib12, _ = pair
        nl = generate_netlist("cpu", lib12, scale=0.5, seed=3)
        fp = build_floorplan(nl, {0: lib12}, utilization=0.7)
        global_place(nl, fp)
        legalize(nl, fp, lib12, tier=0)
        for slot in fp.macros:
            hx0, hy0 = slot.x_um, slot.y_um
            hx1 = slot.x_um + slot.width_um * (1 + MACRO_HALO)
            hy1 = slot.y_um + slot.height_um * (1 + MACRO_HALO)
            for inst in nl.instances.values():
                if inst.cell.is_macro or inst.tier != slot.tier:
                    continue
                no_overlap = (
                    inst.x_um + inst.cell.width_um <= hx0 + 1e-6
                    or inst.x_um >= hx1 - 1e-6
                    or inst.y_um + inst.cell.height_um <= hy0 + 1e-6
                    or inst.y_um >= hy1 - 1e-6
                )
                assert no_overlap, f"{inst.name} overlaps macro {slot.name}"

    def test_different_tier_row_pitches(self, pair):
        """9T and 12T tiers legalize against their own row heights."""
        lib12, lib9 = pair
        nl = generate_netlist("aes", lib12, scale=0.3, seed=3)
        names = sorted(nl.instances)
        for name in names[::2]:
            inst = nl.instances[name]
            nl.rebind(name, lib9.equivalent_of(inst.cell))
            inst.tier = 1
        fp = build_floorplan(nl, {0: lib12, 1: lib9}, utilization=0.7)
        global_place(nl, fp)
        legalize(nl, fp, lib12, tier=0)
        legalize(nl, fp, lib9, tier=1)
        for inst in nl.instances.values():
            pitch = 1.2 if inst.tier == 0 else 0.9
            row = round(inst.y_um / pitch)
            assert inst.y_um == pytest.approx(row * pitch, abs=1e-6)

    def test_displacement_equals_per_cell_moves(self, pair):
        """`LegalizeStats` reports exactly the sum of |dx|+|dy| applied."""
        lib12, _ = pair
        nl = generate_netlist("aes", lib12, scale=0.3, seed=5)
        fp = build_floorplan(nl, {0: lib12}, utilization=0.7)
        global_place(nl, fp)
        movable = [
            i for i in nl.instances.values()
            if not i.fixed and not i.cell.is_macro
        ]
        before = {i.name: (i.x_um, i.y_um) for i in movable}
        stats = legalize(nl, fp, lib12, tier=0)
        moves = {
            i.name: (abs(i.x_um - before[i.name][0]),
                     abs(i.y_um - before[i.name][1]))
            for i in movable
        }
        assert stats.total_displacement_um == pytest.approx(
            sum(dx + dy for dx, dy in moves.values())
        )
        assert stats.max_displacement_um == pytest.approx(
            max(max(dx, dy) for dx, dy in moves.values())
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_legalization_preserves_cell_count_property(self, pair, seed):
        lib12, _ = pair
        nl = generate_netlist("ldpc", lib12, scale=0.2, seed=seed)
        fp = build_floorplan(nl, {0: lib12}, utilization=0.75)
        global_place(nl, fp)
        stats = legalize(nl, fp, lib12, tier=0)
        movable = [
            i for i in nl.instances.values()
            if not i.fixed and not i.cell.is_macro
        ]
        assert stats.cells == len(movable)
        assert stats.total_displacement_um >= 0
        assert stats.max_displacement_um <= fp.width_um + fp.height_um


class _StubCell:
    is_macro = False

    def __init__(self, width):
        self.width_um = width
        self.height_um = 1.2


class _StubInst:
    def __init__(self, name, width, x, y=0.0):
        self.name = name
        self.cell = _StubCell(width)
        self.x_um = x
        self.y_um = y


def _assert_legal(nl, fp, lib, tier):
    """Every cell on a row y, inside a free segment, no overlaps."""
    pitch = lib.cell_height_um
    rows = _build_rows(fp, lib, tier)
    by_row: dict[int, list] = {}
    for inst in nl.instances.values():
        if inst.cell.is_macro or inst.fixed or inst.tier != tier:
            continue
        r = round(inst.y_um / pitch)
        assert inst.y_um == pytest.approx(r * pitch, abs=1e-6)
        _y, segs = rows[r]
        assert any(
            s0 - 1e-6 <= inst.x_um
            and inst.x_um + inst.cell.width_um <= s1 + 1e-6
            for s0, s1 in segs
        ), f"{inst.name} outside free segments of row {r}"
        by_row.setdefault(r, []).append(inst)
    for members in by_row.values():
        members.sort(key=lambda i: i.x_um)
        for a, b in zip(members, members[1:]):
            assert b.x_um >= a.x_um + a.cell.width_um - 1e-6


class TestSegmentSplit:
    def test_capacity_aware_rescue_of_stranded_cell(self):
        """The x-order greedy strands a cell at a nearly-full segment even
        though another segment has room; the capacity-aware re-split must
        find the feasible assignment instead of raising."""
        segs = [(0.0, 6.0), (20.0, 24.0)]
        a = _StubInst("a", 4.0, 0.0)
        b = _StubInst("b", 4.0, 4.5)
        c = _StubInst("c", 2.0, 8.0)
        chunks = _split_row([a, b, c], segs, y=0.0, tier=0)
        widths = [sum(i.cell.width_um for i in ch) for ch in chunks]
        assert widths[0] <= 6.0 and widths[1] <= 4.0
        assert sorted(i.name for ch in chunks for i in ch) == ["a", "b", "c"]

    def test_genuinely_oversubscribed_row_raises(self):
        segs = [(0.0, 6.0), (20.0, 24.0)]
        group = [_StubInst(f"g{i}", 4.0, 2.0 * i) for i in range(3)]
        with pytest.raises(PlacementError, match="over-subscribed"):
            _split_row(group, segs, y=0.0, tier=0)

    def test_macro_blocked_row_near_fill_limit(self, pair):
        """Regression: a macro-split row packed near `ROW_FILL_LIMIT` used
        to raise a spurious over-subscription error because the greedy
        dumped every leftover cell into the last segment."""
        lib12, _ = pair
        fp = Floorplan(
            width_um=30.0, height_um=1.3, tiers=1, utilization=0.9,
            macros=[MacroSlot("m", 12.0, 0.0, 6.0, 1.0)],
        )
        # Free segments: [0, 12] and [18.6, 30] (caps 12 / 11.4).  The
        # x-ordered greedy fills [9.12], then [5.28, 5.28], stranding the
        # trailing 2.4 even though segment 0 still has 2.88 spare.
        nl = Netlist("blocked")
        for name, drive, x in (
            ("w8", 8, 0.0), ("w4a", 4, 9.0), ("w4b", 4, 14.0), ("w1", 1, 20.0),
        ):
            inst = nl.add_instance(name, lib12.get(CellFunction.DFF, drive))
            inst.x_um = x
            inst.y_um = 0.3
        stats = legalize(nl, fp, lib12, tier=0)
        assert stats.cells == 4
        _assert_legal(nl, fp, lib12, tier=0)


class TestSpreadLeaf:
    def test_tall_region_spreads_along_y(self):
        """Leaves in a tall thin region must fan out vertically (they used
        to stack along x regardless of the region shape)."""
        from repro.place.quadratic import _spread

        out_x = [0.0] * 3
        out_y = [0.0] * 3
        _spread(
            [0.5, 0.5, 0.5], [3.0, 1.0, 2.0], [1.0] * 3,
            (0.0, 0.0, 1.0, 10.0), False, out_x, out_y, [0, 1, 2], [],
        )
        assert out_x == [0.5] * 3
        assert len(set(out_y)) == 3
        # relative y order is preserved: b (y=1) < c (y=2) < a (y=3)
        assert out_y[1] < out_y[2] < out_y[0]

    def test_wide_region_spreads_along_x(self):
        from repro.place.quadratic import _spread

        out_x = [0.0] * 2
        out_y = [0.0] * 2
        _spread(
            [1.0, 5.0], [0.5, 0.5], [1.0] * 2, (0.0, 0.0, 10.0, 1.0),
            False, out_x, out_y, [0, 1], [],
        )
        assert out_y == [0.5] * 2
        assert out_x[0] < out_x[1]


class TestFillLegalityProperty:
    POOL = None

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        fill=st.floats(0.85, 0.97),
        overfill=st.booleans(),
    )
    def test_high_fill_with_macros(self, pair, seed, fill, overfill):
        """Random placements at 85-97% fill legalize into legal rows;
        PlacementError is raised iff cell width genuinely exceeds the
        row-capacity fill limit."""
        lib12, _ = pair
        fp = Floorplan(
            width_um=30.0, height_um=12.0, tiers=1, utilization=0.9,
            macros=[MacroSlot("m", 8.0, 3.0, 6.0, 4.0)],
        )
        capacity_w = row_capacity_um2(fp, lib12, 0) / lib12.cell_height_um
        target = (fill + (0.1 if overfill else 0.0)) * capacity_w
        pool = [
            lib12.get(fn, d)
            for fn in (CellFunction.INV, CellFunction.NAND2, CellFunction.BUF)
            for d in lib12.drives_for(fn)
        ]
        rng = random.Random(seed)
        nl = Netlist("fill")
        total = 0.0
        i = 0
        while True:
            cell = rng.choice(pool)
            if total + cell.width_um > target:
                break
            inst = nl.add_instance(f"c{i}", cell)
            inst.x_um = rng.uniform(0.0, fp.width_um - cell.width_um)
            inst.y_um = rng.uniform(0.0, fp.height_um - cell.height_um)
            total += cell.width_um
            i += 1
        if total > capacity_w * ROW_FILL_LIMIT:
            with pytest.raises(PlacementError):
                legalize(nl, fp, lib12, tier=0)
        else:
            stats = legalize(nl, fp, lib12, tier=0)
            assert stats.cells == i
            _assert_legal(nl, fp, lib12, tier=0)
