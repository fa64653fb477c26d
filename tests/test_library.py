"""Tests for the StdCellLibrary container (repro.liberty.library)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LibraryError
from repro.liberty.cells import CellFunction
from repro.liberty.presets import (
    make_library_pair,
    make_nine_track_library,
    make_track_variant,
    make_twelve_track_library,
)
from repro.netlist.core import Netlist
from repro.timing.delaycalc import DelayCalculator, FanoutWireModel


@pytest.fixture(scope="module")
def pair():
    return make_library_pair()


@pytest.fixture(scope="module")
def lib12(pair):
    return pair[0]


@pytest.fixture(scope="module")
def lib9(pair):
    return pair[1]


class TestLookups:
    def test_cell_by_name(self, lib12):
        cell = lib12.cell("INVX1_12T")
        assert cell.function is CellFunction.INV
        assert cell.drive == 1

    def test_missing_cell_raises(self, lib12):
        with pytest.raises(LibraryError):
            lib12.cell("NOPE")

    def test_get_by_function_and_drive(self, lib12):
        cell = lib12.get(CellFunction.NAND2, 4)
        assert cell.drive == 4

    def test_missing_drive_raises(self, lib12):
        with pytest.raises(LibraryError):
            lib12.get(CellFunction.NAND2, 3)

    def test_contains_and_len(self, lib12):
        assert "INVX1_12T" in lib12
        assert "NOPE" not in lib12
        assert len(lib12) > 50

    def test_drives_sorted(self, lib12):
        drives = lib12.drives_for(CellFunction.INV)
        assert drives == tuple(sorted(drives))
        assert drives[0] == 1

    def test_duplicate_cell_rejected(self, lib12):
        with pytest.raises(LibraryError):
            lib12.add_cell(lib12.cell("INVX1_12T"))


class TestSizing:
    def test_upsize_steps_through_drives(self, lib12):
        x1 = lib12.get(CellFunction.INV, 1)
        x2 = lib12.upsize(x1)
        assert x2.drive == 2
        assert lib12.upsize(lib12.get(CellFunction.INV, 8)) is None

    def test_downsize(self, lib12):
        x4 = lib12.get(CellFunction.INV, 4)
        assert lib12.downsize(x4).drive == 2
        assert lib12.downsize(lib12.get(CellFunction.INV, 1)) is None

    def test_upsize_reduces_drive_resistance(self, lib12):
        x1 = lib12.get(CellFunction.NAND2, 1)
        x4 = lib12.get(CellFunction.NAND2, 4)
        load = 20.0
        d1 = x1.worst_arc_to_output().delay.lookup(0.05, load)
        d4 = x4.worst_arc_to_output().delay.lookup(0.05, load)
        assert d4 < d1


class TestCrossLibrary:
    def test_equivalent_preserves_function_and_drive(self, lib12, lib9):
        for cell in lib12.cells:
            twin = lib9.equivalent_of(cell)
            assert twin.function is cell.function
            assert twin.drive == cell.drive
            assert twin.library_name == lib9.name

    def test_equivalent_falls_back_to_closest_drive(self, lib12, lib9):
        # CLKBUF exists at x16 in both; fabricate a lookup for a drive
        # that exists only via closest-match by asking for DFF x8's twin.
        dff8 = lib12.get(CellFunction.DFF, 8)
        twin = lib9.equivalent_of(dff8)
        assert twin.function is CellFunction.DFF

    def test_voltage_compatibility_rule(self, lib12, lib9):
        # 0.90 - 0.81 = 0.09 < 0.3*0.90 and < min vth: compatible.
        assert lib12.voltage_compatible_with(lib9)
        assert lib9.voltage_compatible_with(lib12)

    def test_voltage_rule_rejects_large_difference(self, lib12, lib9):
        import dataclasses

        low = dataclasses.replace(lib9, vdd_v=0.55, _cells=lib9._cells,
                                  _by_function=lib9._by_function)
        assert not lib12.voltage_compatible_with(low)

    def test_slew_ranges_overlap(self, lib12, lib9):
        assert lib12.slew_ranges_overlap(lib9)


# ----------------------------------------------------------------------
# lookups derived once per cell type and per library
# ----------------------------------------------------------------------
def scanned_worst_arc(cell):
    """``worst_arc_to_output`` as it was: a scan per call."""
    best = None
    best_delay = -1.0
    for arc in cell.arcs:
        if arc.kind == "setup":
            continue
        mid_slew = arc.delay.slew_axis[len(arc.delay.slew_axis) // 2]
        mid_load = arc.delay.load_axis[len(arc.delay.load_axis) // 2]
        d = arc.delay.lookup(mid_slew, mid_load)
        if d > best_delay:
            best, best_delay = arc, d
    return best


def preset_libraries():
    libs = [make_twelve_track_library(), make_nine_track_library(),
            *make_library_pair()]
    libs += [make_track_variant(tracks) for tracks in range(7, 15)]
    libs += [make_track_variant(9, vdd_v=vdd) for vdd in (0.55, 0.7, 0.9)]
    return libs


class TestDerivedLookups:
    def test_worst_arc_equals_scan(self):
        for lib in preset_libraries():
            for cell in lib.cells:
                expected = scanned_worst_arc(cell)
                if expected is None:
                    with pytest.raises(LibraryError):
                        cell.worst_arc_to_output()
                else:
                    assert cell.worst_arc_to_output() is expected

    def test_setup_arc_is_first_setup_arc(self):
        for lib in preset_libraries():
            for cell in lib.cells:
                setups = [a for a in cell.arcs if a.kind == "setup"]
                assert cell.setup_arc is (setups[0] if setups else None)

    @settings(max_examples=30, deadline=None)
    @given(slews=st.lists(
        st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=8
    ))
    def test_setup_time_equals_lookup(self, slews):
        for lib in preset_libraries()[:6]:
            calc = DelayCalculator(Netlist("empty"), FanoutWireModel(lib),
                                   {lib.name: lib})
            for cell in lib.cells:
                for slew in slews + slews:  # the second round hits the memo
                    expected = (
                        cell.setup_arc.delay.lookup(slew, 0.0)
                        if cell.setup_arc is not None else cell.setup_ns
                    )
                    assert calc.setup_time(cell, slew) == expected

    def test_drive_tuples_are_sorted_drives(self):
        for lib in preset_libraries():
            for function, drives in lib._by_function.items():
                assert lib.drives_for(function) == tuple(sorted(drives))

    def test_replaced_library_keeps_its_drives(self, lib9):
        import dataclasses

        low = dataclasses.replace(lib9, vdd_v=0.55, _cells=lib9._cells,
                                  _by_function=lib9._by_function)
        for function in lib9._by_function:
            assert low.drives_for(function) == lib9.drives_for(function)
