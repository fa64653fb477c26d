"""Tests for cell archetypes (repro.liberty.cells)."""

import dataclasses

import pytest

from repro.errors import LibraryError
from repro.liberty.cells import (
    CellFunction,
    PinSpec,
    input_pin_names,
    output_pin_name,
)
from repro.liberty.presets import make_twelve_track_library


@pytest.fixture(scope="module")
def lib():
    return make_twelve_track_library()


class TestCellFunction:
    def test_sequential_flags(self):
        assert CellFunction.DFF.is_sequential
        assert CellFunction.MEMORY.is_sequential
        assert not CellFunction.NAND2.is_sequential

    def test_macro_flags(self):
        assert CellFunction.MEMORY.is_macro
        assert not CellFunction.DFF.is_macro

    def test_input_counts(self):
        assert CellFunction.INV.input_count == 1
        assert CellFunction.NAND2.input_count == 2
        assert CellFunction.MUX2.input_count == 3
        assert CellFunction.AOI21.input_count == 3

    def test_every_function_has_transfer_factor(self):
        for fn in CellFunction:
            assert 0.0 < fn.switching_transfer <= 1.0

    def test_xor_propagates_more_than_and(self):
        assert (
            CellFunction.XOR2.switching_transfer
            > CellFunction.AND2.switching_transfer
        )

    def test_pin_names(self):
        assert input_pin_names(CellFunction.INV) == ("A",)
        assert input_pin_names(CellFunction.NAND3) == ("A", "B", "C")
        assert input_pin_names(CellFunction.DFF) == ("D",)
        assert output_pin_name(CellFunction.DFF) == "Q"
        assert output_pin_name(CellFunction.NAND2) == "Y"


class TestPinSpec:
    def test_rejects_bad_direction(self):
        with pytest.raises(LibraryError):
            PinSpec("A", "bidir")

    def test_rejects_negative_capacitance(self):
        with pytest.raises(LibraryError):
            PinSpec("A", "input", capacitance_ff=-1.0)


class TestCellType:
    def test_output_pin_found(self, lib):
        inv = lib.get(CellFunction.INV, 1)
        assert inv.output_pin == "Y"

    def test_rejects_a_second_output_pin(self, lib):
        inv = lib.get(CellFunction.INV, 1)
        pins = {**inv.pins, "Z": PinSpec("Z", "output")}
        with pytest.raises(LibraryError, match="more than one output"):
            dataclasses.replace(inv, pins=pins)

    def test_input_pins_ordered(self, lib):
        nand = lib.get(CellFunction.NAND2, 1)
        assert nand.input_pins == ("A", "B")

    def test_clock_pin_only_on_sequential(self, lib):
        dff = lib.get(CellFunction.DFF, 1)
        inv = lib.get(CellFunction.INV, 1)
        assert dff.clock_pin == "CK"
        assert inv.clock_pin is None

    def test_input_capacitance_lookup(self, lib):
        nand = lib.get(CellFunction.NAND2, 1)
        assert nand.input_capacitance_ff("A") > 0
        with pytest.raises(LibraryError):
            nand.input_capacitance_ff("Z")

    def test_arc_to_finds_combinational_arc(self, lib):
        nand = lib.get(CellFunction.NAND2, 1)
        arc = nand.arc_to("Y", "A")
        assert arc is not None
        assert arc.kind == "combinational"
        assert nand.arc_to("Y", "Z") is None

    def test_setup_arc_not_returned_as_combinational(self, lib):
        dff = lib.get(CellFunction.DFF, 1)
        assert dff.arc_to("Q", "D") is None  # D->Q is a setup arc
        assert dff.arc_to("Q", "CK") is not None  # clk-to-q

    def test_worst_arc_exists(self, lib):
        for cell in lib.cells:
            arc = cell.worst_arc_to_output()
            assert arc.kind in ("combinational", "clk_to_q")

    def test_area_positive_and_geometry_consistent(self, lib):
        for cell in lib.cells:
            assert cell.area_um2 == pytest.approx(
                cell.width_um * cell.height_um, rel=1e-6
            )
