"""Standard cell archetypes: functions, pins, timing arcs, cell types.

A :class:`CellType` is one row of a liberty file: a logic function at a
specific drive strength in a specific library, with physical size, pin
capacitances, power numbers and NLDM timing arcs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import LibraryError
from repro.liberty.timing_model import TimingTable

__all__ = ["CellFunction", "PinSpec", "TimingArc", "CellType"]


class CellFunction(enum.Enum):
    """Logic function archetypes supported by the libraries.

    The generators emit netlists over these functions; synthesis binds each
    one to a concrete :class:`CellType` of a target library, so the same
    netlist can be implemented in 9-track, 12-track, or a mix.
    """

    INV = "INV"
    BUF = "BUF"
    NAND2 = "NAND2"
    NOR2 = "NOR2"
    AND2 = "AND2"
    OR2 = "OR2"
    XOR2 = "XOR2"
    XNOR2 = "XNOR2"
    MUX2 = "MUX2"
    AOI21 = "AOI21"
    OAI21 = "OAI21"
    NAND3 = "NAND3"
    NOR3 = "NOR3"
    DFF = "DFF"
    CLKBUF = "CLKBUF"
    LEVEL_SHIFTER = "LS"
    MEMORY = "MEM"

    @property
    def is_sequential(self) -> bool:
        """True for clocked storage elements (flip-flops, memory macros)."""
        return self in (CellFunction.DFF, CellFunction.MEMORY)

    @property
    def is_macro(self) -> bool:
        """True for block-level macros that are floorplanned, not placed."""
        return self is CellFunction.MEMORY

    @property
    def input_count(self) -> int:
        """Number of data input pins for the function."""
        return _INPUT_COUNTS[self]

    @property
    def switching_transfer(self) -> float:
        """Activity transfer factor used by the power engine.

        The output toggle rate of a gate is roughly the mean input toggle
        rate scaled by this function-dependent factor (XOR propagates
        nearly every input toggle, AND/OR masks about half, etc.).
        """
        return _SWITCHING_TRANSFER[self]


_INPUT_COUNTS = {
    CellFunction.INV: 1,
    CellFunction.BUF: 1,
    CellFunction.CLKBUF: 1,
    CellFunction.LEVEL_SHIFTER: 1,
    CellFunction.NAND2: 2,
    CellFunction.NOR2: 2,
    CellFunction.AND2: 2,
    CellFunction.OR2: 2,
    CellFunction.XOR2: 2,
    CellFunction.XNOR2: 2,
    CellFunction.MUX2: 3,
    CellFunction.AOI21: 3,
    CellFunction.OAI21: 3,
    CellFunction.NAND3: 3,
    CellFunction.NOR3: 3,
    CellFunction.DFF: 1,
    CellFunction.MEMORY: 2,
}

_SWITCHING_TRANSFER = {
    CellFunction.INV: 1.0,
    CellFunction.BUF: 1.0,
    CellFunction.CLKBUF: 1.0,
    CellFunction.LEVEL_SHIFTER: 1.0,
    CellFunction.NAND2: 0.60,
    CellFunction.NOR2: 0.60,
    CellFunction.AND2: 0.60,
    CellFunction.OR2: 0.60,
    CellFunction.XOR2: 1.0,
    CellFunction.XNOR2: 1.0,
    CellFunction.MUX2: 0.70,
    CellFunction.AOI21: 0.55,
    CellFunction.OAI21: 0.55,
    CellFunction.NAND3: 0.45,
    CellFunction.NOR3: 0.45,
    CellFunction.DFF: 0.5,
    CellFunction.MEMORY: 0.35,
}


def input_pin_names(function: CellFunction) -> tuple[str, ...]:
    """Canonical input pin names for a function (data pins only)."""
    if function is CellFunction.DFF:
        return ("D",)
    if function is CellFunction.MEMORY:
        return ("A", "D")
    if function.input_count == 1:
        return ("A",)
    return tuple("ABCDEFGH"[: function.input_count])


def output_pin_name(function: CellFunction) -> str:
    """Canonical output pin name for a function."""
    if function.is_sequential:
        return "Q"
    return "Y"


@dataclass(frozen=True)
class PinSpec:
    """Electrical description of one cell pin."""

    name: str
    direction: str  # "input", "output", or "clock"
    capacitance_ff: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output", "clock"):
            raise LibraryError(f"bad pin direction {self.direction!r}")
        if self.capacitance_ff < 0:
            raise LibraryError("pin capacitance cannot be negative")


@dataclass(frozen=True)
class TimingArc:
    """One characterized timing arc of a cell.

    ``from_pin`` -> ``to_pin`` with NLDM delay and output-slew tables.
    Sequential cells additionally carry setup/clk-to-q constants through
    dedicated arcs (``kind`` is ``"setup"`` or ``"clk_to_q"``).

    Both tables share their axes, so one interpolation position serves
    both lookups (:meth:`~repro.liberty.timing_model.TimingTable.lookup_pair`).
    """

    from_pin: str
    to_pin: str
    delay: TimingTable
    output_slew: TimingTable
    kind: str = "combinational"

    def __post_init__(self) -> None:
        if self.kind not in ("combinational", "setup", "clk_to_q"):
            raise LibraryError(f"bad arc kind {self.kind!r}")
        if (
            self.delay.slew_axis != self.output_slew.slew_axis
            or self.delay.load_axis != self.output_slew.load_axis
        ):
            raise LibraryError(
                f"arc {self.from_pin}->{self.to_pin}: delay and output-slew "
                "tables must share their axes"
            )


@dataclass(frozen=True)
class CellType:
    """A concrete standard cell: function + drive in one library.

    Attributes
    ----------
    name:
        Library cell name, e.g. ``"INVX4_12T"``.
    function:
        The logic archetype.
    drive:
        Relative drive strength (1, 2, 4, 8, ...).
    library_name:
        Name of the owning :class:`~repro.liberty.library.StdCellLibrary`.
    area_um2 / width_um / height_um:
        Physical footprint; height is ``tracks * track pitch``.
    pins:
        Pin electrical specs by name.
    arcs:
        NLDM timing arcs.
    leakage_mw:
        State-averaged leakage power.
    internal_energy_pj:
        Internal (short-circuit + parasitics) energy per output toggle.
    setup_ns / clk_to_q_ns:
        Sequential constants (zero for combinational cells).
    vdd_v:
        Supply of the owning library, duplicated here for convenience.

    The pin metadata below (``is_sequential`` .. ``setup_arc``) and the
    worst arc are derived from ``function``, ``pins`` and ``arcs`` once,
    at construction: the timing engine and the optimizer read them on
    every arc evaluation and every sizing candidate.
    """

    name: str
    function: CellFunction
    drive: int
    library_name: str
    area_um2: float
    width_um: float
    height_um: float
    pins: dict[str, PinSpec] = field(repr=False)
    arcs: tuple[TimingArc, ...] = field(repr=False)
    leakage_mw: float = 0.0
    internal_energy_pj: float = 0.0
    setup_ns: float = 0.0
    clk_to_q_ns: float = 0.0
    vdd_v: float = 0.9

    #: True for flip-flops and memory macros.
    is_sequential: bool = field(init=False, repr=False, compare=False)
    #: True for memory macros.
    is_macro: bool = field(init=False, repr=False, compare=False)
    #: Names of data input pins, in canonical order.
    input_pins: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Name of the output pin (a cell has exactly one).
    output_pin: str = field(init=False, repr=False, compare=False)
    #: Name of the clock pin, or None for combinational cells.
    clock_pin: str | None = field(init=False, repr=False, compare=False)
    #: ``(input pin, arc to the output)`` for every data input that has a
    #: combinational arc, in ``input_pins`` order: what STA walks.
    input_arcs: tuple[tuple[str, TimingArc], ...] = field(
        init=False, repr=False, compare=False
    )
    #: The clock-to-output arc sequential cells launch through, or None.
    launch_arc: TimingArc | None = field(init=False, repr=False, compare=False)
    #: The first setup arc, or None (then ``setup_ns`` is the setup time).
    setup_arc: TimingArc | None = field(init=False, repr=False, compare=False)
    _worst_arc: TimingArc | None = field(init=False, repr=False, compare=False)
    _arc_map: dict[tuple[str, str], TimingArc] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.drive < 1:
            raise LibraryError(f"drive must be >= 1, got {self.drive}")
        if self.area_um2 <= 0:
            raise LibraryError(f"{self.name}: area must be positive")
        for arc in self.arcs:
            if arc.from_pin not in self.pins or arc.to_pin not in self.pins:
                raise LibraryError(
                    f"{self.name}: arc {arc.from_pin}->{arc.to_pin} references "
                    "unknown pins"
                )
        by_direction: dict[str, list[str]] = {
            "input": [], "output": [], "clock": []
        }
        for name, pin in self.pins.items():
            by_direction[pin.direction].append(name)
        if not by_direction["output"]:
            raise LibraryError(f"{self.name} has no output pin")
        if len(by_direction["output"]) > 1:
            # The timing graph follows each instance's one output net.
            raise LibraryError(f"{self.name} has more than one output pin")
        output_pin = by_direction["output"][0]
        clock_pin = by_direction["clock"][0] if by_direction["clock"] else None
        # The first combinational or clock-to-q arc per pin pair wins.
        arc_map: dict[tuple[str, str], TimingArc] = {}
        for arc in self.arcs:
            if arc.kind in ("combinational", "clk_to_q"):
                arc_map.setdefault((arc.to_pin, arc.from_pin), arc)
        input_pins = tuple(by_direction["input"])
        derived = {
            "is_sequential": self.function.is_sequential,
            "is_macro": self.function.is_macro,
            "input_pins": input_pins,
            "output_pin": output_pin,
            "clock_pin": clock_pin,
            "input_arcs": tuple(
                (pin, arc_map[(output_pin, pin)])
                for pin in input_pins
                if (output_pin, pin) in arc_map
            ),
            "launch_arc": (
                arc_map.get((output_pin, clock_pin)) if clock_pin else None
            ),
            "setup_arc": next(
                (arc for arc in self.arcs if arc.kind == "setup"), None
            ),
            "_worst_arc": _worst_arc_of(self.arcs),
            "_arc_map": arc_map,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def input_capacitance_ff(self, pin_name: str) -> float:
        """Capacitance of one input pin in fF."""
        try:
            return self.pins[pin_name].capacitance_ff
        except KeyError:
            raise LibraryError(f"{self.name} has no pin {pin_name!r}") from None

    def arc_to(self, to_pin: str, from_pin: str) -> TimingArc | None:
        """Find the combinational/clk-to-q arc from ``from_pin`` to ``to_pin``."""
        return self._arc_map.get((to_pin, from_pin))

    def worst_arc_to_output(self) -> TimingArc:
        """The arc with the largest mid-table delay, used for quick estimates."""
        if self._worst_arc is None:
            raise LibraryError(f"{self.name} has no timing arcs")
        return self._worst_arc


def _worst_arc_of(arcs: tuple[TimingArc, ...]) -> TimingArc | None:
    """The first non-setup arc with the largest mid-table delay."""
    best: TimingArc | None = None
    best_delay = -1.0
    for arc in arcs:
        if arc.kind == "setup":
            continue
        mid_slew = arc.delay.slew_axis[len(arc.delay.slew_axis) // 2]
        mid_load = arc.delay.load_axis[len(arc.delay.load_axis) // 2]
        d = arc.delay.lookup(mid_slew, mid_load)
        if d > best_delay:
            best, best_delay = arc, d
    return best
