"""The 28 nm 9-track / 12-track library pair of the paper (Section IV-A).

The paper demonstrates heterogeneity with two multitrack variants of a
commercial foundry 28 nm node:

- **12-track** cells at 0.90 V on the bottom tier: fast, large, power hungry.
- **9-track** cells at 0.81 V on the top tier: ~25% smaller cell area,
  roughly 2x the stage delay, about half the dynamic power, and more than
  an order of magnitude less leakage (high-Vth-like behaviour at the lower
  supply).

We cannot ship the foundry tables, so this module synthesizes NLDM lookup
tables from a first-order RC model, calibrated so that the *relative*
numbers the paper's conclusions rest on are reproduced:

- FO-4 inverter delay ratio (slow/fast) ~= 1.8 (Table II),
- average loaded stage-delay ratio ~= 2.2 (Table VIII: 45 ps vs 19 ps),
- 9-track area = 0.75 x 12-track area (same width, 9 vs 12 tracks),
- 9-track leakage ~= 1/30 of 12-track (Table II: 0.003 uW vs 0.093 uW),
- dynamic energy ratio ~= 0.55 (Table II total power 2.00 uW vs 3.86 uW).

Both variants share the BEOL stack (wire parasitics are identical), which
is exactly the property that makes multitrack pairs the "best and simplest
option" for heterogeneous M3D per Section IV-D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.liberty.cells import (
    CellFunction,
    CellType,
    PinSpec,
    TimingArc,
    input_pin_names,
    output_pin_name,
)
from repro.liberty.library import StdCellLibrary
from repro.liberty.timing_model import TimingTable, linear_delay_table

__all__ = [
    "ProcessCorner",
    "TWELVE_TRACK_CORNER",
    "NINE_TRACK_CORNER",
    "make_twelve_track_library",
    "make_nine_track_library",
    "make_library_pair",
    "make_track_variant",
]

#: Characterized input-slew breakpoints (ns), shared by both libraries so
#: the slew-range-overlap rule of Section II-B holds by construction.
SLEW_AXIS: tuple[float, ...] = (0.002, 0.010, 0.050, 0.150, 0.400, 1.000)

#: Characterized output-load breakpoints (fF).
LOAD_AXIS: tuple[float, ...] = (0.5, 2.0, 8.0, 24.0, 64.0, 160.0)

#: Drive strengths offered for every combinational function.
DRIVES: tuple[int, ...] = (1, 2, 4, 8)

#: Base (12-track, x1) electrical parameters per function:
#: (intrinsic delay ns, drive resistance kOhm, input cap fF,
#:  internal energy pJ/toggle, leakage mW, width um)
_BASE_PARAMS: dict[CellFunction, tuple[float, float, float, float, float, float]] = {
    CellFunction.INV: (0.004, 3.0, 1.0, 0.0015, 2.0e-5, 0.4),
    CellFunction.BUF: (0.008, 2.8, 1.1, 0.0022, 2.6e-5, 0.6),
    CellFunction.CLKBUF: (0.007, 2.2, 1.3, 0.0030, 3.2e-5, 0.8),
    CellFunction.NAND2: (0.006, 3.6, 1.2, 0.0020, 3.0e-5, 0.6),
    CellFunction.NOR2: (0.007, 4.0, 1.2, 0.0020, 3.0e-5, 0.6),
    CellFunction.AND2: (0.009, 3.4, 1.2, 0.0024, 3.4e-5, 0.8),
    CellFunction.OR2: (0.010, 3.6, 1.2, 0.0024, 3.4e-5, 0.8),
    CellFunction.XOR2: (0.012, 4.2, 1.6, 0.0036, 4.5e-5, 1.2),
    CellFunction.XNOR2: (0.012, 4.2, 1.6, 0.0036, 4.5e-5, 1.2),
    CellFunction.MUX2: (0.011, 3.8, 1.4, 0.0032, 4.2e-5, 1.2),
    CellFunction.AOI21: (0.008, 4.0, 1.3, 0.0024, 3.6e-5, 1.0),
    CellFunction.OAI21: (0.008, 4.0, 1.3, 0.0024, 3.6e-5, 1.0),
    CellFunction.NAND3: (0.008, 4.2, 1.3, 0.0026, 3.8e-5, 0.9),
    CellFunction.NOR3: (0.009, 4.6, 1.3, 0.0026, 3.8e-5, 0.9),
    CellFunction.LEVEL_SHIFTER: (0.030, 3.5, 1.5, 0.0040, 5.0e-5, 1.4),
    CellFunction.DFF: (0.0, 3.2, 1.1, 0.0060, 8.0e-5, 2.4),
}

#: 12-track DFF sequential constants (ns).
_DFF_CLK_TO_Q = 0.055
_DFF_SETUP = 0.030

#: Memory macro parameters: the paper notes "the memories in the CPU design
#: are of the same size in both technology variants", so the macro is
#: deliberately corner-independent except for voltage bookkeeping.
_MEM_AREA_UM2 = 900.0
_MEM_ACCESS_NS = 0.250
_MEM_SETUP_NS = 0.050
_MEM_PIN_CAP_FF = 2.0
_MEM_ENERGY_PJ = 2.0
_MEM_LEAKAGE_MW = 0.02


@dataclass(frozen=True)
class ProcessCorner:
    """Scaling knobs that turn the base 12-track parameters into a variant."""

    name: str
    tracks: int
    vdd_v: float
    vth_v: float
    delay_scale: float
    cap_scale: float
    energy_scale: float
    leakage_scale: float

    @property
    def area_scale(self) -> float:
        """Cell area relative to 12-track (width constant, height in tracks)."""
        return self.tracks / 12.0


TWELVE_TRACK_CORNER = ProcessCorner(
    name="28nm_12T",
    tracks=12,
    vdd_v=0.90,
    vth_v=0.30,
    delay_scale=1.0,
    cap_scale=1.0,
    energy_scale=1.0,
    leakage_scale=1.0,
)

NINE_TRACK_CORNER = ProcessCorner(
    name="28nm_9T",
    tracks=9,
    vdd_v=0.81,
    vth_v=0.32,
    # Table II's FO-4 ratios (slow/fast) are 1.89 rise / 1.60 fall; loaded
    # stages land higher (Table VIII's 45 ps vs 19 ps includes fanout
    # asymmetry), so 1.8 on both intrinsic delay and drive resistance
    # reproduces the observable range.
    delay_scale=1.8,
    cap_scale=0.75,
    energy_scale=0.55,
    leakage_scale=1.0 / 30.0,
)


def _drive_width_factor(drive: int) -> float:
    """Cell width growth with drive strength (sub-linear: shared diffusion)."""
    return 0.6 + 0.4 * drive


def _make_combinational_cell(
    corner: ProcessCorner, function: CellFunction, drive: int
) -> CellType:
    d0, res, cin, energy, leak, width = _BASE_PARAMS[function]
    d0 *= corner.delay_scale
    res = res * corner.delay_scale / drive
    cin = cin * corner.cap_scale * drive
    energy = energy * corner.energy_scale * drive
    leak = leak * corner.leakage_scale * drive
    width = width * _drive_width_factor(drive)
    height = corner.tracks * 0.1

    out_pin = output_pin_name(function)
    pins: dict[str, PinSpec] = {out_pin: PinSpec(out_pin, "output")}
    arcs: list[TimingArc] = []
    delay_table = linear_delay_table(d0, res, 0.08, SLEW_AXIS, LOAD_AXIS)
    slew_table = linear_delay_table(1.2 * d0, 1.4 * res, 0.10, SLEW_AXIS, LOAD_AXIS)
    for i, pin_name in enumerate(input_pin_names(function)):
        pins[pin_name] = PinSpec(pin_name, "input", capacitance_ff=cin)
        # Later inputs of a stack are marginally slower arcs, as in real libs.
        skew = 1.0 + 0.05 * i
        arc_delay = delay_table if i == 0 else linear_delay_table(
            d0 * skew, res * skew, 0.08, SLEW_AXIS, LOAD_AXIS
        )
        arcs.append(TimingArc(pin_name, out_pin, arc_delay, slew_table))

    return CellType(
        name=f"{function.value}X{drive}_{corner.tracks}T",
        function=function,
        drive=drive,
        library_name=corner.name,
        area_um2=width * height,
        width_um=width,
        height_um=height,
        pins=pins,
        arcs=tuple(arcs),
        leakage_mw=leak,
        internal_energy_pj=energy,
        vdd_v=corner.vdd_v,
    )


def _make_dff_cell(corner: ProcessCorner, drive: int) -> CellType:
    _, res, cin, energy, leak, width = _BASE_PARAMS[CellFunction.DFF]
    res = res * corner.delay_scale / drive
    cin = cin * corner.cap_scale
    energy = energy * corner.energy_scale * drive
    leak = leak * corner.leakage_scale * drive
    width = width * _drive_width_factor(drive)
    height = corner.tracks * 0.1
    clk_to_q = _DFF_CLK_TO_Q * corner.delay_scale
    setup = _DFF_SETUP * corner.delay_scale

    pins = {
        "D": PinSpec("D", "input", capacitance_ff=cin),
        "CK": PinSpec("CK", "clock", capacitance_ff=0.8 * cin),
        "Q": PinSpec("Q", "output"),
    }
    delay_table = linear_delay_table(clk_to_q, res, 0.02, SLEW_AXIS, LOAD_AXIS)
    slew_table = linear_delay_table(
        1.2 * clk_to_q * 0.2, 1.4 * res, 0.05, SLEW_AXIS, LOAD_AXIS
    )
    setup_table = linear_delay_table(setup, 0.0, 0.15, SLEW_AXIS, LOAD_AXIS)
    arcs = (
        TimingArc("CK", "Q", delay_table, slew_table, kind="clk_to_q"),
        TimingArc("D", "Q", setup_table, slew_table, kind="setup"),
    )
    return CellType(
        name=f"DFFX{drive}_{corner.tracks}T",
        function=CellFunction.DFF,
        drive=drive,
        library_name=corner.name,
        area_um2=width * height,
        width_um=width,
        height_um=height,
        pins=pins,
        arcs=arcs,
        leakage_mw=leak,
        internal_energy_pj=energy,
        setup_ns=setup,
        clk_to_q_ns=clk_to_q,
        vdd_v=corner.vdd_v,
    )


def _make_memory_macro(corner: ProcessCorner) -> CellType:
    """A cache-style SRAM macro; size is corner-independent by design."""
    side = _MEM_AREA_UM2 ** 0.5
    pins = {
        "A": PinSpec("A", "input", capacitance_ff=_MEM_PIN_CAP_FF),
        "D": PinSpec("D", "input", capacitance_ff=_MEM_PIN_CAP_FF),
        "CK": PinSpec("CK", "clock", capacitance_ff=_MEM_PIN_CAP_FF),
        "Q": PinSpec("Q", "output"),
    }
    access = linear_delay_table(_MEM_ACCESS_NS, 0.5, 0.02, SLEW_AXIS, LOAD_AXIS)
    slew = linear_delay_table(0.02, 0.7, 0.05, SLEW_AXIS, LOAD_AXIS)
    setup = linear_delay_table(_MEM_SETUP_NS, 0.0, 0.15, SLEW_AXIS, LOAD_AXIS)
    arcs = (
        TimingArc("CK", "Q", access, slew, kind="clk_to_q"),
        TimingArc("A", "Q", setup, slew, kind="setup"),
        TimingArc("D", "Q", setup, slew, kind="setup"),
    )
    return CellType(
        name=f"SRAM_MACRO_{corner.tracks}T",
        function=CellFunction.MEMORY,
        drive=1,
        library_name=corner.name,
        area_um2=_MEM_AREA_UM2,
        width_um=side,
        height_um=side,
        pins=pins,
        arcs=arcs,
        leakage_mw=_MEM_LEAKAGE_MW,
        internal_energy_pj=_MEM_ENERGY_PJ,
        setup_ns=_MEM_SETUP_NS,
        clk_to_q_ns=_MEM_ACCESS_NS,
        vdd_v=corner.vdd_v,
    )


def _build_library(corner: ProcessCorner) -> StdCellLibrary:
    lib = StdCellLibrary(
        name=corner.name,
        tracks=corner.tracks,
        vdd_v=corner.vdd_v,
        vth_v=corner.vth_v,
    )
    for function in _BASE_PARAMS:
        if function is CellFunction.DFF:
            for drive in DRIVES:
                lib.add_cell(_make_dff_cell(corner, drive))
        elif function is CellFunction.CLKBUF:
            # Clock buffers come in larger drives for tree levels.
            for drive in (1, 2, 4, 8, 16):
                lib.add_cell(_make_combinational_cell(corner, function, drive))
        else:
            for drive in DRIVES:
                lib.add_cell(_make_combinational_cell(corner, function, drive))
    lib.add_cell(_make_memory_macro(corner))
    return lib


def make_twelve_track_library() -> StdCellLibrary:
    """The fast/large/power-hungry 12-track variant at 0.90 V."""
    return _build_library(TWELVE_TRACK_CORNER)


def make_nine_track_library() -> StdCellLibrary:
    """The slow/small/low-power 9-track variant at 0.81 V."""
    return _build_library(NINE_TRACK_CORNER)


@lru_cache(maxsize=None)
def make_library_pair() -> tuple[StdCellLibrary, StdCellLibrary]:
    """Return (12-track, 9-track) — the heterogeneous pair of the paper.

    Memoized: nothing mutates a preset after construction, so every
    caller shares one pair instead of re-synthesizing both libraries.
    """
    return make_twelve_track_library(), make_nine_track_library()


def make_track_variant(tracks: int, vdd_v: float | None = None) -> StdCellLibrary:
    """Synthesize an arbitrary multitrack variant of the 28 nm node.

    Section V: "choosing the right mix of technologies ... is currently
    done manually as metal track variants only, and more exploration is
    beneficial."  This constructor makes that exploration possible: any
    track height from 7 to 14 produces a self-consistent corner whose
    area, speed, capacitance, energy and leakage interpolate/extrapolate
    the calibrated 9-track and 12-track anchor points.

    ``vdd_v`` defaults to the same interpolation (0.81 V at 9 tracks,
    0.90 V at 12); pass an explicit value to explore voltage scaling
    separately.  The BEOL is shared with every other variant, so any two
    of these libraries are stackable (subject to the Section II-B
    voltage-compatibility rule).
    """
    if not 7 <= tracks <= 14:
        raise ValueError(f"track height {tracks} outside the modeled 7-14 range")
    # interpolation parameter: 0 at 9 tracks, 1 at 12 tracks
    t = (tracks - 9) / 3.0
    nine, twelve = NINE_TRACK_CORNER, TWELVE_TRACK_CORNER

    def lerp(a: float, b: float) -> float:
        return a + (b - a) * t

    # Delay falls with track height (wider devices); clamp the
    # extrapolation so very tall cells saturate rather than become free.
    delay = max(0.7, lerp(nine.delay_scale, twelve.delay_scale))
    # Leakage rises steeply with speed: interpolate in the log domain.
    import math

    log_leak = lerp(math.log(nine.leakage_scale), math.log(twelve.leakage_scale))
    vth = lerp(nine.vth_v, twelve.vth_v)
    nominal_vdd = lerp(nine.vdd_v, twelve.vdd_v)
    energy = lerp(nine.energy_scale, twelve.energy_scale)
    leakage = math.exp(log_leak)
    actual_vdd = nominal_vdd if vdd_v is None else vdd_v
    if vdd_v is not None and abs(vdd_v - nominal_vdd) > 1e-9:
        # Voltage scaling: alpha-power-law slowdown, quadratic dynamic
        # energy, roughly cubic leakage (DIBL + quadratic-ish V term).
        if vdd_v <= vth + 0.05:
            raise ValueError(
                f"vdd {vdd_v} too close to vth {vth:.2f} for this model"
            )
        overdrive_ratio = (nominal_vdd - vth) / (vdd_v - vth)
        delay = delay * overdrive_ratio**1.3
        energy = energy * (vdd_v / nominal_vdd) ** 2
        leakage = leakage * (vdd_v / nominal_vdd) ** 3
    corner = ProcessCorner(
        name=f"28nm_{tracks}T" + ("" if vdd_v is None else f"_{vdd_v:.2f}V"),
        tracks=tracks,
        vdd_v=actual_vdd,
        vth_v=vth,
        delay_scale=delay,
        cap_scale=lerp(nine.cap_scale, twelve.cap_scale),
        energy_scale=energy,
        leakage_scale=leakage,
    )
    return _build_library(corner)
