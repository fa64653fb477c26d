"""The standard-cell library container and cross-library remapping.

A :class:`StdCellLibrary` owns a family of :class:`~repro.liberty.cells.CellType`
objects sharing one process corner: track height, supply voltage, threshold
voltage, and cost attributes.  The heterogeneous flow manipulates *pairs* of
libraries (9-track and 12-track variants of the same node) and needs to map
a cell of one library onto the equivalent cell of the other; that mapping is
:meth:`StdCellLibrary.equivalent_of`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LibraryError
from repro.liberty.cells import CellFunction, CellType

__all__ = ["StdCellLibrary"]


@dataclass
class StdCellLibrary:
    """A family of standard cells at one process/voltage corner.

    Attributes
    ----------
    name:
        Library identifier, e.g. ``"28nm_12T"``.
    tracks:
        Cell height in horizontal M1 routing tracks (paper: 9 vs 12).
    vdd_v:
        Nominal supply voltage.
    vth_v:
        Representative device threshold voltage (used by the boundary-cell
        voltage-margin rule of Section II-B).
    track_pitch_um:
        M1 track pitch; cell height is ``tracks * track_pitch_um``.
    wire_r_kohm_per_um / wire_c_ff_per_um:
        BEOL wire parasitics per micron (shared between track variants of
        the same node, which is what makes them stackable).
    miv_r_kohm / miv_c_ff:
        Monolithic inter-tier via parasitics.
    """

    name: str
    tracks: int
    vdd_v: float
    vth_v: float
    track_pitch_um: float = 0.1
    wire_r_kohm_per_um: float = 0.004
    wire_c_ff_per_um: float = 0.20
    miv_r_kohm: float = 0.05
    miv_c_ff: float = 0.1
    _cells: dict[str, CellType] = field(default_factory=dict, repr=False)
    _by_function: dict[CellFunction, dict[int, CellType]] = field(
        default_factory=dict, repr=False
    )
    #: Each function's drives, ascending: kept by :meth:`add_cell` and
    #: rebuilt from ``_by_function`` on construction.
    _drives: dict[CellFunction, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._drives = {
            function: tuple(sorted(drives))
            for function, drives in self._by_function.items()
        }

    def add_cell(self, cell: CellType) -> None:
        """Register a cell type; name and (function, drive) must be unique."""
        if cell.name in self._cells:
            raise LibraryError(f"duplicate cell name {cell.name!r}")
        drives = self._by_function.setdefault(cell.function, {})
        if cell.drive in drives:
            raise LibraryError(
                f"duplicate ({cell.function.value}, x{cell.drive}) in {self.name}"
            )
        self._cells[cell.name] = cell
        drives[cell.drive] = cell
        self._drives[cell.function] = tuple(sorted(drives))

    @property
    def cell_height_um(self) -> float:
        """Standard cell row height in microns."""
        return self.tracks * self.track_pitch_um

    @property
    def cells(self) -> tuple[CellType, ...]:
        """All registered cell types."""
        return tuple(self._cells.values())

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def cell(self, name: str) -> CellType:
        """Look up a cell type by library name."""
        try:
            return self._cells[name]
        except KeyError:
            raise LibraryError(f"{self.name} has no cell {name!r}") from None

    def get(self, function: CellFunction, drive: int = 1) -> CellType:
        """Look up a cell by function and drive strength."""
        try:
            return self._by_function[function][drive]
        except KeyError:
            raise LibraryError(
                f"{self.name} has no {function.value} at drive x{drive}"
            ) from None

    def drives_for(self, function: CellFunction) -> tuple[int, ...]:
        """Available drive strengths for a function, ascending."""
        drives = self._drives.get(function)
        if not drives:
            raise LibraryError(f"{self.name} has no {function.value} cells")
        return drives

    def upsize(self, cell: CellType) -> CellType | None:
        """The next-stronger drive of the same function, or None at the top."""
        drives = self.drives_for(cell.function)
        stronger = [d for d in drives if d > cell.drive]
        if not stronger:
            return None
        return self.get(cell.function, min(stronger))

    def downsize(self, cell: CellType) -> CellType | None:
        """The next-weaker drive of the same function, or None at the bottom."""
        drives = self.drives_for(cell.function)
        weaker = [d for d in drives if d < cell.drive]
        if not weaker:
            return None
        return self.get(cell.function, max(weaker))

    def equivalent_of(self, cell: CellType) -> CellType:
        """Map a cell from another library onto this library.

        Same function at the same drive when available, otherwise the
        closest available drive.  This is the remapping the heterogeneous
        flow performs when it moves a cell between tiers.
        """
        drives = self.drives_for(cell.function)
        if cell.drive in drives:
            return self.get(cell.function, cell.drive)
        closest = min(drives, key=lambda d: abs(d - cell.drive))
        return self.get(cell.function, closest)

    def voltage_compatible_with(self, other: StdCellLibrary) -> bool:
        """Check the Section II-B rule ``V_DDH - V_DDL < 0.3 * V_DDH``.

        When it holds (and the threshold voltage exceeds the difference),
        signals can cross tiers without level shifters.
        """
        vddh = max(self.vdd_v, other.vdd_v)
        vddl = min(self.vdd_v, other.vdd_v)
        diff = vddh - vddl
        margin_ok = diff < 0.3 * vddh
        vth_ok = min(self.vth_v, other.vth_v) > diff
        return margin_ok and vth_ok

    def slew_ranges_overlap(self, other: StdCellLibrary) -> bool:
        """Check the characterized-slew-overlap rule of Section II-B.

        Heterogeneous integration requires the two libraries' characterized
        input-slew windows to overlap substantially so that boundary-cell
        slews remain inside both tables.
        """
        ranges = []
        for lib in (self, other):
            arc = lib.get(CellFunction.INV, 1).worst_arc_to_output()
            ranges.append(arc.delay.slew_range)
        low = max(r[0] for r in ranges)
        high = min(r[1] for r in ranges)
        if high <= low:
            return False
        widths = [r[1] - r[0] for r in ranges]
        return (high - low) >= 0.5 * min(widths)
