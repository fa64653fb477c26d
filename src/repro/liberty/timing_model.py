"""NLDM-style two-dimensional timing lookup tables.

Commercial liberty files characterize each timing arc as a table of delay
(and output slew) indexed by input slew and output load.  We reproduce the
same abstraction: a :class:`TimingTable` holds a small grid of values and
answers queries by bilinear interpolation, extrapolating linearly at the
table edges exactly as signoff tools do.

The tables themselves are generated analytically by the library presets
(:mod:`repro.liberty.presets`) from a first-order RC model, but nothing in
the rest of the package knows that: the STA engine only ever sees tables.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.errors import LibraryError

__all__ = ["TimingTable", "linear_delay_table"]


@dataclass(frozen=True)
class TimingTable:
    """A 2-D lookup table indexed by (input slew, output load).

    Parameters
    ----------
    slew_axis:
        Monotonically increasing input-slew breakpoints in ns.
    load_axis:
        Monotonically increasing output-load breakpoints in fF.
    values:
        ``(len(slew_axis), len(load_axis))`` array of table values
        (delay or output slew, in ns).
    """

    slew_axis: tuple[float, ...]
    load_axis: tuple[float, ...]
    values: tuple[tuple[float, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        slews = np.asarray(self.slew_axis, dtype=float)
        loads = np.asarray(self.load_axis, dtype=float)
        grid = np.asarray(self.values, dtype=float)
        if slews.ndim != 1 or slews.size < 2:
            raise LibraryError("slew axis needs at least two breakpoints")
        if loads.ndim != 1 or loads.size < 2:
            raise LibraryError("load axis needs at least two breakpoints")
        if np.any(np.diff(slews) <= 0) or np.any(np.diff(loads) <= 0):
            raise LibraryError("table axes must be strictly increasing")
        if grid.shape != (slews.size, loads.size):
            raise LibraryError(
                f"table shape {grid.shape} does not match axes "
                f"({slews.size}, {loads.size})"
            )

    @property
    def slew_range(self) -> tuple[float, float]:
        """The characterized input-slew range (min, max) in ns."""
        return self.slew_axis[0], self.slew_axis[-1]

    @property
    def load_range(self) -> tuple[float, float]:
        """The characterized output-load range (min, max) in fF."""
        return self.load_axis[0], self.load_axis[-1]

    def covers_slew(self, slew_ns: float) -> bool:
        """Return True when ``slew_ns`` lies inside the characterized range.

        Section II-B of the paper requires heterogeneous library pairs to
        have "significant overlap in characterized slew ranges"; the flow
        uses this predicate to enforce that rule.
        """
        low, high = self.slew_range
        return low <= slew_ns <= high

    def _locate(self, slew_ns: float, load_ff: float) -> tuple[int, int, float, float]:
        """Segment indices and fractions of (slew, load) on the axes."""
        slews = self.slew_axis
        loads = self.load_axis

        i = bisect_left(slews, slew_ns) - 1
        if i < 0:
            i = 0
        elif i > len(slews) - 2:
            i = len(slews) - 2
        j = bisect_left(loads, load_ff) - 1
        if j < 0:
            j = 0
        elif j > len(loads) - 2:
            j = len(loads) - 2

        s0, s1 = slews[i], slews[i + 1]
        l0, l1 = loads[j], loads[j + 1]
        return i, j, (slew_ns - s0) / (s1 - s0), (load_ff - l0) / (l1 - l0)

    def _interpolate(self, i: int, j: int, ts: float, tl: float) -> float:
        row0 = self.values[i]
        row1 = self.values[i + 1]
        v00, v01 = row0[j], row0[j + 1]
        v10, v11 = row1[j], row1[j + 1]
        return float(
            v00 * (1 - ts) * (1 - tl)
            + v01 * (1 - ts) * tl
            + v10 * ts * (1 - tl)
            + v11 * ts * tl
        )

    def lookup(self, slew_ns: float, load_ff: float) -> float:
        """Bilinearly interpolate the table at (slew, load).

        Queries outside the characterized window are extrapolated from the
        nearest edge segment, which matches signoff-tool behaviour for
        mildly out-of-range slews.

        The interpolation runs on the stored tuples with :mod:`bisect`
        rather than numpy: the tables are tiny (a few breakpoints per
        axis) and this is the hottest leaf of the STA engine, where the
        per-call ``np.asarray`` conversions dominated.  The arithmetic is
        the same IEEE-double sequence as the numpy formulation, so results
        are bit-identical.
        """
        return self._interpolate(*self._locate(slew_ns, load_ff))

    def lookup_pair(
        self, other: "TimingTable", slew_ns: float, load_ff: float
    ) -> tuple[float, float]:
        """``(self.lookup(s, l), other.lookup(s, l))`` with one bisect.

        ``other`` must share both axes with this table (an arc's delay
        and output-slew tables always do).  This is every arc-memo miss
        of the delay calculator, so :meth:`_locate` and both
        :meth:`_interpolate` calls are written out in one body; each
        value is the same IEEE operations, in the same order, as its own
        :meth:`lookup`.
        """
        slews = self.slew_axis
        loads = self.load_axis
        i = bisect_left(slews, slew_ns) - 1
        if i < 0:
            i = 0
        elif i > len(slews) - 2:
            i = len(slews) - 2
        j = bisect_left(loads, load_ff) - 1
        if j < 0:
            j = 0
        elif j > len(loads) - 2:
            j = len(loads) - 2
        s0 = slews[i]
        l0 = loads[j]
        ts = (slew_ns - s0) / (slews[i + 1] - s0)
        tl = (load_ff - l0) / (loads[j + 1] - l0)
        us = 1 - ts
        ul = 1 - tl
        row0 = self.values[i]
        row1 = self.values[i + 1]
        first = float(
            row0[j] * us * ul + row0[j + 1] * us * tl
            + row1[j] * ts * ul + row1[j + 1] * ts * tl
        )
        row0 = other.values[i]
        row1 = other.values[i + 1]
        second = float(
            row0[j] * us * ul + row0[j + 1] * us * tl
            + row1[j] * ts * ul + row1[j + 1] * ts * tl
        )
        return first, second


def linear_delay_table(
    intrinsic_ns: float,
    resistance_kohm: float,
    slew_sensitivity: float,
    slew_axis: tuple[float, ...],
    load_axis: tuple[float, ...],
) -> TimingTable:
    """Build a table from the first-order model ``d = d0 + R*C + k*s_in``.

    The product of kOhm and fF is ps, hence the ``1e-3`` factor to ns.
    This is how the presets synthesize NLDM tables; downstream code only
    sees the resulting :class:`TimingTable`.
    """
    values = tuple(
        tuple(
            intrinsic_ns + resistance_kohm * load * 1e-3 + slew_sensitivity * slew
            for load in load_axis
        )
        for slew in slew_axis
    )
    return TimingTable(slew_axis=slew_axis, load_axis=load_axis, values=values)
