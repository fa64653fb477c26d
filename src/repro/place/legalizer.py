"""Row-based legalization, tier-aware and capacity-guaranteed.

Each tier is legalized independently against its own library's row pitch:
the 12-track tier has taller rows than the 9-track tier, which is what the
zoomed-in layouts of Fig. 3(c) show.  Memory macros (plus halo) are
blockages carved out of the rows.

The algorithm is a deterministic two-phase scheme that provably succeeds
whenever total cell width fits total row capacity (so the flows can pack
tiers to ~90% the way the paper's densities require):

1. **Row assignment**: cells sorted by global-placement ``y`` are dealt
   into rows bottom-up, each row taking cells until its free capacity is
   reached -- so vertical order (and hence neighborhood structure) is
   preserved and no row is over-subscribed.
2. **In-row packing**: within a row, cells sorted by ``x`` are distributed
   over the row's free segments by capacity, then packed left-to-right at
   ``max(wanted_x, previous_end)`` with a right-to-left pushback pass that
   resolves any overflow against the segment end (the single-row core of
   the Abacus legalizer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import PlacementError
from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Instance, Netlist
from repro.place.floorplan import Floorplan, MACRO_HALO

__all__ = ["LegalizeStats", "legalize", "row_capacity_um2"]

#: Keep a sliver of every row unfilled so x-packing has slack.
ROW_FILL_LIMIT = 0.985


def row_capacity_um2(
    floorplan: Floorplan, lib: StdCellLibrary, tier: int
) -> float:
    """Exact placeable area of one tier: free row width times pitch.

    Smaller than the smooth ``Floorplan.core_area_um2`` by the row-count
    remainder and macro-halo row rounding; area budgets must use this
    number or optimization can legally overfill the rows.
    """
    rows = _build_rows(floorplan, lib, tier)
    free = sum(s1 - s0 for _y, segs in rows for s0, s1 in segs)
    return free * lib.cell_height_um


@dataclass(frozen=True)
class LegalizeStats:
    """Quality metrics of one legalization pass."""

    cells: int
    total_displacement_um: float
    max_displacement_um: float


def _subtract(
    segments: list[tuple[float, float]], x0: float, x1: float
) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for s0, s1 in segments:
        if x1 <= s0 or x0 >= s1:
            out.append((s0, s1))
            continue
        if x0 > s0:
            out.append((s0, x0))
        if x1 < s1:
            out.append((x1, s1))
    return out


def _build_rows(
    floorplan: Floorplan, lib: StdCellLibrary, tier: int
) -> list[tuple[float, list[tuple[float, float]]]]:
    """Rows as (y, free segments), bottom-up, with macro blockages carved."""
    pitch = lib.cell_height_um
    n_rows = int(floorplan.height_um / pitch)
    if n_rows < 1:
        raise PlacementError("die shorter than one cell row")
    rows = []
    for r in range(n_rows):
        y = r * pitch
        free: list[tuple[float, float]] = [(0.0, floorplan.width_um)]
        for m in floorplan.macros:
            if m.tier != tier:
                continue
            halo_w = m.width_um * (1 + MACRO_HALO)
            halo_h = m.height_um * (1 + MACRO_HALO)
            if m.y_um < y + pitch and m.y_um + halo_h > y:
                free = _subtract(free, m.x_um, m.x_um + halo_w)
        rows.append((y, free))
    return rows


def _pack_segment(
    cells: list[Instance], seg: tuple[float, float]
) -> tuple[float, float]:
    """Pack cells (already x-sorted) into one free segment.

    Returns (total displacement in x, max displacement in x).  The caller
    guarantees the widths fit; a greedy left-to-right pass places each
    cell at ``max(want, prev_end)`` and a right-to-left pushback clamps
    against the segment end.
    """
    s0, s1 = seg
    xs: list[float] = []
    cursor = s0
    for inst in cells:
        x = max(inst.x_um, cursor)
        xs.append(x)
        cursor = x + inst.cell.width_um
    # Pushback against the right edge.  The clamped position must satisfy
    # x + w <= limit in *float* arithmetic, not just algebra: (limit - w)
    # + w can round 1 ulp above limit, and that dust would make re-packing
    # a legal row move cells -- packing has to be exactly idempotent for
    # incremental legalization to skip untouched rows byte-safely.
    limit = s1
    for i in range(len(cells) - 1, -1, -1):
        w = cells[i].cell.width_um
        if xs[i] + w > limit:
            x = limit - w
            while x + w > limit:
                x = math.nextafter(x, -math.inf)
            xs[i] = x
        limit = xs[i]
    if xs and xs[0] < s0 - 1e-6:
        raise PlacementError("segment over-subscribed during packing")
    total = 0.0
    worst = 0.0
    for inst, x in zip(cells, xs):
        d = abs(x - inst.x_um)
        total += d
        worst = max(worst, d)
        inst.x_um = x
    return total, worst


def _collect_cells(netlist: Netlist, tier: int) -> list[Instance]:
    """Movable standard cells of one tier, in netlist order."""
    return [
        inst
        for inst in netlist.instances.values()
        if inst.tier == tier and not inst.fixed and not inst.cell.is_macro
    ]


def _check_capacity(
    cells: list[Instance],
    rows: list[tuple[float, list[tuple[float, float]]]],
    tier: int,
) -> None:
    total_width = sum(i.cell.width_um for i in cells)
    capacity = sum(s1 - s0 for _y, segs in rows for s0, s1 in segs)
    if total_width > capacity * ROW_FILL_LIMIT:
        raise PlacementError(
            f"tier {tier} utilization too high: cell width {total_width:.0f}um "
            f"exceeds {ROW_FILL_LIMIT:.0%} of row capacity {capacity:.0f}um"
        )


def _best_fit_segment(used: list[float], caps: list[float], w: float) -> int:
    """Best-fit rule shared by row assignment and the split fallback: the
    fullest segment that still fits ``w`` (lowest index on ties), or -1.

    Both phases must apply the *same* rule in decreasing-width order:
    equal-width cells are interchangeable for capacity, so phase 2
    replaying the rule over a row's width multiset reproduces the
    feasible packing phase 1 accepted the cells under.
    """
    best = -1
    best_used = -1.0
    for si, cap in enumerate(caps):
        if used[si] + w <= cap + 1e-9 and used[si] > best_used:
            best = si
            best_used = used[si]
    return best


def _assign_rows(
    cells: list[Instance],
    rows: list[tuple[float, list[tuple[float, float]]]],
    pitch: float,
    tier: int,
) -> list[list[Instance]]:
    """Phase 1: best-fit-decreasing, segment-aware row assignment.

    Wide cells (macro-ish flip-flops, x8 drives) are placed first while
    every row still has room, then the narrow majority fills the gaps --
    classic decreasing-width bin packing, which comfortably succeeds at
    the ~93-95% fills the flows run at.  Each cell targets the row
    nearest its global-placement y.  Capacity is tracked per free
    *segment*, not per row total: a macro-split row only accepts a cell
    when one of its segments can actually hold it, so every accepted row
    has a feasible segment split by construction.  Pure function of the
    input positions: it never moves a cell, so re-running it on a
    legalized tier reproduces the same assignment (which is what makes
    incremental re-legalization byte-safe).
    """
    n_rows = len(rows)
    row_groups: list[list[Instance]] = [[] for _ in rows]
    row_caps = [[s1 - s0 for s0, s1 in segs] for _y, segs in rows]
    row_used = [[0.0] * len(caps) for caps in row_caps]
    ordered = sorted(
        cells, key=lambda i: (-i.cell.width_um, i.y_um, i.name)
    )
    for inst in ordered:
        w = inst.cell.width_um
        want = min(n_rows - 1, max(0, int(inst.y_um / pitch)))
        placed_row = -1
        for radius in range(n_rows):
            for r in (want - radius, want + radius):
                if not 0 <= r < n_rows:
                    continue
                si = _best_fit_segment(row_used[r], row_caps[r], w)
                if si >= 0:
                    placed_row = r
                    row_used[r][si] += w
                    break
            if placed_row >= 0:
                break
        if placed_row < 0:
            raise PlacementError(
                f"tier {tier}: no row can host {inst.name} "
                f"(width {inst.cell.width_um:.2f}um)"
            )
        row_groups[placed_row].append(inst)
    return row_groups


def _split_row(
    group: list[Instance],
    segs: list[tuple[float, float]],
    y: float,
    tier: int,
) -> list[list[Instance]]:
    """Distribute one row's cells (x-sorted) over its free segments.

    First pass keeps x order: each segment greedily takes the next cells
    while they fit its capacity *and* want to sit before the segment's
    end -- the position guard stops a cell already packed in a later
    segment from being pulled left into slack, which makes re-splitting
    a legal row a no-op (the idempotence incremental legalization relies
    on).  The greedy can still strand a wide cell whose turn arrives at
    a nearly-full segment even though another segment has room; in that
    case the row is re-split capacity-aware -- first-fit decreasing by
    width, each cell into the feasible segment nearest its wanted x --
    and only if that also fails is the row genuinely over-subscribed.
    """
    caps = [s1 - s0 for s0, s1 in segs]
    chunks: list[list[Instance]] = [[] for _ in segs]
    used = [0.0] * len(segs)
    remaining = list(group)
    for si, cap in enumerate(caps):
        seg_end = segs[si][1]
        while (
            remaining
            and used[si] + remaining[0].cell.width_um <= cap
            and remaining[0].x_um < seg_end
        ):
            inst = remaining.pop(0)
            chunks[si].append(inst)
            used[si] += inst.cell.width_um
    if remaining:
        chunks = [[] for _ in segs]
        used = [0.0] * len(segs)
        stranded = False
        for inst in sorted(
            group, key=lambda i: (-i.cell.width_um, i.x_um, i.name)
        ):
            w = inst.cell.width_um
            best = -1
            best_d = float("inf")
            for si, (s0, s1) in enumerate(segs):
                if used[si] + w > caps[si] + 1e-6:
                    continue
                if s0 <= inst.x_um <= s1 - w:
                    d = 0.0
                else:
                    d = min(abs(inst.x_um - s0), abs(inst.x_um - (s1 - w)))
                if d < best_d:
                    best_d = d
                    best = si
            if best < 0:
                stranded = True
                break
            chunks[best].append(inst)
            used[best] += w
        if stranded:
            # Last resort: replay row assignment's best-fit-decreasing
            # rule over the same width multiset.  Phase 1 accepted these
            # cells under exactly this rule, so it succeeds whenever the
            # row intake was segment-feasible; a failure here means the
            # row is genuinely over-subscribed.
            chunks = [[] for _ in segs]
            used = [0.0] * len(segs)
            for inst in sorted(
                group, key=lambda i: (-i.cell.width_um, i.x_um, i.name)
            ):
                w = inst.cell.width_um
                si = _best_fit_segment(used, caps, w)
                if si < 0:
                    raise PlacementError(
                        f"tier {tier}: row at y={y:.1f} over-subscribed"
                    )
                chunks[si].append(inst)
                used[si] += w
        for chunk in chunks:
            chunk.sort(key=lambda i: (i.x_um, i.name))
    return chunks


def _legalize_row(
    y: float,
    segs: list[tuple[float, float]],
    group: list[Instance],
    tier: int,
) -> tuple[float, float]:
    """Phase 2 for one row: snap to the row y, split over segments, pack.

    Returns (total displacement, max displacement) over |dy| and |dx|.
    Idempotent: packing a row that is already legal moves nothing and
    contributes exactly 0.0 displacement.
    """
    group = sorted(group, key=lambda i: (i.x_um, i.name))
    total_disp = 0.0
    max_disp = 0.0
    for inst in group:
        total_disp += abs(y - inst.y_um)
        max_disp = max(max_disp, abs(y - inst.y_um))
        inst.y_um = y
    for chunk, seg in zip(_split_row(group, segs, y, tier), segs):
        if not chunk:
            continue
        t, w = _pack_segment(chunk, seg)
        total_disp += t
        max_disp = max(max_disp, w)
    return total_disp, max_disp


def legalize(
    netlist: Netlist,
    floorplan: Floorplan,
    lib: StdCellLibrary,
    tier: int,
) -> LegalizeStats:
    """Legalize all movable standard cells of one tier.

    Raises :class:`PlacementError` when total cell width genuinely exceeds
    row capacity (the flows use this as the utilization-failure signal).
    """
    rows = _build_rows(floorplan, lib, tier)
    cells = _collect_cells(netlist, tier)
    if not cells:
        return LegalizeStats(cells=0, total_displacement_um=0.0, max_displacement_um=0.0)
    for inst in cells:
        if not inst.is_placed:
            raise PlacementError(f"{inst.name} has no global placement")
    _check_capacity(cells, rows, tier)

    row_groups = _assign_rows(cells, rows, lib.cell_height_um, tier)

    total_disp = 0.0
    max_disp = 0.0
    for (y, segs), group in zip(rows, row_groups):
        if not group:
            continue
        t, w = _legalize_row(y, segs, group, tier)
        total_disp += t
        max_disp = max(max_disp, w)

    return LegalizeStats(
        cells=len(cells),
        total_displacement_um=total_disp,
        max_displacement_um=max_disp,
    )
