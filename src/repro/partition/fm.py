"""Fiduccia-Mattheyses min-cut bipartitioning with area balancing.

A textbook FM implementation over a generic hypergraph, with two
extensions the heterogeneous flow needs:

- **fixed terminals**: cells pinned to a side (timing-critical cells on
  the fast die, macros, or out-of-bin terminals during bin-based FM)
  participate in gain computation but never move;
- **side-dependent areas**: when a cell moves to the top tier it will be
  remapped to the 9-track library and shrink by ~25%, so balance is
  evaluated with per-side area vectors (``area_side0`` / ``area_side1``).

Gains use the standard F/T rule and a lazy-deletion heap stands in for
the classic bucket list (equivalent behaviour, simpler in Python).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import PartitionError

__all__ = ["FMResult", "fm_bipartition"]

#: Most FM passes one bipartition runs.
MAX_PASSES = 6


@dataclass
class FMResult:
    """Outcome of one FM run."""

    assignment: dict[str, int]
    cut_size: int
    passes: int
    area: tuple[float, float]

    def side(self, cell: str) -> int:
        """Side (0/1) of a cell."""
        return self.assignment[cell]


def fm_bipartition(
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
    """Refine ``initial`` into a balanced min-cut bipartition.

    Parameters
    ----------
    cells:
        All cell names (movable and fixed).
    nets:
        Hyperedges as lists of cell names; names not in ``cells`` are
        ignored (callers prune to the local subproblem).
    area_side0 / area_side1:
        The area each cell would occupy on each side.
    initial:
        Starting side per cell; must satisfy the balance bound.
    fixed:
        Cells that must not move.
    balance_tolerance:
        Each side's area must stay within ``tolerance`` of the target
        share of the total (areas measured in the side's own metric).
    balance_target:
        Side 0's target share of the total area (0.5 = even split); the
        bin-based partitioner uses this to correct accumulated global
        imbalance bin by bin.

    Returns the best assignment found over up to :data:`MAX_PASSES`
    passes, stopping early when a pass yields no improvement.
    """
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
