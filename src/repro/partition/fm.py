"""Fiduccia-Mattheyses min-cut bipartitioning with area balancing.

One kernel, :class:`FMGraph`, refines a bipartition of cells numbered
``0 .. n-1``: a net is a list of cell ids, areas and sides are lists
indexed by id, and gains are integers kept per cell.  It carries two
extensions the heterogeneous flow needs:

- **fixed cells and terminals**: cells pinned to a side (timing-critical
  cells on the fast die, macro blockers) count toward gains and balance
  but never move.  A net's *terminals*, its members outside the
  subproblem (the out-of-bin owners of bin-based FM), enter as a fixed
  count per side and need no cell of their own;
- **side-dependent areas**: when a cell moves to the top tier it will be
  remapped to the 9-track library and shrink by ~25%, so balance is
  evaluated with per-side area vectors (``area0`` / ``area1``).

Gains follow the standard F/T rule.  A lazy-deletion heap keyed by
(-gain, rank of the cell's name) stands in for the classic bucket list,
so equal gains pop in name order.  A move updates gains only on the nets
where it changes a side count that matters (from-count 1 or 2, to-count
0 or 1), and re-pushes a cell only when its gain ends up changed.
:func:`fm_bipartition` is the name-keyed entry point over this kernel;
:mod:`repro.partition.bins` builds one :class:`FMGraph` per bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import not_

from repro.errors import PartitionError

__all__ = ["FMGraph", "FMResult", "fm_bipartition"]

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


def side_areas(
    area0: list[float], area1: list[float], side: list[int]
) -> tuple[float, float]:
    """Area on each side, each measured in its own metric, summed in id
    order."""
    return sum(compress(area0, map(not_, side))), sum(compress(area1, side))


class FMGraph:
    """The static half of an FM problem over cell ids ``0 .. n-1``.

    ``pins`` lists each net's cell ids (a cell named twice counts twice);
    ``fixed`` marks the cells that never move; ``names`` only fixes the
    tie-break among equal gains.  Built once, a graph refines any number
    of starting sides and terminal counts: bin-based FM reruns each bin
    once per sweep.
    """

    __slots__ = ("pins", "nets_of", "area0", "area1", "fixed", "movable",
                 "rank", "by_rank")

    def __init__(
        self,
        pins: list[list[int]],
        area0: list[float],
        area1: list[float],
        fixed: list[bool],
        names: list[str],
    ) -> None:
        n = len(names)
        self.pins = pins
        self.area0 = area0
        self.area1 = area1
        self.fixed = fixed
        self.movable = [c for c in range(n) if not fixed[c]]
        nets_of: list[list[int]] = [[] for _ in range(n)]
        for net, members in enumerate(pins):
            for c in members:
                nets_of[c].append(net)
        self.nets_of = nets_of
        self.by_rank = sorted(range(n), key=names.__getitem__)
        rank = [0] * n
        for r, c in enumerate(self.by_rank):
            rank[c] = r
        self.rank = rank

    def refine(
        self,
        side: list[int],
        fixed0: list[int],
        fixed1: list[int],
        balance_tolerance: float,
        balance_target: float,
    ) -> tuple[list[int], int, int]:
        """Refine ``side`` into a balanced min-cut bipartition.

        ``fixed0`` / ``fixed1`` count each net's terminals on either
        side.  Returns the best sides found, their cut and the number of
        passes run: up to :data:`MAX_PASSES`, stopping early when a pass
        yields no improvement.  ``side`` itself is not modified.
        """
        pins, nets_of = self.pins, self.nets_of
        area0, area1 = self.area0, self.area1
        rank, by_rank, movable = self.rank, self.by_rank, self.movable
        n = len(rank)
        side = list(side)
        # Total area is evaluated symmetrically: each side uses its own metric.
        total = sum([area1[c] if side[c] else area0[c] for c in range(n)])
        if total <= 0:
            raise PartitionError("zero total area")
        # The classic FM balance criterion must always admit moving the
        # largest movable cell, or a perfectly balanced start would freeze
        # solid.
        max_cell = (
            max([max(area0[c], area1[c]) for c in movable])
            if movable else 0.0
        )
        balance_tolerance = max(balance_tolerance, max_cell / total + 1e-9)
        low = balance_target - balance_tolerance
        high = balance_target + balance_tolerance

        # Per-net side counts, built once; every move (and rollback)
        # updates them in O(pins(cell)), carrying the cut size along so
        # no pass ever rescans the whole net list.
        count0 = list(fixed0)
        count1 = list(fixed1)
        for net, members in enumerate(pins):
            for c in members:
                if side[c]:
                    count1[net] += 1
                else:
                    count0[net] += 1
        counts = (count0, count1)
        cut = sum([1 for c0, c1 in zip(count0, count1) if c0 and c1])

        best = side[:]
        best_cut = cut
        passes = 0
        for passes in range(1, MAX_PASSES + 1):
            a0, a1 = side_areas(area0, area1, side)
            locked = self.fixed[:]
            gain = [0] * n
            # One int per entry, -gain * n + rank: ordered as (-gain, name).
            heap = []
            for c in movable:
                s = side[c]
                here = counts[s]
                there = counts[1 - s]
                g = 0
                for net in nets_of[c]:
                    if here[net] == 1:
                        g += 1
                    if there[net] == 0:
                        g -= 1
                gain[c] = g
                heap.append(rank[c] - g * n)
            heapify(heap)

            moved: list[int] = []
            cum = best_prefix = best_prefix_gain = 0
            while heap:
                key = heappop(heap)
                c = by_rank[key % n]
                g = -(key // n)
                if locked[c] or gain[c] != g:
                    continue
                locked[c] = True
                s = side[c]
                # balance check with side-dependent areas
                if s:
                    new0 = a0 + area0[c]
                    new1 = a1 - area1[c]
                else:
                    new0 = a0 - area0[c]
                    new1 = a1 + area1[c]
                new_total = new0 + new1
                if not new_total * low <= new0 <= new_total * high:
                    continue
                # commit tentative move
                cum += g
                a0, a1 = new0, new1
                moved.append(c)
                if cum > best_prefix_gain:
                    best_prefix_gain = cum
                    best_prefix = len(moved)
                # Shift one pin of ``c`` per net occurrence; only nets
                # whose from-count was 1 or 2 or to-count 0 or 1 change
                # a neighbour's gain.
                here = counts[s]
                there = counts[1 - s]
                before: dict[int, int] = {}
                for net in nets_of[c]:
                    f = here[net]
                    t = there[net]
                    here[net] = f - 1
                    there[net] = t + 1
                    cut += (f > 1) - (t > 0)
                    if f > 2 and t > 1:
                        continue
                    d_here = (f == 2) - (f == 1) + (t == 0)
                    d_there = (t == 0) - (t == 1) - (f == 1)
                    if d_here or d_there:
                        for o in pins[net]:
                            if not locked[o]:
                                if o not in before:
                                    before[o] = gain[o]
                                gain[o] += d_here if side[o] == s else d_there
                side[c] = 1 - s
                for o, old in before.items():
                    g = gain[o]
                    if g != old:
                        heappush(heap, rank[o] - g * n)

            # roll back moves beyond the best prefix (counts/cut follow along)
            for c in moved[best_prefix:]:
                s = side[c]
                here = counts[s]
                there = counts[1 - s]
                for net in nets_of[c]:
                    f = here[net]
                    t = there[net]
                    here[net] = f - 1
                    there[net] = t + 1
                    cut += (f > 1) - (t > 0)
                side[c] = 1 - s

            if cut < best_cut:
                best_cut = cut
                best = side[:]
            if best_prefix_gain <= 0:
                break
            side = best[:]
        return best, best_cut, passes


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
    passes, stopping early when a pass yields no improvement.  Cells are
    numbered in ``cells`` order and refined by :class:`FMGraph`.
    """
    fixed = fixed or set()
    if not cells:
        raise PartitionError("nothing to partition")
    index = {c: i for i, c in enumerate(cells)}
    if len(index) != len(cells):
        raise PartitionError("duplicate cell names")
    for c in cells:
        if c not in initial:
            raise PartitionError(f"no initial side for {c!r}")

    pins = []
    for net in nets:
        members = [index[c] for c in net if c in index]
        if len(members) >= 2:
            pins.append(members)
    area0 = [area_side0[c] for c in cells]
    area1 = [area_side1[c] for c in cells]
    graph = FMGraph(pins, area0, area1, [c in fixed for c in cells], cells)
    no_terminals = [0] * len(pins)
    side, cut, passes = graph.refine(
        [initial[c] for c in cells], no_terminals, no_terminals,
        balance_tolerance, balance_target,
    )
    assignment = dict(initial)
    assignment.update(zip(cells, side))
    return FMResult(
        assignment=assignment, cut_size=cut, passes=passes,
        area=side_areas(area0, area1, side),
    )
