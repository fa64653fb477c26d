"""Incremental placement sessions: reuse across optimizer edits.

The optimization loops (sizing, cloning, buffering, the repartition ECO)
edit a handful of cells per move but historically paid for full-design
re-legalization and congestion re-analysis at every stage boundary.  A
:class:`PlacementSession` is the placement analogue of
:class:`repro.timing.incremental.TimingSession`: a long-lived facade
bound to one (netlist, floorplan) pair that keeps legalization, per-net
HPWL, and the congestion map consistent across edits by recomputing only
what an edit disturbed.

Three reuse layers
------------------

1. **Localized re-legalization.**  Phase 1 of the legalizer (FFD row
   assignment) is a pure function of cell positions and is always
   re-run -- it is cheap and deterministic.  The session diffs the
   resulting per-row membership against the previous legalize and
   re-packs only the rows whose membership changed plus the rows holding
   explicitly dirtied cells; spill to neighbor rows is exactly the FFD
   reassignment showing up in the diff.  Untouched rows are already
   legal and packing is idempotent, so skipping them changes nothing --
   results are *byte-identical* to a full pass, which CI enforces.

2. **Incremental analysis.**  Per-net congestion L-route strip records
   are cached, and so are per-net HPWL values once :meth:`hpwl_um` is
   first asked for; an edit recomputes only the nets touching dirty
   cells.  The congestion grid is rebuilt by replaying every cached
   record in net order into one flat list of floats -- the same
   additions in the same order as the from-scratch map.

3. **Kill switch and telemetry.**  ``REPRO_PLACE=full`` disables all
   reuse (the CI equivalence mode); ``full_fraction`` (default 0.35)
   is the disturbed-cell fraction past which the session falls back to
   a full pass.  ``place_full_runs`` / ``place_incremental_runs``
   / ``place_disturbed_fraction`` span metrics record what actually ran.

Flow edits are reported by the design's
:class:`~repro.flow.design.EditJournal`, through :meth:`dirty_cell`
(cell resized, re-tiered or added) and :meth:`dirty_net` (net
rewired); the membership diff additionally catches tier and
fixed/movable membership changes on its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import PlacementError
from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Netlist
from repro.obs import emit_metric, span
from repro.obs.metrics import net_hpwl_um
from repro.place.floorplan import Floorplan, port_ring
from repro.place.legalizer import (
    LegalizeStats,
    _assign_rows,
    _build_rows,
    _check_capacity,
    _collect_cells,
    _legalize_row,
    legalize,
)
from repro.route.congestion import (
    CongestionMap,
    _accumulate,
    _bin_capacity,
    _net_strips,
    analyze_congestion,
)

__all__ = [
    "DEFAULT_FULL_FRACTION",
    "PlaceSessionStats",
    "PlacementSession",
    "full_place_forced",
]

DEFAULT_FULL_FRACTION = 0.35


def full_place_forced() -> bool:
    """True when ``REPRO_PLACE=full`` disables incremental updates."""
    return os.environ.get("REPRO_PLACE", "").strip().lower() == "full"


@dataclass
class PlaceSessionStats:
    """Counters describing how much work the session reused."""

    full_runs: int = 0
    incremental_runs: int = 0
    rows_repacked: int = 0
    rows_total: int = 0
    nets_refreshed: int = 0
    last_disturbed_fraction: float = 0.0

    @property
    def runs(self) -> int:
        return self.full_runs + self.incremental_runs


class PlacementSession:
    """Keep legalization and placement analysis current across edits.

    Bound to one netlist and one floorplan; the flows create a fresh
    session whenever the floorplan changes (utilization backoff re-places
    everything anyway).  All queries are byte-identical to their
    from-scratch equivalents -- ``legalize_all`` to per-tier
    :func:`~repro.place.legalizer.legalize`, ``hpwl_um`` to
    :func:`repro.obs.metrics.hpwl_um`, and ``congestion`` to
    :func:`~repro.route.congestion.analyze_congestion` -- regardless of
    how many edits were applied in between.
    """

    def __init__(
        self,
        netlist: Netlist,
        floorplan: Floorplan,
        tier_libs: dict[int, StdCellLibrary],
        *,
        bins: int = 16,
        full_fraction: float = DEFAULT_FULL_FRACTION,
        force_full: bool | None = None,
    ) -> None:
        self.netlist = netlist
        self.floorplan = floorplan
        self.tier_libs = dict(tier_libs)
        self.bins = bins
        self.full_fraction = full_fraction
        self._force_full = force_full
        self.stats = PlaceSessionStats()
        #: Cells whose position the most recent ``legalize_all`` changed,
        #: plus, after an incremental pass, the cells dirtied before it.
        self.last_moved: set[str] = set()
        # --- legalization state ---
        self._legal_cold = True
        self._dirty_cells: set[str] = set()
        self._rows: dict[int, list] = {}
        self._assign: dict[int, dict[str, int]] = {}
        # --- analysis state ---
        self._analysis_cold = True
        self._analysis_dirty_cells: set[str] = set()
        self._analysis_dirty_nets: set[str] = set()
        #: Per-net HPWL, filled by the first hpwl_um() after a cold sync.
        self._hpwl_cache: dict[str, float] | None = None
        self._strips: dict[str, tuple | None] = {}
        self._pads: dict[str, tuple[float, float]] | None = None

    # ------------------------------------------------------------------
    # invalidation contract
    # ------------------------------------------------------------------
    def dirty_cell(self, name: str) -> None:
        """Mark one instance as moved/resized/re-tiered since last sync."""
        self._dirty_cells.add(name)
        self._analysis_dirty_cells.add(name)

    def dirty_net(self, name: str) -> None:
        """Mark one net's analysis stale (e.g. sinks rerouted)."""
        self._analysis_dirty_nets.add(name)

    def invalidate_all(self) -> None:
        """Drop every cache; the next queries recompute from scratch."""
        self._legal_cold = True
        self._analysis_cold = True
        self._dirty_cells.clear()
        self._analysis_dirty_cells.clear()
        self._analysis_dirty_nets.clear()
        self.last_moved = set()

    def _full_mode(self) -> bool:
        if self._force_full is not None:
            return self._force_full
        return full_place_forced()

    # ------------------------------------------------------------------
    # legalization
    # ------------------------------------------------------------------
    def legalize_all(self) -> dict[int, LegalizeStats]:
        """Legalize every tier, incrementally when little was disturbed."""
        movable = sum(
            1
            for inst in self.netlist.instances.values()
            if not inst.fixed
            and not inst.cell.is_macro
            and inst.tier in self.tier_libs
        )
        if self._legal_cold:
            fraction = 1.0
        else:
            fraction = len(self._dirty_cells) / max(1, movable)
        self.stats.last_disturbed_fraction = fraction
        if self._full_mode() or self._legal_cold or fraction > self.full_fraction:
            stats = self._legalize_full()
        else:
            stats = self._legalize_incremental()
        emit_metric("place_full_runs", self.stats.full_runs)
        emit_metric("place_incremental_runs", self.stats.incremental_runs)
        emit_metric("place_disturbed_fraction", fraction)
        return stats

    def _rows_for(self, tier: int, lib: StdCellLibrary) -> list:
        rows = self._rows.get(tier)
        if rows is None:
            rows = self._rows[tier] = _build_rows(self.floorplan, lib, tier)
        return rows

    def _legalize_full(self) -> dict[int, LegalizeStats]:
        self.stats.full_runs += 1
        instances = self.netlist.instances
        before = {
            name: (inst.x_um, inst.y_um) for name, inst in instances.items()
        }
        stats: dict[int, LegalizeStats] = {}
        for tier, lib in self.tier_libs.items():
            stats[tier] = legalize(self.netlist, self.floorplan, lib, tier)
            pitch = lib.cell_height_um
            self._assign[tier] = {
                inst.name: int(round(inst.y_um / pitch))
                for inst in _collect_cells(self.netlist, tier)
            }
        self._legal_cold = False
        self._dirty_cells.clear()
        self.last_moved = {
            name
            for name, inst in instances.items()
            if before[name] != (inst.x_um, inst.y_um)
        }
        # A full pass may have moved anything: analysis must resync fully.
        self._analysis_cold = True
        return stats

    def _legalize_incremental(self) -> dict[int, LegalizeStats]:
        self.stats.incremental_runs += 1
        moved: set[str] = set()
        stats: dict[int, LegalizeStats] = {}
        for tier, lib in self.tier_libs.items():
            stats[tier] = self._legalize_tier(tier, lib, moved)
        moved |= self._dirty_cells
        self._dirty_cells = set()
        self.last_moved = moved
        self._analysis_dirty_cells |= moved
        return stats

    def _legalize_tier(
        self, tier: int, lib: StdCellLibrary, moved: set[str]
    ) -> LegalizeStats:
        rows = self._rows_for(tier, lib)
        cells = _collect_cells(self.netlist, tier)
        if not cells:
            self._assign[tier] = {}
            return LegalizeStats(
                cells=0, total_displacement_um=0.0, max_displacement_um=0.0
            )
        for inst in cells:
            if not inst.is_placed:
                raise PlacementError(f"{inst.name} has no global placement")
        _check_capacity(cells, rows, tier)

        row_groups = _assign_rows(cells, rows, lib.cell_height_um, tier)
        new_assign: dict[str, int] = {}
        for r, group in enumerate(row_groups):
            for inst in group:
                new_assign[inst.name] = r

        old_assign = self._assign.get(tier)
        touched: set[int] = set()
        if old_assign is None:
            touched = {r for r, g in enumerate(row_groups) if g}
        else:
            for name, r in new_assign.items():
                ro = old_assign.get(name)
                if ro is None:
                    touched.add(r)  # joined the tier
                elif ro != r:
                    touched.add(r)  # moved rows: repack both ends
                    touched.add(ro)
            for name, ro in old_assign.items():
                if name not in new_assign:
                    touched.add(ro)  # left the tier
            for name in self._dirty_cells:
                r = new_assign.get(name)
                if r is not None:
                    touched.add(r)

        total_disp = 0.0
        max_disp = 0.0
        for r in sorted(touched):
            if r < 0 or r >= len(rows):
                continue
            group = row_groups[r]
            if not group:
                continue
            y, segs = rows[r]
            before = [(inst.x_um, inst.y_um) for inst in group]
            t, w = _legalize_row(y, segs, group, tier)
            total_disp += t
            max_disp = max(max_disp, w)
            self.stats.rows_repacked += 1
            moved.update(
                inst.name
                for inst, pos in zip(group, before)
                if (inst.x_um, inst.y_um) != pos
            )
        self.stats.rows_total += sum(1 for g in row_groups if g)

        self._assign[tier] = new_assign
        return LegalizeStats(
            cells=len(cells),
            total_displacement_um=total_disp,
            max_displacement_um=max_disp,
        )

    # ------------------------------------------------------------------
    # analysis: HPWL + congestion
    # ------------------------------------------------------------------
    def _bin_dims(self) -> tuple[float, float]:
        return (
            self.floorplan.width_um / self.bins,
            self.floorplan.height_um / self.bins,
        )

    def _pad_ring(self) -> dict[str, tuple[float, float]]:
        if self._pads is None:
            self._pads = port_ring(
                self.netlist, self.floorplan.width_um, self.floorplan.height_um
            )
        return self._pads

    def _refresh_net(
        self, name: str, bin_w: float, bin_h: float
    ) -> None:
        net = self.netlist.nets.get(name)
        hpwl = self._hpwl_cache
        if net is None:
            if hpwl is not None:
                hpwl.pop(name, None)
            self._strips.pop(name, None)
            return
        instances = self.netlist.instances
        if hpwl is not None:
            hpwl[name] = net_hpwl_um(net, instances)
        self._strips[name] = _net_strips(
            net, instances, self._pad_ring(), self.bins, bin_w, bin_h
        )

    def _sync_analysis(self) -> None:
        bin_w, bin_h = self._bin_dims()
        nets = self.netlist.nets
        if self._analysis_cold:
            self.stats.full_runs += 1
            instances = self.netlist.instances
            pads = self._pad_ring()
            self._hpwl_cache = None
            self._strips = {
                name: _net_strips(net, instances, pads, self.bins, bin_w, bin_h)
                for name, net in nets.items()
            }
            self._analysis_cold = False
            self._analysis_dirty_cells.clear()
            self._analysis_dirty_nets.clear()
            return
        dirty = set(self._analysis_dirty_nets)
        instances = self.netlist.instances
        for name in self._analysis_dirty_cells:
            inst = instances.get(name)
            if inst is None:
                continue
            for _pin, net_name in inst.connected_pins():
                dirty.add(net_name)
        if dirty:
            self.stats.incremental_runs += 1
            self.stats.nets_refreshed += len(dirty)
            for name in dirty:
                self._refresh_net(name, bin_w, bin_h)
        if len(self._strips) != len(nets):
            # Nets added or removed without notification: reconcile.
            for name in list(self._strips):
                if name not in nets:
                    self._refresh_net(name, bin_w, bin_h)
            for name in nets:
                if name not in self._strips:
                    self._refresh_net(name, bin_w, bin_h)
        self._analysis_dirty_cells.clear()
        self._analysis_dirty_nets.clear()

    def hpwl_um(self) -> float:
        """Total HPWL, equal to :func:`repro.obs.metrics.hpwl_um`."""
        if self._full_mode():
            from repro.obs.metrics import hpwl_um as full_hpwl

            self.stats.full_runs += 1
            self._analysis_cold = True
            return full_hpwl(self.netlist)
        self._sync_analysis()
        cache = self._hpwl_cache
        if cache is None:
            instances = self.netlist.instances
            cache = self._hpwl_cache = {
                name: net_hpwl_um(net, instances)
                for name, net in self.netlist.nets.items()
            }
        total = 0.0
        for name in self.netlist.nets:
            total += cache[name]
        return total

    def congestion(self, *, bins: int | None = None) -> CongestionMap:
        """Current congestion map, equal to ``analyze_congestion``."""
        lib = self.tier_libs[min(self.tier_libs)]
        tiers = len(self.tier_libs)
        fp = self.floorplan
        if bins is not None and bins != self.bins:
            return analyze_congestion(
                self.netlist, lib, fp.width_um, fp.height_um, tiers, bins=bins
            )
        if self._full_mode():
            self.stats.full_runs += 1
            self._analysis_cold = True
            return analyze_congestion(
                self.netlist, lib, fp.width_um, fp.height_um, tiers,
                bins=self.bins,
            )
        with span("congestion", bins=self.bins, tiers=tiers, incremental=True):
            self._sync_analysis()
            bin_w, bin_h = self._bin_dims()
            strips = self._strips
            demand = _accumulate(
                (strips[name] for name in self.netlist.nets), self.bins
            )
            result = CongestionMap(
                bins=self.bins,
                demand=demand,
                capacity_um=_bin_capacity(bin_w, bin_h, tiers),
            )
            emit_metric("peak_congestion", result.peak_demand)
            emit_metric("congestion_overflow", result.overflow_fraction)
        return result
