"""The Design object: netlist + technology binding + physical state.

A :class:`Design` ties together everything a flow stage needs: the
netlist, the per-tier libraries, the floorplan, the clock tree, and the
wire model in effect.  Flow stages mutate the design in place and the
finalizer reads every metric off it.

The design also owns the flow's timing state: one placed
:class:`~repro.timing.delaycalc.DelayCalculator` bound to the current
floorplan (and, through ``TimingSession.shared``, one incremental
timing session on it), which every stage from legalization to signoff
reuses instead of re-extracting every net.

Flow transforms edit the netlist through an :class:`EditJournal`, which
derives from each edit the nets to invalidate and the cells and nets to
mark on the placement session, and can undo what it recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.cts.tree import ClockReport
from repro.errors import FlowError
from repro.liberty.cells import CellType
from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Instance, Net, Netlist
from repro.place.floorplan import Floorplan
from repro.timing.delaycalc import (
    DelayCalculator,
    FanoutWireModel,
    PlacementWireModel,
)
from repro.timing.incremental import full_sta_forced

__all__ = ["Design", "EditJournal"]


@dataclass
class Design:
    """One implementation of one netlist in one configuration."""

    name: str
    config: str
    netlist: Netlist
    tier_libs: dict[int, StdCellLibrary]
    floorplan: Floorplan | None = None
    clock_report: ClockReport | None = None
    target_period_ns: float = 1.0
    utilization_target: float = 0.82
    notes: dict[str, object] = field(default_factory=dict)
    #: latency snapshot cache: (report it was taken from, snapshot)
    _clock_latency_cache: tuple[ClockReport, dict[str, float]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: lazy placement session bound to the current floorplan
    _place_session: object | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: placed delay calculator: (floorplan it is bound to, calculator)
    _calc: tuple[Floorplan | None, DelayCalculator] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def tiers(self) -> int:
        """Number of tiers in this configuration."""
        return len(self.tier_libs)

    @property
    def is_3d(self) -> bool:
        """True for stacked configurations."""
        return self.tiers > 1

    @property
    def frequency_ghz(self) -> float:
        """Target clock frequency."""
        return 1.0 / self.target_period_ns

    def libraries_by_name(self) -> dict[str, StdCellLibrary]:
        """Library lookup map keyed by library name."""
        return {lib.name: lib for lib in self.tier_libs.values()}

    def reference_library(self) -> StdCellLibrary:
        """The bottom-tier library (used for shared BEOL parasitics)."""
        return self.tier_libs[0]

    def library_for_tier(self, tier: int) -> StdCellLibrary:
        """Library bound to one tier."""
        try:
            return self.tier_libs[tier]
        except KeyError:
            raise FlowError(f"design has no tier {tier}") from None

    def calculator(self, *, placed: bool) -> DelayCalculator:
        """A delay calculator over the current netlist state.

        ``placed=False`` builds a fresh wire-load calculator.  The placed
        calculator is the design's own: every call returns the same
        object until the floorplan changes (a global re-place), an edit
        no journal records drops it (:meth:`drop_calculator`), or
        signoff releases it.  Under ``REPRO_STA=full`` every call builds
        a fresh one, so nothing is reused across stages.
        """
        held = self.held_calculator() if placed else None
        if held is not None and not full_sta_forced():
            return held
        lib = self.reference_library()
        model = PlacementWireModel(lib) if placed else FanoutWireModel(lib)
        calc = DelayCalculator(self.netlist, model, self.libraries_by_name())
        if placed:
            self.drop_calculator()
            self._calc = (self.floorplan, calc)
        return calc

    def held_calculator(self) -> DelayCalculator | None:
        """The placed calculator bound to the current floorplan, if any."""
        held = self._calc
        if held is None or held[0] is not self.floorplan:
            return None
        return held[1]

    def drop_calculator(self) -> None:
        """Forget the placed calculator (and the timing session on it).

        For tier assignment, which rebinds most cells, for edits no
        :class:`EditJournal` records -- integrity repairs, injected
        faults -- and for signoff, after which nothing re-times the
        design.  The calculator's sessions are detached, so reference
        counting frees them with it.
        """
        held, self._calc = self._calc, None
        if held is not None:
            held[1].detach_sessions()

    def copy(self) -> "Design":
        """A snapshot of the flow state.

        The netlist is copied structurally (:meth:`Netlist.copy`), and
        so are the library map, the floorplan with its macro list, the
        clock report's maps and the notes; cell types and libraries are
        shared.  Like a design loaded from a checkpoint, the copy holds
        no calculator and no placement session.
        """
        fp = self.floorplan
        if fp is not None:
            fp = replace(fp, macros=list(fp.macros))
        clock = self.clock_report
        if clock is not None:
            clock = replace(
                clock,
                buffer_count_by_tier=dict(clock.buffer_count_by_tier),
                latencies=dict(clock.latencies),
            )
        return Design(
            name=self.name,
            config=self.config,
            netlist=self.netlist.copy(),
            tier_libs=dict(self.tier_libs),
            floorplan=fp,
            clock_report=clock,
            target_period_ns=self.target_period_ns,
            utilization_target=self.utilization_target,
            notes=dict(self.notes),
        )

    def clock_latencies(self) -> dict[str, float] | None:
        """Per-sink clock insertion delays, or None before CTS.

        The snapshot is cached against the current :attr:`clock_report`,
        so repeated calls return the *same* dict object until CTS (or an
        edit that rebuilds the tree) installs a new report.  The stable
        identity lets timing sessions detect latency changes with an
        ``is`` check instead of comparing per-sink values.
        """
        report = self.clock_report
        if report is None:
            self._clock_latency_cache = None
            return None
        cached = self._clock_latency_cache
        if cached is not None and cached[0] is report:
            return cached[1]
        snapshot = dict(report.latencies)
        self._clock_latency_cache = (report, snapshot)
        return snapshot

    def slow_tier(self) -> int:
        """The tier with the slower library (heterogeneous designs).

        For homogeneous designs the top tier is returned by convention.
        """
        if not self.is_3d:
            return 0
        libs = sorted(self.tier_libs.items(), key=lambda kv: kv[1].vdd_v)
        return libs[0][0] if libs[0][1].vdd_v < libs[-1][1].vdd_v else 1

    def place_session(self):
        """The placement session bound to the current floorplan.

        Created lazily and replaced whenever the floorplan object changes
        (utilization backoff re-places the whole design, so stale caches
        must not survive).  A fresh session recomputes everything on its
        first query, which is what makes checkpoint-resumed designs
        byte-identical to uninterrupted runs.
        """
        from repro.place.incremental import PlacementSession

        if self.floorplan is None:
            raise FlowError("design has no floorplan; place before querying")
        session = self._place_session
        if (
            session is None
            or session.floorplan is not self.floorplan
            or session.netlist is not self.netlist
        ):
            session = PlacementSession(
                self.netlist, self.floorplan, self.tier_libs
            )
            self._place_session = session
        return session


class EditJournal:
    """The netlist edits of one flow transform, and their undo.

    Every flow transform edits the netlist through a journal.  Each edit
    invalidates exactly the nets it changed on ``calc`` (the transform's
    delay calculator, or None) and marks what it changed on the design's
    live placement session: cells resized, re-tiered or added
    (``dirty_cell``), nets rewired (``dirty_net``).  :meth:`restore`
    undoes the log, newest edit first, with the same invalidations, down
    to the order of every sink list and pin map.  The log holds plain
    tuples, never closures, so no reference cycle keeps an edited design
    alive.
    """

    def __init__(self, design: Design,
                 calc: DelayCalculator | None = None) -> None:
        self.design = design
        self.netlist = design.netlist
        self.calc = calc
        #: ``(kind, instance or net name, *undo data)``, oldest first.
        self.log: list[tuple] = []

    def rebind(self, name: str, cell: CellType) -> None:
        """Swap an instance's cell (resize)."""
        self._set_cell(name, cell, self.netlist.instances[name].tier)

    def move_to_tier(self, name: str, tier: int) -> None:
        """Move an instance to a tier and that tier's library.

        Memory macros keep their cell (the paper keeps memories identical
        across technology variants); standard cells are swapped for the
        equivalent function/drive in the destination library.
        """
        cell = self.netlist.instances[name].cell
        lib = self.design.library_for_tier(tier)
        if not cell.is_macro and cell.library_name != lib.name:
            cell = lib.equivalent_of(cell)
        self._set_cell(name, cell, tier)

    def add_cell(self, prefix: str, cell: CellType, *, tier: int, block: str,
                 xy: tuple[float, float] | None = None,
                 over: str | None = None) -> Instance:
        """A new unconnected instance at ``xy``, or on top of the instance
        ``over`` (which the legalizer must then move too)."""
        netlist = self.netlist
        inst = netlist.add_instance(netlist.unique_name(prefix), cell,
                                    block=block, tier=tier)
        if over is not None:
            under = netlist.instances[over]
            xy = (under.x_um, under.y_um)
        if xy is not None:
            inst.x_um, inst.y_um = xy
        self.log.append(("add_cell", inst.name))
        self._changed((inst.name,) if over is None else (inst.name, over))
        return inst

    def add_net(self, prefix: str) -> Net:
        """A new empty net."""
        net = self.netlist.add_net(self.netlist.unique_name(prefix))
        self.log.append(("add_net", net.name))
        return net

    def connect(self, net_name: str, inst_name: str, pin: str, *,
                defer: bool = False) -> None:
        """Bind a pin to a net; ``defer`` leaves the net's invalidation to
        ``DelayCalculator.invalidate_deferred`` (see DESIGN.md)."""
        self.netlist.connect(net_name, inst_name, pin)
        self.log.append(("connect", inst_name, pin, defer))
        self._changed(nets=(net_name,), defer=defer)

    def move_sinks(self, sinks: list[tuple[str, str]], net_name: str) -> None:
        """Rebind each ``(instance, pin)`` sink to ``net_name``."""
        netlist = self.netlist
        for inst_name, pin in list(sinks):
            old = netlist.instances[inst_name].net_of(pin)
            at = netlist.disconnect(inst_name, pin)
            netlist.connect(net_name, inst_name, pin)
            self.log.append(("move", inst_name, pin, old, at))
            self._changed(nets=(old, net_name))

    def insert_repeater(self, net_name: str, sinks: list[tuple[str, str]],
                        prefix: str, cell: CellType, net_prefix: str,
                        **where) -> Instance:
        """A new ``cell`` on ``net_name`` driving a new net that takes over
        ``sinks``; ``where`` is :meth:`add_cell`'s keywords."""
        rep = self.add_cell(prefix, cell, **where)
        new_net = self.add_net(net_prefix)
        self.connect(net_name, rep.name, cell.input_pins[0])
        self.connect(new_net.name, rep.name, cell.output_pin)
        self.move_sinks(sinks, new_net.name)
        return rep

    def restore(self) -> None:
        """Undo every recorded edit, newest first; the log empties."""
        netlist = self.netlist
        while self.log:
            kind, name, *undo = self.log.pop()
            if kind == "cell":
                cell, tier = undo
                netlist.instances[name].tier = tier
                netlist.rebind(name, cell)
                self._cell_changed(name)
            elif kind == "add_cell":
                netlist.remove_instance(name)
            elif kind == "add_net":
                netlist.remove_net(name)
            elif kind == "connect":
                pin, defer = undo
                net_name = netlist.instances[name].net_of(pin)
                netlist.disconnect(name, pin)
                self._changed(nets=(net_name,), defer=defer)
            else:  # "move"
                pin, old, at = undo
                net_name = netlist.instances[name].net_of(pin)
                netlist.disconnect(name, pin)
                netlist.connect(old, name, pin, at=at)
                self._changed(nets=(net_name, old))

    def _set_cell(self, name: str, cell: CellType, tier: int) -> None:
        inst = self.netlist.instances[name]
        self.log.append(("cell", name, inst.cell, inst.tier))
        inst.tier = tier
        if cell is not inst.cell:
            self.netlist.rebind(name, cell)
        self._cell_changed(name)

    def _cell_changed(self, name: str) -> None:
        """A cell's size or tier changed, and so did every net on its pins."""
        inst = self.netlist.instances[name]
        self._changed((name,), [net for _pin, net in inst.connected_pins()])

    def _changed(self, cells: Sequence[str] = (), nets: Sequence[str] = (),
                 defer: bool = False) -> None:
        """Invalidate (or defer) ``nets`` on the calculator and mark
        ``cells`` and ``nets`` on the placement session.  A session not
        made yet needs no marks: its first query recomputes everything."""
        if self.calc is not None:
            for net in nets:
                if defer:
                    self.calc.defer_invalidation(net)
                else:
                    self.calc.invalidate(net)
        session = self.design._place_session
        if session is None or session.floorplan is not self.design.floorplan:
            return
        for name in cells:
            session.dirty_cell(name)
        for net in nets:
            session.dirty_net(net)
