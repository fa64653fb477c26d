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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cts.tree import ClockReport
from repro.errors import FlowError
from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Netlist
from repro.place.floorplan import Floorplan
from repro.timing.delaycalc import (
    DelayCalculator,
    FanoutWireModel,
    PlacementWireModel,
)
from repro.timing.incremental import full_sta_forced

__all__ = ["Design"]


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
        outside the invalidation contract drops it
        (:meth:`drop_calculator`), or signoff releases it.  Under
        ``REPRO_STA=full`` every call builds a fresh one, so nothing is
        reused across stages.
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

        For edits that bypass ``calc.invalidate`` -- level-shifter
        insertion, tier assignment, integrity repairs, injected faults
        -- and for signoff, after which nothing re-times the design.
        The calculator's sessions are detached, so reference counting
        frees them with it.
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

    def remap_instance_to_tier(self, inst_name: str, tier: int) -> None:
        """Move an instance to a tier and rebind it to that tier's library.

        Memory macros keep their cell (the paper keeps memories identical
        across technology variants); standard cells are swapped for the
        equivalent function/drive in the destination library.
        """
        inst = self.netlist.instances[inst_name]
        target_lib = self.library_for_tier(tier)
        inst.tier = tier
        if inst.cell.is_macro:
            return
        if inst.cell.library_name != target_lib.name:
            self.netlist.rebind(inst_name, target_lib.equivalent_of(inst.cell))
        self.touch_placement(inst_name)

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

    def touch_placement(self, inst_name: str) -> None:
        """Report a placement-relevant edit (move/resize/clone/tier move).

        A no-op before the session exists: a cold session recomputes from
        scratch anyway.  Every flow edit that changes an instance's
        position, width, or tier must call this (the placement analogue
        of ``calc.invalidate``).
        """
        session = self._place_session
        if session is not None and session.floorplan is self.floorplan:
            session.dirty_cell(inst_name)
