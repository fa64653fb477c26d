"""Delay calculation: wire parasitics, NLDM lookup, boundary derating.

Two wire models are provided, mirroring how real flows estimate
interconnect before and after placement:

- :class:`FanoutWireModel` -- a wire-load model (length from fanout) used
  during synthesis, before any placement exists;
- :class:`PlacementWireModel` -- Steiner-corrected half-perimeter lengths
  from actual instance locations, with per-sink Elmore delays and MIV
  parasitics added for every tier crossing (monolithic 3-D nets).

The :class:`DelayCalculator` combines a wire model with the NLDM tables of
the bound cells, and applies the *input-boundary voltage derate* of
Section II-B: a gate whose driving net comes from a tier with a different
supply rail sees its arc delay and output slew scaled by the overdrive
sensitivity fitted in :mod:`repro.liberty.spice`.  The *output-boundary*
effect (different load capacitance across tiers) needs no special
handling -- it emerges naturally because load is summed from the actual
sink pin capacitances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.errors import NetlistError
from repro.liberty.cells import CellFunction, CellType, TimingArc
from repro.liberty.library import StdCellLibrary
from repro.liberty.spice import (
    input_voltage_delay_factor,
    input_voltage_slew_factor,
)
from repro.netlist.core import Instance, Net, Netlist
from repro.units import RC_TO_NS

__all__ = [
    "NetParasitics",
    "FanoutWireModel",
    "PlacementWireModel",
    "DelayCalculator",
]

_INF = float("inf")

#: Steiner-tree length correction over HPWL as a function of fanout,
#: following the classic Chu/Wong FLUTE statistics.
def steiner_correction(fanout: int) -> float:
    """Multiplier that converts HPWL into an RSMT length estimate."""
    if fanout <= 2:
        return 1.0
    return 1.0 + 0.18 * (fanout - 2) ** 0.5


@dataclass(frozen=True)
class NetParasitics:
    """Extracted parasitics of one net.

    ``sink_delay_ns`` maps each sink ``(instance, pin)`` to the Elmore
    delay from the driver output to that sink; ``total_cap_ff`` is the
    load seen by the driver (wire + all sink pins + MIVs);
    ``length_um`` is the estimated routed length; ``miv_count`` the number
    of inter-tier vias the net needs.
    """

    length_um: float
    total_cap_ff: float
    sink_delay_ns: dict[tuple[str, str], float]
    miv_count: int = 0


#: Wire-load model: a net's length is this base plus a fixed length per
#: sink beyond the first (um).
FANOUT_BASE_LENGTH_UM = 4.0
FANOUT_LENGTH_PER_SINK_UM = 6.0


class FanoutWireModel:
    """Pre-placement wire-load model: length grows with fanout."""

    def __init__(self, lib: StdCellLibrary) -> None:
        self._lib = lib

    def extract(self, netlist: Netlist, net: Net) -> NetParasitics:
        """Estimate parasitics from fanout alone."""
        length = FANOUT_BASE_LENGTH_UM + FANOUT_LENGTH_PER_SINK_UM * max(
            0, net.fanout - 1
        )
        wire_cap = length * self._lib.wire_c_ff_per_um
        pin_cap = sum(
            netlist.instances[i].cell.input_capacitance_ff(p)
            for i, p in net.sinks
        )
        wire_r = length * self._lib.wire_r_kohm_per_um
        # Single lumped-pi estimate shared by all sinks.
        delay = wire_r * (wire_cap / 2.0 + pin_cap) * RC_TO_NS
        sink_delay = {sink: delay for sink in net.sinks}
        return NetParasitics(
            length_um=length,
            total_cap_ff=wire_cap + pin_cap,
            sink_delay_ns=sink_delay,
        )


class PlacementWireModel:
    """Post-placement model: Steiner-corrected HPWL plus MIV parasitics.

    For 3-D designs, the same (x, y) plane is shared by both tiers and a
    net spanning tiers pays one MIV (R and C) per crossing, exactly the
    monolithic-3-D abstraction the paper's flows use.
    """

    def __init__(self, lib: StdCellLibrary) -> None:
        self._lib = lib

    def extract(self, netlist: Netlist, net: Net) -> NetParasitics:
        """Extract from actual placement; all pins must be placed.

        One sweep over the pins, driver first: each pin's center (the
        same arithmetic as :meth:`Instance.center`) updates a running
        bounding box, its tier the foreign-sink count, its capacitance
        the pin-capacitance sum (left to right from ``0``, the additions
        ``sum()`` makes), and, on a driven net, its Elmore delay.

        MIVs: one per foreign-tier sink cluster, minimum one per cut
        net.  A production router would share MIVs between nearby sinks;
        we count the sinks on tiers other than the driver's (the first
        sink's on an undriven net), compressed by a sharing factor of 2,
        which matches the paper's reported MIV-per-cut-net densities.
        """
        instances = netlist.instances
        sinks = net.sinks
        lib = self._lib
        wire_r = lib.wire_r_kohm_per_um
        wire_c = lib.wire_c_ff_per_um
        miv_r = lib.miv_r_kohm
        miv_half_c = lib.miv_c_ff / 2.0
        sink_delay: dict[tuple[str, str], float] = {}
        pin_cap = 0
        foreign = 0
        driven = net.driver is not None
        if driven:
            inst = instances[net.driver[0]]
            if inst.x_um is None or inst.y_um is None:
                raise NetlistError(f"instance {inst.name} is not placed")
            dx = inst.x_um + inst.cell.width_um / 2.0
            dy = inst.y_um + inst.cell.height_um / 2.0
            ref_tier = inst.tier
            x_lo = x_hi = dx
            y_lo = y_hi = dy
        elif not sinks:
            return NetParasitics(0.0, 0.0, {})
        else:
            ref_tier = instances[sinks[0][0]].tier
            # The first sink replaces both bounds: coordinates are finite.
            x_lo = y_lo = _INF
            x_hi = y_hi = -_INF
        for sink in sinks:
            inst = instances[sink[0]]
            if inst.x_um is None or inst.y_um is None:
                raise NetlistError(f"instance {inst.name} is not placed")
            cell = inst.cell
            x = inst.x_um + cell.width_um / 2.0
            y = inst.y_um + cell.height_um / 2.0
            if x < x_lo:
                x_lo = x
            if x > x_hi:
                x_hi = x
            if y < y_lo:
                y_lo = y
            if y > y_hi:
                y_hi = y
            sink_cap = cell.pins[sink[1]].capacitance_ff
            pin_cap += sink_cap
            crosses = inst.tier != ref_tier
            if crosses:
                foreign += 1
            delay = 0.0
            if driven:
                dist = abs(x - dx) + abs(y - dy)
                delay = (dist * wire_r * (dist * wire_c / 2.0 + sink_cap)
                         * RC_TO_NS)
                if crosses:
                    delay += miv_r * (miv_half_c + sink_cap) * RC_TO_NS
            sink_delay[sink] = delay

        hpwl = (x_hi - x_lo) + (y_hi - y_lo)
        length = hpwl * steiner_correction(len(sinks))
        miv_count = max(1, (foreign + 1) // 2) if foreign else 0
        return NetParasitics(
            length_um=length,
            total_cap_ff=length * wire_c + pin_cap + miv_count * lib.miv_c_ff,
            sink_delay_ns=sink_delay,
            miv_count=miv_count,
        )


@lru_cache(maxsize=None)
def _voltage_factors(vdd_v: float, vth_v: float, vg_v: float) -> tuple[float, float]:
    """Memoized (delay, slew) derate pair for one supply combination.

    Only a handful of (vdd, vth, vg) triples ever occur per design (one
    per heterogeneous library pair), so an unbounded cache is safe.
    """
    return (
        input_voltage_delay_factor(vdd_v, vth_v, vg_v),
        input_voltage_slew_factor(vdd_v, vth_v, vg_v),
    )


#: The derate pair of a homogeneous input boundary.
_NO_DERATE = (1.0, 1.0)

#: Cap on the arc-delay memo; cleared wholesale on overflow.  Entries are
#: pure function results, so dropping them only costs recomputation.
_ARC_MEMO_MAX = 200_000


class DelayCalculator:
    """Combines a wire model with NLDM tables and boundary derates."""

    def __init__(
        self,
        netlist: Netlist,
        wire_model: FanoutWireModel | PlacementWireModel,
        libraries: dict[str, StdCellLibrary],
    ) -> None:
        self._netlist = netlist
        self._wire_model = wire_model
        self._libraries = libraries
        self._cache: dict[str, NetParasitics] = {}
        self._listeners: list[Callable[[str | None], None]] = []
        #: Raw (pre-derate) ``(delay, output slew)`` of an arc by
        #: ``(id(arc), input slew, load)``: NLDM lookups are pure, so the
        #: repeated evaluations of optimization loops and backward passes
        #: are memoized.  The STA loops read it directly and call
        #: :meth:`lookup_arc` on a miss; it is cleared in place, never
        #: replaced.  The arcs are pinned in _arc_refs so an id can never
        #: be recycled while its memo entries live.
        self.arc_memo: dict[tuple[int, float, float], tuple[float, float]] = {}
        #: Setup time of a setup arc by ``(id(arc), data slew)``.
        self._setup_memo: dict[tuple[int, float], float] = {}
        self._arc_refs: dict[int, TimingArc] = {}
        # Nets whose invalidation waits for invalidate_deferred().
        self._deferred: set[str] = set()
        # The TimingSession successive passes over this calculator share
        # (see TimingSession.shared).
        self.session = None

    def add_invalidation_listener(
        self, listener: Callable[[str | None], None]
    ) -> None:
        """Register a callback invoked on every :meth:`invalidate`.

        The incremental timing session uses this to learn which nets went
        stale; the callback receives the net name, or None for a
        full-cache invalidation.
        """
        self._listeners.append(listener)

    def detach_sessions(self) -> None:
        """Unlink the timing sessions on this calculator, once its life
        ends: a session and its calculator point at each other (through
        :attr:`session`, the listener and ``session.calc``), a cycle
        only the cyclic collector would free."""
        self.session = None
        self._listeners.clear()

    def invalidate(self, net_name: str | None = None) -> None:
        """Drop cached parasitics (all nets, or one) after an edit."""
        if net_name is None:
            self._cache.clear()
        else:
            self._cache.pop(net_name, None)
        for listener in self._listeners:
            listener(net_name)

    def defer_invalidation(self, net_name: str) -> None:
        """Invalidate one net at the next :meth:`invalidate_deferred`.

        Load cloning joins its driver's input nets through the edit
        journal's deferred ``connect``; the flow driver invalidates those
        nets right after each stage body, so they stay exactly as stale
        as they were when every stage built a calculator of its own (see
        DESIGN.md, invalidation contract).
        """
        self._deferred.add(net_name)

    def invalidate_deferred(self) -> None:
        """Invalidate every net :meth:`defer_invalidation` recorded."""
        deferred, self._deferred = self._deferred, set()
        for net_name in deferred:
            self.invalidate(net_name)

    def cached_parasitics(self) -> dict[str, NetParasitics]:
        """The cached parasitics by net name (a live view; do not edit).

        Invalidation edits this dict in place, so the STA loops hold it
        for a whole pass and call :meth:`net_parasitics` only on a miss.
        """
        return self._cache

    def net_parasitics(self, net: Net) -> NetParasitics:
        """Extract (and cache) parasitics for one net."""
        cached = self._cache.get(net.name)
        if cached is None:
            cached = self._wire_model.extract(self._netlist, net)
            self._cache[net.name] = cached
        return cached

    def output_load_ff(self, inst: Instance, out_pin: str) -> float:
        """Total load on one instance output pin."""
        net_name = inst.net_of(out_pin)
        if net_name is None:
            return 0.0
        return self.net_parasitics(self._netlist.nets[net_name]).total_cap_ff

    def input_derates(
        self, inst: Instance, in_net: Net | None
    ) -> tuple[float, float]:
        """(delay, slew) multipliers from input-boundary heterogeneity.

        Returns (1.0, 1.0) unless ``in_net`` -- the net on one of
        ``inst``'s inputs, None when that input is unconnected -- comes
        from an instance bound to a library with a different supply
        voltage.  This is the one statement of the rule: the STA loops
        call it only when the driver's ``vdd_v`` differs from the cell's
        (an equal supply always gives (1.0, 1.0), and skipping a ``* 1.0``
        is exact).
        """
        if in_net is None or in_net.driver is None:
            return _NO_DERATE
        vg = self._netlist.instances[in_net.driver[0]].cell.vdd_v
        cell = inst.cell
        if abs(vg - cell.vdd_v) < 1e-9:
            return _NO_DERATE
        if cell.function is CellFunction.LEVEL_SHIFTER:
            # shifters are characterized for foreign-rail inputs
            return _NO_DERATE
        lib = self._libraries[cell.library_name]
        return _voltage_factors(lib.vdd_v, lib.vth_v, vg)

    def lookup_arc(
        self, arc: TimingArc, input_slew_ns: float, load_ff: float
    ) -> tuple[float, float]:
        """Raw (pre-derate) arc delay and output slew, stored in
        :attr:`arc_memo`: the STA loops' miss path.

        One bisect serves both tables, which share their axes.  Memo hits
        are exact-key, so a hit is bit-identical to this computation
        regardless of call order; the caller applies the input-boundary
        derate.
        """
        memo = self.arc_memo
        if len(memo) >= _ARC_MEMO_MAX:
            memo.clear()
            self._setup_memo.clear()
            self._arc_refs.clear()
        arc_id = id(arc)
        hit = arc.delay.lookup_pair(arc.output_slew, input_slew_ns, load_ff)
        memo[(arc_id, input_slew_ns, load_ff)] = hit
        self._arc_refs[arc_id] = arc
        return hit

    def setup_time(self, cell: CellType, data_slew_ns: float) -> float:
        """Setup requirement of a sequential cell at the given data slew.

        Memoized by exact ``(id(arc), slew)`` key, like :attr:`arc_memo`,
        so a hit is bit-identical to the lookup.
        """
        arc = cell.setup_arc
        if arc is None:
            return cell.setup_ns
        key = (id(arc), data_slew_ns)
        memo = self._setup_memo
        setup = memo.get(key)
        if setup is None:
            if len(memo) >= _ARC_MEMO_MAX:
                memo.clear()
            setup = memo[key] = arc.delay.lookup(data_slew_ns, 0.0)
            self._arc_refs[id(arc)] = arc
        return setup
