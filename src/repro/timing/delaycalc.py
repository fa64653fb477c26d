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

        One pass over the pins collects each pin's center, tier and (for
        sinks) pin capacitance; length, capacitance and per-sink delays
        are computed from those lists.
        """
        instances = netlist.instances
        xs: list[float] = []
        ys: list[float] = []
        driver_tier: int | None = None
        if net.driver is not None:
            inst = instances[net.driver[0]]
            x, y = inst.center()
            xs.append(x)
            ys.append(y)
            driver_tier = inst.tier
        sink_tiers: list[int] = []
        sink_caps: list[float] = []
        for sink_name, pin in net.sinks:
            inst = instances[sink_name]
            x, y = inst.center()
            xs.append(x)
            ys.append(y)
            sink_tiers.append(inst.tier)
            sink_caps.append(inst.cell.input_capacitance_ff(pin))
        if not xs:
            return NetParasitics(0.0, 0.0, {})

        lib = self._lib
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        length = hpwl * steiner_correction(len(net.sinks))
        ref_tier = sink_tiers[0] if driver_tier is None else driver_tier
        crossing = any(t != ref_tier for t in sink_tiers)
        miv_count = self._count_mivs(ref_tier, sink_tiers) if crossing else 0

        wire_cap = length * lib.wire_c_ff_per_um
        pin_cap = sum(sink_caps)
        total_cap = wire_cap + pin_cap + miv_count * lib.miv_c_ff

        sink_delay: dict[tuple[str, str], float] = {}
        if driver_tier is None:
            for sink in net.sinks:
                sink_delay[sink] = 0.0
        else:
            dx, dy = xs[0], ys[0]
            for k, sink in enumerate(net.sinks, start=1):
                dist = abs(xs[k] - dx) + abs(ys[k] - dy)
                seg_r = dist * lib.wire_r_kohm_per_um
                seg_c = dist * lib.wire_c_ff_per_um
                sink_cap = sink_caps[k - 1]
                delay = seg_r * (seg_c / 2.0 + sink_cap) * RC_TO_NS
                if sink_tiers[k - 1] != driver_tier:
                    delay += lib.miv_r_kohm * (
                        lib.miv_c_ff / 2.0 + sink_cap
                    ) * RC_TO_NS
                sink_delay[sink] = delay
        return NetParasitics(
            length_um=length,
            total_cap_ff=total_cap,
            sink_delay_ns=sink_delay,
            miv_count=miv_count,
        )

    @staticmethod
    def _count_mivs(ref_tier: int, sink_tiers: list[int]) -> int:
        """One MIV per foreign-tier sink cluster, minimum one per net.

        A production router would share MIVs between nearby sinks; we use
        the number of sinks on tiers other than the driver's (the first
        sink's on an undriven net), compressed by a sharing factor of 2,
        which matches the paper's reported MIV-per-cut-net densities.
        """
        foreign = sum(1 for t in sink_tiers if t != ref_tier)
        return max(1, (foreign + 1) // 2)


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
        # NLDM lookups are pure functions of (arc, input slew, load), so
        # repeated evaluations -- the common case inside optimization
        # loops and backward propagation -- are memoized.
        # Keys use id(arc); the arc objects are pinned in _arc_refs so an
        # id can never be recycled while its memo entries live.
        self._arc_memo: dict[tuple[int, float, float], tuple[float, float]] = {}
        self._arc_refs: dict[int, TimingArc] = {}
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

    def invalidate(self, net_name: str | None = None) -> None:
        """Drop cached parasitics (all nets, or one) after an edit."""
        if net_name is None:
            self._cache.clear()
        else:
            self._cache.pop(net_name, None)
        for listener in self._listeners:
            listener(net_name)

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
        voltage.  Callers pass the net because they have just looked it
        up.
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

    def arc_delay_slew(
        self,
        inst: Instance,
        arc: TimingArc,
        input_slew_ns: float,
        load_ff: float,
        in_net: Net | None,
    ) -> tuple[float, float]:
        """Arc delay and output slew with the input-boundary derate applied.

        ``in_net`` is the net on ``arc.from_pin`` (None when unconnected).
        The raw (pre-derate) table lookups are memoized per arc -- one
        bisect serves both tables, which share their axes -- and the
        derate, which depends on the driving instance's rail, is applied
        per call.
        Memo hits are exact-key, so the result is bit-identical to the
        unmemoized computation regardless of call order.
        """
        key = (id(arc), input_slew_ns, load_ff)
        hit = self._arc_memo.get(key)
        if hit is None:
            if len(self._arc_memo) >= _ARC_MEMO_MAX:
                self._arc_memo.clear()
                self._arc_refs.clear()
            hit = arc.delay.lookup_pair(arc.output_slew, input_slew_ns, load_ff)
            self._arc_memo[key] = hit
            self._arc_refs.setdefault(key[0], arc)
        derate_d, derate_s = self.input_derates(inst, in_net)
        return hit[0] * derate_d, hit[1] * derate_s

    def setup_time(self, cell: CellType, data_slew_ns: float) -> float:
        """Setup requirement of a sequential cell at the given data slew."""
        for arc in cell.arcs:
            if arc.kind == "setup":
                return arc.delay.lookup(data_slew_ns, 0.0)
        return cell.setup_ns
