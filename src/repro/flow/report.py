"""Flow finalization: collect every Table VI metric from a finished design.

``finalize_design`` runs the signoff pass -- placed STA with propagated
clock latencies, power with the CTS clock component, the routing report,
and the Table IV cost model -- and assembles a :class:`FlowResult` whose
fields mirror the rows of Table VI (plus the supporting analyses of
Table VIII).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.cost.model import CostModel, performance_per_cost, power_delay_product_pj
from repro.cts.tree import ClockReport
from repro.flow.design import Design
from repro.obs import emit_metric, span
from repro.power.activity import propagate_activities
from repro.power.analysis import PowerReport, analyze_power, net_switching_power_uw
from repro.route.report import RoutingReport, route_design
from repro.timing.incremental import TimingSession
from repro.timing.sta import CriticalPath, PathStep
from repro.units import um2_to_mm2

__all__ = ["MemoryNetStats", "FlowResult", "finalize_design"]


@dataclass(frozen=True)
class MemoryNetStats:
    """Table VIII 'Memory Interconnects': RMS latency and switching power."""

    input_net_latency_ps: float
    output_net_latency_ps: float
    net_switching_power_uw: float


@dataclass(frozen=True)
class FlowResult:
    """Everything the paper reports about one implementation."""

    design: str
    config: str
    frequency_ghz: float
    period_ns: float
    wns_ns: float
    tns_ns: float
    effective_delay_ns: float
    si_area_mm2: float
    footprint_mm2: float
    chip_width_um: float
    density: float
    wirelength_mm: float
    miv_count: int
    cut_nets: int
    total_power_mw: float
    power: PowerReport
    pdp_pj: float
    die_cost_1e6: float  # in units of 1e-6 C', as Table VI prints it
    cost_per_cm2: float
    ppc: float
    clock: ClockReport | None
    critical_path: CriticalPath | None
    memory_nets: MemoryNetStats | None
    peak_congestion: float

    def to_dict(self) -> dict:
        """JSON-safe deep-dict view, invertible via :meth:`from_dict`.

        This is the serialization the on-disk result cache
        (:mod:`repro.experiments.cache`) persists; every nested report is
        a plain dataclass, so :func:`dataclasses.asdict` does the heavy
        lifting and :meth:`from_dict` re-types the pieces.
        """
        d = asdict(self)
        if self.critical_path is not None:
            d["critical_path"]["endpoint"] = list(self.critical_path.endpoint)
            d["critical_path"]["steps"] = [
                asdict(s) for s in self.critical_path.steps
            ]
        if self.clock is not None:
            # JSON keys are strings; keep tier keys as ints on the way out.
            d["clock"]["buffer_count_by_tier"] = {
                str(k): v for k, v in self.clock.buffer_count_by_tier.items()
            }
        return d

    @staticmethod
    def from_dict(d: dict) -> "FlowResult":
        """Rebuild a :class:`FlowResult` from :meth:`to_dict` output."""
        d = dict(d)
        d["power"] = PowerReport(**d["power"])
        if d.get("clock") is not None:
            clock = dict(d["clock"])
            clock["buffer_count_by_tier"] = {
                int(k): v for k, v in clock["buffer_count_by_tier"].items()
            }
            d["clock"] = ClockReport(**clock)
        if d.get("critical_path") is not None:
            cp = dict(d["critical_path"])
            cp["endpoint"] = tuple(cp["endpoint"])
            cp["steps"] = tuple(PathStep(**s) for s in cp["steps"])
            d["critical_path"] = CriticalPath(**cp)
        if d.get("memory_nets") is not None:
            d["memory_nets"] = MemoryNetStats(**d["memory_nets"])
        return FlowResult(**d)

    def row(self) -> dict[str, float]:
        """Flat dict view (one Table VI column)."""
        return {
            "frequency_ghz": self.frequency_ghz,
            "si_area_mm2": self.si_area_mm2,
            "chip_width_um": self.chip_width_um,
            "density_pct": self.density * 100.0,
            "wl_mm": self.wirelength_mm,
            "mivs": float(self.miv_count),
            "total_power_mw": self.total_power_mw,
            "wns_ns": self.wns_ns,
            "tns_ns": self.tns_ns,
            "effective_delay_ns": self.effective_delay_ns,
            "pdp_pj": self.pdp_pj,
            "die_cost_1e6": self.die_cost_1e6,
            "cost_per_cm2": self.cost_per_cm2,
            "ppc": self.ppc,
        }


def delta_pct(hetero: float, config: float) -> float:
    """The Table VII delta: ``(3-D hetero - config) / config * 100``."""
    if config == 0:
        return 0.0
    return (hetero - config) / config * 100.0


def _memory_net_stats(
    design: Design,
    calc,
    activities: dict[str, float],
) -> MemoryNetStats | None:
    macros = design.netlist.memory_macros()
    if not macros:
        return None
    in_delays: list[float] = []
    out_delays: list[float] = []
    power_uw = 0.0
    netlist = design.netlist
    seen: set[str] = set()
    for macro in macros:
        for pin, net_name in macro.connected_pins():
            net = netlist.nets[net_name]
            if net.is_clock or net_name in seen:
                continue
            seen.add(net_name)
            para = calc.net_parasitics(net)
            if macro.cell.pins[pin].direction == "output":
                out_delays.extend(para.sink_delay_ns.values())
            else:
                delay = para.sink_delay_ns.get((macro.name, pin))
                if delay is not None:
                    in_delays.append(delay)
            power_uw += net_switching_power_uw(
                netlist, calc, net_name, design.frequency_ghz, activities
            )

    def rms_ps(values: list[float]) -> float:
        if not values:
            return 0.0
        return (sum(v * v for v in values) / len(values)) ** 0.5 * 1000.0

    return MemoryNetStats(
        input_net_latency_ps=rms_ps(in_delays),
        output_net_latency_ps=rms_ps(out_delays),
        net_switching_power_uw=power_uw,
    )


def finalize_design(design: Design) -> FlowResult:
    """Signoff a finished design and assemble its :class:`FlowResult`."""
    if design.floorplan is None:
        raise ValueError("design must be floorplanned before finalization")
    with span("signoff", design=design.name, config=design.config):
        result = _finalize(design)
        # Nothing re-times a signed-off design: release its timing state.
        design.drop_calculator()
        emit_metric("wns_ns", result.wns_ns)
        emit_metric("tns_ns", result.tns_ns)
        emit_metric("total_power_mw", result.total_power_mw)
        emit_metric("density_pct", result.density * 100.0)
        emit_metric("die_cost_1e6", result.die_cost_1e6)
    return result


def _finalize(design: Design) -> FlowResult:
    calc = design.calculator(placed=True)
    session = TimingSession.shared(
        design.netlist, calc, design.clock_latencies()
    )
    timing = session.report(design.target_period_ns, with_cell_slacks=False)

    activities = propagate_activities(design.netlist)
    clock_mw = design.clock_report.power_mw if design.clock_report else 0.0
    power = analyze_power(
        design.netlist,
        calc,
        design.frequency_ghz,
        design.libraries_by_name(),
        clock_power_mw=clock_mw,
        activities=activities,
    )
    routing: RoutingReport = route_design(
        design.netlist,
        calc,
        design.reference_library(),
        design.floorplan.width_um,
        design.floorplan.height_um,
        design.tiers,
        congestion=design.place_session().congestion(),
    )
    footprint_mm2 = um2_to_mm2(design.floorplan.area_um2)
    cost = CostModel().die_cost(footprint_mm2, design.tiers)

    effective = timing.effective_delay_ns
    pdp = power_delay_product_pj(power.total_mw, effective)
    ppc = performance_per_cost(
        design.frequency_ghz, power.total_mw, cost.die_cost * 1e6
    )
    return FlowResult(
        design=design.name,
        config=design.config,
        frequency_ghz=design.frequency_ghz,
        period_ns=design.target_period_ns,
        wns_ns=timing.wns_ns,
        tns_ns=timing.tns_ns,
        effective_delay_ns=effective,
        si_area_mm2=um2_to_mm2(design.floorplan.silicon_area_um2),
        footprint_mm2=footprint_mm2,
        chip_width_um=design.floorplan.width_um,
        density=design.floorplan.density(design.netlist),
        wirelength_mm=routing.routed_wl_mm,
        miv_count=routing.miv_count if design.is_3d else 0,
        cut_nets=routing.cut_nets if design.is_3d else 0,
        total_power_mw=power.total_mw,
        power=power,
        pdp_pj=pdp,
        die_cost_1e6=cost.die_cost * 1e6,
        cost_per_cm2=cost.cost_per_cm2,
        ppc=ppc,
        clock=design.clock_report,
        critical_path=timing.critical_path,
        memory_nets=_memory_net_stats(design, calc, activities),
        peak_congestion=routing.peak_congestion,
    )
