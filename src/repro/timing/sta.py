"""Static timing analysis with slew propagation and setup checks.

The analysis follows the structure of a signoff timer:

1. **Launch**: primary inputs arrive at t=0; sequential outputs (flip-flop
   and macro Q pins) launch at the instance's clock latency plus its
   clock-to-q arc delay.
2. **Forward propagation** over the levelized combinational core:
   per-pin arrivals are driver arrival + per-sink Elmore wire delay, and
   output arrival/slew come from the worst input through the NLDM arcs
   (with the heterogeneous input-boundary derate applied by the delay
   calculator).
3. **Capture**: every sequential data input is an endpoint; its required
   time is ``period + capture latency - setup(slew)``.  Slack, WNS and TNS
   follow.
4. **Backward propagation** computes per-instance worst slack -- the
   *cell-based criticality* of Section III-A1 ("instead of path-based slack
   measurement, we visit the cells individually and find the worst slack
   among the paths going through the cell").

Path extraction backtracks the worst arrival chain and reports the same
breakdowns as Table VIII (cells/delay/wirelength/MIVs per tier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import TimingError
from repro.netlist.core import Instance, Netlist
from repro.obs import emit_metric, span
from repro.timing.delaycalc import DelayCalculator

__all__ = ["PathStep", "CriticalPath", "TimingReport", "run_sta"]

#: Default transition time assumed at primary inputs and clock pins (ns).
DEFAULT_INPUT_SLEW_NS = 0.02

_INF = float("inf")


@dataclass(frozen=True)
class PathStep:
    """One stage of a timing path: arrival through one cell."""

    instance: str
    cell_name: str
    tier: int
    arc_delay_ns: float
    wire_delay_ns: float
    wirelength_um: float
    crosses_tier: bool


@dataclass(frozen=True)
class CriticalPath:
    """A launch-to-capture register path with Table VIII style breakdowns."""

    endpoint: tuple[str, str]
    slack_ns: float
    launch_latency_ns: float
    capture_latency_ns: float
    setup_ns: float
    steps: tuple[PathStep, ...] = field(repr=False)

    @property
    def clock_skew_ns(self) -> float:
        """Capture minus launch clock latency (positive helps setup)."""
        return self.capture_latency_ns - self.launch_latency_ns

    @property
    def cell_delay_ns(self) -> float:
        """Total delay spent in cell arcs."""
        return sum(s.arc_delay_ns for s in self.steps)

    @property
    def wire_delay_ns(self) -> float:
        """Total delay spent in interconnect."""
        return sum(s.wire_delay_ns for s in self.steps)

    @property
    def path_delay_ns(self) -> float:
        """End-to-end data path delay (cells + wires + launch latency)."""
        return self.cell_delay_ns + self.wire_delay_ns

    @property
    def wirelength_um(self) -> float:
        """Total routed length along the path."""
        return sum(s.wirelength_um for s in self.steps)

    @property
    def total_cells(self) -> int:
        """Logic depth in cells."""
        return len(self.steps)

    @property
    def miv_count(self) -> int:
        """Number of tier crossings along the path."""
        return sum(1 for s in self.steps if s.crosses_tier)

    def cells_on_tier(self, tier: int) -> int:
        """Number of path cells on one tier."""
        return sum(1 for s in self.steps if s.tier == tier)

    def cell_delay_on_tier(self, tier: int) -> float:
        """Cell delay contributed by one tier."""
        return sum(s.arc_delay_ns for s in self.steps if s.tier == tier)

    def wirelength_on_tier(self, tier: int) -> float:
        """Wirelength of path segments whose sink is on one tier."""
        return sum(s.wirelength_um for s in self.steps if s.tier == tier)

    def average_cell_delay_on_tier(self, tier: int) -> float:
        """Mean stage delay on one tier (0 when the tier is unused)."""
        n = self.cells_on_tier(tier)
        return self.cell_delay_on_tier(tier) / n if n else 0.0


@dataclass
class TimingReport:
    """Result of one STA run."""

    period_ns: float
    wns_ns: float
    tns_ns: float
    endpoint_slacks: dict[tuple[str, str], float]
    cell_slack: dict[str, float]
    critical_path: CriticalPath | None

    @property
    def effective_delay_ns(self) -> float:
        """``clock period - worst slack`` (paper's PDP delay term)."""
        return self.period_ns - self.wns_ns

    @property
    def frequency_ghz(self) -> float:
        """Target clock frequency of this run."""
        return 1.0 / self.period_ns

    def worst_endpoints(self, count: int) -> list[tuple[tuple[str, str], float]]:
        """The ``count`` worst endpoints, most negative slack first."""
        ranked = sorted(self.endpoint_slacks.items(), key=lambda kv: kv[1])
        return ranked[:count]


class StaEngine:
    """State of one STA computation (arrivals, slews, requireds).

    :func:`run_sta` builds one per call; the incremental
    :class:`~repro.timing.incremental.TimingSession` keeps one alive
    across edits and re-evaluates only dirty cones through the same
    forward loop (:meth:`propagate` over the re-levelized cone), which is
    what makes the incremental results bit-identical to a from-scratch
    run.

    Each walk -- launch, the forward and backward passes, the endpoint
    base, the required seeds, the backtrace, and the session's
    incremental pull -- is one flat loop.  Per arc it reads the pin's net
    from ``Instance._pin_nets``, the net's parasitics from the
    calculator's cache (:meth:`DelayCalculator.cached_parasitics`) and
    the raw arc delay from its memo (:attr:`DelayCalculator.arc_memo`),
    and calls the calculator only on a miss, or for the input-boundary
    derate (:meth:`DelayCalculator.input_derates`) when the driver's
    supply differs from the cell's.  Each loop applies the rule of
    :meth:`input_arrival_slew` to an unconnected or unreached input.
    """

    def __init__(
        self,
        netlist: Netlist,
        calc: DelayCalculator,
        period_ns: float,
        clock_latencies: dict[str, float] | None,
    ) -> None:
        self.netlist = netlist
        self.calc = calc
        self.period_ns = period_ns
        self.latencies = clock_latencies or {}
        # Arrival/slew at each net, measured at the driver output pin.
        self.arrival: dict[str, float] = {}
        self.slew: dict[str, float] = {}
        self.required: dict[str, float] = {}
        # Which input pin set each instance's output arrival (for backtrace).
        self.worst_input: dict[str, str] = {}

    # -- forward ---------------------------------------------------------
    def launch(self) -> None:
        for net in self.netlist.nets.values():
            if net.driver is None and not net.is_clock:
                self.arrival[net.name] = 0.0
                self.slew[net.name] = DEFAULT_INPUT_SLEW_NS
        self.launch_sequential(self.netlist.sequential_instances())

    def launch_sequential(self, insts: Iterable[Instance]) -> None:
        """Arrival and slew at each sequential output: the instance's
        clock latency plus its clock-to-q arc at the default input slew."""
        calc = self.calc
        cache = calc.cached_parasitics()
        memo = calc.arc_memo
        nets = self.netlist.nets
        instances = self.netlist.instances
        arrival = self.arrival
        slew = self.slew
        for inst in insts:
            cell = inst.cell
            pin_nets = inst._pin_nets
            out_net = pin_nets.get(cell.output_pin)
            if out_net is None:
                continue
            para = cache.get(out_net) or calc.net_parasitics(nets[out_net])
            latency = self.latencies.get(inst.name, 0.0)
            arc = cell.launch_arc
            if arc is None:
                arrival[out_net] = latency
                slew[out_net] = DEFAULT_INPUT_SLEW_NS
                continue
            load = para.total_cap_ff
            hit = (memo.get((id(arc), DEFAULT_INPUT_SLEW_NS, load))
                   or calc.lookup_arc(arc, DEFAULT_INPUT_SLEW_NS, load))
            delay, out_slew = hit
            clock_net = pin_nets.get(cell.clock_pin)
            if clock_net is not None:
                drv = nets[clock_net].driver
                if (drv is not None
                        and instances[drv[0]].cell.vdd_v != cell.vdd_v):
                    derate = calc.input_derates(inst, nets[clock_net])
                    delay *= derate[0]
                    out_slew *= derate[1]
            arrival[out_net] = latency + delay
            slew[out_net] = out_slew

    def input_arrival_slew(
        self, inst: Instance, pin: str
    ) -> tuple[float, float]:
        """Arrival and slew at one instance input pin.

        The rule for an unconnected or unreached input: it is a constant,
        arrival 0 at the default slew.  Otherwise the arrival is the
        net's plus the pin's wire delay, read from the net's parasitics,
        which are read only when the net carries an arrival.  The loops
        of this class inline the same rule per arc; this method serves
        the backtrace's capture pin.  Which nets a pass extracts must not
        change, because a cached net can be stale (see the invalidation
        contract in :mod:`repro.timing.incremental`).
        """
        net_name = inst._pin_nets.get(pin)
        if net_name is None:
            return 0.0, DEFAULT_INPUT_SLEW_NS
        base = self.arrival.get(net_name)
        if base is None:
            # Undriven/unreached net: treat as constant (never toggles).
            return 0.0, DEFAULT_INPUT_SLEW_NS
        para = self.calc.net_parasitics(self.netlist.nets[net_name])
        wire = para.sink_delay_ns.get((inst.name, pin), 0.0)
        return base + wire, self.slew.get(net_name, DEFAULT_INPUT_SLEW_NS)

    def propagate(self, order: Iterable[Instance] | None = None) -> None:
        """Output arrival, slew and worst input of each instance of
        ``order``: the whole combinational core in topological order by
        default, or the incremental session's re-levelized dirty cone.

        The input with the largest arrival plus (derated) arc delay sets
        the output, the first one on a tie.  On an unreached output (no
        timing arc) any stale entries are deleted, so a re-evaluation
        converges to exactly the state a fresh propagation would produce.
        """
        if order is None:
            order = self.netlist.topological_order()
        calc = self.calc
        cache = calc.cached_parasitics()
        memo = calc.arc_memo
        nets = self.netlist.nets
        instances = self.netlist.instances
        arrival = self.arrival
        slew = self.slew
        worst_input = self.worst_input
        for inst in order:
            cell = inst.cell
            pin_nets = inst._pin_nets
            out_net = pin_nets.get(cell.output_pin)
            if out_net is None:
                continue
            para = cache.get(out_net) or calc.net_parasitics(nets[out_net])
            load = para.total_cap_ff
            name = inst.name
            vdd = cell.vdd_v
            best_arr = -_INF
            best_slew = DEFAULT_INPUT_SLEW_NS
            best_pin = ""
            for pin, arc in cell.input_arcs:
                net_name = pin_nets.get(pin)
                base = None if net_name is None else arrival.get(net_name)
                if base is None:
                    arr_in = 0.0
                    slew_in = DEFAULT_INPUT_SLEW_NS
                else:
                    para = (cache.get(net_name)
                            or calc.net_parasitics(nets[net_name]))
                    arr_in = base + para.sink_delay_ns.get((name, pin), 0.0)
                    slew_in = slew.get(net_name, DEFAULT_INPUT_SLEW_NS)
                hit = (memo.get((id(arc), slew_in, load))
                       or calc.lookup_arc(arc, slew_in, load))
                delay, out_slew = hit
                if net_name is not None:
                    drv = nets[net_name].driver
                    if drv is not None and instances[drv[0]].cell.vdd_v != vdd:
                        derate = calc.input_derates(inst, nets[net_name])
                        delay *= derate[0]
                        out_slew *= derate[1]
                arr_out = arr_in + delay
                if arr_out > best_arr:
                    best_arr = arr_out
                    best_slew = out_slew
                    best_pin = pin
            if best_arr == -_INF:
                arrival.pop(out_net, None)
                slew.pop(out_net, None)
                worst_input.pop(name, None)
                continue
            arrival[out_net] = best_arr
            slew[out_net] = best_slew
            worst_input[name] = best_pin

    # -- capture ---------------------------------------------------------
    def endpoint_base(self) -> list[tuple[tuple[str, str], float, float, float]]:
        """Period-independent endpoint terms: (key, arrival, setup, latency).

        Arrivals, slews (hence setup times), and clock latencies do not
        depend on the clock period; only the required time does.  The
        incremental session caches this list across period probes and
        re-derives the slack dict per candidate period in O(endpoints).
        Only inputs whose net carries an arrival are endpoints.
        """
        calc = self.calc
        cache = calc.cached_parasitics()
        nets = self.netlist.nets
        arrival = self.arrival
        slew = self.slew
        base: list[tuple[tuple[str, str], float, float, float]] = []
        for inst in self.netlist.sequential_instances():
            name = inst.name
            cell = inst.cell
            pin_nets = inst._pin_nets
            latency = self.latencies.get(name, 0.0)
            for pin in cell.input_pins:
                net_name = pin_nets.get(pin)
                if net_name is None:
                    continue
                net_arrival = arrival.get(net_name)
                if net_arrival is None:
                    continue
                para = (cache.get(net_name)
                        or calc.net_parasitics(nets[net_name]))
                arr = net_arrival + para.sink_delay_ns.get((name, pin), 0.0)
                setup = calc.setup_time(
                    cell, slew.get(net_name, DEFAULT_INPUT_SLEW_NS)
                )
                base.append(((name, pin), arr, setup, latency))
        return base

    @staticmethod
    def slacks_at(
        period_ns: float,
        base: list[tuple[tuple[str, str], float, float, float]],
    ) -> dict[tuple[str, str], float]:
        """Endpoint slacks at one period from the period-independent base."""
        slacks: dict[tuple[str, str], float] = {}
        for key, arr, setup, latency in base:
            required = period_ns + latency - setup
            slacks[key] = required - arr
        return slacks

    def endpoint_slacks(self) -> dict[tuple[str, str], float]:
        return self.slacks_at(self.period_ns, self.endpoint_base())

    # -- backward ---------------------------------------------------------
    def seed_required_map(
        self, endpoints: dict[tuple[str, str], float]
    ) -> dict[str, float]:
        """Required time each endpoint imposes at its net's driver output."""
        calc = self.calc
        cache = calc.cached_parasitics()
        nets = self.netlist.nets
        instances = self.netlist.instances
        arrival = self.arrival
        seeds: dict[str, float] = {}
        for (inst_name, pin), slack in endpoints.items():
            net_name = instances[inst_name]._pin_nets.get(pin)
            if net_name is None:
                continue
            para = cache.get(net_name) or calc.net_parasitics(nets[net_name])
            wire = para.sink_delay_ns.get((inst_name, pin), 0.0)
            base = arrival.get(net_name)
            arr = 0.0 if base is None else base + wire
            req_at_driver = arr + slack - wire
            if req_at_driver < seeds.get(net_name, _INF):
                seeds[net_name] = req_at_driver
        return seeds

    def propagate_required(self, endpoints: dict[tuple[str, str], float]) -> None:
        """Backward pass: required time at every net's driver output.

        Each timed input arc pushes ``required(output) - arc delay - wire
        delay`` onto its input net, which keeps the minimum.  Every
        connected input net's parasitics are read, reached or not.
        """
        required = self.required
        for net_name, req_at_driver in self.seed_required_map(endpoints).items():
            prev = required.get(net_name, _INF)
            required[net_name] = min(prev, req_at_driver)

        calc = self.calc
        cache = calc.cached_parasitics()
        memo = calc.arc_memo
        nets = self.netlist.nets
        instances = self.netlist.instances
        arrival = self.arrival
        slew = self.slew
        for inst in reversed(self.netlist.topological_order()):
            cell = inst.cell
            pin_nets = inst._pin_nets
            out_net = pin_nets.get(cell.output_pin)
            if out_net is None:
                continue
            req_out = required.get(out_net, _INF)
            if req_out == _INF:
                continue
            para = cache.get(out_net) or calc.net_parasitics(nets[out_net])
            load = para.total_cap_ff
            name = inst.name
            vdd = cell.vdd_v
            for pin, arc in cell.input_arcs:
                net_name = pin_nets.get(pin)
                if net_name is None:
                    continue
                para = (cache.get(net_name)
                        or calc.net_parasitics(nets[net_name]))
                slew_in = (
                    slew.get(net_name, DEFAULT_INPUT_SLEW_NS)
                    if net_name in arrival else DEFAULT_INPUT_SLEW_NS
                )
                hit = (memo.get((id(arc), slew_in, load))
                       or calc.lookup_arc(arc, slew_in, load))
                delay = hit[0]
                drv = nets[net_name].driver
                if drv is not None and instances[drv[0]].cell.vdd_v != vdd:
                    delay *= calc.input_derates(inst, nets[net_name])[0]
                candidate = (
                    req_out - delay - para.sink_delay_ns.get((name, pin), 0.0)
                )
                if candidate < required.get(net_name, _INF):
                    required[net_name] = candidate

    def cell_slacks(self) -> dict[str, float]:
        """Worst slack of any path through each instance (criticality)."""
        slacks: dict[str, float] = {}
        for inst in self.netlist.instances.values():
            out_net = inst._pin_nets.get(inst.cell.output_pin)
            if out_net is None:
                continue
            arr = self.arrival.get(out_net)
            req = self.required.get(out_net)
            if arr is None or req is None or req == _INF:
                continue
            slacks[inst.name] = req - arr
        return slacks

    # -- path extraction ---------------------------------------------------
    def backtrace(self, endpoint: tuple[str, str], slack: float) -> CriticalPath:
        """Follow the worst inputs back from ``endpoint`` to a launch."""
        inst_name, pin = endpoint
        calc = self.calc
        cache = calc.cached_parasitics()
        memo = calc.arc_memo
        nets = self.netlist.nets
        instances = self.netlist.instances
        arrival = self.arrival
        capture = instances[inst_name]
        _, slew_in = self.input_arrival_slew(capture, pin)
        setup = calc.setup_time(capture.cell, slew_in)
        steps: list[PathStep] = []

        current_inst = capture
        current_pin = pin
        launch_latency = 0.0
        guard = 0
        while guard < 100000:
            guard += 1
            net_name = current_inst._pin_nets.get(current_pin)
            if net_name is None:
                break
            net = nets[net_name]
            para = cache.get(net_name) or calc.net_parasitics(net)
            wire = para.sink_delay_ns.get((current_inst.name, current_pin), 0.0)
            if net.driver is None:
                # reached a primary input
                break
            driver = instances[net.driver[0]]
            cell = driver.cell
            # wirelength share: manhattan distance when placed, else share
            if (driver.x_um is not None and driver.y_um is not None
                    and current_inst.x_um is not None
                    and current_inst.y_um is not None):
                here = current_inst.cell
                seg_len = abs(
                    (driver.x_um + cell.width_um / 2.0)
                    - (current_inst.x_um + here.width_um / 2.0)
                ) + abs(
                    (driver.y_um + cell.height_um / 2.0)
                    - (current_inst.y_um + here.height_um / 2.0)
                )
            else:
                seg_len = para.length_um / max(1, net.fanout)
            # The driver's output net is this net: its load is this net's.
            load = para.total_cap_ff
            if cell.is_sequential:
                arc = cell.launch_arc
                in_net = driver._pin_nets.get(cell.clock_pin)
                slew_at = DEFAULT_INPUT_SLEW_NS
            else:
                worst_pin = self.worst_input.get(driver.name)
                if worst_pin is None:
                    break
                arc = cell.arc_to(cell.output_pin, worst_pin)
                in_net = driver._pin_nets.get(worst_pin)
                slew_at = (
                    self.slew.get(in_net, DEFAULT_INPUT_SLEW_NS)
                    if in_net is not None and in_net in arrival
                    else DEFAULT_INPUT_SLEW_NS
                )
            delay = 0.0
            if arc is not None:
                hit = (memo.get((id(arc), slew_at, load))
                       or calc.lookup_arc(arc, slew_at, load))
                delay = hit[0]
                if in_net is not None:
                    drv = nets[in_net].driver
                    if (drv is not None
                            and instances[drv[0]].cell.vdd_v != cell.vdd_v):
                        delay *= calc.input_derates(driver, nets[in_net])[0]
            steps.append(
                PathStep(
                    instance=driver.name,
                    cell_name=cell.name,
                    tier=driver.tier,
                    arc_delay_ns=delay,
                    wire_delay_ns=wire,
                    wirelength_um=seg_len,
                    crosses_tier=driver.tier != current_inst.tier,
                )
            )
            if cell.is_sequential:
                launch_latency = self.latencies.get(driver.name, 0.0)
                break
            current_inst = driver
            current_pin = worst_pin
        else:
            raise TimingError("path backtrace did not terminate")

        steps.reverse()
        return CriticalPath(
            endpoint=endpoint,
            slack_ns=slack,
            launch_latency_ns=launch_latency,
            capture_latency_ns=self.latencies.get(inst_name, 0.0),
            setup_ns=setup,
            steps=tuple(steps),
        )


def run_sta(
    netlist: Netlist,
    calc: DelayCalculator,
    period_ns: float,
    clock_latencies: dict[str, float] | None = None,
    *,
    with_cell_slacks: bool = True,
) -> TimingReport:
    """Run a full setup-timing analysis at one clock period.

    Parameters
    ----------
    netlist:
        The design; sequential cells define launch/capture points.
    calc:
        A :class:`~repro.timing.delaycalc.DelayCalculator` bound to the
        netlist and a wire model.
    period_ns:
        Target clock period.
    clock_latencies:
        Per-sequential-instance clock insertion delay from CTS; ``None``
        analyzes with an ideal clock.
    with_cell_slacks:
        Skip the backward pass when per-cell criticality is not needed
        (saves roughly half the runtime inside optimization loops).
    """
    if period_ns <= 0:
        raise TimingError(f"period must be positive, got {period_ns}")
    with span("sta", period_ns=period_ns, cell_slacks=with_cell_slacks):
        engine = StaEngine(netlist, calc, period_ns, clock_latencies)
        engine.launch()
        engine.propagate()
        endpoint_slacks = engine.endpoint_slacks()
        if endpoint_slacks:
            wns = min(endpoint_slacks.values())
            tns = sum((s for s in endpoint_slacks.values() if s < 0), 0.0)
            worst = min(endpoint_slacks, key=endpoint_slacks.get)
            critical = engine.backtrace(worst, endpoint_slacks[worst])
        else:
            wns, tns, critical = 0.0, 0.0, None

        cell_slack: dict[str, float] = {}
        if with_cell_slacks and endpoint_slacks:
            engine.propagate_required(endpoint_slacks)
            cell_slack = engine.cell_slacks()
        emit_metric("wns_ns", wns)
        emit_metric("tns_ns", tns)

    return TimingReport(
        period_ns=period_ns,
        wns_ns=wns,
        tns_ns=tns,
        endpoint_slacks=endpoint_slacks,
        cell_slack=cell_slack,
        critical_path=critical,
    )


def top_critical_paths(
    netlist: Netlist,
    calc: DelayCalculator,
    report: TimingReport,
    count: int,
    clock_latencies: dict[str, float] | None = None,
) -> list[CriticalPath]:
    """Backtrace the ``count`` worst endpoints of a finished STA run.

    Used by the repartitioning ECO (Algorithm 1) and the Table VIII
    top-100-paths skew analysis.
    """
    engine = StaEngine(netlist, calc, report.period_ns, clock_latencies)
    engine.launch()
    engine.propagate()
    paths = []
    for endpoint, slack in report.worst_endpoints(count):
        paths.append(engine.backtrace(endpoint, slack))
    return paths
