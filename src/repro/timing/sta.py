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

from repro.errors import TimingError
from repro.liberty.cells import TimingArc
from repro.netlist.core import Instance, Net, Netlist
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
    across edits and re-evaluates only dirty cones through the exact
    same per-instance methods, which is what makes the incremental
    results bit-identical to a from-scratch run.
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
        for inst in self.netlist.sequential_instances():
            self._launch_sequential(inst)

    def _launch_sequential(self, inst: Instance) -> None:
        cell = inst.cell
        net_name = inst.net_of(cell.output_pin)
        if net_name is None:
            return
        arc = cell.launch_arc
        latency = self.latencies.get(inst.name, 0.0)
        load = self.calc.output_load_ff(inst, cell.output_pin)
        if arc is None:
            self.arrival[net_name] = latency
            self.slew[net_name] = DEFAULT_INPUT_SLEW_NS
            return
        delay, out_slew = self.calc.arc_delay_slew(
            inst, arc, DEFAULT_INPUT_SLEW_NS, load,
            self._net_on(inst, cell.clock_pin),
        )
        self.arrival[net_name] = latency + delay
        self.slew[net_name] = out_slew

    def _net_on(self, inst: Instance, pin: str) -> Net | None:
        net_name = inst.net_of(pin)
        return None if net_name is None else self.netlist.nets[net_name]

    def input_arrival_slew(
        self, inst: Instance, pin: str, net: Net | None
    ) -> tuple[float, float]:
        """Arrival and slew at one instance input pin.

        ``net`` is the net on ``pin`` (None when unconnected); callers
        pass it because they have just looked it up.  An unconnected or
        unreached net is a constant: arrival 0 at the default slew.  The
        parasitics of ``net`` are read only when it carries an arrival:
        which nets a pass extracts must not change, because a cached net
        can be stale (see the invalidation contract in
        :mod:`repro.timing.incremental`).
        """
        if net is None:
            return 0.0, DEFAULT_INPUT_SLEW_NS
        base = self.arrival.get(net.name)
        if base is None:
            # Undriven/unreached net: treat as constant (never toggles).
            return 0.0, DEFAULT_INPUT_SLEW_NS
        wire = self.calc.net_parasitics(net).sink_delay_ns.get((inst.name, pin), 0.0)
        return base + wire, self.slew.get(net.name, DEFAULT_INPUT_SLEW_NS)

    def eval_instance(self, inst: Instance) -> None:
        """(Re)compute one combinational instance's output arrival/slew.

        Shared by the full forward pass and the incremental dirty-cone
        update; on an unreached output any stale entries are deleted so a
        re-evaluation converges to exactly the state a fresh propagation
        would produce.

        Each input net is looked up once per arc and feeds the arrival,
        the wire delay and the derate.
        """
        cell = inst.cell
        out_net = inst.net_of(cell.output_pin)
        if out_net is None:
            return
        calc = self.calc
        nets = self.netlist.nets
        arrival = self.arrival
        load = calc.output_load_ff(inst, cell.output_pin)
        best_arr = -_INF
        best_slew = DEFAULT_INPUT_SLEW_NS
        best_pin = ""
        for pin, arc in cell.input_arcs:
            net_name = inst.net_of(pin)
            net = None if net_name is None else nets[net_name]
            arr_in, slew_in = self.input_arrival_slew(inst, pin, net)
            delay, out_slew = calc.arc_delay_slew(inst, arc, slew_in, load, net)
            if arr_in + delay > best_arr:
                best_arr = arr_in + delay
                best_slew = out_slew
                best_pin = pin
        if best_arr == -_INF:
            arrival.pop(out_net, None)
            self.slew.pop(out_net, None)
            self.worst_input.pop(inst.name, None)
            return
        arrival[out_net] = best_arr
        self.slew[out_net] = best_slew
        self.worst_input[inst.name] = best_pin

    def propagate(self) -> None:
        for inst in self.netlist.topological_order():
            self.eval_instance(inst)

    # -- capture ---------------------------------------------------------
    def endpoint_base(self) -> list[tuple[tuple[str, str], float, float, float]]:
        """Period-independent endpoint terms: (key, arrival, setup, latency).

        Arrivals, slews (hence setup times), and clock latencies do not
        depend on the clock period; only the required time does.  The
        incremental session caches this list across period probes and
        re-derives the slack dict per candidate period in O(endpoints).
        """
        base: list[tuple[tuple[str, str], float, float, float]] = []
        for inst in self.netlist.sequential_instances():
            latency = self.latencies.get(inst.name, 0.0)
            for pin in inst.cell.input_pins:
                net = self._net_on(inst, pin)
                if net is None or net.name not in self.arrival:
                    continue
                arr, slew_in = self.input_arrival_slew(inst, pin, net)
                setup = self.calc.setup_time(inst.cell, slew_in)
                base.append(((inst.name, pin), arr, setup, latency))
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
        seeds: dict[str, float] = {}
        for (inst_name, pin), slack in endpoints.items():
            inst = self.netlist.instances[inst_name]
            net = self._net_on(inst, pin)
            if net is None:
                continue
            wire = self.calc.net_parasitics(net).sink_delay_ns.get(
                (inst_name, pin), 0.0
            )
            arr, _ = self.input_arrival_slew(inst, pin, net)
            req_at_pin = arr + slack
            req_at_driver = req_at_pin - wire
            prev = seeds.get(net.name, _INF)
            if req_at_driver < prev:
                seeds[net.name] = req_at_driver
        return seeds

    def required_through(
        self, inst: Instance, pin: str, arc: TimingArc, req_out: float,
        load: float,
    ) -> tuple[str, float] | None:
        """``(input net, required time)`` one arc imposes on its input net.

        The net is looked up once for the slew, the arc delay and the wire
        delay.  None when the pin is unconnected.
        """
        net_name = inst.net_of(pin)
        if net_name is None:
            return None
        calc = self.calc
        net = self.netlist.nets[net_name]
        _, slew_in = self.input_arrival_slew(inst, pin, net)
        delay, _ = calc.arc_delay_slew(inst, arc, slew_in, load, net)
        wire = calc.net_parasitics(net).sink_delay_ns.get((inst.name, pin), 0.0)
        return net_name, req_out - delay - wire

    def propagate_required(self, endpoints: dict[tuple[str, str], float]) -> None:
        """Backward pass: required time at every net's driver output."""
        # Seed required times at endpoint input pins, mapped back to nets.
        required = self.required
        for net_name, req_at_driver in self.seed_required_map(endpoints).items():
            prev = required.get(net_name, _INF)
            required[net_name] = min(prev, req_at_driver)

        for inst in reversed(self.netlist.topological_order()):
            cell = inst.cell
            out_net = inst.net_of(cell.output_pin)
            if out_net is None:
                continue
            req_out = required.get(out_net, _INF)
            if req_out == _INF:
                continue
            load = self.calc.output_load_ff(inst, cell.output_pin)
            for pin, arc in cell.input_arcs:
                pulled = self.required_through(inst, pin, arc, req_out, load)
                if pulled is None:
                    continue
                in_net, candidate = pulled
                if candidate < required.get(in_net, _INF):
                    required[in_net] = candidate

    def cell_slacks(self) -> dict[str, float]:
        """Worst slack of any path through each instance (criticality)."""
        slacks: dict[str, float] = {}
        for inst in self.netlist.instances.values():
            out_net = inst.net_of(inst.cell.output_pin)
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
        inst_name, pin = endpoint
        capture = self.netlist.instances[inst_name]
        _, slew_in = self.input_arrival_slew(
            capture, pin, self._net_on(capture, pin)
        )
        setup = self.calc.setup_time(capture.cell, slew_in)
        steps: list[PathStep] = []

        current_inst = capture
        current_pin = pin
        launch_latency = 0.0
        guard = 0
        while guard < 100000:
            guard += 1
            net_name = current_inst.net_of(current_pin)
            if net_name is None:
                break
            net = self.netlist.nets[net_name]
            para = self.calc.net_parasitics(net)
            wire = para.sink_delay_ns.get((current_inst.name, current_pin), 0.0)
            driver = self.netlist.driver_instance(net)
            if driver is None:
                # reached a primary input
                break
            # wirelength share: manhattan distance when placed, else share
            if driver.is_placed and current_inst.is_placed:
                dx, dy = driver.center(), current_inst.center()
                seg_len = abs(dx[0] - dy[0]) + abs(dx[1] - dy[1])
            else:
                seg_len = para.length_um / max(1, net.fanout)
            crosses = driver.tier != current_inst.tier
            out_pin = driver.cell.output_pin
            if driver.cell.is_sequential:
                arc = driver.cell.launch_arc
                load = self.calc.output_load_ff(driver, out_pin)
                if arc is not None:
                    delay, _ = self.calc.arc_delay_slew(
                        driver, arc, DEFAULT_INPUT_SLEW_NS, load,
                        self._net_on(driver, driver.cell.clock_pin),
                    )
                else:
                    delay = 0.0
                steps.append(
                    PathStep(
                        instance=driver.name,
                        cell_name=driver.cell.name,
                        tier=driver.tier,
                        arc_delay_ns=delay,
                        wire_delay_ns=wire,
                        wirelength_um=seg_len,
                        crosses_tier=crosses,
                    )
                )
                launch_latency = self.latencies.get(driver.name, 0.0)
                break
            worst_pin = self.worst_input.get(driver.name)
            if worst_pin is None:
                break
            arc = driver.cell.arc_to(out_pin, worst_pin)
            load = self.calc.output_load_ff(driver, out_pin)
            in_net = self._net_on(driver, worst_pin)
            _, slew_at = self.input_arrival_slew(driver, worst_pin, in_net)
            delay, _ = self.calc.arc_delay_slew(
                driver, arc, slew_at, load, in_net
            )
            steps.append(
                PathStep(
                    instance=driver.name,
                    cell_name=driver.cell.name,
                    tier=driver.tier,
                    arc_delay_ns=delay,
                    wire_delay_ns=wire,
                    wirelength_um=seg_len,
                    crosses_tier=crosses,
                )
            )
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
