"""The timing hot path against a frozen copy of its loop version.

``REPRO_STA=full`` twins run the same ``StaEngine.eval_instance`` as
the incremental path, so they cannot catch an arithmetic change inside
it.  This module keeps the straightforward implementation the engine
was optimized from -- scan-based cell accessors, the per-quantity
``PlacementWireModel.extract``, two table lookups per arc, and forward
and backward passes that look every net up again per use -- and
requires the live engine to agree with it bit for bit: arrivals, slews,
required times, worst inputs, cell slacks (with dict order) and the
critical path, on all four designs and on a partitioned 3D_HET design
where the input-boundary derates fire.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LibraryError
from repro.flow.design import Design
from repro.flow.hetero import run_flow_hetero_3d
from repro.flow.stages import legalize_all_tiers, place_with_congestion_control
from repro.integrity.checkpoint import design_from_dict, design_to_dict
from repro.liberty.cells import CellFunction
from repro.liberty.presets import make_library_pair
from repro.liberty.spice import (
    input_voltage_delay_factor,
    input_voltage_slew_factor,
)
from repro.liberty.timing_model import TimingTable, linear_delay_table
from repro.netlist.generators import DESIGN_NAMES, generate_netlist
from repro.timing.delaycalc import (
    DelayCalculator,
    FanoutWireModel,
    PlacementWireModel,
    steiner_correction,
)
from repro.timing.incremental import TimingSession
from repro.timing.sta import DEFAULT_INPUT_SLEW_NS, StaEngine, run_sta
from repro.units import RC_TO_NS

LIB12, LIB9 = make_library_pair()
SCALE = 0.25
SEED = 1
PERIOD_NS = 0.6
_INF = float("inf")


# ----------------------------------------------------------------------
# the reference: scan-based accessors, two-call lookup, old loops
# ----------------------------------------------------------------------
def ref_is_sequential(cell) -> bool:
    return cell.function.is_sequential


def ref_input_pins(cell) -> tuple[str, ...]:
    return tuple(
        name for name, pin in cell.pins.items() if pin.direction == "input"
    )


def ref_output_pin(cell) -> str:
    for name, pin in cell.pins.items():
        if pin.direction == "output":
            return name
    raise LibraryError(f"{cell.name} has no output pin")


def ref_clock_pin(cell) -> str | None:
    for name, pin in cell.pins.items():
        if pin.direction == "clock":
            return name
    return None


def ref_arc_to(cell, to_pin: str, from_pin: str):
    for arc in cell.arcs:
        if arc.from_pin == from_pin and arc.to_pin == to_pin:
            if arc.kind in ("combinational", "clk_to_q"):
                return arc
    return None


def ref_lookup(table: TimingTable, slew_ns: float, load_ff: float) -> float:
    slews = table.slew_axis
    loads = table.load_axis

    i = bisect_left(slews, slew_ns) - 1
    if i < 0:
        i = 0
    elif i > len(slews) - 2:
        i = len(slews) - 2
    j = bisect_left(loads, load_ff) - 1
    if j < 0:
        j = 0
    elif j > len(loads) - 2:
        j = len(loads) - 2

    s0, s1 = slews[i], slews[i + 1]
    l0, l1 = loads[j], loads[j + 1]
    ts = (slew_ns - s0) / (s1 - s0)
    tl = (load_ff - l0) / (l1 - l0)

    row0 = table.values[i]
    row1 = table.values[i + 1]
    v00, v01 = row0[j], row0[j + 1]
    v10, v11 = row1[j], row1[j + 1]
    return float(
        v00 * (1 - ts) * (1 - tl)
        + v01 * (1 - ts) * tl
        + v10 * ts * (1 - tl)
        + v11 * ts * tl
    )


def ref_extract(lib, netlist, net):
    """``PlacementWireModel.extract`` walking the pins once per quantity."""
    points = []
    driver_point = None
    if net.driver is not None:
        inst = netlist.instances[net.driver[0]]
        x, y = inst.center()
        driver_point = (x, y, inst.tier)
        points.append(driver_point)
    for sink_name, _pin in net.sinks:
        inst = netlist.instances[sink_name]
        x, y = inst.center()
        points.append((x, y, inst.tier))
    if not points:
        return 0.0, 0.0, {}, 0

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
    length = hpwl * steiner_correction(len(net.sinks))
    tiers = {p[2] for p in points}
    miv_count = 0
    if len(tiers) > 1:
        driver_tier = points[0][2] if driver_point is None else driver_point[2]
        foreign = sum(1 for p in points[1:] if p[2] != driver_tier)
        miv_count = max(1, (foreign + 1) // 2)

    wire_cap = length * lib.wire_c_ff_per_um
    pin_cap = sum(
        netlist.instances[i].cell.input_capacitance_ff(p) for i, p in net.sinks
    )
    total_cap = wire_cap + pin_cap + miv_count * lib.miv_c_ff

    sink_delay = {}
    for sink_name, pin in net.sinks:
        sink_inst = netlist.instances[sink_name]
        if driver_point is None:
            sink_delay[(sink_name, pin)] = 0.0
            continue
        sx, sy = sink_inst.center()
        dist = abs(sx - driver_point[0]) + abs(sy - driver_point[1])
        seg_r = dist * lib.wire_r_kohm_per_um
        seg_c = dist * lib.wire_c_ff_per_um
        sink_cap = sink_inst.cell.input_capacitance_ff(pin)
        delay = seg_r * (seg_c / 2.0 + sink_cap) * RC_TO_NS
        if sink_inst.tier != driver_point[2]:
            delay += lib.miv_r_kohm * (lib.miv_c_ff / 2.0 + sink_cap) * RC_TO_NS
        sink_delay[(sink_name, pin)] = delay
    return length, total_cap, sink_delay, miv_count


class RefCalc:
    """Delay calculation without memo, fused lookup or net hand-over."""

    def __init__(self, netlist, lib, libraries, placed: bool):
        self.netlist = netlist
        self.lib = lib
        self.libraries = libraries
        self.placed = placed
        self.fanout_model = FanoutWireModel(lib)
        self.cache = {}

    def net_parasitics(self, net):
        hit = self.cache.get(net.name)
        if hit is None:
            if self.placed:
                length, cap, delays, _ = ref_extract(self.lib, self.netlist, net)
            else:
                para = self.fanout_model.extract(self.netlist, net)
                length, cap, delays = (
                    para.length_um, para.total_cap_ff, para.sink_delay_ns
                )
            hit = self.cache[net.name] = (length, cap, delays)
        return hit

    def output_load_ff(self, inst, out_pin):
        net_name = inst.net_of(out_pin)
        if net_name is None:
            return 0.0
        return self.net_parasitics(self.netlist.nets[net_name])[1]

    def input_derates(self, inst, in_pin):
        net_name = inst.net_of(in_pin)
        if net_name is None:
            return 1.0, 1.0
        net = self.netlist.nets[net_name]
        driver = self.netlist.driver_instance(net)
        if driver is None:
            return 1.0, 1.0
        vg = driver.cell.vdd_v
        if abs(vg - inst.cell.vdd_v) < 1e-9:
            return 1.0, 1.0
        if inst.cell.function is CellFunction.LEVEL_SHIFTER:
            return 1.0, 1.0
        lib = self.libraries[inst.cell.library_name]
        return (
            input_voltage_delay_factor(lib.vdd_v, lib.vth_v, vg),
            input_voltage_slew_factor(lib.vdd_v, lib.vth_v, vg),
        )

    def arc_delay_slew(self, inst, arc, input_slew_ns, load_ff):
        delay = ref_lookup(arc.delay, input_slew_ns, load_ff)
        slew = ref_lookup(arc.output_slew, input_slew_ns, load_ff)
        derate_d, derate_s = self.input_derates(inst, arc.from_pin)
        return delay * derate_d, slew * derate_s

    def setup_time(self, cell, data_slew_ns):
        for arc in cell.arcs:
            if arc.kind == "setup":
                return ref_lookup(arc.delay, data_slew_ns, 0.0)
        return cell.setup_ns


class RefEngine:
    """The forward/backward passes as they were before the hot-path work."""

    def __init__(self, netlist, calc: RefCalc, period_ns, latencies):
        self.netlist = netlist
        self.calc = calc
        self.period_ns = period_ns
        self.latencies = latencies or {}
        self.arrival = {}
        self.slew = {}
        self.required = {}
        self.worst_input = {}

    def sequential(self):
        return [
            i for i in self.netlist.instances.values()
            if ref_is_sequential(i.cell)
        ]

    def launch(self):
        for net in self.netlist.nets.values():
            if net.driver is None and not net.is_clock:
                self.arrival[net.name] = 0.0
                self.slew[net.name] = DEFAULT_INPUT_SLEW_NS
        for inst in self.sequential():
            out_pin = ref_output_pin(inst.cell)
            net_name = inst.net_of(out_pin)
            if net_name is None:
                continue
            clock_pin = ref_clock_pin(inst.cell)
            arc = ref_arc_to(inst.cell, out_pin, clock_pin) if clock_pin else None
            latency = self.latencies.get(inst.name, 0.0)
            load = self.calc.output_load_ff(inst, out_pin)
            if arc is None:
                self.arrival[net_name] = latency
                self.slew[net_name] = DEFAULT_INPUT_SLEW_NS
                continue
            delay, out_slew = self.calc.arc_delay_slew(
                inst, arc, DEFAULT_INPUT_SLEW_NS, load
            )
            self.arrival[net_name] = latency + delay
            self.slew[net_name] = out_slew

    def input_arrival_slew(self, inst, pin):
        net_name = inst.net_of(pin)
        if net_name is None:
            return 0.0, DEFAULT_INPUT_SLEW_NS
        net = self.netlist.nets[net_name]
        base = self.arrival.get(net_name)
        if base is None:
            return 0.0, DEFAULT_INPUT_SLEW_NS
        wire = self.calc.net_parasitics(net)[2].get((inst.name, pin), 0.0)
        return base + wire, self.slew.get(net_name, DEFAULT_INPUT_SLEW_NS)

    def propagate(self):
        for inst in self.netlist.topological_order():
            out_pin = ref_output_pin(inst.cell)
            out_net = inst.net_of(out_pin)
            if out_net is None:
                continue
            load = self.calc.output_load_ff(inst, out_pin)
            best_arr = -_INF
            best_slew = DEFAULT_INPUT_SLEW_NS
            best_pin = ""
            for pin in ref_input_pins(inst.cell):
                arc = ref_arc_to(inst.cell, out_pin, pin)
                if arc is None:
                    continue
                arr_in, slew_in = self.input_arrival_slew(inst, pin)
                delay, out_slew = self.calc.arc_delay_slew(
                    inst, arc, slew_in, load
                )
                if arr_in + delay > best_arr:
                    best_arr = arr_in + delay
                    best_slew = out_slew
                    best_pin = pin
            if best_arr == -_INF:
                self.arrival.pop(out_net, None)
                self.slew.pop(out_net, None)
                self.worst_input.pop(inst.name, None)
                continue
            self.arrival[out_net] = best_arr
            self.slew[out_net] = best_slew
            self.worst_input[inst.name] = best_pin

    def endpoint_slacks(self):
        slacks = {}
        for inst in self.sequential():
            latency = self.latencies.get(inst.name, 0.0)
            for pin in ref_input_pins(inst.cell):
                arr, slew_in = self.input_arrival_slew(inst, pin)
                net_name = inst.net_of(pin)
                if net_name is None or self.arrival.get(net_name) is None:
                    continue
                setup = self.calc.setup_time(inst.cell, slew_in)
                required = self.period_ns + latency - setup
                slacks[(inst.name, pin)] = required - arr
        return slacks

    def propagate_required(self, endpoints):
        seeds = {}
        for (inst_name, pin), slack in endpoints.items():
            inst = self.netlist.instances[inst_name]
            net_name = inst.net_of(pin)
            if net_name is None:
                continue
            net = self.netlist.nets[net_name]
            wire = self.calc.net_parasitics(net)[2].get((inst_name, pin), 0.0)
            arr, _ = self.input_arrival_slew(inst, pin)
            req_at_pin = arr + slack
            req_at_driver = req_at_pin - wire
            if req_at_driver < seeds.get(net_name, _INF):
                seeds[net_name] = req_at_driver
        for net_name, req_at_driver in seeds.items():
            prev = self.required.get(net_name, _INF)
            self.required[net_name] = min(prev, req_at_driver)

        for inst in reversed(self.netlist.topological_order()):
            out_pin = ref_output_pin(inst.cell)
            out_net = inst.net_of(out_pin)
            if out_net is None:
                continue
            req_out = self.required.get(out_net, _INF)
            if req_out == _INF:
                continue
            load = self.calc.output_load_ff(inst, out_pin)
            for pin in ref_input_pins(inst.cell):
                arc = ref_arc_to(inst.cell, out_pin, pin)
                if arc is None:
                    continue
                in_net = inst.net_of(pin)
                if in_net is None:
                    continue
                net = self.netlist.nets[in_net]
                _, slew_in = self.input_arrival_slew(inst, pin)
                delay, _ = self.calc.arc_delay_slew(inst, arc, slew_in, load)
                wire = self.calc.net_parasitics(net)[2].get((inst.name, pin), 0.0)
                candidate = req_out - delay - wire
                if candidate < self.required.get(in_net, _INF):
                    self.required[in_net] = candidate

    def cell_slacks(self):
        slacks = {}
        for inst in self.netlist.instances.values():
            out_net = inst.net_of(ref_output_pin(inst.cell))
            if out_net is None:
                continue
            arr = self.arrival.get(out_net)
            req = self.required.get(out_net)
            if arr is None or req is None or req == _INF:
                continue
            slacks[inst.name] = req - arr
        return slacks

    def backtrace(self, endpoint, slack):
        """(launch latency, setup, steps) of the worst-arrival chain."""
        inst_name, pin = endpoint
        capture = self.netlist.instances[inst_name]
        _, slew_in = self.input_arrival_slew(capture, pin)
        setup = self.calc.setup_time(capture.cell, slew_in)
        steps = []
        current_inst, current_pin = capture, pin
        launch_latency = 0.0
        while True:
            net_name = current_inst.net_of(current_pin)
            if net_name is None:
                break
            net = self.netlist.nets[net_name]
            length, _cap, delays = self.calc.net_parasitics(net)
            wire = delays.get((current_inst.name, current_pin), 0.0)
            driver = self.netlist.driver_instance(net)
            if driver is None:
                break
            if driver.is_placed and current_inst.is_placed:
                dx, dy = driver.center(), current_inst.center()
                seg_len = abs(dx[0] - dy[0]) + abs(dx[1] - dy[1])
            else:
                seg_len = length / max(1, net.fanout)
            crosses = driver.tier != current_inst.tier
            out_pin = ref_output_pin(driver.cell)
            if ref_is_sequential(driver.cell):
                clock_pin = ref_clock_pin(driver.cell)
                arc = ref_arc_to(driver.cell, out_pin, clock_pin) if clock_pin else None
                load = self.calc.output_load_ff(driver, out_pin)
                delay = 0.0
                if arc is not None:
                    delay, _ = self.calc.arc_delay_slew(
                        driver, arc, DEFAULT_INPUT_SLEW_NS, load
                    )
                steps.append((driver.name, driver.cell.name, driver.tier,
                              delay, wire, seg_len, crosses))
                launch_latency = self.latencies.get(driver.name, 0.0)
                break
            worst_pin = self.worst_input.get(driver.name)
            if worst_pin is None:
                break
            arc = ref_arc_to(driver.cell, out_pin, worst_pin)
            load = self.calc.output_load_ff(driver, out_pin)
            _, slew_at = self.input_arrival_slew(driver, worst_pin)
            delay, _ = self.calc.arc_delay_slew(driver, arc, slew_at, load)
            steps.append((driver.name, driver.cell.name, driver.tier,
                          delay, wire, seg_len, crosses))
            current_inst, current_pin = driver, worst_pin
        steps.reverse()
        return launch_latency, setup, steps


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def bits(mapping) -> list:
    """Items in order with floats as exact hex: equality is bit identity."""
    return [
        (k, v.hex() if isinstance(v, float) else v) for k, v in mapping.items()
    ]


def path_bits(path) -> list:
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in step)
        for step in path
    ]


def reference_run(netlist, lib, libraries, placed, latencies):
    ref = RefEngine(
        netlist, RefCalc(netlist, lib, libraries, placed), PERIOD_NS, latencies
    )
    ref.launch()
    ref.propagate()
    endpoints = ref.endpoint_slacks()
    worst = min(endpoints, key=endpoints.get)
    critical = ref.backtrace(worst, endpoints[worst])
    ref.propagate_required(endpoints)
    return ref, endpoints, critical, ref.cell_slacks()


def assert_matches_reference(design: Design, *, placed: bool, latencies=None):
    netlist = design.netlist
    lib = design.reference_library()
    libraries = design.libraries_by_name()
    ref, endpoints, critical, cell_slack = reference_run(
        netlist, lib, libraries, placed, latencies
    )
    ref_path = (critical[0], critical[1], path_bits(critical[2]))

    calc = design.calculator(placed=placed)
    engine = StaEngine(netlist, calc, PERIOD_NS, latencies)
    engine.launch()
    engine.propagate()
    assert bits(engine.arrival) == bits(ref.arrival)
    assert bits(engine.slew) == bits(ref.slew)
    assert bits(engine.worst_input) == bits(ref.worst_input)
    live_endpoints = engine.endpoint_slacks()
    assert bits(live_endpoints) == bits(endpoints)
    engine.propagate_required(live_endpoints)
    assert bits(engine.required) == bits(ref.required)
    assert bits(engine.cell_slacks()) == bits(cell_slack)

    for report in (
        run_sta(netlist, design.calculator(placed=placed), PERIOD_NS, latencies),
        TimingSession(netlist, design.calculator(placed=placed), latencies)
        .report(PERIOD_NS),
    ):
        assert bits(report.endpoint_slacks) == bits(endpoints)
        assert bits(report.cell_slack) == bits(cell_slack)
        path = report.critical_path
        steps = [dataclasses.astuple(s) for s in path.steps]
        assert (
            path.launch_latency_ns, path.setup_ns, path_bits(steps)
        ) == ref_path
    return engine


# ----------------------------------------------------------------------
# states
# ----------------------------------------------------------------------
def placed_2d(design_name: str) -> Design:
    netlist = generate_netlist(design_name, LIB12, scale=SCALE, seed=SEED)
    design = Design(design_name, "2D_12T", netlist, {0: LIB12},
                    target_period_ns=PERIOD_NS)
    place_with_congestion_control(design)
    legalize_all_tiers(design)
    return design


@pytest.fixture(scope="module")
def hetero_design() -> Design:
    """Partitioned and legalized: the 9-track tier drives 12-track cells."""
    design, _ = run_flow_hetero_3d(
        "aes", LIB12, LIB9, period_ns=PERIOD_NS, scale=SCALE, seed=SEED,
        until_stage="legalization",
    )
    return design


def launch_latencies(design: Design) -> dict[str, float]:
    return {
        inst.name: 0.004 * (k % 9)
        for k, inst in enumerate(design.netlist.sequential_instances())
    }


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("design_name", DESIGN_NAMES)
def test_placed_sta_matches_reference(design_name):
    design = placed_2d(design_name)
    assert_matches_reference(design, placed=True)
    assert_matches_reference(
        design, placed=True, latencies=launch_latencies(design)
    )


@pytest.mark.parametrize("design_name", DESIGN_NAMES)
def test_wire_load_sta_matches_reference(design_name):
    netlist = generate_netlist(design_name, LIB12, scale=SCALE, seed=SEED)
    design = Design(design_name, "2D_12T", netlist, {0: LIB12})
    assert_matches_reference(design, placed=False)


def test_hetero_sta_matches_reference_with_derates(hetero_design):
    design = hetero_design
    calc = design.calculator(placed=True)
    nets = design.netlist.nets
    derated = [
        inst.name
        for inst in design.netlist.instances.values()
        for pin in inst.cell.input_pins
        if calc.input_derates(inst, nets[inst.net_of(pin)]) != (1.0, 1.0)
    ]
    assert derated, "no input-boundary derate fires on this design"
    assert_matches_reference(design, placed=True)
    assert_matches_reference(
        design, placed=True, latencies=launch_latencies(design)
    )


def test_incremental_edits_match_reference(hetero_design):
    """Resizes through a live session, each checked against a fresh
    reference run (resizes invalidate every net they touch)."""
    design = design_from_dict(design_to_dict(hetero_design))
    netlist = design.netlist
    calc = design.calculator(placed=True)
    session = TimingSession(netlist, calc)
    session.report(PERIOD_NS)
    libs = design.libraries_by_name()
    combinational = [
        inst for inst in netlist.instances.values()
        if not inst.cell.is_sequential and not inst.cell.is_macro
    ]
    for step in range(6):
        inst = combinational[(step * 53) % len(combinational)]
        lib = libs[inst.cell.library_name]
        resized = lib.upsize(inst.cell) or lib.downsize(inst.cell)
        netlist.rebind(inst.name, resized)
        for _pin, net_name in inst.connected_pins():
            calc.invalidate(net_name)
        report = session.report(PERIOD_NS)
        _ref, endpoints, _path, cell_slack = reference_run(
            netlist, design.reference_library(), libs, True, None
        )
        assert bits(report.endpoint_slacks) == bits(endpoints)
        assert bits(report.cell_slack) == bits(cell_slack)
    assert session.stats.incremental_runs > 0


@pytest.mark.parametrize("design_name", DESIGN_NAMES)
def test_extract_matches_reference(design_name):
    design = placed_2d(design_name)
    model = PlacementWireModel(LIB12)
    for net in design.netlist.nets.values():
        para = model.extract(design.netlist, net)
        length, cap, delays, mivs = ref_extract(LIB12, design.netlist, net)
        assert para.length_um.hex() == length.hex()
        assert para.total_cap_ff.hex() == cap.hex()
        assert bits(para.sink_delay_ns) == bits(delays)
        assert para.miv_count == mivs


def test_extract_counts_mivs_like_reference(hetero_design):
    netlist = hetero_design.netlist
    model = PlacementWireModel(LIB12)
    cut = 0
    for net in netlist.nets.values():
        para = model.extract(netlist, net)
        length, cap, delays, mivs = ref_extract(LIB12, netlist, net)
        assert (para.total_cap_ff.hex(), para.miv_count) == (cap.hex(), mivs)
        assert bits(para.sink_delay_ns) == bits(delays)
        cut += mivs > 0
    assert cut > 0


@pytest.mark.parametrize("lib", [LIB12, LIB9], ids=lambda lib: lib.name)
def test_cell_metadata_matches_scans(lib):
    for cell in lib.cells:
        assert cell.is_sequential == ref_is_sequential(cell)
        assert cell.input_pins == ref_input_pins(cell)
        assert cell.output_pin == ref_output_pin(cell)
        assert cell.clock_pin == ref_clock_pin(cell)
        for to_pin in cell.pins:
            for from_pin in cell.pins:
                assert cell.arc_to(to_pin, from_pin) is ref_arc_to(
                    cell, to_pin, from_pin
                )
        assert cell.input_arcs == tuple(
            (pin, ref_arc_to(cell, cell.output_pin, pin))
            for pin in ref_input_pins(cell)
            if ref_arc_to(cell, cell.output_pin, pin) is not None
        )
        clock = ref_clock_pin(cell)
        assert cell.launch_arc is (
            ref_arc_to(cell, cell.output_pin, clock) if clock else None
        )


_ARCS = [arc for lib in (LIB12, LIB9) for cell in lib.cells for arc in cell.arcs]
_AXIS_SLEW = (0.01, 0.04, 0.1, 0.25, 0.6)
_AXIS_LOAD = (0.5, 2.0, 8.0, 32.0, 128.0)


@settings(max_examples=300, deadline=None)
@given(
    arc=st.sampled_from(_ARCS),
    slew=st.floats(-1.0, 5.0, allow_nan=False),
    load=st.floats(-50.0, 1000.0, allow_nan=False),
)
def test_fused_lookup_equals_two_lookups(arc, slew, load):
    """Inside and outside the axes: one bisect, both tables, same bits."""
    delay, out_slew = arc.delay.lookup_pair(arc.output_slew, slew, load)
    assert delay.hex() == arc.delay.lookup(slew, load).hex()
    assert out_slew.hex() == arc.output_slew.lookup(slew, load).hex()
    assert delay.hex() == ref_lookup(arc.delay, slew, load).hex()
    assert out_slew.hex() == ref_lookup(arc.output_slew, slew, load).hex()


@settings(max_examples=200, deadline=None)
@given(
    d0=st.floats(0.001, 0.2), r=st.floats(0.1, 20.0), k=st.floats(0.0, 1.0),
    slew=st.floats(-1.0, 5.0, allow_nan=False),
    load=st.floats(-50.0, 1000.0, allow_nan=False),
)
def test_fused_lookup_on_generated_tables(d0, r, k, slew, load):
    delay_table = linear_delay_table(d0, r, k, _AXIS_SLEW, _AXIS_LOAD)
    slew_table = linear_delay_table(1.2 * d0, 1.4 * r, k, _AXIS_SLEW, _AXIS_LOAD)
    pair = delay_table.lookup_pair(slew_table, slew, load)
    assert [v.hex() for v in pair] == [
        ref_lookup(delay_table, slew, load).hex(),
        ref_lookup(slew_table, slew, load).hex(),
    ]


def test_arc_rejects_tables_on_different_axes():
    """One bisect serves both tables only because their axes are shared."""
    arc = _ARCS[0]
    other_axes = linear_delay_table(0.01, 1.0, 0.1, (0.0, 1.0), (0.0, 10.0))
    with pytest.raises(LibraryError, match="share their axes"):
        dataclasses.replace(arc, output_slew=other_axes)
    with pytest.raises(LibraryError, match="share their axes"):
        dataclasses.replace(arc, delay=other_axes)
