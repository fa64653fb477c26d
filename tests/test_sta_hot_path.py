"""Rules the flat STA loops inline, checked beyond their numbers.

``tests/test_sta_reference.py`` requires every number of the live engine
to equal a frozen copy of the loops it was optimized from.  The loops
also inline three rules whose slips would not always show there:

- which nets a pass extracts.  A cached net can be stale while a clone's
  deferred joins are pending, so each pass must read exactly the nets the
  reference reads, or a stale entry would be used by one and not the
  other;
- the input-boundary derate condition: the loops call
  ``DelayCalculator.input_derates`` only when a driver's supply differs
  from the cell's;
- the one-sweep ``PlacementWireModel.extract``, on random placements.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.flow.design import EditJournal
from repro.flow.opt import AreaBudget, _try_clone
from repro.liberty.cells import CellFunction
from repro.netlist.core import Netlist, PortDirection
from repro.netlist.generators import DESIGN_NAMES
from repro.timing.delaycalc import (
    DelayCalculator,
    FanoutWireModel,
    PlacementWireModel,
)
from repro.timing.incremental import TimingSession
from repro.timing.sta import DEFAULT_INPUT_SLEW_NS, StaEngine
from tests.test_sta_reference import (  # noqa: F401  (hetero_design: fixture)
    LIB9,
    LIB12,
    PERIOD_NS,
    RefCalc,
    RefEngine,
    bits,
    hetero_design,
    placed_2d,
    ref_extract,
)


# ----------------------------------------------------------------------
# (a) the extracted set
# ----------------------------------------------------------------------
def live_calc(design, cached):
    """A fresh placed calculator whose cache starts as ``cached``."""
    calc = DelayCalculator(
        design.netlist, PlacementWireModel(design.reference_library()),
        design.libraries_by_name(),
    )
    calc.cached_parasitics().update(cached)
    return calc


def reference_sets(design, cached):
    """Nets the reference holds after its forward pass, and after the
    endpoint slacks, the worst backtrace and the backward pass."""
    netlist = design.netlist
    calc = RefCalc(netlist, design.reference_library(),
                   design.libraries_by_name(), placed=True)
    calc.cache.update({
        name: (p.length_um, p.total_cap_ff, p.sink_delay_ns)
        for name, p in cached.items()
    })
    ref = RefEngine(netlist, calc, PERIOD_NS, None)
    ref.launch()
    ref.propagate()
    forward = set(calc.cache)
    endpoints = ref.endpoint_slacks()
    worst = min(endpoints, key=endpoints.get)
    ref.backtrace(worst, endpoints[worst])
    ref.propagate_required(endpoints)
    return forward, set(calc.cache), ref


def assert_extracts_like_reference(design, calc):
    """The live passes on ``calc``, and a report on a calculator that
    starts from the same cache, read exactly the reference's nets."""
    cached = dict(calc.cached_parasitics())
    ref_forward, ref_all, ref = reference_sets(design, cached)

    engine = StaEngine(design.netlist, calc, PERIOD_NS, None)
    engine.launch()
    engine.propagate()
    assert set(calc.cached_parasitics()) == ref_forward
    endpoints = engine.endpoint_slacks()
    worst = min(endpoints, key=endpoints.get)
    engine.backtrace(worst, endpoints[worst])
    engine.propagate_required(endpoints)
    assert set(calc.cached_parasitics()) == ref_all
    # Any stale entry in the starting cache fed both the same way.
    assert bits(engine.arrival) == bits(ref.arrival)
    assert bits(engine.required) == bits(ref.required)

    fresh = live_calc(design, cached)
    TimingSession(design.netlist, fresh).report(PERIOD_NS)
    assert set(fresh.cached_parasitics()) == ref_all


@pytest.mark.parametrize("design_name", DESIGN_NAMES)
def test_placed_passes_extract_the_reference_nets(design_name):
    design = placed_2d(design_name)
    assert_extracts_like_reference(design, live_calc(design, {}))


def test_an_unreached_input_is_not_extracted():
    """A gate on the clock net reads an input with no arrival: the
    forward pass must not extract it, and nothing needs the gate's
    required time."""
    design = placed_2d("aes")
    netlist = design.netlist
    clock = netlist.clock_port
    data = next(iter(netlist.sequential_instances()))
    gate = netlist.add_instance("gate", LIB12.get(CellFunction.AND2, 1))
    gate.x_um, gate.y_um = data.x_um, data.y_um
    netlist.connect(clock, "gate", "A")
    netlist.connect(data.net_of(data.cell.output_pin), "gate", "B")
    netlist.add_net("gated")
    netlist.connect("gated", "gate", "Y")
    calc = live_calc(design, {})
    assert_extracts_like_reference(design, calc)
    assert clock not in calc.cached_parasitics()


def test_hetero_passes_extract_the_reference_nets(hetero_design):
    assert_extracts_like_reference(hetero_design, live_calc(hetero_design, {}))


def test_passes_extract_the_reference_nets_with_deferred_joins():
    """A clone joins its driver's input nets with a deferred connection:
    their cached parasitics lack the clone's pin until the stage ends."""
    design = placed_2d("aes")
    netlist = design.netlist
    calc = live_calc(design, {})
    engine = StaEngine(netlist, calc, PERIOD_NS, None)
    engine.launch()
    engine.propagate()
    cache = calc.cached_parasitics()
    name = next(
        inst.name for inst in netlist.topological_order()
        if netlist.nets[inst.net_of(inst.cell.output_pin)].fanout >= 2
        and all(inst.net_of(pin) in cache for pin in inst.cell.input_pins)
    )
    names = set(netlist.instances)
    assert _try_clone(EditJournal(design, calc), name, AreaBudget(design))
    (clone,) = set(netlist.instances) - names
    stale = [
        net_name for pin, net_name in netlist.instances[clone].connected_pins()
        if net_name in cache and (clone, pin) not in cache[net_name].sink_delay_ns
    ]
    assert stale, "the clone's joins were not deferred"
    before = dict(cache)
    assert_extracts_like_reference(design, calc)
    # Neither the live passes nor the reference re-extracted them.
    assert all(cache[net_name] is before[net_name] for net_name in stale)


# ----------------------------------------------------------------------
# (b) the derate condition
# ----------------------------------------------------------------------
SUPPLIES = (0.55, 0.70, 0.81, 0.90)


def derate_netlist(driver_vdd: float, sink_vdd: float, sink_function):
    """A clock buffer and an inverter on ``driver_vdd`` drive a sink and a
    flip-flop on ``sink_vdd``: every arc kind crosses the boundary."""
    def cell(function, vdd):
        return dataclasses.replace(LIB12.get(function, 1), vdd_v=vdd)

    nl = Netlist("derate")
    nl.add_port("in", PortDirection.INPUT)
    nl.add_port("clk", PortDirection.INPUT, is_clock=True)
    for name, function, vdd in (
        ("cbuf", CellFunction.CLKBUF, driver_vdd),
        ("drv", CellFunction.INV, driver_vdd),
        ("snk", sink_function, sink_vdd),
        ("ff", CellFunction.DFF, sink_vdd),
    ):
        nl.add_instance(name, cell(function, vdd))
    for net in ("ck", "n", "out", "q"):
        nl.add_net(net)
    for net, inst, pin in (
        ("clk", "cbuf", "A"), ("ck", "cbuf", "Y"),
        ("in", "drv", "A"), ("n", "drv", "Y"),
        ("n", "snk", "A"), ("out", "snk", "Y"),
        ("out", "ff", "D"), ("ck", "ff", "CK"), ("q", "ff", "Q"),
    ):
        nl.connect(net, inst, pin)
    return nl


@st.composite
def supply_pairs(draw):
    driver_vdd = draw(st.sampled_from(SUPPLIES))
    kind = draw(st.sampled_from(("equal", "within 1e-9", "apart")))
    if kind == "equal":
        return driver_vdd, driver_vdd
    if kind == "within 1e-9":
        delta = draw(st.floats(1e-15, 9e-10))
        return driver_vdd, driver_vdd + draw(st.sampled_from((-delta, delta)))
    delta = draw(st.sampled_from((2e-9, 1e-6, 1e-3)) | st.floats(1e-8, 0.3))
    return driver_vdd, driver_vdd + draw(st.sampled_from((-delta, delta)))


@settings(max_examples=60, deadline=None)
@given(
    supplies=supply_pairs(),
    sink_function=st.sampled_from(
        (CellFunction.INV, CellFunction.LEVEL_SHIFTER)
    ),
)
def test_loops_apply_input_derates(supplies, sink_function):
    """Launch, the forward and backward passes, the incremental pull and
    the backtrace each scale the raw arc by ``input_derates``."""
    nl = derate_netlist(*supplies, sink_function)
    calc = DelayCalculator(nl, FanoutWireModel(LIB12), {LIB12.name: LIB12})
    session = TimingSession(nl, calc, full_fraction=1.0)
    report = session.report(PERIOD_NS)
    engine = session._engine
    inst = nl.instances
    para = calc.net_parasitics

    # The forward pass through the sink.
    arc = inst["snk"].cell.arc_to("Y", "A")
    load = para(nl.nets["out"]).total_cap_ff
    delay, out_slew = arc.delay.lookup_pair(
        arc.output_slew, engine.slew["n"], load
    )
    derate_d, derate_s = calc.input_derates(inst["snk"], nl.nets["n"])
    wire = para(nl.nets["n"]).sink_delay_ns[("snk", "A")]
    assert engine.arrival["out"] == (
        engine.arrival["n"] + wire + delay * derate_d
    )
    assert engine.slew["out"] == out_slew * derate_s

    # Launch through the clock pin.
    launch = inst["ff"].cell.launch_arc
    q_delay, q_slew = launch.delay.lookup_pair(
        launch.output_slew, DEFAULT_INPUT_SLEW_NS,
        para(nl.nets["q"]).total_cap_ff,
    )
    ff_d, ff_s = calc.input_derates(inst["ff"], nl.nets["ck"])
    assert engine.arrival["q"] == q_delay * ff_d
    assert engine.slew["q"] == q_slew * ff_s

    # The backtrace reports the derated arc.
    steps = {s.instance: s for s in report.critical_path.steps}
    assert steps["snk"].arc_delay_ns == delay * derate_d

    # The backward push, then the incremental pull, over the same arc.
    expected = engine.required["out"] - delay * derate_d - wire
    assert engine.required["n"] == expected
    calc.invalidate("out")
    session.report(PERIOD_NS)
    assert session.stats.backward_incremental == 1
    assert engine.required["n"] == expected


# ----------------------------------------------------------------------
# (c) one-sweep extraction on random placements
# ----------------------------------------------------------------------
CELLS = [
    lib.get(function, drive)
    for lib in (LIB12, LIB9)
    for function in (CellFunction.INV, CellFunction.NAND2, CellFunction.BUF)
    for drive in (1, 4)
]
#: A few shared values, so bounding boxes and distances tie.
COORDS = st.one_of(
    st.sampled_from((0.0, 0.5, 2.0, 7.25)),
    st.floats(0.0, 400.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def placed_nets(draw):
    """One net with an optional driver and 0-6 sinks, placed at random on
    two tiers."""
    driven = draw(st.booleans())
    n_sinks = draw(st.integers(0 if driven else 1, 6))
    nl = Netlist("rand")
    net = nl.add_net("n")
    for k in range(int(driven) + n_sinks):
        inst = nl.add_instance(
            f"i{k}", draw(st.sampled_from(CELLS)), tier=draw(st.integers(0, 1))
        )
        inst.x_um, inst.y_um = draw(COORDS), draw(COORDS)
        pin = inst.cell.output_pin if driven and k == 0 else "A"
        nl.connect("n", inst.name, pin)
    return nl, net


@settings(max_examples=300, deadline=None)
@given(case=placed_nets())
def test_extract_matches_reference_on_random_placements(case):
    nl, net = case
    para = PlacementWireModel(LIB12).extract(nl, net)
    length, cap, delays, mivs = ref_extract(LIB12, nl, net)
    assert para.length_um.hex() == length.hex()
    assert para.total_cap_ff.hex() == cap.hex()
    assert bits(para.sink_delay_ns) == bits(delays)
    assert para.miv_count == mivs


def test_extract_of_empty_net_matches_reference():
    nl = Netlist("empty")
    net = nl.add_net("n")
    para = PlacementWireModel(LIB12).extract(nl, net)
    assert (para.length_um, para.total_cap_ff, para.sink_delay_ns,
            para.miv_count) == ref_extract(LIB12, nl, net)


@settings(max_examples=60, deadline=None)
@given(case=placed_nets(), data=st.data())
def test_extract_rejects_an_unplaced_pin(case, data):
    nl, net = case
    inst = nl.instances[data.draw(st.sampled_from(sorted(nl.instances)))]
    if data.draw(st.booleans()):
        inst.x_um = None
    else:
        inst.y_um = None
    with pytest.raises(NetlistError, match="not placed"):
        PlacementWireModel(LIB12).extract(nl, net)
    with pytest.raises(NetlistError, match="not placed"):
        ref_extract(LIB12, nl, net)
