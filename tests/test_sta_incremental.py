"""Incremental STA (:class:`TimingSession`): equivalence and behaviour.

The contract under test is exact equivalence: given the same netlist
state and the same :class:`DelayCalculator`, a session report must match
a from-scratch :func:`run_sta` bit for bit -- same WNS/TNS, same
endpoint-slack dict (values *and* insertion order, which fixes the
worst-endpoint tie-break), same per-cell slacks, same backtraced
critical path.  A Hypothesis property drives random sequences of the
edits the flows actually perform (resize, clone, buffer insertion, tier
move), each paired with the standard ``calc.invalidate(net)`` calls, and
checks equivalence after every step.
"""

import pytest

from repro.liberty.cells import CellFunction
from repro.liberty.presets import make_library_pair
from repro.netlist.core import Netlist, PortDirection
from repro.netlist.generators import generate_netlist
from repro.timing.delaycalc import DelayCalculator, FanoutWireModel
from repro.timing.incremental import SessionStats, TimingSession
from repro.timing.sta import run_sta, top_critical_paths

LIB12, LIB9 = make_library_pair()
LIBS = {LIB12.name: LIB12, LIB9.name: LIB9}


def make_calc(nl: Netlist) -> DelayCalculator:
    return DelayCalculator(nl, FanoutWireModel(LIB12), LIBS)


def pipeline(depth: int, lib=LIB12) -> Netlist:
    """clk + din -> FF -> INV*depth -> FF (same shape test_sta uses)."""
    nl = Netlist("pipe")
    nl.add_port("clk", PortDirection.INPUT, is_clock=True)
    nl.add_port("din", PortDirection.INPUT)
    nl.add_instance("ff_a", lib.get(CellFunction.DFF, 1))
    nl.connect("din", "ff_a", "D")
    nl.connect("clk", "ff_a", "CK")
    nl.add_net("qa")
    nl.connect("qa", "ff_a", "Q")
    prev = "qa"
    for i in range(depth):
        nl.add_instance(f"g{i}", lib.get(CellFunction.INV, 2))
        nl.add_net(f"n{i}")
        nl.connect(prev, f"g{i}", "A")
        nl.connect(f"n{i}", f"g{i}", "Y")
        prev = f"n{i}"
    nl.add_instance("ff_b", lib.get(CellFunction.DFF, 1))
    nl.connect(prev, "ff_b", "D")
    nl.connect("clk", "ff_b", "CK")
    return nl


def assert_reports_equal(inc, ref):
    assert inc.wns_ns == ref.wns_ns
    assert inc.tns_ns == ref.tns_ns
    assert inc.endpoint_slacks == ref.endpoint_slacks
    # dict order fixes the worst-endpoint tie-break; require it too
    assert list(inc.endpoint_slacks) == list(ref.endpoint_slacks)
    assert inc.cell_slack == ref.cell_slack
    assert inc.critical_path == ref.critical_path


# ----------------------------------------------------------------------
# flow-style edits, each with the invalidation calls the flows make
# ----------------------------------------------------------------------
def _invalidate_around(calc, inst):
    for _pin, net_name in inst.connected_pins():
        calc.invalidate(net_name)


def _comb_instances(nl):
    return [
        i
        for i in nl.instances.values()
        if not i.cell.is_sequential and not i.cell.is_macro
    ]


def edit_resize(nl, calc, pick):
    cands = _comb_instances(nl)
    if not cands:
        return False
    inst = cands[pick % len(cands)]
    lib = LIBS[inst.cell.library_name]
    new_cell = lib.upsize(inst.cell) or lib.downsize(inst.cell)
    if new_cell is None:
        return False
    nl.rebind(inst.name, new_cell)
    _invalidate_around(calc, inst)
    return True


def edit_clone(nl, calc, pick):
    cands = [
        i
        for i in _comb_instances(nl)
        if i.net_of(i.cell.output_pin) is not None
        and len(nl.nets[i.net_of(i.cell.output_pin)].sinks) >= 2
    ]
    if not cands:
        return False
    inst = cands[pick % len(cands)]
    out_pin = inst.cell.output_pin
    out_net_name = inst.net_of(out_pin)
    moved = list(nl.nets[out_net_name].sinks)[: len(nl.nets[out_net_name].sinks) // 2]
    clone_name = nl.unique_name(inst.name + "_cl")
    clone = nl.add_instance(clone_name, inst.cell, block=inst.block)
    clone.tier = inst.tier
    for pin in inst.cell.input_pins:
        in_net = inst.net_of(pin)
        if in_net is not None:
            nl.connect(in_net, clone_name, pin)
    new_net = nl.add_net(nl.unique_name(out_net_name + "_cl"))
    nl.connect(new_net.name, clone_name, out_pin)
    for sink_name, pin in moved:
        nl.disconnect(sink_name, pin)
        nl.connect(new_net.name, sink_name, pin)
    for pin in inst.cell.input_pins:  # clone added load on every input net
        in_net = inst.net_of(pin)
        if in_net is not None:
            calc.invalidate(in_net)
    calc.invalidate(out_net_name)
    calc.invalidate(new_net.name)
    return True


def edit_buffer(nl, calc, pick):
    cands = [
        n
        for n in nl.nets.values()
        if not n.is_clock and n.driver is not None and len(n.sinks) >= 2
    ]
    if not cands:
        return False
    net = cands[pick % len(cands)]
    driver = nl.instances[net.driver[0]]
    lib = LIBS[driver.cell.library_name]
    buf_cell = lib.get(CellFunction.BUF, lib.drives_for(CellFunction.BUF)[0])
    moved = list(net.sinks)[1:]
    buf_name = nl.unique_name("tbuf")
    buf = nl.add_instance(buf_name, buf_cell, block=driver.block)
    buf.tier = driver.tier
    new_net = nl.add_net(nl.unique_name("tbufn"))
    nl.connect(net.name, buf_name, "A")
    nl.connect(new_net.name, buf_name, "Y")
    for sink_name, pin in moved:
        nl.disconnect(sink_name, pin)
        nl.connect(new_net.name, sink_name, pin)
    calc.invalidate(net.name)
    calc.invalidate(new_net.name)
    return True


def edit_tier_move(nl, calc, pick):
    cands = _comb_instances(nl)
    if not cands:
        return False
    inst = cands[pick % len(cands)]
    target = LIB9 if inst.cell.library_name == LIB12.name else LIB12
    inst.tier = 1 - (inst.tier or 0)
    nl.rebind(inst.name, target.equivalent_of(inst.cell))
    _invalidate_around(calc, inst)
    return True


EDITS = [edit_resize, edit_clone, edit_buffer, edit_tier_move]


# ----------------------------------------------------------------------
# Hypothesis property: any edit sequence stays equivalent to run_sta
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402


class TestEquivalenceProperty:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        netlist_seed=st.integers(0, 3),
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 10_000)),
            min_size=1,
            max_size=8,
        ),
        period=st.sampled_from([0.6, 0.9, 1.3]),
    )
    def test_random_edits_match_full_sta(self, netlist_seed, ops, period):
        nl = generate_netlist("aes", LIB12, scale=0.1, seed=netlist_seed)
        calc = make_calc(nl)
        session = TimingSession(nl, calc)
        session.report(period)  # warm: later reports exercise the cone path
        for op_idx, pick in ops:
            EDITS[op_idx % len(EDITS)](nl, calc, pick)
            inc = session.report(period, with_cell_slacks=True)
            ref = run_sta(nl, calc, period, with_cell_slacks=True)
            assert_reports_equal(inc, ref)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        periods=st.lists(
            st.floats(0.3, 2.5, allow_nan=False), min_size=1, max_size=6
        ),
        pick=st.integers(0, 10_000),
    )
    def test_period_sweep_matches_full_sta(self, periods, pick):
        nl = generate_netlist("aes", LIB12, scale=0.1, seed=1)
        calc = make_calc(nl)
        session = TimingSession(nl, calc)
        edit_resize(nl, calc, pick)
        for period in periods:
            inc = session.report(period, with_cell_slacks=True)
            ref = run_sta(nl, calc, period, with_cell_slacks=True)
            assert_reports_equal(inc, ref)


# ----------------------------------------------------------------------
# deterministic behaviour tests
# ----------------------------------------------------------------------
class TestSessionBehaviour:
    def test_clean_repeat_reuses_arrivals(self):
        nl = pipeline(8)
        calc = make_calc(nl)
        session = TimingSession(nl, calc)
        first = session.report(1.0)
        second = session.report(1.0)
        assert session.stats.full_runs == 1
        assert session.stats.reused_runs == 1
        assert_reports_equal(first, second)

    def test_period_probes_share_one_propagation(self):
        nl = pipeline(10)
        calc = make_calc(nl)
        session = TimingSession(nl, calc)
        for period in (2.0, 1.0, 0.7, 0.5, 1.5):
            inc = session.report(period, with_cell_slacks=False)
            ref = run_sta(nl, calc, period, with_cell_slacks=False)
            assert inc.endpoint_slacks == ref.endpoint_slacks
            assert inc.wns_ns == ref.wns_ns
        assert session.stats.full_runs == 1
        assert session.stats.reused_runs == 4

    def test_local_edit_goes_incremental(self):
        nl = pipeline(12)
        calc = make_calc(nl)
        session = TimingSession(nl, calc)
        session.report(1.0)
        # resize the last inverter: its cone is a tiny tail of the chain
        nl.rebind("g11", LIB12.upsize(nl.instances["g11"].cell))
        _invalidate_around(calc, nl.instances["g11"])
        inc = session.report(1.0)
        assert session.stats.incremental_runs == 1
        assert session.stats.last_cone_size < 12
        assert_reports_equal(inc, run_sta(nl, calc, 1.0))

    def test_kill_switch_forces_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_STA", "full")
        nl = pipeline(8)
        calc = make_calc(nl)
        session = TimingSession(nl, calc)
        r1 = session.report(1.0)
        r2 = session.report(1.0)
        assert session.stats.full_runs == 2
        assert session.stats.incremental_runs == 0
        assert session.stats.reused_runs == 0
        assert_reports_equal(r1, r2)
        assert_reports_equal(r1, run_sta(nl, calc, 1.0))

    def test_threshold_fallback_rebuilds(self):
        nl = pipeline(8)
        calc = make_calc(nl)
        session = TimingSession(nl, calc, full_fraction=0.0)
        session.report(1.0)
        nl.rebind("g7", LIB12.upsize(nl.instances["g7"].cell))
        _invalidate_around(calc, nl.instances["g7"])
        session.report(1.0)
        assert session.stats.full_runs == 2
        assert session.stats.incremental_runs == 0

    def test_full_invalidate_forces_rebuild(self):
        nl = pipeline(8)
        calc = make_calc(nl)
        session = TimingSession(nl, calc)
        session.report(1.0)
        calc.invalidate()  # whole-graph invalidation, flow2d idiom
        session.report(1.0)
        assert session.stats.full_runs == 2

    def test_top_paths_match_top_critical_paths(self):
        nl = generate_netlist("aes", LIB12, scale=0.1, seed=2)
        calc = make_calc(nl)
        session = TimingSession(nl, calc)
        report = session.report(0.8)
        assert session.top_paths(report, 5) == top_critical_paths(
            nl, calc, report, 5
        )

    def test_clock_latency_swap_rebuilds(self):
        nl = pipeline(6)
        calc = make_calc(nl)
        session = TimingSession(nl, calc)
        session.report(1.0)
        latencies = {"ff_a": 0.05, "ff_b": 0.02}
        session.set_clock_latencies(latencies)
        inc = session.report(1.0)
        assert session.stats.full_runs == 2
        assert_reports_equal(inc, run_sta(nl, calc, 1.0, latencies))

    def test_shared_session_is_one_per_calculator(self):
        """Successive passes over one calculator (optimizer, then area
        recovery) share a session: the second pass reuses arrivals, the
        calculator keeps one listener, and new latencies rebuild."""
        nl = pipeline(6)
        calc = make_calc(nl)
        session = TimingSession.shared(nl, calc)
        session.report(1.0)
        assert TimingSession.shared(nl, calc) is session
        session.report(1.0)
        assert session.stats.full_runs == 1
        assert len(calc._listeners) == 1
        latencies = {"ff_a": 0.05, "ff_b": 0.02}
        assert TimingSession.shared(nl, calc, latencies) is session
        inc = session.report(1.0)
        assert session.stats.full_runs == 2
        assert_reports_equal(inc, run_sta(nl, calc, 1.0, latencies))
        assert TimingSession.shared(nl, make_calc(nl)) is not session

    def test_period_must_be_positive(self):
        from repro.errors import TimingError

        nl = pipeline(4)
        session = TimingSession(nl, make_calc(nl))
        with pytest.raises(TimingError):
            session.report(0.0)

    def test_propagated_fraction_stat(self):
        stats = SessionStats(
            full_runs=1,
            incremental_runs=1,
            propagated_instances=15,
            graph_instances=10,
        )
        assert stats.reports == 2
        assert stats.propagated_fraction == pytest.approx(0.75)


class TestDesignClockLatencyCache:
    def _report(self, value):
        from repro.cts.tree import ClockReport

        return ClockReport(
            buffer_count=1,
            buffer_count_by_tier={0: 1},
            buffer_area_um2=1.0,
            wirelength_mm=0.1,
            max_latency_ns=value,
            min_latency_ns=value,
            power_mw=0.0,
            latencies={"ff_a": value},
        )

    def test_snapshot_is_cached_until_report_changes(self):
        from repro.flow.design import Design

        nl = pipeline(4)
        design = Design("d", "2d", nl, {0: LIB12})
        assert design.clock_latencies() is None
        design.clock_report = self._report(0.04)
        first = design.clock_latencies()
        assert first == {"ff_a": 0.04}
        assert design.clock_latencies() is first  # stable identity
        design.clock_report = self._report(0.09)  # CTS reran
        second = design.clock_latencies()
        assert second == {"ff_a": 0.09}
        assert second is not first
        design.clock_report = None
        assert design.clock_latencies() is None
