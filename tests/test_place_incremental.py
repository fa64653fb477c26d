"""Incremental placement (:class:`PlacementSession`): equivalence, behaviour.

The contract under test is exact equivalence: after any sequence of
flow-style edits (resize, clone, buffer insertion, tier move, nudge),
a session's ``legalize_all`` / ``hpwl_um`` / ``congestion`` must be
byte-identical to a session that recomputes everything from scratch
(``force_full=True``, the ``REPRO_PLACE=full`` CI mode).  A Hypothesis
property drives random edit sequences against two independently built
copies of the same design -- one served incrementally, one full -- and
compares positions, HPWL, and the congestion demand grid bit for bit
after every step.
"""

import numpy as np
import pytest

from repro.liberty.cells import CellFunction
from repro.liberty.presets import make_library_pair
from repro.netlist.generators import generate_netlist
from repro.place.floorplan import build_floorplan
from repro.place.incremental import PlacementSession, PlaceSessionStats
from repro.place.quadratic import global_place

LIB12, LIB9 = make_library_pair()
LIBS = {LIB12.name: LIB12, LIB9.name: LIB9}


def build_design(seed: int, scale: float = 0.12):
    """One placed two-tier aes instance; deterministic, so building it
    twice yields bit-identical twins."""
    nl = generate_netlist("aes", LIB12, scale=scale, seed=seed)
    for name in sorted(nl.instances)[::2]:
        inst = nl.instances[name]
        if inst.cell.is_macro:
            continue
        nl.rebind(name, LIB9.equivalent_of(inst.cell))
        inst.tier = 1
    tier_libs = {0: LIB12, 1: LIB9}
    fp = build_floorplan(nl, tier_libs, utilization=0.7)
    global_place(nl, fp)
    return nl, fp, tier_libs


# ----------------------------------------------------------------------
# flow-style edits; each returns the instance names it disturbed
# (the cells an edit journal marks dirty), or None when not applicable
# ----------------------------------------------------------------------
def _comb_instances(nl):
    return [
        i
        for i in nl.instances.values()
        if not i.cell.is_sequential and not i.cell.is_macro and not i.fixed
    ]


def edit_resize(nl, pick):
    cands = _comb_instances(nl)
    if not cands:
        return None
    inst = cands[pick % len(cands)]
    lib = LIBS[inst.cell.library_name]
    new_cell = lib.upsize(inst.cell) or lib.downsize(inst.cell)
    if new_cell is None:
        return None
    nl.rebind(inst.name, new_cell)
    return [inst.name]


def edit_clone(nl, pick):
    cands = [
        i
        for i in _comb_instances(nl)
        if i.net_of(i.cell.output_pin) is not None
        and len(nl.nets[i.net_of(i.cell.output_pin)].sinks) >= 2
    ]
    if not cands:
        return None
    inst = cands[pick % len(cands)]
    out_pin = inst.cell.output_pin
    out_net = inst.net_of(out_pin)
    moved = list(nl.nets[out_net].sinks)[: len(nl.nets[out_net].sinks) // 2]
    clone_name = nl.unique_name(inst.name + "_cl")
    clone = nl.add_instance(clone_name, inst.cell, block=inst.block)
    clone.tier = inst.tier
    clone.x_um = inst.x_um
    clone.y_um = inst.y_um
    for pin in inst.cell.input_pins:
        in_net = inst.net_of(pin)
        if in_net is not None:
            nl.connect(in_net, clone_name, pin)
    new_net = nl.add_net(nl.unique_name(out_net + "_cl"))
    nl.connect(new_net.name, clone_name, out_pin)
    for sink_name, pin in moved:
        nl.disconnect(sink_name, pin)
        nl.connect(new_net.name, sink_name, pin)
    return [inst.name, clone_name]


def edit_buffer(nl, pick):
    cands = [
        n
        for n in nl.nets.values()
        if not n.is_clock and n.driver is not None and len(n.sinks) >= 2
    ]
    if not cands:
        return None
    net = cands[pick % len(cands)]
    driver = nl.instances[net.driver[0]]
    lib = LIBS[driver.cell.library_name]
    buf_cell = lib.get(CellFunction.BUF, lib.drives_for(CellFunction.BUF)[0])
    moved = list(net.sinks)[1:]
    buf_name = nl.unique_name("tbuf")
    buf = nl.add_instance(buf_name, buf_cell, block=driver.block)
    buf.tier = driver.tier
    buf.x_um = driver.x_um
    buf.y_um = driver.y_um
    new_net = nl.add_net(nl.unique_name("tbufn"))
    nl.connect(net.name, buf_name, "A")
    nl.connect(new_net.name, buf_name, "Y")
    for sink_name, pin in moved:
        nl.disconnect(sink_name, pin)
        nl.connect(new_net.name, sink_name, pin)
    return [buf_name]


def edit_tier_move(nl, pick):
    cands = _comb_instances(nl)
    if not cands:
        return None
    inst = cands[pick % len(cands)]
    target = LIB9 if inst.cell.library_name == LIB12.name else LIB12
    inst.tier = 1 - (inst.tier or 0)
    nl.rebind(inst.name, target.equivalent_of(inst.cell))
    return [inst.name]


def edit_nudge(nl, pick):
    """A raw position change (what the ECO's rebind-and-replace does)."""
    cands = _comb_instances(nl)
    if not cands:
        return None
    inst = cands[pick % len(cands)]
    inst.x_um = inst.x_um + ((pick % 7) - 3) * 1.7
    inst.y_um = inst.y_um + ((pick % 5) - 2) * 1.3
    return [inst.name]


EDITS = [edit_resize, edit_clone, edit_buffer, edit_tier_move, edit_nudge]


def assert_designs_identical(nl_a, nl_b):
    assert sorted(nl_a.instances) == sorted(nl_b.instances)
    for name, a in nl_a.instances.items():
        b = nl_b.instances[name]
        assert (a.x_um, a.y_um, a.tier) == (b.x_um, b.y_um, b.tier), name


def assert_sessions_equal(inc, full):
    assert_designs_identical(inc.netlist, full.netlist)
    assert inc.hpwl_um() == full.hpwl_um()
    ci = inc.congestion()
    cf = full.congestion()
    assert ci.capacity_um == cf.capacity_um
    assert np.array_equal(ci.demand, cf.demand)


# ----------------------------------------------------------------------
# Hypothesis property: random edit sequences stay byte-identical
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
            st.tuples(st.integers(0, len(EDITS) - 1), st.integers(0, 10_000)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_random_edits_match_full_recompute(self, netlist_seed, ops):
        nl_i, fp_i, libs = build_design(netlist_seed)
        nl_f, fp_f, _ = build_design(netlist_seed)
        inc = PlacementSession(nl_i, fp_i, libs, force_full=False)
        full = PlacementSession(nl_f, fp_f, libs, force_full=True)
        inc.legalize_all()
        full.legalize_all()
        assert_sessions_equal(inc, full)
        for op_idx, pick in ops:
            touched = EDITS[op_idx](nl_i, pick)
            EDITS[op_idx](nl_f, pick)
            if touched:
                for name in touched:
                    inc.dirty_cell(name)
            inc.legalize_all()
            full.legalize_all()
            assert_sessions_equal(inc, full)
        assert full.stats.incremental_runs == 0
        assert inc.stats.runs > 0


# ----------------------------------------------------------------------
# deterministic behaviour tests
# ----------------------------------------------------------------------
class TestSessionBehaviour:
    def test_small_edit_goes_incremental(self):
        nl, fp, libs = build_design(1)
        session = PlacementSession(nl, fp, libs)
        session.legalize_all()
        assert session.stats.full_runs >= 1
        name = _comb_instances(nl)[0].name
        nl.rebind(name, LIBS[nl.instances[name].cell.library_name].upsize(
            nl.instances[name].cell
        ) or nl.instances[name].cell)
        session.dirty_cell(name)
        session.legalize_all()
        assert session.stats.incremental_runs == 1
        assert 0 < session.stats.last_disturbed_fraction < 0.05

    def test_kill_switch_forces_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLACE", "full")
        nl, fp, libs = build_design(1)
        session = PlacementSession(nl, fp, libs)
        session.legalize_all()
        session.dirty_cell(_comb_instances(nl)[0].name)
        session.legalize_all()
        assert session.stats.incremental_runs == 0
        assert session.stats.full_runs >= 2

    def test_threshold_zero_always_falls_back_to_full(self):
        nl, fp, libs = build_design(1)
        session = PlacementSession(nl, fp, libs, full_fraction=0.0)
        session.legalize_all()
        session.dirty_cell(_comb_instances(nl)[0].name)
        session.legalize_all()
        assert session.stats.full_runs == 2
        assert session.stats.incremental_runs == 0

    def test_hpwl_matches_metrics(self):
        from repro.obs.metrics import hpwl_um

        nl, fp, libs = build_design(2)
        session = PlacementSession(nl, fp, libs)
        session.legalize_all()
        assert session.hpwl_um() == hpwl_um(nl)
        edit_nudge(nl, 123)
        session.invalidate_all()
        assert session.hpwl_um() == hpwl_um(nl)

    def test_hpwl_is_computed_only_when_asked(self, monkeypatch):
        """A session answering only congestion() evaluates no net HPWL;
        the first hpwl_um() fills the cache, which edits keep exact."""
        from repro.obs.metrics import hpwl_um
        from repro.place import incremental

        calls = []
        real = incremental.net_hpwl_um
        monkeypatch.setattr(
            incremental, "net_hpwl_um",
            lambda net, insts: calls.append(net.name) or real(net, insts),
        )
        nl, fp, libs = build_design(2)
        session = PlacementSession(nl, fp, libs)
        session.legalize_all()
        session.congestion()
        for edit, pick in ((edit_nudge, 5), (edit_buffer, 77)):
            for name in edit(nl, pick):
                session.dirty_cell(name)
            session.legalize_all()
            session.congestion()
        assert calls == []

        assert session.hpwl_um() == hpwl_um(nl)
        assert len(calls) == len(nl.nets)
        for edit, pick in ((edit_clone, 9), (edit_tier_move, 31)):
            for name in edit(nl, pick):
                session.dirty_cell(name)
            session.legalize_all()
            assert session.hpwl_um() == hpwl_um(nl)
        # A cold resync drops the cache; only hpwl_um() refills it.
        calls.clear()
        edit_nudge(nl, 301)
        session.invalidate_all()
        session.congestion()
        assert calls == []
        assert session.hpwl_um() == hpwl_um(nl)

    def test_congestion_nondefault_bins_delegates(self):
        from repro.route.congestion import analyze_congestion

        nl, fp, libs = build_design(2)
        session = PlacementSession(nl, fp, libs)
        session.legalize_all()
        ref = analyze_congestion(
            nl, libs[0], fp.width_um, fp.height_um, len(libs), bins=4
        )
        got = session.congestion(bins=4)
        assert np.array_equal(got.demand, ref.demand)

    def test_last_moved_is_what_each_pass_moved(self):
        nl, fp, libs = build_design(1)
        session = PlacementSession(nl, fp, libs)
        before = {n: (i.x_um, i.y_um) for n, i in nl.instances.items()}
        session.legalize_all()
        assert session.stats.full_runs == 1
        moved = {
            n for n, i in nl.instances.items()
            if before[n] != (i.x_um, i.y_um)
        }
        assert moved and session.last_moved == moved
        # a full pass over a legal placement moves nothing
        session.invalidate_all()
        session.legalize_all()
        assert session.stats.full_runs == 2
        assert session.last_moved == set()
        # an incremental pass: the shifted cells plus the dirtied one
        inst = _comb_instances(nl)[0]
        bigger = LIBS[inst.cell.library_name].upsize(inst.cell)
        nl.rebind(inst.name, bigger)
        session.dirty_cell(inst.name)
        before = {n: (i.x_um, i.y_um) for n, i in nl.instances.items()}
        session.legalize_all()
        assert session.stats.incremental_runs == 1
        shifted = {
            n for n, i in nl.instances.items()
            if before[n] != (i.x_um, i.y_um)
        }
        assert session.last_moved == shifted | {inst.name}

    def test_stats_runs_property(self):
        stats = PlaceSessionStats(full_runs=2, incremental_runs=3)
        assert stats.runs == 5


class TestDesignIntegration:
    def test_design_session_is_cached_and_reset_on_floorplan_change(self):
        from repro.flow.design import Design

        nl, fp, libs = build_design(1)
        design = Design("d", "2d", nl, libs)
        design.floorplan = fp
        s1 = design.place_session()
        assert design.place_session() is s1
        design.floorplan = build_floorplan(nl, libs, utilization=0.65)
        s2 = design.place_session()
        assert s2 is not s1
        assert s2.floorplan is design.floorplan

    def test_design_without_floorplan_raises(self):
        from repro.errors import FlowError
        from repro.flow.design import Design

        nl, _fp, libs = build_design(1)
        design = Design("d", "2d", nl, libs)
        with pytest.raises(FlowError):
            design.place_session()

    def test_journal_edit_marks_session_dirty(self):
        from repro.flow.design import Design, EditJournal

        nl, fp, libs = build_design(1)
        design = Design("d", "2d", nl, libs)
        design.floorplan = fp
        session = design.place_session()
        session.legalize_all()
        inst = _comb_instances(nl)[0]
        lib = LIBS[inst.cell.library_name]
        EditJournal(design).rebind(
            inst.name, lib.upsize(inst.cell) or lib.downsize(inst.cell)
        )
        session.legalize_all()
        assert session.stats.incremental_runs == 1
