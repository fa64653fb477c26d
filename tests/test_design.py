"""Tests for the Design container (repro.flow.design)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import FlowError
from repro.flow.design import Design, EditJournal
from repro.liberty.presets import make_library_pair
from repro.netlist.generators import generate_netlist


@pytest.fixture(scope="module")
def pair():
    return make_library_pair()


def hetero_design(pair, name="cpu", scale=0.3):
    lib12, lib9 = pair
    nl = generate_netlist(name, lib12, scale=scale, seed=21)
    return Design(
        name=name,
        config="3D_HET",
        netlist=nl,
        tier_libs={0: lib12, 1: lib9},
        target_period_ns=1.0,
    )


class TestBasics:
    def test_tier_properties(self, pair):
        design = hetero_design(pair)
        assert design.tiers == 2
        assert design.is_3d
        assert design.frequency_ghz == pytest.approx(1.0)

    def test_2d_design(self, pair):
        lib12, _ = pair
        nl = generate_netlist("aes", lib12, scale=0.2, seed=21)
        design = Design("aes", "2D_12T", nl, {0: lib12})
        assert not design.is_3d
        assert design.slow_tier() == 0

    def test_library_lookups(self, pair):
        lib12, lib9 = pair
        design = hetero_design(pair)
        assert design.library_for_tier(0) is lib12
        assert design.library_for_tier(1) is lib9
        assert design.reference_library() is lib12
        with pytest.raises(FlowError):
            design.library_for_tier(5)
        assert set(design.libraries_by_name()) == {lib12.name, lib9.name}

    def test_slow_tier_is_low_voltage_tier(self, pair):
        design = hetero_design(pair)
        assert design.slow_tier() == 1

    def test_clock_latencies_none_before_cts(self, pair):
        design = hetero_design(pair)
        assert design.clock_latencies() is None


class TestRemap:
    def test_remap_swaps_library_and_tier(self, pair):
        lib12, lib9 = pair
        design = hetero_design(pair)
        name = next(
            n for n, i in design.netlist.instances.items()
            if not i.cell.is_macro
        )
        journal = EditJournal(design)
        journal.move_to_tier(name, 1)
        inst = design.netlist.instances[name]
        assert inst.tier == 1
        assert inst.cell.library_name == lib9.name
        journal.move_to_tier(name, 0)
        assert inst.cell.library_name == lib12.name

    def test_remap_preserves_function_and_drive(self, pair):
        design = hetero_design(pair)
        name = next(
            n for n, i in design.netlist.instances.items()
            if not i.cell.is_macro
        )
        inst = design.netlist.instances[name]
        before = (inst.cell.function, inst.cell.drive)
        EditJournal(design).move_to_tier(name, 1)
        assert (inst.cell.function, inst.cell.drive) == before

    def test_remap_macro_keeps_cell(self, pair):
        design = hetero_design(pair)
        macro = design.netlist.memory_macros()[0]
        cell_before = macro.cell
        EditJournal(design).move_to_tier(macro.name, 1)
        assert macro.tier == 1
        assert macro.cell is cell_before

    def test_remap_keeps_netlist_valid(self, pair):
        design = hetero_design(pair)
        names = [
            n for n, i in design.netlist.instances.items()
            if not i.cell.is_macro
        ][:100]
        journal = EditJournal(design)
        for name in names:
            journal.move_to_tier(name, 1)
        design.netlist.validate()
        design.netlist.topological_order()


class TestCalculator:
    def floorplanned(self, pair):
        from repro.place.floorplan import build_floorplan

        design = hetero_design(pair, scale=0.1)
        design.floorplan = build_floorplan(
            design.netlist, design.tier_libs, 0.7
        )
        return design

    def test_placed_calculator_is_the_designs_own(self, pair):
        design = self.floorplanned(pair)
        calc = design.calculator(placed=True)
        assert design.calculator(placed=True) is calc
        assert design.held_calculator() is calc
        assert (design.calculator(placed=False)
                is not design.calculator(placed=False))

    def test_new_floorplan_or_drop_starts_a_fresh_one(self, pair):
        from repro.place.floorplan import build_floorplan

        design = self.floorplanned(pair)
        calc = design.calculator(placed=True)
        design.floorplan = build_floorplan(
            design.netlist, design.tier_libs, 0.6
        )
        assert design.held_calculator() is None
        second = design.calculator(placed=True)
        assert second is not calc
        design.drop_calculator()
        assert design.held_calculator() is None
        assert design.calculator(placed=True) is not second

    def test_full_sta_kill_switch_reuses_nothing(self, pair, monkeypatch):
        monkeypatch.setenv("REPRO_STA", "full")
        design = self.floorplanned(pair)
        first = design.calculator(placed=True)
        second = design.calculator(placed=True)
        assert second is not first
        # edits still reach the calculator handed out last
        assert design.held_calculator() is second


def _payload(design: Design) -> str:
    """The checkpoint payload in its own key order, so list and dict
    orders count."""
    import json

    from repro.integrity.checkpoint import design_to_dict

    return json.dumps(design_to_dict(design))


def _edit_everything(design: Design) -> None:
    """One edit to each mutable part a snapshot copies."""
    from repro.netlist.core import PortDirection
    from repro.place.floorplan import MacroSlot

    netlist = design.netlist
    first, second = list(netlist.instances)[:2]
    netlist.remove_instance(first)
    inst = netlist.instances[second]
    inst.x_um += 1.0
    inst.tier = 1 - inst.tier
    next(n for n in netlist.nets.values() if len(n.sinks) > 1).sinks.reverse()
    netlist.ports["extra"] = PortDirection.INPUT
    design.tier_libs[1] = design.tier_libs[0]
    design.notes["edited"] = 1.0
    design.floorplan.macros.append(MacroSlot("m", 0.0, 0.0, 1.0, 1.0))
    design.floorplan.width_um += 1.0
    sink = next(iter(design.clock_report.latencies))
    design.clock_report.latencies[sink] += 1.0
    design.clock_report.buffer_count_by_tier[9] = 1


class TestSnapshotCopy:
    """``Design.copy`` is the snapshot the stage memo holds: it equals
    the original through the checkpoint payload, and neither side sees
    the other's edits."""

    #: (resume from, stop after): synthesis, pseudo-place, partitioning
    #: and CTS in turn.
    LEGS = ((None, "synthesis"), ("pseudo_place", "pseudo_place"),
            ("partitioning", "partitioning"), ("placement_3d", "cts"))

    @pytest.mark.parametrize("name", ["aes", "ldpc", "cpu", "netcard"])
    def test_copy_equals_original_at_each_stage(self, pair, name):
        from repro.flow.hetero import run_flow_hetero_3d

        lib12, lib9 = pair
        design = None
        for from_stage, until_stage in self.LEGS:
            design, _ = run_flow_hetero_3d(
                name, lib12, lib9, period_ns=1.0, scale=0.08, seed=2,
                opt_iterations=2, design=design, from_stage=from_stage,
                until_stage=until_stage,
            )
            copy = design.copy()
            assert _payload(copy) == _payload(design), until_stage
            assert copy.netlist is not design.netlist
            assert copy.held_calculator() is None
            assert copy._place_session is None
            copy.netlist.validate()
        assert design.clock_report is not None

    def test_edits_do_not_cross(self, pair):
        from repro.flow.hetero import run_flow_hetero_3d

        lib12, lib9 = pair
        base, _ = run_flow_hetero_3d(
            "aes", lib12, lib9, period_ns=1.0, scale=0.08, seed=2,
            opt_iterations=2, until_stage="cts",
        )
        before = _payload(base)
        copy = base.copy()
        _edit_everything(copy)
        assert _payload(copy) != before
        assert _payload(base) == before

        copy = base.copy()
        _edit_everything(base)
        assert _payload(copy) == before


# ----------------------------------------------------------------------
# the edit journal over random edit sequences
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def placed(pair):
    """A small placed two-tier design, every other cell on the top tier."""
    from repro.place.floorplan import build_floorplan
    from repro.place.quadratic import global_place

    design = hetero_design(pair, name="aes", scale=0.1)
    journal = EditJournal(design)
    for name in sorted(design.netlist.instances)[::2]:
        journal.move_to_tier(name, 1)
    design.floorplan = build_floorplan(design.netlist, design.tier_libs, 0.7)
    global_place(design.netlist, design.floorplan)
    return design


JOURNAL_EDITS = ("rebind", "tier", "repeater", "sinks", "clone")


def _journal_edit(journal: EditJournal, op: str, pick: int) -> None:
    """One edit of kind ``op``; ``pick`` chooses its target."""
    from repro.flow.opt import AreaBudget, _try_clone
    from repro.liberty.cells import CellFunction

    design = journal.design
    netlist = design.netlist
    libs = design.libraries_by_name()
    cells = [i for i in netlist.instances.values() if not i.cell.is_macro]
    inst = cells[pick % len(cells)]
    nets = [n for n in netlist.nets.values()
            if n.driver is not None and n.sinks and not n.is_clock]
    net = nets[pick % len(nets)]
    sinks = net.sinks[: max(1, len(net.sinks) // 2)]
    if op == "rebind":
        lib = libs[inst.cell.library_name]
        cell = lib.upsize(inst.cell) or lib.downsize(inst.cell)
        if cell is not None:
            journal.rebind(inst.name, cell)
    elif op == "tier":
        journal.move_to_tier(inst.name, 1 - inst.tier)
    elif op == "repeater":
        driver = netlist.instances[net.driver[0]]
        buf = libs[driver.cell.library_name].get(CellFunction.BUF, 4)
        journal.insert_repeater(net.name, sinks, "rep", buf, "repnet",
                                tier=driver.tier, block=driver.block,
                                xy=(driver.x_um, driver.y_um))
    elif op == "sinks":
        other = nets[(pick // 7 + 1) % len(nets)]
        if other is not net:
            journal.move_sinks(sinks, other.name)
    else:  # a clone joins its driver's input nets deferred
        _try_clone(journal, inst.name, AreaBudget(design, max_fill=1e9))


def _assert_cache_exact(design: Design, calc, deferred) -> None:
    """Every cached parasitic but the deferred nets' equals a fresh
    extraction."""
    from repro.timing.delaycalc import PlacementWireModel

    netlist = design.netlist
    model = PlacementWireModel(design.reference_library())
    for name, cached in calc.cached_parasitics().items():
        if name in deferred:
            continue
        assert name in netlist.nets, name
        assert cached == model.extract(netlist, netlist.nets[name]), name


class TestEditJournal:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edits=st.lists(
        st.tuples(st.sampled_from(JOURNAL_EDITS), st.integers(0, 10_000)),
        min_size=1, max_size=10,
    ))
    def test_restore_undoes_random_edits(self, placed, edits):
        design = placed.copy()
        netlist = design.netlist
        start = _payload(design)
        calc = design.calculator(placed=True)
        for net in netlist.nets.values():
            calc.net_parasitics(net)
        design.place_session()  # the edits mark a live session
        journal = EditJournal(design, calc)
        for op, pick in edits:
            _journal_edit(journal, op, pick)
        netlist.validate()
        _assert_cache_exact(design, calc, calc._deferred)
        calc.invalidate_deferred()
        _assert_cache_exact(design, calc, ())

        journal.restore()
        assert journal.log == []
        assert _payload(design) == start
        netlist.validate()
        _assert_cache_exact(design, calc, calc._deferred)
        calc.invalidate_deferred()
        _assert_cache_exact(design, calc, ())
