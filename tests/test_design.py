"""Tests for the Design container (repro.flow.design)."""

import pytest

from repro.errors import FlowError
from repro.flow.design import Design
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
        design.remap_instance_to_tier(name, 1)
        inst = design.netlist.instances[name]
        assert inst.tier == 1
        assert inst.cell.library_name == lib9.name
        design.remap_instance_to_tier(name, 0)
        assert inst.cell.library_name == lib12.name

    def test_remap_preserves_function_and_drive(self, pair):
        design = hetero_design(pair)
        name = next(
            n for n, i in design.netlist.instances.items()
            if not i.cell.is_macro
        )
        inst = design.netlist.instances[name]
        before = (inst.cell.function, inst.cell.drive)
        design.remap_instance_to_tier(name, 1)
        assert (inst.cell.function, inst.cell.drive) == before

    def test_remap_macro_keeps_cell(self, pair):
        design = hetero_design(pair)
        macro = design.netlist.memory_macros()[0]
        cell_before = macro.cell
        design.remap_instance_to_tier(macro.name, 1)
        assert macro.tier == 1
        assert macro.cell is cell_before

    def test_remap_keeps_netlist_valid(self, pair):
        design = hetero_design(pair)
        names = [
            n for n, i in design.netlist.instances.items()
            if not i.cell.is_macro
        ][:100]
        for name in names:
            design.remap_instance_to_tier(name, 1)
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
