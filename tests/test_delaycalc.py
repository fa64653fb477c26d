"""Tests for wire models and delay calculation (repro.timing.delaycalc)."""

import pytest

from repro.liberty.cells import CellFunction
from repro.liberty.presets import make_library_pair
from repro.netlist.core import Netlist, PortDirection
from repro.timing.delaycalc import (
    DelayCalculator,
    FanoutWireModel,
    PlacementWireModel,
    steiner_correction,
)


@pytest.fixture(scope="module")
def pair():
    return make_library_pair()


def chain(lib, n=3, place=True):
    """in -> INV x n, linearly placed 10um apart."""
    nl = Netlist("chain")
    nl.add_port("din", PortDirection.INPUT)
    prev = "din"
    for i in range(n):
        inst = nl.add_instance(f"i{i}", lib.get(CellFunction.INV, 1))
        if place:
            inst.x_um, inst.y_um = 10.0 * i, 0.0
        net = nl.add_net(f"n{i}")
        nl.connect(prev, f"i{i}", "A")
        nl.connect(f"n{i}", f"i{i}", "Y")
        prev = f"n{i}"
    return nl


class TestSteinerCorrection:
    def test_two_pin_nets_uncorrected(self):
        assert steiner_correction(1) == 1.0
        assert steiner_correction(2) == 1.0

    def test_monotone_in_fanout(self):
        values = [steiner_correction(f) for f in range(2, 20)]
        assert values == sorted(values)


class TestFanoutWireModel:
    def test_length_grows_with_fanout(self, pair):
        lib12, _ = pair
        nl = Netlist("fan")
        nl.add_port("din", PortDirection.INPUT)
        drv = nl.add_instance("drv", lib12.get(CellFunction.INV, 4))
        nl.connect("din", "drv", "A")
        nl.add_net("out")
        nl.connect("out", "drv", "Y")
        for i in range(6):
            nl.add_instance(f"s{i}", lib12.get(CellFunction.INV, 1))
            nl.connect("out", f"s{i}", "A")
        model = FanoutWireModel(lib12)
        para6 = model.extract(nl, nl.nets["out"])
        nl.disconnect("s5", "A")
        para5 = model.extract(nl, nl.nets["out"])
        assert para6.length_um > para5.length_um
        assert para6.total_cap_ff > para5.total_cap_ff

    def test_all_sinks_share_delay(self, pair):
        lib12, _ = pair
        nl = chain(lib12, place=False)
        model = FanoutWireModel(lib12)
        para = model.extract(nl, nl.nets["n0"])
        assert len(set(para.sink_delay_ns.values())) == 1


class TestPlacementWireModel:
    def test_length_matches_manhattan(self, pair):
        lib12, _ = pair
        nl = chain(lib12)
        model = PlacementWireModel(lib12)
        para = model.extract(nl, nl.nets["n0"])
        # driver at x=10 (center ~10.2), sink at x=20 (center ~20.2)
        assert para.length_um == pytest.approx(10.0, abs=0.5)
        assert para.miv_count == 0

    def test_cross_tier_net_counts_mivs(self, pair):
        lib12, _ = pair
        nl = chain(lib12)
        nl.instances["i1"].tier = 1
        model = PlacementWireModel(lib12)
        para = model.extract(nl, nl.nets["n0"])  # i0(t0) -> i1(t1)
        assert para.miv_count >= 1
        same_tier = model.extract(nl, nl.nets["n1"])  # i1(t1) -> i2(t0)
        assert same_tier.miv_count >= 1

    def test_miv_adds_capacitance_and_delay(self, pair):
        lib12, _ = pair
        nl = chain(lib12)
        model = PlacementWireModel(lib12)
        flat = model.extract(nl, nl.nets["n0"])
        nl.instances["i1"].tier = 1
        crossed = model.extract(nl, nl.nets["n0"])
        assert crossed.total_cap_ff > flat.total_cap_ff
        sink = ("i1", "A")
        assert crossed.sink_delay_ns[sink] > flat.sink_delay_ns[sink]

    def test_farther_sink_has_larger_delay(self, pair):
        lib12, _ = pair
        nl = Netlist("y")
        nl.add_port("din", PortDirection.INPUT)
        drv = nl.add_instance("drv", lib12.get(CellFunction.INV, 4))
        drv.x_um, drv.y_um = 0.0, 0.0
        nl.connect("din", "drv", "A")
        nl.add_net("out")
        nl.connect("out", "drv", "Y")
        near = nl.add_instance("near", lib12.get(CellFunction.INV, 1))
        near.x_um, near.y_um = 5.0, 0.0
        far = nl.add_instance("far", lib12.get(CellFunction.INV, 1))
        far.x_um, far.y_um = 80.0, 0.0
        nl.connect("out", "near", "A")
        nl.connect("out", "far", "A")
        para = PlacementWireModel(lib12).extract(nl, nl.nets["out"])
        assert para.sink_delay_ns[("far", "A")] > para.sink_delay_ns[("near", "A")]


class TestDelayCalculator:
    def make_calc(self, pair, nl):
        lib12, lib9 = pair
        return DelayCalculator(
            nl, PlacementWireModel(lib12), {lib12.name: lib12, lib9.name: lib9}
        )

    def test_caching_and_invalidate(self, pair):
        lib12, _ = pair
        nl = chain(lib12)
        calc = self.make_calc(pair, nl)
        p1 = calc.net_parasitics(nl.nets["n0"])
        assert calc.net_parasitics(nl.nets["n0"]) is p1
        calc.invalidate("n0")
        assert calc.net_parasitics(nl.nets["n0"]) is not p1

    def test_output_load(self, pair):
        lib12, _ = pair
        nl = chain(lib12)
        calc = self.make_calc(pair, nl)
        load = calc.output_load_ff(nl.instances["i0"], "Y")
        assert load > lib12.get(CellFunction.INV, 1).input_capacitance_ff("A")

    def test_homogeneous_derates_are_unity(self, pair):
        lib12, _ = pair
        nl = chain(lib12)
        calc = self.make_calc(pair, nl)
        d, s = calc.input_derates(nl.instances["i1"], nl.nets["n0"])
        assert d == 1.0 and s == 1.0

    def test_heterogeneous_input_derate_applied(self, pair):
        """A 12T cell driven from the 0.81V tier sees delay derate > 1."""
        lib12, lib9 = pair
        nl = chain(lib12)
        nl.rebind("i0", lib9.equivalent_of(nl.instances["i0"].cell))
        nl.instances["i0"].tier = 1
        calc = self.make_calc(pair, nl)
        d, s = calc.input_derates(nl.instances["i1"], nl.nets["n0"])
        assert d > 1.0
        assert s > 1.0
        # and the converse direction speeds up
        d2, s2 = calc.input_derates(nl.instances["i0"], nl.nets["din"])
        assert d2 == 1.0  # driven by a primary input, no derate

    def test_setup_time_positive(self, pair):
        lib12, _ = pair
        dff = lib12.get(CellFunction.DFF, 1)
        nl = chain(lib12)
        calc = self.make_calc(pair, nl)
        assert calc.setup_time(dff, 0.02) > 0
