"""Detailed behavioral tests for the optimizer's transforms (repro.flow.opt).

The coarse convergence behaviour is covered in test_opt.py; these pin the
semantics of the individual transforms: cloning splits fanout correctly,
buffering rewires only the targeted sinks, and both keep functional
equivalence (every original sink still transitively driven by the
original logic function's cone).
"""

import pytest

from repro.flow.design import Design, EditJournal
from repro.flow.opt import AreaBudget, _insert_buffer, _try_clone
from repro.liberty.cells import CellFunction
from repro.liberty.presets import make_library_pair
from repro.netlist.core import Netlist, PortDirection
from repro.timing.delaycalc import DelayCalculator, PlacementWireModel


@pytest.fixture(scope="module")
def pair():
    return make_library_pair()


def fan_design(pair, n_sinks=6):
    """One NAND2 driving n placed inverters."""
    lib12, _ = pair
    nl = Netlist("fan")
    nl.add_port("a", PortDirection.INPUT)
    nl.add_port("b", PortDirection.INPUT)
    drv = nl.add_instance("drv", lib12.get(CellFunction.NAND2, 8))
    drv.x_um, drv.y_um = 0.0, 0.0
    nl.connect("a", "drv", "A")
    nl.connect("b", "drv", "B")
    nl.add_net("big")
    nl.connect("big", "drv", "Y")
    for i in range(n_sinks):
        s = nl.add_instance(f"s{i}", lib12.get(CellFunction.INV, 1))
        s.x_um, s.y_um = 10.0 + 5.0 * i, 0.0
        nl.connect("big", f"s{i}", "A")
        nl.add_net(f"o{i}")
        nl.connect(f"o{i}", f"s{i}", "Y")
    design = Design("fan", "2D", nl, {0: lib12})
    calc = DelayCalculator(
        nl, PlacementWireModel(lib12), design.libraries_by_name()
    )
    return design, calc


class TestClone:
    def test_clone_splits_fanout(self, pair):
        design, calc = fan_design(pair)
        nl = design.netlist
        before = nl.nets["big"].fanout
        assert _try_clone(EditJournal(design, calc), "drv", AreaBudget(design))
        nl.validate()
        clones = [n for n in nl.instances if n.startswith("drv_cl")]
        assert len(clones) == 1
        clone = nl.instances[clones[0]]
        # same cell, same inputs
        assert clone.cell is nl.instances["drv"].cell
        assert clone.net_of("A") == "a"
        assert clone.net_of("B") == "b"
        # fanout split between original and clone
        clone_net = clone.net_of("Y")
        total = nl.nets["big"].fanout + nl.nets[clone_net].fanout
        assert total == before
        assert nl.nets["big"].fanout < before

    def test_clone_refuses_single_sink(self, pair):
        design, calc = fan_design(pair, n_sinks=1)
        assert not _try_clone(EditJournal(design, calc), "drv",
                              AreaBudget(design))

    def test_clone_refuses_macro(self, pair):
        lib12, lib9 = pair
        from repro.netlist.generators import generate_netlist

        nl = generate_netlist("cpu", lib12, scale=0.3, seed=17)
        design = Design("cpu", "2D", nl, {0: lib12})
        calc = DelayCalculator(
            nl, PlacementWireModel(lib12), design.libraries_by_name()
        )
        macro = nl.memory_macros()[0]
        assert not _try_clone(EditJournal(design, calc), macro.name,
                              AreaBudget(design))

    def test_clone_respects_budget(self, pair):
        design, calc = fan_design(pair)

        class NoBudget:
            def can_grow(self, tier, delta):
                return False

            def apply(self, tier, delta):
                raise AssertionError("must not apply when denied")

        assert not _try_clone(EditJournal(design, calc), "drv", NoBudget())

    @pytest.mark.xfail(
        strict=True,
        reason="_try_clone invalidates only its output and new nets; the "
        "fix changes every flow's output, so it waits for a change that "
        "re-records the benchmark digests",
    )
    def test_clone_invalidates_its_input_nets(self, pair):
        """The clone joins the driver's input nets as a new sink, so
        their cached parasitics must not outlive the clone."""
        design, calc = fan_design(pair)
        nl = design.netlist
        for net_name in ("a", "b"):
            calc.net_parasitics(nl.nets[net_name])
        assert _try_clone(EditJournal(design, calc), "drv", AreaBudget(design))
        model = PlacementWireModel(pair[0])
        for net_name in ("a", "b"):
            net = nl.nets[net_name]
            assert calc.net_parasitics(net) == model.extract(nl, net)

    def test_clone_preserves_sta(self, pair):
        """Cloning must not break analyzability, and can only help timing."""
        from repro.timing.sta import run_sta

        design, calc = fan_design(pair, n_sinks=10)
        nl = design.netlist
        # register the endpoint so there is timing to check
        nl.add_port("clk", PortDirection.INPUT, is_clock=True)
        ff = nl.add_instance("ff", pair[0].get(CellFunction.DFF, 1))
        ff.x_um, ff.y_um = 60.0, 0.0
        nl.connect("o0", "ff", "D")
        nl.connect("clk", "ff", "CK")
        nl.add_net("q")
        nl.connect("q", "ff", "Q")
        before = run_sta(nl, calc, 0.5)
        assert _try_clone(EditJournal(design, calc), "drv", AreaBudget(design))
        calc.invalidate()
        after = run_sta(nl, calc, 0.5)
        assert after.wns_ns >= before.wns_ns - 1e-9


class TestBufferInsertion:
    def test_buffer_rewires_target_sink_only(self, pair):
        design, calc = fan_design(pair)
        nl = design.netlist
        assert _insert_buffer(EditJournal(design, calc), "drv", "s3",
                              AreaBudget(design))
        nl.validate()
        bufs = [n for n in nl.instances if n.startswith("optbuf")]
        assert len(bufs) == 1
        buf = nl.instances[bufs[0]]
        assert buf.net_of("A") == "big"
        # s3 now reads through the buffer; the others still read 'big'
        assert nl.instances["s3"].net_of("A") == buf.net_of("Y")
        for i in (0, 1, 2, 4, 5):
            assert nl.instances[f"s{i}"].net_of("A") == "big"

    def test_buffer_placed_at_midpoint(self, pair):
        design, calc = fan_design(pair)
        nl = design.netlist
        _insert_buffer(EditJournal(design, calc), "drv", "s5",
                       AreaBudget(design))
        buf = next(
            i for n, i in nl.instances.items() if n.startswith("optbuf")
        )
        drv_x = nl.instances["drv"].center()[0]
        sink_x = nl.instances["s5"].center()[0]
        assert drv_x < buf.x_um < sink_x

    def test_buffer_respects_budget(self, pair):
        design, calc = fan_design(pair)

        class NoBudget:
            def can_grow(self, tier, delta):
                return False

            def apply(self, tier, delta):
                raise AssertionError("must not apply when denied")

        assert not _insert_buffer(EditJournal(design, calc), "drv", "s0",
                                  NoBudget())

    def test_buffer_requires_existing_connection(self, pair):
        design, calc = fan_design(pair)
        # s0 is not driven by s1, so there is nothing to buffer
        assert not _insert_buffer(EditJournal(design, calc), "s1", "s0",
                                  AreaBudget(design))
