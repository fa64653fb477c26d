"""Tests for the STA engine (repro.timing.sta) on hand-built circuits."""

import pytest

from repro.errors import TimingError
from repro.liberty.cells import CellFunction
from repro.liberty.presets import make_library_pair
from repro.netlist.core import Netlist, PortDirection
from repro.timing.delaycalc import DelayCalculator, FanoutWireModel
from repro.timing.sta import run_sta, top_critical_paths


@pytest.fixture(scope="module")
def pair():
    return make_library_pair()


def make_calc(pair, nl):
    lib12, lib9 = pair
    return DelayCalculator(
        nl, FanoutWireModel(lib12), {lib12.name: lib12, lib9.name: lib9}
    )


def pipeline(lib, depth):
    """clk + din -> FF -> INV*depth -> FF."""
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


class TestBasics:
    def test_period_must_be_positive(self, pair):
        nl = pipeline(pair[0], 2)
        calc = make_calc(pair, nl)
        with pytest.raises(TimingError):
            run_sta(nl, calc, 0.0)

    def test_deeper_pipeline_has_less_slack(self, pair):
        nl2 = pipeline(pair[0], 2)
        nl8 = pipeline(pair[0], 8)
        r2 = run_sta(nl2, make_calc(pair, nl2), 1.0)
        r8 = run_sta(nl8, make_calc(pair, nl8), 1.0)
        assert r8.wns_ns < r2.wns_ns

    def test_slack_scales_with_period(self, pair):
        nl = pipeline(pair[0], 4)
        calc = make_calc(pair, nl)
        r_fast = run_sta(nl, calc, 0.2)
        r_slow = run_sta(nl, calc, 1.0)
        assert r_slow.wns_ns == pytest.approx(r_fast.wns_ns + 0.8, abs=1e-9)

    def test_wns_is_min_endpoint_slack(self, pair):
        nl = pipeline(pair[0], 4)
        r = run_sta(nl, make_calc(pair, nl), 0.5)
        assert r.wns_ns == pytest.approx(min(r.endpoint_slacks.values()))

    def test_tns_sums_only_negative(self, pair):
        nl = pipeline(pair[0], 8)
        r = run_sta(nl, make_calc(pair, nl), 0.15)
        assert r.tns_ns <= r.wns_ns < 0

    def test_effective_delay(self, pair):
        nl = pipeline(pair[0], 4)
        r = run_sta(nl, make_calc(pair, nl), 0.5)
        assert r.effective_delay_ns == pytest.approx(0.5 - r.wns_ns)
        assert r.frequency_ghz == pytest.approx(2.0)


class TestCriticalPath:
    def test_path_depth_matches_pipeline(self, pair):
        nl = pipeline(pair[0], 6)
        r = run_sta(nl, make_calc(pair, nl), 0.5)
        cp = r.critical_path
        # 6 inverters + the launching flip-flop
        assert cp.total_cells == 7
        assert cp.endpoint == ("ff_b", "D")
        assert cp.steps[0].instance == "ff_a"

    def test_path_delay_consistent_with_slack(self, pair):
        nl = pipeline(pair[0], 6)
        period = 0.5
        r = run_sta(nl, make_calc(pair, nl), period)
        cp = r.critical_path
        reconstructed = (
            period + cp.clock_skew_ns - cp.setup_ns - cp.path_delay_ns
        )
        assert reconstructed == pytest.approx(cp.slack_ns, abs=1e-6)

    def test_tier_breakdowns(self, pair):
        nl = pipeline(pair[0], 6)
        for i in (1, 3):
            nl.instances[f"g{i}"].tier = 1
        r = run_sta(nl, make_calc(pair, nl), 0.5)
        cp = r.critical_path
        assert cp.cells_on_tier(1) == 2
        assert cp.cells_on_tier(0) == cp.total_cells - 2
        assert cp.miv_count >= 2
        assert cp.cell_delay_ns == pytest.approx(
            cp.cell_delay_on_tier(0) + cp.cell_delay_on_tier(1)
        )

    def test_top_paths_sorted_worst_first(self, pair):
        nl = pipeline(pair[0], 6)
        calc = make_calc(pair, nl)
        r = run_sta(nl, calc, 0.2)
        paths = top_critical_paths(nl, calc, r, 2)
        assert len(paths) >= 1
        assert paths[0].slack_ns == pytest.approx(r.wns_ns)


class TestClockLatencies:
    def test_useful_skew_shifts_slack(self, pair):
        nl = pipeline(pair[0], 6)
        calc = make_calc(pair, nl)
        base = run_sta(nl, calc, 0.5)
        # capture FF gets extra latency: setup slack improves by the skew
        skewed = run_sta(nl, calc, 0.5, {"ff_b": 0.1, "ff_a": 0.0})
        assert skewed.wns_ns == pytest.approx(base.wns_ns + 0.1, abs=1e-9)

    def test_launch_latency_hurts(self, pair):
        nl = pipeline(pair[0], 6)
        calc = make_calc(pair, nl)
        base = run_sta(nl, calc, 0.5)
        skewed = run_sta(nl, calc, 0.5, {"ff_a": 0.1})
        assert skewed.wns_ns == pytest.approx(base.wns_ns - 0.1, abs=1e-9)


class TestCellSlacks:
    def test_chain_cells_share_worst_slack(self, pair):
        """Every cell of a single path sees the path's slack."""
        nl = pipeline(pair[0], 5)
        r = run_sta(nl, make_calc(pair, nl), 0.5)
        slacks = [r.cell_slack[f"g{i}"] for i in range(5)]
        for s in slacks:
            assert s == pytest.approx(r.wns_ns, abs=1e-6)

    def test_side_branch_has_more_slack(self, pair):
        lib12 = pair[0]
        nl = pipeline(lib12, 6)
        # attach a 1-gate side branch to the middle of the chain
        nl.add_instance("side", lib12.get(CellFunction.INV, 1))
        nl.add_net("sb")
        nl.connect("n2", "side", "A")
        nl.connect("sb", "side", "Y")
        nl.add_instance("ff_s", lib12.get(CellFunction.DFF, 1))
        nl.connect("sb", "ff_s", "D")
        nl.connect("clk", "ff_s", "CK")
        r = run_sta(nl, make_calc(pair, nl), 0.5)
        assert r.cell_slack["side"] > r.cell_slack["g5"]

    def test_skipping_cell_slacks_is_faster_path(self, pair):
        nl = pipeline(pair[0], 5)
        calc = make_calc(pair, nl)
        r = run_sta(nl, calc, 0.5, with_cell_slacks=False)
        assert r.cell_slack == {}


class TestHeterogeneousTiming:
    def test_slow_library_path_is_slower(self, pair):
        lib12, lib9 = pair
        nl12 = pipeline(lib12, 6)
        nl9 = pipeline(lib9, 6)
        r12 = run_sta(nl12, make_calc(pair, nl12), 0.5)
        r9 = run_sta(nl9, make_calc(pair, nl9), 0.5)
        assert r9.wns_ns < r12.wns_ns

    def test_mixed_path_between_pure_paths(self, pair):
        lib12, lib9 = pair
        nl = pipeline(lib12, 6)
        for i in (0, 2, 4):
            nl.rebind(f"g{i}", lib9.equivalent_of(nl.instances[f"g{i}"].cell))
            nl.instances[f"g{i}"].tier = 1
        mixed = run_sta(nl, make_calc(pair, nl), 0.5)
        pure12 = run_sta(
            pipeline(lib12, 6), make_calc(pair, pipeline(lib12, 6)), 0.5
        )
        pure9 = run_sta(
            pipeline(lib9, 6), make_calc(pair, pipeline(lib9, 6)), 0.5
        )
        assert pure9.wns_ns < mixed.wns_ns < pure12.wns_ns
