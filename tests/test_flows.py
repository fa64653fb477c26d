"""Integration tests: the three flows end to end at small scale.

These are the expensive tests of the suite (a few seconds each); they
pin down the *structural* paper claims that don't need calibration:
validity of the produced databases, tier properties, the presence of the
heterogeneous mechanisms, and the Table V ablation direction.
"""

import pytest

from repro.flow import (
    finalize_design,
    run_flow_2d,
    run_flow_hetero_3d,
    run_flow_pin3d,
)
from repro.liberty.presets import make_library_pair

SCALE = 0.4
SEED = 23
PERIOD = 1.1  # near the 12-track 2-D maximum at this scale


@pytest.fixture(scope="module")
def pair():
    return make_library_pair()


@pytest.fixture(scope="module")
def flow_2d(pair):
    lib12, _ = pair
    return run_flow_2d("cpu", lib12, period_ns=PERIOD, scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def flow_3d(pair):
    lib12, _ = pair
    return run_flow_pin3d("cpu", lib12, period_ns=PERIOD, scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def flow_het(pair):
    lib12, lib9 = pair
    return run_flow_hetero_3d(
        "cpu", lib12, lib9, period_ns=PERIOD, scale=SCALE, seed=SEED
    )


class TestFlow2D:
    def test_database_valid(self, flow_2d):
        design, result = flow_2d
        design.netlist.validate()
        assert design.floorplan is not None
        assert design.clock_report is not None

    def test_everything_on_tier0(self, flow_2d):
        design, _ = flow_2d
        assert design.netlist.tiers_used() == (0,)

    def test_result_fields_consistent(self, flow_2d):
        _, r = flow_2d
        assert r.si_area_mm2 == pytest.approx(r.footprint_mm2)
        assert r.miv_count == 0
        assert r.effective_delay_ns == pytest.approx(r.period_ns - r.wns_ns)
        assert r.pdp_pj == pytest.approx(
            r.total_power_mw * r.effective_delay_ns
        )
        assert r.total_power_mw > 0
        assert 0.3 < r.density < 0.95

    def test_memory_net_stats_present_for_cpu(self, flow_2d):
        _, r = flow_2d
        assert r.memory_nets is not None
        assert r.memory_nets.input_net_latency_ps >= 0


class TestFlowPin3D:
    def test_two_tiers_used(self, flow_3d):
        design, _ = flow_3d
        assert design.netlist.tiers_used() == (0, 1)

    def test_same_library_both_tiers(self, flow_3d):
        design, _ = flow_3d
        libs = {
            i.cell.library_name for i in design.netlist.instances.values()
        }
        assert libs == {"28nm_12T"}

    def test_si_area_is_twice_footprint(self, flow_3d):
        _, r = flow_3d
        assert r.si_area_mm2 == pytest.approx(2 * r.footprint_mm2)

    def test_mivs_reported(self, flow_3d):
        _, r = flow_3d
        assert r.miv_count > 0
        assert r.cut_nets > 0

    def test_3d_shortens_wirelength(self, flow_2d, flow_3d):
        _, r2d = flow_2d
        _, r3d = flow_3d
        assert r3d.wirelength_mm < r2d.wirelength_mm

    def test_legal_placement_per_tier(self, flow_3d):
        design, _ = flow_3d
        for inst in design.netlist.instances.values():
            if inst.cell.is_macro:
                continue
            pitch = design.library_for_tier(inst.tier).cell_height_um
            row = round(inst.y_um / pitch)
            assert inst.y_um == pytest.approx(row * pitch, abs=1e-6)


class TestFlowHetero:
    def test_tier_libraries(self, flow_het):
        design, _ = flow_het
        libs_by_tier = {}
        for inst in design.netlist.instances.values():
            if inst.cell.is_macro:
                continue
            libs_by_tier.setdefault(inst.tier, set()).add(
                inst.cell.library_name
            )
        assert libs_by_tier[0] == {"28nm_12T"}
        assert libs_by_tier[1] == {"28nm_9T"}

    def test_memory_macros_alternate_tiers(self, flow_het):
        """Macros spread over both dies so blockage stays balanced."""
        design, _ = flow_het
        tiers = sorted(m.tier for m in design.netlist.memory_macros())
        assert set(tiers) <= {0, 1}
        if len(tiers) >= 2:
            assert len(set(tiers)) == 2

    def test_cell_area_smaller_than_homogeneous(self, flow_het, flow_3d):
        """Remapping to 9T shrinks total cell area (the ~12% saving)."""
        het, _ = flow_het
        homo, _ = flow_3d
        het_std = het.netlist.cell_area_um2(lambda i: not i.cell.is_macro)
        homo_std = homo.netlist.cell_area_um2(lambda i: not i.cell.is_macro)
        assert het_std < homo_std

    def test_critical_path_prefers_fast_tier(self, flow_het):
        """Table VIII: most critical-path cells on the 12-track die."""
        _, r = flow_het
        cp = r.critical_path
        assert cp.cells_on_tier(0) >= cp.cells_on_tier(1)

    def test_clock_tree_top_die_heavy(self, flow_het):
        """Table VIII: >75% of hetero clock buffers on the top die."""
        _, r = flow_het
        assert r.clock.tier_fraction(1) > 0.5

    def test_average_stage_delay_slower_on_top(self, flow_het):
        _, r = flow_het
        cp = r.critical_path
        if cp.cells_on_tier(1) >= 2 and cp.cells_on_tier(0) >= 2:
            assert (
                cp.average_cell_delay_on_tier(1)
                > cp.average_cell_delay_on_tier(0)
            )

    def test_incompatible_voltage_pair_rejected(self, pair):
        import dataclasses

        lib12, lib9 = pair
        bad = dataclasses.replace(
            lib9, vdd_v=0.5, _cells=lib9._cells, _by_function=lib9._by_function
        )
        with pytest.raises(ValueError):
            run_flow_hetero_3d(
                "aes", lib12, bad, period_ns=1.0, scale=0.2, seed=SEED
            )


class TestTableVAblation:
    """Hetero-Pin-3D beats plain Pin-3D on the same heterogeneous stack."""

    @pytest.fixture(scope="class")
    def plain_and_enhanced(self, pair):
        lib12, lib9 = pair
        tight = 1.0
        plain = run_flow_hetero_3d(
            "cpu", lib12, lib9, period_ns=tight, scale=SCALE, seed=SEED,
            timing_partitioning=False, hetero_cts=False, repartition=False,
        )
        enhanced = run_flow_hetero_3d(
            "cpu", lib12, lib9, period_ns=tight, scale=SCALE, seed=SEED,
        )
        return plain, enhanced

    def test_enhancements_improve_wns(self, plain_and_enhanced):
        (_, plain), (_, enhanced) = plain_and_enhanced
        assert enhanced.wns_ns >= plain.wns_ns

    def test_wirelength_comparable(self, plain_and_enhanced):
        """Table V: WL is essentially unchanged (3.22 vs 3.23 mm)."""
        (_, plain), (_, enhanced) = plain_and_enhanced
        assert enhanced.wirelength_mm < plain.wirelength_mm * 1.35


@pytest.mark.parametrize(
    "flow,check",
    [
        pytest.param(flow, check, id=flow if check == "off" else f"{flow}-{check}")
        for check in ("off", "strict")
        for flow in ("2d", "pin3d", "hetero")
    ],
)
def test_finished_flow_is_freed_by_refcount(pair, flow, check, monkeypatch):
    """A flow leaves nothing for the cyclic collector: once its result
    is dropped, reference counting has freed the design, its delay
    calculator and timing session, and the clock tree builder.  Strict
    checking adds nothing: the calculators its timing check builds are
    released with the check."""
    import gc

    monkeypatch.setenv("REPRO_CHECK", check)
    lib12, lib9 = pair
    # At this scale the cpu partitions all its std-cell area onto one
    # tier, which strict tier_balance refuses (pinned in
    # test_integrity.py); aes partitions cleanly.
    hetero_design = "cpu" if check == "off" else "aes"
    run = {
        "2d": lambda: run_flow_2d("aes", lib12, period_ns=0.9, scale=0.1,
                                  seed=1),
        "pin3d": lambda: run_flow_pin3d("aes", lib12, period_ns=0.9,
                                        scale=0.1, seed=1),
        "hetero": lambda: run_flow_hetero_3d(hetero_design, lib12, lib9,
                                             period_ns=1.0, scale=0.1, seed=1),
    }[flow]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run()
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sorted({
            type(obj).__qualname__ for obj in gc.garbage
            if type(obj).__module__.startswith("repro")
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert leaked == []
