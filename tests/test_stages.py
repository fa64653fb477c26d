"""Tests for shared flow stages (repro.flow.stages)."""

import pytest

from repro.flow.design import Design
from repro.flow.stages import (
    CONGESTION_LIMIT,
    legalize_all_tiers,
    place_with_congestion_control,
)
from repro.liberty.presets import make_library_pair
from repro.netlist.generators import generate_netlist


@pytest.fixture(scope="module")
def pair():
    return make_library_pair()


def make_design(pair, name="aes", scale=0.25, tiers=1):
    lib12, lib9 = pair
    nl = generate_netlist(name, lib12, scale=scale, seed=15)
    tier_libs = {0: lib12} if tiers == 1 else {0: lib12, 1: lib12}
    return Design(name, "t", nl, tier_libs, target_period_ns=1.0,
                  utilization_target=0.8)


class TestPlaceWithCongestionControl:
    def test_places_and_records_notes(self, pair):
        design = make_design(pair)
        used = place_with_congestion_control(design)
        assert design.floorplan is not None
        assert used == design.notes["utilization_used"]
        assert "peak_congestion_at_floorplan" in design.notes
        for inst in design.netlist.instances.values():
            assert inst.is_placed

    def test_uncongested_design_keeps_target(self, pair):
        design = make_design(pair, name="aes")
        used = place_with_congestion_control(design)
        assert used == design.utilization_target

    def test_congested_design_backs_off(self, pair):
        """LDPC's global wiring forces a lower utilization (Table VI).

        Congestion only crosses the limit after synthesis sizing has
        grown the pin loads, exactly as in the real flow order.
        """
        from repro.flow.synthesis import initial_sizing
        from repro.netlist.generators import generate_netlist

        lib12, _ = pair
        # seed 1 at scale 0.5 is the matrix condition where LDPC's global
        # wiring crosses the routability limit
        nl = generate_netlist("ldpc", lib12, scale=0.5, seed=1)
        design = Design("ldpc", "t", nl, {0: lib12},
                        target_period_ns=0.5, utilization_target=0.85)
        initial_sizing(design)
        used = place_with_congestion_control(design)
        assert used < 0.85
        assert design.notes["peak_congestion_at_floorplan"] > 0

    def test_retry_loop_exhausts_at_max_retries(self, pair, monkeypatch):
        """A floorplan that never routes backs off exactly MAX_RETRIES
        times and keeps the *final* attempt's congestion in the notes."""
        from types import SimpleNamespace

        import repro.flow.stages as stages

        peaks = []

        def always_congested(netlist, lib, w, h, tiers):
            peaks.append(2.0 - 0.1 * len(peaks))  # distinct per attempt
            return SimpleNamespace(peak_demand=peaks[-1])

        monkeypatch.setattr(stages, "analyze_congestion", always_congested)
        design = make_design(pair)
        used = place_with_congestion_control(design)
        assert len(peaks) == stages.MAX_RETRIES + 1
        assert used == pytest.approx(
            design.utilization_target
            * stages.UTILIZATION_BACKOFF ** stages.MAX_RETRIES
        )
        assert design.notes["peak_congestion_at_floorplan"] == peaks[-1]
        assert design.notes["utilization_used"] == used

    def test_retry_loop_stops_once_under_limit(self, pair, monkeypatch):
        """Congestion clearing on the third attempt stops the backoff at
        two shrinks -- no further attempts are spent."""
        from types import SimpleNamespace

        import repro.flow.stages as stages

        demands = iter([1.8, 1.3, CONGESTION_LIMIT * 0.9])
        calls = []

        def scripted(netlist, lib, w, h, tiers):
            calls.append(1)
            return SimpleNamespace(peak_demand=next(demands))

        monkeypatch.setattr(stages, "analyze_congestion", scripted)
        design = make_design(pair)
        used = place_with_congestion_control(design)
        assert len(calls) == 3
        assert used == pytest.approx(
            design.utilization_target * stages.UTILIZATION_BACKOFF**2
        )
        assert (
            design.notes["peak_congestion_at_floorplan"]
            == CONGESTION_LIMIT * 0.9
        )

    def test_pseudo_3d_mode_halves_footprint(self, pair):
        flat = make_design(pair)
        place_with_congestion_control(flat)
        pseudo = make_design(pair, tiers=2)
        place_with_congestion_control(pseudo, demand_scale=0.5,
                                      area_scale=0.5)
        assert pseudo.floorplan.area_um2 == pytest.approx(
            flat.floorplan.area_um2 / 2, rel=0.02
        )


class TestLegalizeAllTiers:
    def test_requires_floorplan(self, pair):
        design = make_design(pair)
        from repro.errors import PlacementError

        with pytest.raises(PlacementError):
            legalize_all_tiers(design)

    def test_returns_stats_per_tier(self, pair):
        design = make_design(pair, tiers=2)
        # split instances over the tiers
        for i, inst in enumerate(design.netlist.instances.values()):
            if not inst.cell.is_macro:
                inst.tier = i % 2
        place_with_congestion_control(design, demand_scale=0.5,
                                      area_scale=0.5)
        stats = legalize_all_tiers(design)
        assert set(stats) == {0, 1}
        assert all(s.cells > 0 for s in stats.values())


# -- every flow's stage list --------------------------------------------------

SYNTH = ("synthesis", ("connectivity", "timing"))
PLACE = ("placement", ("connectivity",))
PSEUDO = ("pseudo_place", ("connectivity",))
PARTITION = ("partitioning", ("connectivity", "tiers", "tier_balance"))
PLACE_3D = ("placement_3d", ("connectivity", "tiers"))
LEGALIZE = ("legalization", ("connectivity", "placement", "tiers"))
LEVEL_SHIFT = ("level_shift", ("connectivity", "placement", "tiers"))
OPTIMIZE = ("optimize", ("connectivity", "placement", "timing"))
CTS = ("cts", ("connectivity", "timing"))
POSTCTS = ("postcts", ("connectivity", "placement", "timing"))
# hetero's post-CTS pass leaves legalization to the ECO / final_legalize
POSTCTS_HET = ("postcts", ("connectivity", "timing"))
REPARTITION = ("repartition", ("connectivity", "timing"))
FINAL_SHIFTERS = ("final_shifters", ("connectivity",))
FINAL_LEGALIZE = ("final_legalize", ("connectivity", "placement", "tiers"))
SIGNOFF = ("signoff", ("connectivity", "placement", "tiers", "timing"))

HET_FRONT = [SYNTH, PSEUDO, PARTITION, PLACE_3D, LEGALIZE]
HET_SIZING = [OPTIMIZE, CTS, POSTCTS_HET]
HET_TAIL = [FINAL_LEGALIZE, SIGNOFF]


def _stage_list(monkeypatch, module_name: str, run) -> list:
    """The ``(name, checks)`` list a flow hands ``execute_flow``."""
    import importlib

    from repro.flow.pipeline import FlowContext

    seen = []

    def record(stages, **_kw):
        seen.extend((s.name, s.checks) for s in stages)
        return FlowContext()

    monkeypatch.setattr(importlib.import_module(module_name),
                        "execute_flow", record)
    run()
    return seen


class TestFlowStageLists:
    """Stage names, order and check sets of every flow variant."""

    @pytest.fixture(scope="class")
    def low(self):
        from repro.liberty.presets import make_track_variant

        return make_track_variant(9, vdd_v=0.55)  # needs level shifters

    def test_2d(self, pair, monkeypatch):
        from repro.flow.flow2d import run_flow_2d

        got = _stage_list(monkeypatch, "repro.flow.flow2d",
                          lambda: run_flow_2d("aes", pair[0], period_ns=1.0))
        assert got == [SYNTH, PLACE, LEGALIZE, OPTIMIZE, CTS, POSTCTS,
                       SIGNOFF]

    def test_pin3d(self, pair, monkeypatch):
        from repro.flow.pin3d import run_flow_pin3d

        got = _stage_list(monkeypatch, "repro.flow.pin3d",
                          lambda: run_flow_pin3d("aes", pair[0],
                                                 period_ns=1.0))
        assert got == [SYNTH, PSEUDO, PARTITION, PLACE_3D, LEGALIZE,
                       OPTIMIZE, CTS, POSTCTS, SIGNOFF]

    @pytest.mark.parametrize("kwargs, expected", [
        pytest.param({}, HET_FRONT + HET_SIZING + [REPARTITION] + HET_TAIL,
                     id="default"),
        pytest.param({"repartition": False},
                     HET_FRONT + HET_SIZING + HET_TAIL, id="no_eco"),
        pytest.param({"timing_partitioning": False, "hetero_cts": False,
                      "repartition": False},
                     HET_FRONT + HET_SIZING + HET_TAIL, id="ablation"),
        pytest.param({"allow_level_shifters": True, "repartition": False},
                     HET_FRONT + [LEVEL_SHIFT] + HET_SIZING
                     + [FINAL_SHIFTERS] + HET_TAIL, id="shifters"),
        pytest.param({"allow_level_shifters": True},
                     HET_FRONT + [LEVEL_SHIFT] + HET_SIZING
                     + [REPARTITION, FINAL_SHIFTERS] + HET_TAIL,
                     id="shifters_eco"),
    ])
    def test_hetero(self, pair, low, monkeypatch, kwargs, expected):
        from repro.flow.hetero import run_flow_hetero_3d

        slow = low if kwargs.get("allow_level_shifters") else pair[1]
        got = _stage_list(
            monkeypatch, "repro.flow.hetero",
            lambda: run_flow_hetero_3d("aes", pair[0], slow, period_ns=1.0,
                                       **kwargs),
        )
        assert got == expected
