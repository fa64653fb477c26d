"""Tests for synthesis stand-in (repro.flow.synthesis)."""

from contextlib import contextmanager

import pytest

from repro.experiments.configs import configurations
from repro.flow.design import Design
from repro.flow.memo import StageMemo, current_memo, stage_memo
from repro.flow.synthesis import (
    fix_drv_violations,
    initial_sizing,
    max_drv_load_ff,
    synthesize,
)
from repro.integrity.checkpoint import design_to_dict
from repro.liberty.cells import CellFunction
from repro.liberty.presets import make_library_pair
from repro.netlist.core import Netlist, PortDirection
from repro.netlist.generators import generate_netlist


@pytest.fixture(scope="module")
def pair():
    return make_library_pair()


def make_design(pair, lib_index=0, name="cpu", period=1.0, scale=0.3):
    lib = pair[lib_index]
    nl = generate_netlist(name, lib, scale=scale, seed=17)
    return Design(
        name=name, config="x", netlist=nl, tier_libs={0: lib},
        target_period_ns=period,
    )


class TestDrvRules:
    def test_slow_library_has_stricter_limit(self, pair):
        lib12, lib9 = pair
        assert max_drv_load_ff(lib9) < max_drv_load_ff(lib12)

    def test_fix_splits_overloaded_net(self, pair):
        lib12, _ = pair
        nl = Netlist("fan")
        nl.add_port("din", PortDirection.INPUT)
        nl.add_instance("drv", lib12.get(CellFunction.INV, 1))
        nl.connect("din", "drv", "A")
        nl.add_net("big")
        nl.connect("big", "drv", "Y")
        # 60 x4 sinks: far beyond the 12T max-cap rule
        for i in range(60):
            nl.add_instance(f"s{i}", lib12.get(CellFunction.INV, 4))
            nl.connect("big", f"s{i}", "A")
        design = Design("fan", "x", nl, {0: lib12})
        added = fix_drv_violations(design)
        assert added >= 2
        nl.validate()
        limit = max_drv_load_ff(lib12)
        for net in nl.nets.values():
            if net.driver is None or net.is_clock:
                continue
            load = sum(
                nl.instances[s].cell.input_capacitance_ff(p)
                for s, p in net.sinks
            )
            assert load <= limit * 1.5  # buffers themselves respect the rule

    def test_fix_is_idempotent_when_clean(self, pair):
        design = make_design(pair, name="aes", scale=0.2)
        fix_drv_violations(design)
        assert fix_drv_violations(design) == 0


class TestInitialSizing:
    def test_resizes_loaded_drivers(self, pair):
        design = make_design(pair)
        resized = initial_sizing(design)
        assert resized > 0
        design.netlist.validate()

    def test_aggressive_target_inflates_slow_library_more(self, pair):
        """The 9-track over-correction: same netlist, same target, the
        slow library spends far more area in synthesis (Section IV-B2)."""
        # 1.3 ns: comfortably closable in 12-track, straining in 9-track
        d12 = make_design(pair, lib_index=0, period=1.3)
        d9 = make_design(pair, lib_index=1, period=1.3)
        base12 = d12.netlist.cell_area_um2()
        base9 = d9.netlist.cell_area_um2()
        initial_sizing(d12)
        initial_sizing(d9)
        growth12 = d12.netlist.cell_area_um2() / base12
        growth9 = d9.netlist.cell_area_um2() / base9
        assert growth9 > growth12


class TestSynthesisStore:
    """synthesize() inside a stage memo equals cold synthesis, byte for
    byte."""

    PERIOD = 0.7

    @staticmethod
    def _configs(pair):
        lib12, lib9 = pair
        return {
            "2D_12T": {0: lib12},
            "3D_12T": {0: lib12, 1: lib12},
            "3D_HET": {0: lib12, 1: lib9},
            "2D_9T": {0: lib9},
            "3D_9T": {0: lib9, 1: lib9},
        }

    @staticmethod
    def _synth(config, tier_libs, period):
        return synthesize(
            "aes", config, tier_libs, period_ns=period, scale=0.15, seed=4,
            utilization=0.8,
        )

    @staticmethod
    def _record_memos(monkeypatch):
        """Every memo run_matrix opens, with the keys stored in it."""
        from repro.experiments import runner

        memos: list[tuple[StageMemo, list]] = []
        real_memo = runner.stage_memo
        real_put = StageMemo.put

        @contextmanager
        def recording():
            with real_memo() as memo:
                memos.append((memo, []))
                yield memo

        def put(memo, key, value, *pins):
            next(keys for m, keys in memos if m is memo).append(key)
            real_put(memo, key, value, *pins)

        monkeypatch.setattr(runner, "stage_memo", recording)
        monkeypatch.setattr(StageMemo, "put", put)
        return memos

    def test_hits_equal_cold_synthesis(self, pair):
        configs = self._configs(pair)
        cold = {
            config: design_to_dict(self._synth(config, libs, self.PERIOD))
            for config, libs in configs.items()
        }
        with stage_memo() as memo:
            for config, libs in configs.items():
                assert design_to_dict(
                    self._synth(config, libs, self.PERIOD)
                ) == cold[config]
            # one period-independent and one finished entry per library
            assert len(memo) == 4

    def test_base_entry_serves_another_period(self, pair):
        libs = self._configs(pair)["3D_HET"]
        cold = design_to_dict(self._synth("3D_HET", libs, 0.45))
        with stage_memo():
            self._synth("2D_12T", {0: pair[0]}, self.PERIOD)
            warm = self._synth("3D_HET", libs, 0.45)
        assert design_to_dict(warm) == cold

    def test_every_hit_is_a_fresh_netlist(self, pair):
        libs = {0: pair[0]}
        with stage_memo():
            first = self._synth("2D_12T", libs, self.PERIOD)
            expected = design_to_dict(first)
            victim = next(iter(first.netlist.instances))
            first.netlist.remove_instance(victim)
            second = self._synth("2D_12T", libs, self.PERIOD)
            third = self._synth("2D_12T", libs, self.PERIOD)
        assert second.netlist is not third.netlist
        assert design_to_dict(second) == expected
        assert design_to_dict(third) == expected

    def test_store_keeps_one_design(self, tmp_path, monkeypatch):
        """The matrix memo never holds two designs' entries: each design
        row opens its own."""
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        memos = self._record_memos(monkeypatch)
        runner.run_matrix(
            designs=("aes", "ldpc"), config_names=("2D_12T",),
            scale=0.1, seed=4, jobs=1,
            target_periods={"aes": self.PERIOD, "ldpc": 1.2},
        )
        assert [{key[0] for key in keys} for _memo, keys in memos] == [
            {"aes"}, {"ldpc"},
        ]

    def test_matrix_scopes_and_empties_its_store(self, pair, monkeypatch):
        from repro.experiments import runner
        from repro.flow import synthesis

        memos = self._record_memos(monkeypatch)
        generated = []
        real_generate = synthesis.generate_netlist
        monkeypatch.setattr(
            synthesis, "generate_netlist",
            lambda *args, **kw: generated.append(args)
            or real_generate(*args, **kw),
        )
        matrix = runner.run_matrix(
            designs=("aes",),
            config_names=("2D_12T", "3D_12T", "3D_HET"),
            scale=0.15, seed=4, jobs=1,
            target_periods={"aes": self.PERIOD},
        )
        assert len(memos) == 1
        memo, _keys = memos[0]
        assert len(memo) == 0 and not memo.pinned
        assert current_memo() is None
        assert len(generated) == 1  # 3D_12T and 3D_HET reuse 2D_12T
        # Outside run_matrix nothing is stored: every flow runs cold.
        configs = configurations()
        for config in ("2D_12T", "3D_12T", "3D_HET"):
            _design, cold = configs[config].run(
                "aes", period_ns=self.PERIOD, scale=0.15, seed=4
            )
            assert cold.to_dict() == matrix.result("aes", config).to_dict()
        assert len(memos) == 1 and len(generated) == 4

    def test_memo_serializes_nothing(self, pair, monkeypatch):
        """Entries are structural copies: synthesis inside a memo never
        builds or reads a checkpoint payload."""
        import sys

        from repro.integrity import checkpoint

        calls = []
        for name in ("design_to_dict", "design_from_dict"):
            real = getattr(checkpoint, name)

            def spy(*args, _name=name, _real=real, **kw):
                calls.append(_name)
                return _real(*args, **kw)

            for module in list(sys.modules.values()):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy)
        with stage_memo() as memo:
            for config, libs in self._configs(pair).items():
                self._synth(config, libs, self.PERIOD)
                self._synth(config, libs, 0.45)
            assert len(memo) == 6  # per library: base, two periods
        assert calls == []

    def test_pool_path_holds_no_store(self, monkeypatch):
        """Pool workers fork from the caller, so they must not see a memo."""
        from repro.experiments import runner

        seen = []

        def fake_pool(matrix, **_kwargs):
            seen.append(current_memo())
            return True

        monkeypatch.setattr(runner, "_run_matrix_pool", fake_pool)
        runner.run_matrix(
            designs=("aes",), config_names=("2D_12T",), scale=0.15, seed=4,
            jobs=2, target_periods={"aes": self.PERIOD},
        )
        assert seen == [None]
