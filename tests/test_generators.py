"""Tests for the synthetic netlist generators (repro.netlist.generators).

Each design's published topology character is pinned down as a measurable
statistic, so "LDPC is wire dominant" is a test, not an adjective.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.flow.design import Design
from repro.integrity.checkpoint import design_to_dict
from repro.liberty.presets import make_twelve_track_library
from repro.netlist import generators
from repro.netlist.core import Netlist
from repro.netlist.generators import (
    DESIGN_NAMES,
    NetlistSpec,
    _Builder,
    generate_netlist,
)
from repro.netlist.stats import compute_stats, logic_depth_histogram


@pytest.fixture(scope="module")
def lib():
    return make_twelve_track_library()


@pytest.fixture(scope="module")
def all_designs(lib):
    return {
        name: generate_netlist(name, lib, scale=0.4, seed=7)
        for name in DESIGN_NAMES
    }


class TestSpec:
    def test_rejects_unknown_design(self):
        with pytest.raises(NetlistError):
            NetlistSpec(name="fft")

    def test_rejects_non_positive_scale(self):
        with pytest.raises(NetlistError):
            NetlistSpec(name="aes", scale=0.0)


class TestStructuralValidity:
    def test_all_designs_validate(self, all_designs):
        for nl in all_designs.values():
            nl.validate()

    def test_all_designs_are_acyclic(self, all_designs):
        for nl in all_designs.values():
            nl.topological_order()

    def test_every_design_has_clock_and_ports(self, all_designs):
        for nl in all_designs.values():
            assert nl.clock_port == "clk"
            assert any(nl.ports)

    def test_every_design_registers_at_boundaries(self, all_designs):
        for nl in all_designs.values():
            assert len(nl.sequential_instances()) > 10


class TestDeterminismAndScale:
    def test_same_seed_same_netlist(self, lib):
        a = generate_netlist("cpu", lib, scale=0.4, seed=3)
        b = generate_netlist("cpu", lib, scale=0.4, seed=3)
        assert a.summary() == b.summary()
        assert sorted(a.instances) == sorted(b.instances)

    def test_different_seed_differs(self, lib):
        a = generate_netlist("ldpc", lib, scale=0.4, seed=3)
        b = generate_netlist("ldpc", lib, scale=0.4, seed=4)
        # connectivity differs even if counts are close
        nets_a = {n.name: tuple(sorted(n.sinks)) for n in a.nets.values()}
        nets_b = {n.name: tuple(sorted(n.sinks)) for n in b.nets.values()}
        assert nets_a != nets_b

    def test_scale_grows_instance_count(self, lib):
        small = generate_netlist("netcard", lib, scale=0.3, seed=1)
        big = generate_netlist("netcard", lib, scale=0.8, seed=1)
        assert len(big.instances) > 1.8 * len(small.instances)


class TestDesignCharacter:
    def test_netcard_is_largest(self, all_designs):
        sizes = {n: len(nl.instances) for n, nl in all_designs.items()}
        assert sizes["netcard"] == max(sizes.values())

    def test_only_cpu_has_memory_macros(self, all_designs):
        for name, nl in all_designs.items():
            if name == "cpu":
                assert len(nl.memory_macros()) >= 1
            else:
                assert nl.memory_macros() == []

    def test_cpu_macro_area_fraction_significant(self, all_designs):
        """Paper: cache contributes ~40% of the CPU footprint."""
        nl = all_designs["cpu"]
        macro = nl.cell_area_um2(lambda i: i.cell.is_macro)
        total = nl.cell_area_um2()
        assert 0.25 <= macro / total <= 0.75

    def test_cpu_has_deep_and_shallow_blocks(self, all_designs):
        """The mul block is the deep critical cluster of Section III-A1."""
        hist = logic_depth_histogram(all_designs["cpu"])
        assert max(hist) >= 20
        shallow = sum(c for d, c in hist.items() if d <= max(hist) // 2)
        assert shallow > 0.3 * sum(hist.values())

    def test_aes_depths_are_uniform(self, all_designs):
        """AES slices are symmetric: depth spread much tighter than CPU."""
        aes_hist = logic_depth_histogram(all_designs["aes"])
        cpu_hist = logic_depth_histogram(all_designs["cpu"])

        def spread(hist):
            total = sum(hist.values())
            mean = sum(d * c for d, c in hist.items()) / total
            var = sum(c * (d - mean) ** 2 for d, c in hist.items()) / total
            return var ** 0.5 / mean

        assert spread(aes_hist) < spread(cpu_hist)

    def test_ldpc_is_most_wire_dominant(self, all_designs):
        """LDPC has the highest wiring pressure per unit cell area."""
        pressure = {}
        for name, nl in all_designs.items():
            stats = compute_stats(nl)
            pressure[name] = stats.mean_fanout
        assert pressure["ldpc"] >= pressure["aes"]

    def test_blocks_tagged(self, all_designs):
        blocks = {i.block for i in all_designs["cpu"].instances.values()}
        assert {"mul", "alu", "lsu"} <= blocks


# ----------------------------------------------------------------------
# the gate-function sampler against numpy's weighted choice
# ----------------------------------------------------------------------
def choice_sampler(self, mix):
    """The sampler as it was: ``Generator.choice`` with ``p=`` per gate."""
    functions = [f for f, _ in mix]
    weights = np.array([w for _, w in mix], dtype=float)
    weights /= weights.sum()
    return functions[int(self.rng.choice(len(functions), p=weights))]


MIXES = [
    value for key, value in vars(generators).items() if key.endswith("_MIX")
]


class TestFunctionSampler:
    @pytest.mark.parametrize("name", DESIGN_NAMES)
    def test_designs_match_choice_sampler(self, name, lib, monkeypatch):
        for scale in (0.08, 0.25, 0.5):
            for seed in range(4):
                live = generate_netlist(name, lib, scale=scale, seed=seed)
                with monkeypatch.context() as mp:
                    mp.setattr(_Builder, "_sample_function", choice_sampler)
                    frozen = generate_netlist(name, lib, scale=scale, seed=seed)
                assert as_dict(live, lib) == as_dict(frozen, lib)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        mix=st.sampled_from(MIXES),
        draws=st.integers(min_value=1, max_value=400),
    )
    def test_draws_match_choice(self, seed, mix, draws):
        lib = make_twelve_track_library()
        live = _Builder(Netlist("live"), lib, np.random.default_rng(seed))
        frozen = _Builder(Netlist("frozen"), lib, np.random.default_rng(seed))
        functions = [f for f, _ in mix]
        assert [
            functions.index(live._sample_function(mix)) for _ in range(draws)
        ] == [
            functions.index(choice_sampler(frozen, mix)) for _ in range(draws)
        ]
        # the random stream is left in the same state
        assert live.rng.random() == frozen.rng.random()

    def test_module_mixes_found(self):
        assert len(MIXES) >= 2


def as_dict(netlist, lib):
    return design_to_dict(
        Design(netlist.name, "2D_12T", netlist, {0: lib}, target_period_ns=1.0)
    )
