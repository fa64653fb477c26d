"""Checkpoint serialization, checksum integrity, and stage resume."""

import json

import pytest

from repro.errors import CheckpointError, FlowError
from repro.flow import run_flow_2d, run_flow_hetero_3d
from repro.flow.pipeline import FlowContext, Stage, execute_flow
from repro.integrity import (
    design_from_dict,
    design_to_dict,
    latest_valid_checkpoint,
    library_from_spec,
    load_checkpoint,
    write_checkpoint,
)
from repro.liberty.presets import make_library_pair, make_twelve_track_library

SCALE = 0.12

#: A period tight enough that the optimizer clones drivers in the
#: small aes flows below.
CLONING_PERIOD_NS = 0.45


def clone_count(design) -> int:
    """Instances load cloning added (``<driver>_cl_<n>``)."""
    return sum("_cl_" in name for name in design.netlist.instances)


@pytest.fixture(scope="module")
def finished():
    design, result = run_flow_2d(
        "aes", make_twelve_track_library(), period_ns=1.0, scale=SCALE,
        seed=4,
    )
    return design, result


class TestSerialization:
    def test_roundtrip_is_byte_identical(self, finished):
        design, _ = finished
        once = design_to_dict(design)
        again = design_to_dict(design_from_dict(once))
        assert (json.dumps(once, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_rebuilt_design_validates(self, finished):
        design, _ = finished
        rebuilt = design_from_dict(design_to_dict(design))
        rebuilt.netlist.validate()
        assert rebuilt.name == design.name
        assert rebuilt.clock_report == design.clock_report

    def test_caller_libs_are_bound_verbatim(self, finished):
        design, _ = finished
        lib = design.tier_libs[0]
        rebuilt = design_from_dict(design_to_dict(design), tier_libs={0: lib})
        assert rebuilt.tier_libs[0] is lib
        inst = next(i for i in rebuilt.netlist.instances.values()
                    if not i.cell.is_macro)
        assert any(c is inst.cell for c in lib.cells)

    def test_library_from_spec_variants(self):
        lib = library_from_spec(
            {"name": "28nm_12T", "tracks": 12, "vdd_v": 0.9}
        )
        assert lib.name == "28nm_12T"
        low = library_from_spec(
            {"name": "28nm_9T_0.55V", "tracks": 9, "vdd_v": 0.55}
        )
        assert low.vdd_v == 0.55


class TestEnvelope:
    def test_write_and_load(self, finished, tmp_path):
        design, _ = finished
        path = write_checkpoint(tmp_path, 3, "optimize", design)
        assert path.name == "03_optimize.json"
        stage, loaded = load_checkpoint(path)
        assert stage == "optimize"
        assert (json.dumps(design_to_dict(loaded), sort_keys=True)
                == json.dumps(design_to_dict(design), sort_keys=True))

    def test_tampered_payload_is_rejected(self, finished, tmp_path):
        design, _ = finished
        path = write_checkpoint(tmp_path, 0, "synthesis", design)
        env = json.loads(path.read_text())
        env["design"]["target_period_ns"] = 99.0
        path.write_text(json.dumps(env))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file_is_rejected(self, finished, tmp_path):
        design, _ = finished
        path = write_checkpoint(tmp_path, 0, "synthesis", design)
        path.write_text(path.read_text()[:100])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_fallback_walks_past_corrupt(self, finished, tmp_path):
        design, _ = finished
        names = ["a", "b", "c"]
        for i, n in enumerate(names):
            write_checkpoint(tmp_path, i, n, design)
        (tmp_path / "01_b.json").write_text("garbage")
        found = latest_valid_checkpoint(tmp_path, names, 2, None)
        assert found is not None and found[0] == 0
        assert found[1].name == design.name

    def test_fallback_none_when_all_bad(self, tmp_path):
        assert latest_valid_checkpoint(tmp_path, ["a", "b"], 2, None) is None


class TestResume:
    def test_resume_is_byte_identical(self, tmp_path):
        lib = make_twelve_track_library()
        kw = dict(period_ns=1.0, scale=SCALE, seed=4,
                  checkpoint_dir=str(tmp_path))
        _, full = run_flow_2d("aes", lib, **kw)
        _, resumed = run_flow_2d("aes", lib, **kw, from_stage="cts")
        assert (json.dumps(full.to_dict(), sort_keys=True)
                == json.dumps(resumed.to_dict(), sort_keys=True))

    def test_resume_falls_back_past_corrupt_stage(self, tmp_path):
        lib = make_twelve_track_library()
        kw = dict(period_ns=1.0, scale=SCALE, seed=4,
                  checkpoint_dir=str(tmp_path))
        _, full = run_flow_2d("aes", lib, **kw)
        (tmp_path / "03_optimize.json").write_text("garbage")
        _, resumed = run_flow_2d("aes", lib, **kw, from_stage="cts")
        assert (json.dumps(full.to_dict(), sort_keys=True)
                == json.dumps(resumed.to_dict(), sort_keys=True))

    def test_in_memory_continuation_at_every_boundary(self, tmp_path):
        """Stopping a hetero flow after any stage and continuing from
        the design it returned gives the cold run's result -- and so
        does resuming the next stage from the checkpoint files.  The
        period makes the optimizer clone, so the nets load cloning
        leaves stale must be settled at every boundary: the in-memory
        design carries its calculator on, a disk resume starts fresh."""
        lib12, lib9 = make_library_pair()
        kw = dict(period_ns=CLONING_PERIOD_NS, scale=0.08, seed=1,
                  opt_iterations=2, check="strict")
        design, cold = run_flow_hetero_3d(
            "aes", lib12, lib9, checkpoint_dir=str(tmp_path), **kw
        )
        assert clone_count(design) > 0
        expected = json.dumps(cold.to_dict(), sort_keys=True)
        names = [p.stem[3:] for p in sorted(tmp_path.glob("*.json"))]
        assert names[-1] == "signoff" and len(names) > 5
        for stop, resume in zip(names, names[1:]):
            design, partial = run_flow_hetero_3d(
                "aes", lib12, lib9, until_stage=stop, **kw
            )
            assert partial is None
            _, memory = run_flow_hetero_3d(
                "aes", lib12, lib9, design=design, from_stage=resume, **kw
            )
            _, disk = run_flow_hetero_3d(
                "aes", lib12, lib9, checkpoint_dir=str(tmp_path),
                from_stage=resume, **kw
            )
            for result in (memory, disk):
                assert (json.dumps(result.to_dict(), sort_keys=True)
                        == expected), stop

    def test_2d_resume_at_every_boundary(self, tmp_path):
        """A cold 2-D run times every stage on one calculator; resuming
        at any stage from its checkpoint builds a fresh design and
        calculator, and must reproduce the cold result byte for byte."""
        lib = make_twelve_track_library()
        kw = dict(period_ns=CLONING_PERIOD_NS, scale=SCALE, seed=4,
                  checkpoint_dir=str(tmp_path), check="strict")
        design, cold = run_flow_2d("aes", lib, **kw)
        assert clone_count(design) > 0
        expected = json.dumps(cold.to_dict(), sort_keys=True)
        names = [p.stem[3:] for p in sorted(tmp_path.glob("*.json"))]
        assert names[-1] == "signoff"
        for resume in names[1:]:
            _, resumed = run_flow_2d("aes", lib, from_stage=resume, **kw)
            assert (json.dumps(resumed.to_dict(), sort_keys=True)
                    == expected), resume

    def test_in_memory_design_needs_from_stage(self):
        lib12, lib9 = make_library_pair()
        kw = dict(period_ns=1.0, scale=0.08, seed=1, opt_iterations=2)
        design, _ = run_flow_hetero_3d(
            "aes", lib12, lib9, until_stage="synthesis", **kw
        )
        with pytest.raises(FlowError, match="from_stage"):
            run_flow_hetero_3d("aes", lib12, lib9, design=design, **kw)

    def test_from_stage_requires_checkpoint_dir(self):
        lib = make_twelve_track_library()
        with pytest.raises(FlowError, match="checkpoint-dir"):
            run_flow_2d("aes", lib, period_ns=1.0, scale=SCALE, seed=4,
                        from_stage="cts")

    def test_unknown_stage_rejected(self, tmp_path):
        lib = make_twelve_track_library()
        with pytest.raises(FlowError, match="unknown stage"):
            run_flow_2d("aes", lib, period_ns=1.0, scale=SCALE, seed=4,
                        checkpoint_dir=str(tmp_path), from_stage="routing")


class TestDriver:
    def test_duplicate_stage_names_rejected(self):
        s = [Stage("a", lambda ctx: None), Stage("a", lambda ctx: None)]
        with pytest.raises(FlowError, match="duplicate"):
            execute_flow(s)

    def test_stages_run_in_order(self):
        seen = []
        s = [
            Stage("a", lambda ctx: seen.append("a")),
            Stage("b", lambda ctx: seen.append("b")),
        ]
        ctx = execute_flow(s)
        assert seen == ["a", "b"]
        assert isinstance(ctx, FlowContext)

    def test_deferred_invalidations_flushed_after_each_stage(self, finished):
        """A net a stage defers on the held calculator is uncached before
        the next stage runs."""
        design = design_from_dict(design_to_dict(finished[0]),
                                  finished[0].tier_libs)
        calc = design.calculator(placed=True)
        net = next(n for n in design.netlist.nets.values() if n.sinks)
        calc.net_parasitics(net)
        cached = []

        def defer(ctx):
            ctx.design = design
            calc.defer_invalidation(net.name)
            cached.append(net.name in calc.cached_parasitics())

        execute_flow([
            Stage("defer", defer),
            Stage("next", lambda ctx: cached.append(
                net.name in calc.cached_parasitics())),
        ])
        assert cached == [True, False]


class TestStrictOffEquivalence:
    def test_strict_matches_off_byte_for_byte(self):
        lib = make_twelve_track_library()
        kw = dict(period_ns=1.0, scale=SCALE, seed=4)
        _, off = run_flow_2d("aes", lib, **kw, check="off")
        _, strict = run_flow_2d("aes", lib, **kw, check="strict")
        assert (json.dumps(off.to_dict(), sort_keys=True)
                == json.dumps(strict.to_dict(), sort_keys=True))
