"""Checksummed mid-flow checkpoints of the :class:`Design` state.

After each stage boundary passes its contract checks, the pipeline can
serialize the whole mutable flow state -- netlist, tier/library
bindings, floorplan, clock report, notes -- to
``<checkpoint-dir>/NN_stage.json``.  ``--from-stage`` later resumes the
flow from the checkpoint *preceding* the named stage; a corrupt or
truncated file is detected by its SHA-256 payload checksum and resume
falls back to the last valid earlier stage (re-running the stages in
between), so a killed run never has to start from scratch because its
newest checkpoint was half-written.

Byte-identical resume is a hard guarantee the serialization is built
around: floats survive the JSON round-trip exactly (``repr`` encoding),
and dict/list orders that downstream stages iterate -- net insertion
order, per-net sink order, per-instance pin-binding order -- are
reconstructed verbatim rather than replayed through ``connect()``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.cts.tree import ClockReport
from repro.errors import CheckpointError
from repro.flow.design import Design
from repro.liberty.library import StdCellLibrary
from repro.log import get_logger
from repro.netlist.core import Instance, Net, Netlist, PortDirection
from repro.place.floorplan import Floorplan, MacroSlot

__all__ = [
    "CHECKPOINT_FORMAT",
    "checkpoint_path",
    "design_from_dict",
    "design_to_dict",
    "latest_valid_checkpoint",
    "library_from_spec",
    "load_checkpoint",
    "read_checkpoint",
    "rebind_checkpoint_tier_library",
    "rebind_design_tier_library",
    "rebind_tier_library",
    "write_checkpoint",
]

CHECKPOINT_FORMAT = 1

_log = get_logger("checkpoint")


# ----------------------------------------------------------------------
# Design <-> dict
# ----------------------------------------------------------------------
def _library_spec(lib: StdCellLibrary) -> dict:
    return {"name": lib.name, "tracks": lib.tracks, "vdd_v": lib.vdd_v}


def library_from_spec(spec: dict) -> StdCellLibrary:
    """Rebuild a preset library from its stored identity.

    Checkpoints do not embed timing tables; libraries are reconstructed
    from :mod:`repro.liberty.presets` and verified by name.
    """
    from repro.liberty.presets import (
        make_nine_track_library,
        make_track_variant,
        make_twelve_track_library,
    )

    name = str(spec.get("name", ""))
    if name == "28nm_12T":
        return make_twelve_track_library()
    if name == "28nm_9T":
        return make_nine_track_library()
    try:
        tracks = int(spec["tracks"])
        vdd_v = float(spec["vdd_v"])
    except (KeyError, TypeError, ValueError):
        raise CheckpointError(f"malformed library spec {spec!r}") from None
    lib = make_track_variant(tracks)
    if lib.name != name or abs(lib.vdd_v - vdd_v) > 1e-9:
        lib = make_track_variant(tracks, vdd_v=vdd_v)
    if lib.name != name:
        raise CheckpointError(
            f"cannot reconstruct library {name!r} from tracks={tracks}, "
            f"vdd={vdd_v} (got {lib.name!r})"
        )
    return lib


def design_to_dict(design: Design) -> dict:
    """JSON-safe deep-dict view of the full mutable flow state."""
    netlist = design.netlist
    payload: dict = {
        "name": design.name,
        "config": design.config,
        "target_period_ns": design.target_period_ns,
        "utilization_target": design.utilization_target,
        "tier_libs": {
            str(tier): _library_spec(lib)
            for tier, lib in design.tier_libs.items()
        },
        "netlist": {
            "name": netlist.name,
            "ports": {n: d.value for n, d in netlist.ports.items()},
            "clock_port": netlist.clock_port,
            "instances": [
                {
                    "name": inst.name,
                    "cell": inst.cell.name,
                    "lib": inst.cell.library_name,
                    "tier": inst.tier,
                    "x_um": inst.x_um,
                    "y_um": inst.y_um,
                    "block": inst.block,
                    "fixed": inst.fixed,
                    "pins": dict(inst._pin_nets),
                }
                for inst in netlist.instances.values()
            ],
            "nets": [
                {
                    "name": net.name,
                    "driver": list(net.driver) if net.driver else None,
                    "sinks": [list(s) for s in net.sinks],
                    "is_clock": net.is_clock,
                }
                for net in netlist.nets.values()
            ],
        },
        "floorplan": None,
        "clock_report": None,
        "notes": dict(design.notes),
    }
    fp = design.floorplan
    if fp is not None:
        payload["floorplan"] = {
            "width_um": fp.width_um,
            "height_um": fp.height_um,
            "tiers": fp.tiers,
            "utilization": fp.utilization,
            "macros": [
                {
                    "name": m.name,
                    "x_um": m.x_um,
                    "y_um": m.y_um,
                    "width_um": m.width_um,
                    "height_um": m.height_um,
                    "tier": m.tier,
                }
                for m in fp.macros
            ],
        }
    clock = design.clock_report
    if clock is not None:
        payload["clock_report"] = {
            "buffer_count": clock.buffer_count,
            "buffer_count_by_tier": {
                str(k): v for k, v in clock.buffer_count_by_tier.items()
            },
            "buffer_area_um2": clock.buffer_area_um2,
            "wirelength_mm": clock.wirelength_mm,
            "max_latency_ns": clock.max_latency_ns,
            "min_latency_ns": clock.min_latency_ns,
            "power_mw": clock.power_mw,
            "latencies": dict(clock.latencies),
        }
    return payload


def design_from_dict(
    payload: dict, tier_libs: dict[int, StdCellLibrary] | None = None
) -> Design:
    """Inverse of :func:`design_to_dict`.

    ``tier_libs`` supplies live library objects (the resuming flow's
    own); when omitted they are rebuilt from the stored specs.  Either
    way the identities must match what was checkpointed.
    """
    try:
        specs = {int(t): spec for t, spec in payload["tier_libs"].items()}
        if tier_libs is None:
            tier_libs = {t: library_from_spec(spec) for t, spec in specs.items()}
        else:
            for tier, spec in specs.items():
                lib = tier_libs.get(tier)
                if lib is None or lib.name != spec.get("name"):
                    raise CheckpointError(
                        f"tier {tier} library mismatch: checkpoint has "
                        f"{spec.get('name')!r}, caller has "
                        f"{lib.name if lib else None!r}"
                    )

        nl_d = payload["netlist"]
        netlist = Netlist(str(nl_d["name"]))
        netlist.ports = {
            name: PortDirection(value) for name, value in nl_d["ports"].items()
        }
        netlist.clock_port = nl_d.get("clock_port")
        libs_by_name = {lib.name: lib for lib in tier_libs.values()}
        for d in nl_d["instances"]:
            lib = libs_by_name.get(d["lib"])
            if lib is None:
                raise CheckpointError(
                    f"instance {d['name']!r} references unknown library "
                    f"{d['lib']!r}"
                )
            inst = Instance(
                name=str(d["name"]),
                cell=lib.cell(str(d["cell"])),
                tier=int(d["tier"]),
                x_um=d["x_um"],
                y_um=d["y_um"],
                block=str(d["block"]),
                fixed=bool(d["fixed"]),
            )
            # Rebuild pin bindings directly: replaying connect() would
            # reorder net sink lists and break byte-identical resume.
            inst._pin_nets = {str(p): str(n) for p, n in d["pins"].items()}
            netlist.instances[inst.name] = inst
        for d in nl_d["nets"]:
            net = Net(
                name=str(d["name"]),
                driver=tuple(d["driver"]) if d["driver"] else None,
                sinks=[tuple(s) for s in d["sinks"]],
                is_clock=bool(d["is_clock"]),
            )
            netlist.nets[net.name] = net
        netlist.validate()

        fp = None
        fp_d = payload.get("floorplan")
        if fp_d is not None:
            fp = Floorplan(
                width_um=fp_d["width_um"],
                height_um=fp_d["height_um"],
                tiers=int(fp_d["tiers"]),
                utilization=fp_d["utilization"],
                macros=[
                    MacroSlot(
                        name=str(m["name"]),
                        x_um=m["x_um"],
                        y_um=m["y_um"],
                        width_um=m["width_um"],
                        height_um=m["height_um"],
                        tier=int(m["tier"]),
                    )
                    for m in fp_d["macros"]
                ],
            )
        clock = None
        ck_d = payload.get("clock_report")
        if ck_d is not None:
            clock = ClockReport(
                buffer_count=int(ck_d["buffer_count"]),
                buffer_count_by_tier={
                    int(k): v
                    for k, v in ck_d["buffer_count_by_tier"].items()
                },
                buffer_area_um2=ck_d["buffer_area_um2"],
                wirelength_mm=ck_d["wirelength_mm"],
                max_latency_ns=ck_d["max_latency_ns"],
                min_latency_ns=ck_d["min_latency_ns"],
                power_mw=ck_d["power_mw"],
                latencies=dict(ck_d["latencies"]),
            )
        return Design(
            name=str(payload["name"]),
            config=str(payload["config"]),
            netlist=netlist,
            tier_libs=tier_libs,
            floorplan=fp,
            clock_report=clock,
            target_period_ns=payload["target_period_ns"],
            utilization_target=payload["utilization_target"],
            notes=dict(payload["notes"]),
        )
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"malformed checkpoint payload: {exc}") from exc


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _refuse_bound_reslot(
    tier: int, old_name: str, lib: StdCellLibrary, bound_libs
) -> None:
    """The re-slot guard: raise when tier ``tier``'s library changes
    while ``bound_libs`` (the library name of every instance) still
    references the outgoing one."""
    if old_name != lib.name and any(name == old_name for name in bound_libs):
        raise CheckpointError(
            f"cannot re-slot tier {tier} library {old_name!r} ->"
            f" {lib.name!r}: instances are bound to it (the stage"
            f" consumed the library; this checkpoint is not shareable)"
        )


def rebind_tier_library(payload: dict, tier: int, lib: StdCellLibrary) -> dict:
    """Copy of a design payload with one tier's library spec replaced.

    The design-space explorer shares synthesis and pseudo-place states
    across configs that differ only in the *slow*-tier library: those
    stages never consume it, but the payload embeds its spec (and
    :func:`design_from_dict` checks that spec against the caller's
    library), so a borrowing config must re-slot its own library before
    resuming.  :func:`rebind_design_tier_library` is the same for a
    live design.

    Raises :class:`CheckpointError` when any netlist instance actually
    references the library being swapped out -- the guard that keeps
    "this stage does not consume tier N's library" honest: if it ever
    stops being true, reuse fails loudly instead of resuming a design
    bound to the wrong cells.

    Only the ``tier_libs`` mapping is copied; everything else is shared
    with ``payload``, so neither may be mutated afterwards.
    """
    try:
        old_spec = payload["tier_libs"][str(tier)]
        instances = payload["netlist"]["instances"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint payload: {exc}") from exc
    _refuse_bound_reslot(
        tier, str(old_spec.get("name", "")), lib,
        (d.get("lib") for d in instances),
    )
    tier_libs = dict(payload["tier_libs"])
    tier_libs[str(tier)] = _library_spec(lib)
    return {**payload, "tier_libs": tier_libs}


def rebind_design_tier_library(
    design: Design, tier: int, lib: StdCellLibrary
) -> Design:
    """Snapshot form of :func:`rebind_tier_library`: a copy of
    ``design`` (:meth:`Design.copy`) with tier ``tier`` bound to
    ``lib``, under the same guard."""
    _refuse_bound_reslot(
        tier, design.library_for_tier(tier).name, lib,
        (inst.cell.library_name for inst in design.netlist.instances.values()),
    )
    copy = design.copy()
    copy.tier_libs[tier] = lib
    return copy


def rebind_checkpoint_tier_library(
    envelope: dict, tier: int, lib: StdCellLibrary
) -> dict:
    """Envelope form of :func:`rebind_tier_library`: the copy carries
    the recomputed payload checksum (and shares unchanged parts with
    ``envelope``)."""
    if not isinstance(envelope, dict) or "design" not in envelope:
        raise CheckpointError("envelope has no design payload")
    payload = rebind_tier_library(envelope["design"], tier, lib)
    return {**envelope, "design": payload, "checksum": _checksum(payload)}


def checkpoint_path(directory: str | Path, index: int, stage: str) -> Path:
    """Canonical file name for one stage's checkpoint."""
    return Path(directory) / f"{index:02d}_{stage}.json"


def write_checkpoint(
    directory: str | Path, index: int, stage: str, design: Design
) -> Path:
    """Serialize the design after ``stage`` (atomic write + checksum)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = design_to_dict(design)
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "stage": stage,
        "index": index,
        "checksum": _checksum(payload),
        "design": payload,
    }
    path = checkpoint_path(directory, index, stage)
    # Per-process temp name: pool workers may publish the same file.
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(envelope))
    os.replace(tmp, path)
    return path


def read_checkpoint(path: str | Path) -> tuple[str, dict]:
    """Read and verify one checkpoint; returns ``(stage, payload)``.

    Raises :class:`CheckpointError` on a missing file, unparseable JSON,
    unknown format or checksum mismatch.  The payload is not yet bound
    to libraries -- :func:`design_from_dict` does that.
    """
    path = Path(path)
    try:
        envelope = json.loads(path.read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(envelope, dict) or "design" not in envelope:
        raise CheckpointError(f"checkpoint {path} has no design payload")
    if envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {envelope.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT}"
        )
    payload = envelope["design"]
    if envelope.get("checksum") != _checksum(payload):
        raise CheckpointError(
            f"checkpoint {path} failed its checksum (corrupt or tampered)"
        )
    return str(envelope.get("stage", "")), payload


def load_checkpoint(
    path: str | Path, tier_libs: dict[int, StdCellLibrary] | None = None
) -> tuple[str, Design]:
    """Load and verify one checkpoint; returns ``(stage, design)``.

    Raises :class:`CheckpointError` on a missing file, unparseable JSON,
    unknown format, checksum mismatch, or a payload that fails netlist
    validation.
    """
    stage, payload = read_checkpoint(path)
    return stage, design_from_dict(payload, tier_libs)


def latest_valid_checkpoint(
    directory: str | Path,
    stage_names: list[str],
    before_index: int,
    tier_libs: dict[int, StdCellLibrary] | None = None,
) -> tuple[int, Design] | None:
    """Newest loadable checkpoint strictly before ``before_index``.

    Walks backwards from ``before_index - 1``; corrupt or missing files
    are logged and skipped, implementing the resume fallback.  Returns
    ``(stage_index, design)`` or ``None`` when nothing is usable.
    """
    for idx in range(min(before_index, len(stage_names)) - 1, -1, -1):
        path = checkpoint_path(directory, idx, stage_names[idx])
        if not path.exists():
            continue
        try:
            _stage, design = load_checkpoint(path, tier_libs)
        except CheckpointError as exc:
            _log.warning(
                "skipping checkpoint %s: %s; falling back to an earlier stage",
                path, exc,
            )
            continue
        return idx, design
    return None
