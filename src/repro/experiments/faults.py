"""Deterministic fault injection for the evaluation engine.

The resilience layer (:mod:`repro.experiments.resilience`) exists to
survive worker crashes, hangs, corrupt cache entries and bad cells --
none of which occur naturally in a unit test.  This module makes them
occur *on demand, deterministically*: the engine is instrumented with
named injection sites (``with inject("cell", design=..., config=...)``)
that are no-ops unless ``$REPRO_FAULTS`` names them.

Spec format
-----------
``REPRO_FAULTS`` holds ``;``-separated fault entries; each entry is a
``,``-separated list of ``key=value`` fields::

    REPRO_FAULTS="site=worker,design=aes,config=3D_9T,kind=exit"
    REPRO_FAULTS="site=cell,design=ldpc,kind=raise,times=0;site=cache_write,kind=corrupt"

Recognized fields:

``site`` (required)
    Name of the injection point.  The engine defines ``cell`` (around
    each flow execution), ``period_search`` (around each target-period
    search), ``worker`` (at worker-process task entry) and
    ``cache_write`` (around each on-disk cache store).  The serving
    daemon (:mod:`repro.serve`) adds ``journal_write`` (around each
    write-ahead journal append; context ``type``/``path``),
    ``heartbeat`` (each worker heartbeat tick; ``kind=hang`` wedges the
    worker so the watchdog sees a stale heartbeat; context ``worker``),
    ``job_claim`` (around journaling a job claim, before dispatch;
    context ``job``/``kind``/``worker``), ``client_disconnect``
    (around sending a response; firing drops the connection without
    replying, like a client crash; context ``request``, since ``op=``
    is reserved by the spec syntax), ``scale_event`` (around each
    autoscaler pool change; context ``direction`` (``up``/``down``)
    plus ``pool`` or ``worker``; ``kind=exit`` models the daemon dying
    mid-scale), ``disk_full`` (around the disk-pressure guard's free-
    space probe; firing reads as zero bytes free and flips the daemon
    into degraded mode; context ``path``) and ``compaction_crash``
    (inside the online journal compactor, firing once with
    ``phase=written`` -- tmp file durable, rename not yet issued --
    and once with ``phase=replaced`` -- rename durable; ``kind=exit``
    at either phase proves compaction is crash-safe at any instant;
    context ``path``).
``kind`` (required)
    ``raise`` (a deterministic :class:`FaultInjected`, a
    :class:`~repro.errors.ReproError`), ``raise_transient`` (a
    :class:`TransientFaultInjected`, an ``OSError``), ``exit`` (the
    process dies via ``os._exit`` -- a worker crash), ``hang`` (sleep
    ``seconds`` before proceeding), ``corrupt`` (overwrite the file
    named by the site's ``path`` context after the block completes), or
    ``corrupt_design`` (mutate the live :class:`Design` at a flow-stage
    boundary -- see :func:`maybe_corrupt_design`; the site is the stage
    name and ``op=`` selects the corruption from :data:`CORRUPT_OPS`).
``op`` (corrupt_design only, required)
    Which invariant class to break: ``dangling_net``, ``undriven_net``,
    ``floating_input``, ``stale_ref``, ``overlap``,
    ``out_of_floorplan``, ``row_misalign``, ``bad_tier``,
    ``wrong_library``, ``drop_shifter``, or ``comb_loop``.
``times`` (default 1)
    How many matching hits fire; ``0`` means every hit, forever.
``after`` (default 0)
    Skip the first N matching hits before firing.
``seconds`` (default 30)
    Sleep duration for ``hang``.
``p`` / ``seed`` (defaults 1 / 0)
    Fire probability per eligible hit, drawn from a RNG seeded by
    ``(seed, site, entry index, hit index)`` -- reproducible across
    runs and processes.

Any other field is a *match filter*: the fault only fires when the
site's context has that key with that (stringified) value.

Cross-process determinism
-------------------------
Hit counting must be shared between the parent and its pool workers for
``times``/``after`` to mean anything fleet-wide.  Point
``$REPRO_FAULTS_STATE`` at a fresh directory and every hit claims a slot
file there with ``O_CREAT|O_EXCL`` -- an atomic, processes-wide counter.
Without a state dir, counting is per-process (fine for serial runs).
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.log import get_logger

__all__ = [
    "CORRUPT_OPS",
    "CORRUPT_OP_CHECKS",
    "ENV_FAULTS",
    "ENV_FAULTS_STATE",
    "FaultInjected",
    "TransientFaultInjected",
    "FaultSpec",
    "active_faults",
    "inject",
    "maybe_corrupt_design",
    "parse_spec",
    "reset_fault_state",
]

ENV_FAULTS = "REPRO_FAULTS"
ENV_FAULTS_STATE = "REPRO_FAULTS_STATE"

_KINDS = (
    "raise", "raise_transient", "exit", "hang", "corrupt", "corrupt_design"
)

_log = get_logger("faults")


class FaultInjected(ReproError):
    """Deterministic injected failure (quarantine path)."""


class TransientFaultInjected(OSError):
    """Transient injected failure (retry path); deliberately not a ReproError."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``REPRO_FAULTS`` entry."""

    site: str
    kind: str
    index: int  # position in the spec string; part of the fault's identity
    times: int = 1
    after: int = 0
    seconds: float = 30.0
    p: float = 1.0
    seed: int = 0
    op: str = ""  # corruption operator (kind=corrupt_design only)
    match: dict = field(default_factory=dict)


def parse_spec(text: str) -> list[FaultSpec]:
    """Parse a ``REPRO_FAULTS`` value; raises ``ValueError`` on bad specs."""
    specs: list[FaultSpec] = []
    for index, raw in enumerate(part for part in text.split(";") if part.strip()):
        fields: dict[str, str] = {}
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"fault field {item!r} is not key=value")
            key, value = item.split("=", 1)
            fields[key.strip()] = value.strip()
        site = fields.pop("site", "")
        kind = fields.pop("kind", "")
        if not site:
            raise ValueError(f"fault entry {raw!r} is missing site=")
        if kind not in _KINDS:
            raise ValueError(
                f"fault entry {raw!r} has unknown kind {kind!r}"
                f" (expected one of {', '.join(_KINDS)})"
            )
        op = fields.pop("op", "")
        if kind == "corrupt_design":
            if op not in CORRUPT_OPS:
                raise ValueError(
                    f"fault entry {raw!r} needs op= one of "
                    f"{', '.join(CORRUPT_OPS)}"
                )
        elif op:
            raise ValueError(
                f"fault entry {raw!r}: op= only applies to kind=corrupt_design"
            )
        specs.append(
            FaultSpec(
                site=site,
                kind=kind,
                index=index,
                times=int(fields.pop("times", "1")),
                after=int(fields.pop("after", "0")),
                seconds=float(fields.pop("seconds", "30")),
                p=float(fields.pop("p", "1")),
                seed=int(fields.pop("seed", "0")),
                op=op,
                match=fields,
            )
        )
    return specs


# Parsed specs memoized on the raw env text (hot path: no-fault runs).
_parse_memo: tuple[str, list[FaultSpec]] | None = None

# Per-process hit counters, used when no state dir is configured.
_counters: dict[int, int] = {}


def active_faults() -> list[FaultSpec]:
    """The faults currently requested by ``$REPRO_FAULTS`` (maybe empty)."""
    global _parse_memo
    text = os.environ.get(ENV_FAULTS, "")
    if not text.strip():
        return []
    if _parse_memo is not None and _parse_memo[0] == text:
        return _parse_memo[1]
    specs = parse_spec(text)
    _parse_memo = (text, specs)
    return specs


def reset_fault_state() -> None:
    """Drop per-process hit counters and the parse memo (tests)."""
    global _parse_memo
    _parse_memo = None
    _counters.clear()


def _matches(spec: FaultSpec, site: str, context: dict) -> bool:
    if spec.site != site:
        return False
    return all(
        str(context.get(key)) == value for key, value in spec.match.items()
    )


def _claim_hit(spec: FaultSpec) -> int | None:
    """Reserve this hit's global index, or ``None`` when exhausted.

    With ``$REPRO_FAULTS_STATE`` set, slots are ``O_CREAT|O_EXCL`` files
    shared by every process of the run; otherwise a per-process counter.
    """
    limit = None if spec.times <= 0 else spec.after + spec.times
    state = os.environ.get(ENV_FAULTS_STATE)
    if not state:
        n = _counters.get(spec.index, 0)
        if limit is not None and n >= limit:
            return None
        _counters[spec.index] = n + 1
        return n
    root = Path(state)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    n = 0
    while limit is None or n < limit:
        slot = root / f"fault-{spec.index}.{n}"
        try:
            fd = os.open(slot, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            n += 1
            continue
        except OSError:
            return None
        os.close(fd)
        return n
    return None


def _should_fire(spec: FaultSpec, site: str, context: dict) -> bool:
    if not _matches(spec, site, context):
        return False
    n = _claim_hit(spec)
    if n is None or n < spec.after:
        return False
    if spec.p < 1.0:
        rng = random.Random(f"{spec.seed}:{spec.site}:{spec.index}:{n}")
        if rng.random() >= spec.p:
            return False
    return True


def _describe(site: str, context: dict) -> str:
    rendered = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
    return f"{site}({rendered})" if rendered else site


def _corrupt_path(path: str) -> None:
    try:
        Path(path).write_text("{ corrupted by fault injection")
    except OSError:
        pass


@contextmanager
def inject(site: str, **context):
    """Injection point: a no-op unless an active fault targets ``site``.

    ``raise``/``raise_transient``/``exit``/``hang`` act before the body
    runs; ``corrupt`` acts after it completes, mangling the file named
    by the site's ``path`` context value.
    """
    post_corrupt: list[FaultSpec] = []
    for spec in active_faults():
        if spec.kind == "corrupt_design":
            continue  # design corruption fires via maybe_corrupt_design
        if not _should_fire(spec, site, context):
            continue
        where = _describe(site, context)
        if spec.kind == "corrupt":
            post_corrupt.append(spec)
        elif spec.kind == "hang":
            _log.warning("injected hang %.1fs at %s", spec.seconds, where)
            time.sleep(spec.seconds)
        elif spec.kind == "exit":
            _log.warning("injected process exit at %s", where)
            os._exit(23)
        elif spec.kind == "raise_transient":
            _log.warning("injected transient fault at %s", where)
            raise TransientFaultInjected(f"injected transient fault at {where}")
        else:  # "raise"
            _log.warning("injected deterministic fault at %s", where)
            raise FaultInjected(f"injected fault at {where}")
    yield
    for spec in post_corrupt:
        path = context.get("path")
        if path:
            _log.warning(
                "injected cache corruption at %s", _describe(site, context)
            )
            _corrupt_path(str(path))


# ----------------------------------------------------------------------
# design corruption (kind=corrupt_design)
# ----------------------------------------------------------------------
# Each operator mutates a live Design to break exactly one invariant
# class, so CI can prove the matching checker catches it at the next
# stage boundary.  Targets are chosen deterministically (first eligible
# in sorted-name order); an operator with no eligible target is a no-op
# returning None.


def _movable_cells(design):
    return sorted(
        (
            inst
            for inst in design.netlist.instances.values()
            if not inst.cell.is_macro and not inst.fixed and inst.is_placed
        ),
        key=lambda inst: inst.name,
    )


def _corrupt_dangling_net(design):
    netlist = design.netlist
    name = netlist.unique_name("corrupt_net")
    netlist.add_net(name)
    return f"added dangling net {name}"


def _corrupt_undriven_net(design):
    netlist = design.netlist
    for name in sorted(netlist.nets):
        net = netlist.nets[name]
        if net.driver is None or not net.sinks or net.is_clock:
            continue
        inst_name, pin = net.driver
        del netlist.instances[inst_name]._pin_nets[pin]
        net.driver = None
        return f"removed driver {inst_name}.{pin} from net {name}"
    return None


def _corrupt_floating_input(design):
    netlist = design.netlist
    for name in sorted(netlist.instances):
        inst = netlist.instances[name]
        if inst.cell.is_macro:
            continue
        for pin, _net in sorted(inst.connected_pins()):
            if inst.cell.pins[pin].direction != "output":
                netlist.disconnect(name, pin)
                return f"disconnected input {name}.{pin}"
    return None


def _corrupt_stale_ref(design):
    netlist = design.netlist
    for name in sorted(netlist.nets):
        net = netlist.nets[name]
        if net.sinks:
            net.sinks.append(("__corrupt_ghost__", "A"))
            return f"appended ghost sink to net {name}"
    return None


def _corrupt_overlap(design):
    by_tier: dict[int, object] = {}
    for inst in _movable_cells(design):
        prev = by_tier.get(inst.tier)
        if prev is not None:
            inst.x_um, inst.y_um = prev.x_um, prev.y_um
            return f"stacked {inst.name} onto {prev.name} (tier {inst.tier})"
        by_tier[inst.tier] = inst
    return None


def _corrupt_out_of_floorplan(design):
    if design.floorplan is None:
        return None
    cells = _movable_cells(design)
    if not cells:
        return None
    inst = cells[0]
    inst.x_um = design.floorplan.width_um + 10.0
    return f"moved {inst.name} outside the die"


def _corrupt_row_misalign(design):
    for inst in _movable_cells(design):
        lib = design.tier_libs.get(inst.tier)
        if lib is None:
            continue
        inst.y_um += 0.4 * lib.cell_height_um
        return f"shifted {inst.name} off the row grid"
    return None


def _corrupt_bad_tier(design):
    cells = _movable_cells(design)
    if not cells:
        return None
    inst = cells[0]
    inst.tier = 7
    return f"assigned {inst.name} to nonexistent tier 7"


def _corrupt_wrong_library(design):
    libs = {lib.name: lib for lib in design.tier_libs.values()}
    if len(libs) < 2:
        return None
    netlist = design.netlist
    for name in sorted(netlist.instances):
        inst = netlist.instances[name]
        if inst.cell.is_macro:
            continue
        for lib in libs.values():
            if lib.name != inst.cell.library_name:
                netlist.rebind(name, lib.equivalent_of(inst.cell))
                return f"rebound {name} to {lib.name} without moving tiers"
    return None


def _corrupt_drop_shifter(design):
    from repro.liberty.cells import CellFunction

    netlist = design.netlist
    for name in sorted(netlist.instances):
        inst = netlist.instances[name]
        if inst.cell.function is not CellFunction.LEVEL_SHIFTER:
            continue
        in_net = inst.net_of("A")
        out_net = inst.net_of("Y")
        if in_net is None or out_net is None:
            continue
        for sink_name, pin in list(netlist.nets[out_net].sinks):
            netlist.disconnect(sink_name, pin)
            netlist.connect(in_net, sink_name, pin)
        netlist.remove_instance(name)
        netlist.remove_net(out_net)
        return f"removed level shifter {name}, rewired {out_net} onto {in_net}"
    return None


def _corrupt_comb_loop(design):
    netlist = design.netlist
    for name in sorted(netlist.instances):
        inst = netlist.instances[name]
        if inst.cell.is_macro or inst.cell.is_sequential:
            continue
        out_net = None
        for pin, net_name in inst.connected_pins():
            if inst.cell.pins[pin].direction == "output":
                out_net = net_name
                break
        if out_net is None:
            continue
        for pin, net_name in sorted(inst.connected_pins()):
            spec = inst.cell.pins[pin]
            if spec.direction == "output" or net_name == out_net:
                continue
            netlist.disconnect(name, pin)
            netlist.connect(out_net, name, pin)
            return f"looped {name}.{pin} back onto its own output {out_net}"
    return None


#: op name -> operator; keys are the values ``op=`` accepts.
CORRUPT_OPS = {
    "dangling_net": _corrupt_dangling_net,
    "undriven_net": _corrupt_undriven_net,
    "floating_input": _corrupt_floating_input,
    "stale_ref": _corrupt_stale_ref,
    "overlap": _corrupt_overlap,
    "out_of_floorplan": _corrupt_out_of_floorplan,
    "row_misalign": _corrupt_row_misalign,
    "bad_tier": _corrupt_bad_tier,
    "wrong_library": _corrupt_wrong_library,
    "drop_shifter": _corrupt_drop_shifter,
    "comb_loop": _corrupt_comb_loop,
}

#: op name -> the integrity check expected to catch it.
CORRUPT_OP_CHECKS = {
    "dangling_net": "connectivity",
    "undriven_net": "connectivity",
    "floating_input": "connectivity",
    "stale_ref": "connectivity",
    "overlap": "placement",
    "out_of_floorplan": "placement",
    "row_misalign": "placement",
    "bad_tier": "tiers",
    "wrong_library": "tiers",
    "drop_shifter": "tiers",
    "comb_loop": "timing",
}


def maybe_corrupt_design(design, *, site: str, **context) -> list[str]:
    """Apply any matching ``corrupt_design`` faults to a live design.

    The flow pipeline calls this after each stage body with
    ``site=<stage name>``, so ``REPRO_FAULTS="site=legalization,
    kind=corrupt_design,op=overlap"`` corrupts the design exactly once,
    right where the legalization boundary checks must catch it.
    Returns the ops actually applied.
    """
    applied: list[str] = []
    context.setdefault("design", design.name)
    context.setdefault("config", design.config)
    for spec in active_faults():
        if spec.kind != "corrupt_design":
            continue
        if not _should_fire(spec, site, context):
            continue
        where = _describe(site, context)
        detail = CORRUPT_OPS[spec.op](design)
        if detail is None:
            _log.warning(
                "corrupt_design op=%s found no target at %s", spec.op, where
            )
            continue
        _log.warning(
            "injected design corruption op=%s at %s: %s",
            spec.op, where, detail,
        )
        applied.append(spec.op)
    if applied:
        # A corruption bypasses the invalidation contract.
        design.drop_calculator()
    return applied
