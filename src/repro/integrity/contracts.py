"""Stage-boundary contract enforcement: off / warn / repair / strict.

The flow pipeline (:mod:`repro.flow.pipeline`) calls :func:`enforce`
after every stage with that stage's postcondition check set.  What
happens to a violation is policy, selected by ``--check`` /
``$REPRO_CHECK``:

``off``
    No checks run at all -- the production fast path, byte-identical to
    the pre-contract flow (guarded by ``benchmarks``).
``warn``
    Violations are logged via ``repro.log`` and recorded as
    ``invariant_violation`` span events; the flow continues.
``repair``
    Registered repair hooks run first -- re-legalize overlapping tiers,
    strip dangling nets, insert missing level shifters, drop a stale
    delay calculator -- each recorded
    as an ``integrity_repair`` span event and ``integrity_repairs`` QoR
    metric; anything still broken afterwards escalates to strict.
``strict``
    Any violation raises :class:`~repro.errors.IntegrityError` carrying
    the typed records.

Repairs intentionally mirror what the flow itself would do (the hooks
call the same ``legalize_all_tiers`` / ``insert_level_shifters`` the
stages use), so a repaired design is indistinguishable from one the
flow produced legally.  Boundaries checked, violations per check and
repairs are counted in the process metrics registry
(:func:`integrity_counts`), so pool workers' counts come home too.
"""

from __future__ import annotations

import enum
import os

from repro.errors import IntegrityError
from repro.flow.design import Design
from repro.integrity.invariants import InvariantViolation, check_design
from repro.log import get_logger
from repro.obs import emit_metric, span
from repro.obs.registry import get_registry

__all__ = [
    "ENV_CHECK",
    "CheckMode",
    "current_mode",
    "enforce",
    "integrity_counts",
    "parse_mode",
]

ENV_CHECK = "REPRO_CHECK"

#: Cap on per-boundary violation span events / log lines, so a badly
#: corrupted design cannot flood the trace.
MAX_REPORTED = 20

_log = get_logger("integrity")


class CheckMode(enum.Enum):
    """What a stage boundary does about invariant violations."""

    OFF = "off"
    WARN = "warn"
    REPAIR = "repair"
    STRICT = "strict"


def parse_mode(text: str) -> CheckMode:
    """Parse a ``--check`` / ``$REPRO_CHECK`` value."""
    try:
        return CheckMode(text.strip().lower())
    except ValueError:
        raise ValueError(
            f"unknown check mode {text!r} (expected one of "
            f"{', '.join(m.value for m in CheckMode)})"
        ) from None


def current_mode(explicit: str | CheckMode | None = None) -> CheckMode:
    """Resolve the active mode: explicit argument, else ``$REPRO_CHECK``,
    else :attr:`CheckMode.OFF`."""
    if isinstance(explicit, CheckMode):
        return explicit
    if explicit is not None:
        return parse_mode(explicit)
    raw = os.environ.get(ENV_CHECK, "").strip()
    return parse_mode(raw) if raw else CheckMode.OFF


BOUNDARIES_TOTAL = "repro_integrity_boundaries_total"
VIOLATIONS_TOTAL = "repro_integrity_violations_total"
REPAIRS_TOTAL = "repro_integrity_repairs_total"


def integrity_counts() -> dict:
    """The contract counts in the process registry: boundaries checked,
    violations (in total and per check) and repairs."""
    values = get_registry().values
    by_check = {c: int(n) for (c,), n in values(VIOLATIONS_TOTAL).items()}
    return {
        "boundaries_checked": int(values(BOUNDARIES_TOTAL).get((), 0)),
        "violations": sum(by_check.values()),
        "repairs": int(values(REPAIRS_TOTAL).get((), 0)),
        "by_check": by_check,
    }


# ----------------------------------------------------------------------
# repair hooks
# ----------------------------------------------------------------------
def _repair_connectivity(design: Design) -> str:
    """Strip dangling nets (no driver, no sinks, not a port)."""
    design.drop_calculator()
    netlist = design.netlist
    dangling = [
        net.name
        for net in netlist.nets.values()
        if net.driver is None and not net.sinks
        and net.name not in netlist.ports
    ]
    for name in dangling:
        netlist.remove_net(name)
    return f"stripped {len(dangling)} dangling nets"


def _repair_placement(design: Design) -> str:
    """Re-legalize every tier (fixes overlaps and row misalignment).

    The violation arrived outside the normal edit contract (no edit
    journal marked it), so the placement session's caches can't be
    trusted: drop them and force a full pass.
    """
    from repro.flow.stages import legalize_all_tiers

    design.drop_calculator()
    if design.floorplan is not None:
        design.place_session().invalidate_all()
    stats = legalize_all_tiers(design)
    moved = sum(s.cells for s in stats.values())
    return f"re-legalized {moved} cells across {len(stats)} tiers"


def _repair_tiers(design: Design) -> str:
    """Insert missing level shifters and re-legalize the new cells."""
    from repro.flow.levelshift import insert_level_shifters
    from repro.flow.stages import legalize_all_tiers

    report = insert_level_shifters(design)
    if report.shifters_inserted:
        legalize_all_tiers(design)
    return f"inserted {report.shifters_inserted} level shifters"


def _repair_parasitics(design: Design) -> str:
    """Drop the delay calculator; the next one extracts every net fresh."""
    design.drop_calculator()
    return "dropped the stale delay calculator"


#: check name -> hook; checks without a hook cannot be auto-repaired.
REPAIRS = {
    "connectivity": _repair_connectivity,
    "placement": _repair_placement,
    "tiers": _repair_tiers,
    "parasitics": _repair_parasitics,
}


# ----------------------------------------------------------------------
# enforcement
# ----------------------------------------------------------------------
def _report(
    stage: str, violations: list[InvariantViolation], mode: CheckMode
) -> None:
    from repro.obs import add_span_event

    for v in violations[:MAX_REPORTED]:
        add_span_event(
            "invariant_violation",
            stage=stage,
            check=v.check,
            code=v.code,
            subject=v.subject,
        )
        _log.warning("[%s] %s (%s mode)", stage, v, mode.value)
    if len(violations) > MAX_REPORTED:
        _log.warning(
            "[%s] ... and %d more violations",
            stage, len(violations) - MAX_REPORTED,
        )
    emit_metric("integrity_violations", len(violations))


def enforce(
    design: Design,
    *,
    stage: str,
    checks: tuple[str, ...],
    mode: CheckMode,
) -> list[InvariantViolation]:
    """Run a stage's postcondition checks and apply the mode's policy.

    Returns the violations found *before* any repair (empty on a clean
    boundary).  Raises :class:`IntegrityError` in strict mode, or in
    repair mode when violations survive the hooks.
    """
    if mode is CheckMode.OFF or not checks:
        return []
    with span("integrity", stage=stage, mode=mode.value):
        registry = get_registry()
        registry.counter(BOUNDARIES_TOTAL).inc()
        violations = check_design(design, checks)
        if not violations:
            return []
        by_check = registry.counter(VIOLATIONS_TOTAL, labels=("check",))
        for v in violations:
            by_check.labels(check=v.check).inc()
        _report(stage, violations, mode)

        if mode is CheckMode.WARN:
            return violations

        remaining = violations
        if mode is CheckMode.REPAIR:
            from repro.obs import add_span_event

            broken = {v.check for v in violations if v.repairable}
            for check in [c for c in checks if c in broken and c in REPAIRS]:
                detail = REPAIRS[check](design)
                registry.counter(REPAIRS_TOTAL).inc()
                add_span_event(
                    "integrity_repair", stage=stage, check=check, detail=detail
                )
                emit_metric("integrity_repairs", 1)
                _log.warning("[%s] repaired %s: %s", stage, check, detail)
            remaining = check_design(design, checks)
            if not remaining:
                return violations

        head = "; ".join(str(v) for v in remaining[:5])
        more = f" (+{len(remaining) - 5} more)" if len(remaining) > 5 else ""
        raise IntegrityError(
            f"{len(remaining)} invariant violation(s) at the {stage} "
            f"boundary: {head}{more}",
            violations=tuple(remaining),
        ).with_context(stage=stage, design=design.name, config=design.config)
