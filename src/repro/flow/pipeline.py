"""The staged flow driver: contracts, checkpoints, and stage resume.

Every ``run_flow_*`` entry point builds an ordered list of
:class:`Stage` objects (name, body, postcondition check set), mostly
the shared stages of :mod:`repro.flow.stages`, and hands it to
:func:`execute_flow`, which runs, per stage:

1. the stage body (mutating ``ctx.design``),
2. the flush of the invalidations the stage deferred on the design's
   held delay calculator (``DelayCalculator.invalidate_deferred``),
3. the ``corrupt_design`` fault hook (CI corrupts here to prove the
   next step catches it),
4. the stage's postcondition contract checks
   (:func:`repro.integrity.contracts.enforce`, policy from ``--check``/
   ``$REPRO_CHECK``), plus the ``parasitics`` check of the design's
   delay calculator at every boundary,
5. the checksummed checkpoint write (``--checkpoint-dir``) -- after the
   checks, so checkpoints only ever hold validated state.

``--from-stage`` resumes: the driver loads the newest valid checkpoint
*before* the named stage (falling back past corrupt files) and skips
the stages already covered.  An uninterrupted flow carries one delay
calculator and its timing session from stage to stage; a resumed one
starts a fresh calculator at its first timed stage.  The two agree
byte for byte because every boundary leaves the calculator exact: each
cached net equals a fresh extraction (the ``parasitics`` check), since
every edit goes through an :class:`~repro.flow.design.EditJournal`,
which invalidates the nets it changed, and the flow driver invalidates
the nets load cloning deferred right after each stage body.  A caller
still holding the design a run stopped with (``until_stage``) can
instead pass it back as ``design`` and continue in memory, without any
checkpoint file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import FlowError
from repro.flow.design import Design
from repro.flow.report import FlowResult
from repro.integrity.checkpoint import latest_valid_checkpoint, write_checkpoint
from repro.integrity.contracts import CheckMode, current_mode, enforce
from repro.log import get_logger

__all__ = ["FlowContext", "Stage", "execute_flow"]

_log = get_logger("pipeline")


@dataclass
class FlowContext:
    """Mutable state threaded through the stages of one flow run."""

    design: Design | None = None
    result: FlowResult | None = None


@dataclass(frozen=True)
class Stage:
    """One named flow stage and its postcondition check set."""

    name: str
    fn: Callable[[FlowContext], None]
    checks: tuple[str, ...] = ()


def execute_flow(
    stages: list[Stage],
    *,
    check: str | CheckMode | None = None,
    checkpoint_dir: str | None = None,
    from_stage: str | None = None,
    until_stage: str | None = None,
    tier_libs: dict | None = None,
    design: Design | None = None,
) -> FlowContext:
    """Run a staged flow under the integrity contract policy.

    ``check`` overrides ``$REPRO_CHECK`` for this run; ``from_stage``
    resumes at that stage, either from ``design`` -- the state a run
    stopped with, passed in memory -- or, without one, from the newest
    valid checkpoint in ``checkpoint_dir`` before that stage
    (cold-starting when none is usable).  ``until_stage`` stops the
    flow after the named stage completes (its contract checks and
    checkpoint included), leaving the context ready for a later
    ``from_stage`` resume.  ``tier_libs`` supplies the flow's live
    library objects so a design resumed from disk binds the exact cells
    a cold run would.
    """
    ctx = FlowContext()
    names = [s.name for s in stages]
    if len(set(names)) != len(names):
        raise FlowError(f"duplicate stage names in flow: {names}")
    if until_stage is not None and until_stage not in names:
        raise FlowError(
            f"unknown stage {until_stage!r} for this flow "
            f"(stages: {', '.join(names)})"
        )
    if design is not None and from_stage is None:
        raise FlowError("an in-memory design needs from_stage to resume at")
    mode = current_mode(check)

    start = 0
    if from_stage is not None:
        if from_stage not in names:
            raise FlowError(
                f"unknown stage {from_stage!r} for this flow "
                f"(stages: {', '.join(names)})"
            )
        target = names.index(from_stage)
        if design is not None:
            start, ctx.design = target, design
        elif target > 0:
            if checkpoint_dir is None:
                raise FlowError(
                    "--from-stage requires --checkpoint-dir to load state from"
                )
            loaded = latest_valid_checkpoint(
                checkpoint_dir, names, target, tier_libs
            )
            if loaded is None:
                _log.warning(
                    "no valid checkpoint before stage %r in %s; "
                    "cold-starting the flow", from_stage, checkpoint_dir,
                )
            else:
                start, ctx.design = loaded[0] + 1, loaded[1]
                if start < target:
                    _log.warning(
                        "checkpoint for stage %r unusable; resuming from "
                        "%r instead", names[target - 1], names[start - 1],
                    )

    # Imported lazily to keep flow -> experiments a runtime-only edge.
    from repro.experiments.faults import maybe_corrupt_design
    from repro.experiments.telemetry import count

    for index in range(start, len(stages)):
        stage = stages[index]
        stage.fn(ctx)
        count("flow_stages_run")
        design = ctx.design
        if design is not None:
            calc = design.held_calculator()
            if calc is not None:
                calc.invalidate_deferred()
            maybe_corrupt_design(design, site=stage.name, stage=stage.name)
            enforce(design, stage=stage.name,
                    checks=(*stage.checks, "parasitics"), mode=mode)
            if checkpoint_dir is not None:
                write_checkpoint(checkpoint_dir, index, stage.name, design)
        if stage.name == until_stage:
            break
    return ctx
