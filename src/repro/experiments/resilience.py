"""Fault tolerance for the evaluation engine: retry, timeout, quarantine.

The matrix engine distinguishes two failure families:

**Transient** failures are environmental: a worker process died, a job
outlived its per-job timeout, a task could not be pickled, or the code
under execution raised an OS-level error (``OSError``, ``EOFError``,
``ConnectionError``, ``MemoryError``, ``TimeoutError``).  These are
retried: serially with capped exponential backoff
(:func:`call_with_retry`), and on the worker pool
(:class:`~repro.serve.supervisor.BatchPool`) by requeueing *only the
affected job* within the restart budget; finished jobs are never rerun.

**Deterministic** failures are the code telling us the input is bad: any
:class:`~repro.errors.ReproError`, or any other exception the flow
raises (a ``ValueError`` from a flow is a bug, and rerunning a
deterministic computation cannot change the answer).  These are never
retried; with ``keep_going`` the cell is *quarantined* -- recorded as a
structured :class:`FailedCell` -- instead of poisoning the whole run.

A pool worker classifies its job's exception itself
(:func:`classify_job_error`) and sends the verdict back with the error's
type name and message, so a flow-raised ``OSError`` inside a worker is
retried as a job failure, never mistaken for the worker dying.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.experiments.telemetry import count
from repro.log import get_logger

__all__ = [
    "TRANSIENT",
    "DETERMINISTIC",
    "FailedCell",
    "PoolUnavailable",
    "RetryPolicy",
    "call_with_retry",
    "classify",
    "classify_job_error",
    "settle_pool_job",
]

TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: Exception families treated as transient when raised *by the job's own
#: code* (in a worker or serially): environmental, so worth a retry.
TRANSIENT_ERRORS = (OSError, EOFError, MemoryError, TimeoutError)

_log = get_logger("resilience")

#: Growth of the retry delay per attempt.
BACKOFF_FACTOR = 2.0

#: Cap on the retry delay (s).
MAX_BACKOFF_S = 4.0


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the engine fights transient failures.

    On the worker pool, ``timeout_s`` is the wall-clock limit of one job,
    measured from its dispatch to a worker (time spent queued behind
    other jobs does not count), and ``max_retries`` is the restart
    budget: a job gets ``1 + max_retries`` attempts.  The serial path
    cannot preempt a running flow, so timeouts are not enforced there.
    """

    max_retries: int = 2
    backoff_s: float = 0.25
    timeout_s: float | None = None
    keep_going: bool = False

    def backoff(self, attempt: int) -> float:
        """Capped exponential delay before retry ``attempt`` (0-based)."""
        if self.backoff_s <= 0:
            return 0.0
        return min(self.backoff_s * BACKOFF_FACTOR**attempt, MAX_BACKOFF_S)

    def with_overrides(
        self,
        *,
        keep_going: bool | None = None,
        max_retries: int | None = None,
        timeout_s: float | None = None,
    ) -> "RetryPolicy":
        """A copy with any explicitly-given fields replaced."""
        fields = {}
        if keep_going is not None:
            fields["keep_going"] = keep_going
        if max_retries is not None:
            fields["max_retries"] = max_retries
        if timeout_s is not None:
            fields["timeout_s"] = timeout_s
        return replace(self, **fields) if fields else self


@dataclass
class FailedCell:
    """Structured record of one quarantined unit of matrix work."""

    design: str
    config: str  # "*" for design-level (period-search) failures
    stage: str  # "period_search" | "flow" | "dse"
    kind: str  # TRANSIENT | DETERMINISTIC
    error_type: str
    message: str
    attempts: int
    exception: BaseException | None = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "config": self.config,
            "stage": self.stage,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }

    @staticmethod
    def from_dict(d: dict) -> "FailedCell":
        return FailedCell(
            design=str(d.get("design", "?")),
            config=str(d.get("config", "*")),
            stage=str(d.get("stage", "?")),
            kind=str(d.get("kind", DETERMINISTIC)),
            error_type=str(d.get("error_type", "?")),
            message=str(d.get("message", "")),
            attempts=int(d.get("attempts", 1)),
        )

    def raisable(self) -> BaseException:
        """An exception to re-raise for fail-fast callers.

        Prefers the original exception when it is still in hand (serial
        path); otherwise reconstructs the original ``ReproError``
        subclass by name, falling back to ``FlowError``.
        """
        if self.exception is not None:
            return self.exception
        from repro import errors

        exc_type = getattr(errors, self.error_type, None)
        if not (isinstance(exc_type, type) and issubclass(exc_type, ReproError)):
            exc_type = errors.FlowError
        exc = exc_type(self.message)
        return exc.with_context(
            stage=self.stage,
            design=self.design,
            config=None if self.config == "*" else self.config,
            attempt=self.attempts,
        )


class PoolUnavailable(Exception):
    """No pool worker could start (the caller goes serial)."""


def classify_job_error(exc: BaseException) -> str:
    """How a pool worker classifies an exception its job raised.

    Only OS-level errors (:data:`TRANSIENT_ERRORS`) are transient, so a
    flow-raised ``OSError`` is retried while an ``ImportError`` -- a bug,
    not weather -- is not.
    """
    if isinstance(exc, TRANSIENT_ERRORS) and not isinstance(exc, ReproError):
        return TRANSIENT
    return DETERMINISTIC


def classify(exc: BaseException) -> str:
    """``TRANSIENT`` (retry) or ``DETERMINISTIC`` (quarantine).

    :func:`classify_job_error`, plus a task that could not be pickled
    counts as transient.
    """
    if isinstance(exc, pickle.PicklingError):
        return TRANSIENT
    return classify_job_error(exc)


# ----------------------------------------------------------------------
# serial execution with retry
# ----------------------------------------------------------------------
def call_with_retry(
    fn,
    *,
    policy: RetryPolicy,
    stage: str,
    design: str,
    config: str = "*",
):
    """Run ``fn()`` under the retry policy.

    Returns ``(value, None)`` on success or ``(None, FailedCell)`` once
    the error is deterministic or retries are exhausted.  The original
    exception rides on ``FailedCell.exception`` so fail-fast callers can
    re-raise it unchanged.
    """
    attempt = 0
    while True:
        try:
            return fn(), None
        except Exception as exc:  # noqa: BLE001 -- classification boundary
            attempt += 1
            if isinstance(exc, ReproError):
                exc.with_context(
                    stage=stage, design=design,
                    config=None if config == "*" else config,
                    attempt=attempt,
                )
            kind = classify(exc)
            if kind == TRANSIENT and attempt <= policy.max_retries:
                delay = policy.backoff(attempt - 1)
                count("retries")
                _log.warning(
                    "transient failure in %s (%s/%s), retry %d/%d in %.2fs: %s",
                    stage, design, config, attempt, policy.max_retries,
                    delay, exc,
                )
                if delay:
                    time.sleep(delay)
                continue
            return None, FailedCell(
                design=design,
                config=config,
                stage=stage,
                kind=kind,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=attempt,
                exception=exc,
            )


def settle_pool_job(
    label: str,
    done: dict,
    failed: dict,
    *,
    rescue,
    policy: RetryPolicy,
    stage: str,
    design: str,
    config: str = "*",
):
    """The outcome of job ``label`` of a
    :class:`~repro.serve.supervisor.BatchPool` batch.

    ``(payload, None)`` when the job finished, ``(None, FailedCell)``
    when it failed deterministically.  Any other job -- transient past
    the restart budget, or stranded by a worker that could not restart
    -- gets one serial rescue: ``call_with_retry(rescue)``, where
    ``rescue()`` returns a payload of the job's shape.
    """
    if label in done:
        return done[label], None
    error = failed.get(label)
    if error is not None and error.get("kind") == DETERMINISTIC:
        return None, FailedCell.from_dict({
            **error, "design": design, "config": config, "stage": stage,
            "attempts": error.get("attempt", 1),
        })
    _log.warning(
        "%s %s/%s did not finish in the worker pool; retrying serially",
        stage, design, config,
    )
    return call_with_retry(
        rescue, policy=policy, stage=stage, design=design, config=config
    )
