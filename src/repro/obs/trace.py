"""Hierarchical span tracer for the flow pipeline.

A *span* is one timed region of the flow -- a stage, a sub-step, one
matrix cell -- with a name, free-form attributes, nested children, QoR
:class:`~repro.obs.metrics.MetricPoint` records, and point-in-time
events (an injected fault, a quarantine decision).  Spans form a tree;
the roots of the current process live in a process-global trace.

Design constraints, in order:

1. **Off by default, near-zero overhead off.**  ``span()`` checks one
   module-level boolean and returns a shared no-op singleton when
   tracing is disabled -- no allocation, no clock reads.
2. **Crash-truncated traces stay valid.**  A span attaches to the tree
   on *entry*, so an exception (or a killed worker) leaves a
   truncated-but-well-formed tree; the ``__exit__`` that does run marks
   the span ``status="error"`` and records the exception as an event.
3. **Cross-process stitching.**  Pool workers call
   :func:`reset_trace` at task entry, trace normally, and ship
   :func:`trace_snapshot` (plain dicts) back with their result; the
   parent rebuilds the subtree with :func:`attach_subtree` under its
   active matrix span -- mirroring how the parent merges the worker's
   metrics-registry snapshot.
4. **Deterministic modulo timestamps.**  Two runs of the same flow
   produce the same tree shape, names, attributes and metric names;
   only clock values differ (see ``Span.to_dict(strip_times=True)``).

Enable with ``$REPRO_TRACE=1`` (the CLI's ``--trace PATH`` sets this so
pool workers inherit it) or programmatically via :func:`enable_tracing`.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # import cycle: metrics.py imports this module at runtime
    from repro.obs.metrics import MetricPoint

__all__ = [
    "ENV_TRACE",
    "Span",
    "add_span_event",
    "add_span_observer",
    "attach_subtree",
    "coverage_fraction",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "find_spans",
    "init_from_env",
    "remove_span_observer",
    "reset_trace",
    "span",
    "trace_roots",
    "trace_snapshot",
    "tracing_enabled",
    "walk_spans",
]

ENV_TRACE = "REPRO_TRACE"

#: $REPRO_TRACE values that keep tracing off.
_FALSY = {"", "0", "false", "off", "no"}


class _NullSpan:
    """The disabled-tracing fast path: a shared, stateless no-op span."""

    __slots__ = ()
    is_recording = False
    duration_s = 0.0
    cpu_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set_attr(self, **attrs: Any) -> None:
        pass

    def add_event(self, name: str, **attrs: Any) -> None:
        pass

    def add_metric(self, point: "MetricPoint") -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One timed region of the flow, with children, metrics and events."""

    __slots__ = (
        "name",
        "attrs",
        "start_wall_s",
        "duration_s",
        "cpu_s",
        "status",
        "children",
        "metrics",
        "events",
        "_start_perf",
        "_start_cpu",
    )

    is_recording = True

    def __init__(self, name: str, attrs: dict[str, Any] | None = None):
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.start_wall_s = 0.0
        self.duration_s = 0.0
        self.cpu_s = 0.0
        self.status = "open"
        self.children: list[Span] = []
        self.metrics: list["MetricPoint"] = []
        self.events: list[dict[str, Any]] = []
        self._start_perf = 0.0
        self._start_cpu = 0.0

    # ------------------------------------------------------------------
    # context manager protocol
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        state = _STATE
        # Attach on entry so a crash mid-span leaves a truncated-but-
        # valid tree (constraint 2 above).
        if state.stack:
            state.stack[-1].children.append(self)
        else:
            state.roots.append(self)
        state.stack.append(self)
        self.start_wall_s = time.time()
        self._start_cpu = time.process_time()
        self._start_perf = time.perf_counter()
        if state.observers:
            _notify(state, "open", self, len(state.stack) - 1)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.duration_s = time.perf_counter() - self._start_perf
        self.cpu_s = time.process_time() - self._start_cpu
        if exc_type is not None:
            self.status = "error"
            self.events.append(
                {
                    "name": "exception",
                    "type": exc_type.__name__,
                    "message": str(exc),
                }
            )
        else:
            self.status = "ok"
        state = _STATE
        if state.stack and state.stack[-1] is self:
            state.stack.pop()
        elif self in state.stack:  # unbalanced exit; recover conservatively
            state.stack.remove(self)
        if state.observers:
            _notify(state, "close", self, len(state.stack))
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.2f} ms,"
            f" children={len(self.children)}, metrics={len(self.metrics)})"
        )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_attr(self, **attrs: Any) -> None:
        """Merge attributes into the span."""
        self.attrs.update(attrs)

    def add_event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event (fault, quarantine, retry...)."""
        event = {"name": name}
        event.update(attrs)
        self.events.append(event)

    def add_metric(self, point: "MetricPoint") -> None:
        """Attach one QoR metric point to this span."""
        self.metrics.append(point)

    # ------------------------------------------------------------------
    # serialization (worker -> parent, and the JSONL exporter)
    # ------------------------------------------------------------------
    def to_dict(self, *, strip_times: bool = False) -> dict[str, Any]:
        """Plain-dict view; ``strip_times`` drops every clock value so
        two runs of the same flow compare equal."""
        d: dict[str, Any] = {
            "name": self.name,
            "attrs": dict(self.attrs),
            "status": self.status,
            "metrics": [m.to_dict() for m in self.metrics],
            "events": [dict(e) for e in self.events],
            "children": [c.to_dict(strip_times=strip_times) for c in self.children],
        }
        if not strip_times:
            d["start_wall_s"] = self.start_wall_s
            d["start_perf_s"] = self._start_perf
            d["duration_s"] = self.duration_s
            d["cpu_s"] = self.cpu_s
        return d

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        from repro.obs.metrics import MetricPoint

        sp = Span(str(d.get("name", "?")), d.get("attrs") or {})
        sp.start_wall_s = float(d.get("start_wall_s", 0.0))
        sp._start_perf = float(d.get("start_perf_s", 0.0))
        sp.duration_s = float(d.get("duration_s", 0.0))
        sp.cpu_s = float(d.get("cpu_s", 0.0))
        sp.status = str(d.get("status", "ok"))
        sp.metrics = [MetricPoint.from_dict(m) for m in d.get("metrics", [])]
        sp.events = [dict(e) for e in d.get("events", [])]
        sp.children = [Span.from_dict(c) for c in d.get("children", [])]
        return sp

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def start_perf_s(self) -> float:
        """Monotonic-clock start, consistent with ``duration_s``.

        Only comparable between spans recorded in the same process
        (clock domain); ``0.0`` for spans rebuilt from formats that do
        not carry it.
        """
        return self._start_perf

    @property
    def self_s(self) -> float:
        """Wall time not accounted for by child spans."""
        return max(0.0, self.duration_s - sum(c.duration_s for c in self.children))


class _TraceState:
    """Process-global trace: enabled flag, root spans, the open stack."""

    __slots__ = ("enabled", "roots", "stack", "observers")

    def __init__(self) -> None:
        self.enabled = False
        self.roots: list[Span] = []
        self.stack: list[Span] = []
        self.observers: list[Any] = []


_STATE = _TraceState()


def _notify(state: _TraceState, phase: str, sp: Span, depth: int) -> None:
    """Fan a span transition out to observers; observers never break spans."""
    for observer in list(state.observers):
        try:
            observer(phase, sp, depth)
        except Exception:  # noqa: BLE001 - observers are best-effort
            pass


def add_span_observer(fn: Any) -> None:
    """Register ``fn(phase, span, depth)`` for live span open/close.

    ``phase`` is ``"open"`` or ``"close"``, ``depth`` the span's depth in
    the open stack (0 for roots).  Observers power the serving daemon's
    live feed: a worker forwards its span transitions up the duplex pipe
    as they happen.  The hook costs one truthiness check per span when
    no observer is registered; observer exceptions are swallowed so a
    broken subscriber can never corrupt a trace.
    """
    if fn not in _STATE.observers:
        _STATE.observers.append(fn)


def remove_span_observer(fn: Any) -> None:
    """Unregister a span observer (missing observers are ignored)."""
    try:
        _STATE.observers.remove(fn)
    except ValueError:
        pass


def tracing_enabled() -> bool:
    """Whether spans are being recorded in this process."""
    return _STATE.enabled


def enable_tracing() -> None:
    """Start recording spans (does not clear already-recorded ones)."""
    _STATE.enabled = True


def disable_tracing() -> None:
    """Stop recording spans (already-recorded spans stay available)."""
    _STATE.enabled = False


def init_from_env() -> bool:
    """Enable tracing iff ``$REPRO_TRACE`` holds a truthy value."""
    raw = os.environ.get(ENV_TRACE, "").strip().lower()
    _STATE.enabled = raw not in _FALSY
    return _STATE.enabled


def reset_trace(*, from_env: bool = False) -> None:
    """Drop every recorded span (worker task entry / test setup).

    ``from_env=True`` additionally re-evaluates ``$REPRO_TRACE`` --
    pool workers call this so they honour the tracing mode the parent
    process exported before building the pool.  Observers survive a
    reset: the serving worker registers its forwarder once per task
    *after* resetting, and tests unregister explicitly.
    """
    _STATE.roots.clear()
    _STATE.stack.clear()
    if from_env:
        init_from_env()


def span(name: str, **attrs: Any):
    """Open a span: ``with span("cts", policy="prefer_slow") as sp:``.

    The no-op fast path: when tracing is disabled this returns a shared
    singleton without touching a clock or allocating anything.
    """
    if not _STATE.enabled:
        return _NULL_SPAN
    return Span(name, attrs)


def current_span() -> Span | None:
    """The innermost open span, or ``None`` (tracing off / no span)."""
    return _STATE.stack[-1] if _STATE.stack else None


def add_span_event(name: str, **attrs: Any) -> bool:
    """Record an event on the active span; returns whether it attached."""
    sp = current_span()
    if sp is None:
        return False
    sp.add_event(name, **attrs)
    return True


def trace_roots() -> list[Span]:
    """The root spans recorded so far in this process."""
    return list(_STATE.roots)


def trace_snapshot() -> list[dict[str, Any]]:
    """Picklable/JSON-able view of the whole trace (worker -> parent)."""
    return [root.to_dict() for root in _STATE.roots]


def attach_subtree(
    subtree: list[dict[str, Any]] | None, **attrs: Any
) -> list[Span]:
    """Stitch a worker's serialized trace under the active span.

    Extra ``attrs`` (e.g. ``worker="pid-1234"``) are merged into every
    subtree root so the stitched spans stay attributable.  With no span
    open the subtrees become new roots.  Returns the attached spans.
    """
    if not subtree or not _STATE.enabled:
        return []
    attached: list[Span] = []
    parent = current_span()
    for d in subtree:
        sp = Span.from_dict(d)
        if attrs:
            sp.attrs.update(attrs)
        if parent is not None:
            parent.children.append(sp)
        else:
            _STATE.roots.append(sp)
        attached.append(sp)
    return attached


def walk_spans(roots: list[Span] | None = None) -> Iterator[Span]:
    """Preorder iteration over a span forest (default: current trace)."""
    stack = list(reversed(_STATE.roots if roots is None else roots))
    while stack:
        sp = stack.pop()
        yield sp
        stack.extend(reversed(sp.children))


def find_spans(name: str, roots: list[Span] | None = None) -> list[Span]:
    """Every span with the given name, in preorder."""
    return [sp for sp in walk_spans(roots) if sp.name == name]


def coverage_fraction(sp: Span) -> float:
    """Fraction of a span's wall time covered by its direct children.

    The acceptance bar for the instrumented flow: the stage spans under
    one ``flow`` span must cover >= 95% of its wall time, i.e. no large
    untraced gaps.
    """
    if sp.duration_s <= 0.0:
        return 1.0
    return min(1.0, sum(c.duration_s for c in sp.children) / sp.duration_s)
