"""Best-effort event feed for the serving daemon: bus + subscribers.

The daemon's journal answers "what must survive a crash"; the event bus
answers "what is happening *right now*".  They are deliberately
decoupled: events are journaled nowhere, delivery is best-effort, and a
subscriber that stops reading loses events rather than stalling the
daemon.  Three rules fall out of that:

1. **Publish never blocks.**  ``EventBus.publish`` offers the event to
   every subscriber's bounded queue; a full queue drops the event and
   counts it.  The socket thread serving a job completion proceeds at
   the same speed whether zero or fifty clients are subscribed.
2. **Drops are visible.**  When a subscriber's queue drains after an
   overflow, the next read is prefixed with a synthetic ``feed_gap``
   event carrying the number of lost events, so a `top` client can show
   a gap marker instead of silently lying.
3. **Late subscribers get context.**  A bounded backlog ring replays
   the most recent events on subscribe, so a client attaching mid-run
   sees how the in-flight jobs got to their current state.

Every event is a flat JSON-safe dict ``{"event": kind, "seq": n,
"ts": wall_s, ...fields}`` with a bus-global monotonically increasing
``seq``; consumers order and dedup on it.

:class:`JobTrace` rides along here: it assembles a job's span subtrees
incrementally as workers forward them stage-by-stage, so
``repro result --trace JOB`` can render a partial tree mid-run and the
final tree after completion -- same data, growing monotonically.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Any, Iterator

from repro.obs.registry import MetricsRegistry

__all__ = ["EventBus", "JobTrace", "Subscriber"]


class Subscriber:
    """One client's bounded event queue with drop-and-count overflow."""

    def __init__(
        self,
        maxsize: int,
        job_id: str | None = None,
    ):
        self._queue: queue.Queue = queue.Queue(maxsize=max(2, maxsize))
        self.job_id = job_id
        self.dropped = 0  # total events lost to overflow
        self._pending_gap = 0  # drops not yet surfaced as a feed_gap
        self._lock = threading.Lock()
        self.closed = False

    def wants(self, event: dict[str, Any]) -> bool:
        """Whether this subscriber's filter admits the event.

        A job filter admits that job's events plus everything that has
        no ``job_id`` at all (lifecycle, metrics, drain) -- a ``watch``
        client still learns the daemon is draining under it.
        """
        if self.job_id is None:
            return True
        event_job = event.get("job_id")
        return event_job is None or event_job == self.job_id

    def offer(self, event: dict[str, Any]) -> bool:
        """Enqueue without blocking; on overflow, drop and count."""
        if self.closed or not self.wants(event):
            return False
        try:
            self._queue.put_nowait(event)
            return True
        except queue.Full:
            with self._lock:
                self.dropped += 1
                self._pending_gap += 1
            return False

    def get(self, timeout_s: float | None = None) -> dict[str, Any] | None:
        """Next event (blocking up to ``timeout_s``); ``None`` on timeout
        or after close.  Surfaces accumulated drops as a ``feed_gap``
        event before handing out post-gap events."""
        with self._lock:
            if self._pending_gap:
                gap, self._pending_gap = self._pending_gap, 0
                return {"event": "feed_gap", "dropped": gap}
        try:
            event = self._queue.get(timeout=timeout_s)
        except queue.Empty:
            return None
        return None if event is _CLOSE else event

    def drain(self) -> Iterator[dict[str, Any]]:
        """Yield whatever is queued right now, without blocking."""
        while True:
            event = self.get(timeout_s=0.0)
            if event is None:
                return
            yield event

    def close(self) -> None:
        self.closed = True
        try:
            self._queue.put_nowait(_CLOSE)
        except queue.Full:
            pass  # a queued reader will hit its timeout and re-check


_CLOSE = object()  # sentinel waking blocked Subscriber.get() on close


class EventBus:
    """Fan-out hub: publish to every subscriber, bounded everywhere."""

    def __init__(
        self, queue_max: int = 256, backlog: int = 256,
        registry: MetricsRegistry | None = None,
    ):
        self._lock = threading.Lock()
        self._subscribers: list[Subscriber] = []
        self._backlog: deque = deque(maxlen=max(0, backlog))
        self._queue_max = queue_max
        self._seq = 0
        self._closed = False
        # Counted in the owner's registry (the daemon's ``metrics``).
        registry = MetricsRegistry() if registry is None else registry
        self._published = registry.counter(
            "repro_feed_events_total", "Events published on the live feed"
        )
        self._dropped = registry.counter(
            "repro_feed_dropped_total",
            "Feed events dropped by full subscriber queues",
        )

    def publish(self, event_kind: str, **fields: Any) -> dict[str, Any]:
        """Stamp, backlog, and offer an event; never blocks.

        Returns the stamped event so callers can reuse it (tests,
        logging).  Fields must already be JSON-safe; ``event_kind`` is
        deliberately not called ``kind`` so job fields named ``kind``
        pass through ``**fields`` unobstructed.
        """
        with self._lock:
            if self._closed:
                return {"event": event_kind, **fields}
            self._seq += 1
            event = {"event": event_kind, "seq": self._seq, "ts": time.time()}
            event.update(fields)
            self._backlog.append(event)
            self._published.inc()
            subscribers = list(self._subscribers)
        for sub in subscribers:
            if not sub.offer(event) and sub.wants(event) and not sub.closed:
                self._dropped.inc()
        return event

    def subscribe(
        self, job_id: str | None = None, backlog: bool = True
    ) -> Subscriber:
        """Attach a subscriber; optionally replay the backlog ring."""
        sub = Subscriber(self._queue_max, job_id=job_id)
        with self._lock:
            replay = list(self._backlog) if backlog else []
            self._subscribers.append(sub)
        for event in replay:
            sub.offer(event)
        return sub

    def unsubscribe(self, sub: Subscriber) -> None:
        with self._lock:
            try:
                self._subscribers.remove(sub)
            except ValueError:
                return
        sub.close()

    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def dropped_total(self) -> int:
        return int(self._dropped.value)

    def close(self) -> None:
        """Stop the bus and wake every blocked subscriber."""
        with self._lock:
            self._closed = True
            subscribers, self._subscribers = self._subscribers, []
        for sub in subscribers:
            sub.close()


class JobTrace:
    """A job's span tree, assembled incrementally from worker messages.

    Workers forward each completed depth-1 subtree (one stage / one
    matrix cell) as it closes, and the full snapshot when the job
    finishes.  Mid-run, :meth:`roots` synthesizes an *open* root span
    over the stages seen so far -- structurally identical to what the
    crash-truncated tracer would record -- so the partial tree exports
    as a valid Chrome trace.  Once the final snapshot lands it wins
    outright (it carries the root's true duration and attrs).
    """

    def __init__(self, job_id: str, kind: str):
        self.job_id = job_id
        self.kind = kind
        self.stages: list[dict[str, Any]] = []
        self.final: list[dict[str, Any]] | None = None
        self.root_name: str | None = None
        self.root_attrs: dict[str, Any] = {}
        self.root_start_wall_s = 0.0
        self.root_start_perf_s = 0.0
        self._lock = threading.Lock()

    def note_root(self, span_dict: dict[str, Any]) -> None:
        """Record the job's root span as it *opens* (name/attrs/start)."""
        with self._lock:
            self.root_name = str(span_dict.get("name", "")) or self.root_name
            attrs = span_dict.get("attrs")
            if isinstance(attrs, dict):
                self.root_attrs.update(attrs)
            self.root_start_wall_s = float(
                span_dict.get("start_wall_s", self.root_start_wall_s)
            )
            self.root_start_perf_s = float(
                span_dict.get("start_perf_s", self.root_start_perf_s)
            )

    def add_stage(self, tree: dict[str, Any]) -> None:
        """Append one completed depth-1 subtree (already a plain dict)."""
        with self._lock:
            self.stages.append(tree)

    def set_final(self, snapshot: list[dict[str, Any]] | None) -> None:
        """Install the worker's complete end-of-job trace snapshot."""
        if snapshot:
            with self._lock:
                self.final = list(snapshot)

    def roots(self) -> list[dict[str, Any]]:
        """The best current view: final snapshot, or a synthesized
        still-open root over the stages forwarded so far."""
        with self._lock:
            if self.final is not None:
                return list(self.final)
            stages = list(self.stages)
            name = self.root_name or f"job:{self.kind}"
            attrs = dict(self.root_attrs)
            attrs.setdefault("job_id", self.job_id)
            start_wall = self.root_start_wall_s
            start_perf = self.root_start_perf_s
        if not start_wall and stages:
            start_wall = min(
                float(s.get("start_wall_s", 0.0)) for s in stages
            )
            start_perf = min(
                float(s.get("start_perf_s", 0.0)) for s in stages
            )
        duration = 0.0
        for stage in stages:
            end = float(stage.get("start_perf_s", 0.0)) + float(
                stage.get("duration_s", 0.0)
            )
            duration = max(duration, end - start_perf)
        return [
            {
                "name": name,
                "attrs": attrs,
                "status": "open",
                "metrics": [],
                "events": [],
                "children": stages,
                "start_wall_s": start_wall,
                "start_perf_s": start_perf,
                "duration_s": duration,
                "cpu_s": 0.0,
            }
        ]

    def stage_count(self) -> int:
        with self._lock:
            return len(self.stages)
