"""Pure event-fold model behind ``repro top`` and ``repro watch``.

:class:`TopModel` consumes the daemon's subscribe feed -- the snapshot
line followed by live events -- and maintains the dashboard state: one
record per job, worker lifecycle counts, the latest metric summary, and
the number of events lost to feed gaps.

The fold is deliberately **order-insensitive**: every event carries the
bus-global ``seq``, so the model dedups on it (reconnect replays the
backlog, which overlaps what was already seen) and resolves conflicting
updates by keeping the highest-``seq`` one per slot.  Any interleaving
of a feed that preserves nothing but the events themselves converges to
the same final state -- the property the hypothesis test replays
shuffled feeds against.  Terminal job states latch for free: a job's
``done``/``failed`` transition has the highest ``seq`` among its state
events, so no stale ``running`` can overwrite it.

Rendering is plain ASCII (no curses): :meth:`TopModel.render` returns
one frame as a string and the CLI decides how to repaint.
"""

from __future__ import annotations

from typing import Any

__all__ = ["TopModel"]

#: Job states a job never leaves (mirrors repro.serve.queue).
TERMINAL_STATES = ("done", "failed")

#: Job rows one dashboard frame lists; the rest are summarized.
MAX_JOBS_SHOWN = 20


def _new_job(job_id: str) -> dict[str, Any]:
    return {
        "job_id": job_id,
        "kind": "",
        "state": "?",
        "worker": "",
        "attempts": 0,
        "stage": "",          # name of the stage the worker is inside
        "stage_open": False,  # True between span_open and span_close
        "stages_done": 0,     # depth-1 span closes seen
        "error_type": "",
        "reason": "",
        "_state_seq": -1,     # highest seq of an applied job_state event
        "_stage_seq": -1,     # highest seq of an applied span event
        "_field_seq": {},     # per-field seq: last event that set it
    }


class TopModel:
    """Fold subscribe-feed events into the ``repro top`` dashboard state."""

    def __init__(self) -> None:
        self.jobs: dict[str, dict[str, Any]] = {}
        self.lifecycle_counts: dict[str, int] = {}
        self.metrics: dict[str, Any] = {}
        self.stats: dict[str, Any] = {}
        self.draining = False
        self.dropped = 0          # events lost to feed gaps
        self.events_applied = 0
        self._metrics_seq = -1
        self._seen: set[int] = set()  # applied seqs (dedup across replay)

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> dict[str, Any]:
        job = self.jobs.get(job_id)
        if job is None:
            job = self.jobs[job_id] = _new_job(job_id)
        return job

    def apply_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Seed from the feed's first line (``{"ok": ..., "snapshot"}``
        or the snapshot object itself).  Live events always win: a job
        that already applied a ``job_state`` event is left alone, so a
        reconnect's fresh snapshot cannot roll the model backwards.
        """
        snap = snapshot.get("snapshot", snapshot)
        if not isinstance(snap, dict):
            return
        for job_id, view in (snap.get("jobs") or {}).items():
            if not isinstance(view, dict):
                continue
            job = self._job(str(job_id))
            if job["_state_seq"] >= 0:
                continue
            job["kind"] = str(view.get("kind", job["kind"]))
            job["state"] = str(view.get("state", job["state"]))
            job["worker"] = str(view.get("worker") or "")
            job["attempts"] = int(view.get("attempts", 0) or 0)
            error = view.get("error")
            if isinstance(error, dict):
                job["error_type"] = str(error.get("error_type", ""))
        if "draining" in snap:
            self.draining = bool(snap.get("draining"))
        if isinstance(snap.get("stats"), dict):
            self.stats = dict(snap["stats"])

    def apply(self, event: dict[str, Any]) -> bool:
        """Fold one feed event; returns whether it changed the model.

        Unknown event kinds are ignored (forward compatibility), and a
        ``seq`` already applied is skipped (backlog replay overlap).
        """
        if not isinstance(event, dict):
            return False
        kind = event.get("event")
        if kind == "feed_gap":
            self.dropped += int(event.get("dropped", 0) or 0)
            return True
        seq = event.get("seq")
        if isinstance(seq, int):
            if seq in self._seen:
                return False
            self._seen.add(seq)
        else:
            seq = -1
        if kind == "job_state":
            self._apply_job_state(event, seq)
        elif kind in ("span_open", "span_close"):
            self._apply_span(event, seq, opened=(kind == "span_open"))
        elif kind == "lifecycle":
            action = str(event.get("action", "?"))
            self.lifecycle_counts[action] = (
                self.lifecycle_counts.get(action, 0) + 1
            )
            if action == "drain_begin":
                self.draining = True
        elif kind == "metrics":
            if seq > self._metrics_seq:
                self._metrics_seq = seq
                self.metrics = {
                    k: v for k, v in event.items()
                    if k not in ("event", "seq", "ts")
                }
        else:
            return False
        self.events_applied += 1
        return True

    def _apply_job_state(self, event: dict[str, Any], seq: int) -> None:
        job = self._job(str(event.get("job_id", "")))
        # Fields are seq-gated individually, not per event: the terminal
        # ``done`` event carries no ``worker``, so a one-gate fold would
        # keep or lose the worker depending on arrival order.
        field_seq = job["_field_seq"]

        def put(field: str, value: Any) -> None:
            if seq > field_seq.get(field, -1):
                field_seq[field] = seq
                job[field] = value

        job["attempts"] = max(
            job["attempts"],
            int(event.get("attempt", event.get("attempts", 0)) or 0),
        )
        if event.get("kind"):
            put("kind", str(event["kind"]))
        if "worker" in event:
            put("worker", str(event.get("worker") or ""))
        if event.get("reason"):
            put("reason", str(event["reason"]))
        if event.get("error_type"):
            put("error_type", str(event["error_type"]))
        if seq <= job["_state_seq"]:
            return
        job["_state_seq"] = seq
        job["state"] = str(event.get("state", job["state"]))
        # Terminal states hide the stage at *render* time rather than
        # clearing it here: a mutation would make the fold depend on
        # whether span events arrived before or after the terminal one.

    def _apply_span(
        self, event: dict[str, Any], seq: int, *, opened: bool
    ) -> None:
        if int(event.get("depth", 0) or 0) != 1:
            return  # root open/close carries no stage information
        job = self._job(str(event.get("job_id", "")))
        name = str(event.get("name", ""))
        if not opened:
            job["stages_done"] += 1  # idempotent: seq was deduped above
        if seq > job["_stage_seq"]:
            job["_stage_seq"] = seq
            job["stage"] = name
            job["stage_open"] = opened

    # ------------------------------------------------------------------
    # queries / rendering
    # ------------------------------------------------------------------
    def job_state(self, job_id: str) -> str:
        job = self.jobs.get(job_id)
        return job["state"] if job else "?"

    def counts(self) -> dict[str, int]:
        """Job-state histogram over everything the model has seen."""
        out: dict[str, int] = {}
        for job in self.jobs.values():
            out[job["state"]] = out.get(job["state"], 0) + 1
        return out

    def render(self) -> str:
        """One dashboard frame as plain ASCII text."""
        counts = self.counts()
        summary = "  ".join(
            f"{state}={counts[state]}" for state in sorted(counts)
        ) or "no jobs"
        lines = [
            f"repro top -- {len(self.jobs)} job(s): {summary}"
            + ("  [DRAINING]" if self.draining else ""),
        ]
        if self.metrics:
            m = self.metrics
            lines.append(
                f"daemon: pending={m.get('pending', '?')}"
                f" running={m.get('running', '?')}"
                f" completed={m.get('completed', '?')}"
                f" failed={m.get('failed', '?')}"
                f" respawns={m.get('worker_respawns', '?')}"
                f" feed_dropped={m.get('feed_dropped', '?')}"
            )
        if self.lifecycle_counts:
            lines.append(
                "lifecycle: " + "  ".join(
                    f"{action}={n}"
                    for action, n in sorted(self.lifecycle_counts.items())
                )
            )
        if self.dropped:
            lines.append(f"feed gaps: {self.dropped} event(s) lost")
        lines.append(
            f"{'JOB':14s} {'KIND':7s} {'STATE':8s} {'WORKER':10s}"
            f" {'ATT':>3s} {'DONE':>4s}  STAGE"
        )
        # Running first, then pending, then terminal; newest last.
        order = {"running": 0, "pending": 1}
        ranked = sorted(
            self.jobs.values(),
            key=lambda j: (order.get(j["state"], 2), j["job_id"]),
        )
        for job in ranked[:MAX_JOBS_SHOWN]:
            stage = "" if job["state"] in TERMINAL_STATES else job["stage"]
            if stage and not job["stage_open"]:
                stage = f"({stage})"  # finished, next not yet open
            flag = f" !{job['error_type']}" if job["error_type"] else ""
            lines.append(
                f"{job['job_id'][:14]:14s} {job['kind'][:7]:7s}"
                f" {job['state'][:8]:8s} {job['worker'][:10]:10s}"
                f" {job['attempts']:3d} {job['stages_done']:4d}"
                f"  {stage}{flag}"
            )
        if len(self.jobs) > MAX_JOBS_SHOWN:
            lines.append(
                f"... and {len(self.jobs) - MAX_JOBS_SHOWN} more job(s)"
            )
        return "\n".join(lines)
