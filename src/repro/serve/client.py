"""Client side of the evaluation daemon: connect-per-request + polling.

Every operation opens a fresh connection, sends one JSON line, reads
one JSON line back, and closes.  That makes the client stateless across
daemon restarts: a request that lands while the daemon is down (socket
missing or refusing) is retried inside ``reconnect_s`` -- combined with
idempotent server ops (submits dedup, status/result are reads) the
caller never has to care whether the daemon it is talking to is the
incarnation it submitted to.

:meth:`ServeClient.wait` polls ``result`` until the job reaches a
terminal state, riding out daemon downtime the same way; jobs survive
restarts in the journal, so waiting through a crash is expected to
succeed, not error.

Resilience against an *overloaded or crash-looping* daemon lives in two
places.  A small circuit breaker inside :class:`ServeClient` fails fast
after consecutive exhausted reconnect windows -- a crash-looping daemon
gets breathing room instead of a reconnect stampede -- and closes again
on the first success.  :meth:`ServeClient.run` wraps submit+wait in the
full retry discipline: backpressure rejections (``busy``, ``draining``,
``disk_pressure``) back off with capped jittered exponential delays
that honor the daemon's ``retry_after`` hint, and a result evicted by
retention is recovered by resubmitting the content-addressed spec
(dedup plus the result cache make the rerun idempotent).

The one exception to connect-per-request is :meth:`ServeClient.subscribe`:
it holds a single connection open and yields the daemon's JSON-lines
event feed as decoded dicts (``None`` between events when the feed is
idle, so callers can redraw UIs or check deadlines).  On a dropped
connection it reconnects inside the usual window and resubscribes with
backlog replay -- the per-event ``seq`` lets consumers drop duplicates.
"""

from __future__ import annotations

import random
import socket
import time
from pathlib import Path
from typing import Iterator

from repro.errors import ServeError
from repro.serve.protocol import MAX_LINE_BYTES, encode_message, decode_line

__all__ = ["ServeClient", "request"]

#: Cap on the circuit breaker's doubling cooldown (seconds).
BREAKER_MAX_COOLDOWN_S = 30.0

#: Cap on :meth:`ServeClient.run`'s doubling backoff after a rejected
#: submit (seconds).
MAX_BACKOFF_S = 30.0

#: Evictions :meth:`ServeClient.run` recovers by resubmitting before it
#: gives up.
MAX_RESUBMITS = 3


def request(
    socket_path: str | Path,
    message: dict,
    *,
    timeout_s: float = 30.0,
    reconnect_s: float = 0.0,
) -> dict:
    """One request/response round-trip; retries connection for ``reconnect_s``.

    Raises :class:`ServeError` when the daemon stays unreachable past the
    reconnect window, answers with a malformed line, or hangs up without
    responding (e.g. an injected ``client_disconnect`` fault).
    """
    path = str(socket_path)
    deadline = time.monotonic() + max(0.0, reconnect_s)
    attempt = 0
    while True:
        attempt += 1
        try:
            return _round_trip(path, message, timeout_s)
        except (ConnectionRefusedError, FileNotFoundError, ConnectionResetError,
                BrokenPipeError) as exc:
            if time.monotonic() >= deadline:
                error = ServeError(
                    f"daemon unreachable at {path} after {attempt} attempt(s):"
                    f" {type(exc).__name__}: {exc}"
                ).with_context(
                    attempts=attempt,
                    reconnect_window_s=round(max(0.0, reconnect_s), 2),
                    last_error=f"{type(exc).__name__}: {exc}",
                )
                raise error from exc
            time.sleep(min(0.2, max(0.02, 0.02 * attempt)))
        except socket.timeout as exc:
            raise ServeError(
                f"daemon at {path} did not answer within {timeout_s:.1f}s"
            ).with_context(attempts=attempt, timeout_s=timeout_s) from exc


def _round_trip(path: str, message: dict, timeout_s: float) -> dict:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout_s)
        sock.connect(path)
        sock.sendall(encode_message(message))
        chunks: list[bytes] = []
        total = 0
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            total += len(chunk)
            if chunk.endswith(b"\n"):
                break
            if total > MAX_LINE_BYTES:
                raise ServeError("daemon response exceeds the line limit")
    line = b"".join(chunks)
    if not line.endswith(b"\n"):
        # The daemon hung up mid-response (crash, injected disconnect):
        # surface as a connection error so the retry loop reconnects.
        raise ConnectionResetError("daemon closed the connection mid-response")
    return decode_line(line.rstrip(b"\n"))


class _CircuitBreaker:
    """Fail fast against a daemon that keeps eating reconnect windows.

    Counts *consecutive* failed requests (each one already survived a
    full reconnect window, so these are expensive).  At ``threshold``
    the breaker opens: requests fail immediately with the remaining
    cooldown in their context instead of hammering a crash-looping
    daemon.  Each consecutive open doubles the cooldown up to
    :data:`BREAKER_MAX_COOLDOWN_S`; the first success closes everything.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 1.0):
        self.threshold = max(1, threshold)
        self.cooldown_s = max(0.05, cooldown_s)
        self.failures = 0
        self.opens = 0
        self.open_until = 0.0

    def check(self) -> None:
        remaining = self.open_until - time.monotonic()
        if remaining > 0:
            raise ServeError(
                f"circuit breaker is open for another {remaining:.1f}s"
                f" after {self.failures} consecutive failure(s)"
            ).with_context(
                code="circuit_open",
                failures=self.failures,
                retry_in_s=round(remaining, 2),
            )

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            self.opens += 1
            cooldown = min(
                BREAKER_MAX_COOLDOWN_S,
                self.cooldown_s * (2 ** (self.opens - 1)),
            )
            self.open_until = time.monotonic() + cooldown

    def record_success(self) -> None:
        self.failures = 0
        self.opens = 0
        self.open_until = 0.0


class ServeClient:
    """Thin convenience wrapper binding a socket path and retry window."""

    def __init__(
        self,
        socket_path: str | Path,
        *,
        timeout_s: float = 30.0,
        reconnect_s: float = 10.0,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 1.0,
    ):
        self.socket_path = Path(socket_path)
        self.timeout_s = timeout_s
        self.reconnect_s = reconnect_s
        self._breaker = _CircuitBreaker(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )

    def _op(self, message: dict, *, reconnect_s: float | None = None) -> dict:
        self._breaker.check()
        try:
            response = request(
                self.socket_path,
                message,
                timeout_s=self.timeout_s,
                reconnect_s=(
                    self.reconnect_s if reconnect_s is None else reconnect_s
                ),
            )
        except ServeError:
            self._breaker.record_failure()
            raise
        self._breaker.record_success()
        return response

    def ping(self, *, reconnect_s: float | None = None) -> dict:
        return self._op({"op": "ping"}, reconnect_s=reconnect_s)

    def submit(
        self, job: dict, *, priority: int = 0, deadline: float = 0.0
    ) -> dict:
        message = {"op": "submit", "job": job, "priority": priority}
        if deadline and deadline > 0:
            message["deadline"] = float(deadline)
        return self._op(message)

    def status(self, job_id: str) -> dict:
        return self._op({"op": "status", "job_id": job_id})

    def result(self, job_id: str) -> dict:
        return self._op({"op": "result", "job_id": job_id})

    def stats(self) -> dict:
        return self._op({"op": "stats"})

    def metrics(self) -> dict:
        return self._op({"op": "metrics"})

    def trace(self, job_id: str) -> dict:
        return self._op({"op": "trace", "job_id": job_id})

    def drain(self) -> dict:
        return self._op({"op": "drain"})

    def subscribe(
        self,
        job_id: str | None = None,
        *,
        backlog: bool = True,
        idle_s: float = 2.0,
        reconnect_s: float | None = None,
    ) -> Iterator[dict | None]:
        """Yield feed events (and ``None`` on idle) until the feed ends.

        The first yielded event is the ``snapshot`` line (``{"ok": true,
        "snapshot": {...}}``).  A broken connection is retried within the
        reconnect window and resubscribed with backlog replay; the
        generator ends when the window is exhausted or the daemon closes
        the feed (drain/shutdown).
        """
        window = self.reconnect_s if reconnect_s is None else reconnect_s
        deadline = time.monotonic() + max(0.0, window)
        request_line = encode_message(
            {"op": "subscribe", "job_id": job_id or "", "backlog": backlog}
        )
        while True:
            try:
                with socket.socket(
                    socket.AF_UNIX, socket.SOCK_STREAM
                ) as sock:
                    sock.settimeout(max(0.1, idle_s))
                    sock.connect(str(self.socket_path))
                    sock.sendall(request_line)
                    buffer = bytearray()
                    while True:
                        newline = buffer.find(b"\n")
                        if newline >= 0:
                            line = bytes(buffer[:newline])
                            del buffer[: newline + 1]
                            yield decode_line(line)
                            # Events are flowing: refresh the window.
                            deadline = time.monotonic() + max(0.0, window)
                            continue
                        if len(buffer) > MAX_LINE_BYTES:
                            raise ServeError(
                                "feed event exceeds the line limit"
                            )
                        try:
                            chunk = sock.recv(1 << 16)
                        except socket.timeout:
                            yield None  # idle beat; caller may redraw
                            continue
                        if not chunk:
                            break  # daemon closed the feed
                        buffer.extend(chunk)
            except (
                ConnectionRefusedError,
                FileNotFoundError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                pass
            if time.monotonic() >= deadline:
                return
            time.sleep(0.1)

    def wait(
        self,
        job_id: str,
        *,
        timeout_s: float = 600.0,
        poll_s: float = 0.2,
    ) -> dict:
        """Poll until the job is ``done``/``failed``; rides out restarts.

        A job retention evicted mid-wait is returned as its structured
        ``evicted`` view (terminal from the waiter's perspective --
        :meth:`run` turns it into a resubmit).  Raises
        :class:`ServeError` on deadline, on an unknown job (a journal
        that never saw the submit), or when the daemon stays down
        longer than the reconnect window.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            view = self.result(job_id)
            if view.get("code") == "evicted":
                return view
            if not view.get("ok"):
                raise ServeError(
                    f"waiting on {job_id}: {view.get('error', 'unknown error')}"
                ).with_context(code=view.get("code"))
            if view.get("state") in ("done", "failed"):
                return view
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {view.get('state')!r} after"
                    f" {timeout_s:.1f}s"
                )
            time.sleep(poll_s)

    def run(
        self,
        job: dict,
        *,
        priority: int = 0,
        deadline: float = 0.0,
        timeout_s: float = 600.0,
    ) -> dict:
        """Submit and wait, with the full overload-retry discipline.

        Backpressure rejections (``busy``, ``draining``,
        ``disk_pressure``) retry under capped jittered exponential
        backoff that never undercuts the daemon's ``retry_after`` hint.
        A result evicted by retention between completion and our read
        is recovered by resubmitting the identical spec, up to
        :data:`MAX_RESUBMITS` times -- submits are content-addressed and
        results cached, so the retry is idempotent.  Any other rejection
        or failure raises/returns exactly as :meth:`wait` would.
        """
        stop_at = time.monotonic() + timeout_s
        rejections = 0
        resubmits = 0
        while True:
            remaining = stop_at - time.monotonic()
            if remaining <= 0:
                raise ServeError(
                    f"gave up submitting after {timeout_s:.1f}s"
                ).with_context(rejections=rejections, resubmits=resubmits)
            submitted = self.submit(job, priority=priority, deadline=deadline)
            if not submitted.get("ok"):
                code = submitted.get("code")
                if code not in ("busy", "draining", "disk_pressure"):
                    raise ServeError(
                        f"submit rejected: {submitted.get('error')}"
                    ).with_context(code=code)
                rejections += 1
                hint = float(submitted.get("retry_after") or 0.0)
                backoff = min(MAX_BACKOFF_S, 0.2 * (2 ** min(rejections, 8)))
                # The hint is a floor, never jittered away; the jitter
                # spreads simultaneous retriers apart (up to +25%).
                delay = max(hint, backoff) * (1.0 + 0.25 * random.random())
                time.sleep(max(0.02, min(delay, remaining)))
                continue
            rejections = 0
            view = self.wait(
                submitted["job_id"],
                timeout_s=max(0.1, stop_at - time.monotonic()),
            )
            if view.get("code") == "evicted":
                resubmits += 1
                if resubmits > MAX_RESUBMITS:
                    raise ServeError(
                        f"job {submitted['job_id']} evicted"
                        f" {resubmits} time(s); giving up"
                    ).with_context(code="evicted", resubmits=resubmits)
                continue
            return view
