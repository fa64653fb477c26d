"""Closed-loop load generator for ``repro serve`` (one client, one feed).

Run by ``perfbench/run.py`` with the session directory as working
directory.  It spawns ``python -m repro serve --workers 1`` bound to the
relative socket ``serve.sock`` and talks to it only through its public
ops and its ``subscribe`` event feed: at most one request connection at
a time plus one feed connection.

Set-up is daemon spawn until the first zero-second probe job is done
(worker boot included).  Each step then

1. submits a new 3D_HET flow job and waits for its ``done`` event on the
   feed (latency = submit to event receipt, never ``result`` polling);
2. resubmits the identical spec and reads its result back (the cached
   path: the submit dedups onto the finished job);
3. submits a zero-second ``probe`` with a fresh nonce and waits for its
   ``done`` event.

With ``--trace`` it also folds each flow job's span tree, read through
the ``trace`` op.  The client is a few lines of its own rather than
``repro.serve.client``: importing that pulls the whole flow into the
load generator, and its ``wait`` polls, which quantizes latency.

Prints ``ready`` after set-up, then one JSON line with the samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import socket
import subprocess
import sys
import threading
import time

SCALE = 0.25
#: Periods pinned to the ``matrix`` workload's targets (ns).  netcard
#: (0.5875 ns) is left out: its jobs take twice as long as the others',
#: and the session must stay well inside one run's time budget.
PERIODS = {"aes": 0.482, "ldpc": 0.431, "cpu": 0.813}
#: Netlist seeds per design: 42 flow jobs, enough for a p75 with ten
#: samples beyond it.  ``reference.json`` holds each job's result digest.
NETLIST_SEEDS = range(14)
SOCKET = "serve.sock"


def flow_pool(seed: int) -> list[tuple[str, int]]:
    """Every (design, netlist seed) job once, in an order drawn from ``seed``.

    Each round of four steps runs every design once, in a shuffled
    order, each design walking its own shuffled list of netlist seeds;
    so every run does the same work and the seed only moves it around.
    """
    rng = random.Random(seed)
    designs = sorted(PERIODS)
    seeds = {d: rng.sample(list(NETLIST_SEEDS), len(NETLIST_SEEDS)) for d in designs}
    order = []
    for i in range(len(NETLIST_SEEDS)):
        for design in rng.sample(designs, len(designs)):
            order.append((design, seeds[design][i]))
    return order


def flow_spec(design: str, netlist_seed: int) -> dict:
    return {
        "kind": "flow", "design": design, "config": "3D_HET",
        "period_ns": PERIODS[design], "scale": SCALE, "seed": netlist_seed,
    }


def result_digest(result: dict) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def request(message: dict, timeout_s: float = 60.0) -> dict:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout_s)
        sock.connect(SOCKET)
        sock.sendall(json.dumps(message, sort_keys=True).encode() + b"\n")
        buf = bytearray()
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf.extend(chunk)
    return json.loads(buf)


class Feed(threading.Thread):
    """Reads the event feed; records each event with its receipt time."""

    def __init__(self):
        super().__init__(daemon=True)
        self.cond = threading.Condition()
        self.states: dict[str, dict[str, tuple[float, float]]] = {}
        self.lifecycle: list[dict] = []
        self.lag: list[float] = []
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(SOCKET)
        self.sock.sendall(b'{"backlog": true, "job_id": "", "op": "subscribe"}\n')

    def run(self) -> None:
        buf = bytearray()
        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except OSError:
                break
            if not chunk:
                break
            received = time.perf_counter()
            wall = time.time()
            buf.extend(chunk)
            while (nl := buf.find(b"\n")) >= 0:
                event = json.loads(bytes(buf[:nl]))
                del buf[: nl + 1]
                self._apply(event, received, wall)
        with self.cond:
            self.cond.notify_all()

    def _apply(self, event: dict, received: float, wall: float) -> None:
        kind = event.get("event")
        if kind == "job_state":
            self.lag.append(wall - event["ts"])
            with self.cond:
                self.states.setdefault(event["job_id"], {})[event["state"]] = (
                    received, event["ts"], event.get("worker"),
                )
                self.cond.notify_all()
        elif kind == "lifecycle":
            self.lifecycle.append(event)

    def wait_terminal(self, job_id: str, timeout_s: float = 120.0):
        deadline = time.monotonic() + timeout_s
        with self.cond:
            while True:
                seen = self.states.get(job_id, {})
                for state in ("done", "failed"):
                    if state in seen:
                        return state, seen[state][0]
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self.is_alive():
                    return "lost", time.perf_counter()
                self.cond.wait(remaining)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def start_daemon(log) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", SOCKET,
         "--workers", "1"],
        stdin=subprocess.DEVNULL, stdout=log, stderr=log,
    )


def wait_reachable(daemon: subprocess.Popen, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            if request({"op": "ping"}, timeout_s=5.0).get("ok"):
                return
        except OSError:
            pass
        if daemon.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError("daemon did not come up")
        time.sleep(0.005)


def stop_daemon(daemon: subprocess.Popen) -> None:
    if daemon.poll() is None:
        try:
            request({"op": "drain"}, timeout_s=5.0)
        except (OSError, ValueError):
            pass
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
    if daemon.poll() is None:
        daemon.kill()  # its workers follow through their parent-death signal
        daemon.wait()


def probe(feed: Feed, nonce: str) -> tuple[str, float, str]:
    start = time.perf_counter()
    ack = request({"op": "submit", "job": {
        "kind": "probe", "seconds": 0.0, "payload": nonce, "nonce": nonce,
    }})
    if not ack.get("ok"):
        return "rejected", time.perf_counter() - start, ""
    state, at = feed.wait_terminal(ack["job_id"])
    return state, at - start, ack["job_id"]


def fold_spans(nodes: list[dict], into: dict) -> None:
    """Span name -> [count, self seconds] over a span tree in dict form,
    self time being duration minus direct children (``repro profile``)."""
    for node in nodes:
        children = node.get("children", [])
        entry = into.setdefault(node["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += node["duration_s"] - sum(c["duration_s"] for c in children)
        fold_spans(children, into)


def session(args, feed: Feed, out: dict) -> None:
    spans: dict[str, list] = {}
    flows, cached, probes, rtts, gaps = [], [], [], [], []
    results: dict[str, str] = {}
    errors: list[str] = []
    attempted = failed = 0
    job_ids: list[tuple[str, str]] = []
    start = time.perf_counter()
    last_done = None
    for step, (design, netlist_seed) in enumerate(flow_pool(args.seed), 1):
        spec = flow_spec(design, netlist_seed)
        label = f"{design}/{netlist_seed}"

        attempted += 1
        t0 = time.perf_counter()
        if last_done is not None:
            gaps.append(t0 - last_done)
        ack = request({"op": "submit", "job": spec})
        rtts.append(time.perf_counter() - t0)
        if not ack.get("ok"):
            failed += 1
            errors.append(f"{label}: submit rejected ({ack.get('code')})")
            continue
        state, at = feed.wait_terminal(ack["job_id"])
        if state != "done":
            failed += 1
            errors.append(f"{label}: flow job {state}")
            continue
        flows.append(at - t0)
        job_ids.append((ack["job_id"], "flow"))
        view = request({"op": "result", "job_id": ack["job_id"]})
        result = (view.get("result") or {}).get("result")
        results[label] = result_digest(result)
        if args.trace:
            fold_spans(request({"op": "trace", "job_id": ack["job_id"]})["trace"], spans)

        attempted += 1
        t0 = time.perf_counter()
        again = request({"op": "submit", "job": spec})
        view2 = request({"op": "result", "job_id": again.get("job_id", "")})
        cached.append(time.perf_counter() - t0)
        if not (again.get("deduped") and again.get("job_id") == ack["job_id"]
                and (view2.get("result") or {}).get("result") == result):
            failed += 1
            errors.append(f"{label}: resubmit did not return the same result")

        attempted += 1
        state, latency, job_id = probe(feed, f"{args.seed}-{step}")
        last_done = time.perf_counter()
        if state != "done":
            failed += 1
            errors.append(f"probe {step}: {state}")
            continue
        probes.append(latency)
        job_ids.append((job_id, "probe"))
        view = request({"op": "result", "job_id": job_id})
        if (view.get("result") or {}).get("echo") != f"{args.seed}-{step}":
            failed += 1
            errors.append(f"probe {step}: wrong echo")
    out["wall_s"] = time.perf_counter() - start

    waits, runs, probe_runs = [], [], []
    for job_id, kind in job_ids:
        seen = feed.states.get(job_id, {})
        if "running" in seen and "pending" in seen:
            waits.append(seen["running"][1] - seen["pending"][1])
        if "running" in seen and "done" in seen:
            (runs if kind == "flow" else probe_runs).append(
                seen["done"][1] - seen["running"][1]
            )
    snapshot = request({"op": "metrics"})["metrics"]
    fsync = next(
        (f for f in snapshot["families"]
         if f["name"] == "repro_journal_fsync_seconds"),
        None,
    )
    fsync_s = [
        s["sum"] / s["count"] for s in (fsync or {}).get("samples", [])
        if s["count"]
    ]
    out.update({
        "units": flows, "cached": cached, "probes": probes,
        "submit_rtt": rtts, "loadgen_gaps": gaps, "queue_wait": waits,
        "run": runs, "probe_run": probe_runs,
        "journal_fsync_s": fsync_s[0] if fsync_s else 0.0,
        "results": results, "attempted": attempted, "failed": failed,
        "errors": errors, "spans": spans,
    })


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="fold each flow job's span tree (trace op)")
    args = parser.parse_args()

    out: dict = {}
    with open("daemon.log", "wb") as log:
        t0 = time.perf_counter()
        daemon = start_daemon(log)
        feed = None
        try:
            wait_reachable(daemon)
            feed = Feed()
            feed.start()
            state, _latency, job_id = probe(feed, f"setup-{args.seed}")
            out["setup_s"] = time.perf_counter() - t0
            if state != "done":
                raise RuntimeError(f"set-up probe {state}")
            print("ready", flush=True)
            # A job is claimed onto a worker that may still be importing;
            # the first probe's completion marks the worker as booted.
            boots = [e for e in feed.lifecycle if e.get("action") == "worker_boot"]
            done = feed.states.get(job_id, {}).get("done")
            if boots and done:
                out["worker_boot_s"] = done[1] - boots[0]["ts"]
            if not args.setup_only:
                session(args, feed, out)
                out["feed_lag"] = feed.lag
        finally:
            if feed is not None:
                feed.close()
            stop_daemon(daemon)
    # Daemon and worker are reaped: the largest child's peak RSS.
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
