"""The repository benchmark: one workload, one seed, timed from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {matrix,explore,serve} --seed N \\
        --seconds S --trace {0,1}

Every repetition runs in a fresh interpreter with private, empty cache,
temp and daemon-state directories under ``.perfbench_work/`` (removed
on exit).  Every workload implements the same netlists on every run, so
every run does the same work and each output is checked against its
digest in ``reference.json`` on every run; the seed only orders the
serve workload's jobs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs once
untraced and once with the per-layer wrappers of ``layers.py`` plus the
span tracer, and prints the per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  The exit status is 1 when an
output is wrong (digest mismatch, a failed cell, config or job, or a
broken invariant) and 2 when the checkout holds no ``src/repro``.

``--record`` re-derives the output digests in ``reference.json`` from
the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYERS, SPAN_OF  # noqa: E402

REFERENCE = HERE / "reference.json"
WORKLOADS = ("matrix", "explore", "serve")
#: Fresh interpreters timed for set-up besides the measured repetition.
SETUP_SAMPLES = {"matrix": 3, "explore": 3, "serve": 1}
#: A run must end well inside the 180 s a single run is allowed.
RUN_BUDGET_S = 170.0


class Failure(Exception):
    """A child process died, timed out or produced no result."""


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def median(values):
    return statistics.median(values) if values else 0.0


def p75(values):
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=4)[2]


class Run:
    """Shared state of one benchmark invocation."""

    def __init__(self, args):
        self.args = args
        self.root = Path.cwd()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = (
            self.root / ".perfbench_work"
            / f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        self.counter = 0

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()

    def fresh_dir(self) -> Path:
        self.counter += 1
        path = self.work / str(self.counter)
        (path / "tmp").mkdir(parents=True)
        return path

    def env(self, path: Path, *, serve_trace: bool = False) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            # Set iteration order changes how much work the optimizer
            # does (about 15% of matrix wall time between hash seeds),
            # though never its results: pin it so runs are comparable.
            PYTHONHASHSEED="0",
            PYTHONPATH=str(self.root / "src"),
            REPRO_CACHE_DIR=str(path / "cache"),
            REPRO_SERVE_DIR=str(path),
            REPRO_SERVE_WORKERS="1",
            REPRO_SERVE_TRACE="1" if serve_trace else "0",
            TMPDIR=str(path / "tmp"),
        )
        return env

    def spawn(self, argv: list[str], path: Path, **env_kw) -> tuple[float, dict]:
        """Run one child; returns (seconds from spawn to ``ready``, result)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Failure("run budget exhausted")
        with open(path / "child.log", "wb") as log:
            start = time.perf_counter()
            # Own process group: a daemon and its workers die with it.
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=path, env=self.env(path, **env_kw),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log,
                text=True, start_new_session=True,
            )
            timer = threading.Timer(remaining, _kill_group, (proc,))
            timer.start()
            try:
                ready = proc.stdout.readline()
                ready_s = time.perf_counter() - start
                lines = proc.stdout.read().splitlines()
                proc.wait()
            finally:
                timer.cancel()
                _kill_group(proc)
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0 or not lines:
            tail = (path / "child.log").read_text(errors="replace")[-2000:]
            raise Failure(
                f"child {argv[0]} exited {proc.returncode}:\n{tail}"
            )
        return ready_s, json.loads(lines[-1])


# ----------------------------------------------------------------------
# matrix / explore: in-process workloads, one fresh interpreter per rep
# ----------------------------------------------------------------------
def inproc_child(run: Run, *, trace: bool = False, setup_only: bool = False,
                 workload: str | None = None):
    argv = [str(HERE / "inproc.py"), "--workload", workload or run.args.workload,
            "--trace", str(int(trace))]
    if setup_only:
        argv.append("--setup-only")
    return run.spawn(argv, run.fresh_dir())


def bench_inproc(run: Run) -> dict:
    setups, imports = [], []
    # A traced run reports no set-up time.
    for _ in range(0 if run.args.trace else SETUP_SAMPLES[run.args.workload]):
        ready_s, out = inproc_child(run, setup_only=True)
        setups.append(ready_s)
        imports.append(out["import_s"])
    reps = []
    start = time.perf_counter()
    while True:
        ready_s, out = inproc_child(run)
        setups.append(ready_s)
        imports.append(out["import_s"])
        reps.append(out)
        elapsed = time.perf_counter() - start
        if run.args.trace or elapsed + out["wall_s"] > run.args.seconds:
            break
    traced = None
    if run.args.trace:
        ready_s, traced = inproc_child(run, trace=True)
        imports.append(traced["import_s"])
    return {"setups": setups, "imports": imports, "reps": reps, "traced": traced}


# ----------------------------------------------------------------------
# serve: load generator process driving a daemon
# ----------------------------------------------------------------------
def serve_child(run: Run, *, trace: bool = False, setup_only: bool = False):
    argv = [str(HERE / "serve_load.py"), "--seed", str(run.args.seed)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv.append("--trace")
    return run.spawn(argv, run.fresh_dir(), serve_trace=trace)[1]


def bench_serve(run: Run) -> dict:
    """One session over the whole job set (``--seconds`` cannot extend
    it: a repeated spec would be a cached job, not a new one)."""
    setups, boots, imports = [], [], []
    for _ in range(0 if run.args.trace else SETUP_SAMPLES["serve"]):
        out = serve_child(run, setup_only=True)
        setups.append(out["setup_s"])
        boots.append(out.get("worker_boot_s", 0.0))
    main = serve_child(run)
    setups.append(main["setup_s"])
    boots.append(main.get("worker_boot_s", 0.0))
    traced = None
    if run.args.trace:
        traced = serve_child(run, trace=True)
        boots.append(traced.get("worker_boot_s", 0.0))
        # The daemon runs `import repro.cli` too; time it in a bare
        # interpreter, since the daemon is observed only from outside.
        imports.append(inproc_child(run, setup_only=True, workload="matrix")[1]["import_s"])
    return {"setups": setups, "boots": boots, "imports": imports,
            "reps": [main], "traced": traced}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(raw: dict) -> dict:
    reps = raw["reps"]
    return {
        "setup_s": (median(raw["setups"]), "s", len(raw["setups"])),
        "wall_s": (median([r["wall_s"] for r in reps]), "s", len(reps)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB", len(reps)),
    }


def per_layer(workload: str, raw: dict) -> dict:
    """Every per-layer metric; layers a workload does not run read 0."""
    metrics: dict[str, tuple[float, str, int]] = {}
    traced = raw["traced"]
    base = raw["reps"][0]
    # Latency of one unit of cold work (a flow, a config evaluation, a
    # flow job), from the untraced repetition.  Kept here, without a
    # bound: across runs it spreads with the host's speed by up to 43%.
    units = base["units"]
    metrics["unit_p50_s"] = (median(units), "s", len(units))
    metrics["unit_p75_s"] = (p75(units), "s", len(units))
    layers = traced.get("layers", {})
    for layer in LAYERS:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        metrics[f"{layer}.calls"] = (entry["calls"], "count", 1)
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s", entry["calls"])
    if workload == "serve":
        # The wrappers cannot reach the daemon's worker: layers with a
        # span of their own are folded from each job's trace instead.
        for layer, span_name in SPAN_OF.items():
            count, self_s = traced["spans"].get(span_name, (0, 0.0))
            metrics[f"{layer}.calls"] = (count, "count", 1)
            metrics[f"{layer}.self_s"] = (self_s, "s", count)
    search = layers.get("experiments.runner.period_search", {})
    metrics["experiments.runner.period_search_s"] = (
        search.get("total_s", 0.0), "s", search.get("calls", 0))
    metrics["experiments.runner.period_probes"] = (
        traced.get("search_probes", 0), "count", 1)
    sta_calls = layers.get("timing", {}).get("calls", 0)
    metrics["timing.full_fraction"] = (
        traced.get("sta_full", 0) / sta_calls if sta_calls else 0.0, "ratio",
        sta_calls)
    accepted, rejected = traced.get("eco", (0, 0))
    metrics["partition.eco_accept_ratio"] = (
        accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "ratio", accepted + rejected)
    hits, misses = traced.get("cache", (0, 0))
    metrics["experiments.cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio",
        hits + misses)
    counts = traced.get("counts", {})
    reused = counts.get("prefix_stages_reused", 0)
    stages = counts.get("flow_stages_run", 0)
    metrics["experiments.dse.stage_reuse_ratio"] = (
        reused / (reused + stages) if reused + stages else 0.0, "ratio",
        reused + stages)
    metrics["experiments.dse.pruned"] = (counts.get("dse_pruned", 0), "count", 1)

    # Exact counts (identical on every run of the same code and seed).
    metrics["count.flows_run"] = (counts.get("flows_run", 0), "count", 1)
    metrics["count.period_probes"] = (counts.get("period_probes", 0), "count", 1)
    metrics["count.flow_stages"] = (stages, "count", 1)
    metrics["count.prefix_stages_reused"] = (reused, "count", 1)
    metrics["count.tails_reused"] = (
        counts.get("suffix_flows_reused", 0), "count", 1)
    metrics["count.jobs_done"] = (
        len(traced.get("units", [])) + len(traced.get("probes", []))
        if workload == "serve" else 0, "count", 1)

    serve = traced if workload == "serve" else {}
    for name, key in (
        ("submit_rtt_s", "submit_rtt"), ("queue_wait_s", "queue_wait"),
        ("run_s", "run"), ("probe_run_s", "probe_run"),
        ("probe_job_p50_s", "probes"), ("cached_job_p50_s", "cached"),
        ("loadgen_lag_s", "loadgen_gaps"),
        ("feed_lag_s", "feed_lag"),
    ):
        values = serve.get(key, [])
        metrics[f"serve.{name}"] = (median(values), "s", len(values))
    metrics["serve.journal_fsync_s"] = (serve.get("journal_fsync_s", 0.0), "s", 1)
    boots = raw.get("boots", []) if workload == "serve" else []
    metrics["serve.worker_boot_s"] = (median(boots), "s", len(boots))

    imports = raw.get("imports", [])
    metrics["process.import_s"] = (median(imports), "s", len(imports))
    if workload == "serve":
        # Same number of steps on both sessions: compare time per op.
        overhead = (traced["wall_s"] / traced["attempted"]) / (
            base["wall_s"] / base["attempted"])
    else:
        overhead = traced["wall_s"] / base["wall_s"]
    metrics["obs.trace_overhead"] = (overhead, "ratio", 1)

    spans = traced.get("spans", {})
    metrics["obs.sta_spans"] = (spans.get("sta", (0, 0.0))[0], "count", 1)
    dse_calls, dse_self = spans.get("dse_flow", (0, 0.0))
    attributed = sum(traced.get("dse_flow_attributed", {}).values())
    metrics["obs.dse_flow_self_s"] = (dse_self, "s", dse_calls)
    metrics["obs.dse_flow_attributed_frac"] = (
        attributed / dse_self if dse_self else 0.0, "ratio", dse_calls)
    return metrics


def cross_check(raw: dict, overhead: float) -> tuple[list[str], list[str]]:
    """Outside-in numbers against the span tracer: (report, problems)."""
    traced = raw["traced"]
    report, problems = [], []
    tolerance = max(0.05, overhead - 1.0)
    for layer, span_name in SPAN_OF.items():
        entry = traced["layers"][layer]
        count, span_self = traced["spans"][span_name]
        report.append(
            f"{layer:18s} {entry['calls']:5d} calls {entry['self_s']:8.3f} s self"
            f" | {span_name:15s} {count:5d} spans {span_self:8.3f} s self")
        if entry["calls"] != count:
            problems.append(
                f"{layer}: {entry['calls']} calls but {count} {span_name!r} spans")
        # Wrapper and span start and stop a few statements apart: allow
        # the tracing overhead plus 1 ms per call.
        allowed = tolerance * span_self + 1e-3 * count
        if abs(entry["self_s"] - span_self) > allowed:
            problems.append(
                f"{layer}: self {entry['self_s']:.3f} s vs span fold"
                f" {span_self:.3f} s (allowed {allowed:.3f} s)")
    return report, problems


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def check(workload: str, raw: dict, reference: dict) -> list[str]:
    """Every run implements the reference netlists, whatever its seed:
    each output must match its recorded digest, and nothing may fail."""
    problems = []
    for out in raw["reps"] + ([raw["traced"]] if raw["traced"] else []):
        problems += out.get("errors", [])
        if out["failed"]:
            problems.append(f"{out['failed']} of {out['attempted']} failed")
        if workload == "serve":
            expected = reference["serve_results"]
            for label, digest in out["results"].items():
                if expected.get(label) != digest:
                    problems.append(f"serve result {label}: digest mismatch")
        elif out.get("digest") != reference["digests"][workload]:
            problems.append(f"{workload} output digest mismatch")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the digests in reference.json")
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.record:
        return record(args)
    if args.workload is None:
        parser.error("--workload is required")

    reference = json.loads(REFERENCE.read_text())
    run = Run(args)
    try:
        raw = (bench_serve if args.workload == "serve" else bench_inproc)(run)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()

    problems = check(args.workload, raw, reference)
    report = []
    if args.trace:
        metrics = per_layer(args.workload, raw)
        if args.workload != "serve":
            report, extra = cross_check(raw, metrics["obs.trace_overhead"][0])
            problems += extra
    else:
        metrics = end_to_end(raw)
    outputs = raw["reps"] + ([raw["traced"]] if raw["traced"] else [])
    attempted = sum(o["attempted"] for o in outputs)
    failed = sum(o["failed"] for o in outputs)

    print(f"workload {args.workload}, seed {args.seed},"
          f" {'traced' if args.trace else 'untraced'}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={n}")
    first = raw["reps"][0]
    if first.get("counts"):
        print("  counts: " + ", ".join(
            f"{k}={v}" for k, v in first["counts"].items() if v))
    if first.get("periods"):
        print("  target periods (ns): " + ", ".join(
            f"{k}={v:.4f}" for k, v in sorted(first["periods"].items())))
    if args.workload == "serve":
        print(f"  load generator: {len(first['units'])} flow jobs, lag p50"
              f" {median(first['loadgen_gaps']) * 1e3:.3f} ms between a done"
              f" event and the next submit, feed delivery p50"
              f" {median(first['feed_lag']) * 1e3:.3f} ms")
    if report:
        print("  cross-check against the span tracer (wrapped layer | span):")
        for line in report:
            print(f"    {line}")
    if raw["traced"] and raw["traced"].get("dse_flow_attributed"):
        print("  dse_flow self time explained by span-less layers:")
        for layer, secs in sorted(raw["traced"]["dse_flow_attributed"].items(),
                                  key=lambda kv: -kv[1]):
            print(f"    {layer:36s} {secs:9.3f} s")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in metrics.items()
        },
    }))
    return 0 if not problems else 1


def record(args) -> int:
    """Digests of the current code's outputs."""
    reference = json.loads(REFERENCE.read_text())
    for workload in WORKLOADS:
        args.workload, args.trace = workload, 0
        run = Run(args)
        try:
            if workload == "serve":
                raw = bench_serve(run)
                reference["serve_results"] = dict(sorted(raw["reps"][0]["results"].items()))
            else:
                raw = bench_inproc(run)
                reference["digests"][workload] = raw["reps"][0]["digest"]
        finally:
            run.cleanup()
        if any(r["failed"] for r in raw["reps"]):
            print(f"perfbench: {workload} had failures", file=sys.stderr)
            return 1
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
