"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``flow``     run one configuration of one netlist and print its PPAC row
``matrix``   run the full Fig. 1 configuration set for one netlist
             (``--jobs N`` fans the cells out, ``--stats`` prints the
             telemetry: cache hits/misses, flow counts, wall times;
             ``--keep-going``/``--max-retries``/``--timeout``/``--resume``
             control the resilience layer -- quarantined cells print a
             failure table and the command exits with status 3)
``sweep``    find the 12-track 2-D maximum frequency of a netlist
``export``   write the Verilog/DEF/Liberty artifacts of one implementation
``tables``   regenerate the cheap paper tables (I-IV) as text
``report``   run the full evaluation matrix and write a markdown report
``cache``    show (or ``--clear``) the persistent on-disk result cache
``trace``    pretty-print (or ``--validate``) a recorded trace file, or
             aggregate every trace in a directory into one tree
``profile``  rank the hottest flow stages of a trace file or directory
``check``    validate a saved checkpoint or FlowResult JSON file
``serve``    run the crash-safe evaluation daemon (journaled job queue,
             supervised worker pool, Unix-socket intake; SIGTERM drains)
``submit``   send a flow/matrix/sweep/probe job to a running daemon
``status``   show one job (or, without a job id, the daemon's stats)
``result``   fetch a job's result (``--wait`` polls until terminal;
             ``--trace PATH`` also fetches the job's live-stitched span
             tree -- valid mid-run -- and writes it to PATH, or prints
             it when PATH is ``-``)
``metrics``  scrape the daemon's metrics registry (Prometheus text by
             default, ``--json`` for the raw snapshot)
``top``      live ASCII dashboard over the daemon's subscribe feed
``watch``    tail one job's feed events until it reaches done/failed

``flow``/``matrix``/``sweep``/``report`` accept ``--trace PATH``: spans
are recorded for the whole command (workers inherit ``$REPRO_TRACE``)
and written to PATH on exit -- Chrome trace-event JSON by default,
JSONL when PATH ends in ``.jsonl``.  The file is written even when the
run ends quarantined (exit 3), so a degraded run still leaves a
truncated-but-valid trace behind.

The same commands accept ``--check {off,warn,repair,strict}``: the flag
sets ``$REPRO_CHECK`` for the whole command (workers inherit it), so
every stage boundary of every flow run enforces the integrity contracts
of :mod:`repro.integrity`.  ``flow`` additionally takes
``--checkpoint-dir`` (write a checksummed design snapshot after each
stage) and ``--from-stage`` (resume from the newest valid checkpoint
before the named stage).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.experiments.configs import CONFIG_NAMES, configurations
from repro.experiments.runner import find_target_period
from repro.experiments.telemetry import get_telemetry, timed_stage
from repro.log import init_from_env
from repro.obs import trace as obs_trace
from repro.experiments.tables import (
    PAPER_TABLE1,
    table1_qualitative_ranks,
    table2_output_boundary,
    table3_input_boundary,
    table4_cost_model,
)
from repro.netlist.generators import DESIGN_NAMES

__all__ = ["main"]

#: Exit status when the run completed but one or more cells were
#: quarantined (so CI and scripts can detect degraded runs).
EXIT_QUARANTINED = 3


def _print_result(result) -> None:
    row = result.row()
    print(f"{result.design} [{result.config}] @ {result.frequency_ghz:.2f} GHz")
    for key, value in row.items():
        print(f"  {key:22s} {value:12.4f}")


def _cmd_flow(args: argparse.Namespace) -> int:
    configs = configurations()
    kwargs = {}
    if args.checkpoint_dir:
        kwargs["checkpoint_dir"] = args.checkpoint_dir
    if args.from_stage:
        kwargs["from_stage"] = args.from_stage
    with timed_stage("flow", design=args.design, config=args.config):
        _design, result = configs[args.config].run(
            args.design, period_ns=args.period, scale=args.scale,
            seed=args.seed, **kwargs,
        )
    _print_result(result)
    return 0


def _print_failures(matrix) -> None:
    print("\n-- failed cells --")
    print(matrix.failure_summary())


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_matrix

    matrix = run_matrix(
        designs=(args.design,),
        config_names=CONFIG_NAMES,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        keep_going=args.keep_going,
        max_retries=args.max_retries,
        timeout_s=args.timeout,
        resume=args.resume,
        target_periods={args.design: args.period} if args.period else None,
    )
    period = matrix.target_periods.get(args.design)
    if period is not None:
        print(f"target period {period:.3f} ns ({1 / period:.2f} GHz)")
    for name in CONFIG_NAMES:
        result = matrix.results.get((args.design, name))
        if result is None:
            cell = matrix.failed.get((args.design, name))
            reason = (
                f"{cell.error_type} at {cell.stage}" if cell is not None
                else "period search failed"
            )
            print(f"{name:8s} QUARANTINED ({reason})")
            continue
        print(
            f"{name:8s} WNS {result.wns_ns:+7.3f}  "
            f"P {result.total_power_mw:8.3f} mW  "
            f"PDP {result.pdp_pj:8.3f} pJ  "
            f"cost {result.die_cost_1e6:8.4f}  PPC {result.ppc:10.1f}"
        )
    if not matrix.ok:
        _print_failures(matrix)
    if args.stats:
        print("\n-- telemetry --")
        print(get_telemetry().summary())
    return 0 if matrix.ok else EXIT_QUARANTINED


def _cmd_explore(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.dse import ExploreSpec, LatticeSpec, explore
    from repro.experiments.dse.pareto import parse_objectives
    from repro.experiments.dse.search import load_report
    from repro.experiments.resilience import RetryPolicy

    lattice_kwargs = {}
    if args.slow_tracks:
        lattice_kwargs["slow_tracks"] = tuple(args.slow_tracks)
    if args.slow_vdd:
        lattice_kwargs["slow_vdd"] = tuple(args.slow_vdd)
    if args.tier_caps:
        lattice_kwargs["tier_caps"] = tuple(args.tier_caps)
    if args.fm_tols:
        lattice_kwargs["fm_tolerances"] = tuple(args.fm_tols)
    spec = ExploreSpec(
        design=args.design,
        scale=args.scale,
        seed=args.seed,
        lattice=LatticeSpec(**lattice_kwargs),
        objectives=parse_objectives(args.objectives),
        prune=not args.no_prune,
        reuse_prefix=not args.no_reuse,
        warm_periods=not args.no_warm,
    )
    if args.report:
        report = load_report(spec)
        if report is None:
            print("no stored exploration for this spec; run without "
                  "--report first", file=sys.stderr)
            return 1
    else:
        policy = RetryPolicy().with_overrides(
            keep_going=args.keep_going,
            max_retries=args.max_retries,
            timeout_s=args.timeout,
        )
        report = explore(
            spec,
            jobs=args.jobs or 1,
            resume=args.resume,
            policy=policy,
            progress=print,
        )
    print(report.render())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json}")
    if args.stats:
        print("\n-- telemetry --")
        print(get_telemetry().summary())
    return 0 if report.ok else EXIT_QUARANTINED


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments import cache

    root = cache.cache_dir()
    if args.clear:
        removed = cache.clear_cache()
        print(f"removed {removed} entries from {root}")
        return 0
    entries = list(root.glob("*.json")) if root.is_dir() else []
    size_kb = sum(p.stat().st_size for p in entries) / 1024.0
    state = "enabled" if cache.cache_enabled() else "DISABLED (REPRO_CACHE)"
    print(f"cache dir   {root}")
    print(f"state       {state}")
    print(f"entries     {len(entries)} ({size_kb:.1f} KiB)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    period = find_target_period(args.design, scale=args.scale, seed=args.seed)
    print(f"{args.design}: max frequency {1 / period:.3f} GHz "
          f"(period {period:.3f} ns)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io.def_writer import write_def
    from repro.io.liberty_writer import write_liberty
    from repro.netlist.verilog import write_verilog

    configs = configurations()
    design, _result = configs[args.config].run(
        args.design, period_ns=args.period, scale=args.scale, seed=args.seed
    )
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.design}.v").write_text(write_verilog(design.netlist))
    (out / f"{args.design}.def").write_text(write_def(design))
    for tier, lib in design.tier_libs.items():
        (out / f"{lib.name}.lib").write_text(write_liberty(lib))
    print(f"wrote Verilog/DEF/Liberty artifacts to {out}/")
    return 0


def _cmd_tables(_args: argparse.Namespace) -> int:
    print("== Table I: qualitative ranks (ours vs paper) ==")
    ranks = table1_qualitative_ranks()
    for metric in ranks:
        ours = {k: ranks[metric][k] for k in sorted(ranks[metric])}
        print(f"  {metric:16s} ours  {ours}")
        print(f"  {'':16s} paper {dict(sorted(PAPER_TABLE1[metric].items()))}")
    print("\n== Table II: FO-4 heterogeneity at driver output ==")
    for row in table2_output_boundary():
        print(f"  {row.label:10s} {row.tier0}/{row.tier1}: "
              f"delays {row.rise_delay_ps:.1f}/{row.fall_delay_ps:.1f} ps, "
              f"leak {row.leakage_uw:.3f} uW, total {row.total_power_uw:.2f} uW")
    print("\n== Table III: FO-4 heterogeneity at driver input ==")
    for row in table3_input_boundary():
        print(f"  {row.label:14s}: "
              f"delays {row.rise_delay_ps:.1f}/{row.fall_delay_ps:.1f} ps, "
              f"leak {row.leakage_uw:.3f} uW, total {row.total_power_uw:.2f} uW")
    print("\n== Table IV: cost model ==")
    for key, value in table4_cost_model().items():
        print(f"  {key:24s} {value:10.4f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.reportgen import render_report
    from repro.experiments.runner import run_matrix

    matrix = run_matrix(
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        keep_going=args.keep_going,
        max_retries=args.max_retries,
        timeout_s=args.timeout,
        resume=args.resume,
    )
    if not matrix.ok:
        # The report tables index every cell; a partial matrix cannot
        # be rendered faithfully, so report the damage instead.
        print(f"matrix incomplete; {args.output} not written")
        _print_failures(matrix)
        return EXIT_QUARANTINED
    text = render_report(matrix)
    Path(args.output).write_text(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import (
        load_traces,
        tree_summary,
        validate_chrome_trace,
    )

    path = Path(args.file)
    if args.validate:
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"error: {path} is not JSON: {exc}", file=sys.stderr)
            return 1
        problems = validate_chrome_trace(obj)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return 1
        print(f"{path}: valid Chrome trace "
              f"({len(obj.get('traceEvents', []))} events)")
        return 0
    roots = load_traces(path)
    if not roots:
        print(f"{path}: no spans recorded")
        return 0
    print(tree_summary(roots, max_depth=args.depth, metrics=not args.no_metrics))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.export import load_traces, profile_summary

    roots = load_traces(Path(args.file))
    if not roots:
        print(f"{args.file}: no spans recorded")
        return 0
    print(profile_summary(roots, top=args.top))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.errors import CheckpointError
    from repro.integrity import check_design, check_result, load_checkpoint

    path = Path(args.file)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1

    if isinstance(payload, dict) and "checksum" in payload:
        # A stage checkpoint: verify the envelope, then the design.
        try:
            stage, design = load_checkpoint(path)
        except CheckpointError as exc:
            print(f"{path}: CORRUPT checkpoint: {exc}", file=sys.stderr)
            return 1
        violations = check_design(design)
        what = (f"checkpoint stage={stage} design={design.name} "
                f"config={design.config}")
    elif isinstance(payload, dict) and "config" in payload:
        violations = check_result(payload)
        what = (f"FlowResult design={payload.get('design')} "
                f"config={payload.get('config')}")
    else:
        print(f"error: {path} is neither a stage checkpoint nor a "
              f"FlowResult", file=sys.stderr)
        return 1

    if not violations:
        print(f"{path}: OK ({what}; checksum and all invariants pass)")
        return 0
    print(f"{path}: {len(violations)} violation(s) ({what})")
    for v in violations:
        print(f"  {v}")
    return 1


def _default_socket() -> str:
    """The socket path a bare ``repro serve`` would bind (env-aware)."""
    from repro.serve.daemon import ServeConfig

    return str(ServeConfig.from_env().socket_path)


def _serve_client(args: argparse.Namespace):
    from repro.serve.client import ServeClient

    return ServeClient(args.socket or _default_socket())


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import ServeConfig, serve

    config = ServeConfig.from_env(
        state_dir=Path(args.state_dir) if args.state_dir else None,
        socket_path=Path(args.socket) if args.socket else None,
        workers=args.workers,
        max_workers=args.max_workers,
        queue_max=args.queue_max,
        job_timeout_s=args.job_timeout,
        drain_s=args.drain_timeout,
    )
    return serve(config)


def _build_job_spec(args: argparse.Namespace) -> dict:
    if args.probe:
        return {
            "kind": "probe",
            "seconds": args.probe_seconds,
            "payload": {"note": args.probe},
            "nonce": args.probe,
        }
    if args.design is None:
        raise ReproError("submit needs a design (or --probe NONCE)")
    if args.matrix:
        spec: dict = {
            "kind": "matrix",
            "designs": [args.design],
            "scale": args.scale,
            "seed": args.seed,
        }
        if args.period is not None:
            spec["periods"] = {args.design: args.period}
        return spec
    if args.sweep:
        return {
            "kind": "sweep",
            "design": args.design,
            "scale": args.scale,
            "seed": args.seed,
        }
    return {
        "kind": "flow",
        "design": args.design,
        "config": args.config,
        "period_ns": args.period,
        "scale": args.scale,
        "seed": args.seed,
    }


def _print_job_view(view: dict) -> None:
    import json

    print(json.dumps(view, indent=2, sort_keys=True))


def _job_exit(view: dict) -> int:
    if view.get("state") == "failed":
        return EXIT_QUARANTINED
    if view.get("state") == "evicted":
        # Retention dropped the payload; the terminal state survives in
        # the tombstone.
        return EXIT_QUARANTINED if view.get("terminal_state") == "failed" else 0
    if view.get("state") == "done":
        payload = view.get("result") or {}
        # A kept-going matrix can complete with quarantined cells.
        if payload.get("ok") is False or payload.get("failed"):
            return EXIT_QUARANTINED
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _serve_client(args)
    spec = _build_job_spec(args)
    if args.wait:
        # The resilient path: backpressure rejections back off under the
        # daemon's retry_after hint, and an evicted result resubmits.
        view = client.run(
            spec,
            priority=args.priority,
            deadline=args.deadline,
            timeout_s=args.wait_timeout,
        )
        _print_job_view(view)
        return _job_exit(view)
    response = client.submit(
        spec, priority=args.priority, deadline=args.deadline
    )
    if not response.get("ok"):
        code = response.get("code", "error")
        print(f"error ({code}): {response.get('error')}", file=sys.stderr)
        if code in ("busy", "disk_pressure") and response.get("retry_after"):
            print(f"retry after {response['retry_after']:.1f}s", file=sys.stderr)
        return 1
    job_id = response["job_id"]
    dedup = " (deduplicated onto an existing job)" if response.get("deduped") else ""
    print(f"submitted {job_id} [{response.get('state')}]{dedup}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = _serve_client(args)
    if args.job_id:
        view = client.status(args.job_id)
    else:
        view = client.stats()
    if not view.get("ok"):
        print(f"error ({view.get('code', 'error')}): {view.get('error')}",
              file=sys.stderr)
        return 1
    view.pop("ok", None)
    _print_job_view(view)
    return 0


def _write_job_trace(client, job_id: str, dest: str) -> int:
    """Fetch a job's live-stitched span tree and write (or print) it.

    Valid mid-run: a running job yields a still-open root over the
    stages streamed so far.  ``-`` prints the ASCII tree; a ``.jsonl``
    suffix selects the JSONL exporter, anything else Chrome JSON.
    """
    from repro.obs.export import tree_summary, write_chrome_trace, write_jsonl
    from repro.obs.trace import Span

    view = client.trace(job_id)
    if not view.get("ok"):
        print(f"error ({view.get('code', 'error')}): {view.get('error')}",
              file=sys.stderr)
        return 1
    roots = [Span.from_dict(d) for d in view.get("trace") or []]
    if dest == "-":
        if roots:
            print(tree_summary(roots))
        else:
            print(f"{job_id}: no spans streamed yet")
        return 0
    if Path(dest).suffix == ".jsonl":
        write_jsonl(dest, roots)
    else:
        write_chrome_trace(dest, roots)
    print(f"wrote trace ({view.get('stages', 0)} stage(s),"
          f" state {view.get('state')}) to {dest}", file=sys.stderr)
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    client = _serve_client(args)
    if args.wait:
        view = client.wait(args.job_id, timeout_s=args.wait_timeout)
    else:
        view = client.result(args.job_id)
        if not view.get("ok"):
            print(f"error ({view.get('code', 'error')}): {view.get('error')}",
                  file=sys.stderr)
            return 1
    view.pop("ok", None)
    _print_job_view(view)
    if args.job_trace:
        status = _write_job_trace(client, args.job_id, args.job_trace)
        if status:
            return status
    return _job_exit(view)


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.registry import render_prometheus

    client = _serve_client(args)
    view = client.metrics()
    if not view.get("ok"):
        print(f"error ({view.get('code', 'error')}): {view.get('error')}",
              file=sys.stderr)
        return 1
    snapshot = view.get("metrics") or {}
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_prometheus(snapshot))
    return 0


def _draw_frame(text: str) -> None:
    if sys.stdout.isatty():
        sys.stdout.write("\x1b[2J\x1b[H")  # clear + home, no curses
    print(text, flush=True)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.serve.topview import TopModel

    client = _serve_client(args)
    model = TopModel()
    deadline = (
        time.monotonic() + args.duration if args.duration else None
    )
    last_draw = 0.0
    try:
        for event in client.subscribe(
            idle_s=min(0.5, max(0.1, args.interval))
        ):
            if event is not None:
                if "snapshot" in event:
                    model.apply_snapshot(event)
                else:
                    model.apply(event)
            now = time.monotonic()
            if args.once:
                if event is None:  # backlog settled: one frame and out
                    break
                continue
            if now - last_draw >= args.interval:
                _draw_frame(model.render())
                last_draw = now
            if deadline is not None and now >= deadline:
                break
    except KeyboardInterrupt:
        pass  # Ctrl-C just ends the dashboard; final frame below
    _draw_frame(model.render())
    return 0


def _fmt_feed_event(event: dict) -> str | None:
    kind = event.get("event")
    if kind == "job_state":
        extra = "  ".join(
            f"{key}={event[key]}"
            for key in ("worker", "attempt", "attempts", "reason",
                        "error_type")
            if event.get(key)
        )
        return f"state -> {event.get('state')}" + (
            f"  ({extra})" if extra else ""
        )
    if kind == "span_open":
        depth = int(event.get("depth", 0) or 0)
        return f"{'  ' * depth}> {event.get('name')}"
    if kind == "span_close":
        depth = int(event.get("depth", 0) or 0)
        flag = "" if event.get("status", "ok") == "ok" else (
            f" !{event.get('status')}"
        )
        return (f"{'  ' * depth}+ {event.get('name')} "
                f"({float(event.get('duration_s', 0.0)):.3f}s){flag}")
    if kind == "lifecycle":
        extra = "  ".join(
            f"{k}={v}" for k, v in sorted(event.items())
            if k not in ("event", "seq", "ts", "action")
        )
        return f"! {event.get('action')}" + (f"  ({extra})" if extra else "")
    if kind == "feed_gap":
        return f"! feed gap: {event.get('dropped')} event(s) lost"
    return None  # metrics ticks and unknown kinds stay quiet


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    client = _serve_client(args)
    view = client.result(args.job_id)
    if not view.get("ok"):
        print(f"error ({view.get('code', 'error')}): {view.get('error')}",
              file=sys.stderr)
        return 1
    if view.get("state") in ("done", "failed"):
        print(f"{args.job_id}: already {view['state']}")
        return _job_exit(view)
    deadline = time.monotonic() + args.timeout
    for event in client.subscribe(args.job_id):
        if event is None:
            if time.monotonic() >= deadline:
                print(f"error: job {args.job_id} still not terminal after "
                      f"{args.timeout:.0f}s", file=sys.stderr)
                return 1
            continue
        if "snapshot" in event:
            continue
        if event.get("job_id") not in (None, args.job_id):
            continue
        line = _fmt_feed_event(event)
        if line is not None:
            print(line, flush=True)
        if (event.get("event") == "job_state"
                and event.get("job_id") == args.job_id
                and event.get("state") in ("done", "failed")):
            break
        if time.monotonic() >= deadline:
            print(f"error: job {args.job_id} still not terminal after "
                  f"{args.timeout:.0f}s", file=sys.stderr)
            return 1
    # Feed saw the terminal transition (or ended under drain): the
    # result op is the authoritative close-out either way.
    view = client.result(args.job_id)
    if not view.get("ok") or view.get("state") not in ("done", "failed"):
        print(f"error: feed ended with job {args.job_id} still "
              f"{view.get('state', '?')!r}", file=sys.stderr)
        return 1
    print(f"{args.job_id}: {view['state']}")
    return _job_exit(view)


def _export_trace(path: str) -> None:
    """Write the recorded spans of this process to ``path``.

    JSONL when the suffix says so, Chrome trace-event JSON otherwise.
    Runs in a ``finally`` so quarantined (exit-3) runs still get their
    truncated-but-valid trace.
    """
    from repro.obs.export import write_chrome_trace, write_jsonl

    roots = obs_trace.trace_roots()
    if Path(path).suffix == ".jsonl":
        write_jsonl(path, roots)
    else:
        write_chrome_trace(path, roots)
    print(f"wrote trace ({len(roots)} root span(s)) to {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="heterogeneous M3D IC flow reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_config=True, with_period=True):
        p.add_argument("design", choices=DESIGN_NAMES)
        if with_config:
            p.add_argument("--config", default="3D_HET", choices=CONFIG_NAMES)
        if with_period:
            p.add_argument("--period", type=float, default=None,
                           help="clock period in ns")
        p.add_argument("--scale", type=float, default=0.4)
        p.add_argument("--seed", type=int, default=0)

    def add_trace(p):
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="record spans for the whole command and write "
                            "them to PATH (Chrome trace-event JSON, or "
                            "JSONL when PATH ends in .jsonl)")

    def add_check(p):
        p.add_argument("--check", default=None,
                       choices=("off", "warn", "repair", "strict"),
                       help="stage-boundary integrity contract mode for "
                            "the whole command (sets $REPRO_CHECK; "
                            "workers inherit it)")

    p_flow = sub.add_parser("flow", help="run one configuration")
    add_common(p_flow)
    add_trace(p_flow)
    add_check(p_flow)
    p_flow.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="write a checksummed design checkpoint after "
                             "each flow stage into DIR")
    p_flow.add_argument("--from-stage", metavar="STAGE", default=None,
                        help="resume from the newest valid checkpoint "
                             "before STAGE (requires --checkpoint-dir)")
    p_flow.set_defaults(func=_cmd_flow)

    def add_resilience(p):
        p.add_argument("--keep-going", action="store_true",
                       help="quarantine failing cells and finish the rest "
                            "(exit status 3 when any cell failed)")
        p.add_argument("--max-retries", type=int, default=None,
                       help="retries per transient failure (default 2)")
        p.add_argument("--timeout", type=float, default=None,
                       help="wall-clock timeout in seconds per job, from "
                            "dispatch (parallel path only)")
        p.add_argument("--resume", action="store_true",
                       help="resume an interrupted run from its manifest; "
                            "completed cells are never rerun")

    p_matrix = sub.add_parser("matrix", help="run all five configurations")
    add_common(p_matrix, with_config=False)
    p_matrix.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default $REPRO_JOBS or 1)")
    p_matrix.add_argument("--stats", action="store_true",
                          help="print cache/flow telemetry after the run")
    add_resilience(p_matrix)
    add_trace(p_matrix)
    add_check(p_matrix)
    p_matrix.set_defaults(func=_cmd_matrix)

    p_explore = sub.add_parser(
        "explore",
        help="Pareto design-space exploration over the hetero-3D lattice",
    )
    add_common(p_explore, with_config=False, with_period=False)
    p_explore.add_argument("--jobs", type=int, default=None,
                           help="worker processes (default 1)")
    p_explore.add_argument("--objectives", default="pdp_pj:min,ppc:max",
                           metavar="M:SENSE,...",
                           help="comma-separated metric:min|max pairs "
                                "(default pdp_pj:min,ppc:max)")
    p_explore.add_argument("--slow-tracks", type=int, nargs="+", default=None,
                           metavar="T", help="slow-die track heights")
    p_explore.add_argument("--slow-vdd", type=float, nargs="+", default=None,
                           metavar="V", help="slow-die supplies in volts")
    p_explore.add_argument("--tier-caps", type=float, nargs="+", default=None,
                           metavar="CAP",
                           help="timing-pinning area caps (0.20-0.30)")
    p_explore.add_argument("--fm-tols", type=float, nargs="+", default=None,
                           metavar="TOL", help="FM balance tolerances")
    p_explore.add_argument("--no-prune", action="store_true",
                           help="disable dominance pruning")
    p_explore.add_argument("--no-reuse", action="store_true",
                           help="disable stage-prefix reuse")
    p_explore.add_argument("--no-warm", action="store_true",
                           help="disable warm-started period searches")
    p_explore.add_argument("--report", action="store_true",
                           help="print the stored run's Pareto report "
                                "without evaluating anything")
    p_explore.add_argument("--json", metavar="PATH", default=None,
                           help="also write the full report as JSON to PATH")
    p_explore.add_argument("--stats", action="store_true",
                           help="print cache/flow telemetry after the run")
    add_resilience(p_explore)
    add_trace(p_explore)
    add_check(p_explore)
    p_explore.set_defaults(func=_cmd_explore)

    p_sweep = sub.add_parser("sweep", help="find the 12T 2-D max frequency")
    add_common(p_sweep, with_config=False, with_period=False)
    add_trace(p_sweep)
    add_check(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_export = sub.add_parser("export", help="write Verilog/DEF/Liberty")
    add_common(p_export)
    p_export.add_argument("--output", default="out")
    p_export.set_defaults(func=_cmd_export)

    p_tables = sub.add_parser("tables", help="print the cheap paper tables")
    p_tables.set_defaults(func=_cmd_tables)

    p_report = sub.add_parser(
        "report", help="run the full matrix and write a markdown report"
    )
    p_report.add_argument("--scale", type=float, default=0.5)
    p_report.add_argument("--seed", type=int, default=1)
    p_report.add_argument("--output", default="paper_tables.md")
    p_report.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default $REPRO_JOBS or 1)")
    add_resilience(p_report)
    add_trace(p_report)
    add_check(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached entry")
    p_cache.set_defaults(func=_cmd_cache)

    p_trace = sub.add_parser(
        "trace", help="pretty-print a recorded trace file"
    )
    p_trace.add_argument("file", help="trace file (Chrome JSON or JSONL)")
    p_trace.add_argument("--depth", type=int, default=None,
                         help="limit the tree to this many levels")
    p_trace.add_argument("--no-metrics", action="store_true",
                         help="omit per-span QoR metric lines")
    p_trace.add_argument("--validate", action="store_true",
                         help="schema-check a Chrome trace-event file "
                              "instead of printing it (exit 1 on problems)")
    p_trace.set_defaults(func=_cmd_trace)

    p_profile = sub.add_parser(
        "profile", help="rank the hottest flow stages of a trace"
    )
    p_profile.add_argument("file", help="trace file (Chrome JSON or JSONL)")
    p_profile.add_argument("--top", type=int, default=5,
                           help="number of stages to print (default 5)")
    p_profile.set_defaults(func=_cmd_profile)

    p_check = sub.add_parser(
        "check", help="validate a saved checkpoint or FlowResult file"
    )
    p_check.add_argument("file", help="stage checkpoint or FlowResult JSON")
    p_check.set_defaults(func=_cmd_check)

    def add_socket(p):
        p.add_argument("--socket", default=None,
                       help="daemon Unix socket (default: "
                            "$REPRO_SERVE_DIR/serve.sock)")

    p_serve = sub.add_parser(
        "serve", help="run the crash-safe evaluation daemon"
    )
    add_socket(p_serve)
    p_serve.add_argument("--state-dir", default=None,
                         help="journal/socket/pidfile directory "
                              "(default $REPRO_SERVE_DIR or <cache>/serve)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="worker processes (default $REPRO_SERVE_WORKERS"
                              " or 2)")
    p_serve.add_argument("--max-workers", type=int, default=None,
                         help="autoscale ceiling; above --workers enables "
                              "scaling under backlog pressure (default "
                              "$REPRO_SERVE_MAX_WORKERS or --workers)")
    p_serve.add_argument("--queue-max", type=int, default=None,
                         help="pending-job high-water mark before submits "
                              "are rejected busy (default 64)")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         help="per-job hang timeout in seconds; 0 disables "
                              "(default 600)")
    p_serve.add_argument("--drain-timeout", type=float, default=None,
                         help="seconds in-flight jobs get to finish on "
                              "SIGTERM/SIGINT (default 30)")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser("submit", help="send a job to the daemon")
    p_submit.add_argument("design", nargs="?", default=None,
                          choices=DESIGN_NAMES)
    p_submit.add_argument("--config", default="3D_HET", choices=CONFIG_NAMES)
    p_submit.add_argument("--matrix", action="store_true",
                          help="submit the full five-configuration matrix "
                               "of DESIGN instead of one flow")
    p_submit.add_argument("--sweep", action="store_true",
                          help="submit a max-frequency period sweep")
    p_submit.add_argument("--probe", metavar="NONCE", default=None,
                          help="submit a cheap health-check probe instead "
                               "of real work")
    p_submit.add_argument("--probe-seconds", type=float, default=0.0,
                          help="probe sleep time (default 0)")
    p_submit.add_argument("--period", type=float, default=None,
                          help="clock period in ns (flow: the cell's "
                               "period; matrix: pins the design period)")
    p_submit.add_argument("--scale", type=float, default=0.4)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--priority", type=int, default=0,
                          help="lower runs sooner (default 0)")
    p_submit.add_argument("--deadline", type=float, default=0.0,
                          help="fail the job as DeadlineExceeded if still "
                               "pending after this many seconds (0 = none)")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job finishes and print its "
                               "result (exit 3 when it failed)")
    p_submit.add_argument("--wait-timeout", type=float, default=3600.0,
                          help="--wait deadline in seconds (default 3600)")
    add_socket(p_submit)
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="show one job, or the daemon stats"
    )
    p_status.add_argument("job_id", nargs="?", default=None)
    add_socket(p_status)
    p_status.set_defaults(func=_cmd_status)

    p_result = sub.add_parser("result", help="fetch a job's result")
    p_result.add_argument("job_id")
    p_result.add_argument("--wait", action="store_true",
                          help="poll until the job reaches done/failed")
    p_result.add_argument("--wait-timeout", type=float, default=3600.0,
                          help="--wait deadline in seconds (default 3600)")
    p_result.add_argument("--trace", dest="job_trace", metavar="PATH",
                          default=None,
                          help="also fetch the job's live-stitched span "
                               "tree (valid mid-run) and write it to PATH "
                               "(Chrome JSON, .jsonl for JSONL, '-' to "
                               "print the ASCII tree)")
    add_socket(p_result)
    p_result.set_defaults(func=_cmd_result)

    p_metrics = sub.add_parser(
        "metrics", help="scrape the daemon's metrics registry"
    )
    p_metrics.add_argument("--json", action="store_true",
                           help="print the raw registry snapshot instead "
                                "of Prometheus text exposition")
    p_metrics.add_argument("--prom", action="store_true",
                           help="Prometheus text exposition (the default)")
    add_socket(p_metrics)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_top = sub.add_parser(
        "top", help="live ASCII dashboard over the daemon's event feed"
    )
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between dashboard frames (default 2)")
    p_top.add_argument("--duration", type=float, default=None,
                       help="stop after this many seconds (default: until "
                            "the feed ends or Ctrl-C)")
    p_top.add_argument("--once", action="store_true",
                       help="print one frame once the backlog settles, "
                            "then exit")
    add_socket(p_top)
    p_top.set_defaults(func=_cmd_top)

    p_watch = sub.add_parser(
        "watch", help="tail one job's feed events until done/failed"
    )
    p_watch.add_argument("job_id")
    p_watch.add_argument("--timeout", type=float, default=3600.0,
                         help="give up after this many seconds (default "
                              "3600; exit 1)")
    add_socket(p_watch)
    p_watch.set_defaults(func=_cmd_watch)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    init_from_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        # Setting the env var (not just the in-process flag) is what lets
        # pool workers inherit the tracing mode and ship subtrees back.
        os.environ[obs_trace.ENV_TRACE] = "1"
        obs_trace.reset_trace(from_env=True)
    check_mode = getattr(args, "check", None)
    if check_mode:
        # Same pattern as --trace: the env var is what reaches the pool
        # workers, and the flows read it at every stage boundary.
        from repro.integrity import ENV_CHECK

        os.environ[ENV_CHECK] = check_mode
    try:
        if getattr(args, "command", None) == "flow" and args.period is None:
            args.period = find_target_period(
                args.design, scale=args.scale, seed=args.seed
            )
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace_path:
            _export_trace(trace_path)


if __name__ == "__main__":
    sys.exit(main())
