"""One fresh-process repetition of the ``matrix`` or ``explore`` workload.

Run by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at ``src`` and
private, empty cache and temp directories.  Protocol on stdout: the
line ``ready`` once ``import repro.cli`` and the library build are done
(the parent times set-up from spawn to this line), then one JSON line
with the results.

Both workloads implement fixed netlists in a fixed order, so every run
does the same work and every run's output is checked against its
digest.  On a shared host the run-to-run spread is then the host's
alone, not a mix of host noise and different inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LAYERS, SPAN_OF, Recorder, install  # noqa: E402

#: 0.25 keeps a cold matrix near half a minute on a 2-core host, so
#: every run of the benchmark fits its time budget.
MATRIX_SCALE = 0.25
EXPLORE_DESIGN = "aes"
EXPLORE_SCALE = 0.08
NETLIST_SEED = 1


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _explore_spec():
    from repro.experiments.dse.search import ExploreSpec
    from repro.experiments.dse.space import LatticeSpec

    return ExploreSpec(
        design=EXPLORE_DESIGN,
        scale=EXPLORE_SCALE,
        seed=NETLIST_SEED,
        lattice=LatticeSpec(
            slow_tracks=(8, 9),
            slow_vdd=(0.70, 0.75, 0.81, 0.90),
            tier_caps=(0.20, 0.25, 0.30),
            fm_tolerances=(0.10, 0.15),
        ),
        opt_iterations=2,
        period_steps=17,
    )


def setup(workload: str) -> float:
    """Import the CLI and build the libraries; returns the import time."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - start
    if workload == "matrix":
        from repro.liberty.presets import make_library_pair

        make_library_pair()
    else:
        from repro.experiments.dse.space import generate_lattice

        generate_lattice(_explore_spec().lattice)
    return import_s


def matrix_workload() -> dict:
    from repro.experiments import tables
    from repro.experiments.runner import _SWEEP_BOUNDS, run_matrix

    matrix = run_matrix(
        scale=MATRIX_SCALE, seed=NETLIST_SEED, jobs=1, keep_going=True
    )
    failed = len(matrix.all_failures())
    if failed:
        return {"attempted": 24, "failed": failed, "errors": []}
    errors = []
    for design, period in matrix.target_periods.items():
        lo, hi = _SWEEP_BOUNDS[design]
        if not lo <= period <= hi:
            errors.append(f"{design} period {period} outside [{lo}, {hi}]")
    if len(matrix.results) != 20 or len(matrix.target_periods) != 4:
        errors.append("matrix incomplete")
    digest = _digest({
        "target_periods": matrix.target_periods,
        "table6": tables.table6_hetero_ppac(matrix),
        "table7": tables.table7_deltas(matrix),
        "table8": tables.table8_detailed_analysis(matrix),
    })
    return {"attempted": 24, "failed": 0, "errors": errors, "digest": digest,
            "periods": matrix.target_periods}


def explore_workload() -> dict:
    from repro.experiments.dse.search import explore

    spec = _explore_spec()
    report = explore(spec, jobs=1)
    total = len(report.rows) + len(report.skipped) + len(report.failed)
    errors = []
    if total + len(report.incompatible) != spec.lattice.size:
        errors.append("lattice not fully accounted for")
    if not report.front_ids or not set(report.front_ids) <= set(report.rows):
        errors.append("empty or inconsistent Pareto front")
    return {
        "attempted": total,
        "failed": len(report.failed),
        "errors": errors,
        "digest": hashlib.sha256(report.front_json().encode()).hexdigest(),
    }


def _span_fold(roots) -> tuple[dict, dict]:
    from repro.obs import walk_spans

    counts: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for sp in walk_spans(roots):
        counts[sp.name] = counts.get(sp.name, 0) + 1
        self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.self_s
    return counts, self_s


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("matrix", "explore"), required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_s = setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    unit_layer = "flow.run" if args.workload == "matrix" else "experiments.dse.evaluate"
    recorder = Recorder(attribute_span="dse_flow" if args.trace else None)
    install(recorder, None if args.trace else (unit_layer,))
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing()

    from repro.experiments.telemetry import get_telemetry

    run = matrix_workload if args.workload == "matrix" else explore_workload
    start = time.perf_counter()
    outcome = run()
    wall_s = time.perf_counter() - start
    counts = get_telemetry().snapshot()

    out = {
        "wall_s": wall_s,
        "import_s": import_s,
        "units": list(recorder.latencies[unit_layer]),
        "counts": {
            k: v for k, v in counts.items() if isinstance(v, int)
        },
        **outcome,
    }

    if args.trace:
        from repro.obs import disable_tracing, trace_roots

        disable_tracing()
        span_counts, span_self = _span_fold(trace_roots())
        out["layers"] = {
            layer: {
                "calls": recorder.calls.get(layer, 0),
                "self_s": recorder.self_s.get(layer, 0.0),
                "total_s": recorder.total_s.get(layer, 0.0),
            }
            for layer in LAYERS
        }
        out["sta_full"] = recorder.sta_full
        out["eco"] = [recorder.eco_accepted, recorder.eco_rejected]
        out["cache"] = [recorder.cache_hits, recorder.cache_misses]
        out["search_probes"] = recorder.search_probes
        out["spans"] = {
            name: [span_counts.get(name, 0), span_self.get(name, 0.0)]
            for name in list(SPAN_OF.values()) + ["dse_flow"]
        }
        out["dse_flow_attributed"] = dict(recorder.attributed_s)

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
