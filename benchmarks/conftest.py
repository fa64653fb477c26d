"""Shared fixtures for the table/figure regeneration benchmarks.

The 4-netlist x 5-configuration evaluation matrix is expensive (minutes)
cold, so it runs once per session and every benchmark reads from it.
Scale with ``REPRO_SCALE`` (default 0.5); the paper's qualitative shapes
hold from ~0.4 upward.

The matrix engine keeps a persistent on-disk cache (``$REPRO_CACHE_DIR``,
default ``~/.cache/repro``), so a second benchmark session warm-starts in
seconds without running a single flow; set ``REPRO_JOBS=N`` to fan a cold
run out over N worker processes.  A telemetry block (flows run, cache
hits/misses, per-cell wall times) is printed at the end of the session.

The speedup guards record their measurements with :func:`record_bench`
under ``bench-results/`` at the checkout root, which git ignores, so a
test run rewrites no tracked file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.runner import default_scale, run_matrix
from repro.experiments.telemetry import get_telemetry


@pytest.fixture(scope="session")
def matrix():
    """The full evaluation matrix (cached for the whole benchmark run)."""
    return run_matrix(scale=default_scale(), seed=1)


#: Where :func:`record_bench` writes; listed in ``.gitignore``.
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench-results"


def record_bench(name: str, section: str, payload: dict, **shared) -> None:
    """Merge ``payload`` as ``section`` of ``BENCH_DIR / name``, with the
    ``shared`` entries at its top level."""
    path = BENCH_DIR / name
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    data.update(shared)
    BENCH_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def emit(title: str, text: str) -> None:
    """Print a regenerated table under a recognizable banner."""
    print(f"\n===== {title} =====")
    print(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the matrix engine's telemetry after the benchmark run."""
    telemetry = get_telemetry()
    if not (telemetry.flows_run or telemetry.disk_hits or telemetry.memory_hits):
        return
    terminalreporter.write_sep("=", "evaluation-matrix telemetry")
    for line in telemetry.summary().splitlines():
        terminalreporter.write_line(line)
