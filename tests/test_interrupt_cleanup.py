"""Interrupt hygiene: a SIGINT'd or killed matrix must not leak pool workers.

Regression for the orphaned-pool bug: Ctrl-C during a parallel
``run_matrix`` used to kill only the parent, leaving hung pool workers
burning CPU behind it (and holding cells a retry would then double-run).
``Supervisor.drive`` kills its workers on *any* BaseException, workers
die with a ``kill -9``'d parent (pdeathsig), and the flock-based
manifest lock evaporates with the holder.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.errors import LockError
from repro.experiments import cache
from tests.serve_utils import SRC, child_pids, pid_alive, wait_until

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="POSIX-only interrupt test"
)

CONFIGS = ("2D", "3D_HOM")

# Unhandled KeyboardInterrupt exits CPython with code 1, so the script
# converts it to the conventional 128+SIGINT itself -- which also proves
# the interrupt propagated out of run_matrix instead of being swallowed.
SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.experiments.runner import run_matrix

    try:
        run_matrix(
            designs=("aes",),
            config_names={configs!r},
            scale=0.4,
            seed=3,
            jobs=2,
            keep_going=True,
            target_periods={{"aes": 1.1}},
        )
    except KeyboardInterrupt:
        sys.exit(130)
    """
).format(configs=CONFIGS)


def test_sigint_kills_pool_workers_and_releases_manifest_lock(
    tmp_path, monkeypatch
):
    cache_dir = tmp_path / "cache"
    script = tmp_path / "interrupted_matrix.py"
    script.write_text(SCRIPT)
    env = os.environ.copy()
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(cache_dir),
        # Wedge every cell: both pool workers hang inside their flow, so
        # the interrupt arrives mid-round with live, stuck children.
        REPRO_FAULTS="site=cell,kind=hang,seconds=120,times=0",
    )
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        workers = wait_until(
            lambda: [p for p in child_pids(proc.pid) if pid_alive(p)] or None,
            timeout_s=60,
            what="pool workers to spawn",
        )
        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
        out, _ = proc.communicate(timeout=10)
    assert code == 130, f"expected exit 130, got {code}; output:\n{out}"
    # The BaseException handler killed the pool before the parent died.
    wait_until(
        lambda: not any(pid_alive(pid) for pid in workers),
        timeout_s=10,
        what="interrupted pool workers to die",
    )
    # The manifest flock died with its holder: a new run of the same
    # shape can acquire it immediately instead of raising LockError.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    key = cache.manifest_key(
        ("aes",), CONFIGS, scale=0.4, seed=3, periods={"aes": 1.1}
    )
    try:
        with cache.manifest_lock(key, timeout_s=1.0):
            pass
    except LockError:
        pytest.fail("manifest lock leaked past the interrupted run")


def test_kill_9_of_the_parent_takes_its_workers_along(tmp_path, monkeypatch):
    """A ``kill -9`` leaves no handler to run: the workers must die with
    the parent on their own (pdeathsig), or they keep burning CPU and
    keep the forked manifest flock held against every later run."""
    cache_dir = tmp_path / "cache"
    script = tmp_path / "killed_matrix.py"
    script.write_text(SCRIPT)
    env = os.environ.copy()
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_FAULTS="site=cell,kind=hang,seconds=120,times=0",
    )
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )

    def both_workers():
        alive = [pid for pid in child_pids(proc.pid) if pid_alive(pid)]
        return alive if len(alive) >= 2 else None

    workers: list[int] = []
    try:
        workers = wait_until(
            both_workers, timeout_s=60, what="both pool workers to spawn"
        )
        proc.kill()
        proc.wait(timeout=30)
        wait_until(
            lambda: not any(pid_alive(pid) for pid in workers),
            timeout_s=10,
            what="the killed run's workers to die",
        )
    finally:
        if proc.poll() is None:
            proc.kill()
        for pid in workers:  # never leak a hung worker past the test
            if pid_alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.communicate(timeout=10)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    key = cache.manifest_key(
        ("aes",), CONFIGS, scale=0.4, seed=3, periods={"aes": 1.1}
    )
    try:
        with cache.manifest_lock(key, timeout_s=1.0):
            pass
    except LockError:
        pytest.fail("manifest lock outlived the killed run")
