"""Persistent, content-addressed result cache for the evaluation matrix.

Flow runs are seconds-to-minutes, and every pytest session, CLI call and
example script used to pay that cost from scratch.  This module stores
two kinds of entries as JSON files on disk so a *second* process warm
starts in milliseconds:

- ``result`` entries: one :class:`~repro.flow.report.FlowResult` per
  matrix cell, keyed by design/config/scale/seed/period (and the flow's
  keyword overrides, when cacheable);
- ``period`` entries: the per-design 12-track max-frequency search
  outcome, keyed by design/scale/seed/iterations;
- ``manifest`` entries: one per matrix run shape
  (designs/configs/scale/seed), recording target periods, completed
  cells and quarantined failures as the run progresses -- this is what
  makes an interrupted matrix resumable (``repro matrix --resume``).

Entries are content-addressed: the filename is the SHA-256 of the
canonical JSON of the key fields *plus the package version*, so a new
release never reads results computed by old code.  Corrupt or truncated
entries (killed process, disk full) are deleted and treated as misses.

Environment knobs
-----------------
``REPRO_CACHE_DIR``
    Cache directory (default ``~/.cache/repro``).
``REPRO_CACHE``
    Kill switch: set to ``0``, ``off``, ``false`` or ``no`` to disable
    all reads and writes (every lookup misses, nothing is stored).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from pathlib import Path

from repro import __version__
from repro.errors import LockError
from repro.experiments.faults import inject
from repro.flow.report import FlowResult
from repro.log import get_logger

__all__ = [
    "cache_dir",
    "cache_enabled",
    "cache_key",
    "clear_cache",
    "load_manifest",
    "load_payload",
    "load_period",
    "load_result",
    "manifest_key",
    "manifest_lock",
    "store_manifest",
    "store_payload",
    "store_period",
    "store_result",
]

_log = get_logger("cache")

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_SWITCH = "REPRO_CACHE"

_FALSY = {"0", "off", "false", "no"}

#: Seconds :func:`manifest_lock` waits for another holder by default.
LOCK_TIMEOUT_S = 10.0


def cache_enabled() -> bool:
    """Whether the on-disk cache is active (``$REPRO_CACHE`` kill switch)."""
    return os.environ.get(ENV_CACHE_SWITCH, "1").strip().lower() not in _FALSY


def cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def cache_key(kind: str, **fields) -> str:
    """Content address for an entry: SHA-256 of the canonical key JSON.

    ``kind`` separates the entry namespaces (``"result"``/``"period"``),
    and the package version rides along so stale results from older code
    can never be served.
    """
    payload = {"kind": kind, "version": __version__, **fields}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _entry_path(key: str) -> Path:
    return cache_dir() / f"{key}.json"


def load_payload(key: str) -> dict | None:
    """Read one entry; corrupt entries are deleted and read as a miss."""
    if not cache_enabled():
        return None
    path = _entry_path(key)
    try:
        text = path.read_text()
    except OSError:
        return None
    try:
        entry = json.loads(text)
        if not isinstance(entry, dict) or "payload" not in entry:
            raise ValueError("malformed cache entry")
        return entry["payload"]
    except (ValueError, TypeError, KeyError):
        # Truncated write or foreign file: recover by dropping the entry.
        _log.warning("dropping corrupt cache entry %s", path.name)
        try:
            path.unlink()
        except OSError:
            pass
        return None


def store_payload(
    key: str,
    payload: dict,
    *,
    meta: dict | None = None,
    entry_kind: str = "",
) -> None:
    """Write one entry atomically (tmp file + rename); best-effort."""
    if not cache_enabled():
        return
    path = _entry_path(key)
    entry = {"version": __version__, "meta": meta or {}, "payload": payload}
    try:
        with inject("cache_write", entry=entry_kind, key=key, path=str(path)):
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
    except OSError as exc:
        # A read-only or full disk never breaks the run; it just stays cold.
        _log.warning("cache write failed for %s: %s", path.name, exc)


# ----------------------------------------------------------------------
# typed entry points
# ----------------------------------------------------------------------
def result_key(
    design: str,
    config: str,
    *,
    scale: float,
    seed: int,
    period_ns: float,
    extra: dict | None = None,
) -> str:
    """Key of one matrix-cell result."""
    return cache_key(
        "result",
        design=design,
        config=config,
        scale=scale,
        seed=seed,
        period_ns=period_ns,
        extra=extra or {},
    )


def load_result(key: str) -> FlowResult | None:
    """Deserialize a cached :class:`FlowResult`, or ``None`` on a miss."""
    payload = load_payload(key)
    if payload is None:
        return None
    try:
        return FlowResult.from_dict(payload)
    except (TypeError, ValueError, KeyError):
        # Schema drift within one version (dev tree): drop and re-run.
        try:
            _entry_path(key).unlink()
        except OSError:
            pass
        return None


def store_result(key: str, result: FlowResult, *, meta: dict | None = None) -> None:
    """Persist one matrix-cell result."""
    store_payload(key, result.to_dict(), meta=meta, entry_kind="result")


def period_key(design: str, *, scale: float, seed: int, iterations: int) -> str:
    """Key of one per-design target-period search."""
    return cache_key(
        "period", design=design, scale=scale, seed=seed, iterations=iterations
    )


def load_period(key: str) -> float | None:
    """Cached target period in ns, or ``None`` on a miss."""
    payload = load_payload(key)
    if payload is None:
        return None
    value = payload.get("period_ns") if isinstance(payload, dict) else None
    return float(value) if isinstance(value, (int, float)) else None


def store_period(key: str, period_ns: float, *, meta: dict | None = None) -> None:
    """Persist one target-period search outcome."""
    store_payload(key, {"period_ns": period_ns}, meta=meta, entry_kind="period")


def manifest_key(
    designs: tuple[str, ...],
    config_names: tuple[str, ...],
    *,
    scale: float,
    seed: int,
    periods: dict | None = None,
) -> str:
    """Key of one matrix run-manifest (the run's shape, not its data).

    ``periods`` participates only when the caller pinned explicit target
    periods (CLI ``--period``), so a pinned run never aliases the
    default-period manifest.
    """
    return cache_key(
        "manifest",
        designs=list(designs),
        configs=list(config_names),
        scale=scale,
        seed=seed,
        periods=periods or {},
    )


def load_manifest(key: str) -> dict | None:
    """The stored run-manifest payload, or ``None``."""
    payload = load_payload(key)
    return payload if isinstance(payload, dict) else None


def store_manifest(key: str, manifest: dict) -> None:
    """Persist one run-manifest (rewritten as the run progresses)."""
    store_payload(key, manifest, entry_kind="manifest")


@contextlib.contextmanager
def manifest_lock(key: str, *, timeout_s: float = LOCK_TIMEOUT_S):
    """Exclusive advisory lock on one run-manifest (``flock`` based).

    Two processes resuming the same matrix shape would interleave
    manifest rewrites and clobber each other's progress records; the
    serving daemon makes that a real concurrency, not a user error.
    The lock is a kernel ``flock`` on ``<key>.lock`` next to the
    manifest entry, so it evaporates when the holder dies -- including
    ``kill -9`` -- and can never go stale the way pidfiles do.

    Waits ``timeout_s`` (``0`` fails at once) for another process to
    release it, then raises :class:`~repro.errors.LockError` naming the
    lock file.  With the cache disabled there is no shared manifest to
    protect, so the lock degrades to a no-op.
    """
    if not cache_enabled():
        yield
        return
    import fcntl

    path = cache_dir() / f"{key}.lock"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_CREAT | os.O_RDWR)
    deadline = time.monotonic() + max(0.0, timeout_s)
    try:
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise LockError(
                        f"another run holds the manifest lock {path.name}"
                        f" (waited {timeout_s:.1f}s; is a second matrix of"
                        f" the same shape already running?)"
                    ) from None
                time.sleep(0.05)
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            pass
        os.close(fd)


def clear_cache() -> int:
    """Delete every cache entry; returns the number of files removed.

    Covers the flat result/period/manifest entries and the design-space
    explorer's stage-prefix store (``dse_prefix/<key>/NN_stage.json``).
    """
    removed = 0
    root = cache_dir()
    if not root.is_dir():
        return 0
    for path in root.glob("*.json"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    prefix_root = root / "dse_prefix"
    if prefix_root.is_dir():
        for path in prefix_root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for sub in prefix_root.iterdir():
            with contextlib.suppress(OSError):
                sub.rmdir()
        with contextlib.suppress(OSError):
            prefix_root.rmdir()
    return removed
