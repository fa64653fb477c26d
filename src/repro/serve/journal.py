"""Write-ahead job journal: append-only, checksummed, fsync'd records.

The daemon's whole crash-safety story rests on one file.  Every queue
transition -- ``submit``, ``claim``, ``requeue``, ``complete``,
``fail``, ``evict`` -- is appended to the journal and **fsync'd before
the transition is acknowledged** (to a client, or acted on by the
worker pool).  The in-memory queue is a pure function of the journal by
construction: the daemon moves a job only by applying the record it
has just appended (:meth:`repro.serve.queue.JobQueue.apply`, which
reads no clock), and restart replays the file through the same
``apply``.  So a ``kill -9`` at any instant loses at most the record
being written -- never an acknowledged one.

Record framing
--------------
One record per line::

    <sha256(body)[:16]> <canonical-JSON body>\\n

The checksum covers the exact body bytes, so a torn write (power loss,
``kill -9`` mid-``write``) leaves a tail that fails verification.
:func:`replay_file` reads records until the first unverifiable line and
reports where the valid prefix ends; :meth:`Journal.open` then truncates
the file back to that point before appending again.  A record is only
considered durable once its full line (including the newline) hit the
disk -- exactly the records ``replay_file`` returns.

Records are plain dicts with at least ``type`` and ``seq`` (a
monotonically increasing integer; appends continue after the replayed
maximum).  Unknown record types are preserved by replay and ignored by
the queue reducer, so old daemons can read journals written by newer
ones.

Compaction
----------
The journal only grows, so :meth:`Journal.compact` rewrites it from a
caller-supplied record list (typically the live queue re-serialized:
one ``submit`` plus the terminal record per job) into a temporary file,
fsyncs it, and atomically renames it over the old journal.  A crash
during compaction leaves either the old or the new journal -- never a
mix.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.errors import ServeError
from repro.experiments.faults import inject
from repro.log import get_logger

__all__ = ["Journal", "JournalError", "replay_file", "verify_line"]

_log = get_logger("serve.journal")

#: Hex digits of SHA-256 prefixing each record line.
_CHECKSUM_LEN = 16

#: Refuse to journal absurd records (a corrupted caller, not a queue).
_MAX_RECORD_BYTES = 32 * 1024 * 1024


class JournalError(ServeError):
    """The journal could not be written (its *reads* never raise)."""

    errno: int | None = None  # underlying OS errno, when one caused this


def _frame(record: dict) -> bytes:
    """Serialize one record to its checksummed line."""
    body = json.dumps(
        record, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")
    digest = hashlib.sha256(body).hexdigest()[:_CHECKSUM_LEN].encode("ascii")
    return digest + b" " + body + b"\n"


def verify_line(line: bytes) -> dict | None:
    """Decode one journal line; ``None`` when torn, truncated or tampered."""
    if b" " not in line:
        return None
    digest, body = line.split(b" ", 1)
    if len(digest) != _CHECKSUM_LEN:
        return None
    if hashlib.sha256(body).hexdigest()[:_CHECKSUM_LEN].encode("ascii") != digest:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    if not isinstance(record, dict) or not isinstance(record.get("type"), str):
        return None
    return record


def replay_file(path: Path) -> tuple[list[dict], int, int]:
    """Read every durable record of a journal file.

    Returns ``(records, valid_bytes, dropped_bytes)``: the records whose
    full line verified, the byte offset where the valid prefix ends, and
    how many trailing bytes failed verification.  Replay stops at the
    *first* bad line -- in an append-only, fsync-per-record file,
    anything after a torn record was never acknowledged.  A missing file
    is an empty journal, never an error.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0, 0
    records: list[dict] = []
    offset = 0
    while offset < len(data):
        end = data.find(b"\n", offset)
        if end < 0:
            break  # no newline: the final write was torn
        record = verify_line(data[offset:end])
        if record is None:
            break
        records.append(record)
        offset = end + 1
    dropped = len(data) - offset
    if dropped:
        _log.warning(
            "journal %s: dropping %d unverifiable trailing byte(s) after"
            " %d durable record(s)", path.name, dropped, len(records),
        )
    return records, offset, dropped


class Journal:
    """One append-only journal file, opened for the daemon's lifetime.

    ``registry``, when given, receives a ``repro_journal_fsync_seconds``
    histogram observation per append -- fsync latency is the floor under
    every acknowledgment the daemon sends, so it is the first thing to
    look at when submit latency drifts.
    """

    def __init__(self, path: str | Path, registry=None):
        self.path = Path(path)
        self._fh = None
        self._seq = 0
        self._records_in_file = 0
        self._fsync_hist = None
        if registry is not None:
            self._fsync_hist = registry.histogram(
                "repro_journal_fsync_seconds",
                "Wall time of one durable journal append (write+flush+fsync)",
            )

    @property
    def records_in_file(self) -> int:
        """How many durable records the file holds right now.

        Replay count plus appends since, reset by compaction -- the
        denominator of the online-compaction live-fraction trigger.
        """
        return self._records_in_file

    @property
    def seq(self) -> int:
        """The sequence number the *next* appended record will carry."""
        return self._seq

    def open(self) -> list[dict]:
        """Replay the existing file, truncate any torn tail, open to append.

        Returns the durable records (possibly empty).  After this call
        :meth:`append` is usable and sequence numbers continue after the
        replayed maximum.
        """
        records, valid_bytes, dropped = replay_file(self.path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "ab")
        try:
            if dropped:
                fh.truncate(valid_bytes)
                fh.seek(0, os.SEEK_END)
        except OSError as exc:
            fh.close()
            raise JournalError(
                f"cannot truncate torn journal tail of {self.path}: {exc}"
            ) from exc
        self._fh = fh
        self._seq = 1 + max(
            (r["seq"] for r in records if isinstance(r.get("seq"), int)),
            default=-1,
        )
        self._records_in_file = len(records)
        return records

    def append(self, rtype: str, **fields) -> dict:
        """Durably append one record; returns it (with ``seq`` assigned).

        The record is on disk (written, flushed, fsync'd) when this
        returns -- callers acknowledge or act only after that.  Raises
        :class:`JournalError` when durability cannot be guaranteed; the
        in-memory state must not transition in that case.
        """
        if self._fh is None:
            raise JournalError("journal is not open")
        record = {"type": rtype, "seq": self._seq, **fields}
        line = _frame(record)
        if len(line) > _MAX_RECORD_BYTES:
            raise JournalError(
                f"journal record of {len(line)} bytes exceeds the"
                f" {_MAX_RECORD_BYTES}-byte limit"
            )
        started = time.perf_counter()
        try:
            with inject("journal_write", type=rtype, path=str(self.path)):
                self._fh.write(line)
                self._fh.flush()
                os.fsync(self._fh.fileno())
        except OSError as exc:
            error = JournalError(
                f"journal append failed for {self.path}: {exc}"
            )
            # Preserve the errno so the daemon can tell disk exhaustion
            # (ENOSPC -> degraded mode) from other write failures.
            error.errno = exc.errno
            raise error from exc
        if self._fsync_hist is not None:
            self._fsync_hist.observe(time.perf_counter() - started)
        self._seq += 1
        self._records_in_file += 1
        return record

    def compact(self, records: list[dict]) -> None:
        """Atomically replace the journal's contents with ``records``.

        Records are re-framed (fresh checksums) into ``<path>.compact``,
        fsync'd, and renamed over the live file; the directory entry is
        fsync'd too so the rename itself is durable.  The append handle
        is re-opened on the new file.  Sequence numbering continues --
        compaction never reuses a seq.

        Crash-safe at any instant: the ``compaction_crash`` fault site
        fires once with ``phase=written`` (tmp durable, rename not yet
        issued -- a crash leaves the *old* journal plus a stray tmp) and
        once with ``phase=replaced`` (rename durable -- a crash leaves
        the *new* journal).  Either way replay sees one valid file.
        """
        was_open = self._fh is not None
        if was_open:
            self._fh.close()
            self._fh = None
        tmp = self.path.with_suffix(".compact")
        try:
            with open(tmp, "wb") as fh:
                for record in records:
                    fh.write(_frame(record))
                fh.flush()
                os.fsync(fh.fileno())
            with inject(
                "compaction_crash", phase="written", path=str(self.path)
            ):
                os.replace(tmp, self.path)
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            with inject(
                "compaction_crash", phase="replaced", path=str(self.path)
            ):
                self._records_in_file = len(records)
        except OSError as exc:
            raise JournalError(
                f"journal compaction failed for {self.path}: {exc}"
            ) from exc
        finally:
            tmp.unlink(missing_ok=True)
            if was_open:
                self._fh = open(self.path, "ab")

    def close(self) -> None:
        """Flush and close the append handle (replay still works)."""
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError:
                pass
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
