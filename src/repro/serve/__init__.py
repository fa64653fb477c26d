"""Crash-safe flow-as-a-service: daemon, journal, queue, worker pool.

``repro serve`` runs the evaluation engine as a long-lived daemon
behind a Unix socket (see :mod:`repro.serve.daemon`); ``repro submit``
/ ``status`` / ``result`` are its clients.  The package is organised by
failure domain:

- :mod:`repro.serve.journal` -- the write-ahead job journal (checksummed
  lines, fsync before acknowledgment, truncation-tolerant replay,
  atomic compaction);
- :mod:`repro.serve.queue` -- the in-memory priority queue with
  single-flight dedup, restored purely from journal records;
- :mod:`repro.serve.supervisor` -- the worker pool (heartbeats, hang
  watchdog, restart budgets, orphan-proof workers);
- :mod:`repro.serve.daemon` -- the socket front end, admission control
  and graceful drain, tying the three together under one lock;
- :mod:`repro.serve.protocol` / :mod:`repro.serve.client` -- the
  JSON-lines wire protocol and the reconnecting client.
"""

from repro.serve.client import ServeClient, request
from repro.serve.daemon import ServeConfig, ServerCore, serve
from repro.serve.journal import Journal, JournalError, replay_file, verify_line
from repro.serve.protocol import (
    KINDS,
    ProtocolError,
    job_key,
    normalize_spec,
)
from repro.serve.queue import Job, JobQueue, QueueFull
from repro.serve.supervisor import Supervisor

__all__ = [
    "Job",
    "JobQueue",
    "Journal",
    "JournalError",
    "KINDS",
    "ProtocolError",
    "QueueFull",
    "ServeClient",
    "ServeConfig",
    "ServerCore",
    "Supervisor",
    "job_key",
    "normalize_spec",
    "replay_file",
    "request",
    "serve",
    "verify_line",
]
