"""One in-process memo for the flow steps that several flows share.

The paper implements every netlist in five configurations at one
iso-performance target (Section IV-A2), and the hetero flow's pseudo-3-D
stage runs in the fast technology only (Section III-A1).  So synthesis,
the pseudo-3-D prefix and the three partitioning steps read far less
than a whole flow, and their results are shared exactly across flows.
Each such step stores its result in the memo of the open
:func:`stage_memo` block, under a key that holds exactly what the step
reads:

- **synthesis** (:func:`~repro.flow.synthesis.synthesize`): ``(design,
  id(tier-0 library), scale, seed)`` for the netlist after load sizing
  and DRV buffering, and that key plus the period for the finished
  netlist;
- **partitioning** (:mod:`repro.flow.hetero`): the state key
  ``(design, id(fast library), scale, seed, period, utilization)`` plus
  each step's own inputs -- nothing for the cell slacks, the tier cap
  for the pinned set, the pinned set, slow-side area vector and FM
  tolerance for the tier assignment;
- **the explorer's prefix states** (:mod:`repro.experiments.dse.search`):
  ``("dse_prefix", prefix key)``.

Netlists and designs are stored as structural copies
(:meth:`~repro.netlist.core.Netlist.copy`,
:meth:`~repro.flow.design.Design.copy`) that share only the immutable
cell types and libraries, and every hit hands out a fresh copy with no
calculator and no placement session, so no flow can edit an entry.
Nothing in the memo is serialized.

A library whose ``id()`` a key carries is pinned for the block's life,
so no other object can take over its id while the entry lives.  The
memo is emptied when the block exits.

Who holds a memo:

- the serial loop of :func:`~repro.experiments.runner.run_matrix`, one
  block per design row, so at most one design's entries live at a time
  (a served matrix job runs this loop inside its worker);
- :func:`~repro.experiments.dse.search.explore`, one block per call
  when prefix reuse and the cache are both on.  Its pool workers fork
  inside the block: each keeps a copy of the memo as it was at the
  fork, adds its own entries, and holds it for the pool's life.

Everything else runs cold: a single ``repro flow``, served flow and
sweep jobs, the pool workers of ``run_matrix(jobs > 1)`` (forked
outside any block), and ``repro explore --no-reuse``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

__all__ = ["StageMemo", "current_memo", "memoized", "stage_memo"]


class StageMemo(dict):
    """Step results by key, plus the objects whose ``id()`` keys carry."""

    def __init__(self) -> None:
        super().__init__()
        self.pinned: dict[int, object] = {}

    def put(self, key: tuple, value: object, *pins: object) -> None:
        """Store ``value`` under ``key``, pinning ``pins``."""
        for obj in pins:
            self.pinned[id(obj)] = obj
        self[key] = value

    def clear(self) -> None:
        super().clear()
        self.pinned.clear()


_MEMO: ContextVar[StageMemo | None] = ContextVar("stage_memo", default=None)


@contextmanager
def stage_memo() -> Iterator[StageMemo]:
    """Share step results through a fresh memo for the block's duration."""
    memo = StageMemo()
    token = _MEMO.set(memo)
    try:
        yield memo
    finally:
        _MEMO.reset(token)
        memo.clear()


def current_memo() -> StageMemo | None:
    """The memo of the open :func:`stage_memo` block, or None."""
    return _MEMO.get()


def memoized(
    key: tuple, compute: Callable[[], object], *pins: object
) -> object:
    """The value under ``key``, computed and stored (pinning ``pins``)
    on a miss; outside a :func:`stage_memo` block, ``compute()`` cold."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo.put(key, compute(), *pins)
    return memo[key]
