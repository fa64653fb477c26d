"""Incremental-STA speedup guards: opt-loop edits and period sweeps.

Two microbenches compare :class:`TimingSession` against the same session
with the ``REPRO_STA=full`` kill switch (i.e. a from-scratch ``run_sta``
per query, through identical code paths):

- **opt loop**: the optimizer's edit -> report cycle -- one local resize
  then a full report with cell slacks, repeated over many rounds.  The
  dirty cone is a small fraction of the graph, so the incremental side
  must win by at least 2x.
- **period sweep**: binary-search period probes on a frozen netlist
  (STA only).  Arrivals are period-independent, so the session propagates
  once and each probe is O(endpoints); the guard is 3x.

Both record their measurements in ``bench-results/BENCH_sta.json``
(speedups, wall times, re-propagated node fraction).

Runs under ``benchmarks/`` only, never in the tier-1 suite.
"""

from __future__ import annotations

import os
import time

from conftest import emit, record_bench

from repro.liberty.presets import make_library_pair
from repro.netlist.generators import generate_netlist
from repro.timing.delaycalc import DelayCalculator, FanoutWireModel
from repro.timing.incremental import TimingSession

SCALE = 0.3
SEED = 3
OPT_ROUNDS = 30
SWEEP_PROBES = 12
MIN_OPT_SPEEDUP = 2.0
MIN_SWEEP_SPEEDUP = 3.0

_LIB12, _LIB9 = make_library_pair()
_LIBS = {_LIB12.name: _LIB12, _LIB9.name: _LIB9}


def _fresh():
    nl = generate_netlist("aes", _LIB12, scale=SCALE, seed=SEED)
    calc = DelayCalculator(nl, FanoutWireModel(_LIB12), _LIBS)
    return nl, calc


def _resize_round(nl, calc, round_idx: int) -> None:
    """One deterministic local edit with the flow's invalidation calls."""
    cands = [
        i
        for i in nl.instances.values()
        if not i.cell.is_sequential and not i.cell.is_macro
    ]
    inst = cands[(round_idx * 37) % len(cands)]
    lib = _LIBS[inst.cell.library_name]
    new_cell = lib.upsize(inst.cell) or lib.downsize(inst.cell)
    if new_cell is None:
        return
    nl.rebind(inst.name, new_cell)
    for _pin, net_name in inst.connected_pins():
        calc.invalidate(net_name)


def _opt_loop(force_full: bool) -> tuple[float, TimingSession]:
    nl, calc = _fresh()
    old = os.environ.pop("REPRO_STA", None)
    if force_full:
        os.environ["REPRO_STA"] = "full"
    try:
        session = TimingSession(nl, calc)
        session.report(0.8)  # cold build outside the clock
        t0 = time.perf_counter()
        for r in range(OPT_ROUNDS):
            _resize_round(nl, calc, r)
            session.report(0.8, with_cell_slacks=True)
        elapsed = time.perf_counter() - t0
    finally:
        if old is not None:
            os.environ["REPRO_STA"] = old
        else:
            os.environ.pop("REPRO_STA", None)
    return elapsed, session


def _sweep(force_full: bool) -> float:
    nl, calc = _fresh()
    old = os.environ.pop("REPRO_STA", None)
    if force_full:
        os.environ["REPRO_STA"] = "full"
    try:
        session = TimingSession(nl, calc)
        lo, hi = 0.15, 4.0
        session.report(hi, with_cell_slacks=False)  # cold build off-clock
        t0 = time.perf_counter()
        for _ in range(SWEEP_PROBES):
            mid = 0.5 * (lo + hi)
            report = session.report(mid, with_cell_slacks=False)
            if report.wns_ns >= -0.06 * mid:
                hi = mid
            else:
                lo = mid
        elapsed = time.perf_counter() - t0
    finally:
        if old is not None:
            os.environ["REPRO_STA"] = old
        else:
            os.environ.pop("REPRO_STA", None)
    return elapsed


def _update_bench(section: str, payload: dict) -> None:
    record_bench("BENCH_sta.json", section, payload,
                 netlist={"name": "aes", "scale": SCALE, "seed": SEED})


def test_opt_loop_speedup():
    full_s, _ = _opt_loop(force_full=True)
    inc_s, session = _opt_loop(force_full=False)
    speedup = full_s / inc_s
    stats = session.stats
    _update_bench(
        "opt_loop",
        {
            "rounds": OPT_ROUNDS,
            "full_s": round(full_s, 4),
            "incremental_s": round(inc_s, 4),
            "speedup": round(speedup, 2),
            "propagated_fraction": round(stats.propagated_fraction, 4),
            "incremental_runs": stats.incremental_runs,
            "full_runs": stats.full_runs,
        },
    )
    emit(
        "incremental STA, opt loop (aes, scale %.2f, %d rounds)"
        % (SCALE, OPT_ROUNDS),
        f"full        {full_s * 1e3:8.1f} ms\n"
        f"incremental {inc_s * 1e3:8.1f} ms\n"
        f"speedup     {speedup:.2f}x (guard >= {MIN_OPT_SPEEDUP:.0f}x)\n"
        f"propagated  {100 * stats.propagated_fraction:.1f}% of nodes/report",
    )
    assert stats.incremental_runs > 0, "edits never took the incremental path"
    assert speedup >= MIN_OPT_SPEEDUP, (
        f"opt-loop speedup {speedup:.2f}x below {MIN_OPT_SPEEDUP:.0f}x guard"
    )


def test_period_sweep_speedup():
    full_s = _sweep(force_full=True)
    inc_s = _sweep(force_full=False)
    speedup = full_s / inc_s
    _update_bench(
        "period_sweep",
        {
            "probes": SWEEP_PROBES,
            "full_s": round(full_s, 4),
            "incremental_s": round(inc_s, 4),
            "speedup": round(speedup, 2),
        },
    )
    emit(
        "incremental STA, period sweep (aes, scale %.2f, %d probes)"
        % (SCALE, SWEEP_PROBES),
        f"full        {full_s * 1e3:8.1f} ms\n"
        f"incremental {inc_s * 1e3:8.1f} ms\n"
        f"speedup     {speedup:.2f}x (guard >= {MIN_SWEEP_SPEEDUP:.0f}x)",
    )
    assert speedup >= MIN_SWEEP_SPEEDUP, (
        f"sweep speedup {speedup:.2f}x below {MIN_SWEEP_SPEEDUP:.0f}x guard"
    )
