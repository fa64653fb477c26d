"""Incremental-placement speedup guard: the optimizer's edit->analyze loop.

One microbench compares :class:`PlacementSession` against the same
session with the ``REPRO_PLACE=full`` kill switch (a from-scratch
``legalize`` + HPWL + ``analyze_congestion`` per query, through
identical code paths): one local resize, then re-legalize and re-query
HPWL and the congestion map -- the cycle the sizing/cloning/ECO loops
run per move.  A touched cell dirties a handful of rows and nets while
the full side repacks every row and replays every net, so the
incremental side must win by at least 2x.

Measurements land in ``bench-results/BENCH_place.json`` (gitignored).

Runs under ``benchmarks/`` only, never in the tier-1 suite.
"""

from __future__ import annotations

import os
import time

from conftest import emit, record_bench

from repro.liberty.presets import make_library_pair
from repro.netlist.generators import generate_netlist
from repro.place.floorplan import build_floorplan
from repro.place.incremental import PlacementSession
from repro.place.quadratic import global_place

SCALE = 0.3
SEED = 3
OPT_ROUNDS = 30
MIN_OPT_SPEEDUP = 2.0

_LIB12, _LIB9 = make_library_pair()
_LIBS = {_LIB12.name: _LIB12, _LIB9.name: _LIB9}


def _fresh():
    nl = generate_netlist("aes", _LIB12, scale=SCALE, seed=SEED)
    for name in sorted(nl.instances)[::2]:
        inst = nl.instances[name]
        if inst.cell.is_macro:
            continue
        nl.rebind(name, _LIB9.equivalent_of(inst.cell))
        inst.tier = 1
    tier_libs = {0: _LIB12, 1: _LIB9}
    fp = build_floorplan(nl, tier_libs, utilization=0.7)
    global_place(nl, fp)
    return nl, fp, tier_libs


def _resize_round(nl, session, round_idx: int) -> None:
    """One deterministic local edit with the flow's touch call."""
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
    session.dirty_cell(inst.name)


def _opt_loop(force_full: bool) -> tuple[float, PlacementSession]:
    nl, fp, tier_libs = _fresh()
    old = os.environ.pop("REPRO_PLACE", None)
    if force_full:
        os.environ["REPRO_PLACE"] = "full"
    try:
        session = PlacementSession(nl, fp, tier_libs)
        session.legalize_all()  # cold build outside the clock
        session.hpwl_um()
        session.congestion()
        t0 = time.perf_counter()
        for r in range(OPT_ROUNDS):
            _resize_round(nl, session, r)
            session.legalize_all()
            session.hpwl_um()
            session.congestion()
        elapsed = time.perf_counter() - t0
    finally:
        if old is not None:
            os.environ["REPRO_PLACE"] = old
        else:
            os.environ.pop("REPRO_PLACE", None)
    return elapsed, session


def _update_bench(section: str, payload: dict) -> None:
    record_bench("BENCH_place.json", section, payload,
                 netlist={"name": "aes", "scale": SCALE, "seed": SEED})


def test_opt_loop_speedup():
    full_s, _ = _opt_loop(force_full=True)
    inc_s, session = _opt_loop(force_full=False)
    speedup = full_s / inc_s
    stats = session.stats
    rows_fraction = stats.rows_repacked / max(1, stats.rows_total)
    _update_bench(
        "opt_loop",
        {
            "rounds": OPT_ROUNDS,
            "full_s": round(full_s, 4),
            "incremental_s": round(inc_s, 4),
            "speedup": round(speedup, 2),
            "rows_repacked_fraction": round(rows_fraction, 4),
            "nets_refreshed": stats.nets_refreshed,
            "incremental_runs": stats.incremental_runs,
            "full_runs": stats.full_runs,
        },
    )
    emit(
        "incremental placement, opt loop (aes, scale %.2f, %d rounds)"
        % (SCALE, OPT_ROUNDS),
        f"full        {full_s * 1e3:8.1f} ms\n"
        f"incremental {inc_s * 1e3:8.1f} ms\n"
        f"speedup     {speedup:.2f}x (guard >= {MIN_OPT_SPEEDUP:.0f}x)\n"
        f"rows        {100 * rows_fraction:.1f}% repacked/legalize",
    )
    assert stats.incremental_runs > 0, "edits never took the incremental path"
    assert speedup >= MIN_OPT_SPEEDUP, (
        f"opt-loop speedup {speedup:.2f}x below {MIN_OPT_SPEEDUP:.0f}x guard"
    )
