"""ECO-based repartitioning (Section III-C, Algorithm 1).

Timing-based partitioning decides tiers from *pseudo-3-D* timing, which
is measured in a single technology and therefore cannot be fully accurate
for the heterogeneous design.  After the 3-D database exists and real
per-tier timing is available, Algorithm 1 sweeps the critical paths,
finds cells that are too slow for the slow die, and ECO-moves them to the
fast die -- accepting each batch only when WNS/TNS actually improve, and
tightening the delay threshold (``d_k *= alpha``) when a batch had to be
undone.

The engine is decoupled from the flow through three callbacks (analyze,
move, undo), so the unit tests drive it against a scripted fake timer and
the flow drives it against real STA + remap + legalize.  An analysis
traces its critical paths only on request, and the engine requests them
only for the states it keeps: the initial one and an accepted batch's --
never a rejected batch's.  An undo restores the kept state exactly (the
flow's token is the batch's edit journal), so the paths traced from that
state still hold, unless ``settle`` re-legalized it after they were
traced: an accepted batch is traced before it settles.  Only then does
the state an undo restores get analysed and traced again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs import add_span_event, emit_metric, span
from repro.timing.sta import CriticalPath

__all__ = ["RepartitionConfig", "RepartitionResult", "repartition_eco"]


@dataclass(frozen=True)
class RepartitionConfig:
    """Tunables of Algorithm 1 (names follow the paper's pseudocode)."""

    d0: float = 1.1  # initial delay-threshold multiplier (d_k)
    n_paths: int = 60  # paths considered per loop (n_p)
    unbalance_max: float = 0.50  # area unbalance budget (unbalance_th)
    crit_threshold: float = 0.05  # minimum slow-die share of critical cells
    wns_improve_min_ns: float = 0.0  # W_th: required WNS improvement
    tns_improve_min_ns: float = 0.0  # T_th: required TNS improvement
    alpha: float = 0.7  # threshold decay on rejected batches
    max_iterations: int = 12
    min_dk: float = 0.3  # give up once the threshold collapses
    wns_target_ns: float = 0.0  # skip/stop once WNS reaches this


@dataclass
class RepartitionResult:
    """What the ECO loop did."""

    iterations: int = 0
    batches_accepted: int = 0
    batches_rejected: int = 0
    cells_moved: list[str] = field(default_factory=list)
    wns_before_ns: float = 0.0
    wns_after_ns: float = 0.0
    tns_before_ns: float = 0.0
    tns_after_ns: float = 0.0
    stop_reason: str = ""


def _area_unbalance(
    slow_area: float, fast_area: float
) -> float:
    total = slow_area + fast_area
    if total <= 0:
        return 0.0
    return abs(fast_area - slow_area) / total


#: ``analyze()``'s result: WNS, TNS, and a callable tracing the top
#: critical paths of the analysed state.
Analysis = tuple[float, float, Callable[[], list[CriticalPath]]]


def repartition_eco(
    analyze: Callable[[], Analysis],
    move_to_fast: Callable[[list[str]], object],
    undo: Callable[[object], None],
    tier_areas: Callable[[], tuple[float, float]],
    slow_tier: int,
    config: RepartitionConfig = RepartitionConfig(),
    settle: Callable[[], None] | None = None,
) -> RepartitionResult:
    """Run Algorithm 1.

    Parameters
    ----------
    analyze:
        Returns ``(wns, tns, trace)`` for the current design state;
        ``trace()`` returns that state's top critical paths, whose steps
        carry cell delays and tiers.  The engine calls it before the
        next edit, and only for a state it keeps.
    move_to_fast:
        ECO-moves the named cells to the fast die (remap + place); returns
        an undo token (the flow's is the batch's
        :class:`~repro.flow.design.EditJournal`).
    undo:
        Reverts one ECO batch from its token (the flow passes
        ``EditJournal.restore``).
    tier_areas:
        Returns ``(slow_area, fast_area)`` for the unbalance check.
    slow_tier:
        Tier index of the slow die (1/top in the paper's setup).
    settle:
        Optional callback invoked after each *accepted* batch, once the
        moves are final -- the flow uses it to incrementally re-legalize
        the moved cells and refresh their timing, so later iterations
        analyze real positions instead of the pre-move ones.
    """
    with span("repartition_eco", slow_tier=slow_tier):
        result = _repartition_eco(
            analyze, move_to_fast, undo, tier_areas, slow_tier, config,
            settle,
        )
        emit_metric("eco_iterations", result.iterations)
        emit_metric("eco_cells_moved", len(result.cells_moved))
        emit_metric("eco_batches_accepted", result.batches_accepted)
        emit_metric("eco_batches_rejected", result.batches_rejected)
        emit_metric(
            "eco_wns_gain_ns", result.wns_after_ns - result.wns_before_ns
        )
    return result


def _repartition_eco(
    analyze: Callable[[], Analysis],
    move_to_fast: Callable[[list[str]], object],
    undo: Callable[[object], None],
    tier_areas: Callable[[], tuple[float, float]],
    slow_tier: int,
    config: RepartitionConfig,
    settle: Callable[[], None] | None = None,
) -> RepartitionResult:
    result = RepartitionResult()
    d_k = config.d0
    wns, tns, trace = analyze()
    paths = trace()
    # True once settle() has moved the state ``paths`` were traced from.
    settled = False
    result.wns_before_ns = wns
    result.tns_before_ns = tns
    result.wns_after_ns = wns
    result.tns_after_ns = tns

    for _ in range(config.max_iterations):
        if result.wns_after_ns >= config.wns_target_ns:
            result.stop_reason = "timing met"
            break
        result.iterations += 1
        slow_area, fast_area = tier_areas()
        unbalance = _area_unbalance(slow_area, fast_area)
        if unbalance > config.unbalance_max:
            result.stop_reason = "unbalance budget exhausted"
            break

        top = paths[: config.n_paths]
        steps = [s for p in top for s in p.steps]
        if not steps:
            result.stop_reason = "no critical paths"
            break
        avg_delay = sum(s.arc_delay_ns for s in steps) / len(steps)
        d_th = d_k * avg_delay

        move_list: list[str] = []
        all_crit = 0
        slow_crit = 0
        seen: set[str] = set()
        for step in steps:
            if step.arc_delay_ns <= d_th or step.instance in seen:
                continue
            seen.add(step.instance)
            all_crit += 1
            if step.tier == slow_tier:
                slow_crit += 1
                move_list.append(step.instance)

        if all_crit == 0 or slow_crit / all_crit < config.crit_threshold:
            result.stop_reason = "critical cells no longer on slow die"
            break
        if not move_list:
            result.stop_reason = "nothing to move"
            break

        token = move_to_fast(move_list)
        new_wns, new_tns, new_trace = analyze()
        improved = (
            new_wns - result.wns_after_ns > config.wns_improve_min_ns
            or new_tns - result.tns_after_ns > config.tns_improve_min_ns
        )
        if improved:
            result.batches_accepted += 1
            result.cells_moved.extend(move_list)
            result.wns_after_ns = new_wns
            result.tns_after_ns = new_tns
            paths = new_trace()
            if settle is not None:
                settle()
                settled = True
            add_span_event(
                "eco_batch_accepted",
                iteration=result.iterations,
                moved=len(move_list),
                wns_ns=round(new_wns, 6),
            )
        else:
            undo(token)
            result.batches_rejected += 1
            add_span_event(
                "eco_batch_rejected",
                iteration=result.iterations,
                moved=len(move_list),
                wns_ns=round(new_wns, 6),
            )
            d_k *= config.alpha
            if d_k < config.min_dk:
                result.stop_reason = "threshold collapsed"
                break
            if settled:
                _wns, _tns, trace = analyze()
                paths = trace()
                settled = False
    else:
        result.stop_reason = result.stop_reason or "iteration budget"

    if not result.stop_reason:
        result.stop_reason = "iteration budget"
    return result
