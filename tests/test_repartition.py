"""Tests for Algorithm 1 (repro.partition.repartition) with scripted timers."""

import pytest

from repro.partition.repartition import (
    RepartitionConfig,
    repartition_eco,
)
from repro.timing.sta import CriticalPath, PathStep


def path(steps_spec, slack=-0.2):
    """Build a CriticalPath from (instance, tier, delay) triples."""
    steps = tuple(
        PathStep(
            instance=name,
            cell_name="X",
            tier=tier,
            arc_delay_ns=delay,
            wire_delay_ns=0.0,
            wirelength_um=1.0,
            crosses_tier=False,
        )
        for name, tier, delay in steps_spec
    )
    return CriticalPath(
        endpoint=("ep", "D"),
        slack_ns=slack,
        launch_latency_ns=0.0,
        capture_latency_ns=0.0,
        setup_ns=0.03,
        steps=steps,
    )


class _FakeDesign:
    """Scripted environment: moving slow cells to fast halves their delay."""

    def __init__(self):
        self.tier = {"a": 1, "b": 1, "c": 0, "d": 1}
        self.delay = {"a": 0.10, "b": 0.09, "c": 0.02, "d": 0.015}
        self.moves: list[list[str]] = []
        self.undone = 0

    def analyze(self):
        steps = [(n, self.tier[n], self.delay[n]) for n in ("a", "b", "c", "d")]
        total = sum(d for _n, _t, d in steps)
        slack = 0.15 - total
        return slack, min(0.0, slack), lambda: [path(steps, slack)]

    def move_to_fast(self, cells):
        token = []
        for name in cells:
            token.append((name, self.tier[name], self.delay[name]))
            self.tier[name] = 0
            self.delay[name] = self.delay[name] / 2.0
        self.moves.append(list(cells))
        return token

    def undo(self, token):
        self.undone += 1
        for name, tier, delay in token:
            self.tier[name] = tier
            self.delay[name] = delay

    def tier_areas(self):
        slow = sum(1.0 for t in self.tier.values() if t == 1)
        fast = sum(1.0 for t in self.tier.values() if t == 0)
        return slow, fast


def _logged_analysis(env):
    """``env.analyze`` wrapped to log each analysis and each trace."""
    log: list[str] = []

    def analyze():
        wns, tns, trace = env.analyze()
        n = sum(entry.startswith("analyze") for entry in log) + 1
        log.append(f"analyze {n}")

        def traced():
            log.append(f"trace {n}")
            return trace()

        return wns, tns, traced

    return log, analyze


class TestAlgorithmOne:
    def test_moves_slow_critical_cells_and_improves(self):
        env = _FakeDesign()
        wns_before = env.analyze()[0]
        result = repartition_eco(
            env.analyze, env.move_to_fast, env.undo, env.tier_areas,
            slow_tier=1,
        )
        assert result.batches_accepted >= 1
        assert result.wns_after_ns > wns_before
        moved = {c for batch in env.moves for c in batch}
        # the two dominant slow cells are the ones worth moving
        assert "a" in moved
        assert env.tier["a"] == 0

    def test_respects_unbalance_budget(self):
        env = _FakeDesign()
        config = RepartitionConfig(unbalance_max=0.0)
        result = repartition_eco(
            env.analyze, env.move_to_fast, env.undo, env.tier_areas,
            slow_tier=1, config=config,
        )
        # |fast-slow|/total = |3-1|/4 = 0.5 > 0 already: stop immediately
        assert result.batches_accepted == 0
        assert result.stop_reason == "unbalance budget exhausted"

    def test_undoes_non_improving_batches(self):
        env = _FakeDesign()

        # sabotage: moving cells does NOT change delays
        def move_noop(cells):
            return [(c, env.tier[c], env.delay[c]) for c in cells]

        result = repartition_eco(
            env.analyze, move_noop, env.undo, env.tier_areas, slow_tier=1,
            config=RepartitionConfig(max_iterations=4),
        )
        assert result.batches_accepted == 0
        assert result.batches_rejected >= 1
        assert env.undone == result.batches_rejected

    def test_stops_when_critical_cells_are_fast(self):
        env = _FakeDesign()
        env.tier = {n: 0 for n in env.tier}  # everything already fast
        result = repartition_eco(
            env.analyze, env.move_to_fast, env.undo, env.tier_areas,
            slow_tier=1,
            # the all-fast state is maximally unbalanced; let the loop
            # reach the criticality check instead
            config=RepartitionConfig(unbalance_max=2.0),
        )
        assert result.batches_accepted == 0
        assert result.stop_reason == "critical cells no longer on slow die"

    def test_iteration_budget(self):
        env = _FakeDesign()
        config = RepartitionConfig(max_iterations=1)
        result = repartition_eco(
            env.analyze, env.move_to_fast, env.undo, env.tier_areas,
            slow_tier=1, config=config,
        )
        assert result.iterations == 1

    def test_threshold_decay_on_rejection(self):
        """After undo, d_k decays so the next batch is more inclusive."""
        env = _FakeDesign()
        calls = []

        real_move = env.move_to_fast

        count = [0]

        def move_flaky(cells):
            calls.append(list(cells))
            count[0] += 1
            if count[0] == 1:
                return [(c, env.tier[c], env.delay[c]) for c in cells]  # noop
            return real_move(cells)

        result = repartition_eco(
            env.analyze, move_flaky, env.undo, env.tier_areas, slow_tier=1,
            config=RepartitionConfig(max_iterations=6),
        )
        assert result.batches_rejected >= 1
        assert result.batches_accepted >= 1
        # the post-decay batch must include at least as many cells
        assert len(calls[1]) >= len(calls[0])

    def test_no_paths_stop(self):
        def analyze():
            return -1.0, -1.0, list  # violating, but nothing to backtrace

        result = repartition_eco(
            analyze, lambda c: [], lambda t: None, lambda: (1.0, 1.0),
            slow_tier=1,
        )
        assert result.stop_reason == "no critical paths"

    def test_traces_only_the_states_it_keeps(self):
        """Paths are traced for the initial state and for each accepted
        batch (before ``settle``) -- never for a rejected batch's state,
        and not again after an undo that restores an unsettled state."""
        env = _FakeDesign()
        log, analyze = _logged_analysis(env)
        real_move = env.move_to_fast
        moves = []

        def move_flaky(cells):
            moves.append(cells)
            if len(moves) == 1:  # a no-op batch: rejected, then undone
                return [(c, env.tier[c], env.delay[c]) for c in cells]
            return real_move(cells)

        result = repartition_eco(
            analyze, move_flaky, env.undo, env.tier_areas, slow_tier=1,
            config=RepartitionConfig(max_iterations=3),
            settle=lambda: log.append("settle"),
        )
        assert result.batches_rejected == 1
        assert result.batches_accepted >= 1
        assert log[:6] == [
            "analyze 1", "trace 1",            # the initial state
            "analyze 2",                       # rejected: never traced,
                                               # and the undo restores 1
            "analyze 3", "trace 3", "settle",  # accepted, traced first
        ]
        traces = [entry for entry in log if entry.startswith("trace")]
        assert len(traces) == 1 + result.batches_accepted

    def test_retraces_an_undo_past_a_settle(self):
        """A batch rejected after a settled batch restores the settled
        state, which the paths traced before that settle do not show, so
        the undo re-analyses and re-traces it."""
        env = _FakeDesign()
        env.tier = {n: 1 for n in env.tier}
        env.delay = {"a": 0.10, "b": 0.09, "c": 0.08, "d": 0.07}
        log, analyze = _logged_analysis(env)
        real_move = env.move_to_fast
        moves = []

        def move_flaky(cells):
            moves.append(cells)
            if len(moves) == 2:  # a no-op batch: rejected, then undone
                return [(c, env.tier[c], env.delay[c]) for c in cells]
            return real_move(cells)

        result = repartition_eco(
            analyze, move_flaky, env.undo, env.tier_areas, slow_tier=1,
            config=RepartitionConfig(
                max_iterations=3, unbalance_max=2.0, wns_target_ns=1.0
            ),
            settle=lambda: log.append("settle"),
        )
        assert (result.batches_accepted, result.batches_rejected) == (2, 1)
        assert log == [
            "analyze 1", "trace 1",            # the initial state
            "analyze 2", "trace 2", "settle",  # accepted, traced first
            "analyze 3",                       # rejected: never traced
            "analyze 4", "trace 4",            # the settled state, restored
            "analyze 5", "trace 5", "settle",  # accepted
        ]
