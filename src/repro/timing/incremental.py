"""Incremental STA: the :class:`TimingSession` facade.

A session owns one long-lived :class:`~repro.timing.sta.StaEngine` and
keeps it consistent with the netlist across local edits, instead of
rebuilding the whole timing graph per query the way :func:`run_sta`
does.  Three reuse layers compound:

1. **Dirty-cone re-propagation.**  Every edit the flows make (upsize,
   clone, buffer insertion, ECO tier move, level-shifter insertion) is
   already paired with ``DelayCalculator.invalidate(net)`` calls for the
   touched nets; the session listens to those invalidations, seeds the
   drivers and sinks of the dirty nets, closes over their transitive
   fanout cone, re-levelizes only the cone (Kahn on the subgraph), and
   re-evaluates exactly those instances through the same
   ``StaEngine.eval_instance`` the full pass uses.  Instances outside
   the cone keep their arrivals; because each cone instance is computed
   once from finalized fanin values, the result is bit-identical to a
   from-scratch propagation.

2. **Period-independent arrivals.**  Arrivals, slews, setup times and
   clock latencies do not depend on the clock period; only required
   times do.  The session caches the period-independent endpoint base
   (``StaEngine.endpoint_base``) and derives the slack dict per
   requested period in O(endpoints), so reports at several periods on
   an unchanged netlist share one forward propagation.  The flows ask
   each session for one period only: every probe of a target-period
   search is a flow of its own.

3. **Confined backward updates.**  Required times are recomputed only
   over the backward region reachable from changed seeds: invalidated
   nets, input nets of forward-cone instances, and endpoints whose seed
   required changed.  The region is processed in falling topological
   order of each net's driver with a pull-based min that enumerates the
   same candidate set as the full push-based pass, hence equal values.

**Invalidation contract**: netlist edits must invalidate every touched
net through the :class:`~repro.timing.delaycalc.DelayCalculator` bound
to the session.  One flow edit does not yet: load cloning
(``flow.opt._try_clone``) leaves the cached parasitics of its driver's
input nets without the clone's sink (see DESIGN.md).  A full
``calc.invalidate()`` marks the whole graph dirty.  When the dirty cone
exceeds ``full_fraction`` (default 35%) of the combinational core, the
session falls back to a full rebuild -- incrementality never
wins once most of the graph moved.  Setting ``REPRO_STA=full`` disables
all reuse and rebuilds from scratch on every report; this is the
equivalence kill switch CI uses, mirroring ``REPRO_CACHE=0``.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field

from repro.errors import TimingError
from repro.netlist.core import Netlist
from repro.obs import emit_metric, span
from repro.timing.delaycalc import DelayCalculator
from repro.timing.sta import (
    DEFAULT_INPUT_SLEW_NS,
    CriticalPath,
    StaEngine,
    TimingReport,
)

__all__ = ["TimingSession", "SessionStats", "full_sta_forced"]

_INF = float("inf")

#: Dirty-cone fraction of the combinational core above which the
#: session rebuilds from scratch instead of patching incrementally.
DEFAULT_FULL_FRACTION = 0.35


def full_sta_forced() -> bool:
    """True when ``REPRO_STA=full`` disables incremental updates."""
    return os.environ.get("REPRO_STA", "").strip().lower() == "full"


@dataclass
class SessionStats:
    """Counters one session accumulates; mirrored as trace metrics."""

    full_runs: int = 0
    incremental_runs: int = 0
    reused_runs: int = 0  # clean reports: no re-propagation at all
    propagated_instances: int = 0
    graph_instances: int = 0
    backward_full: int = 0
    backward_incremental: int = 0
    last_cone_size: int = 0

    @property
    def reports(self) -> int:
        return self.full_runs + self.incremental_runs + self.reused_runs

    @property
    def propagated_fraction(self) -> float:
        """Instances re-propagated per report, averaged, as a fraction."""
        if self.graph_instances <= 0 or self.reports == 0:
            return 0.0
        return self.propagated_instances / (self.graph_instances * self.reports)


@dataclass
class _BackwardState:
    """What the last backward pass was computed against."""

    period_ns: float
    seeds: dict[str, float] = field(default_factory=dict)


class TimingSession:
    """Incremental timing facade over one (netlist, calculator) pair.

    Produces :class:`~repro.timing.sta.TimingReport` objects numerically
    identical to :func:`~repro.timing.sta.run_sta` on the same state,
    while reusing arrivals across edits and periods.
    """

    def __init__(
        self,
        netlist: Netlist,
        calc: DelayCalculator,
        clock_latencies: dict[str, float] | None = None,
        *,
        full_fraction: float = DEFAULT_FULL_FRACTION,
    ) -> None:
        self.netlist = netlist
        self.calc = calc
        self.latencies = clock_latencies or {}
        self.full_fraction = full_fraction
        self.stats = SessionStats()

        self._engine: StaEngine | None = None
        self._dirty_all = True
        self._dirty_nets: set[str] = set()
        # Accumulated since the last backward pass (forward batches may
        # land between two cell-slack requests).
        self._invalid_since_backward: set[str] = set()
        self._cone_since_backward: set[str] = set()
        self._backward: _BackwardState | None = None
        # Period-independent endpoint terms, keyed to the topology
        # version they were extracted at.
        self._endpoint_base: list | None = None
        self._base_version = -1
        # name -> position in the cached topological order.
        self._topo_index: dict[str, int] = {}
        self._topo_version = -1
        # combinational-core size, keyed to the topology version
        self._comb_total = 0
        self._comb_version = -1
        # (instance name, output net) pairs in netlist.instances order,
        # keyed to the topology version; cell slacks derive from these by
        # plain dict lookups in the same order engine.cell_slacks() uses.
        self._cell_pairs: list[tuple[str, str]] = []
        self._cell_pairs_version = -1
        self._last_fraction = 0.0

        calc.add_invalidation_listener(self._on_invalidate)

    @classmethod
    def shared(
        cls,
        netlist: Netlist,
        calc: DelayCalculator,
        clock_latencies: dict[str, float] | None = None,
    ) -> "TimingSession":
        """The session bound to ``calc``, created on first use.

        Passes that analyse one calculator in turn -- the optimizer,
        then area recovery -- continue from its arrivals instead of
        each rebuilding from scratch, and the calculator carries one
        invalidation listener instead of one per pass.  A different
        latency map (CTS ran in between) forces a rebuild.
        """
        session = calc.session
        if session is None or session.netlist is not netlist:
            session = cls(netlist, calc, clock_latencies)
            calc.session = session
            return session
        latencies = clock_latencies or {}
        old = session.latencies
        if latencies is not old and (latencies or old):
            session.set_clock_latencies(clock_latencies)
        return session

    # ------------------------------------------------------------------
    # dirty tracking
    # ------------------------------------------------------------------
    def _on_invalidate(self, net_name: str | None) -> None:
        if net_name is None:
            self._dirty_all = True
            self._dirty_nets.clear()
        elif not self._dirty_all:
            self._dirty_nets.add(net_name)

    def invalidate_all(self) -> None:
        """Force the next report to rebuild from scratch."""
        self._dirty_all = True
        self._dirty_nets.clear()

    def set_clock_latencies(self, clock_latencies: dict[str, float] | None) -> None:
        """Swap the clock latency map (after CTS); forces a rebuild."""
        self.latencies = clock_latencies or {}
        self.invalidate_all()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(
        self, period_ns: float, *, with_cell_slacks: bool = True
    ) -> TimingReport:
        """Timing report at one period; equals ``run_sta`` on this state."""
        if period_ns <= 0:
            raise TimingError(f"period must be positive, got {period_ns}")
        forced_full = full_sta_forced()
        with span("sta", period_ns=period_ns, cell_slacks=with_cell_slacks,
                  incremental=not forced_full):
            mode = self._refresh_forward(forced_full)
            engine = self._engine
            engine.period_ns = period_ns

            base = self._refresh_endpoint_base()
            endpoint_slacks = StaEngine.slacks_at(period_ns, base)
            if endpoint_slacks:
                wns = min(endpoint_slacks.values())
                tns = sum((s for s in endpoint_slacks.values() if s < 0), 0.0)
                worst = min(endpoint_slacks, key=endpoint_slacks.get)
                critical = engine.backtrace(worst, endpoint_slacks[worst])
            else:
                wns, tns, critical = 0.0, 0.0, None

            cell_slack: dict[str, float] = {}
            if with_cell_slacks and endpoint_slacks:
                self._refresh_required(period_ns, endpoint_slacks, forced_full)
                cell_slack = self._cell_slacks()
            emit_metric("wns_ns", wns)
            emit_metric("tns_ns", tns)
            emit_metric("sta_propagated_fraction", self._last_fraction)
            if mode == "full":
                emit_metric("sta_full_runs", 1)
            else:
                emit_metric("sta_incremental_runs", 1)

        return TimingReport(
            period_ns=period_ns,
            wns_ns=wns,
            tns_ns=tns,
            endpoint_slacks=endpoint_slacks,
            cell_slack=cell_slack,
            critical_path=critical,
        )

    def top_paths(self, report: TimingReport, count: int) -> list[CriticalPath]:
        """Backtrace the ``count`` worst endpoints of ``report``.

        Unlike :func:`~repro.timing.sta.top_critical_paths` this reuses
        the session's live arrivals instead of re-propagating the whole
        graph, which removes one full forward pass per optimizer round.
        """
        self._refresh_forward(full_sta_forced())
        engine = self._engine
        return [
            engine.backtrace(endpoint, slack)
            for endpoint, slack in report.worst_endpoints(count)
        ]

    # ------------------------------------------------------------------
    # forward maintenance
    # ------------------------------------------------------------------
    def _refresh_forward(self, forced_full: bool) -> str:
        version = self.netlist.topology_version
        if self._comb_version != version:
            self._comb_total = len(self.netlist.instances) - len(
                self.netlist.sequential_instances()
            )
            self._comb_version = version
        comb_total = self._comb_total
        self.stats.graph_instances = comb_total
        if forced_full or self._dirty_all or self._engine is None:
            self._full_rebuild()
            self._last_fraction = 1.0 if comb_total else 0.0
            return "full"
        if not self._dirty_nets:
            self.stats.reused_runs += 1
            self._last_fraction = 0.0
            return "reused"

        cone = self._forward_cone()
        if comb_total and len(cone) > self.full_fraction * comb_total:
            self._full_rebuild()
            self._last_fraction = 1.0
            return "full"

        self._apply_cone(cone)
        self.stats.incremental_runs += 1
        self.stats.propagated_instances += len(cone)
        self.stats.last_cone_size = len(cone)
        self._last_fraction = (len(cone) / comb_total) if comb_total else 0.0
        return "incremental"

    def _full_rebuild(self) -> None:
        engine = StaEngine(self.netlist, self.calc, 1.0, self.latencies)
        engine.launch()
        engine.propagate()
        self._engine = engine
        self._dirty_all = False
        self._dirty_nets.clear()
        self._endpoint_base = None
        self._backward = None
        self._invalid_since_backward.clear()
        self._cone_since_backward.clear()
        self.stats.full_runs += 1
        self.stats.propagated_instances += self.stats.graph_instances

    def _forward_cone(self) -> set[str]:
        """Combinational instances needing re-evaluation, as a name set.

        Also re-launches sequential drivers of dirty nets (their output
        load changed) and refreshes primary-input arrivals, which are the
        only non-combinational effects a net invalidation can have.
        """
        engine = self._engine
        nets = self.netlist.nets
        instances = self.netlist.instances
        seeds: set[str] = set()
        for net_name in self._dirty_nets:
            net = nets.get(net_name)
            if net is None:
                # The net was removed; any structural rewiring around it
                # invalidated the surviving nets too.
                continue
            if net.driver is None:
                if not net.is_clock:
                    engine.arrival[net_name] = 0.0
                    engine.slew[net_name] = DEFAULT_INPUT_SLEW_NS
            else:
                driver = instances[net.driver[0]]
                if driver.cell.is_sequential:
                    engine._launch_sequential(driver)
                else:
                    seeds.add(driver.name)
            for sink_name, _pin in net.sinks:
                if not instances[sink_name].cell.is_sequential:
                    seeds.add(sink_name)

        # Transitive fanout closure over the combinational core.
        cone: set[str] = set()
        stack = list(seeds)
        while stack:
            name = stack.pop()
            if name in cone:
                continue
            cone.add(name)
            inst = instances[name]
            for pin, net_name in inst.connected_pins():
                if inst.cell.pins[pin].direction != "output":
                    continue
                for sink_name, _pin in nets[net_name].sinks:
                    if (sink_name not in cone
                            and not instances[sink_name].cell.is_sequential):
                        stack.append(sink_name)
        return cone

    def _apply_cone(self, cone: set[str]) -> None:
        """Re-evaluate the cone in topological order (Kahn on subgraph)."""
        engine = self._engine
        nets = self.netlist.nets
        instances = self.netlist.instances

        indegree: dict[str, int] = {}
        for name in cone:
            inst = instances[name]
            count = 0
            for pin, net_name in inst.connected_pins():
                if inst.cell.pins[pin].direction == "output":
                    continue
                drv = nets[net_name].driver
                if drv is not None and drv[0] in cone:
                    count += 1
            indegree[name] = count

        ready = deque(sorted(name for name, d in indegree.items() if d == 0))
        done = 0
        while ready:
            name = ready.popleft()
            done += 1
            inst = instances[name]
            engine.eval_instance(inst)
            for pin, net_name in inst.connected_pins():
                if inst.cell.pins[pin].direction != "output":
                    continue
                for sink_name, _pin in nets[net_name].sinks:
                    if sink_name in indegree:
                        indegree[sink_name] -= 1
                        if indegree[sink_name] == 0:
                            ready.append(sink_name)
        if done != len(cone):
            raise TimingError(
                f"combinational loop in dirty cone: ordered {done} of {len(cone)}"
            )

        self._invalid_since_backward |= self._dirty_nets
        self._cone_since_backward |= cone
        self._dirty_nets.clear()
        self._endpoint_base = None

    # ------------------------------------------------------------------
    # endpoint base (period-independent)
    # ------------------------------------------------------------------
    def _refresh_endpoint_base(self) -> list:
        version = self.netlist.topology_version
        if self._endpoint_base is None or self._base_version != version:
            self._endpoint_base = self._engine.endpoint_base()
            self._base_version = version
        return self._endpoint_base

    # ------------------------------------------------------------------
    # cell slacks
    # ------------------------------------------------------------------
    def _cell_slacks(self) -> dict[str, float]:
        """Same mapping (and insertion order) as ``StaEngine.cell_slacks``.

        The instance -> output-net walk only changes with the topology,
        so it is cached; per report this is two dict lookups per cell.
        """
        version = self.netlist.topology_version
        if self._cell_pairs_version != version:
            pairs: list[tuple[str, str]] = []
            for inst in self.netlist.instances.values():
                out_net = inst.net_of(inst.cell.output_pin)
                if out_net is not None:
                    pairs.append((inst.name, out_net))
            self._cell_pairs = pairs
            self._cell_pairs_version = version

        engine = self._engine
        arrival = engine.arrival
        required = engine.required
        slacks: dict[str, float] = {}
        for name, out_net in self._cell_pairs:
            arr = arrival.get(out_net)
            req = required.get(out_net)
            if arr is None or req is None or req == _INF:
                continue
            slacks[name] = req - arr
        return slacks

    # ------------------------------------------------------------------
    # backward maintenance
    # ------------------------------------------------------------------
    def _refresh_required(
        self,
        period_ns: float,
        endpoint_slacks: dict[tuple[str, str], float],
        forced_full: bool,
    ) -> None:
        engine = self._engine
        seeds = engine.seed_required_map(endpoint_slacks)
        state = self._backward
        if (forced_full or state is None or state.period_ns != period_ns):
            engine.required.clear()
            engine.propagate_required(endpoint_slacks)
            self._backward = _BackwardState(period_ns=period_ns, seeds=seeds)
            self._invalid_since_backward.clear()
            self._cone_since_backward.clear()
            self.stats.backward_full += 1
            return

        region_seeds: set[str] = set()
        old_seeds = state.seeds
        for net_name in seeds.keys() | old_seeds.keys():
            if seeds.get(net_name) != old_seeds.get(net_name):
                region_seeds.add(net_name)
        nets = self.netlist.nets
        instances = self.netlist.instances
        for net_name in self._invalid_since_backward:
            if net_name in nets:
                region_seeds.add(net_name)
        for inst_name in self._cone_since_backward:
            inst = instances.get(inst_name)
            if inst is None:
                continue
            # The instance's delay may have changed: every input net that
            # feeds it gets a different pull candidate.
            for pin in inst.cell.input_pins:
                net_name = inst.net_of(pin)
                if net_name is not None:
                    region_seeds.add(net_name)

        if not region_seeds:
            state.seeds = seeds
            self._invalid_since_backward.clear()
            self._cone_since_backward.clear()
            return

        # Backward closure: a changed net invalidates the pull candidates
        # of its driver's input nets.
        region: set[str] = set()
        stack = list(region_seeds)
        while stack:
            net_name = stack.pop()
            if net_name in region or net_name not in nets:
                continue
            region.add(net_name)
            drv = nets[net_name].driver
            if drv is None:
                continue
            driver = instances[drv[0]]
            if driver.cell.is_sequential:
                continue
            for pin in driver.cell.input_pins:
                in_net = driver.net_of(pin)
                if in_net is not None and in_net not in region:
                    stack.append(in_net)

        self._ensure_topo_index()
        ordered = sorted(
            region,
            key=lambda n: self._driver_topo_index(n),
            reverse=True,
        )
        for net_name in ordered:
            self._recompute_required(net_name, seeds)

        state.seeds = seeds
        self._invalid_since_backward.clear()
        self._cone_since_backward.clear()
        self.stats.backward_incremental += 1

    def _recompute_required(self, net_name: str, seeds: dict[str, float]) -> None:
        """Pull-based recompute of one net's required time.

        Enumerates exactly the candidate set the full push-based pass
        produces for this net: its endpoint seed (if any) and one
        candidate per combinational consumer arc whose output required
        is finite.
        """
        engine = self._engine
        nets = self.netlist.nets
        instances = self.netlist.instances
        required = engine.required
        net = nets[net_name]
        value = seeds.get(net_name, _INF)
        for sink_name, pin in net.sinks:
            inst = instances[sink_name]
            cell = inst.cell
            if cell.is_sequential:
                continue
            out_net = inst.net_of(cell.output_pin)
            if out_net is None:
                continue
            arc = cell.arc_to(cell.output_pin, pin)
            if arc is None:
                continue
            req_out = required.get(out_net, _INF)
            if req_out == _INF:
                continue
            load = engine.calc.output_load_ff(inst, cell.output_pin)
            _, candidate = engine.required_through(inst, pin, arc, req_out, load)
            if candidate < value:
                value = candidate
        if value == _INF:
            required.pop(net_name, None)
        else:
            required[net_name] = value

    # ------------------------------------------------------------------
    # topology index
    # ------------------------------------------------------------------
    def _ensure_topo_index(self) -> None:
        version = self.netlist.topology_version
        if self._topo_version != version:
            self._topo_index = {
                inst.name: i
                for i, inst in enumerate(self.netlist.topological_order())
            }
            self._topo_version = version

    def _driver_topo_index(self, net_name: str) -> int:
        drv = self.netlist.nets[net_name].driver
        if drv is None:
            return -1
        index = self._topo_index.get(drv[0])
        # Sequential drivers sort with primary inputs: nothing pulls
        # through them, so they can be recomputed in any late position.
        return -1 if index is None else index
