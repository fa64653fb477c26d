"""Buffered clock-tree synthesis over one or two tiers.

Pin-3D as published has no 3-D clock stage; the paper's key flow
enhancement (Section III-A2) is representing the other die's cells as
"COVER" cells so one clock tree can be designed and optimized across both
tiers at once.  This module implements that end state directly: sinks from
*all* tiers enter one geometric clustering, and every inserted buffer is
assigned a tier (and that tier's clock-buffer library cell).

Tier assignment policies:

- ``TierPolicy.MAJORITY`` -- homogeneous 3-D: a buffer lands on the tier
  holding most of its subtree's sinks.
- ``TierPolicy.PREFER_SLOW`` -- heterogeneous 3-D: clock buffers are not
  data-path cells, so the flow biases them onto the slow/low-power tier
  unless a subtree is dominated by fast-tier (critical) sinks.  This is
  what produces Table VIII's top-die-heavy clock tree (>75% of buffers on
  the 9-track tier), its smaller clock-buffer area and power, and its
  larger-but-managed insertion delay.

The tree is a recursive geometric bisection: sinks split along the longer
axis at the median until groups fit under one leaf buffer, then levels of
parent buffers are added up to a single root at the clock pad.  Latency
is computed with the buffers' NLDM tables plus Elmore wire delays, so a
9-track buffer chain really is slower.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import FlowError
from repro.liberty.cells import CellFunction, CellType
from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Netlist
from repro.obs import emit_metric, span
from repro.units import RC_TO_NS

__all__ = ["TierPolicy", "ClockReport", "ClockTreeSynthesizer"]

#: Sinks per leaf buffer.
LEAF_SIZE = 6

#: Children per internal buffer level.
BRANCHING = 3

#: Input slew assumed at the clock pad (ns).
PAD_SLEW_NS = 0.02


class TierPolicy(enum.Enum):
    """How inserted clock buffers pick a tier in 3-D designs."""

    SINGLE = "single"  # 2-D: everything on tier 0
    MAJORITY = "majority"  # homogeneous 3-D
    PREFER_SLOW = "prefer_slow"  # heterogeneous 3-D


@dataclass
class _Sink:
    inst: str
    pin: str
    x: float
    y: float
    tier: int
    cap_ff: float


@dataclass
class _Node:
    x: float
    y: float
    tier: int
    cell: CellType | None  # None only for the virtual list of raw sinks
    children: list["_Node"] = field(default_factory=list)
    sinks: list[_Sink] = field(default_factory=list)
    latency_ns: float = 0.0


@dataclass(frozen=True)
class ClockReport:
    """Clock network metrics (the Table VIII 'Clock Network' block)."""

    buffer_count: int
    buffer_count_by_tier: dict[int, int]
    buffer_area_um2: float
    wirelength_mm: float
    max_latency_ns: float
    min_latency_ns: float
    power_mw: float
    latencies: dict[str, float]

    @property
    def max_skew_ns(self) -> float:
        """Global skew: max minus min insertion delay."""
        return self.max_latency_ns - self.min_latency_ns

    def tier_fraction(self, tier: int) -> float:
        """Fraction of clock buffers on one tier."""
        if self.buffer_count == 0:
            return 0.0
        return self.buffer_count_by_tier.get(tier, 0) / self.buffer_count


class ClockTreeSynthesizer:
    """Builds and characterizes one clock tree for a placed design."""

    def __init__(
        self,
        netlist: Netlist,
        tier_libs: dict[int, StdCellLibrary],
        policy: TierPolicy,
        *,
        frequency_ghz: float = 1.0,
        slow_tier: int = 1,
    ) -> None:
        if netlist.clock_port is None:
            raise FlowError("design has no clock port")
        self._netlist = netlist
        self._tier_libs = tier_libs
        self._policy = policy
        self._frequency_ghz = frequency_ghz
        self._slow_tier = slow_tier
        self._buffers: list[_Node] = []
        self._latencies: dict[str, float] = {}

    # ------------------------------------------------------------------
    def run(self) -> ClockReport:
        """Synthesize the tree and return its report."""
        with span("cts", policy=self._policy.value):
            sinks = self._collect_sinks()
            if not sinks:
                raise FlowError("no clock sinks to synthesize")
            self._buffers = []
            self._latencies = {}
            leaves = self._cluster(sinks)
            root = self._build_levels(leaves)
            self._assign_latency(root, 0.0, PAD_SLEW_NS)
            report = self._report(root)
            emit_metric("clock_buffers", report.buffer_count)
            emit_metric("clock_skew_ns", report.max_skew_ns)
            emit_metric("clock_power_mw", report.power_mw)
            if self._policy is not TierPolicy.SINGLE:
                emit_metric(
                    "clock_slow_tier_fraction",
                    report.tier_fraction(self._slow_tier),
                    tier=self._slow_tier,
                )
        return report

    # ------------------------------------------------------------------
    def _collect_sinks(self) -> list[_Sink]:
        sinks = []
        for inst_name, pin in self._netlist.clock_sinks():
            inst = self._netlist.instances[inst_name]
            if not inst.is_placed:
                raise FlowError(f"clock sink {inst_name} is unplaced")
            x, y = inst.center()
            sinks.append(
                _Sink(
                    inst=inst_name,
                    pin=pin,
                    x=x,
                    y=y,
                    tier=inst.tier,
                    cap_ff=inst.cell.input_capacitance_ff(pin),
                )
            )
        return sinks

    def _pick_tier(self, sink_tiers: list[int]) -> int:
        if self._policy is TierPolicy.SINGLE:
            return 0
        fast_tier = 1 - self._slow_tier
        fast_count = sum(1 for t in sink_tiers if t == fast_tier)
        if self._policy is TierPolicy.PREFER_SLOW:
            # Stay on the low-power tier unless this subtree is dominated
            # by fast-tier (timing-critical) sinks.
            if fast_count > 0.7 * len(sink_tiers):
                return fast_tier
            return self._slow_tier
        # MAJORITY: a balanced subtree has no majority; break the tie
        # toward the fast tier so the policy stays distinct from
        # PREFER_SLOW (for homogeneous 3-D both tiers hold the same
        # library, so the tie-break carries no area/power meaning).
        return fast_tier if fast_count * 2 >= len(sink_tiers) else self._slow_tier

    def _buffer_cell(self, tier: int, load_ff: float) -> CellType:
        lib = self._tier_libs.get(tier) or next(iter(self._tier_libs.values()))
        drives = lib.drives_for(CellFunction.CLKBUF)
        # Pick the smallest drive whose R*C stays under ~40 ps.
        for drive in drives:
            cell = lib.get(CellFunction.CLKBUF, drive)
            arc = cell.worst_arc_to_output()
            if arc.delay.lookup(PAD_SLEW_NS, load_ff) < 0.040:
                return cell
        return lib.get(CellFunction.CLKBUF, drives[-1])

    def _make_buffer(self, children_nodes: list[_Node], sinks: list[_Sink]) -> _Node:
        xs = [c.x for c in children_nodes] + [s.x for s in sinks]
        ys = [c.y for c in children_nodes] + [s.y for s in sinks]
        tiers = [c.tier for c in children_nodes] + [s.tier for s in sinks]
        x = sum(xs) / len(xs)
        y = sum(ys) / len(ys)
        tier = self._pick_tier(tiers)
        load = sum(s.cap_ff for s in sinks) + sum(
            (c.cell.input_capacitance_ff("A") if c.cell else 0.0)
            for c in children_nodes
        )
        node = _Node(
            x=x,
            y=y,
            tier=tier,
            cell=self._buffer_cell(tier, load),
            children=children_nodes,
            sinks=sinks,
        )
        self._buffers.append(node)
        return node

    def _cluster(self, sinks: list[_Sink]) -> list[_Node]:
        """Recursive geometric bisection into leaf buffers."""
        leaves: list[_Node] = []
        self._bisect(sinks, leaves)
        return leaves

    def _bisect(self, group: list[_Sink], leaves: list[_Node]) -> None:
        if len(group) <= LEAF_SIZE:
            leaves.append(self._make_buffer([], group))
            return
        dx = max(s.x for s in group) - min(s.x for s in group)
        dy = max(s.y for s in group) - min(s.y for s in group)
        key = (lambda s: s.x) if dx >= dy else (lambda s: s.y)
        ordered = sorted(group, key=lambda s: (key(s), s.inst))
        mid = len(ordered) // 2
        self._bisect(ordered[:mid], leaves)
        self._bisect(ordered[mid:], leaves)

    def _build_levels(self, nodes: list[_Node]) -> _Node:
        """Group buffers geometrically until a single root remains."""
        while len(nodes) > 1:
            ordered = sorted(nodes, key=lambda n: (n.x, n.y))
            parents = []
            for i in range(0, len(ordered), BRANCHING):
                group = ordered[i : i + BRANCHING]
                parents.append(self._make_buffer(group, []))
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------
    def _wire_delay(self, parent: _Node, cx: float, cy: float, cap_ff: float, tier_cross: bool) -> float:
        lib = next(iter(self._tier_libs.values()))
        dist = abs(parent.x - cx) + abs(parent.y - cy)
        r = dist * lib.wire_r_kohm_per_um
        c = dist * lib.wire_c_ff_per_um
        delay = r * (c / 2.0 + cap_ff) * RC_TO_NS
        if tier_cross:
            delay += lib.miv_r_kohm * (lib.miv_c_ff / 2.0 + cap_ff) * RC_TO_NS
        return delay

    def _node_load(self, node: _Node) -> float:
        lib = next(iter(self._tier_libs.values()))
        load = 0.0
        for child in node.children:
            dist = abs(node.x - child.x) + abs(node.y - child.y)
            load += dist * lib.wire_c_ff_per_um
            if child.cell is not None:
                load += child.cell.input_capacitance_ff("A")
        for sink in node.sinks:
            dist = abs(node.x - sink.x) + abs(node.y - sink.y)
            load += dist * lib.wire_c_ff_per_um + sink.cap_ff
        return load

    def _assign_latency(self, node: _Node, upstream_ns: float, slew_ns: float) -> None:
        assert node.cell is not None
        load = self._node_load(node)
        arc = node.cell.worst_arc_to_output()
        delay = arc.delay.lookup(slew_ns, load)
        out_slew = arc.output_slew.lookup(slew_ns, load)
        node.latency_ns = upstream_ns + delay
        for child in node.children:
            wire = self._wire_delay(
                node,
                child.x,
                child.y,
                child.cell.input_capacitance_ff("A") if child.cell else 0.0,
                tier_cross=child.tier != node.tier,
            )
            self._assign_latency(child, node.latency_ns + wire, out_slew)
        for sink in node.sinks:
            wire = self._wire_delay(
                node, sink.x, sink.y, sink.cap_ff, tier_cross=sink.tier != node.tier
            )
            sink_latency = node.latency_ns + wire
            self._latencies[sink.inst] = sink_latency

    # ------------------------------------------------------------------
    def _report(self, root: _Node) -> ClockReport:
        by_tier: dict[int, int] = {}
        area = 0.0
        wirelength = 0.0
        power_uw = 0.0
        f = self._frequency_ghz
        for node in self._buffers:
            by_tier[node.tier] = by_tier.get(node.tier, 0) + 1
            area += node.cell.area_um2
            load = self._node_load(node)
            vdd = node.cell.vdd_v
            # clock toggles twice per cycle -> energy C*V^2 per cycle
            power_uw += load * vdd * vdd * f
            power_uw += node.cell.internal_energy_pj * 2.0 * f * 1000.0
            for child in node.children:
                wirelength += abs(node.x - child.x) + abs(node.y - child.y)
            for sink in node.sinks:
                wirelength += abs(node.x - sink.x) + abs(node.y - sink.y)
        latencies = dict(self._latencies)
        values = list(latencies.values())
        return ClockReport(
            buffer_count=len(self._buffers),
            buffer_count_by_tier=by_tier,
            buffer_area_um2=area,
            wirelength_mm=wirelength / 1000.0,
            max_latency_ns=max(values),
            min_latency_ns=min(values),
            power_mw=power_uw / 1000.0,
            latencies=latencies,
        )
