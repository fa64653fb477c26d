"""Core netlist database: instances, nets, and the netlist hypergraph.

The database is deliberately close to what a PnR tool keeps in memory:

- an :class:`Instance` is one placed cell: a name, a bound
  :class:`~repro.liberty.cells.CellType`, a tier assignment (0 = bottom,
  1 = top; always 0 for 2-D designs), an optional placement location, and
  per-pin net bindings;
- a :class:`Net` is a hyperedge with exactly one driver (an instance output
  pin or a primary input port) and any number of sinks;
- a :class:`Netlist` owns both maps plus the primary ports, and offers the
  graph traversals every downstream engine needs (topological order over
  the combinational core, fanin/fanout, area queries, validation).

Tier and position live on the instance rather than in side tables because
the flows mutate them constantly (partitioning, ECO repartitioning,
legalization) and locality of that state keeps the code honest.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import NetlistError
from repro.liberty.cells import CellType

__all__ = ["PortDirection", "Instance", "Net", "Netlist"]


class PortDirection(enum.Enum):
    """Direction of a primary (chip-level) port."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass
class Instance:
    """One cell instance in the design.

    Attributes
    ----------
    name:
        Unique instance name.
    cell:
        The bound library cell type.  Rebinding (tech remap, resize) goes
        through :meth:`Netlist.rebind` so pin compatibility is checked.
    tier:
        Die assignment: 0 is the bottom tier, 1 the top tier.  2-D designs
        keep every instance on tier 0.
    x_um / y_um:
        Placement location (lower-left corner), or None before placement.
    block:
        Logical block tag from the generator (e.g. ``"alu"``); used for
        reporting and for the clustering effects Section III-A1 discusses.
    fixed:
        True for instances the optimizer must not touch (e.g. macros).
    """

    name: str
    cell: CellType
    tier: int = 0
    x_um: float | None = None
    y_um: float | None = None
    block: str = ""
    fixed: bool = False
    _pin_nets: dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def is_placed(self) -> bool:
        """True once the instance has a location."""
        return self.x_um is not None and self.y_um is not None

    @property
    def area_um2(self) -> float:
        """Footprint of the bound cell."""
        return self.cell.area_um2

    def net_of(self, pin: str) -> str | None:
        """Name of the net bound to ``pin``, or None when unconnected."""
        return self._pin_nets.get(pin)

    def connected_pins(self) -> Iterator[tuple[str, str]]:
        """Iterate (pin name, net name) for every bound pin."""
        return iter(self._pin_nets.items())

    def center(self) -> tuple[float, float]:
        """Placement center of the instance."""
        if not self.is_placed:
            raise NetlistError(f"instance {self.name} is not placed")
        return (
            self.x_um + self.cell.width_um / 2.0,
            self.y_um + self.cell.height_um / 2.0,
        )


@dataclass
class Net:
    """A signal net: one driver, many sinks.

    ``driver`` is ``(instance_name, pin_name)`` or ``None`` when the net is
    driven by a primary input port of the same name.  Sinks are
    ``(instance_name, pin_name)`` pairs; a primary output port appears in
    ``Netlist.ports`` rather than in the sink list.
    """

    name: str
    driver: tuple[str, str] | None = None
    sinks: list[tuple[str, str]] = field(default_factory=list)
    is_clock: bool = False

    @property
    def fanout(self) -> int:
        """Number of sink pins on the net."""
        return len(self.sinks)


class Netlist:
    """The design hypergraph plus primary ports.

    All structural edits go through methods of this class so the
    instance/net cross-references stay consistent; :meth:`validate` checks
    the invariants and is exercised heavily by the property-based tests.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.instances: dict[str, Instance] = {}
        self.nets: dict[str, Net] = {}
        self.ports: dict[str, PortDirection] = {}
        self.clock_port: str | None = None
        self._topology_version = 0
        self._topo_cache: list[Instance] | None = None
        self._topo_cache_version = -1
        self._seq_cache: list[Instance] = []
        self._seq_cache_version = -1

    @property
    def topology_version(self) -> int:
        """Monotonic counter bumped by every structural edit.

        Rebinding a cell (resize/remap) does not change connectivity and
        does not bump the version (unless it swaps a sequential cell for
        a combinational one or back, which reshapes the timing graph);
        connect/disconnect and adding/removing instances, nets, or ports
        do.  Consumers (the cached
        :meth:`topological_order`, the incremental timing session) compare
        versions instead of re-walking the graph.
        """
        return self._topology_version

    def _bump_topology(self) -> None:
        self._topology_version += 1
        self._topo_cache = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_port(
        self, name: str, direction: PortDirection, *, is_clock: bool = False
    ) -> None:
        """Declare a primary port; input ports implicitly create their net."""
        if name in self.ports:
            raise NetlistError(f"duplicate port {name!r}")
        self.ports[name] = direction
        self._bump_topology()
        if direction is PortDirection.INPUT:
            if name in self.nets:
                raise NetlistError(f"net {name!r} already exists for port")
            self.nets[name] = Net(name=name, driver=None, is_clock=is_clock)
            if is_clock:
                if self.clock_port is not None:
                    raise NetlistError("only one clock port is supported")
                self.clock_port = name
        elif is_clock:
            raise NetlistError("clock port must be an input")

    def add_instance(
        self,
        name: str,
        cell: CellType,
        *,
        block: str = "",
        tier: int = 0,
        fixed: bool = False,
    ) -> Instance:
        """Create an unconnected instance."""
        if name in self.instances:
            raise NetlistError(f"duplicate instance {name!r}")
        inst = Instance(name=name, cell=cell, tier=tier, block=block, fixed=fixed)
        self.instances[name] = inst
        self._bump_topology()
        return inst

    def add_net(self, name: str, *, is_clock: bool = False) -> Net:
        """Create an empty (undriven) net."""
        if name in self.nets:
            raise NetlistError(f"duplicate net {name!r}")
        net = Net(name=name, is_clock=is_clock)
        self.nets[name] = net
        self._bump_topology()
        return net

    def connect(self, net_name: str, inst_name: str, pin: str, *,
                at: tuple[int, int] | None = None) -> None:
        """Bind an instance pin to a net, as driver or sink by direction.

        The binding goes last in the net's sink list and among the
        instance's pins, or, with ``at``, back where :meth:`disconnect`
        reported it was.
        """
        net = self._net(net_name)
        inst = self._instance(inst_name)
        spec = inst.cell.pins.get(pin)
        if spec is None:
            raise NetlistError(f"{inst.cell.name} has no pin {pin!r}")
        if inst.net_of(pin) is not None:
            raise NetlistError(f"{inst_name}.{pin} is already connected")
        if spec.direction == "output":
            if net.driver is not None:
                raise NetlistError(f"net {net_name!r} already has a driver")
            net.driver = (inst_name, pin)
        else:
            net.sinks.insert(len(net.sinks) if at is None else at[0],
                             (inst_name, pin))
        inst._pin_nets[pin] = net_name
        if at is not None:
            pins = list(inst._pin_nets.items())
            pins.insert(at[1], pins.pop())
            inst._pin_nets.clear()
            inst._pin_nets.update(pins)
        self._bump_topology()

    def disconnect(self, inst_name: str, pin: str) -> tuple[int, int]:
        """Unbind an instance pin from its net.

        Returns where the binding was, for :meth:`connect`'s ``at``: its
        index in the net's sink list (-1 for the driver) and among the
        instance's bound pins.
        """
        inst = self._instance(inst_name)
        net_name = inst.net_of(pin)
        if net_name is None:
            raise NetlistError(f"{inst_name}.{pin} is not connected")
        net = self._net(net_name)
        if net.driver == (inst_name, pin):
            net.driver = None
            sink_index = -1
        else:
            sink_index = net.sinks.index((inst_name, pin))
            del net.sinks[sink_index]
        pin_index = list(inst._pin_nets).index(pin)
        del inst._pin_nets[pin]
        self._bump_topology()
        return sink_index, pin_index

    def remove_instance(self, inst_name: str) -> None:
        """Delete an instance, unbinding all its pins first."""
        inst = self._instance(inst_name)
        for pin, _net in list(inst.connected_pins()):
            self.disconnect(inst_name, pin)
        del self.instances[inst_name]
        self._bump_topology()

    def remove_net(self, net_name: str) -> None:
        """Delete a net; it must have no connections left."""
        net = self._net(net_name)
        if net.driver is not None or net.sinks:
            raise NetlistError(f"net {net_name!r} still has connections")
        if net_name in self.ports:
            raise NetlistError(f"net {net_name!r} belongs to a port")
        del self.nets[net_name]
        self._bump_topology()

    def rebind(self, inst_name: str, new_cell: CellType) -> None:
        """Swap an instance's cell type (resize or tech remap).

        The new cell must expose every currently-connected pin name; this
        holds for same-function cells across drives and track variants.
        """
        inst = self._instance(inst_name)
        for pin, _net in inst.connected_pins():
            if pin not in new_cell.pins:
                raise NetlistError(
                    f"cannot rebind {inst_name}: {new_cell.name} lacks pin {pin!r}"
                )
        reshapes = new_cell.is_sequential != inst.cell.is_sequential
        inst.cell = new_cell
        if reshapes:
            self._bump_topology()

    # ------------------------------------------------------------------
    # lookups and traversal
    # ------------------------------------------------------------------
    def _instance(self, name: str) -> Instance:
        try:
            return self.instances[name]
        except KeyError:
            raise NetlistError(f"no instance {name!r}") from None

    def _net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"no net {name!r}") from None

    def driver_instance(self, net: Net) -> Instance | None:
        """The instance driving a net, or None for primary-input nets."""
        if net.driver is None:
            return None
        return self.instances[net.driver[0]]

    def fanout_instances(self, inst_name: str) -> Iterator[Instance]:
        """Instances reading any output of ``inst_name`` (may repeat)."""
        inst = self._instance(inst_name)
        for pin, net_name in inst.connected_pins():
            if inst.cell.pins[pin].direction != "output":
                continue
            for sink_name, _sink_pin in self.nets[net_name].sinks:
                yield self.instances[sink_name]

    def fanin_instances(self, inst_name: str) -> Iterator[Instance]:
        """Instances driving any input of ``inst_name`` (may repeat)."""
        inst = self._instance(inst_name)
        for pin, net_name in inst.connected_pins():
            if inst.cell.pins[pin].direction == "output":
                continue
            driver = self.driver_instance(self.nets[net_name])
            if driver is not None:
                yield driver

    def sequential_instances(self) -> list[Instance]:
        """All flip-flops and memory macros.

        Cached against :attr:`topology_version` like
        :meth:`topological_order`; callers must treat the returned list
        as read-only.
        """
        if self._seq_cache_version != self._topology_version:
            self._seq_cache = [
                i for i in self.instances.values() if i.cell.is_sequential
            ]
            self._seq_cache_version = self._topology_version
        return self._seq_cache

    def combinational_instances(self) -> list[Instance]:
        """All non-sequential instances."""
        return [i for i in self.instances.values() if not i.cell.is_sequential]

    def memory_macros(self) -> list[Instance]:
        """All memory macro instances."""
        return [i for i in self.instances.values() if i.cell.is_macro]

    def topological_order(self) -> list[Instance]:
        """Combinational instances in dependency order.

        Sequential cells act as graph sources/sinks (their Q output launches,
        their D input captures), so a legal sequential design yields a
        complete order; a combinational loop raises :class:`NetlistError`.

        The order is cached against :attr:`topology_version`, so repeated
        calls between structural edits are O(1).  Callers must treat the
        returned list as read-only.
        """
        if (self._topo_cache is not None
                and self._topo_cache_version == self._topology_version):
            return self._topo_cache
        instances = self.instances
        nets = self.nets
        indegree: dict[str, int] = {}
        for inst in instances.values():
            cell = inst.cell
            if cell.is_sequential:
                continue
            out_pin = cell.output_pin
            count = 0
            for pin, net_name in inst._pin_nets.items():
                if pin == out_pin:
                    continue
                drv = nets[net_name].driver
                if drv is not None and not instances[drv[0]].cell.is_sequential:
                    count += 1
            indegree[inst.name] = count

        ready = deque(sorted(name for name, d in indegree.items() if d == 0))
        order: list[Instance] = []
        while ready:
            inst = instances[ready.popleft()]
            order.append(inst)
            out_net = inst._pin_nets.get(inst.cell.output_pin)
            if out_net is None:
                continue
            for sink_name, _pin in nets[out_net].sinks:
                if sink_name in indegree:
                    indegree[sink_name] -= 1
                    if indegree[sink_name] == 0:
                        ready.append(sink_name)
        if len(order) != len(indegree):
            raise NetlistError(
                f"combinational loop: ordered {len(order)} of {len(indegree)}"
            )
        self._topo_cache = order
        self._topo_cache_version = self._topology_version
        return order

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    def cell_area_um2(self, predicate: Callable[[Instance], bool] | None = None) -> float:
        """Total cell area, optionally filtered by a predicate."""
        return sum(
            inst.area_um2
            for inst in self.instances.values()
            if predicate is None or predicate(inst)
        )

    def tier_area_um2(self, tier: int) -> float:
        """Total cell area on one tier."""
        return self.cell_area_um2(lambda inst: inst.tier == tier)

    def tiers_used(self) -> tuple[int, ...]:
        """Sorted tuple of tiers that hold at least one instance."""
        return tuple(sorted({inst.tier for inst in self.instances.values()}))

    def cut_nets(self) -> list[Net]:
        """Nets whose pins span more than one tier (each needs MIVs)."""
        cut: list[Net] = []
        for net in self.nets.values():
            tiers = set()
            if net.driver is not None:
                tiers.add(self.instances[net.driver[0]].tier)
            for sink_name, _pin in net.sinks:
                tiers.add(self.instances[sink_name].tier)
            if len(tiers) > 1:
                cut.append(net)
        return cut

    def clock_sinks(self) -> list[tuple[str, str]]:
        """(instance, pin) pairs on the clock net."""
        if self.clock_port is None:
            return []
        return list(self.nets[self.clock_port].sinks)

    def validate(self) -> None:
        """Check the structural invariants; raise on the first violation.

        - every bound pin appears exactly once on its net (right side),
        - every net connection points back to a bound pin,
        - every non-port net has a driver,
        - every input pin of every instance is connected (no floating
          inputs -- the generators guarantee this and the flows preserve it).
        """
        for inst in self.instances.values():
            for pin, net_name in inst.connected_pins():
                net = self.nets.get(net_name)
                if net is None:
                    raise NetlistError(f"{inst.name}.{pin} points at missing net")
                ref = (inst.name, pin)
                if inst.cell.pins[pin].direction == "output":
                    if net.driver != ref:
                        raise NetlistError(f"driver mismatch on {net_name}")
                elif ref not in net.sinks:
                    raise NetlistError(f"sink {ref} missing from {net_name}")
            for pin, spec in inst.cell.pins.items():
                if spec.direction != "output" and inst.net_of(pin) is None:
                    raise NetlistError(f"floating input {inst.name}.{pin}")
        for net in self.nets.values():
            if net.driver is None and net.name not in self.ports:
                raise NetlistError(f"net {net.name} is undriven")
            if net.driver is not None:
                inst_name, pin = net.driver
                inst = self.instances.get(inst_name)
                if inst is None or inst.net_of(pin) != net.name:
                    raise NetlistError(f"stale driver on {net.name}")
            for inst_name, pin in net.sinks:
                inst = self.instances.get(inst_name)
                if inst is None or inst.net_of(pin) != net.name:
                    raise NetlistError(f"stale sink on {net.name}")

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self) -> "Netlist":
        """A structural copy that shares only the immutable cell types.

        The instance, net and port maps, every pin binding and every
        sink list keep their order (replaying :meth:`connect` would
        reorder sink lists), so stages iterate the copy exactly as the
        original.  The topology caches start empty.
        """
        clone = Netlist(self.name)
        clone.ports = dict(self.ports)
        clone.clock_port = self.clock_port
        clone.instances = {
            name: Instance(name, inst.cell, inst.tier, inst.x_um, inst.y_um,
                           inst.block, inst.fixed, dict(inst._pin_nets))
            for name, inst in self.instances.items()
        }
        clone.nets = {
            name: Net(name, net.driver, list(net.sinks), net.is_clock)
            for name, net in self.nets.items()
        }
        return clone

    def unique_name(self, prefix: str) -> str:
        """Generate an instance/net name not currently in use."""
        i = len(self.instances)
        while True:
            candidate = f"{prefix}_{i}"
            if candidate not in self.instances and candidate not in self.nets:
                return candidate
            i += 1

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, {len(self.instances)} instances, "
            f"{len(self.nets)} nets)"
        )

    def summary(self) -> dict[str, float]:
        """Headline statistics used by reports and tests."""
        seq = self.sequential_instances()
        return {
            "instances": len(self.instances),
            "nets": len(self.nets),
            "ports": len(self.ports),
            "sequential": len(seq),
            "macros": len(self.memory_macros()),
            "cell_area_um2": self.cell_area_um2(),
        }
