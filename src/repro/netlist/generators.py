"""Synthetic netlist generators for the paper's four evaluation RTLs.

The paper evaluates AES, LDPC, Netcard, and a commercial Cortex-A7 class
CPU (Section IV).  We cannot redistribute those netlists, so each
generator synthesizes a netlist reproducing the *published topology
character* that the evaluation actually exercises:

``aes``
    Cell-dominant 128-bit encryption core: many identical bit-slice
    clouds of the same depth ("all the 128-bits have a very similar
    functional path, making the design very symmetric"), local
    connectivity, shallow-ish logic that closes at ~3 GHz.  The symmetry
    is what makes AES the weakest case for timing-based partitioning.

``ldpc``
    Wire-dominant encoder/decoder: a bipartite Tanner graph between
    variable-node and check-node logic with *random global* connections
    spanning the whole chip ("a high degree of interconnectivity and the
    timing paths span the entire chip").

``netcard``
    The largest netlist: plain modular logic (many medium-depth modules
    with nearest-neighbour and some long-range traffic).

``cpu``
    A general-purpose core: heterogeneous pipeline blocks with very
    different logic depths (a deep multiplier block supplies the
    timing-critical cluster Section III-A1 talks about) plus SRAM cache
    macros contributing ~40% of the footprint, "of the same size in both
    technology variants".

Every generator is deterministic in its ``seed`` and linear in ``scale``;
``scale=1.0`` produces a few thousand instances so that the full 4x5
configuration matrix of the paper runs in minutes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import NetlistError
from repro.liberty.cells import CellFunction
from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Netlist, PortDirection

__all__ = [
    "NetlistSpec",
    "generate_netlist",
    "generate_aes",
    "generate_ldpc",
    "generate_netcard",
    "generate_cpu",
    "DESIGN_NAMES",
]

#: The four evaluation designs, in the paper's table order.
DESIGN_NAMES: tuple[str, ...] = ("netcard", "aes", "ldpc", "cpu")

#: Default combinational function mix (weights) for generic logic.
_GENERIC_MIX: tuple[tuple[CellFunction, float], ...] = (
    (CellFunction.NAND2, 0.22),
    (CellFunction.NOR2, 0.12),
    (CellFunction.INV, 0.14),
    (CellFunction.AND2, 0.10),
    (CellFunction.OR2, 0.08),
    (CellFunction.AOI21, 0.09),
    (CellFunction.OAI21, 0.09),
    (CellFunction.XOR2, 0.06),
    (CellFunction.MUX2, 0.06),
    (CellFunction.NAND3, 0.04),
)

#: XOR-heavy mix for parity/datapath logic (AES mix columns, LDPC checks).
_XOR_MIX: tuple[tuple[CellFunction, float], ...] = (
    (CellFunction.XOR2, 0.45),
    (CellFunction.XNOR2, 0.20),
    (CellFunction.NAND2, 0.12),
    (CellFunction.INV, 0.10),
    (CellFunction.MUX2, 0.08),
    (CellFunction.AOI21, 0.05),
)


@dataclass(frozen=True)
class NetlistSpec:
    """Reproducible recipe for one generated netlist."""

    name: str
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in DESIGN_NAMES:
            raise NetlistError(
                f"unknown design {self.name!r}; expected one of {DESIGN_NAMES}"
            )
        if self.scale <= 0:
            raise NetlistError("scale must be positive")


class _Builder:
    """Shared machinery for emitting clouds of logic and FF banks."""

    def __init__(self, netlist: Netlist, lib: StdCellLibrary, rng: np.random.Generator):
        self.netlist = netlist
        self.lib = lib
        self.rng = rng
        self._counter = 0
        # id(mix) -> (mix, its functions, its cumulative weights)
        self._cdfs: dict[int, tuple] = {}

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def _sample_function(
        self, mix: tuple[tuple[CellFunction, float], ...]
    ) -> CellFunction:
        """Draw one function from ``mix``, exactly as
        ``rng.choice(len(mix), p=weights)`` would: one ``rng.random()``
        looked up in the CDF that ``choice`` builds, kept per mix."""
        table = self._cdfs.get(id(mix))
        if table is None:
            weights = np.array([w for _, w in mix], dtype=float)
            weights /= weights.sum()
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            # the mix rides along so its id stays its own
            table = self._cdfs[id(mix)] = (
                mix, [f for f, _ in mix], cdf.tolist()
            )
        _mix, functions, cdf = table
        return functions[bisect_right(cdf, self.rng.random())]

    def add_gate(
        self,
        function: CellFunction,
        input_nets: list[str],
        *,
        block: str,
        drive: int = 1,
    ) -> str:
        """Emit one gate reading ``input_nets``; return its output net name.

        When the function needs more inputs than supplied, inputs are
        reused (legal: a pin may read any net); extra supplied nets beyond
        the pin count are ignored by taking a prefix.
        """
        cell = self.lib.get(function, drive)
        name = self._fresh(f"{block}_u")
        inst = self.netlist.add_instance(name, cell, block=block)
        out_net = self.netlist.add_net(self._fresh(f"{block}_n"))
        self.netlist.connect(out_net.name, name, cell.output_pin)
        pins = cell.input_pins
        if not input_nets:
            raise NetlistError("gate needs at least one input net")
        for i, pin in enumerate(pins):
            src = input_nets[i % len(input_nets)]
            self.netlist.connect(src, inst.name, pin)
        return out_net.name

    def add_ff(self, d_net: str, *, block: str, drive: int = 1) -> str:
        """Emit one flip-flop capturing ``d_net``; return its Q net name."""
        if self.netlist.clock_port is None:
            raise NetlistError("add a clock port before flip-flops")
        cell = self.lib.get(CellFunction.DFF, drive)
        name = self._fresh(f"{block}_ff")
        self.netlist.add_instance(name, cell, block=block)
        q_net = self.netlist.add_net(self._fresh(f"{block}_q"))
        self.netlist.connect(d_net, name, "D")
        self.netlist.connect(self.netlist.clock_port, name, "CK")
        self.netlist.connect(q_net.name, name, "Q")
        return q_net.name

    def ff_bank(self, d_nets: list[str], *, block: str) -> list[str]:
        """A register stage over a list of nets."""
        return [self.add_ff(d, block=block) for d in d_nets]

    def _level_chain(
        self,
        sources: list[str],
        n_gates: int,
        depth: int,
        block: str,
        mix: tuple[tuple[CellFunction, float], ...],
        pool: list[str],
        global_fraction: float,
    ) -> list[list[str]]:
        """One tapered chain of logic levels; returns the level net lists."""
        raw = [1.0 - 0.5 * l / max(1, depth - 1) for l in range(depth)]
        total = sum(raw)
        widths = [max(1, int(round(n_gates * r / total))) for r in raw]
        levels: list[list[str]] = [list(sources)]
        for width in widths:
            level_nets: list[str] = []
            previous = levels[-1]
            for _g in range(width):
                function = self._sample_function(mix)
                inputs: list[str] = []
                for i in range(function.input_count):
                    if pool and self.rng.random() < global_fraction:
                        inputs.append(pool[int(self.rng.integers(len(pool)))])
                    elif i == 0 or self.rng.random() < 0.7:
                        inputs.append(previous[int(self.rng.integers(len(previous)))])
                    else:
                        # skip-level read, biased toward recent levels
                        back = 1 + int(self.rng.integers(min(3, len(levels))))
                        src_level = levels[-back]
                        inputs.append(
                            src_level[int(self.rng.integers(len(src_level)))]
                        )
                level_nets.append(self.add_gate(function, inputs, block=block))
            levels.append(level_nets)
        return levels

    def cloud(
        self,
        sources: list[str],
        *,
        n_gates: int,
        depth: int,
        n_outputs: int,
        block: str,
        mix: tuple[tuple[CellFunction, float], ...] = _GENERIC_MIX,
        global_pool: list[str] | None = None,
        global_fraction: float = 0.0,
        depth_spread: tuple[float, float] = (0.5, 1.0),
        strata: int = 4,
    ) -> list[str]:
        """Emit a combinational cloud with realistic *cell* depth spread.

        Real designs contain many logic cones of very different depths,
        and only the deepest ones are timing critical -- the premise of
        cell-based timing-driven partitioning (Section III-A1).  A single
        levelized mesh fails to reproduce that (every gate ends up feeding
        the deepest cone), so the cloud is built as ``strata`` independent
        tapered level-chains whose depths span
        ``[depth_spread[0] * depth, depth]``.  Cells of a shallow stratum
        genuinely never reach a deep endpoint, giving the design a broad
        per-cell worst-slack distribution.

        ``depth_spread`` is the per-design symmetry knob: AES uses a tight
        spread (its 128 bit-slices are nearly identical -- the paper's
        hardest case for heterogeneous partitioning), while CPU-style
        logic is diverse.  ``global_fraction`` is the wire-dominance knob
        (LDPC reads from ``global_pool`` across the whole die).

        Returns ``n_outputs`` nets sampled from every stratum's final
        level (deepest stratum first).
        """
        if not sources:
            raise NetlistError("cloud needs source nets")
        depth = max(1, depth)
        pool = list(global_pool) if global_pool else []
        strata = max(1, min(strata, n_gates))

        lo, hi = depth_spread
        depths = [
            max(1, int(round(depth * (hi - (hi - lo) * s / max(1, strata - 1)))))
            for s in range(strata)
        ]
        share = n_gates // strata
        finals: list[list[str]] = []
        for s, sub_depth in enumerate(depths):
            levels = self._level_chain(
                sources,
                share,
                sub_depth,
                block,
                mix,
                pool,
                global_fraction,
            )
            finals.append(levels[-1])

        # Outputs: round-robin over strata, deepest first.
        outputs: list[str] = []
        idx = 0
        while len(outputs) < n_outputs and idx < 64:
            stratum = finals[idx % len(finals)]
            outputs.append(stratum[int(self.rng.integers(len(stratum)))])
            idx += 1
        while len(outputs) < n_outputs:
            src = outputs[int(self.rng.integers(len(outputs)))]
            outputs.append(self.add_gate(CellFunction.BUF, [src], block=block))
        return outputs[:n_outputs]


def _make_base(name: str, lib: StdCellLibrary, n_inputs: int) -> tuple[Netlist, list[str]]:
    """Create the netlist shell: clock plus primary data inputs."""
    netlist = Netlist(name)
    netlist.add_port("clk", PortDirection.INPUT, is_clock=True)
    inputs = []
    for i in range(n_inputs):
        port = f"in_{i}"
        netlist.add_port(port, PortDirection.INPUT)
        inputs.append(port)
    return netlist, inputs


def _expose_outputs(netlist: Netlist, nets: list[str]) -> None:
    """Declare primary output ports named after the nets they observe."""
    for i, net in enumerate(nets):
        netlist.add_port(f"out_{i}__{net}", PortDirection.OUTPUT)


def generate_aes(
    lib: StdCellLibrary, scale: float = 1.0, seed: int = 0
) -> Netlist:
    """Cell-dominant, symmetric 128-bit-slice encryption core.

    ``n_slices`` identical bit-slice clouds of identical depth between an
    input and an output register bank, with a thin XOR "mix" layer coupling
    neighbouring slices (the MixColumns analogue).  All slices share the
    same depth, so path slacks are tightly clustered -- the property that
    defeats timing-criticality separation in the paper.
    """
    rng = np.random.default_rng(seed)
    n_slices = max(4, int(round(32 * scale)))
    gates_per_slice = 56
    slice_depth = 11

    netlist, inputs = _make_base("aes", lib, n_inputs=32)
    b = _Builder(netlist, lib, rng)

    state = b.ff_bank(
        [inputs[i % len(inputs)] for i in range(n_slices * 2)], block="key"
    )
    slice_outputs: list[list[str]] = []
    for s in range(n_slices):
        sources = [state[(2 * s) % len(state)], state[(2 * s + 1) % len(state)]]
        outs = b.cloud(
            sources,
            n_gates=gates_per_slice,
            depth=slice_depth,
            n_outputs=2,
            block=f"sbox{s}",
            mix=_XOR_MIX,
            depth_spread=(0.8, 1.0),  # near-identical paths: paper's worst case
            strata=3,
        )
        slice_outputs.append(outs)

    # Mix layer: XOR each slice with its neighbour (symmetric coupling).
    mixed: list[str] = []
    for s, outs in enumerate(slice_outputs):
        neighbour = slice_outputs[(s + 1) % n_slices]
        mixed.append(
            b.add_gate(
                CellFunction.XOR2, [outs[0], neighbour[1]], block=f"mix{s}"
            )
        )
    final = b.ff_bank(mixed, block="state")
    _expose_outputs(netlist, final[: min(16, len(final))])
    netlist.validate()
    return netlist


def generate_ldpc(
    lib: StdCellLibrary, scale: float = 1.0, seed: int = 0
) -> Netlist:
    """Wire-dominant LDPC decoder: bipartite variable/check Tanner graph.

    Check-node XOR trees read from *randomly chosen* variable nodes across
    the whole design, producing the global, congestion-driving connectivity
    the paper describes ("routing feasibility drives the optimization").
    """
    rng = np.random.default_rng(seed)
    n_vars = max(16, int(round(96 * scale)))
    n_checks = max(12, int(round(96 * scale)))
    check_degree = 10

    netlist, inputs = _make_base("ldpc", lib, n_inputs=48)
    b = _Builder(netlist, lib, rng)

    # Variable nodes: a small local update cloud each, registered.
    var_nets: list[str] = []
    for v in range(n_vars):
        src = [inputs[v % len(inputs)], inputs[(v * 7 + 3) % len(inputs)]]
        outs = b.cloud(
            src, n_gates=6, depth=3, n_outputs=1, block=f"var{v}", mix=_GENERIC_MIX
        )
        var_nets.append(b.add_ff(outs[0], block=f"var{v}"))

    # Check nodes: XOR trees over random global selections of variables.
    check_nets: list[str] = []
    for c in range(n_checks):
        members = rng.choice(n_vars, size=check_degree, replace=False)
        level = [var_nets[int(m)] for m in members]
        block = f"chk{c}"
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(
                    b.add_gate(CellFunction.XOR2, [level[i], level[i + 1]], block=block)
                )
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        # Deepen with a global-reading refinement cloud (wire dominance).
        outs = b.cloud(
            level,
            n_gates=22,
            depth=9,
            n_outputs=1,
            block=block,
            mix=_XOR_MIX,
            global_pool=var_nets,
            global_fraction=0.75,
            depth_spread=(0.55, 1.0),
            strata=2,
        )
        check_nets.append(outs[0])

    final = b.ff_bank(check_nets, block="syndrome")
    _expose_outputs(netlist, final[: min(16, len(final))])
    netlist.validate()
    return netlist


def generate_netcard(
    lib: StdCellLibrary, scale: float = 1.0, seed: int = 0
) -> Netlist:
    """Large plain-logic design: a grid of modules with neighbour traffic.

    The biggest of the four netlists (matching the paper's 250k-cell
    Netcard at full scale), medium depth, with moderate long-range nets
    between modules.
    """
    rng = np.random.default_rng(seed)
    n_modules = max(6, int(round(24 * scale)))
    gates_per_module = 180
    depth = 18

    netlist, inputs = _make_base("netcard", lib, n_inputs=64)
    b = _Builder(netlist, lib, rng)

    module_regs: list[list[str]] = []
    registered_pool: list[str] = []
    for m in range(n_modules):
        src = [inputs[(m * 5 + k) % len(inputs)] for k in range(4)]
        if module_regs:
            # read a few registered nets from the previous modules
            prev = module_regs[int(rng.integers(len(module_regs)))]
            src.extend(prev[:2])
        regs_in = b.ff_bank(src, block=f"mod{m}")
        outs = b.cloud(
            regs_in,
            n_gates=gates_per_module,
            depth=depth,
            n_outputs=4,
            block=f"mod{m}",
            global_pool=registered_pool if registered_pool else None,
            global_fraction=0.08 if registered_pool else 0.0,
            depth_spread=(0.45, 1.0),
        )
        regs_out = b.ff_bank(outs, block=f"mod{m}")
        module_regs.append(regs_out)
        registered_pool.extend(regs_out)

    final = [regs[0] for regs in module_regs]
    _expose_outputs(netlist, final[: min(16, len(final))])
    netlist.validate()
    return netlist


def generate_cpu(
    lib: StdCellLibrary, scale: float = 1.0, seed: int = 0
) -> Netlist:
    """General-purpose CPU core: diverse blocks plus SRAM cache macros.

    Blocks have deliberately different logic depths: the multiplier cloud
    is the deep, physically-clustered timing-critical block of Section
    III-A1, the decode/control blocks are shallow, and the cache macros
    contribute roughly 40% of the footprint as in the paper.
    """
    rng = np.random.default_rng(seed)
    s = scale
    blocks = (
        # (name, gates, depth, outputs, mix)
        ("fetch", int(220 * s), 10, 8, _GENERIC_MIX),
        ("decode", int(360 * s), 12, 12, _GENERIC_MIX),
        ("alu", int(420 * s), 18, 8, _GENERIC_MIX),
        ("mul", int(520 * s), 30, 8, _XOR_MIX),  # the critical cluster
        ("lsu", int(320 * s), 14, 8, _GENERIC_MIX),
        ("ctrl", int(240 * s), 8, 8, _GENERIC_MIX),
    )
    n_macros = max(1, int(round(4 * s)))

    netlist, inputs = _make_base("cpu", lib, n_inputs=48)
    b = _Builder(netlist, lib, rng)

    pipeline_regs = b.ff_bank(inputs[:24], block="fetch")
    block_outputs: dict[str, list[str]] = {}
    prior: list[str] = pipeline_regs
    for name, gates, depth, n_out, mix in blocks:
        if gates < 8:
            gates = 8
        outs = b.cloud(
            prior,
            n_gates=gates,
            depth=depth,
            n_outputs=n_out,
            block=name,
            mix=mix,
            global_pool=pipeline_regs,
            global_fraction=0.10,
            depth_spread=(0.5, 1.0),
        )
        regs = b.ff_bank(outs, block=name)
        block_outputs[name] = regs
        prior = regs

    # Cache macros: addressed by the LSU, feeding decode via registers.
    lsu_regs = block_outputs["lsu"]
    mem_cell = lib.get(CellFunction.MEMORY, 1)
    mem_q_nets: list[str] = []
    for i in range(n_macros):
        inst = netlist.add_instance(
            f"cache_macro_{i}", mem_cell, block="cache", fixed=True
        )
        q_net = netlist.add_net(f"cache_q_{i}")
        netlist.connect(lsu_regs[i % len(lsu_regs)], inst.name, "A")
        netlist.connect(lsu_regs[(i + 1) % len(lsu_regs)], inst.name, "D")
        netlist.connect(netlist.clock_port, inst.name, "CK")
        netlist.connect(q_net.name, inst.name, "Q")
        mem_q_nets.append(q_net.name)

    # Memory outputs go through a short distribution cloud into registers.
    mem_outs = b.cloud(
        mem_q_nets,
        n_gates=int(80 * s) or 8,
        depth=4,
        n_outputs=8,
        block="lsu_rdata",
    )
    mem_regs = b.ff_bank(mem_outs, block="lsu_rdata")

    final = block_outputs["mul"][:4] + mem_regs[:4]
    _expose_outputs(netlist, final)
    netlist.validate()
    return netlist


_GENERATORS = {
    "aes": generate_aes,
    "ldpc": generate_ldpc,
    "netcard": generate_netcard,
    "cpu": generate_cpu,
}


def generate_netlist(
    name: str, lib: StdCellLibrary, scale: float = 1.0, seed: int = 0
) -> Netlist:
    """Generate one of the four evaluation netlists by name."""
    spec = NetlistSpec(name=name, scale=scale, seed=seed)
    return _GENERATORS[spec.name](lib, spec.scale, spec.seed)
