"""Grid-based routing congestion estimation.

A coarse global-router model: the die is divided into a uniform bin grid,
each net spreads its estimated Steiner length uniformly over its bounding
box, and every bin compares accumulated demand against the track capacity
of the metal stack (six signal layers per tier, as in Section IV-A1).

The single number the flows consume is :attr:`CongestionMap.peak_demand`
(the 98th-percentile bin utilization): designs whose peak exceeds 1.0 are
unroutable at the current floorplan and must lower utilization -- the
mechanism that forces the wire-dominated LDPC to 64% density in Table VI
while cell-dominated designs close at ~86%.

Each net reduces to one strip record of plain floats, replayed in net
order into a flat list of bins; the placement session caches the records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.liberty.library import StdCellLibrary
from repro.netlist.core import Instance, Net, Netlist
from repro.obs import emit_metric, span
from repro.timing.delaycalc import steiner_correction

__all__ = ["CongestionMap", "analyze_congestion"]

#: Signal routing layers available per tier (paper: six per tier).
SIGNAL_LAYERS_PER_TIER = 6

#: Routing track pitch in um (shared BEOL between the track variants).
TRACK_PITCH_UM = 0.10

#: Fraction of raw track capacity usable by the global router.
CAPACITY_DERATE = 0.36


@dataclass(frozen=True)
class CongestionMap:
    """Result of one congestion analysis."""

    bins: int
    demand: np.ndarray  # (bins, bins) wirelength demand per bin, um
    capacity_um: float  # routable wirelength per bin

    @property
    def utilization(self) -> np.ndarray:
        """Per-bin demand over capacity."""
        return self.demand / self.capacity_um

    @property
    def peak_demand(self) -> float:
        """98th-percentile bin utilization (robust peak)."""
        return float(np.percentile(self.utilization, 98.0))

    @property
    def overflow_fraction(self) -> float:
        """Fraction of bins whose demand exceeds capacity."""
        return float(np.mean(self.utilization > 1.0))

    def detour_factor(self) -> float:
        """Routed-wirelength inflation caused by congestion detours.

        Calibrated to a gentle super-linear ramp: uncongested designs pay
        nothing; designs at the routability cliff pay ~10-15%.
        """
        over = max(0.0, self.peak_demand - 0.7)
        return 1.0 + 0.25 * over * over


def analyze_congestion(
    netlist: Netlist,
    lib: StdCellLibrary,
    width_um: float,
    height_um: float,
    tiers: int,
    *,
    bins: int = 16,
) -> CongestionMap:
    """Accumulate per-bin routing demand from placed-net bounding boxes."""
    with span("congestion", bins=bins, tiers=tiers):
        result = _analyze(netlist, lib, width_um, height_um, tiers, bins)
        emit_metric("peak_congestion", result.peak_demand)
        emit_metric("congestion_overflow", result.overflow_fraction)
    return result


def _net_strips(
    net: Net,
    instances: dict[str, Instance],
    pads: dict[str, tuple[float, float]],
    bins: int,
    bin_w: float,
    bin_h: float,
) -> tuple[int, int, int, int, int, float, float] | None:
    """One net's L-route demand as ``(dy0, bx0, bx1, by0, by1, h, v)``.

    Model each net as an L-route: the horizontal span runs along the
    driver's row ``dy0`` of bins (columns ``bx0..bx1``, ``h`` each), the
    vertical span along the far column ``bx1`` (rows ``by0..by1``, ``v``
    each).  Spreading demand over the whole bbox *area* would dilute
    exactly the long global nets that create congestion (LDPC's defining
    feature); an L concentrates it the way a global router does.
    Driverless (port-driven) nets anchor at the pad-ring coordinate of
    the port, so edge demand is not folded onto the first sink.
    Returns ``None`` for nets that place no demand (clock, degenerate).
    """
    if net.is_clock:
        return None
    points = []
    if net.driver is not None:
        points.append(instances[net.driver[0]].center())
    else:
        pad = pads.get(net.name)
        if pad is not None:
            points.append(pad)
    for sink, _pin in net.sinks:
        points.append(instances[sink].center())
    if len(points) < 2:
        return None
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    hpwl = (xmax - xmin) + (ymax - ymin)
    length = hpwl * steiner_correction(len(net.sinks))
    if length <= 0:
        return None
    last = bins - 1
    bx0 = int(min(max(xmin / bin_w, 0), last))
    bx1 = int(min(max(xmax / bin_w, 0), last))
    by0 = int(min(max(ymin / bin_h, 0), last))
    by1 = int(min(max(ymax / bin_h, 0), last))
    correction = length / max(hpwl, 1e-9)
    dy0 = int(min(max(points[0][1] / bin_h, by0), by1))
    h = (xmax - xmin) * correction / (bx1 - bx0 + 1)
    v = (ymax - ymin) * correction / (by1 - by0 + 1)
    return dy0, bx0, bx1, by0, by1, h, v


def _accumulate(strips, bins: int) -> np.ndarray:
    """Replay per-net strips into a (bins, bins) demand grid.

    Each bin's addends arrive in net order, horizontal run before
    vertical run, through scalar ``+=`` on a flat list of floats.
    """
    demand = [0.0] * (bins * bins)
    for strip in strips:
        if strip is None:
            continue
        dy0, bx0, bx1, by0, by1, h, v = strip
        row = dy0 * bins
        for k in range(row + bx0, row + bx1 + 1):
            demand[k] += h
        for k in range(by0 * bins + bx1, by1 * bins + bx1 + 1, bins):
            demand[k] += v
    return np.array(demand).reshape(bins, bins)


def _bin_capacity(bin_w: float, bin_h: float, tiers: int) -> float:
    tracks = (bin_w / TRACK_PITCH_UM) * SIGNAL_LAYERS_PER_TIER * tiers
    return tracks * bin_h * CAPACITY_DERATE


def _analyze(
    netlist: Netlist,
    lib: StdCellLibrary,
    width_um: float,
    height_um: float,
    tiers: int,
    bins: int,
) -> CongestionMap:
    # Imported lazily: repro.place pulls in the session module, which in
    # turn imports this one -- a top-level import would be circular.
    from repro.place.floorplan import port_ring

    bin_w = width_um / bins
    bin_h = height_um / bins
    pads = port_ring(netlist, width_um, height_um)
    instances = netlist.instances
    demand = _accumulate(
        (
            _net_strips(net, instances, pads, bins, bin_w, bin_h)
            for net in netlist.nets.values()
        ),
        bins,
    )
    return CongestionMap(
        bins=bins, demand=demand, capacity_um=_bin_capacity(bin_w, bin_h, tiers)
    )
