"""The five technology/design configurations of Fig. 1.

(a) 12-track 2-D, (b) 9-track 2-D, (c) 12-track 3-D, (d) 9-track 3-D,
and (e) 9+12-track heterogeneous 3-D.  Each configuration knows how to
run its flow; the runner module handles frequency targeting and caching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.flow.design import Design
from repro.flow.flow2d import run_flow_2d
from repro.flow.hetero import run_flow_hetero_3d
from repro.flow.pin3d import run_flow_pin3d
from repro.flow.report import FlowResult
from repro.liberty.library import StdCellLibrary
from repro.liberty.presets import make_library_pair

__all__ = ["CONFIG_NAMES", "Configuration", "configurations"]

#: Table VII column order.
CONFIG_NAMES: tuple[str, ...] = (
    "2D_9T",
    "2D_12T",
    "3D_9T",
    "3D_12T",
    "3D_HET",
)


@dataclass(frozen=True)
class Configuration:
    """One of the five Fig. 1 configurations."""

    name: str
    tiers: int
    tracks: str  # "9", "12", or "9+12"
    description: str
    _runner: Callable[..., tuple[Design, FlowResult]]

    def run(
        self,
        design_name: str,
        *,
        period_ns: float,
        scale: float,
        seed: int,
        **kwargs,
    ) -> tuple[Design, FlowResult]:
        """Implement ``design_name`` in this configuration."""
        return self._runner(
            design_name, period_ns=period_ns, scale=scale, seed=seed, **kwargs
        )


def configurations() -> dict[str, Configuration]:
    """Build the five configurations over the (12-track, 9-track) pair."""
    lib12, lib9 = make_library_pair()

    def flow_2d(lib: StdCellLibrary):
        def run(name: str, **kw) -> tuple[Design, FlowResult]:
            return run_flow_2d(name, lib, **kw)

        return run

    def flow_3d(lib: StdCellLibrary):
        def run(name: str, **kw) -> tuple[Design, FlowResult]:
            return run_flow_pin3d(name, lib, **kw)

        return run

    def flow_het(name: str, **kw) -> tuple[Design, FlowResult]:
        return run_flow_hetero_3d(name, lib12, lib9, **kw)

    return {
        "2D_9T": Configuration(
            "2D_9T", 1, "9", "9-track 2-D (slow & small)", flow_2d(lib9)
        ),
        "2D_12T": Configuration(
            "2D_12T", 1, "12", "12-track 2-D (fast & large)", flow_2d(lib12)
        ),
        "3D_9T": Configuration(
            "3D_9T", 2, "9", "9-track homogeneous M3D", flow_3d(lib9)
        ),
        "3D_12T": Configuration(
            "3D_12T", 2, "12", "12-track homogeneous M3D", flow_3d(lib12)
        ),
        "3D_HET": Configuration(
            "3D_HET", 2, "9+12", "9+12-track heterogeneous M3D", flow_het
        ),
    }
