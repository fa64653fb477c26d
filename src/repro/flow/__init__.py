"""Design flows: 2-D reference, homogeneous Pin-3D, and Hetero-Pin-3D."""

from repro.flow.design import Design
from repro.flow.flow2d import run_flow_2d
from repro.flow.hetero import run_flow_hetero_3d
from repro.flow.pin3d import run_flow_pin3d
from repro.flow.report import FlowResult, finalize_design
from repro.flow.synthesis import initial_sizing

__all__ = [
    "Design",
    "FlowResult",
    "finalize_design",
    "run_flow_2d",
    "run_flow_pin3d",
    "run_flow_hetero_3d",
    "initial_sizing",
]
