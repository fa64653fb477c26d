"""Experiment harnesses: the 4-netlist x 5-configuration evaluation matrix."""

from repro.experiments.configs import CONFIG_NAMES, Configuration, configurations
from repro.experiments.resilience import FailedCell, RetryPolicy
from repro.experiments.runner import (
    EvaluationMatrix,
    clear_memory_caches,
    find_target_period,
    run_configuration,
    run_matrix,
)
from repro.experiments.telemetry import get_telemetry, reset_telemetry

__all__ = [
    "CONFIG_NAMES",
    "Configuration",
    "configurations",
    "EvaluationMatrix",
    "FailedCell",
    "RetryPolicy",
    "clear_memory_caches",
    "find_target_period",
    "run_configuration",
    "run_matrix",
    "get_telemetry",
    "reset_telemetry",
]
