"""Flow-integrity contracts: invariants, enforcement policy, checkpoints.

Long heterogeneous-flow runs are only trustworthy if the flow distrusts
its own intermediate state.  This package wraps every stage of the
``run_flow_*`` pipelines in typed pre/postcondition contracts:

- :mod:`repro.integrity.invariants` -- the checkers (netlist
  connectivity, placement legality, tier consistency incl. the paper's
  level-shifter and critical-area rules, timing sanity, exact cached
  parasitics) returning
  :class:`InvariantViolation` records;
- :mod:`repro.integrity.contracts` -- the ``off``/``warn``/``repair``/
  ``strict`` enforcement policy behind ``--check`` / ``$REPRO_CHECK``,
  with repair hooks and span/metric instrumentation;
- :mod:`repro.integrity.checkpoint` -- checksummed per-stage ``Design``
  serialization under ``--checkpoint-dir`` and the corrupt-tolerant
  ``--from-stage`` resume.
"""

from repro.integrity.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_path,
    design_from_dict,
    design_to_dict,
    latest_valid_checkpoint,
    library_from_spec,
    load_checkpoint,
    write_checkpoint,
)
from repro.integrity.contracts import (
    ENV_CHECK,
    CheckMode,
    current_mode,
    enforce,
    integrity_counts,
    parse_mode,
)
from repro.integrity.invariants import (
    CHECKS,
    InvariantViolation,
    check_connectivity,
    check_design,
    check_parasitics,
    check_placement,
    check_result,
    check_tier_balance,
    check_tiers,
    check_timing,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKS",
    "CheckMode",
    "ENV_CHECK",
    "InvariantViolation",
    "check_connectivity",
    "check_design",
    "check_parasitics",
    "check_placement",
    "check_result",
    "check_tier_balance",
    "check_tiers",
    "check_timing",
    "checkpoint_path",
    "current_mode",
    "design_from_dict",
    "design_to_dict",
    "enforce",
    "integrity_counts",
    "latest_valid_checkpoint",
    "library_from_spec",
    "load_checkpoint",
    "parse_mode",
    "write_checkpoint",
]
