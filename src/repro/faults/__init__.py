"""Deterministic fault injection for the online engine.

Incremental engines live or die by their recovery paths, and recovery
paths rot unless they are exercised on purpose. This package arms
deterministic faults at the engine's recovery seam — variation-range
integrity (``sentinel`` / ``batch`` faults, recovered by the
conservative replay from freshly reset operators) — from a compact spec wired through ``OnlineConfig(faults=...)`` or the CLI
``--faults`` flag::

    iolap run ... --faults "sentinel@16,batch@18"

The chaos test suite (``tests/test_chaos.py``) runs every workload query
under injected faults and asserts the final results match the fault-free
run — the executable form of the paper's Section 5.1 claim that recovery
preserves Theorem 1.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    as_plan,
    parse_fault,
    parse_faults,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "as_plan",
    "parse_fault",
    "parse_faults",
]
