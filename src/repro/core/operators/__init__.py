"""Online operator implementations (Sections 4.2, 5.2, 6.2).

These operators form the *stream pipelines* of a compiled online query:
the incremental dataflow over the streamed fact table. Each operator
consumes and produces a :class:`DeltaBatch` per mini-batch:

* ``certain`` — rows emitted *permanently* this batch. Their multiplicity
  can only be confirmed, never revoked (modulo failure recovery), so
  downstream aggregates fold them into sketches and forget them.
* ``volatile`` — the full current contribution of non-deterministic rows,
  recomputed every batch. Downstream operators recompute whatever depends
  on them, which is exactly the recomputation iOLAP's optimizations keep
  small.

Row-level bootstrap state rides along as the relation's ``mult`` (current
point decision) and ``trial_mults`` (per-trial decisions), so a single
mechanism covers both partial-result semantics and error estimation.

State kept between batches follows the paper's delta-update principle:
tuple uncertainty is resolved as early as possible (SELECT/JOIN
non-deterministic stores, re-classified each batch against variation
ranges), attribute uncertainty as late as possible (lineage gids
resolved lazily at use sites). Each operator's between-batch state lives
in a named :class:`~repro.state.StateStore` (see
:mod:`repro.core.operators.base` for the lifecycle contract).
"""

from repro.core.operators.aggregate import AggregateOp, GroupGate
from repro.core.operators.base import (
    DeltaBatch,
    SpineOp,
    StateRule,
    TagRule,
    drive_pipeline,
    empty_relation,
    iter_ops,
)
from repro.core.operators.filter import FilterOp, UncertainFilterOp
from repro.core.operators.join import StaticJoinOp, UncertainJoinOp
from repro.core.operators.project import ProjectOp, RenameOp
from repro.core.operators.scan import ScanOp, StaticEmitOp
from repro.core.operators.sink import RowSinkOp
from repro.core.operators.union import UnionOp

__all__ = [
    "AggregateOp",
    "DeltaBatch",
    "FilterOp",
    "GroupGate",
    "ProjectOp",
    "RenameOp",
    "RowSinkOp",
    "ScanOp",
    "SpineOp",
    "StateRule",
    "StaticEmitOp",
    "StaticJoinOp",
    "TagRule",
    "UncertainFilterOp",
    "UncertainJoinOp",
    "UnionOp",
    "drive_pipeline",
    "empty_relation",
    "iter_ops",
]
