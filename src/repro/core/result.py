"""Partial query results delivered to the user each mini-batch."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.values import UncertainValue
from repro.metrics.stats import BatchMetrics
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@dataclass
class PartialResult:
    """The approximate answer after one mini-batch (Section 2 semantics).

    ``rows`` hold plain Python scalars for deterministic cells and
    :class:`UncertainValue` for approximate ones, so both the estimate and
    its bootstrap error are available per cell.
    """

    batch_no: int
    num_batches: int
    fraction_processed: float
    schema: Schema
    rows: list[dict[str, object]]
    metrics: BatchMetrics
    #: True for the final batch: the answer equals the exact batch result.
    is_final: bool = False

    def to_plain_rows(self) -> list[dict[str, object]]:
        """Rows with uncertain cells collapsed to their point estimates."""
        out = []
        for row in self.rows:
            out.append(
                {
                    k: (v.value if isinstance(v, UncertainValue) else v)
                    for k, v in row.items()
                }
            )
        return out

    def to_relation(self) -> Relation:
        """Materialize the point estimates as a relation (for comparison
        against the batch baseline)."""
        return Relation.from_rows(self.schema, self.to_plain_rows())

    def max_relative_stdev(self) -> float:
        """Worst relative standard deviation across all uncertain cells —
        the paper's Figure 7(a) accuracy measure (NaN when nothing is
        uncertain or no estimate is available)."""
        worst = float("nan")
        for row in self.rows:
            for v in row.values():
                if isinstance(v, UncertainValue):
                    rsd = v.relative_stdev()
                    if math.isnan(rsd):
                        continue
                    if math.isnan(worst) or rsd > worst:
                        worst = rsd
        return worst

    def confidence_intervals(self, level: float = 0.95) -> list[dict[str, tuple]]:
        """Per-row confidence intervals for every uncertain cell."""
        out = []
        for row in self.rows:
            ci = {
                k: v.confidence_interval(level)
                for k, v in row.items()
                if isinstance(v, UncertainValue)
            }
            out.append(ci)
        return out

    def sorted_plain_rows(self) -> list[dict[str, object]]:
        rows = self.to_plain_rows()
        names = self.schema.names
        rows.sort(key=lambda r: tuple(_key(r[c]) for c in names))
        return rows


def _key(value: object) -> tuple:
    if isinstance(value, (int, float, np.integer, np.floating)):
        f = float(value)
        return ("0num", -math.inf if math.isnan(f) else f)
    return (type(value).__name__, str(value))
