"""Correctness oracle: what makes one query run a failed operation.

One operation = one query run. Besides raising (caught by the caller) it
fails when

* its final result differs from ``run_batch`` on the same catalog
  (Theorem 1: the last mini-batch equals the batch engine);
* ``fraction_processed`` does not increase strictly to 1.0;
* batch 1 shows non-zero estimates but no finite positive error estimate.

``count_drift`` is the cross-run half: engine counts are seed-determined,
so two runs of one seed must agree on them exactly — a count that drifts is
a bug report, not noise.
"""

from __future__ import annotations

import math

from repro.core import PartialResult, UncertainValue
from repro.relational import Relation

#: Relative tolerance of the final-result comparison. The online engine and
#: the batch evaluator add the same floats in different orders, which moves
#: sums of ~1e8 in their last few bits — past ``bag_equal``'s absolute 1e-6.
REL_TOL = 1e-9


def check_final(final: PartialResult, expected: Relation) -> str | None:
    got = final.to_relation()
    if got.bag_equal(expected):
        return None
    if got.schema.names != expected.schema.names:
        return f"result columns {got.schema.names} != {expected.schema.names}"
    mine, theirs = _sorted_bag(got), _sorted_bag(expected)
    if len(mine) != len(theirs):
        return f"{len(mine)} distinct result rows, batch engine has {len(theirs)}"
    for (row_a, mult_a), (row_b, mult_b) in zip(mine, theirs):
        if not all(map(_close, (*row_a, mult_a), (*row_b, mult_b))):
            return f"result row {row_a} x{mult_a} != batch engine {row_b} x{mult_b}"
    return None


def _sorted_bag(rel: Relation) -> list[tuple[tuple, float]]:
    return sorted(rel.to_multiset(12).items(), key=lambda kv: tuple(map(_order, kv[0])))


def _order(value: object) -> tuple:
    if isinstance(value, (int, float)):
        return (0, -math.inf if math.isnan(value) else value, "")
    return (1, 0.0, str(value))


def _close(a: object, b: object) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or math.isclose(
            a, b, rel_tol=REL_TOL, abs_tol=1e-9
        )
    return a == b


def check_fractions(fractions: list[float]) -> str | None:
    increasing = all(a < b for a, b in zip(fractions, fractions[1:]))
    if not fractions or not increasing or fractions[-1] != 1.0:
        return f"fraction_processed does not increase to 1.0: {fractions}"
    return None


def check_first_error(first: PartialResult) -> str | None:
    # A cell estimated at 0 (no qualifying row in batch 1 yet) has no relative
    # error to report; any other estimate must come with one.
    estimated = any(
        isinstance(v, UncertainValue) and math.isfinite(v.value) and v.value != 0
        for row in first.rows
        for v in row.values()
    )
    rsd = first.max_relative_stdev()
    if estimated and not (math.isfinite(rsd) and rsd > 0.0):
        return f"batch 1 has estimates but no finite positive error (rsd={rsd})"
    return None


def count_drift(
    first: dict[str, dict[str, object]], second: dict[str, dict[str, object]]
) -> list[str]:
    """Counts that two runs of one seed both report (query -> name -> count)
    and disagree on."""
    return [
        f"{query} {name}: {first[query][name]} then {value}"
        for query, counts in second.items()
        for name, value in counts.items()
        if query in first and name in first[query] and first[query][name] != value
    ]
