"""Tests for range-based predicate classification (Section 5.2)."""

import numpy as np

from repro.core.blocks import OnlineConfig, RuntimeContext
from repro.core.classify import (
    FALSE,
    PENDING,
    TRUE,
    UNKNOWN,
    classify_comparison,
    combine_conjuncts,
    evaluate_side,
)
from repro.core.values import UncertainValue, VariationRange
from repro.relational import Catalog, ColumnType, Relation, Schema
from repro.relational.expressions import Col, Comparison, col
from tests.conftest import Group, gid_column, publish_group

SCHEMA = Schema([("d", ColumnType.FLOAT), ("u", ColumnType.FLOAT)])


def make_ctx(t=4):
    ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=t))
    ctx.batch_no = 1
    return ctx


def publish(ctx, value, trials, lo, hi, key=(), block=1, colname="v"):
    uv = UncertainValue(value, np.asarray(trials, dtype=float), VariationRange(lo, hi))
    publish_group(ctx, block, [colname], Group(key, {colname: uv}, True))


def rel(ctx, d_values, keys=None, block=1, colname="v"):
    """Rows ``d``, each with ``u`` referencing group ``(keys[i],)`` (``()``
    for None) of ``block``'s column ``colname``."""
    keys = [() if keys is None else (k,) for k in (keys or [None] * len(d_values))]
    gids, lineage = gid_column(ctx, block, keys, colname)
    return Relation._from_parts(
        SCHEMA, {"d": np.asarray(d_values, dtype=float), "u": gids},
        np.ones(len(gids)), lineage={"u": lineage},
    )


class TestEvaluateSide:
    def test_deterministic_side(self):
        ctx = make_ctx()
        side = evaluate_side(col("d") * 2, rel(ctx, [1.0, 2.0]), {"u"}, ctx)
        assert list(side.point) == [2.0, 4.0]
        assert (side.lo == side.hi).all()
        assert side.trials is None

    def test_bare_uncertain_column(self):
        ctx = make_ctx()
        publish(ctx, 10.0, [9.0, 10.0, 11.0, 10.0], 8.0, 12.0)
        side = evaluate_side(Col("u"), rel(ctx, [0.0, 0.0]), {"u"}, ctx)
        assert list(side.point) == [10.0, 10.0]
        assert side.lo[0] == 8.0 and side.hi[0] == 12.0
        assert side.trials.shape == (2, 4)

    def test_expression_over_uncertain(self):
        ctx = make_ctx()
        publish(ctx, 10.0, [10.0] * 4, 8.0, 12.0)
        side = evaluate_side(Col("u") * 0.5, rel(ctx, [0.0]), {"u"}, ctx)
        assert side.point[0] == 5.0
        assert side.lo[0] == 4.0 and side.hi[0] == 6.0

    def test_pending_unresolved_ref(self):
        ctx = make_ctx()  # nothing published
        side = evaluate_side(Col("u"), rel(ctx, [0.0]), {"u"}, ctx)
        assert side.pending[0]


class TestClassifyComparison:
    def setup_ctx(self):
        ctx = make_ctx()
        publish(ctx, 10.0, [9.0, 10.0, 11.0, 10.0], 8.0, 12.0)
        return ctx

    def test_greater_partitions(self):
        ctx = self.setup_ctx()
        # d > u with R(u) = [8, 12]
        r = rel(ctx, [20.0, 1.0, 10.5])
        res = classify_comparison(Comparison(">", Col("d"), Col("u")), r, {"u"}, ctx)
        assert list(res.status) == [TRUE, FALSE, UNKNOWN]

    def test_point_decisions(self):
        ctx = self.setup_ctx()
        r = rel(ctx, [20.0, 1.0, 10.5])
        res = classify_comparison(Comparison(">", Col("d"), Col("u")), r, {"u"}, ctx)
        assert list(res.point) == [True, False, True]  # current estimate 10

    def test_trial_decisions(self):
        ctx = self.setup_ctx()
        r = rel(ctx, [10.5])
        res = classify_comparison(Comparison(">", Col("d"), Col("u")), r, {"u"}, ctx)
        # trials are [9, 10, 11, 10]: 10.5 > trial?
        assert list(res.trials[0]) == [True, True, False, True]

    def test_less_than(self):
        ctx = self.setup_ctx()
        r = rel(ctx, [1.0, 20.0, 9.0])
        res = classify_comparison(Comparison("<", Col("d"), Col("u")), r, {"u"}, ctx)
        assert list(res.status) == [TRUE, FALSE, UNKNOWN]

    def test_boundary_is_unknown_for_ge(self):
        ctx = self.setup_ctx()
        res = classify_comparison(
            Comparison(">=", Col("d"), Col("u")), rel(ctx, [12.0]), {"u"}, ctx
        )
        assert res.status[0] == TRUE  # 12 >= hi(R)=12 always

    def test_equality_disjoint_false(self):
        ctx = self.setup_ctx()
        res = classify_comparison(
            Comparison("==", Col("d"), Col("u")), rel(ctx, [99.0]), {"u"}, ctx
        )
        assert res.status[0] == FALSE

    def test_equality_overlapping_unknown(self):
        ctx = self.setup_ctx()
        res = classify_comparison(
            Comparison("==", Col("d"), Col("u")), rel(ctx, [10.0]), {"u"}, ctx
        )
        assert res.status[0] == UNKNOWN

    def test_pending_rows_marked(self):
        ctx = self.setup_ctx()
        r = rel(ctx, [5.0], keys=["missing"], block=1)
        res = classify_comparison(Comparison(">", Col("d"), Col("u")), r, {"u"}, ctx)
        assert res.status[0] == PENDING
        assert not res.point[0]

    def test_per_group_ranges(self):
        ctx = make_ctx()
        publish(ctx, 5.0, [5.0] * 4, 4.0, 6.0, key=("a",))
        publish(ctx, 50.0, [50.0] * 4, 40.0, 60.0, key=("b",))
        r = rel(ctx, [10.0, 10.0], keys=["a", "b"])
        res = classify_comparison(Comparison(">", Col("d"), Col("u")), r, {"u"}, ctx)
        assert list(res.status) == [TRUE, FALSE]

    def test_expression_range_arithmetic(self):
        ctx = self.setup_ctx()
        # d > 2*u: R(2u) = [16, 24]
        res = classify_comparison(
            Comparison(">", Col("d"), Col("u") * 2), rel(ctx, [30.0, 10.0, 20.0]), {"u"}, ctx
        )
        assert list(res.status) == [TRUE, FALSE, UNKNOWN]


class TestCombineConjuncts:
    def make_results(self, ctx, d1, d2):
        r = rel(ctx, d1)
        c1 = classify_comparison(Comparison(">", Col("d"), Col("u")), r, {"u"}, ctx)
        r2 = rel(ctx, d2)
        c2 = classify_comparison(Comparison("<", Col("d"), Col("u")), r2, {"u"}, ctx)
        return c1, c2

    def test_single_passthrough(self):
        ctx = make_ctx()
        publish(ctx, 10.0, [10.0] * 4, 8.0, 12.0)
        res = classify_comparison(
            Comparison(">", Col("d"), Col("u")), rel(ctx, [20.0]), {"u"}, ctx
        )
        assert combine_conjuncts([res], 4) is res

    def test_false_dominates(self):
        ctx = make_ctx()
        publish(ctx, 10.0, [10.0] * 4, 8.0, 12.0)
        a, b = self.make_results(ctx, [20.0], [20.0])  # TRUE and FALSE
        combined = combine_conjuncts([a, b], 4)
        assert combined.status[0] == FALSE

    def test_unknown_beats_true(self):
        ctx = make_ctx()
        publish(ctx, 10.0, [9.0, 11.0, 10.0, 10.0], 8.0, 12.0)
        a, b = self.make_results(ctx, [20.0], [5.0])  # TRUE and TRUE? no: 5<u TRUE
        combined = combine_conjuncts([a, b], 4)
        assert combined.status[0] == TRUE
        c = classify_comparison(
            Comparison(">", Col("d"), Col("u")), rel(ctx, [10.0]), {"u"}, ctx
        )
        combined2 = combine_conjuncts([a, c], 4)
        assert combined2.status[0] == UNKNOWN

    def test_points_and_together(self):
        ctx = make_ctx()
        publish(ctx, 10.0, [10.0] * 4, 8.0, 12.0)
        a, b = self.make_results(ctx, [11.0], [11.0])
        combined = combine_conjuncts([a, b], 4)
        assert combined.point[0] == (a.point[0] and b.point[0])

    def test_trials_and_together(self):
        ctx = make_ctx()
        publish(ctx, 10.0, [9.0, 10.0, 11.0, 12.0], 8.0, 12.0)
        a, _ = self.make_results(ctx, [10.5], [10.5])
        b = classify_comparison(
            Comparison("<", Col("d"), Col("u")), rel(ctx, [10.5]), {"u"}, ctx
        )
        combined = combine_conjuncts([a, b], 4)
        expected = a.trial_matrix(4)[0] & b.trial_matrix(4)[0]
        assert list(combined.trial_matrix(4)[0]) == list(expected)
