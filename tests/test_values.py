"""Unit + property tests for variation ranges and uncertain values."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.values import UncertainValue, VariationRange
from repro.errors import ExpressionError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def ranges():
    return st.tuples(finite, finite).map(
        lambda lohi: VariationRange(min(lohi), max(lohi))
    )


class TestVariationRange:
    def test_invalid_rejected(self):
        with pytest.raises(ExpressionError):
            VariationRange(2.0, 1.0)

    def test_point(self):
        r = VariationRange.point(3.0)
        assert r.is_point and r.lo == r.hi == 3.0

    def test_everything_contains_all(self):
        assert VariationRange.everything().contains_value(1e300)

    def test_from_trials_basic(self):
        r = VariationRange.from_trials(np.array([1.0, 2.0, 3.0]), slack=2.0)
        sd = np.std([1.0, 2.0, 3.0])
        assert r.lo == pytest.approx(1.0 - 2 * sd)
        assert r.hi == pytest.approx(3.0 + 2 * sd)

    def test_from_trials_filters_nan(self):
        r = VariationRange.from_trials(np.array([np.nan, 1.0, 3.0]), slack=0.0)
        assert r.lo == 1.0 and r.hi == 3.0

    def test_from_trials_all_nan_is_everything(self):
        r = VariationRange.from_trials(np.array([np.nan, np.nan]), slack=2.0)
        assert r == VariationRange.everything()

    def test_degenerate_guard_widens(self):
        # A single-tuple group: every trial identical. The paper formula
        # would give a point range; the guard widens it (DESIGN.md).
        r = VariationRange.from_trials(np.array([5.0, 5.0, 5.0]), slack=2.0)
        assert r.lo < 5.0 < r.hi
        assert not r.is_point

    def test_contains(self):
        assert VariationRange(0, 10).contains(VariationRange(2, 3))
        assert not VariationRange(0, 10).contains(VariationRange(2, 30))

    def test_intersects(self):
        assert VariationRange(0, 5).intersects(VariationRange(5, 9))
        assert not VariationRange(0, 4).intersects(VariationRange(5, 9))

    def test_intersect(self):
        out = VariationRange(0, 5).intersect(VariationRange(3, 9))
        assert (out.lo, out.hi) == (3, 5)

    def test_width(self):
        assert VariationRange(1, 4).width == 3

    def test_add(self):
        out = VariationRange(1, 2) + VariationRange(10, 20)
        assert (out.lo, out.hi) == (11, 22)

    def test_sub(self):
        out = VariationRange(1, 2) - VariationRange(10, 20)
        assert (out.lo, out.hi) == (-19, -8)

    def test_mul_sign_combinations(self):
        out = VariationRange(-2, 3) * VariationRange(-5, 4)
        assert (out.lo, out.hi) == (-15, 12)

    def test_div(self):
        out = VariationRange(1, 2) / VariationRange(2, 4)
        assert (out.lo, out.hi) == (0.25, 1.0)

    def test_div_through_zero_is_everything(self):
        out = VariationRange(1, 2) / VariationRange(-1, 1)
        assert out == VariationRange.everything()

    @given(ranges(), ranges(), finite, finite)
    def test_interval_arithmetic_sound_add_mul(self, r1, r2, f1, f2):
        """Interval arithmetic must contain every pointwise combination."""
        x = r1.lo + f1 % 1.0 * r1.width if r1.width else r1.lo
        y = r2.lo + f2 % 1.0 * r2.width if r2.width else r2.lo
        assert (r1 + r2).contains_value(x + y) or not (
            r1.contains_value(x) and r2.contains_value(y)
        )
        prod = (r1 * r2)
        if r1.contains_value(x) and r2.contains_value(y):
            assert prod.lo - 1e-6 * (1 + abs(prod.lo)) <= x * y
            assert x * y <= prod.hi + 1e-6 * (1 + abs(prod.hi))


def uv(value, trials, lo=None, hi=None):
    trials = np.asarray(trials, dtype=np.float64)
    r = None
    if lo is not None:
        r = VariationRange(lo, hi)
    return UncertainValue(value, trials, r)


class TestUncertainValue:
    def test_defaults_to_everything(self):
        assert uv(1.0, [1.0]).vrange == VariationRange.everything()

    def test_add_scalar(self):
        out = uv(2.0, [1.0, 3.0], 1.0, 3.0) + 10
        assert out.value == 12.0
        assert list(out.trials) == [11.0, 13.0]
        assert (out.vrange.lo, out.vrange.hi) == (11.0, 13.0)

    def test_radd(self):
        out = 10 + uv(2.0, [1.0], 1.0, 1.0)
        assert out.value == 12.0

    def test_sub_uncertain(self):
        a = uv(5.0, [4.0, 6.0], 4.0, 6.0)
        b = uv(1.0, [1.0, 2.0], 1.0, 2.0)
        out = a - b
        assert out.value == 4.0
        assert list(out.trials) == [3.0, 4.0]
        assert (out.vrange.lo, out.vrange.hi) == (2.0, 5.0)

    def test_rsub(self):
        out = 10 - uv(2.0, [1.0, 3.0], 1.0, 3.0)
        assert out.value == 8.0
        assert list(out.trials) == [9.0, 7.0]

    def test_mul(self):
        out = uv(2.0, [2.0], 2.0, 2.0) * 0.5
        assert out.value == 1.0

    def test_rtruediv(self):
        out = 8 / uv(2.0, [4.0], 1.0, 4.0)
        assert out.value == 4.0
        assert list(out.trials) == [2.0]

    def test_float_coercion(self):
        assert float(uv(2.5, [1.0])) == 2.5

    def test_stdev(self):
        assert uv(0.0, [1.0, 3.0]).stdev() == pytest.approx(1.0)

    def test_stdev_nan_safe(self):
        assert uv(0.0, [np.nan, 2.0, 4.0]).stdev() == pytest.approx(1.0)

    def test_relative_stdev(self):
        assert uv(2.0, [1.0, 3.0]).relative_stdev() == pytest.approx(0.5)

    def test_relative_stdev_zero_value_nan(self):
        assert math.isnan(uv(0.0, [1.0, 3.0]).relative_stdev())

    def test_confidence_interval(self):
        lo, hi = uv(0.0, np.arange(101.0)).confidence_interval(0.90)
        assert lo == pytest.approx(5.0)
        assert hi == pytest.approx(95.0)

    def test_confidence_interval_empty(self):
        lo, hi = uv(0.0, [np.nan]).confidence_interval()
        assert math.isnan(lo) and math.isnan(hi)


class TestVariationRangeIsAValue:
    def test_immutable(self):
        r = VariationRange(1.0, 2.0)
        with pytest.raises(AttributeError):
            r.lo = 5.0
        with pytest.raises(AttributeError):
            del r.hi
        assert (r.lo, r.hi) == (1.0, 2.0)

    def test_equal_and_hashable_by_value(self):
        a, b = VariationRange(1.0, 2.0), VariationRange(1.0, 2.0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != VariationRange(1.0, 3.0)
        assert a != (1.0, 2.0)

    def test_copy_and_pickle_round_trip(self):
        import copy
        import pickle

        r = VariationRange(-1.5, 4.0)
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert twin == r and type(twin) is VariationRange
