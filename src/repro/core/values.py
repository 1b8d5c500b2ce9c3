"""Uncertain values and variation ranges.

These are the cell-level building blocks of the online engine:

* :class:`VariationRange` — the interval ``R(u)`` of Section 5.1: all
  values an uncertain cell may take during the remaining online execution,
  approximated from bootstrap outputs. Supports the interval arithmetic
  needed to push ranges through projection expressions, and the
  containment/intersection operations used by the integrity monitor.
* :class:`UncertainValue` — a current point estimate plus the per-trial
  bootstrap values and the variation range. Arithmetic operators propagate
  all three, which is how PROJECT expressions over uncertain attributes
  keep classification sound.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import ExpressionError

_INF = math.inf


class VariationRange:
    """A closed interval ``[lo, hi]`` of possible values.

    Immutable, and equal and hashable by value. A slotted class rather
    than a frozen dataclass: a result builds one per uncertain cell every
    batch, and the dataclass cost about twice as much to construct.
    """

    __slots__ = ("lo", "hi")
    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        if lo > hi:
            raise ExpressionError(f"invalid range [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"VariationRange is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"VariationRange is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VariationRange):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __reduce__(self) -> tuple:
        # copy and pickle would otherwise restore the slots by setattr.
        return (VariationRange, (self.lo, self.hi))

    @classmethod
    def point(cls, value: float) -> "VariationRange":
        v = float(value)
        return cls(v, v)

    @classmethod
    def everything(cls) -> "VariationRange":
        return cls(-_INF, _INF)

    @classmethod
    def from_trials(cls, trials: np.ndarray, slack: float) -> "VariationRange":
        """The paper's estimator: ``[min(û) − ε·σ(û), max(û) + ε·σ(û)]``.

        Degenerate-bootstrap guard (a deviation documented in DESIGN.md):
        when every trial output is identical — typically a group backed by
        a single sampled tuple, where Poisson resampling cannot expose any
        variance — the paper's formula collapses to a point range that
        would certify arbitrary pruning and then fail integrity as soon as
        a second tuple arrives. We instead widen such ranges to ±(|v|+1),
        keeping the cell non-deterministic until real resampling variance
        exists.
        """
        clean = np.asarray(trials, dtype=np.float64)
        clean = clean[np.isfinite(clean)]
        if len(clean) == 0:
            return cls.everything()
        lo, hi = float(clean.min()), float(clean.max())
        spread = float(np.std(clean)) * slack
        if hi - lo == 0.0 and spread == 0.0:
            pad = abs(hi) + 1.0
            return cls(lo - pad, hi + pad)
        return cls(lo - spread, hi + spread)

    # -- set operations ---------------------------------------------------------

    def contains(self, other: "VariationRange") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def contains_value(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def intersects(self, other: "VariationRange") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "VariationRange") -> "VariationRange":
        return VariationRange(max(self.lo, other.lo), min(self.hi, other.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    # -- interval arithmetic ------------------------------------------------------

    def __add__(self, other: "VariationRange") -> "VariationRange":
        return VariationRange(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "VariationRange") -> "VariationRange":
        return VariationRange(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "VariationRange") -> "VariationRange":
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        finite = [p for p in products if not math.isnan(p)]
        return VariationRange(min(finite), max(finite))

    def __truediv__(self, other: "VariationRange") -> "VariationRange":
        if other.lo <= 0.0 <= other.hi:
            # Denominator may cross zero: the quotient is unbounded.
            return VariationRange.everything()
        return self * VariationRange(1.0 / other.hi, 1.0 / other.lo)

    def __repr__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


# The slots' own setters: ``__init__`` writes through them, past the
# ``__setattr__`` that keeps every built range immutable.
_set_lo = VariationRange.__dict__["lo"].__set__
_set_hi = VariationRange.__dict__["hi"].__set__


class UncertainValue:
    """A value that may change across batches.

    Carries the current point estimate, the vector of bootstrap-trial
    values and the variation range. Arithmetic with scalars and other uncertain values
    propagates trials elementwise and ranges by interval arithmetic.
    """

    __iolap_uncertain__ = True
    __slots__ = ("value", "trials", "vrange")

    def __init__(
        self,
        value: float,
        trials: np.ndarray,
        vrange: VariationRange | None = None,
    ):
        self.value = float(value)
        self.trials = np.asarray(trials, dtype=np.float64)
        self.vrange = vrange if vrange is not None else VariationRange.everything()

    # -- arithmetic ---------------------------------------------------------------

    def _combine(
        self, other: object, fn: Callable, rop: bool = False
    ) -> "UncertainValue":
        if isinstance(other, UncertainValue):
            a, b = (other, self) if rop else (self, other)
            return UncertainValue(
                fn(a.value, b.value),
                fn(a.trials, b.trials),
                fn(a.vrange, b.vrange),
            )
        if isinstance(other, (int, float, np.integer, np.floating)):
            other_f = float(other)
            point = VariationRange.point(other_f)
            if rop:
                return UncertainValue(
                    fn(other_f, self.value),
                    fn(other_f, self.trials),
                    fn(point, self.vrange),
                )
            return UncertainValue(
                fn(self.value, other_f),
                fn(self.trials, other_f),
                fn(self.vrange, point),
            )
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object):
        return self._combine(other, lambda a, b: a + b)

    def __radd__(self, other: object):
        return self._combine(other, lambda a, b: a + b, rop=True)

    def __sub__(self, other: object):
        return self._combine(other, lambda a, b: a - b)

    def __rsub__(self, other: object):
        return self._combine(other, lambda a, b: a - b, rop=True)

    def __mul__(self, other: object):
        return self._combine(other, lambda a, b: a * b)

    def __rmul__(self, other: object):
        return self._combine(other, lambda a, b: a * b, rop=True)

    def __truediv__(self, other: object):
        return self._combine(other, lambda a, b: a / b)

    def __rtruediv__(self, other: object):
        return self._combine(other, lambda a, b: a / b, rop=True)

    def __float__(self) -> float:
        return self.value

    # -- error estimates (bootstrap) ------------------------------------------------

    def stdev(self) -> float:
        """Bootstrap standard error of the estimate."""
        clean = self.trials[np.isfinite(self.trials)]
        return float(np.std(clean)) if len(clean) else math.nan

    def relative_stdev(self) -> float:
        """Relative standard deviation (the paper's Fig. 7(a) y-axis)."""
        sd = self.stdev()
        if math.isnan(sd) or self.value == 0:
            return math.nan
        return abs(sd / self.value)

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Percentile-bootstrap confidence interval."""
        clean = self.trials[np.isfinite(self.trials)]
        if len(clean) == 0:
            return (math.nan, math.nan)
        alpha = (1.0 - level) / 2.0
        return (
            float(np.quantile(clean, alpha)),
            float(np.quantile(clean, 1.0 - alpha)),
        )

    def __repr__(self) -> str:
        return f"≈{self.value:g} ±{self.stdev():.3g} {self.vrange!r}"
