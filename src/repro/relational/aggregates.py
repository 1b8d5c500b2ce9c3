"""Aggregate functions over weighted bags, including UDAF support.

Following the paper, aggregates are evaluated over tuples with real-valued
multiplicities (Appendix A): an aggregate sees each tuple value ``x`` with
weight ``w`` equal to the tuple's multiplicity.

Most aggregates here are *decomposable*: they can be computed from a fixed
number of weighted feature sums ``S_k = Σ w·f_k(x)`` plus the weight sum
``W = Σ w``. Decomposable aggregates admit the space-efficient *sketch*
states of Section 4.2 and are computed for all bootstrap trials at once
(the sums are maintained per trial). Non-decomposable aggregates
(arbitrary UDAFs) are supported too but force the online AGGREGATE
operator to keep a row store.

Each function also declares:

* ``hadamard_differentiable`` — Section 3.3's precondition for
  sampling-based approximation; the online engine refuses functions where
  this is ``False`` (e.g., MIN/MAX).
* ``scales_with_m`` — whether the estimate extrapolates linearly with the
  inverse sampling fraction ``m_i = |D|/|D_i|`` (SUM/COUNT do, AVG and
  variance-like statistics do not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ExpressionError
from repro.relational.expressions import Col, Expression, lift
from repro.relational.schema import ColumnType


class AggregateFunction:
    """Base class for aggregate functions.

    Decomposable subclasses implement :meth:`features` / :meth:`finalize`;
    non-decomposable ones implement :meth:`compute`.
    """

    name: str = "agg"
    hadamard_differentiable: bool = True
    scales_with_m: bool = False
    decomposable: bool = True
    num_features: int = 0
    output_type: ColumnType = ColumnType.FLOAT

    def features(self, values: np.ndarray) -> np.ndarray:
        """Return a (num_features, n) matrix of feature values.

        ``values`` may be ``None`` for zero-argument aggregates (COUNT).
        """
        raise NotImplementedError

    def finalize(self, feature_sums: np.ndarray, weight_sum: np.ndarray) -> np.ndarray:
        """Combine feature sums into results.

        ``feature_sums`` has shape ``(..., num_features)`` and ``weight_sum``
        shape ``(...)``; the leading axes are broadcast (used to finalize
        the actual result and every bootstrap trial in one call). Groups
        with zero weight finalize to ``nan``.
        """
        raise NotImplementedError

    def compute(self, values: np.ndarray, weights: np.ndarray) -> float:
        """Direct weighted evaluation (required for non-decomposable UDAFs).

        Decomposable functions get this for free via the feature sums.
        """
        if not self.decomposable:
            raise NotImplementedError
        if self.num_features:
            sums = self.features(values) @ weights
        else:
            sums = np.zeros(0)
        return float(self.finalize(sums, np.asarray(weights.sum())))

    def trial_compute(self, values: np.ndarray, trial_weights: np.ndarray) -> np.ndarray:
        """Evaluate all bootstrap trials of one group: (T,) results.

        ``trial_weights`` is the (n, T) per-trial multiplicity matrix. The
        default evaluates :meth:`compute` per trial column — the row-wise
        reference. Selection-based aggregates override this with a
        sort-once kernel (see :mod:`repro.kernels.holistic`); overrides
        must stay bit-identical to this loop.
        """
        t = trial_weights.shape[1]
        out = np.empty(t)
        for j in range(t):
            out[j] = self.compute(values, trial_weights[:, j])
        return out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Count(AggregateFunction):
    """``COUNT(*)`` — the total multiplicity."""

    name = "count"
    scales_with_m = True
    num_features = 0

    def features(self, values: np.ndarray) -> np.ndarray:
        n = 0 if values is None else len(values)
        return np.empty((0, n))

    def finalize(self, feature_sums: np.ndarray, weight_sum: np.ndarray) -> np.ndarray:
        return np.asarray(weight_sum, dtype=np.float64)


class Sum(AggregateFunction):
    """Weighted ``SUM(x)``."""

    name = "sum"
    scales_with_m = True
    num_features = 1

    def features(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)[None, :]

    def finalize(self, feature_sums: np.ndarray, weight_sum: np.ndarray) -> np.ndarray:
        return np.asarray(feature_sums)[..., 0]


class Avg(AggregateFunction):
    """Weighted ``AVG(x)`` — scale-free under uniform sampling."""

    name = "avg"
    scales_with_m = False
    num_features = 1

    def features(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)[None, :]

    def finalize(self, feature_sums: np.ndarray, weight_sum: np.ndarray) -> np.ndarray:
        w = np.asarray(weight_sum, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(w != 0, np.asarray(feature_sums)[..., 0] / w, np.nan)


class Variance(AggregateFunction):
    """Weighted population variance ``VAR(x) = E[x²] − E[x]²``."""

    name = "var"
    scales_with_m = False
    num_features = 2

    def features(self, values: np.ndarray) -> np.ndarray:
        x = np.asarray(values, dtype=np.float64)
        return np.vstack([x, x * x])

    def finalize(self, feature_sums: np.ndarray, weight_sum: np.ndarray) -> np.ndarray:
        w = np.asarray(weight_sum, dtype=np.float64)
        s = np.asarray(feature_sums)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(w != 0, s[..., 0] / w, np.nan)
            mean_sq = np.where(w != 0, s[..., 1] / w, np.nan)
        return np.maximum(mean_sq - mean * mean, 0.0)


class Stddev(Variance):
    """Weighted population standard deviation."""

    name = "stddev"

    def finalize(self, feature_sums: np.ndarray, weight_sum: np.ndarray) -> np.ndarray:
        return np.sqrt(super().finalize(feature_sums, weight_sum))


class GeometricMean(AggregateFunction):
    """``GEOMEAN(x) = exp(E[log x])`` — an example smooth UDAF.

    Used by the Conviva workload (C8–C10) to exercise the paper's claim
    that arbitrary Hadamard-differentiable UDAFs work online.
    """

    name = "geomean"
    scales_with_m = False
    num_features = 1

    def features(self, values: np.ndarray) -> np.ndarray:
        x = np.asarray(values, dtype=np.float64)
        if np.any(x <= 0):
            raise ExpressionError("geomean requires strictly positive values")
        return np.log(x)[None, :]

    def finalize(self, feature_sums: np.ndarray, weight_sum: np.ndarray) -> np.ndarray:
        w = np.asarray(weight_sum, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(w != 0, np.exp(np.asarray(feature_sums)[..., 0] / w), np.nan)


class Min(AggregateFunction):
    """``MIN(x)`` — supported in batch mode only (not Hadamard differentiable)."""

    name = "min"
    hadamard_differentiable = False
    decomposable = False

    def compute(self, values: np.ndarray, weights: np.ndarray) -> float:
        live = np.asarray(values, dtype=np.float64)[np.asarray(weights) > 0]
        return float(live.min()) if len(live) else math.nan


class Max(AggregateFunction):
    """``MAX(x)`` — supported in batch mode only (not Hadamard differentiable)."""

    name = "max"
    hadamard_differentiable = False
    decomposable = False

    def compute(self, values: np.ndarray, weights: np.ndarray) -> float:
        live = np.asarray(values, dtype=np.float64)[np.asarray(weights) > 0]
        return float(live.max()) if len(live) else math.nan


class Quantile(AggregateFunction):
    """Weighted ``q``-quantile (MEDIAN, P90, ...) — a holistic aggregate.

    Non-decomposable (forces the online AGGREGATE's row store) but
    Hadamard differentiable, so the bootstrap error estimates remain
    valid (Section 3.3 covers sample quantiles). The per-trial path is
    the sort-based kernel: one stable sort of the group's values answers
    every bootstrap trial, instead of ``T`` independent ``compute`` calls.
    """

    decomposable = False
    scales_with_m = False

    def __init__(self, q: float, name: str | None = None):
        if not 0.0 < q <= 1.0:
            raise ExpressionError(f"quantile fraction must be in (0, 1], got {q}")
        self.q = q
        self.name = name or f"p{round(q * 100):02d}"

    def compute(self, values: np.ndarray, weights: np.ndarray) -> float:
        from repro.kernels.holistic import weighted_quantile

        return weighted_quantile(values, np.asarray(weights, dtype=np.float64), self.q)

    def trial_compute(self, values: np.ndarray, trial_weights: np.ndarray) -> np.ndarray:
        from repro.kernels.holistic import weighted_quantile_trials

        return weighted_quantile_trials(values, trial_weights, self.q)


class Median(Quantile):
    """Weighted ``MEDIAN(x)`` — the 0.5 quantile."""

    def __init__(self) -> None:
        super().__init__(0.5, name="median")


class DecomposableUDAF(AggregateFunction):
    """User-defined aggregate built from feature maps + a finalizer.

    ``feature_fns`` each map a value array to a feature array; ``finalizer``
    maps ``(feature_sums, weight_sum)`` (NumPy-broadcastable) to results.
    Such UDAFs behave exactly like the built-ins: sketchable state and
    bootstrap support for free.
    """

    decomposable = True

    def __init__(
        self,
        name: str,
        feature_fns: Sequence[Callable[[np.ndarray], np.ndarray]],
        finalizer: Callable[[np.ndarray, np.ndarray], np.ndarray],
        hadamard_differentiable: bool = True,
        scales_with_m: bool = False,
    ):
        self.name = name
        self.feature_fns = list(feature_fns)
        self.finalizer = finalizer
        self.hadamard_differentiable = hadamard_differentiable
        self.scales_with_m = scales_with_m
        self.num_features = len(self.feature_fns)

    def features(self, values: np.ndarray) -> np.ndarray:
        x = np.asarray(values, dtype=np.float64)
        return np.vstack([np.asarray(fn(x), dtype=np.float64) for fn in self.feature_fns])

    def finalize(self, feature_sums: np.ndarray, weight_sum: np.ndarray) -> np.ndarray:
        return np.asarray(
            self.finalizer(np.asarray(feature_sums), np.asarray(weight_sum))
        )


class HolisticUDAF(AggregateFunction):
    """User-defined aggregate evaluated directly on (values, weights).

    Non-decomposable: the online engine keeps the contributing rows in the
    AGGREGATE operator's row store and recomputes the aggregate each batch
    (the paper's "state cannot be compressed into a sketch" case).
    """

    decomposable = False

    def __init__(
        self,
        name: str,
        fn: Callable[[np.ndarray, np.ndarray], float],
        hadamard_differentiable: bool = True,
        scales_with_m: bool = False,
    ):
        self.name = name
        self.fn = fn
        self.hadamard_differentiable = hadamard_differentiable
        self.scales_with_m = scales_with_m

    def compute(self, values: np.ndarray, weights: np.ndarray) -> float:
        return float(self.fn(np.asarray(values, dtype=np.float64), np.asarray(weights)))


@dataclass
class AggSpec:
    """One output column of an AGGREGATE operator: ``name := func(arg)``."""

    name: str
    func: AggregateFunction
    arg: Expression | None = None

    def __post_init__(self) -> None:
        if self.arg is not None:
            self.arg = lift(self.arg)
        if self.arg is None and not isinstance(self.func, Count):
            raise ExpressionError(f"aggregate {self.func.name} requires an argument")

    def attrs(self) -> set[str]:
        return self.arg.attrs() if self.arg is not None else set()

    def arg_values(self, rel) -> np.ndarray | None:
        if self.arg is None:
            return None
        return np.asarray(self.arg.evaluate(rel), dtype=np.float64)

    def __repr__(self) -> str:
        return f"{self.name}={self.func.name}({self.arg!r})"


# Convenience constructors mirroring SQL spellings -----------------------------


def count(name: str = "count") -> AggSpec:
    return AggSpec(name, Count())


def sum_(arg: Expression | str, name: str | None = None) -> AggSpec:
    arg = Col(arg) if isinstance(arg, str) else arg
    return AggSpec(name or "sum", Sum(), arg)


def avg(arg: Expression | str, name: str | None = None) -> AggSpec:
    arg = Col(arg) if isinstance(arg, str) else arg
    return AggSpec(name or "avg", Avg(), arg)


def var(arg: Expression | str, name: str | None = None) -> AggSpec:
    arg = Col(arg) if isinstance(arg, str) else arg
    return AggSpec(name or "var", Variance(), arg)


def stddev(arg: Expression | str, name: str | None = None) -> AggSpec:
    arg = Col(arg) if isinstance(arg, str) else arg
    return AggSpec(name or "stddev", Stddev(), arg)


def geomean(arg: Expression | str, name: str | None = None) -> AggSpec:
    arg = Col(arg) if isinstance(arg, str) else arg
    return AggSpec(name or "geomean", GeometricMean(), arg)


def median(arg: Expression | str, name: str | None = None) -> AggSpec:
    arg = Col(arg) if isinstance(arg, str) else arg
    return AggSpec(name or "median", Median(), arg)


def quantile(q: float, arg: Expression | str, name: str | None = None) -> AggSpec:
    func = Quantile(q)
    arg = Col(arg) if isinstance(arg, str) else arg
    return AggSpec(name or func.name, func, arg)


def min_(arg: Expression | str, name: str | None = None) -> AggSpec:
    arg = Col(arg) if isinstance(arg, str) else arg
    return AggSpec(name or "min", Min(), arg)


def max_(arg: Expression | str, name: str | None = None) -> AggSpec:
    arg = Col(arg) if isinstance(arg, str) else arg
    return AggSpec(name or "max", Max(), arg)


#: Registry used by the SQL planner to resolve aggregate names.
AGG_FUNCTIONS: dict[str, Callable[[], AggregateFunction]] = {
    "count": Count,
    "sum": Sum,
    "avg": Avg,
    "var": Variance,
    "stddev": Stddev,
    "geomean": GeometricMean,
    "min": Min,
    "max": Max,
    "median": Median,
    "p90": lambda: Quantile(0.9),
    "p95": lambda: Quantile(0.95),
    "p99": lambda: Quantile(0.99),
}