"""Sketch states for online AGGREGATE operators (Section 4.2).

Decomposable aggregates maintain, per group, the weighted feature sums
``S_k = Σ w·f_k(x)`` and the weight sum ``W = Σ w`` — once for the actual
multiplicities and once per bootstrap trial. Folding a mini-batch into the
sketch is the delta update; finalizing is a pure function of the sums, so
partial results can be published every batch at sketch cost instead of
data cost.

:class:`AggBundle` keeps all of a group's sums in one accumulator,
``acc``, of shape ``(capacity, 1+K, 1+T)`` where ``K`` counts the
features of every spec. Row 0 of a group's block holds its weights and
row ``1+j`` its sums of feature ``j`` (each spec owns a contiguous run of
rows, ``feature_rows``); column 0 is the actual multiplicity and column
``1+t`` trial ``t``. The persistent operator state folds batches in place
with capacity doubling; transient bundles are also built from the
volatile (non-deterministic) input rows each batch and merged at
finalize time without touching the persistent sums.

Every fold is one contraction per group. The call's rows are sorted by
group once (:class:`~repro.relational.groupby.RowSegments`) and two
matrices are built: ``W = [mult | trial weights]``, ``(n, 1+T)`` — the
``uint8`` Poisson counts widen here, once — and ``A = [1; features]``,
``(1+K, n)``. A group's whole block is then ``A[:, seg] @ W[seg]``, and
the call writes every block with one ``acc[groups] += ...``. Two
degenerate cases of the same contraction are measured and kept: a bundle
with no feature (COUNT only, ``K = 0``, a plan property) takes plain
segmented sums of the counts, and length-1 segments are outer products
formed in one broadcast multiply (exact, so the bits equal a one-row
product).

Bit contract: a group's block depends only on that group's own rows in
their original order, never on which other groups share the call or
where its rows sit, which is what keeps every engine configuration of one
seed bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.relational.aggregates import AggSpec
from repro.relational.groupby import RowSegments, group_ids
from repro.relational.relation import Relation

GroupKey = tuple


@dataclass
class SketchRow:
    """One group's accumulator block, detached from the bundle.

    The unit of tier migration: :meth:`AggBundle.extract_groups` hands
    these to the rollup store, and :meth:`AggBundle.reinsert_groups`
    folds them back verbatim on demotion, so a migrate/demote round trip
    is bit-exact.
    """

    acc: np.ndarray  # (1+K, 1+T)

    def estimated_bytes(self) -> int:
        return int(self.acc.nbytes)


class AggBundle:
    """Per-group (actual + per-trial) weighted feature sums."""

    def __init__(self, specs: Sequence[AggSpec], num_trials: int):
        self.specs = list(specs)
        self.num_trials = num_trials
        self.keys: list[GroupKey] = []
        self.key_to_gid: dict[GroupKey, int] = {}
        ends = np.cumsum([1] + [s.func.num_features for s in self.specs]).tolist()
        #: Each spec's feature rows of a group's block (row 0 is weights).
        self.feature_rows = [slice(a, b) for a, b in zip(ends, ends[1:])]
        self.acc = np.zeros((0, ends[-1], 1 + num_trials), dtype=np.float64)

    def __len__(self) -> int:
        return len(self.keys)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_relation(
        cls,
        rel: Relation,
        group_by: Sequence[str],
        specs: Sequence[AggSpec],
        num_trials: int,
    ) -> "AggBundle":
        """One-shot bundle from a relation (used for volatile inputs)."""
        bundle = cls(specs, num_trials)
        bundle.fold(rel, group_by)
        return bundle

    def _ensure_groups(self, keys: Sequence[GroupKey]) -> np.ndarray:
        """Map keys to gids, allocating rows for unseen groups."""
        gids = list(map(self.key_to_gid.get, keys))
        if None in gids:
            misses = np.flatnonzero(np.equal(np.array(gids, dtype=object), None))
            for i in misses.tolist():
                key = keys[i]  # may repeat among the misses
                gids[i] = self.key_to_gid.setdefault(key, len(self.keys))
                if gids[i] == len(self.keys):
                    self.keys.append(key)
            self._grow(len(self.keys))
        return np.array(gids, dtype=np.intp)

    def _grow(self, size: int) -> None:
        """Make room for ``size`` groups, at least doubling the capacity.

        Rows past ``len(self)`` are spare capacity (all zero); readers
        slice ``[: len(self)]``.
        """
        capacity = self.acc.shape[0]
        if size <= capacity:
            return
        grown = np.zeros((max(size, 2 * capacity),) + self.acc.shape[1:])
        grown[:capacity] = self.acc
        self.acc = grown

    # -- delta update ---------------------------------------------------------------

    def fold(self, rel: Relation, group_by: Sequence[str]) -> None:
        """Fold a mini-batch of rows into the sums (the delta update)."""
        n = len(rel)
        if n == 0:
            return
        local_keys, local_gids = group_ids(rel, list(group_by))
        segments = RowSegments(self._ensure_groups(local_keys)[local_gids])
        order, groups = segments.order, segments.groups
        mult = rel.mult[order]
        trial_w = rel.trials_at(order)  # lazy weights: drawn in fold order
        if trial_w is None:  # deterministic mult: a read-only broadcast
            trial_w = np.broadcast_to(mult[:, None], (n, self.num_trials))
        if self.acc.shape[1] == 1:
            # No feature (COUNT only): no product to avoid, so the counts
            # are summed as they are, without widening.
            self.acc[groups, 0, 0] += segments.sums(mult)
            self.acc[groups, 0, 1:] += segments.sums(trial_w)
            return
        weights = np.empty((n, 1 + self.num_trials))
        weights[:, 0] = mult
        weights[:, 1:] = trial_w
        features = np.empty((self.acc.shape[1], n))
        features[0] = 1.0
        for spec, rows in zip(self.specs, self.feature_rows):
            if spec.func.num_features:
                features[rows] = spec.func.features(spec.arg_values(rel))[:, order]
        self.acc[groups] += segments.contract(features, weights)

    def fold_values(
        self,
        keys: Sequence[GroupKey],
        spec_index: int,
        values: np.ndarray,
        trial_values: np.ndarray,
        mult: np.ndarray,
        trial_mults: np.ndarray,
    ) -> None:
        """Fold rows whose aggregate argument is itself uncertain.

        ``values`` holds the per-row point arguments, ``trial_values`` the
        (n, T) per-trial arguments. Only single-feature functions support
        uncertain arguments (SUM/AVG-style; features = identity), which is
        checked at compile time.
        """
        self._fold_value_rows(
            self._ensure_groups(list(keys)),
            spec_index, values, trial_values, mult, trial_mults,
        )

    def fold_values_coded(
        self,
        keys: Sequence[GroupKey],
        gids: np.ndarray,
        spec_index: int,
        values: np.ndarray,
        trial_values: np.ndarray,
        mult: np.ndarray,
        trial_mults: np.ndarray,
    ) -> None:
        """Vectorized :meth:`fold_values`: rows arrive pre-factorized.

        ``keys`` lists the distinct group keys in first-appearance order
        and ``gids`` codes each row into that list (the key codec's
        output), replacing the per-row dict probe. Each group sees the
        same rows in the same order as in :meth:`fold_values`, so the
        sums are bit-identical.
        """
        base = self._ensure_groups(list(keys))
        self._fold_value_rows(
            base[gids] if len(base) else np.zeros(0, dtype=np.intp),
            spec_index, values, trial_values, mult, trial_mults,
        )

    def _fold_value_rows(
        self,
        gids: np.ndarray,
        spec_index: int,
        values: np.ndarray,
        trial_values: np.ndarray,
        mult: np.ndarray,
        trial_mults: np.ndarray,
    ) -> None:
        # Elementwise trial values × weights, not a contraction: segmented
        # sums into the spec's single feature row.
        segments = RowSegments(gids)
        order, groups = segments.order, segments.groups
        row = self.feature_rows[spec_index].start
        mult = mult[order]
        trial_mults = trial_mults[order]
        self.acc[groups, 0, 0] += segments.sums(mult)
        self.acc[groups, 0, 1:] += segments.sums(trial_mults)
        self.acc[groups, row, 0] += segments.sums(values[order] * mult)
        self.acc[groups, row, 1:] += segments.sums(trial_values[order] * trial_mults)

    # -- tier migration ----------------------------------------------------------------

    def extract_groups(
        self, keys: Sequence[GroupKey]
    ) -> dict[GroupKey, "SketchRow"]:
        """Remove ``keys`` from the sketch, returning their sum rows.

        The extracted rows are private copies (the rollup tier owns them
        across batches); the surviving groups are compacted in key order,
        so re-folding never scatters into a hole. Inverse:
        :meth:`reinsert_groups`.
        """
        wanted = set(keys)
        rows = {key: SketchRow(self.acc[self.key_to_gid[key]].copy()) for key in keys}
        g = len(self.keys)
        keep = np.array([k not in wanted for k in self.keys], dtype=bool)
        self.keys = [k for k in self.keys if k not in wanted]
        self.key_to_gid = {k: i for i, k in enumerate(self.keys)}
        self.acc = self.acc[:g][keep]
        return rows

    def reinsert_groups(self, rows: dict[GroupKey, "SketchRow"]) -> None:
        """Put extracted sum rows back (demotion from the rollup tier).

        Assignment, not accumulation: the sketch must not already hold
        the keys (they were extracted, and demotion runs before the
        batch's fold touches them again).
        """
        if not rows:
            return
        gids = self._ensure_groups(list(rows))
        self.acc[gids] = [row.acc for row in rows.values()]

    # -- finalize ----------------------------------------------------------------------

    def merged_with(self, other: "AggBundle | None") -> "AggBundle":
        """A new bundle summing this one with ``other`` (keys unioned)."""
        if other is None or len(other) == 0:
            return self
        out = AggBundle(self.specs, self.num_trials)
        for bundle in (self, other):
            # A bundle's keys are distinct, so plain fancy += adds every row.
            gids = out._ensure_groups(bundle.keys)
            out.acc[gids] += bundle.acc[: len(bundle)]
        return out

    def finalize(
        self, spec_index: int, scale: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-group results: ``(values (G,), trial_values (G, T))``."""
        g = len(self.keys)
        spec = self.specs[spec_index]
        sums = self.acc[:g, self.feature_rows[spec_index]].transpose(0, 2, 1)
        # Point (column 0) and trials finalize in one broadcast call.
        out = np.asarray(spec.func.finalize(sums, self.acc[:g, 0]), dtype=np.float64)
        if spec.func.scales_with_m and scale != 1.0:
            out = out * scale
        return out[:, 0], out[:, 1:]

    def estimated_bytes(self) -> int:
        g = len(self.keys)
        per_group = 8 * self.acc.shape[1] * self.acc.shape[2]
        return per_group * g + 48 * g  # sums + key dict overhead
