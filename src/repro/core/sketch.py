"""Sketch states for online AGGREGATE operators (Section 4.2).

Decomposable aggregates maintain, per group, the weighted feature sums
``S_k = Σ w·f_k(x)`` and the weight sum ``W = Σ w`` — once for the actual
multiplicities and once per bootstrap trial. Folding a mini-batch into the
sketch is the delta update; finalizing is a pure function of the sums, so
partial results can be published every batch at sketch cost instead of
data cost.

:class:`AggBundle` is one such table of sums. The persistent operator
state folds batches in place with capacity doubling; transient bundles
are also built from the volatile (non-deterministic) input rows each
batch and merged at finalize time without touching the persistent sums.

Every fold is one segmented sum (:class:`~repro.relational.groupby.
RowSegments`): the call's rows are sorted by group once and each table
gets one ``np.add.reduceat`` plus one ``table[groups] += ...``. A group's
increment depends only on that group's own rows in their original order,
which is what keeps every engine configuration bit-identical. Trial
weights may arrive as ``uint8`` Poisson counts; they widen to float64 in
the reduction or at the multiply by a feature, never before.
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
    """One group's sum row, detached from the bundle's tables.

    The unit of tier migration: :meth:`AggBundle.extract_groups` hands
    these to the rollup store, and :meth:`AggBundle.reinsert_groups`
    folds them back verbatim on demotion, so a migrate/demote round trip
    is bit-exact.
    """

    weight: float
    trial_weight: np.ndarray  # (T,)
    sums: list[np.ndarray]  # per spec, (k,)
    trial_sums: list[np.ndarray]  # per spec, (T, k)

    def estimated_bytes(self) -> int:
        nbytes = 8 + int(self.trial_weight.nbytes)
        nbytes += sum(int(a.nbytes) for a in self.sums)
        nbytes += sum(int(a.nbytes) for a in self.trial_sums)
        return nbytes


class AggBundle:
    """Per-group (actual + per-trial) weighted feature sums."""

    def __init__(self, specs: Sequence[AggSpec], num_trials: int):
        self.specs = list(specs)
        self.num_trials = num_trials
        self.keys: list[GroupKey] = []
        self.key_to_gid: dict[GroupKey, int] = {}
        g = 0
        self.weight = np.zeros(g, dtype=np.float64)
        self.trial_weight = np.zeros((g, num_trials), dtype=np.float64)
        self.sums = [
            np.zeros((g, s.func.num_features), dtype=np.float64) for s in self.specs
        ]
        self.trial_sums = [
            np.zeros((g, num_trials, s.func.num_features), dtype=np.float64)
            for s in self.specs
        ]

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
        gids = np.empty(len(keys), dtype=np.intp)
        fresh = 0
        for i, key in enumerate(keys):
            gid = self.key_to_gid.get(key)
            if gid is None:
                gid = len(self.keys)
                self.key_to_gid[key] = gid
                self.keys.append(key)
                fresh += 1
            gids[i] = gid
        if fresh:
            self._grow(len(self.keys))
        return gids

    def _grow(self, size: int) -> None:
        """Make room for ``size`` groups, at least doubling the capacity.

        Rows past ``len(self)`` are spare capacity (all zero); readers
        slice ``[: len(self)]``.
        """
        capacity = self.weight.shape[0]
        if size <= capacity:
            return
        capacity = max(size, 2 * capacity)

        def grown(arr: np.ndarray) -> np.ndarray:
            out = np.zeros((capacity,) + arr.shape[1:], dtype=np.float64)
            out[: arr.shape[0]] = arr
            return out

        self.weight = grown(self.weight)
        self.trial_weight = grown(self.trial_weight)
        self.sums = [grown(a) for a in self.sums]
        self.trial_sums = [grown(a) for a in self.trial_sums]

    # -- delta update ---------------------------------------------------------------

    def fold(self, rel: Relation, group_by: Sequence[str]) -> None:
        """Fold a mini-batch of rows into the sums (the delta update)."""
        if len(rel) == 0:
            return
        local_keys, local_gids = group_ids(rel, list(group_by))
        segments = RowSegments(self._ensure_groups(local_keys)[local_gids])
        order, groups = segments.order, segments.groups
        mult = rel.mult[order]
        # Deterministic-mult batches never materialize the (n, T) copy:
        # the read-only broadcast is only reduced over or multiplied.
        trial_w = rel.trials_at(order)  # lazy weights: drawn in fold order
        if trial_w is None:
            trial_w = np.broadcast_to(mult[:, None], (len(rel), self.num_trials))
        self.weight[groups] += segments.sums(mult)
        self.trial_weight[groups] += segments.sums(trial_w)
        for s, spec in enumerate(self.specs):
            if spec.func.num_features == 0:
                continue
            feats = spec.func.features(spec.arg_values(rel))[:, order]  # (k, n)
            self.sums[s][groups] += segments.sums((feats * mult).T)
            for j, feature in enumerate(feats):
                self.trial_sums[s][groups, :, j] += segments.sums(
                    feature[:, None] * trial_w
                )

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
        segments = RowSegments(gids)
        order, groups = segments.order, segments.groups
        mult = mult[order]
        trial_mults = trial_mults[order]
        self.weight[groups] += segments.sums(mult)
        self.trial_weight[groups] += segments.sums(trial_mults)
        self.sums[spec_index][groups, 0] += segments.sums(values[order] * mult)
        self.trial_sums[spec_index][groups, :, 0] += segments.sums(
            trial_values[order] * trial_mults
        )

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
        rows: dict[GroupKey, SketchRow] = {}
        for key in keys:
            gid = self.key_to_gid[key]
            rows[key] = SketchRow(
                weight=float(self.weight[gid]),
                trial_weight=self.trial_weight[gid].copy(),
                sums=[a[gid].copy() for a in self.sums],
                trial_sums=[a[gid].copy() for a in self.trial_sums],
            )
        g = len(self.keys)
        keep = np.array(
            [k not in wanted for k in self.keys], dtype=bool
        )
        self.keys = [k for k in self.keys if k not in wanted]
        self.key_to_gid = {k: i for i, k in enumerate(self.keys)}
        self.weight = self.weight[:g][keep]
        self.trial_weight = self.trial_weight[:g][keep]
        self.sums = [a[:g][keep] for a in self.sums]
        self.trial_sums = [a[:g][keep] for a in self.trial_sums]
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
        for gid, row in zip(gids, rows.values()):
            self.weight[gid] = row.weight
            self.trial_weight[gid] = row.trial_weight
            for s in range(len(self.specs)):
                self.sums[s][gid] = row.sums[s]
                self.trial_sums[s][gid] = row.trial_sums[s]

    # -- finalize ----------------------------------------------------------------------

    def merged_with(self, other: "AggBundle | None") -> "AggBundle":
        """A new bundle summing this one with ``other`` (keys unioned)."""
        if other is None or len(other) == 0:
            return self
        out = AggBundle(self.specs, self.num_trials)
        out._ensure_groups(self.keys)
        out._ensure_groups(other.keys)
        for bundle in (self, other):
            g = len(bundle)
            if g == 0:
                continue
            # A bundle's keys are distinct, so plain fancy += adds every row.
            gids = np.array(
                [out.key_to_gid[k] for k in bundle.keys], dtype=np.intp
            )
            out.weight[gids] += bundle.weight[:g]
            out.trial_weight[gids] += bundle.trial_weight[:g]
            for s in range(len(self.specs)):
                out.sums[s][gids] += bundle.sums[s][:g]
                out.trial_sums[s][gids] += bundle.trial_sums[s][:g]
        return out

    def finalize(
        self, spec_index: int, scale: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-group results: ``(values (G,), trial_values (G, T))``."""
        g = len(self.keys)
        spec = self.specs[spec_index]
        values = np.asarray(
            spec.func.finalize(self.sums[spec_index][:g], self.weight[:g]),
            dtype=np.float64,
        )
        trial_values = np.asarray(
            spec.func.finalize(
                self.trial_sums[spec_index][:g], self.trial_weight[:g]
            ),
            dtype=np.float64,
        )
        if spec.func.scales_with_m and scale != 1.0:
            values = values * scale
            trial_values = trial_values * scale
        return values, trial_values

    def estimated_bytes(self) -> int:
        g = len(self.keys)
        per_group = 8 * (1 + self.num_trials)
        for spec in self.specs:
            per_group += 8 * spec.func.num_features * (1 + self.num_trials)
        return per_group * g + 48 * g  # sums + key dict overhead
