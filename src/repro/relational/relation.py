"""Columnar relations with real-valued tuple multiplicities.

Implements the generalized bag semantics of the paper's Appendix A: a
relation maps tuples to *real* multiplicities. A multiplicity of ``0``
means "conceptually present but not (yet) seen" — exactly how the paper
describes streamed tuples before their batch arrives — while fractional
multiplicities arise from scaling and bootstrap reweighting.

A :class:`Relation` stores one NumPy array per column plus:

* ``mult`` — the (n,) multiplicity vector, and
* ``trial_mults`` — an optional (n, T) matrix of per-bootstrap-trial
  multiplicities used to piggyback Poissonized bootstrap through the plan
  (Section 7, rewriting step 2). Deterministic/batch execution leaves it
  ``None``. It is either ``uint8`` (raw Poisson counts, as drawn) or
  ``float64``; index operations keep the dtype and the first multiply by
  a float widens it. Nothing may sum ``uint8`` counts or multiply two
  ``uint8`` matrices without naming ``dtype=np.float64``. Rows of the
  streamed table carry :class:`LazyTrials` instead — their global row
  ids — through every index operation, and the matrix is drawn for
  exactly the rows that reach the first reader of ``trial_mults``.

Columns hold plain scalars. In the online engine an uncertain column
attached across a lineage-block boundary holds the int32 gids of the
groups it references; ``lineage`` maps its name to the
:class:`~repro.storage.lineage.LineageColumn` naming the ``(block,
column)`` those gids index. The gids move with every row operation like
any other column, so the sidecar itself is carried unchanged.

A column may also carry an
:class:`~repro.storage.columns.EncodedColumn` (dictionary codes + null
mask) in ``encodings``: the *same* rows as the materialized column,
mapped through every transformation, and pure acceleration structure —
dropping one never changes semantics, only speed. The public
constructor (an API boundary) validates shapes and accepts no sidecars;
operator-internal hops use :meth:`_from_parts`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relational.schema import ColumnType, Schema

if TYPE_CHECKING:
    from repro.storage.columns import EncodedColumn
    from repro.storage.lineage import LineageColumn

Row = dict[str, object]

_NO_SIDECARS: dict = {}

#: Aliasing-observer hook for :meth:`Relation.slice`, installed by the
#: buffer sanitizer (``repro.analysis.sanitize``) via :func:`set_slice_hook`.
#: Called as ``hook(base_relation, view_relation)`` after every slice; the
#: default ``None`` keeps the hot path to a single comparison.
_slice_hook: Callable[["Relation", "Relation"], None] | None = None


def set_slice_hook(hook: Callable[["Relation", "Relation"], None] | None) -> None:
    """Install (or clear, with ``None``) the zero-copy slice observer."""
    global _slice_hook
    _slice_hook = hook


class LazyTrials:
    """Trial weights named but not drawn: the rows' global ids.

    The weights are a pure function of the id
    (:func:`repro.bootstrap.poisson.trial_multiplicities`), so indexing
    the handle indexes the ids and :meth:`draw` may run anywhere, any
    number of times. ``source`` is the run that draws — it has
    ``num_trials`` and ``draw_trials(ids)``
    (:class:`~repro.core.blocks.RuntimeContext`) — or None on a relation
    no run has installed yet (a partitioner batch, a disk chunk): that
    one has ids and no trials.
    """

    __slots__ = ("ids", "source")

    def __init__(self, ids: np.ndarray, source: object = None):
        self.ids = ids
        self.source = source

    def __getitem__(self, index: object) -> "LazyTrials":
        return LazyTrials(self.ids[index], self.source)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.ids), 0 if self.source is None else self.source.num_trials)

    def draw(self) -> np.ndarray | None:
        if self.source is None:
            return None
        if not len(self.ids):
            return np.zeros(self.shape, dtype=np.uint8)
        return self.source.draw_trials(self.ids)


class Relation:
    """An immutable-by-convention columnar bag relation.

    Mutating helpers always return new relations; the backing arrays may be
    shared, so callers must not write into ``columns`` / ``mult`` in place
    (a ``--sanitize`` run raises SAN001 at such a write).
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        mult: np.ndarray | None = None,
        trial_mults: "np.ndarray | LazyTrials | None" = None,
    ):
        self.schema = schema
        self.columns: dict[str, np.ndarray] = {}
        n = None
        for col in schema:
            if col.name not in columns:
                raise SchemaError(f"missing data for column {col.name!r}")
            arr = np.asarray(columns[col.name])
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise SchemaError(
                    f"column {col.name!r} has {len(arr)} rows, expected {n}"
                )
            self.columns[col.name] = arr
        if n is None:
            n = 0
        if mult is None:
            mult = np.ones(n, dtype=np.float64)
        else:
            mult = np.asarray(mult, dtype=np.float64)
            if len(mult) != n:
                raise SchemaError(f"mult has {len(mult)} entries, expected {n}")
        self.mult = mult
        if trial_mults is not None:
            if not isinstance(trial_mults, LazyTrials):
                trial_mults = np.asarray(trial_mults)
                if trial_mults.dtype != np.uint8:
                    trial_mults = trial_mults.astype(np.float64, copy=False)
            if trial_mults.shape[0] != n:
                raise SchemaError(
                    f"trial_mults has {trial_mults.shape[0]} rows, expected {n}"
                )
        self._trials = trial_mults
        self._n = n
        self.encodings: dict[str, "EncodedColumn"] = {}
        self.lineage: dict[str, "LineageColumn"] = {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _from_parts(
        cls,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        mult: np.ndarray,
        trial_mults: "np.ndarray | LazyTrials | None" = None,
        *,
        encodings: "dict[str, EncodedColumn] | None" = None,
        lineage: "dict[str, LineageColumn] | None" = None,
    ) -> "Relation":
        """Trusted internal constructor for operator-internal hops.

        Skips the per-column ``np.asarray``/length re-validation of
        ``__init__`` — callers pass already-validated ndarrays whose
        lengths match ``mult`` (every transformation below derives its
        outputs from one index operation, so this holds by construction).
        Full validation stays at the API boundary (``__init__``).
        """
        rel = cls.__new__(cls)
        rel.schema = schema
        rel.columns = dict(columns)
        rel.mult = mult
        rel._trials = trial_mults
        rel._n = len(mult)
        rel.encodings = encodings if encodings is not None else _NO_SIDECARS
        rel.lineage = lineage if lineage is not None else _NO_SIDECARS
        return rel

    def _map_sidecars(self, op: str, *args: object) -> dict:
        """Sidecars after one index operation: encodings mapped, lineage
        (which has no per-row state) carried."""
        encodings = {name: getattr(enc, op)(*args) for name, enc in self.encodings.items()}
        return {"encodings": encodings or None, "lineage": self.lineage or None}

    @classmethod
    def empty(cls, schema: Schema, num_trials: int | None = None) -> "Relation":
        cols = {c.name: np.empty(0, dtype=c.ctype.dtype) for c in schema}
        trials = None
        if num_trials is not None:
            trials = np.empty((0, num_trials), dtype=np.float64)
        return cls(schema, cols, np.empty(0, dtype=np.float64), trials)

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Sequence[Row],
        mult: Sequence[float] | None = None,
        trial_mults: np.ndarray | None = None,
        validate: bool = False,
    ) -> "Relation":
        """Build a relation from row dictionaries.

        With ``validate=True`` each value is checked against the schema —
        useful in tests and data loading, skipped on hot paths.
        """
        cols: dict[str, np.ndarray] = {}
        for c in schema:
            values = [r[c.name] for r in rows]
            if validate:
                for v in values:
                    schema.validate_value(c.name, v)
            cols[c.name] = np.array(values, dtype=c.ctype.dtype) if rows else np.empty(
                0, dtype=c.ctype.dtype
            )
        m = None if mult is None else np.asarray(mult, dtype=np.float64)
        return cls(schema, cols, m, trial_mults)

    # -- size / iteration -----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def trial_mults(self) -> np.ndarray | None:
        """The (n, T) trial matrix; lazy weights are drawn on every read,
        so a caller that needs it twice binds it once."""
        return self.trials_at(None)

    def trials_at(self, index: object) -> np.ndarray | None:
        """``trial_mults[index]`` (all rows for None), drawing only those
        rows, in that order, when the weights are lazy."""
        trials = self._trials
        if trials is not None and index is not None:
            trials = trials[index]
        return trials.draw() if isinstance(trials, LazyTrials) else trials

    def with_drawn_trials(self) -> "Relation":
        """This relation with its trial matrix materialized — what a
        cross-batch store keeps, so that it draws once, not every batch."""
        if not isinstance(self._trials, LazyTrials):
            return self
        return self.with_mult(self.mult, self._trials.draw())

    @property
    def num_trials(self) -> int:
        return 0 if self._trials is None else self._trials.shape[1]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise SchemaError(f"no column named {name!r}; have {self.schema.names}")
        return self.columns[name]

    def row(self, i: int) -> Row:
        return {name: arr[i] for name, arr in self.columns.items()}

    def iter_rows(self) -> Iterator[Row]:
        for i in range(self._n):
            yield self.row(i)

    def total_multiplicity(self) -> float:
        return float(self.mult.sum())

    # -- transformations -------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "Relation":
        """Rows where boolean ``mask`` holds (multiplicities preserved)."""
        mask = np.asarray(mask)
        if mask.dtype == bool and len(mask) == self._n and mask.all():
            return self  # immutable: every row kept is this relation
        cols = {n: a[mask] for n, a in self.columns.items()}
        trials = None if self._trials is None else self._trials[mask]
        return Relation._from_parts(
            self.schema, cols, self.mult[mask], trials, **self._map_sidecars("take", mask)
        )

    def take(self, indices: np.ndarray) -> "Relation":
        """Rows at ``indices`` (with repetition allowed)."""
        indices = np.asarray(indices)
        cols = {n: a[indices] for n, a in self.columns.items()}
        trials = None if self._trials is None else self._trials[indices]
        return Relation._from_parts(
            self.schema,
            cols,
            self.mult[indices],
            trials,
            **self._map_sidecars("take", indices),
        )

    def slice(self, start: int, stop: int) -> "Relation":
        """Rows ``[start, stop)`` as zero-copy views of the backing buffers.

        Views alias this relation's memory — cheap, but a caller must not
        write into either side's buffers (immutability by convention;
        ``--sanitize`` freezes the buffers and raises SAN001 at the write).
        """
        cols = {n: a[start:stop] for n, a in self.columns.items()}
        trials = None if self._trials is None else self._trials[start:stop]
        view = Relation._from_parts(
            self.schema,
            cols,
            self.mult[start:stop],
            trials,
            **self._map_sidecars("slice", start, stop),
        )
        if _slice_hook is not None:
            _slice_hook(self, view)
        return view

    def scale(self, factor: float | np.ndarray) -> "Relation":
        """Multiply multiplicities (and trial multiplicities) by ``factor``."""
        trials = self.trial_mults
        if trials is not None:
            if np.ndim(factor) == 0:
                trials = trials * factor
            else:
                trials = trials * np.asarray(factor)[:, None]
        return Relation._from_parts(
            self.schema,
            self.columns,
            self.mult * factor,
            trials,
            encodings=self.encodings or None,
            lineage=self.lineage or None,
        )

    def with_mult(
        self, mult: np.ndarray, trial_mults: "np.ndarray | LazyTrials | None"
    ) -> "Relation":
        mult = np.asarray(mult, dtype=np.float64)
        if len(mult) != self._n:
            raise SchemaError(f"mult has {len(mult)} entries, expected {self._n}")
        return Relation._from_parts(
            self.schema,
            self.columns,
            mult,
            trial_mults,
            encodings=self.encodings or None,
            lineage=self.lineage or None,
        )

    def project(self, names: Sequence[str]) -> "Relation":
        sub = self.schema.project(names)
        cols = {n: self.columns[n] for n in names}
        return Relation._from_parts(
            sub,
            cols,
            self.mult,
            self._trials,
            encodings={n: e for n, e in self.encodings.items() if n in cols} or None,
            lineage={n: s for n, s in self.lineage.items() if n in cols} or None,
        )

    def rename(self, mapping: dict[str, str]) -> "Relation":
        schema = self.schema.rename(mapping)
        cols = {mapping.get(n, n): a for n, a in self.columns.items()}
        return Relation._from_parts(
            schema,
            cols,
            self.mult,
            self._trials,
            encodings={mapping.get(n, n): e for n, e in self.encodings.items()} or None,
            lineage={mapping.get(n, n): s for n, s in self.lineage.items()} or None,
        )

    def with_column(self, name: str, ctype: ColumnType, values: np.ndarray) -> "Relation":
        """Relation with an extra column appended."""
        schema = self.schema.concat(Schema([(name, ctype)]))
        cols = dict(self.columns)
        cols[name] = np.asarray(values)
        if len(cols[name]) != self._n:
            raise SchemaError(
                f"column {name!r} has {len(cols[name])} rows, expected {self._n}"
            )
        return Relation._from_parts(
            schema,
            cols,
            self.mult,
            self._trials,
            encodings=self.encodings or None,
            lineage=self.lineage or None,
        )

    def concat(self, other: "Relation") -> "Relation":
        """Bag union with ``other`` (schemas must match exactly)."""
        if other.schema != self.schema:
            raise SchemaError(
                f"cannot concat relations with schemas {self.schema} and {other.schema}"
            )
        if len(other) == 0:
            return self
        if len(self) == 0:
            return other
        cols = {
            n: np.concatenate([self.columns[n], other.columns[n]])
            for n in self.schema.names
        }
        mult = np.concatenate([self.mult, other.mult])
        trials = _concat_trials(self, other)
        encodings: dict = {}
        for n, enc in self.encodings.items():
            other_enc = other.encodings.get(n)
            if other_enc is not None:
                encodings[n] = enc.concat(other_enc)
        # Gids of one column concatenate only if they index one block
        # column (a UNION of columns attached from different blocks is
        # refused at compile time, TC113).
        lineage = {n: lin for n, lin in self.lineage.items() if other.lineage.get(n) == lin}
        return Relation._from_parts(
            self.schema,
            cols,
            mult,
            trials,
            encodings=encodings or None,
            lineage=lineage or None,
        )

    # -- grouping helpers -------------------------------------------------------

    def key_tuples(self, names: Sequence[str]) -> list[tuple]:
        """Per-row tuples of the values in key columns ``names``."""
        arrays = [self.columns[n] for n in names]
        return list(zip(*(a.tolist() for a in arrays))) if arrays else [
            () for _ in range(self._n)
        ]

    # -- accounting ---------------------------------------------------------------

    def estimated_bytes(self) -> int:
        """Approximate in-memory footprint (columns + mult + trials)."""
        per_row = self.schema.row_byte_width() + 8
        if self._trials is not None:
            per_row += 8 * self.num_trials
        return per_row * self._n

    # -- comparison / display -------------------------------------------------------

    def to_multiset(self, ndigits: int = 6) -> dict[tuple, float]:
        """Collapse into {value-tuple: total multiplicity} for bag comparison."""
        out: dict[tuple, float] = {}
        names = self.schema.names
        for i in range(self._n):
            key = tuple(_round(self.columns[n][i], ndigits) for n in names)
            out[key] = out.get(key, 0.0) + float(self.mult[i])
        return {k: round(v, ndigits) for k, v in out.items() if round(v, ndigits) != 0}

    def bag_equal(self, other: "Relation", ndigits: int = 6) -> bool:
        """Bag equality up to ``10**-ndigits`` — the reference check in tests."""
        if self.schema.names != other.schema.names:
            return False
        if self.to_multiset(ndigits) == other.to_multiset(ndigits):
            return True
        # Rounding both sides can split values that straddle a decimal
        # boundary (50.9715 vs 50.971500000000006 at ndigits=3 round to
        # different keys although they differ by 7e-15), so on mismatch
        # fall back to sorted row matching with an explicit tolerance.
        tol = 10.0**-ndigits
        mine = sorted(
            self.to_multiset(ndigits + 6).items(),
            key=lambda kv: tuple(_sort_key(v) for v in kv[0]),
        )
        theirs = sorted(
            other.to_multiset(ndigits + 6).items(),
            key=lambda kv: tuple(_sort_key(v) for v in kv[0]),
        )
        if len(mine) != len(theirs):
            return False
        for (key_a, mult_a), (key_b, mult_b) in zip(mine, theirs):
            if abs(mult_a - mult_b) > tol:
                return False
            for val_a, val_b in zip(key_a, key_b):
                if isinstance(val_a, float) and isinstance(val_b, float):
                    if abs(val_a - val_b) > tol:
                        return False
                elif val_a != val_b:
                    return False
        return True

    def sort_rows(self, by: Sequence[str] | None = None) -> list[Row]:
        """Materialize rows sorted by ``by`` (all columns if omitted)."""
        by = list(by) if by is not None else self.schema.names
        rows = list(self.iter_rows())
        rows.sort(key=lambda r: tuple(_sort_key(r[c]) for c in by))
        return rows

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, n={self._n}, |D|={self.total_multiplicity():g})"


def _concat_trials(a: Relation, b: Relation) -> "np.ndarray | LazyTrials | None":
    """Stack trial-multiplicity matrices, padding absent sides with ``mult``.

    A missing matrix means "this side never went through bootstrap
    reweighting", so its per-trial multiplicity equals its actual
    multiplicity in every trial. Undrawn weights of one run stay undrawn:
    their ids are concatenated.
    """
    ta, tb = a._trials, b._trials
    if isinstance(ta, LazyTrials) and isinstance(tb, LazyTrials) and ta.source is tb.source:
        return LazyTrials(np.concatenate([ta.ids, tb.ids]), ta.source)
    ta, tb = a.trial_mults, b.trial_mults
    if ta is None and tb is None:
        return None
    # Broadcast views, not materialized copies: vstack below copies anyway.
    if ta is None:
        ta = np.broadcast_to(a.mult[:, None], (len(a.mult), tb.shape[1]))
    if tb is None:
        tb = np.broadcast_to(b.mult[:, None], (len(b.mult), ta.shape[1]))
    if ta.shape[1] != tb.shape[1]:
        raise SchemaError(
            f"cannot concat relations with {ta.shape[1]} and {tb.shape[1]} trials"
        )
    return np.vstack([ta, tb])


def _round(value: object, ndigits: int) -> object:
    if isinstance(value, (float, np.floating)):
        return round(float(value), ndigits)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _sort_key(value: object) -> tuple:
    # Heterogeneous-safe sort key: group by type name, then value.
    if isinstance(value, (int, float, np.integer, np.floating)):
        return ("0num", float(value))
    return (type(value).__name__, str(value))


def relation_from_columns(
    schema: Schema, **columns: Iterable
) -> Relation:
    """Convenience constructor used heavily in tests: column name → values."""
    cols = {
        c.name: np.asarray(list(columns[c.name]), dtype=c.ctype.dtype) for c in schema
    }
    return Relation(schema, cols)

