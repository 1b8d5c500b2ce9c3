"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.blocks import (
    MEMBER_TRUE,
    BlockOutput,
    GroupIndex,
    RuntimeContext,
    UColumn,
)
from repro.core.classify import SideValues
from repro.core.values import UncertainValue, VariationRange
from repro.relational import (
    Catalog,
    ColumnType,
    Relation,
    Schema,
    relation_from_columns,
)
from repro.storage.columns import CODE_DTYPE
from repro.storage.lineage import LineageColumn
from repro.workloads import generate_conviva, generate_tpch

KX_SCHEMA = Schema(
    [("k", ColumnType.INT), ("x", ColumnType.FLOAT), ("y", ColumnType.FLOAT)]
)

DIM_SCHEMA = Schema([("k", ColumnType.INT), ("label", ColumnType.STRING)])


@dataclass
class Group:
    """One group of a block output in row form: how tests specify a
    published group and read one back (:func:`group_rows`)."""

    key: tuple
    #: column name -> UncertainValue (aggregates) or scalar (keys, plain).
    values: dict[str, object]
    certain: bool
    member_status: int = MEMBER_TRUE
    member_point: bool = True
    #: Per-trial existence (None: every trial).
    exist_trials: np.ndarray | None = None

    def exist_in_trial(self, num_trials: int) -> np.ndarray:
        if self.exist_trials is None:
            return np.ones(num_trials, dtype=bool)
        return self.exist_trials


def output_from_groups(
    block_id: int,
    key_cols: list[str],
    value_cols: list[str],
    groups,
    num_trials: int,
    index: GroupIndex | None = None,
) -> BlockOutput:
    """A block output stacked from :class:`Group` rows (a later duplicate
    key replaces the earlier group, as in a dict). A value column with an
    uncertain cell becomes a ``UColumn`` (plain cells read as point
    ranges), any other a plain array."""
    by_key = {group.key: group for group in groups}
    rows = list(by_key.values())
    n = len(rows)
    index = index if index is not None else GroupIndex()
    gids = index.add(list(by_key))
    columns = {}
    for name in value_cols:
        cells = [group.values[name] for group in rows] if name not in key_cols else []
        if not any(isinstance(cell, UncertainValue) for cell in cells):
            if cells:
                columns[name] = np.array(cells)
            continue
        col = columns[name] = UColumn(
            np.empty(n), np.empty((n, num_trials)), np.empty(n), np.empty(n)
        )
        for i, v in enumerate(cells):
            if isinstance(v, UncertainValue):
                col.point[i], col.trials[i] = v.value, v.trials
                col.lo[i], col.hi[i] = v.vrange.lo, v.vrange.hi
            else:
                col.point[i] = col.trials[i] = col.lo[i] = col.hi[i] = v
    return BlockOutput.published(
        block_id, key_cols, value_cols, index, gids,
        np.array([group.certain for group in rows], dtype=bool),
        np.array([group.member_status for group in rows], dtype=np.int8),
        np.array([group.member_point for group in rows], dtype=bool),
        np.array(
            [group.exist_in_trial(num_trials) for group in rows], dtype=bool
        ).reshape(n, num_trials),
        columns, num_trials,
    )


def group_rows(output: BlockOutput) -> dict[tuple, Group]:
    """The published groups of ``output`` in publication order, read back
    from its arrays as :class:`Group` rows."""
    out = {}
    for gid in output.order.tolist():
        key = output.index.keys[gid]
        values: dict[str, object] = dict(zip(output.key_cols, key))
        for name in output.value_cols:
            col = output.column(name)
            if isinstance(col, UColumn):
                values[name] = UncertainValue(
                    col.point[gid], col.trials[gid], VariationRange(col.lo[gid], col.hi[gid])
                )
            elif col is not None and name not in output.key_cols:
                values[name] = col[gid].item()
        out[key] = Group(
            key, values, bool(output.certain[gid]), int(output.member_status[gid]),
            bool(output.member_point[gid]), output.exist[gid].copy(),
        )
    return out


def publish_group(
    ctx: RuntimeContext,
    block_id: int,
    value_cols: list[str],
    group: Group,
    key_cols: tuple[str, ...] = (),
) -> None:
    """Republish block ``block_id`` with ``group`` added (a block output
    is replaced whole, never extended in place)."""
    prev = ctx.blocks.get(block_id)
    groups = list(group_rows(prev).values()) if prev is not None else []
    ctx.blocks[block_id] = output_from_groups(
        block_id,
        list(key_cols),
        value_cols,
        groups + [group],
        ctx.num_trials,
        ctx.indexes[block_id],
    )


def gid_column(ctx: RuntimeContext, block_id: int, keys, column: str):
    """An attached uncertain column referencing ``block_id``'s groups
    ``keys``: its gids (allocated in the run's index, published or not)
    and the lineage sidecar naming ``(block_id, column)``."""
    gids = ctx.indexes[block_id].add(list(keys)).astype(CODE_DTYPE)
    return gids, LineageColumn(block_id, column)


def rowwise_side(expr, rel: Relation, uncertain_cols: set[str], ctx: RuntimeContext) -> SideValues:
    """Reference for ``classify.evaluate_side``: per row, resolve each
    uncertain cell (a gid) to an ``UncertainValue`` read from its block
    output and evaluate the side with ``UncertainValue`` arithmetic; a row
    whose group is not published is pending (NaN-filled)."""
    n = len(rel)
    touched = expr.attrs() & uncertain_cols
    lo, hi, point = np.empty(n), np.empty(n), np.empty(n)
    trials = np.empty((n, ctx.num_trials))
    pending = np.zeros(n, dtype=bool)
    for i in range(n):
        row = rel.row(i)
        for name in touched:
            row[name] = _resolve_cell(rel.lineage[name], int(row[name]), ctx)
        if any(row[name] is None for name in touched):
            pending[i] = True
            lo[i] = hi[i] = point[i] = np.nan
            trials[i] = np.nan
            continue
        value = expr.evaluate_row(row)
        if isinstance(value, UncertainValue):
            lo[i], hi[i] = value.vrange.lo, value.vrange.hi
            point[i] = value.value
            trials[i] = value.trials
        else:
            lo[i] = hi[i] = point[i] = trials[i] = float(value)
    return SideValues(lo, hi, point, trials, pending)


def _resolve_cell(lineage: LineageColumn, gid: int, ctx: RuntimeContext):
    output = ctx.blocks.get(lineage.block_id)
    if output is None or output.absent(np.array([gid]))[0]:
        return None
    col = output.ucol(lineage.column)
    return UncertainValue(col.point[gid], col.trials[gid], VariationRange(col.lo[gid], col.hi[gid]))


@pytest.fixture
def kx_relation() -> Relation:
    """A deterministic 12-row relation over (k, x, y)."""
    return relation_from_columns(
        KX_SCHEMA,
        k=[0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3],
        x=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
        y=[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0],
    )


@pytest.fixture
def dim_relation() -> Relation:
    return relation_from_columns(
        DIM_SCHEMA, k=[0, 1, 2, 3], label=["a", "b", "c", "d"]
    )


@pytest.fixture
def kx_catalog(kx_relation, dim_relation) -> Catalog:
    return Catalog({"t": kx_relation, "dim": dim_relation})


def random_kx(n: int = 2000, seed: int = 0, groups: int = 8) -> Relation:
    """A random relation for statistical/e2e tests."""
    rng = np.random.default_rng(seed)
    return relation_from_columns(
        KX_SCHEMA,
        k=rng.integers(0, groups, n),
        x=rng.gamma(4.0, 5.0, n),
        y=rng.normal(100.0, 20.0, n),
    )


@pytest.fixture(scope="session")
def tpch_small():
    return generate_tpch(scale=0.15, seed=7)


@pytest.fixture(scope="session")
def conviva_small():
    return generate_conviva(scale=0.15, seed=7)


def sig_round(value, sig: int = 8):
    """Round floats to ``sig`` significant digits (magnitude-aware)."""
    import math

    if isinstance(value, float) or str(type(value)).find("float") >= 0:
        f = float(value)
        if f == 0 or math.isnan(f) or math.isinf(f):
            return f
        return round(f, sig - 1 - int(math.floor(math.log10(abs(f)))))
    return value


def bags_close(a, b, sig: int = 8) -> bool:
    """Bag equality with relative (significant-digit) float comparison."""

    def norm(rel):
        out = {}
        for row, mult in zip(rel.iter_rows(), rel.mult):
            key = tuple(sig_round(row[c], sig) for c in rel.schema.names)
            out[key] = round(out.get(key, 0.0) + float(mult), 6)
        return {k: v for k, v in out.items() if v != 0}

    return norm(a) == norm(b)
