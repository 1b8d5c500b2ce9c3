"""The runtime debug mode (``OnlineConfig(sanitize=True)``).

Unit tests drive :class:`BufferSanitizer` directly through its ownership
protocol and its state-entry check; engine tests seed real in-place
writes and undeclared state entries and assert the exact SAN rule fires
naming the offending operator; reach tests show that sanitized runs enter
every operator class's ``process`` (the sanitizer sees only code a run
reaches); parity tests require sanitized runs to be bit-identical to
plain ones, also under the chaos fault plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitize import (
    SANITIZE_RULES,
    BufferSanitizer,
    _base,
    _buffers_of,
)
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core import operators
from repro.core.operators import AggregateOp, FilterOp, SpineOp, StateRule
from repro.core.operators.base import DeltaBatch
from repro.core.operators.scan import ScanOp
from repro.engine.shards import ShardedQueryEngine
from repro.errors import SanitizerViolationError
from repro.relational import (
    Catalog,
    ColumnType,
    Schema,
    col,
    lit,
    relation_from_columns,
    scan,
)
from repro.relational import relation as relation_module
from repro.state import StateStore
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES
from tests.conftest import KX_SCHEMA, random_kx

S = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])


def make_rel(n=8):
    return relation_from_columns(
        S, k=list(range(n)), x=[float(i) for i in range(n)]
    )


class _Op:
    label = "op:test"


class _StatefulOp:
    """Declares one ``nd`` entry and holds exactly that."""

    label = "fake:op"
    state_rule = StateRule(frozenset({"nd"}), nd_entry="nd")

    def __init__(self):
        self.state = StateStore()
        self.state.put("nd", {})

    def state_items(self):
        return list(self.state.items())


# ---------------------------------------------------------------------------
# Ownership protocol unit tests.
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_before_process_freezes_and_release_restores(self):
        san = BufferSanitizer()
        rel = make_rel()
        assert all(a.flags.writeable for a in _buffers_of(rel))
        san.before_process(_Op(), rel)
        assert not any(a.flags.writeable for a in _buffers_of(rel))
        with pytest.raises(ValueError):
            rel.columns["x"][0] = 99.0
        san.release(_Op())
        assert all(a.flags.writeable for a in _buffers_of(rel))
        assert san.seconds > 0

    def test_begin_batch_freezes_delta_permanently(self):
        san = BufferSanitizer()
        rel = make_rel()
        san.begin_batch(1, rel)
        assert not any(a.flags.writeable for a in _buffers_of(rel))
        san.before_process(_Op(), rel)
        san.release(_Op())  # restore must not thaw the stream delta
        assert not any(a.flags.writeable for a in _buffers_of(rel))

    def test_begin_batch_is_idempotent_within_a_batch(self):
        san = BufferSanitizer()
        rel = make_rel()
        san.begin_batch(3, rel)
        owners = dict(san._owners)
        san.begin_batch(3, rel)  # the recovery replay re-enters the batch
        assert san._owners == owners

    def test_replay_of_the_same_batch_owns_the_redrawn_delta(self):
        """Recovery replays the failed batch under the same number with a
        freshly drawn trial matrix; a scan forwarding it must leave the
        stream as its owner."""
        san = BufferSanitizer()
        san.begin_batch(4, make_rel())
        redrawn = make_rel()
        san.begin_batch(4, redrawn)
        assert not any(a.flags.writeable for a in _buffers_of(redrawn))
        san.note_output(_Op(), redrawn)
        assert {
            san._owners[id(_base(a))] for a in _buffers_of(redrawn)
        } == {"stream:batch-4"}

    def test_slice_hook_freezes_both_sides(self):
        san = BufferSanitizer()
        san.begin_batch(1)
        san.activate()
        try:
            rel = make_rel()
            view = rel.slice(2, 6)
        finally:
            san.deactivate()
        for side in (rel, view):
            assert not any(a.flags.writeable for a in _buffers_of(side))
        with pytest.raises(ValueError):
            view.columns["x"][0] = -1.0

    def test_pass_through_claims_nothing(self):
        san = BufferSanitizer()
        rel = make_rel()
        san.begin_batch(1, rel)
        owners = dict(san._owners)
        san.note_output(_Op(), rel)  # forwarding the stream delta
        assert san._owners == owners


# ---------------------------------------------------------------------------
# Rule fixtures: one per SAN id.
# ---------------------------------------------------------------------------


class TestRules:
    def test_san001_aliased_view_write(self):
        san = BufferSanitizer()
        san.begin_batch(1)
        san.activate()
        try:
            rel = make_rel()
            san.before_process(_Op(), None)  # writer context for the slice
            view = rel.slice(0, 4)
            san.release(_Op())
        finally:
            san.deactivate()
        with pytest.raises(ValueError) as excinfo:
            view.columns["x"][0] = 5.0
        violation = san.translate_write_error(
            _Op(), view, None, excinfo.value
        )
        assert isinstance(violation, SanitizerViolationError)
        assert violation.rule_id == "SAN001"
        assert violation.writer == "op:test"
        assert violation.owners == ["op:test"]  # the slicing frame
        assert "SAN001" in str(violation)

    def test_san002_memmapped_chunk_write(self, tmp_path):
        path = tmp_path / "chunk.bin"
        np.arange(8, dtype="<i8").tofile(path)
        mm = np.memmap(path, dtype="<i8", mode="r", shape=(8,))
        view = mm[2:6]
        san = BufferSanitizer()
        san.begin_batch(1)
        with pytest.raises(ValueError) as excinfo:
            view[0] = 1
        violation = san.translate_write_error(
            _Op(), [view], None, excinfo.value
        )
        assert violation.rule_id == "SAN002"
        assert str(path) in str(violation)
        assert violation.writer == "op:test"

    def test_declared_state_passes(self):
        san = BufferSanitizer()
        san.check_state(_StatefulOp())
        assert san.seconds > 0

    def test_san004_stray_state_entry(self):
        op = _StatefulOp()
        op.state.put("stray", 123)
        with pytest.raises(SanitizerViolationError, match="StateRule") as excinfo:
            BufferSanitizer().check_state(op)
        assert excinfo.value.rule_id == "SAN004"
        assert excinfo.value.writer == "fake:op"
        assert "stray" in str(excinfo.value)

    def test_san004_missing_state_entry(self):
        op = _StatefulOp()
        op.state.delete("nd")
        with pytest.raises(SanitizerViolationError, match="StateRule") as excinfo:
            BufferSanitizer().check_state(op)
        assert excinfo.value.rule_id == "SAN004"

    def test_translate_ignores_unrelated_value_errors(self):
        san = BufferSanitizer()
        err = ValueError("operands could not be broadcast together")
        assert san.translate_write_error(_Op(), None, None, err) is None


# ---------------------------------------------------------------------------
# Engine-level: a seeded in-place write is caught naming writer and owner.
# ---------------------------------------------------------------------------


def _mutating_scan_process(self, delta, ctx):
    batch = ctx.delta
    next(iter(batch.columns.values()))[0] = 0  # illegal in-place write
    return DeltaBatch(batch, self.empty(ctx))


class TestEngine:
    def test_seeded_write_raises_san001(self, kx_catalog, monkeypatch):
        monkeypatch.setattr(ScanOp, "process", _mutating_scan_process)
        engine = OnlineQueryEngine(
            kx_catalog,
            "t",
            OnlineConfig(num_trials=4, seed=3, sanitize=True),
        )
        from repro.relational import col, count, scan, sum_
        from tests.conftest import KX_SCHEMA

        plan = scan("t", KX_SCHEMA).select(col("x") > 2.0).aggregate(
            ["k"], [sum_("y", "sy"), count("n")]
        )
        with pytest.raises(SanitizerViolationError) as excinfo:
            engine.run_to_completion(plan, 3)
        violation = excinfo.value
        assert violation.rule_id == "SAN001"
        assert violation.writer
        assert violation.owners and violation.owners != ["unknown"]

    def test_undeclared_state_entry_raises_san004(self, kx_catalog, monkeypatch):
        process = AggregateOp.process

        def stamping_process(self, delta, ctx):
            out = process(self, delta, ctx)
            self.state.put("stamp", ctx.batch_no)  # not in the StateRule
            return out

        monkeypatch.setattr(AggregateOp, "process", stamping_process)
        engine = OnlineQueryEngine(
            kx_catalog, "t", OnlineConfig(num_trials=4, seed=3, sanitize=True)
        )
        from repro.relational import count, scan
        from tests.conftest import KX_SCHEMA

        plan = scan("t", KX_SCHEMA).aggregate(["k"], [count("n")])
        with pytest.raises(SanitizerViolationError, match="stamp") as excinfo:
            engine.run_to_completion(plan, 3)
        assert excinfo.value.rule_id == "SAN004"
        assert excinfo.value.writer.startswith("aggregate:")

    def test_sharded_run_reports_sanitize_seconds(self, tpch_small):
        spec = TPCH_QUERIES["Q1"]
        engine = ShardedQueryEngine(
            tpch_small.catalog(),
            spec.streamed_table,
            OnlineConfig(num_trials=4, seed=3, sanitize=True, shards=2),
        )
        engine.run_to_completion(spec.plan, 3)
        assert engine.metrics.sanitize_seconds > 0
        assert relation_module._slice_hook is None

    def test_without_sanitize_write_goes_unnoticed(self, kx_catalog, monkeypatch):
        """Documents why the sanitizer exists: the same seeded write is
        silent corruption when sanitize is off."""
        monkeypatch.setattr(ScanOp, "process", _mutating_scan_process)
        engine = OnlineQueryEngine(
            kx_catalog, "t", OnlineConfig(num_trials=4, seed=3)
        )
        from repro.relational import col, count, scan, sum_
        from tests.conftest import KX_SCHEMA

        plan = scan("t", KX_SCHEMA).select(col("x") > 2.0).aggregate(
            ["k"], [sum_("y", "sy"), count("n")]
        )
        engine.run_to_completion(plan, 3)  # no error raised
        assert engine.metrics.sanitize_seconds == 0.0


# ---------------------------------------------------------------------------
# Reach: the sanitizer checks only the operators a run enters, so every
# operator class must run sanitized somewhere in the suite.
# ---------------------------------------------------------------------------


def _operator_classes():
    """The concrete ``SpineOp`` classes ``repro.core.operators`` exports."""
    return {
        obj
        for obj in vars(operators).values()
        if isinstance(obj, type) and issubclass(obj, SpineOp) and obj is not SpineOp
    }


def _run_sanitized(catalog, table, plan, batches=3):
    engine = OnlineQueryEngine(
        catalog, table, OnlineConfig(num_trials=4, seed=3, sanitize=True)
    )
    engine.run_to_completion(plan, batches)


class TestReach:
    def test_sanitized_runs_enter_every_operator_class(
        self, tpch_small, conviva_small, monkeypatch
    ):
        """The 22 workload queries, plus one plan for the classes they never
        compile to (a rename over a stream-static union with no aggregate
        above it), enter the ``process`` of every exported operator class
        with the sanitizer armed: ``check_state`` runs after each call."""
        entered = set()
        check_state = BufferSanitizer.check_state

        def recording_check_state(self, op):
            entered.add(type(op))
            return check_state(self, op)

        monkeypatch.setattr(BufferSanitizer, "check_state", recording_check_state)
        for queries, data in (
            (TPCH_QUERIES, tpch_small),
            (CONVIVA_QUERIES, conviva_small),
        ):
            catalog = data.catalog()
            for spec in queries.values():
                _run_sanitized(catalog, spec.streamed_table, spec.plan)
        catalog = Catalog({"t": random_kx(400, seed=1), "s": random_kx(40, seed=2)})
        plan = (
            scan("t", KX_SCHEMA)
            .select(col("x") > lit(1.0))
            .union(scan("s", KX_SCHEMA))
            .rename({"y": "y2"})
        )
        _run_sanitized(catalog, "t", plan)
        expected = _operator_classes()
        assert len(expected) == 11
        missing = sorted(cls.__name__ for cls in expected - entered)
        assert not missing, f"operator classes no sanitized run enters: {missing}"


# ---------------------------------------------------------------------------
# Planted defects: each in-place write a static rule could look for, and
# the aliased writes no syntactic rule sees, raise a SAN rule at runtime.
# ---------------------------------------------------------------------------


def _zero_first_trial(rel):
    rel.trial_mults[0, :] = 0.0


def _column_subscript_write(op, rel):
    rel.columns["quantity"][:] = 0.0


def _mult_augmented_write(op, rel):
    rel.mult[:] *= 2


def _sidecar_codes_fill(op, rel):
    rel.encodings["returnflag"].codes.fill(-1)


def _trial_mults_write_from_helper(op, rel):
    _zero_first_trial(rel)


def _slice_view_write(op, rel):
    view = rel.slice(0, 4)
    view.columns["quantity"][0] = -1.0


def _alias_then_write(op, rel):
    m = rel.mult
    m[:] = 0


def _ufunc_out_write(op, rel):
    np.multiply(rel.mult, 2, out=rel.mult)


def _stray_state_entry(op, rel):
    op.state.put("stray", 123)


def _reads_and_fresh_dicts(op, rel):
    cols = dict(rel.columns)
    cols["quantity"] = np.zeros(len(rel))
    return rel.columns["quantity"][:10]


#: name -> (defect planted into a filter's ``process``, the SAN rule it
#: raises; None for the clean control). The first five are the writes a
#: syntactic lint over ``.columns`` / ``.mult`` / ``.codes`` subscripts
#: can see; ``alias-then-write`` and ``ufunc-out-write`` reach the same
#: buffer through a local name or an ``out=`` argument.
PLANTED = {
    "column-subscript-write": (_column_subscript_write, "SAN001"),
    "mult-augmented-write": (_mult_augmented_write, "SAN001"),
    "sidecar-codes-fill": (_sidecar_codes_fill, "SAN001"),
    "trial-mults-write-from-helper": (_trial_mults_write_from_helper, "SAN001"),
    "slice-view-write": (_slice_view_write, "SAN001"),
    "alias-then-write": (_alias_then_write, "SAN001"),
    "ufunc-out-write": (_ufunc_out_write, "SAN001"),
    "stray-state-entry": (_stray_state_entry, "SAN004"),
    "reads-and-fresh-dicts": (_reads_and_fresh_dicts, None),
}


class TestPlantedDefects:
    @pytest.mark.parametrize("name", sorted(PLANTED))
    def test_planted_defect_raises(self, name, tpch_small, monkeypatch):
        """Q1's filter receives the streamed delta (encoded columns and
        lazy trials included); the defect runs inside its ``process``."""
        defect, rule_id = PLANTED[name]
        process = FilterOp.process

        def planted_process(self, delta, ctx):
            defect(self, delta.certain)
            return process(self, delta, ctx)

        monkeypatch.setattr(FilterOp, "process", planted_process)
        spec = TPCH_QUERIES["Q1"]
        catalog = tpch_small.catalog()
        if rule_id is None:
            _run_sanitized(catalog, spec.streamed_table, spec.plan)
            return
        with pytest.raises(SanitizerViolationError) as excinfo:
            _run_sanitized(catalog, spec.streamed_table, spec.plan)
        assert excinfo.value.rule_id == rule_id
        assert excinfo.value.writer.startswith("filter:")


# ---------------------------------------------------------------------------
# Parity: sanitized + faulted == clean, bit for bit.
# ---------------------------------------------------------------------------

FAULTS = "batch@5,sentinel@6,batch@8"
PARITY_QUERIES = [("tpch", "Q1"), ("tpch", "Q17"), ("conviva", "C8")]


class TestParity:
    @pytest.mark.parametrize("name", ["Q1", "Q17"])  # flat and nested
    def test_sanitize_mode_is_bit_identical(self, name, tpch_small):
        spec = TPCH_QUERIES[name]

        def run(sanitize):
            engine = OnlineQueryEngine(
                tpch_small.catalog(),
                spec.streamed_table,
                OnlineConfig(num_trials=20, seed=3, sanitize=sanitize),
            )
            return list(engine.run(spec.plan, 6))

        plain, checked = run(False), run(True)
        assert len(plain) == len(checked)
        for pp, pc in zip(plain, checked):
            assert pp.batch_no == pc.batch_no
            assert len(pp.rows) == len(pc.rows)
            for ra, rb in zip(pp.rows, pc.rows):
                for col_name in pp.schema.names:
                    va, vb = ra[col_name], rb[col_name]
                    if hasattr(va, "trials"):
                        assert va.value == vb.value, f"{name} {col_name}"
                        assert np.array_equal(va.trials, vb.trials, equal_nan=True)
                    else:
                        assert va == vb, f"{name} {col_name}"

    @pytest.mark.parametrize("source,name", PARITY_QUERIES)
    def test_sanitized_faulted_matches_clean(
        self, source, name, tpch_small, conviva_small
    ):
        spec = (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]
        catalog = (
            tpch_small if source == "tpch" else conviva_small
        ).catalog()

        def run(sanitize, faults=None):
            engine = OnlineQueryEngine(
                catalog,
                spec.streamed_table,
                OnlineConfig(
                    num_trials=6,
                    seed=7,
                    faults=faults,
                    sanitize=sanitize,
                ),
            )
            return engine, engine.run_to_completion(spec.plan, 8)

        eng0, clean = run(sanitize=False)
        eng1, faulted = run(sanitize=True, faults=FAULTS)
        assert faulted.to_relation().bag_equal(clean.to_relation(), 9), (
            f"{name}: sanitized faulted run diverged from the clean run"
        )
        assert eng1.metrics.num_recoveries >= 2
        assert eng1.metrics.sanitize_seconds > 0
        assert eng0.metrics.sanitize_seconds == 0.0


def test_rule_catalog_is_fully_exercised():
    import ast
    import pathlib

    source = pathlib.Path(__file__).read_text()
    asserted = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in SANITIZE_RULES
    }
    assert asserted >= set(SANITIZE_RULES), (
        f"rules without fixtures: {sorted(set(SANITIZE_RULES) - asserted)}"
    )
