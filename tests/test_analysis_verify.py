"""Runtime contract verification (``OnlineConfig(verify=True)``).

Two halves: verified runs must be *observational* — bit-identical partial
results to unverified runs on flat and nested queries — and each
contract (input immutability, declared state entries) must actually fire
on a violating operator.
"""

import numpy as np
import pytest

from repro.analysis.verify import ContractVerifier, fingerprint_value
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.operators import DeltaBatch, StateRule
from repro.errors import ContractViolationError
from repro.state import InMemoryStateStore
from repro.workloads import TPCH_QUERIES, generate_tpch
from tests.conftest import random_kx


# -- verified runs are observational ----------------------------------------------


def _run(spec, catalog, *, verify, num_batches=6):
    engine = OnlineQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(num_trials=20, seed=3, verify=verify),
    )
    return list(engine.run(spec.plan, num_batches))


@pytest.mark.parametrize("name", ["Q1", "Q17"])  # flat and nested
def test_verify_mode_is_bit_identical(name):
    catalog = generate_tpch(scale=0.5, seed=3).catalog()
    spec = TPCH_QUERIES[name]
    plain = _run(spec, catalog, verify=False)
    checked = _run(spec, catalog, verify=True)
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


def test_verify_flag_installs_verifier():
    from repro.core.blocks import RuntimeContext
    from repro.relational import Catalog

    def ctx(config):
        return RuntimeContext(Catalog({}), "t", 100, config)

    assert ctx(OnlineConfig(verify=True)).verifier is not None
    assert ctx(OnlineConfig()).verifier is None


# -- direct contract checks -------------------------------------------------------


class _FakeCtx:
    """Just enough RuntimeContext surface for the verifier hooks."""

    def __init__(self, delta=None):
        self.batch_no = 0
        self._delta = delta

    @property
    def delta(self):
        return self._delta


class _FakeOp:
    state_rule = StateRule(frozenset({"nd"}), nd_entry="nd")

    def __init__(self, label="fake:op"):
        self.label = label
        self.state = InMemoryStateStore()
        self.state.put("nd", {})

    def state_items(self):
        return list(self.state.items())


def _batch(seed=0):
    return DeltaBatch(certain=random_kx(16, seed=seed), volatile=random_kx(4, seed=seed + 1))


def test_clean_process_passes():
    verifier, op, ctx = ContractVerifier(), _FakeOp(), _FakeCtx()
    batch = _batch()
    verifier.before_process(op, batch, ctx)
    verifier.after_process(op, batch, ctx)  # no mutation, declared state → fine


def test_input_mutation_detected():
    verifier, op, ctx = ContractVerifier(), _FakeOp(), _FakeCtx()
    batch = _batch()
    verifier.before_process(op, batch, ctx)
    batch.certain.mult[0] += 1.0
    with pytest.raises(ContractViolationError, match="mutated its input"):
        verifier.after_process(op, batch, ctx)


def test_input_column_mutation_detected():
    verifier, op, ctx = ContractVerifier(), _FakeOp(), _FakeCtx()
    batch = _batch()
    verifier.before_process(op, batch, ctx)
    batch.volatile.columns["x"][0] = -999.0
    with pytest.raises(ContractViolationError, match="mutated its input"):
        verifier.after_process(op, batch, ctx)


def test_ctx_delta_mutation_detected():
    delta = random_kx(32, seed=5)
    verifier, op, ctx = ContractVerifier(), _FakeOp(), _FakeCtx(delta=delta)
    batch = _batch()
    verifier.before_process(op, batch, ctx)
    delta.mult[0] += 1.0
    with pytest.raises(ContractViolationError, match="ctx.delta"):
        verifier.after_process(op, batch, ctx)


def test_multi_input_fingerprint_covers_all_children():
    batches = [_batch(seed=1), _batch(seed=2)]
    before = fingerprint_value(batches)
    batches[1].certain.mult[0] += 1.0
    assert fingerprint_value(batches) != before
    assert fingerprint_value(None) is None


def test_stray_state_entry_detected():
    verifier, op, ctx = ContractVerifier(), _FakeOp(), _FakeCtx()
    batch = _batch()
    verifier.before_process(op, batch, ctx)
    op.state.put("stray", 123)
    with pytest.raises(ContractViolationError, match="StateRule"):
        verifier.after_process(op, batch, ctx)


def test_missing_state_entry_detected():
    verifier, op, ctx = ContractVerifier(), _FakeOp(), _FakeCtx()
    batch = _batch()
    verifier.before_process(op, batch, ctx)
    op.state.delete("nd")
    with pytest.raises(ContractViolationError, match="StateRule"):
        verifier.after_process(op, batch, ctx)
