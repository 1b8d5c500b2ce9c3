"""Sharded runs start no process.

``ShardedQueryEngine`` executes every run in the calling process: no
child process exists before, during or after any batch, whether the run
ends, is closed after its first partial or streams an empty table, and
every partial is the serial engine's. Each engine module imports as the
first ``repro`` import of a fresh interpreter.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.engine.shards import ShardedQueryEngine
from repro.relational import Catalog
from repro.workloads import CONVIVA_QUERIES

from tests.test_shards import assert_cells_identical, counts

TRIALS = 16
BATCHES = 6


@pytest.fixture(scope="module")
def conviva(conviva_small):
    return conviva_small.catalog()


def run_serial(catalog, spec, plan, batches=BATCHES):
    engine = OnlineQueryEngine(
        catalog, spec.streamed_table, OnlineConfig(num_trials=TRIALS, seed=11)
    )
    return list(engine.run(plan, batches))


def sharded_engine(catalog, spec, shards=2):
    return ShardedQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(num_trials=TRIALS, seed=11, shards=shards),
    )


def assert_serial(serial, sharded, context):
    assert len(sharded) == len(serial), context
    for s, p in zip(serial, sharded):
        where = f"{context} batch {s.batch_no}"
        assert (p.batch_no, p.is_final) == (s.batch_no, s.is_final), where
        assert counts(p.metrics) == counts(s.metrics), where
        assert_cells_identical(s.rows, p.rows, where)


class TestProcessLayout:
    def test_empty_stream_runs_one_empty_batch_as_shard_zero(self, conviva):
        spec = CONVIVA_QUERIES["C2"]
        tables = {n: conviva.get(n) for n in conviva}
        tables[spec.streamed_table] = tables[spec.streamed_table].slice(0, 0)
        catalog = Catalog(tables)
        plan = spec.plan
        engine = sharded_engine(catalog, spec)
        partials = list(engine.run(plan, 4))
        assert len(partials) == 1
        assert partials[0].is_final and partials[0].fraction_processed == 1.0
        assert engine.shard_cpu_seconds == {}
        assert not mp.active_children()
        assert_serial(run_serial(catalog, spec, plan, 4), partials, "C2 empty")


class TestFirstEstimate:
    """C2 at two shards, the run a key-partitioned engine forked at."""

    def test_no_process_before_the_second_batch(self, conviva):
        spec = CONVIVA_QUERIES["C2"]
        plan = spec.plan
        partials = sharded_engine(conviva, spec).run(plan, BATCHES)
        first = next(partials)
        assert mp.active_children() == []
        second = next(partials)
        assert mp.active_children() == []
        rest = list(partials)
        assert not mp.active_children()
        assert_serial(run_serial(conviva, spec, plan), [first, second, *rest], "C2")

    def test_one_batch_run_starts_no_process(self, conviva):
        spec = CONVIVA_QUERIES["C2"]
        engine = sharded_engine(conviva, spec)
        partials = list(engine.run(spec.plan, 1))
        assert len(partials) == 1 and partials[0].is_final
        assert engine.shard_cpu_seconds == {}
        assert not mp.active_children()

    def test_run_closed_after_the_first_partial_starts_no_process(self, conviva):
        spec = CONVIVA_QUERIES["C2"]
        partials = sharded_engine(conviva, spec).run(spec.plan, BATCHES)
        assert next(partials).batch_no == 1
        partials.close()
        assert not mp.active_children()


@pytest.mark.parametrize(
    "module",
    [
        "repro.engine",
        "repro.engine.executor",
        "repro.engine.shards",
        "repro.engine.shards.engine",
        "repro.engine.shards.keys",
        "repro.engine.shards.planner",
    ],
)
def test_module_imports_first(module):
    """Each module imports as the first ``repro`` import of an interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
