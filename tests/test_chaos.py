"""Chaos suite: every workload query, under injected faults, must deliver
the fault-free answer (the executable form of the Section 5.1 claim that
failure recovery preserves Theorem 1).

The fault plan per run forces two controller-level integrity failures
(``batch`` faults, which fire for every query shape) and one
operator-level one (a ``sentinel`` fault, which fires only in plans with
uncertain SELECT/JOIN operators). Each recovery restores the pristine
baseline and replays the processed batches conservatively.

Scale knobs (for the CI chaos-smoke job):

* ``IOLAP_CHAOS_BATCHES`` — mini-batches per run (default 8)
* ``IOLAP_CHAOS_TRIALS``  — bootstrap trials (default 8)
* ``IOLAP_CHAOS_SANITIZE`` — set to ``1`` to run every engine with the
  zero-copy aliasing sanitizer on (the CI chaos-smoke job does); results
  must still be bit-identical to the fault-free run
"""

from __future__ import annotations

import os

import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES

BATCHES = int(os.environ.get("IOLAP_CHAOS_BATCHES", "8"))
TRIALS = int(os.environ.get("IOLAP_CHAOS_TRIALS", "8"))
SANITIZE = os.environ.get("IOLAP_CHAOS_SANITIZE") == "1"

#: Replays from the baseline at batches 5 and 8, and at 6 where a
#: sentinel probe exists.
FAULTS = "batch@5,sentinel@6,batch@8"

ALL_QUERIES = [("tpch", name) for name in TPCH_QUERIES] + [
    ("conviva", name) for name in CONVIVA_QUERIES
]


@pytest.fixture(scope="module")
def catalogs(tpch_small, conviva_small):
    return {"tpch": tpch_small.catalog(), "conviva": conviva_small.catalog()}


def run_query(spec, catalog, faults=None):
    engine = OnlineQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(
            num_trials=TRIALS,
            seed=7,
            faults=faults,
            sanitize=SANITIZE,
        ),
    )
    return engine, engine.run_to_completion(spec.plan, BATCHES)


def spec_of(source, name):
    return (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]


class TestChaos:
    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_serial(self, source, name, catalogs):
        spec = spec_of(source, name)
        catalog = catalogs[source]
        eng0, clean = run_query(spec, catalog)
        eng1, faulted = run_query(spec, catalog, faults=FAULTS)
        # Real (non-injected) violations can also occur, especially at low
        # trial counts — recovery handles those identically, so only the
        # two *forced* failures are a floor, not an exact count.
        extra = eng0.metrics.num_recoveries
        assert eng1.metrics.num_recoveries >= 2, (
            f"{name}: expected both forced failures to recover "
            f"(got {eng1.metrics.num_recoveries}, clean run had {extra})"
        )
        assert faulted.to_relation().bag_equal(clean.to_relation(), 9), (
            f"{name}: faulted final diverged from fault-free"
        )
