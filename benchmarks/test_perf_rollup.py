"""Rollup-tier perf benchmark: many groups, shrinking ND frontier.

The workload the two-tier plan exists for: a wide GROUP BY (tens of
thousands of groups) over group-sorted arrival (``sequential``
partitioning), so each mini-batch touches only a thin wave of groups
while every previously seen group has stopped changing. Without the
rollup tier the sink re-finalizes, re-ranges, and re-publishes every
group ever seen, so per-batch cost grows linearly with the published
universe; with ``rollup=True`` quiescent resolved groups migrate out of
the hot path and per-batch cost stays flat in the resolved-group count.

Results are written to ``BENCH_rollup.json`` at the repo root — the
machine-readable perf trajectory CI regenerates and diffs (the
``rollup-smoke`` job fails if the speedup falls below half the
checked-in number).

Scale knobs (environment variables, defaults = the checked-in config):

* ``IOLAP_ROLLUP_ROWS``    — fact rows (default 120000)
* ``IOLAP_ROLLUP_GROUPS``  — distinct group keys (default 12000)
* ``IOLAP_ROLLUP_BATCHES`` — mini-batches (default 64)
* ``IOLAP_ROLLUP_TRIALS``  — bootstrap trials (default 100)
* ``IOLAP_ROLLUP_REPS``    — repetitions, best-of (default 3)
* ``IOLAP_ROLLUP_MIN_SPEEDUP`` — end-to-end assertion floor (default
  2.0; the checked-in full-scale run shows 3x)
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.relational import Catalog, Schema, avg, relation_from_columns, scan
from repro.relational.schema import ColumnType

from benchmarks.harness import SEED

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_rollup.json"

ROLLUP_ROWS = int(os.environ.get("IOLAP_ROLLUP_ROWS", "120000"))
ROLLUP_GROUPS = int(os.environ.get("IOLAP_ROLLUP_GROUPS", "12000"))
ROLLUP_BATCHES = int(os.environ.get("IOLAP_ROLLUP_BATCHES", "64"))
ROLLUP_TRIALS = int(os.environ.get("IOLAP_ROLLUP_TRIALS", "100"))
ROLLUP_REPS = int(os.environ.get("IOLAP_ROLLUP_REPS", "3"))
MIN_SPEEDUP = float(os.environ.get("IOLAP_ROLLUP_MIN_SPEEDUP", "2.0"))

SCHEMA = Schema([("g", ColumnType.INT), ("x", ColumnType.FLOAT)])


def many_groups_catalog() -> Catalog:
    """Group-sorted stream: each batch is a thin wave of fresh groups."""
    rng = np.random.default_rng(SEED)
    return Catalog(
        {
            "t": relation_from_columns(
                SCHEMA,
                g=np.sort(rng.integers(0, ROLLUP_GROUPS, ROLLUP_ROWS)),
                x=rng.normal(50.0, 10.0, ROLLUP_ROWS),
            )
        }
    )


def run_mode(catalog: Catalog, rollup: bool) -> dict:
    plan = scan("t", SCHEMA).aggregate(["g"], [avg("x", "ax")])
    engine = OnlineQueryEngine(
        catalog,
        "t",
        OnlineConfig(num_trials=ROLLUP_TRIALS, seed=SEED, rollup=rollup),
        partition_mode="sequential",
    )
    t0 = time.perf_counter()
    final = None
    for partial in engine.run(plan, ROLLUP_BATCHES):
        final = partial
    total = time.perf_counter() - t0
    engine.executor.close()
    batches = engine.metrics.batches
    return {
        "total_seconds": total,
        "per_batch_seconds": [bm.wall_seconds for bm in batches],
        "rollup_group_batches": sum(bm.rollup_groups for bm in batches),
        "nd_group_batches": sum(bm.nd_groups for bm in batches),
        "final": final,
    }


def _tail_over_head(per_batch: list[float]) -> float:
    """Median late-run batch cost over median early-run batch cost.

    The flatness witness: a sink whose per-batch cost is flat in the
    resolved-group count scores ~1; one that re-publishes the whole
    published universe scores ~(universe / wave). Medians, not means, so
    checkpoint/GC spikes don't decide the verdict.
    """
    quarter = max(1, len(per_batch) // 4)
    head = per_batch[quarter : 2 * quarter]  # past warm-up, pre-saturation
    tail = per_batch[-quarter:]
    return float(np.median(tail) / np.median(head))


@pytest.fixture(scope="module")
def bench() -> dict:
    catalog = many_groups_catalog()
    runs: dict[bool, dict] = {}
    for rollup in (True, False):
        best = None
        for _ in range(ROLLUP_REPS):
            result = run_mode(catalog, rollup)
            if best is None or result["total_seconds"] < best["total_seconds"]:
                best = result
        runs[rollup] = best

    on, off = runs[True], runs[False]
    finals = {mode: run.pop("final") for mode, run in (("on", on), ("off", off))}
    result = {
        "schema": "bench-rollup-v1",
        "config": {
            "rows": ROLLUP_ROWS,
            "groups": ROLLUP_GROUPS,
            "num_batches": ROLLUP_BATCHES,
            "num_trials": ROLLUP_TRIALS,
            "reps": ROLLUP_REPS,
            "seed": SEED,
            "partition_mode": "sequential",
            "query": "t sorted by g -> groupby g [avg(x)]",
        },
        "end_to_end": {
            "rollup": on,
            "reference": off,
            "speedup": off["total_seconds"] / on["total_seconds"],
            "tail_over_head_rollup": _tail_over_head(on["per_batch_seconds"]),
            "tail_over_head_reference": _tail_over_head(
                off["per_batch_seconds"]
            ),
        },
    }
    BENCH_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    result["finals"] = finals
    return result


def test_end_to_end_speedup(bench):
    speedup = bench["end_to_end"]["speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"rollup end-to-end speedup {speedup:.2f}x below floor {MIN_SPEEDUP}x"
    )


def test_per_batch_cost_flat_in_resolved_groups(bench):
    """The mechanism, not just the headline: rollup-on batch cost must
    stay flat while the reference grows with the published universe."""
    on = bench["end_to_end"]["tail_over_head_rollup"]
    off = bench["end_to_end"]["tail_over_head_reference"]
    assert on <= 2.0, f"rollup per-batch cost grew {on:.2f}x head->tail"
    assert off >= 2.0, (
        f"reference per-batch cost grew only {off:.2f}x head->tail — the "
        "workload no longer stresses the published-universe recompute"
    )
    assert off / on >= 1.5, f"flatness gap too small: off={off:.2f} on={on:.2f}"


def test_rollup_tier_dominates_hot_tier(bench):
    """Most group-batches must be served from the rollup tier, otherwise
    the speedup is coming from somewhere other than migration."""
    served = bench["end_to_end"]["rollup"]["rollup_group_batches"]
    hot = bench["end_to_end"]["rollup"]["nd_group_batches"]
    assert served > hot, f"rollup tier served {served} <= hot tier {hot}"
    assert bench["end_to_end"]["reference"]["rollup_group_batches"] == 0


def test_final_results_agree(bench):
    """Same answer either way (bit-identity per batch is enforced by
    tests/test_rollup.py; this guards the benchmark's own config)."""
    on = bench["finals"]["on"].to_relation()
    off = bench["finals"]["off"].to_relation()
    assert on.bag_equal(off, 9)


def test_bench_file_checked_in_and_valid(bench):
    on_disk = json.loads(BENCH_PATH.read_text())
    assert on_disk["schema"] == "bench-rollup-v1"
    for section in ("config", "end_to_end"):
        assert section in on_disk
    for mode in ("rollup", "reference"):
        run = on_disk["end_to_end"][mode]
        assert len(run["per_batch_seconds"]) == on_disk["config"]["num_batches"]
        assert run["total_seconds"] > 0
