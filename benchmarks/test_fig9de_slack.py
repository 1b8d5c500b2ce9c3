"""Figures 9(d)/(e) — tuning the slack parameter ε (Conviva).

Sweeping ε over {0, 0.5, 1, 1.5, 2, 2.5} for the nested Conviva queries:

* 9(d): the probability of failure-recovery drops quickly as ε grows and
  reaches (near) zero by ε = 2 — recoveries per run, averaged over seeds;
* 9(e): the average number of tuples recomputed per batch grows only
  mildly with ε (wider ranges put more tuples in the non-deterministic
  set, but running estimates concentrate quickly).
"""

import numpy as np

from repro.workloads import CONVIVA_QUERIES

from benchmarks.harness import (
    NESTED_CONVIVA,
    conviva_catalog,
    fmt_table,
    run_iolap,
    write_result,
)

SLACKS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
SEEDS = [42, 43, 44]
#: Noisier-than-default estimation settings (few trials, many small
#: batches) so low-slack ranges actually mis-predict — the regime the
#: paper's sweep explores.
SWEEP_BATCHES = 30
SWEEP_TRIALS = 15


def sweep():
    failures = {}
    recomputed = {}
    for name in NESTED_CONVIVA:
        spec = CONVIVA_QUERIES[name]
        catalog = conviva_catalog(1.0)
        for slack in SLACKS:
            recs = []
            recomp = []
            for seed in SEEDS:
                run = run_iolap(
                    spec,
                    catalog,
                    num_batches=SWEEP_BATCHES,
                    slack=slack,
                    seed=seed,
                    num_trials=SWEEP_TRIALS,
                )
                recs.append(run.metrics.num_recoveries)
                recomp.append(
                    run.metrics.total_recomputed / len(run.metrics.batches)
                )
            failures[(name, slack)] = float(np.mean(recs)) / SWEEP_BATCHES
            recomputed[(name, slack)] = float(np.mean(recomp))
    return failures, recomputed


def test_fig9d_fig9e_slack(benchmark):
    failures, recomputed = benchmark.pedantic(sweep, rounds=1, iterations=1)

    def table(metric, fmt):
        rows = []
        for name in NESTED_CONVIVA:
            rows.append([name] + [fmt(metric[(name, s)]) for s in SLACKS])
        return fmt_table(["query"] + [f"slack={s}" for s in SLACKS], rows)

    write_result(
        "fig9d_slack_failure_probability",
        table(failures, lambda v: f"{v:.3f}"),
    )
    write_result(
        "fig9e_slack_nd_set",
        table(recomputed, lambda v: f"{v:.0f}"),
    )

    # Shape (9d): larger slack never hurts much and ε=2 is (near) failure
    # free; the tight-slack end shows strictly more recoveries overall.
    total_at = {
        s: sum(failures[(q, s)] for q in NESTED_CONVIVA) for s in SLACKS
    }
    assert total_at[2.0] < total_at[0.0]
    assert total_at[2.0] <= 0.1 * len(NESTED_CONVIVA)
    # Shape (9e): the ND set grows only mildly with slack.
    for name in NESTED_CONVIVA:
        lo = max(recomputed[(name, 0.5)], 1.0)
        assert recomputed[(name, 2.5)] <= max(5.0 * lo, lo + 2000.0), name
