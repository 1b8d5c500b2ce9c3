"""Figures 10(a)–(f) — the Appendix D experiments.

* 10(a)/(b): iOLAP vs. HDA end-to-end — latency to process 5%, 10%, and
  all of the data. For flat SPJA queries the two are comparable; for
  nested queries HDA's accumulated recomputation makes its full run far
  more expensive (we compare recomputed tuples, the scale-free measure,
  plus wall-clock).
* 10(c)/(d): Conviva operator state sizes and shipped data (the Conviva
  analogue of Figs 9(b)/(c) — all states stay small because the workload
  joins at most one tiny dimension table).
* 10(e)/(f): the slack sweep on the nested TPC-H queries.
"""

import numpy as np

from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES

from benchmarks.harness import (
    NESTED_TPCH,
    catalog_for,
    fmt_table,
    run_baseline,
    run_hda,
    run_iolap,
    tpch_catalog,
    write_result,
)


def hda_vs_iolap(queries):
    rows = []
    for name, spec in queries.items():
        catalog = catalog_for(spec)
        iolap = run_iolap(spec, catalog, num_trials=10)
        hda = run_hda(spec, catalog)
        hda_work = sum(b.new_tuples + b.recomputed_tuples for b in hda.batches)
        iolap_work = sum(
            b.new_tuples + b.recomputed_tuples for b in iolap.metrics.batches
        )
        rows.append(
            [
                name,
                iolap.seconds_at_fraction(0.10),
                hda.seconds_until_fraction(0.10),
                iolap.total_seconds,
                hda.total_seconds,
                iolap_work,
                hda_work,
            ]
        )
    return rows


HEADER_AB = [
    "query",
    "iOLAP@10% s",
    "HDA@10% s",
    "iOLAP full s",
    "HDA full s",
    "iOLAP tuples",
    "HDA tuples",
]


def test_fig10a_tpch_hda(benchmark):
    rows = benchmark.pedantic(
        lambda: hda_vs_iolap(TPCH_QUERIES), rounds=1, iterations=1
    )
    write_result("fig10a_tpch_iolap_vs_hda", fmt_table(HEADER_AB, rows))
    _check_work(rows, TPCH_QUERIES)


def test_fig10b_conviva_hda(benchmark):
    rows = benchmark.pedantic(
        lambda: hda_vs_iolap(CONVIVA_QUERIES), rounds=1, iterations=1
    )
    write_result("fig10b_conviva_iolap_vs_hda", fmt_table(HEADER_AB, rows))
    _check_work(rows, CONVIVA_QUERIES)


def _check_work(rows, queries):
    for row in rows:
        name, *_ , iolap_work, hda_work = row
        if queries[name].nested and name not in ("Q11", "C4", "C10"):
            # HDA reprocesses the accumulated data every batch; iOLAP's
            # total work stays within a small multiple of the data.
            # (Q11/C4/C10 are the paper's flattening exceptions: their
            # outer queries only join small aggregates, never re-reading
            # the fact table.)
            assert hda_work > 1.5 * iolap_work, name


def conviva_memory():
    rows_state = []
    rows_shipped = []
    for name, spec in CONVIVA_QUERIES.items():
        run = run_iolap(spec)
        baseline = run_baseline(spec)
        join_state = run.metrics.max_state_bytes("join:")
        other = max(
            b.total_state_bytes - b.state_bytes_matching("join:")
            for b in run.metrics.batches
        )
        rows_state.append(
            [name, f"{join_state/1e6:.3f}", f"{other/1e6:.3f}"]
        )
        rows_shipped.append(
            [
                name,
                f"{baseline.stats.bytes_shipped/1e6:.3f}",
                f"{run.metrics.total_shipped_bytes/1e6:.3f}",
                f"{run.metrics.total_shipped_bytes/len(run.metrics.batches)/1e6:.3f}",
            ]
        )
    return rows_state, rows_shipped


def test_fig10cd_conviva_memory(benchmark):
    rows_state, rows_shipped = benchmark.pedantic(
        conviva_memory, rounds=1, iterations=1
    )
    write_result(
        "fig10c_conviva_state_sizes",
        fmt_table(["query", "join state MB", "other state MB"], rows_state),
    )
    write_result(
        "fig10d_conviva_data_shipped",
        fmt_table(
            ["query", "baseline MB", "iOLAP total MB", "iOLAP per-batch MB"],
            rows_shipped,
        ),
    )
    for row in rows_state:
        # All Conviva states stay small (hundreds of KB at our scale —
        # "a few hundreds of MBs" at the paper's).
        assert float(row[1]) + float(row[2]) < 8.0, row[0]
    for row in rows_shipped:
        if float(row[1]) > 0.1:
            assert float(row[3]) < float(row[1]), row[0]


SLACKS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
SEEDS = [42, 43, 44]


def tpch_slack_sweep():
    failures = {}
    nd_sizes = {}
    catalog = tpch_catalog(1.0)
    for name in NESTED_TPCH:
        spec = TPCH_QUERIES[name]
        for slack in SLACKS:
            recs = []
            recomp = []
            for seed in SEEDS:
                run = run_iolap(
                    spec,
                    catalog,
                    num_batches=30,
                    num_trials=15,
                    slack=slack,
                    seed=seed,
                )
                recs.append(run.metrics.num_recoveries)
                recomp.append(run.metrics.total_recomputed / 30)
            failures[(name, slack)] = float(np.mean(recs)) / 30
            nd_sizes[(name, slack)] = float(np.mean(recomp))
    return failures, nd_sizes


def test_fig10ef_tpch_slack(benchmark):
    failures, nd_sizes = benchmark.pedantic(tpch_slack_sweep, rounds=1, iterations=1)

    def table(metric, fmt):
        rows = [
            [name] + [fmt(metric[(name, s)]) for s in SLACKS]
            for name in NESTED_TPCH
        ]
        return fmt_table(["query"] + [f"slack={s}" for s in SLACKS], rows)

    write_result("fig10e_tpch_slack_failures", table(failures, lambda v: f"{v:.3f}"))
    write_result("fig10f_tpch_slack_nd_set", table(nd_sizes, lambda v: f"{v:.0f}"))

    total_at = {s: sum(failures[(q, s)] for q in NESTED_TPCH) for s in SLACKS}
    assert total_at[2.5] <= total_at[0.0]
