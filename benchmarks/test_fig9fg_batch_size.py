"""Figures 9(f)/(g) — tuning the batch size (Conviva).

Sweeping the mini-batch size over 5 settings: the average per-batch
latency grows roughly linearly with the batch size (more data per
iteration), while the total query latency shrinks (fewer iterations, so
less per-batch scheduling/bootstrap overhead) — the user trades update
interactivity against end-to-end cost.
"""

from repro.workloads import CONVIVA_QUERIES

from benchmarks.harness import conviva_catalog, fmt_table, run_iolap, write_result

#: Batch sizes as a fraction of the dataset (the paper sweeps 15.4-35.8GB
#: around its 25.6GB default; we sweep the same +/-40% band).
BATCH_COUNTS = [33, 25, 20, 16, 14]


def sweep():
    catalog = conviva_catalog()
    total = len(catalog.get("sessions"))
    per_batch = {}
    total_lat = {}
    for name, spec in CONVIVA_QUERIES.items():
        for count in BATCH_COUNTS:
            run = run_iolap(spec, catalog, num_batches=count, num_trials=40)
            per_batch[(name, count)] = run.total_seconds / count
            total_lat[(name, count)] = run.total_seconds
    return per_batch, total_lat, total


def test_fig9f_fig9g_batch_size(benchmark):
    per_batch, total_lat, total_rows = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    sizes = [total_rows // c for c in BATCH_COUNTS]
    header = ["query"] + [f"{s} rows" for s in sizes]

    def table(metric, scale=1000.0):
        rows = []
        for name in CONVIVA_QUERIES:
            rows.append(
                [name]
                + [f"{metric[(name, c)] * scale:.1f}" for c in BATCH_COUNTS]
            )
        return fmt_table(header, rows)

    write_result("fig9f_batch_size_per_batch_ms", table(per_batch))
    write_result("fig9g_batch_size_total_ms", table(total_lat))

    # Shape: per-batch latency increases with batch size; total latency
    # decreases — for the workload in aggregate (single queries can be
    # noisy at millisecond batch times).
    agg_per_batch = [
        sum(per_batch[(q, c)] for q in CONVIVA_QUERIES) for c in BATCH_COUNTS
    ]
    agg_total = [
        sum(total_lat[(q, c)] for q in CONVIVA_QUERIES) for c in BATCH_COUNTS
    ]
    assert agg_per_batch[-1] > agg_per_batch[0]  # bigger batches, slower each
    assert agg_total[-1] < agg_total[0]  # bigger batches, faster overall
