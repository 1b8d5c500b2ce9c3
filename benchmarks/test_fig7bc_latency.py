"""Figures 7(b)/(c) — baseline vs. iOLAP latency on TPC-H and Conviva.

For every workload query the paper plots: the batch baseline's latency,
iOLAP's latency to deliver the 5% and 10% approximate answers, and
iOLAP's latency to process everything. The shape claims: approximate
answers arrive after a small fraction of the total online work, and
running iOLAP to completion costs a bounded overhead over the data
(the paper reports ~60% on average, at most ~100-150%).

Both wall-clock and the scale-free work measure (tuples ingested +
recomputed, relative to the dataset) are reported; assertions use work
(see fig7a's measurement note).
"""

from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES

from benchmarks.harness import (
    catalog_for,
    fmt_table,
    run_baseline,
    run_iolap,
    write_result,
)


def latency_rows(queries):
    rows = []
    for name, spec in queries.items():
        catalog = catalog_for(spec)
        total_rows = len(catalog.get(spec.streamed_table))
        baseline = run_baseline(spec, catalog)
        run = run_iolap(spec, catalog)
        work = 0
        work_5 = work_10 = None
        seen = 0
        for bm in run.metrics.batches:
            work += bm.new_tuples + bm.recomputed_tuples
            seen += bm.new_tuples
            if work_5 is None and seen >= 0.05 * total_rows:
                work_5 = work
            if work_10 is None and seen >= 0.10 * total_rows:
                work_10 = work
        rows.append(
            [
                name,
                baseline.wall_seconds,
                run.seconds_at_fraction(0.05),
                run.seconds_at_fraction(0.10),
                run.total_seconds,
                (work_5 or 0) / total_rows,
                (work_10 or 0) / total_rows,
                work / total_rows,
            ]
        )
    return rows


HEADER = [
    "query",
    "baseline s",
    "iOLAP@5% s",
    "iOLAP@10% s",
    "iOLAP full s",
    "work@5%",
    "work@10%",
    "work full",
]


def check_shapes(rows):
    # The early-answer bars must be cheap for every query; the full-run
    # envelope is dominated by the heaviest non-deterministic sets (the
    # paper's Q18/Q20 are also its most recomputation-heavy queries; note
    # that our counter charges a tuple once per operator that revisits it).
    for row in rows:
        name, *_, w5, w10, wfull = row
        assert w5 <= 0.35, f"{name}: 5% answer cost {w5:.2f}x data"
        assert w10 <= 0.5, f"{name}: 10% answer cost {w10:.2f}x data"
        assert wfull <= 9.0, f"{name}: full online work {wfull:.2f}x data"


def test_fig7b_tpch_latency(benchmark):
    rows = benchmark.pedantic(
        lambda: latency_rows(TPCH_QUERIES), rounds=1, iterations=1
    )
    write_result("fig7b_tpch_latency", fmt_table(HEADER, rows))
    check_shapes(rows)


def test_fig7c_conviva_latency(benchmark):
    rows = benchmark.pedantic(
        lambda: latency_rows(CONVIVA_QUERIES), rounds=1, iterations=1
    )
    write_result("fig7c_conviva_latency", fmt_table(HEADER, rows))
    check_shapes(rows)
