"""Figures 8(a)–(f) — delta-processing comparison of iOLAP vs. HDA.

* 8(a)/(c): for simple SPJA queries the two algorithms collapse to the
  same classical delta processing — per-batch latency ratios hover
  around 1 and stay flat.
* 8(b)/(d): for nested queries HDA re-evaluates the outer query over all
  accumulated data each batch, so the HDA/iOLAP per-batch latency ratio
  grows roughly linearly with the batch number, while iOLAP's per-batch
  cost stays near constant.
* 8(e)/(f): the number of tuples iOLAP recomputes per batch is a small
  fraction of the accumulated data and grows sub-linearly.
"""

import numpy as np

from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES

from benchmarks.harness import (
    FLAT_CONVIVA,
    FLAT_TPCH,
    NESTED_CONVIVA,
    NESTED_TPCH,
    NUM_BATCHES,
    conviva_catalog,
    fmt_table,
    run_hda,
    run_iolap,
    thin_series,
    tpch_catalog,
    write_result,
)

#: The latency-ratio experiments use a larger dataset so per-batch data
#: processing dominates fixed per-batch overheads (scheduling in the
#: paper's Spark setting, Python dispatch here).
RATIO_SCALE = 5.0


def ratio_catalog(spec):
    if spec.name.startswith("C"):
        return conviva_catalog(RATIO_SCALE)
    return tpch_catalog(RATIO_SCALE)


def ratio_series(queries, names):
    # HDA is a pure delta-processing comparator (the paper implements it
    # "without code generation and indexes" and we run it without error
    # estimation), so iOLAP runs with a small trial count here to keep the
    # comparison about delta processing rather than bootstrap flops.
    out = {}
    for name in names:
        spec = queries[name]
        catalog = ratio_catalog(spec)
        iolap = run_iolap(spec, catalog, num_trials=10).metrics
        hda = run_hda(spec, catalog)
        out[name] = [
            h.wall_seconds / max(i.wall_seconds, 1e-9)
            for h, i in zip(hda.batches, iolap.batches)
        ]
    return out


def ratio_table(series: dict[str, list[float]]) -> str:
    names = list(series)
    rows = []
    for batch_no, _ in thin_series(series[names[0]]):
        rows.append([batch_no] + [series[q][batch_no - 1] for q in names])
    return fmt_table(["batch"] + names, rows)


def test_fig8a_tpch_flat_ratio(benchmark):
    series = benchmark.pedantic(
        lambda: ratio_series(TPCH_QUERIES, FLAT_TPCH), rounds=1, iterations=1
    )
    write_result("fig8a_tpch_flat_ratio", ratio_table(series))
    # Flat queries: comparable performance throughout — the ratio must not
    # grow systematically (allow generous noise at millisecond batches).
    for name, values in series.items():
        late = np.mean(values[-5:])
        early = np.mean(values[:5])
        assert late < max(4.0, 3.0 * early), f"{name} ratio grew: {values}"


def test_fig8b_tpch_nested_ratio(benchmark):
    series = benchmark.pedantic(
        lambda: ratio_series(TPCH_QUERIES, NESTED_TPCH), rounds=1, iterations=1
    )
    write_result("fig8b_tpch_nested_ratio", ratio_table(series))
    # Nested queries where the outer block re-reads the fact table: HDA
    # degrades linearly while iOLAP stays ~constant, so the late-run ratio
    # clearly exceeds the early-run ratio. (Q11's outer query joins two
    # small aggregates — the paper notes its curve flattens out.)
    growing = 0
    for name, values in series.items():
        if np.mean(values[-5:]) > 1.5 * np.mean(values[:3]):
            growing += 1
    assert growing >= 3, f"expected most nested ratios to grow: {series}"


def test_fig8c_conviva_flat_ratio(benchmark):
    series = benchmark.pedantic(
        lambda: ratio_series(CONVIVA_QUERIES, FLAT_CONVIVA), rounds=1, iterations=1
    )
    write_result("fig8c_conviva_flat_ratio", ratio_table(series))
    for name, values in series.items():
        assert np.mean(values[-5:]) < max(4.0, 3.0 * np.mean(values[:5]))


def test_fig8d_conviva_nested_ratio(benchmark):
    series = benchmark.pedantic(
        lambda: ratio_series(CONVIVA_QUERIES, NESTED_CONVIVA), rounds=1, iterations=1
    )
    write_result("fig8d_conviva_nested_ratio", ratio_table(series))
    growing = sum(
        1
        for values in series.values()
        if np.mean(values[-5:]) > 1.5 * np.mean(values[:3])
    )
    assert growing >= len(series) // 2, f"nested ratios should grow: {series}"


def recomputed_series(queries, names):
    out = {}
    for name in names:
        spec = queries[name]
        run = run_iolap(spec, num_trials=30)
        out[name] = [b.recomputed_tuples for b in run.metrics.batches]
    return out


def recomputed_table(series) -> str:
    names = list(series)
    rows = []
    for batch_no, _ in thin_series(series[names[0]]):
        rows.append([batch_no] + [series[q][batch_no - 1] for q in names])
    return fmt_table(["batch"] + names, rows)


def check_sublinear(series, catalog_rows):
    """Per-batch recomputation must grow slower than the accumulated data
    (which doubles, triples, ... linearly with the batch number)."""
    for name, values in series.items():
        tail = np.mean(values[-4:])
        mid = max(np.mean(values[4:8]), 1.0)
        accumulated_growth = (NUM_BATCHES - 2) / 6.0
        assert tail / mid < accumulated_growth, (
            f"{name}: recomputation grew super-linearly: {values}"
        )


def test_fig8e_tpch_recomputed(benchmark):
    series = benchmark.pedantic(
        lambda: recomputed_series(TPCH_QUERIES, NESTED_TPCH), rounds=1, iterations=1
    )
    write_result("fig8e_tpch_recomputed", recomputed_table(series))
    check_sublinear(series, None)


def test_fig8f_conviva_recomputed(benchmark):
    series = benchmark.pedantic(
        lambda: recomputed_series(CONVIVA_QUERIES, NESTED_CONVIVA),
        rounds=1,
        iterations=1,
    )
    write_result("fig8f_conviva_recomputed", recomputed_table(series))
    check_sublinear(series, None)
