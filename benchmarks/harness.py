"""Shared infrastructure for the figure/table reproduction benchmarks.

Every benchmark module regenerates one table or figure from the paper's
Section 8 / Appendix D, printing the same rows or series the paper plots
and writing them under ``benchmarks/results/`` for EXPERIMENTS.md.

Scales are laptop-sized (DESIGN.md §2): the *shape* of each result —
who wins, growth trends, crossovers — is the reproduction target, not the
absolute EC2 numbers.
"""

from __future__ import annotations

import functools
import pathlib
from dataclasses import dataclass

from repro.analysis import check_plan
from repro.baselines import BatchRunResult, HDAExecutor, run_batch
from repro.core import OnlineConfig, OnlineQueryEngine, PartialResult
from repro.metrics import RunMetrics
from repro.relational import Catalog
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    QuerySpec,
    generate_conviva,
    generate_tpch,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Default experiment scales: ~40k fact rows, 20 mini-batches, 60 trials.
TPCH_SCALE = 2.0
CONVIVA_SCALE = 2.0
NUM_BATCHES = 20
NUM_TRIALS = 60
SEED = 42

#: Mini-batch row counts per streamed relation (the Table 1 analogue).
def batch_rows(catalog: Catalog, table: str, num_batches: int = NUM_BATCHES) -> int:
    return max(1, len(catalog.get(table)) // num_batches)


@functools.lru_cache(maxsize=None)
def tpch_catalog(scale: float = TPCH_SCALE) -> Catalog:
    return generate_tpch(scale=scale, seed=SEED).catalog()


@functools.lru_cache(maxsize=None)
def conviva_catalog(scale: float = CONVIVA_SCALE) -> Catalog:
    return generate_conviva(scale=scale, seed=SEED).catalog()


def catalog_for(spec: QuerySpec) -> Catalog:
    if spec.name.startswith("C"):
        return conviva_catalog()
    return tpch_catalog()


@dataclass
class OnlineRun:
    """One complete online execution with its per-batch history."""

    spec: QuerySpec
    metrics: RunMetrics
    partials: list[PartialResult]

    @property
    def total_seconds(self) -> float:
        return self.metrics.total_seconds

    def seconds_at_fraction(self, fraction: float) -> float:
        return self.metrics.seconds_until_fraction(fraction)

    def op_seconds(self) -> dict[str, float]:
        """Per-operator/unit wall seconds, summed over the whole run."""
        return self.metrics.total_op_seconds()

    def top_op_seconds(self, n: int = 6) -> list[tuple[str, float]]:
        totals = sorted(self.op_seconds().items(), key=lambda kv: -kv[1])
        return totals[:n]


def run_iolap(
    spec: QuerySpec,
    catalog: Catalog | None = None,
    num_batches: int = NUM_BATCHES,
    num_trials: int = NUM_TRIALS,
    slack: float = 2.0,
    seed: int = SEED,
    prune_with_ranges: bool = True,
    lazy_lineage: bool = True,
    keep_partials: bool = False,
) -> OnlineRun:
    catalog = catalog if catalog is not None else catalog_for(spec)
    engine = OnlineQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(
            num_trials=num_trials,
            slack=slack,
            seed=seed,
            prune_with_ranges=prune_with_ranges,
            lazy_lineage=lazy_lineage,
        ),
    )
    # Static analysis runs once per query before execution; its wall time
    # rides along in the metrics JSON as the analyzer's fixed cost.
    analysis = check_plan(spec.plan, catalog, spec.streamed_table, subject=spec.name)
    partials = []
    for partial in engine.run(spec.plan, num_batches):
        if keep_partials:
            partials.append(partial)
    engine.metrics.analysis_seconds = analysis.wall_seconds
    return OnlineRun(spec, engine.metrics, partials)


def run_hda(
    spec: QuerySpec,
    catalog: Catalog | None = None,
    num_batches: int = NUM_BATCHES,
    seed: int = SEED,
) -> RunMetrics:
    catalog = catalog if catalog is not None else catalog_for(spec)
    executor = HDAExecutor(catalog, spec.streamed_table, seed=seed)
    for _ in executor.run(spec.plan, num_batches):
        pass
    return executor.metrics


def run_baseline(spec: QuerySpec, catalog: Catalog | None = None) -> BatchRunResult:
    catalog = catalog if catalog is not None else catalog_for(spec)
    return run_batch(spec.plan, catalog)


def write_result(name: str, text: str) -> None:
    """Print a result block and persist it for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n===== {name} =====")
    print(text)


def fmt_row(cells: list, widths: list[int]) -> str:
    out = []
    for cell, width in zip(cells, widths):
        if isinstance(cell, float):
            cell = f"{cell:.3f}"
        out.append(str(cell).rjust(width))
    return "  ".join(out)


def fmt_table(header: list[str], rows: list[list]) -> str:
    widths = [
        max(len(str(h)), *(len(f"{r[i]:.3f}" if isinstance(r[i], float) else str(r[i])) for r in rows))
        if rows
        else len(str(h))
        for i, h in enumerate(header)
    ]
    lines = [fmt_row(header, widths)]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt_row(row, widths))
    return "\n".join(lines)


def sparkline(series: list[float]) -> str:
    """Terminal mini-plot for per-batch series."""
    if not series:
        return ""
    marks = "▁▂▃▄▅▆▇█"
    lo, hi = min(series), max(series)
    span = (hi - lo) or 1.0
    return "".join(marks[int((v - lo) / span * (len(marks) - 1))] for v in series)


def thin_series(series: list[float], head: int = 10, step: int = 5) -> list[tuple[int, float]]:
    """The paper's plotting convention: the first 10 batches, then every 5th."""
    out = []
    for i, value in enumerate(series, start=1):
        if i <= head or i % step == 0 or i == len(series):
            out.append((i, value))
    return out


NESTED_TPCH = [q for q, s in TPCH_QUERIES.items() if s.nested]
FLAT_TPCH = [q for q, s in TPCH_QUERIES.items() if not s.nested]
NESTED_CONVIVA = [q for q, s in CONVIVA_QUERIES.items() if s.nested]
FLAT_CONVIVA = [q for q, s in CONVIVA_QUERIES.items() if not s.nested]
