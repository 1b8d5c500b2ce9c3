"""Run one pass of a workload: set up its inputs, run each query, check it.

Closed loop, one client: the queries of a workload run one after another
through the engine's public facade only. The timed quantity is the wait for
each partial result — from asking the engine for the next one to holding it
— so what the benchmark itself does with a partial (reading the error bound,
bookkeeping, the oracle) is never on the clock.
"""

from __future__ import annotations

import contextlib
import gc
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from repro.baselines import run_batch
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.engine.shards import ShardedQueryEngine
from repro.storage import open_table, write_relation
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    generate_conviva,
    generate_tpch,
)

from bench import oracle
from bench.probes import ROOT, Recorder, installed
from bench.workloads import NUM_TRIALS, RSD_TARGET, Workload

QUERIES = {**TPCH_QUERIES, **CONVIVA_QUERIES}


@dataclass
class Inputs:
    tpch: object
    conviva: object
    plans: dict[str, object]
    seconds: float

    def catalog(self, query: str):
        return self.conviva if query.startswith("C") else self.tpch


def set_up(workload: Workload, scale: float, seed: int) -> Inputs:
    """Everything a pass needs before the first query, timed (``setup_s``)."""
    started = time.perf_counter()
    tpch = generate_tpch(scale, seed).catalog()
    conviva = generate_conviva(scale, seed).catalog()
    plans = {q: QUERIES[q].plan for q in workload.queries}
    return Inputs(tpch, conviva, plans, time.perf_counter() - started)


@dataclass
class QueryRun:
    """One operation: one query run online to its final exact result."""

    query: str
    fact_rows: int
    #: Seconds waited for each partial result, in batch order.
    gaps: list[float] = field(default_factory=list)
    #: First batch whose worst relative stdev met RSD_TARGET (None = never).
    rsd_batch: int | None = None
    to_rsd_s: float = 0.0
    recoveries: int = 0
    recovery_s: float = 0.0
    recomputed_tuples: int = 0
    state_bytes_peak: int = 0
    rollup_groups_peak: int = 0
    #: ``run_batch`` on the same plan and catalog: the reference answer.
    batch_s: float = 0.0
    parent_cpu_s: float = 0.0
    worker_cpu_s: list[float] = field(default_factory=list)
    fell_back: bool = False
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.gaps)

    def counts(self) -> dict[str, object]:
        """What a seed determines exactly (see ``oracle.count_drift``)."""
        return {
            "recoveries": self.recoveries,
            "recomputed_tuples": self.recomputed_tuples,
            "rsd_batch": self.rsd_batch,
        }


def run_query(
    workload: Workload, query: str, inputs: Inputs, seed: int, rec: Recorder
) -> QueryRun:
    spec = QUERIES[query]
    catalog = inputs.catalog(query)
    plan = inputs.plans[query]
    out = QueryRun(query, fact_rows=len(catalog.get(spec.streamed_table)))
    # No other OnlineConfig field is set: a later change that flips a default
    # or deletes a knob is measured by this benchmark, not broken by it.
    if workload.shards:
        config = OnlineConfig(num_trials=NUM_TRIALS, seed=seed, shards=workload.shards)
        engine = ShardedQueryEngine(catalog, spec.streamed_table, config)
    else:
        config = OnlineConfig(num_trials=NUM_TRIALS, seed=seed)
        engine = OnlineQueryEngine(catalog, spec.streamed_table, config)
    rec.query, rec.batch = query, 1

    fractions: list[float] = []
    final = None
    cpu_started = time.process_time()
    try:
        partials = engine.run(plan, workload.num_batches)
        try:
            # Root spans are the clock: one per wait for a partial result.
            resume = rec.open(ROOT)
            for partial in partials:
                out.gaps.append(rec.close() - resume)
                fractions.append(partial.fraction_processed)
                bm = partial.metrics
                out.recoveries += bool(bm.recovered)
                out.recovery_s += bm.recovery_seconds
                out.recomputed_tuples += bm.recomputed_tuples
                out.state_bytes_peak = max(out.state_bytes_peak, bm.total_state_bytes)
                out.rollup_groups_peak = max(out.rollup_groups_peak, bm.rollup_groups)
                if partial.batch_no == 1:
                    problem = oracle.check_first_error(partial)
                    if problem:
                        out.failures.append(problem)
                if out.rsd_batch is None and partial.max_relative_stdev() <= RSD_TARGET:
                    out.rsd_batch, out.to_rsd_s = partial.batch_no, out.wall_s
                if partial.is_final:
                    final = partial
                    break
                rec.batch = partial.batch_no + 1
                resume = rec.open(ROOT)
        finally:
            # Tear-down (executor close, worker join) is not part of
            # "engine.run start -> final exact result" and is not timed.
            partials.close()
        out.parent_cpu_s = time.process_time() - cpu_started
        if out.rsd_batch is None:
            out.to_rsd_s = out.wall_s
        if workload.shards:
            out.worker_cpu_s = list(engine.shard_cpu_seconds.values())
            out.fell_back = not engine.shard_plan.shardable

        reference = run_batch(plan, catalog)
        out.batch_s = reference.wall_seconds
        if final is None:
            out.failures.append("the run ended before its final batch")
        else:
            problems = (
                oracle.check_final(final, reference.relation),
                oracle.check_fractions(fractions),
            )
            out.failures.extend(p for p in problems if p)
    except Exception:  # noqa: BLE001 - an operation that raises is a failed operation
        rec.unwind()
        out.failures.append(traceback.format_exc())
    return out


@dataclass
class Pass:
    """Every query of a workload run once on the inputs of one seed."""

    seed: int
    traced: bool
    setup_s: float
    runs: list[QueryRun]
    #: Traced passes only: self seconds per layer, probe counts, spans,
    #: and the probe targets that no longer resolve.
    layer_s: dict[str, float] = field(default_factory=dict)
    probe_counts: dict[str, int] = field(default_factory=dict)
    spans: list[list] = field(default_factory=list)
    probes_missing: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    def counts(self) -> dict[str, dict[str, object]]:
        """Seed-determined counts per query; a traced pass adds its probes' as ``*``."""
        out = {r.query: r.counts() for r in self.runs}
        if self.traced:
            out["*"] = self.probe_counts
        return out


def run_pass(workload: Workload, scale: float, seed: int, traced: bool = False) -> Pass:
    gc.collect()
    inputs = set_up(workload, scale, seed)
    rec = Recorder()
    # Untraced, the recorder holds the root spans alone: no probe is installed.
    with installed(rec) if traced else contextlib.nullcontext([]) as missing:
        runs = [run_query(workload, q, inputs, seed, rec) for q in workload.queries]
    done = Pass(seed, traced, inputs.seconds, runs)
    if traced:
        done.layer_s = dict(rec.self_seconds())
        done.probe_counts = dict(rec.counts)
        done.spans = rec.spans
        done.probes_missing = missing
        # Layer self times plus the unattributed remainder are the traced wall.
        attributed = sum(done.layer_s.values())
        clean = not any(r.failures for r in runs)
        if clean and abs(attributed - done.wall_s) > 1e-6 * max(done.wall_s, 1.0):
            raise AssertionError(
                f"layer self times sum to {attributed:.6f} s, "
                f"traced wall is {done.wall_s:.6f} s"
            )
    return done


def storage_probe(scale: float, seed: int, directory: str) -> dict[str, float]:
    """Write the TPC-H fact table as an ``iolap-chunks-v1`` table under
    ``directory``, then scan it back chunk by chunk, touching every numeric
    value. No workload streams from disk, so this is a direct probe of the
    layer, not a share of any timed run."""
    fact = generate_tpch(scale, seed).lineorder
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        path = os.path.join(tmp, "fact")
        started = time.perf_counter()
        write_relation(path, fact)
        write_s = time.perf_counter() - started
        started = time.perf_counter()
        rows = 0
        for chunk in open_table(path).iter_chunks():
            rows += len(chunk)
            for column in chunk.columns.values():
                if column.dtype != object:
                    column.sum()
        scan_s = time.perf_counter() - started
    return {
        "storage.write_mrows_per_s": len(fact) / 1e6 / write_s,
        "storage.scan_mrows_per_s": rows / 1e6 / scan_s,
    }
