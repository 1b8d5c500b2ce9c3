"""Reduce the passes of one invocation to the metrics ``BENCHMARK.json`` names.

Every pass of an invocation runs on inputs of its own sub-seed, so a value
is steadied two ways: a per-query quantity is the *median over passes* of
that query (a recovery that one seed in four triggers does not move it),
summed over the workload's queries; a pooled quantity (the batch-gap
percentiles) is taken per pass and then the median of the passes.
"""

from __future__ import annotations

import math
import resource
from statistics import median

from bench.measure import Pass
from bench.probes import LAYERS, ROOT
from bench.workloads import Workload


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least ``(1 - q) * len`` samples lie beyond it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _per_query(workload: Workload, passes: list[Pass], value) -> float:
    """Sum over queries of the median over passes of ``value(run)``."""
    total = 0.0
    for i in range(len(workload.queries)):
        seen = [value(p.runs[i]) for p in passes if p.runs[i].gaps]
        total += median(seen) if seen else 0.0
    return total


def _per_pass(passes: list[Pass], value) -> float:
    return median(value(p) for p in passes)


def _gaps(p: Pass) -> list[float]:
    return [g for r in p.runs for g in r.gaps] or [0.0]


def peak_rss_mb(workload: Workload) -> float:
    """This process's high-water mark, plus the largest worker's when sharded."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.shards:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(workload: Workload, passes: list[Pass], import_s: float) -> dict[str, float]:
    """What an analyst sees; ``passes`` are untraced."""
    return {
        "setup_s": import_s + _per_pass(passes, lambda p: p.setup_s),
        "wall_s": _per_query(workload, passes, lambda r: r.wall_s),
        "first_estimate_s": _per_query(workload, passes, lambda r: r.gaps[0]),
        "batch_ms_p50": 1e3 * _per_pass(passes, lambda p: percentile(_gaps(p), 0.5)),
        "batch_ms_p90": 1e3 * _per_pass(passes, lambda p: percentile(_gaps(p), 0.9)),
        "to_rsd05_s": _per_query(workload, passes, lambda r: r.to_rsd_s),
        "peak_rss_mb": peak_rss_mb(workload),
    }


def per_layer(
    workload: Workload,
    untraced: list[Pass],
    traced: list[Pass],
    serial: Pass | None,
    storage: dict[str, float],
) -> dict[str, float]:
    """Where the time went. ``untraced[i]`` and ``traced[i]`` share a sub-seed;
    times of single layers come from the traced pass, everything the engine
    reports itself from the untraced one. ``serial`` is the sharded
    workload's queries run unsharded on ``untraced[0]``'s inputs."""
    out = {layer: _per_pass(traced, lambda p: p.layer_s.get(layer, 0.0)) for layer in LAYERS}

    def count(name: str) -> float:
        return _per_pass(traced, lambda p: p.probe_counts.get(name, 0))

    def total(attr: str) -> float:
        return _per_pass(untraced, lambda p: sum(getattr(r, attr) for r in p.runs))

    wall = _per_pass(untraced, lambda p: p.wall_s)
    batch_s = total("batch_s")
    out.update({
        "bootstrap.draw_mcells": count("bootstrap.draw_cells") / 1e6,
        "sketch.groups_peak": count("sketch.groups_peak"),
        "classify.calls": count("classify.calls"),
        "controller.recovery_s": total("recovery_s"),
        "controller.recoveries": total("recoveries"),
        "controller.recomputed_tuples": total("recomputed_tuples"),
        "state.checkpoints": count("state.checkpoints"),
        "state.state_mb_peak": _per_pass(
            untraced, lambda p: max(r.state_bytes_peak for r in p.runs)
        ) / 2**20,
        "rollup.groups_peak": _per_pass(
            untraced, lambda p: max(r.rollup_groups_peak for r in p.runs)
        ),
        # All zero on an unsharded workload: there are no workers to report.
        "shards.worker_cpu_s_max": _per_pass(
            untraced, lambda p: sum(max(r.worker_cpu_s, default=0.0) for r in p.runs)
        ),
        "shards.worker_cpu_s_sum": _per_pass(
            untraced, lambda p: sum(sum(r.worker_cpu_s) for r in p.runs)
        ),
        "shards.parent_cpu_s": total("parent_cpu_s") if workload.shards else 0.0,
        "shards.fallbacks": total("fell_back"),
        "shards.speedup_vs_serial": serial.wall_s / untraced[0].wall_s if serial else 0.0,
        "relational.batch_s": batch_s,
        "relational.overhead_vs_batch": wall / batch_s,
        "trace.unattributed_frac": _per_pass(
            traced, lambda p: p.layer_s.get(ROOT, 0.0) / p.wall_s
        ),
        "trace.overhead_frac": median(
            t.wall_s / u.wall_s for t, u in zip(traced, untraced)
        ) - 1.0,
        **storage,
    })
    return out
