"""Bench-side span recorders: which engine layer the traced wall went to.

A *probe* wraps one engine function or method for the duration of a traced
pass (``with installed(recorder)``) and records a span around every call:
layer, start, end, parent span, and the ``(query, batch)`` the benchmark was
driving. A layer is a per-layer metric name from ``BENCHMARK.json``; its
value is the layer's *self* time — span durations minus the child spans they
contain — so the layers partition the traced wall and the root spans' own
self time is the unattributed remainder (``trace.unattributed_s``).

Nothing here edits ``src/``. Targets are named by dotted path and resolved
when a traced pass starts; one that no longer exists is reported as missing
and its metric reads 0, so deleting engine code never needs a benchmark
edit. A wrapped module-level function is rebound at every ``repro.*`` module
that imported it by name (``trial_multiplicities`` lives on in
``repro.core.blocks`` and ``repro.engine.shards.worker``), found by identity
rather than listed by hand.

Shard workers are forked with the wrappers in place but their spans stay in
the worker: only parent-side spans are collected (README, known gaps).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

#: Layer of the root spans the benchmark opens around each wait for a
#: partial result; whatever no probe claims stays here.
ROOT = "trace.unattributed_s"

Hook = Callable[[dict, tuple], None]


def _count(name: str) -> Hook:
    def hook(counts: dict, args: tuple) -> None:
        counts[name] += 1

    return hook


def _draw_cells(counts: dict, args: tuple) -> None:
    # trial_multiplicities(num_rows, num_trials, ...): one Poisson draw per cell.
    counts["bootstrap.draw_cells"] += args[0] * args[1]


def _groups_peak(counts: dict, args: tuple) -> None:
    # AggBundle.finalize(self, ...): len(bundle) is its live group count.
    counts["sketch.groups_peak"] = max(counts["sketch.groups_peak"], len(args[0]))


_OPS = "repro.core.operators"
_CLASSIFY_CALLS = _count("classify.calls")

#: (layer = self-time metric, "module:attr[.attr]" target, optional count hook)
PROBES: list[tuple] = [
    ("batching.partition_s", "repro.batching.partitioner:Partitioner.partition"),
    ("batching.partition_s", "repro.batching.partitioner:Partitioner.partition_indices"),
    ("bootstrap.draw_s", "repro.bootstrap.poisson:trial_multiplicities", _draw_cells),
    ("sketch.fold_s", "repro.core.sketch:AggBundle.fold"),
    ("sketch.fold_s", "repro.core.sketch:AggBundle.fold_values"),
    ("sketch.fold_s", "repro.core.sketch:AggBundle.fold_values_coded"),
    ("sketch.finalize_s", "repro.core.sketch:AggBundle.finalize", _groups_peak),
    ("operators.aggregate_s", f"{_OPS}.aggregate:AggregateOp.process"),
    ("operators.join_s", f"{_OPS}.join:StaticJoinOp.process"),
    ("operators.join_s", f"{_OPS}.join:UncertainJoinOp.process"),
    ("operators.filter_s", f"{_OPS}.filter:FilterOp.process"),
    ("operators.filter_s", f"{_OPS}.filter:UncertainFilterOp.process"),
    ("operators.other_s", f"{_OPS}.project:ProjectOp.process"),
    ("operators.other_s", f"{_OPS}.project:RenameOp.process"),
    ("operators.other_s", f"{_OPS}.scan:ScanOp.process"),
    ("operators.other_s", f"{_OPS}.scan:StaticEmitOp.process"),
    ("operators.other_s", f"{_OPS}.sink:RowSinkOp.process"),
    ("operators.other_s", f"{_OPS}.union:UnionOp.process"),
    ("classify.eval_s", "repro.core.classify:evaluate_side", _CLASSIFY_CALLS),
    ("classify.eval_s", "repro.core.classify:classify_comparison", _CLASSIFY_CALLS),
    ("classify.eval_s", "repro.core.classify:combine_conjuncts", _CLASSIFY_CALLS),
    ("kernels.factorize_s", "repro.kernels.codec:factorize_keys"),
    ("kernels.factorize_s", "repro.kernels.codec:factorize_arrays"),
    ("kernels.resolve_s", "repro.kernels.resolve:resolve_column"),
    ("kernels.resolve_s", "repro.kernels.resolve:try_evaluate_side"),
    ("ranges.observe_s", "repro.core.ranges:RangeMonitor.observe"),
    ("ranges.observe_s", "repro.core.ranges:RangeMonitor.observe_batch"),
    ("sentinels.record_s", "repro.core.sentinels:SentinelStore.record"),
    ("sentinels.check_s", "repro.core.sentinels:SentinelStore.check"),
    ("sentinels.check_s", "repro.core.sentinels:MembershipSentinels.check"),
    ("controller.compile_s", "repro.core.compiler:compile_online"),
    ("controller.self_s", "repro.core.controller:RunSession.process"),
    ("state.checkpoint_s", "repro.state.checkpoints:CheckpointManager.take",
     _count("state.checkpoints")),
    ("state.restore_s", "repro.state.checkpoints:CheckpointManager.restore"),
]

#: Every layer whose self time is part of the sums-to-wall partition.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(p[0] for p in PROBES)) + (ROOT,)


class Recorder:
    """In-memory spans and counts of one traced pass."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index or -1, query, batch]`` per span.
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: Set by the benchmark loop; stamped on every span opened meanwhile.
        self.query = ""
        self.batch = 0

    def open(self, layer: str) -> float:
        parent = self._open[-1] if self._open else -1
        span = [layer, 0.0, 0.0, parent, self.query, self.batch]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = now = time.perf_counter()
        return now

    def close(self) -> float:
        now = time.perf_counter()
        self.spans[self._open.pop()][2] = now
        return now

    def unwind(self) -> None:
        """Close whatever an exception left open."""
        while self._open:
            self.close()

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time not covered by child spans."""
        out: dict[str, float] = defaultdict(float)
        for layer, start, end, parent, _query, _batch in self.spans:
            out[layer] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out


def _wrap(fn: Callable, layer: str, hook: Hook | None, rec: Recorder) -> Callable:
    open_spans = rec._open

    def probe(*args, **kwargs):
        # Outside a root span (set-up, tear-down) nothing is on the clock.
        if not open_spans:
            return fn(*args, **kwargs)
        if hook is not None:
            hook(rec.counts, args)
        rec.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    return probe


def _resolve(target: str):
    """``(owner, attribute name, raw attribute)`` or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, name = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
    raw = vars(owner).get(name) if owner is not None else None
    return None if raw is None else (owner, name, raw)


@contextmanager
def installed(rec: Recorder) -> Iterator[list[str]]:
    """Install every probe for the ``with`` body; yields the missing targets."""
    undo: list[tuple] = []
    missing: list[str] = []

    def bind(owner, name, raw, wrapper) -> None:
        setattr(owner, name, wrapper)
        undo.append((owner, name, raw))

    try:
        for layer, target, *hook in PROBES:
            found = _resolve(target)
            if found is None:
                missing.append(target)
                continue
            owner, name, raw = found
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            wrapper = _wrap(raw.__func__ if kind else raw, layer, hook[0] if hook else None, rec)
            if kind:
                bind(owner, name, raw, kind(wrapper))
            elif isinstance(owner, type):
                bind(owner, name, raw, wrapper)
            else:
                # A module-level function: rebind every by-name import of it.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").split(".")[0] != "repro":
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            bind(module, attr, raw, wrapper)
        yield missing
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)
