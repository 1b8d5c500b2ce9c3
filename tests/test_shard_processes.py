"""The shard layer's processes: who runs which shard, and how they end.

The parent opens every live shard's session and runs batch 1 of each
itself, so the first estimate arrives before any process exists. At
batch 2 it keeps the live shard that owns the most rows and starts one
worker per other live shard, which adopts the parent's session under
fork and replays batch 1 under spawn; a shard that owns no row gets no
session and no process. Shard faults before, at and after the hand-off,
on the parent's shard or on an empty shard, keep the run bit-identical
to the clean one. A worker that dies, under fork or spawn, ends the run
with a ``ReproError`` naming the shard, the batch and the exit code, and
leaves no child behind.

``IOLAP_SHARD_FULL=1`` runs the spawn determinism check over all nine
shardable queries (the CI shard-smoke job's configuration).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import OnlineConfig
from repro.core.compiler import StreamPipelineUnit
from repro.engine.shards import ShardedQueryEngine
from repro.engine.shards import engine as engine_mod
from repro.errors import ReproError
from repro.relational import Catalog
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES

from tests.test_chaos_shards import assert_identical

FULL = os.environ.get("IOLAP_SHARD_FULL") == "1"
TRIALS = int(os.environ.get("IOLAP_SHARD_TRIALS", "16"))
BATCHES = 6

SHARDABLE = ["Q1", "Q3", "Q18", "C2", "C3", "C5", "C9", "C11", "C12"]


@pytest.fixture(scope="module")
def catalogs(tpch_small, conviva_small):
    return {"tpch": tpch_small.catalog(), "conviva": conviva_small.catalog()}


def spec_of(name):
    return (CONVIVA_QUERIES if name.startswith("C") else TPCH_QUERIES)[name]


def engine_for(name, catalogs, shards=2, obs=None, **config):
    spec = spec_of(name)
    return spec, ShardedQueryEngine(
        catalogs["conviva" if name.startswith("C") else "tpch"],
        spec.streamed_table,
        OnlineConfig(num_trials=TRIALS, seed=11, shards=shards, **config),
        obs=obs,
    )


def run(name, catalogs, shards=2, faults=None, batches=BATCHES):
    spec, engine = engine_for(name, catalogs, shards=shards, faults=faults)
    return engine, list(engine.run(spec.plan, batches))


@pytest.fixture
def forked(monkeypatch):
    """The shard index of every worker process a run starts."""
    started: list[int] = []
    real = engine_mod._WorkerHandle

    class Counting(real):
        def __init__(self, ctx, shard, adopt):
            started.append(shard.index)
            super().__init__(ctx, shard, adopt)

    monkeypatch.setattr(engine_mod, "_WorkerHandle", Counting)
    return started


@pytest.fixture
def local_opens(monkeypatch):
    """The shard index of every shard session the parent opens."""
    opened: list[int] = []
    real = engine_mod.open_shard

    def counting(catalog, init):
        opened.append(init.shard.index)
        return real(catalog, init)

    monkeypatch.setattr(engine_mod, "open_shard", counting)
    return opened


class TestProcessLayout:
    # Rows per shard on the test catalogs: Q1 [0, 3000] at two shards and
    # [0, 1519, 0, 1481] at four; C9 [3000, 0]; C2 [1629, 1371].
    @pytest.mark.parametrize(
        "name,shards,parent_shard,workers",
        [("Q1", 2, 1, []), ("C9", 2, 0, []), ("C2", 2, 0, [1]), ("Q1", 4, 1, [3])],
    )
    def test_only_live_shards_run(
        self, name, shards, parent_shard, workers, catalogs, forked, local_opens
    ):
        engine, partials = run(name, catalogs, shards=shards)
        assert forked == workers
        # The parent opens every live shard: it runs batch 1 of each.
        assert local_opens == sorted([parent_shard, *workers])
        assert sorted(engine.shard_cpu_seconds) == sorted([parent_shard, *workers])
        assert all(cpu > 0 for cpu in engine.shard_cpu_seconds.values())
        assert partials[-1].is_final
        assert not mp.active_children()

    def test_empty_stream_runs_one_empty_batch_as_shard_zero(
        self, catalogs, forked, local_opens
    ):
        spec = spec_of("C2")
        tables = {n: catalogs["conviva"].get(n) for n in catalogs["conviva"]}
        tables[spec.streamed_table] = tables[spec.streamed_table].slice(0, 0)
        catalog = Catalog(tables)
        engine = ShardedQueryEngine(
            catalog, spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11, shards=2),
        )
        partials = list(engine.run(spec.plan, 4))
        assert forked == [] and local_opens == [0]
        assert len(partials) == 1
        assert partials[0].is_final and partials[0].fraction_processed == 1.0


    def test_parent_shard_is_traced_like_a_worker(self, catalogs):
        from repro.obs import Observability

        obs, sink = Observability.in_memory()
        spec = spec_of("Q1")
        engine = ShardedQueryEngine(
            catalogs["tpch"], spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11, shards=2), obs=obs,
        )
        list(engine.run(spec.plan, 3))
        obs.close()
        spans = [e for e in sink.events if e.get("kind") == "span"]
        assert [s["name"] for s in spans].count("run") == 1
        shard_spans = [s for s in spans if s["name"] == "shard-batch"]
        assert [s["args"]["shard"] for s in shard_spans] == [1, 1, 1]
        counters = {e["name"] for e in sink.events if e.get("kind") == "counter"}
        assert {"shard.1.seen_rows", "shard.1.cpu_seconds"} <= counters
        assert not any(name.startswith("shard.0.") for name in counters)


class TestFirstEstimate:
    """C2 at two shards: the parent runs batch 1 of shards 0 and 1, then
    hands shard 1 to a worker."""

    def test_no_process_before_the_second_batch(self, catalogs, forked, local_opens):
        _, clean = run("C2", catalogs)
        forked.clear(), local_opens.clear()
        spec, engine = engine_for("C2", catalogs)
        partials = engine.run(spec.plan, BATCHES)
        first = next(partials)
        assert forked == [] and mp.active_children() == []
        assert local_opens == [0, 1]
        second = next(partials)
        assert forked == [1] and len(mp.active_children()) == 1
        rest = list(partials)
        assert not mp.active_children()
        assert_identical(clean, [first, second, *rest], "C2 hand-off")

    def test_one_batch_run_starts_no_process(self, catalogs, forked, local_opens):
        _, partials = run("C2", catalogs, batches=1)
        assert len(partials) == 1 and partials[0].is_final
        assert forked == [] and local_opens == [0, 1]
        assert not mp.active_children()

    def test_run_closed_after_the_first_partial_starts_no_process(
        self, catalogs, forked
    ):
        spec, engine = engine_for("C2", catalogs)
        partials = engine.run(spec.plan, BATCHES)
        assert next(partials).batch_no == 1
        partials.close()
        assert forked == [] and not mp.active_children()

    @pytest.mark.parametrize(
        "faults,opens", [("shard@1:1", [0, 1, 1]), ("shard@2:1", [0, 1])],
        ids=["before-hand-off", "at-hand-off"],
    )
    def test_fault_on_the_handed_off_shard_keeps_bits(
        self, faults, opens, catalogs, forked, local_opens
    ):
        """Before the hand-off shard 1's session is reopened in the
        parent; at it, the fresh worker is killed and its replacement
        replays batch 1."""
        _, clean = run("C2", catalogs)
        forked.clear(), local_opens.clear()
        engine, chaotic = run("C2", catalogs, faults=faults)
        assert engine.shard_respawns == 1
        assert forked == [1] and local_opens == opens
        assert_identical(clean, chaotic, f"C2 {faults}")
        assert not mp.active_children()

    def test_sanitized_run_with_two_sessions_in_the_parent(self, catalogs, monkeypatch):
        """The sanitizer's slice hook is process-global: whichever session
        the parent steps has its own hook installed, and none is left."""
        from repro.engine.shards.worker import ShardWorkerEngine
        from repro.relational import relation

        real = ShardWorkerEngine._process_batch

        def checked(self, compiled, ctx, *args):
            hook = relation._slice_hook
            assert hook is not None and hook.__self__ is ctx.sanitizer
            real(self, compiled, ctx, *args)

        _, plain = run("C2", catalogs)
        monkeypatch.setattr(ShardWorkerEngine, "_process_batch", checked)
        spec, engine = engine_for("C2", catalogs, sanitize=True)
        sanitized = list(engine.run(spec.plan, BATCHES))
        assert engine.metrics.sanitize_seconds > 0
        assert_identical(plain, sanitized, "C2 sanitized")
        assert relation._slice_hook is None

    def test_cpu_counts_carry_over_the_hand_off(self, catalogs, monkeypatch):
        from repro.obs import Observability

        # Each session starts as if it had already cost the parent 100 s,
        # so a worker that dropped the adopted count would report less.
        real_open = engine_mod._LocalShard.open

        def open_with_history(self):
            real_open(self)
            self.cpu_seconds += 100.0

        monkeypatch.setattr(engine_mod._LocalShard, "open", open_with_history)
        obs, sink = Observability.in_memory()
        spec, engine = engine_for("C2", catalogs, obs=obs)
        partials = engine.run(spec.plan, BATCHES)
        next(partials)
        after_first = dict(engine.shard_cpu_seconds)
        list(partials)
        obs.close()
        assert sorted(after_first) == [0, 1]
        assert all(cpu > 100.0 for cpu in after_first.values())
        spans = [
            e for e in sink.events
            if e.get("kind") == "span" and e["name"] == "shard-batch"
        ]
        # One span per shard per batch, and each shard's CPU count never
        # falls: the forked worker's starts from the parent's batch 1.
        assert sorted((e["args"]["shard"], e["batch"]) for e in spans) == [
            (s, b) for s in (0, 1) for b in range(1, BATCHES + 1)
        ]
        for s in (0, 1):
            cpu = [e["args"]["cpu_seconds"] for e in spans if e["args"]["shard"] == s]
            assert cpu[0] == after_first[s]
            assert cpu == sorted(cpu)
            assert engine.shard_cpu_seconds[s] == cpu[-1]


class TestParentShardFaults:
    """Q1 at two shards: shard 1 owns every row, shard 0 none."""

    @pytest.mark.parametrize(
        "faults,opens", [("shard@4:1", [1, 1]), ("shard@4:0", [1])],
        ids=["parent-shard", "empty-shard"],
    )
    def test_fault_keeps_bits_and_counts_a_respawn(
        self, faults, opens, catalogs, forked, local_opens
    ):
        _, clean = run("Q1", catalogs)
        local_opens.clear()
        engine, chaotic = run("Q1", catalogs, faults=faults)
        assert engine.shard_respawns == 1
        assert forked == [] and local_opens == opens
        assert_identical(clean, chaotic, f"Q1 {faults}")

    def test_worker_failure_still_names_the_worker(self, catalogs, monkeypatch):
        parent = os.getpid()
        real = StreamPipelineUnit.run

        def fatal_in_worker(self, ctx):
            if ctx.batch_no == 2 and os.getpid() != parent:
                raise RuntimeError("planted worker failure")
            real(self, ctx)

        monkeypatch.setattr(StreamPipelineUnit, "run", fatal_in_worker)
        with pytest.raises(ReproError, match=r"shard 1 failed at batch 2") as exc:
            run("C2", catalogs)
        assert "planted worker failure" in str(exc.value)
        assert not mp.active_children()


def _exit_at_start(*args):
    os._exit(3)


class TestDeadWorker:
    """C2 at two shards: the parent runs shard 0, a worker shard 1 from
    batch 2 on."""

    def test_worker_exits_at_start_up(self, catalogs, monkeypatch):
        monkeypatch.setattr(engine_mod, "worker_main", _exit_at_start)
        with pytest.raises(
            ReproError, match=r"shard 1 worker died at batch 2 \(exit code 3\)"
        ):
            run("C2", catalogs)
        assert not mp.active_children()

    def test_spawned_worker_exits_while_catching_up(self, catalogs, monkeypatch):
        """Under spawn the worker dies before its replay of batch 1."""
        monkeypatch.setattr(engine_mod, "worker_main", _exit_at_start)
        monkeypatch.setattr(engine_mod, "_mp_context", lambda: mp.get_context("spawn"))
        with pytest.raises(
            ReproError, match=r"shard 1 worker died at batch 1 \(exit code 3\)"
        ):
            run("C2", catalogs)
        assert not mp.active_children()

    def test_failed_start_still_closes_the_handed_off_session(
        self, catalogs, monkeypatch
    ):
        """A worker that cannot be started leaves its shard's session in
        the parent, which closes it with the others."""
        sessions = []
        real_open = engine_mod._LocalShard.open

        def recording(self):
            real_open(self)
            sessions.append(self.session)

        def no_fork(self, *args):
            raise OSError("planted fork failure")

        monkeypatch.setattr(engine_mod._LocalShard, "open", recording)
        monkeypatch.setattr(engine_mod._WorkerHandle, "_start", no_fork)
        with pytest.raises(OSError, match="planted fork failure"):
            run("C2", catalogs)
        assert len(sessions) == 2
        assert all(session._closed for session in sessions)
        assert not mp.active_children()

    def test_worker_exits_at_batch_two(self, catalogs, monkeypatch):
        parent = os.getpid()
        real = StreamPipelineUnit.run

        def exit_in_worker(self, ctx):
            if ctx.batch_no == 2 and os.getpid() != parent:
                os._exit(3)
            real(self, ctx)

        monkeypatch.setattr(StreamPipelineUnit, "run", exit_in_worker)
        with pytest.raises(
            ReproError, match=r"shard 1 worker died at batch 2 \(exit code 3\)"
        ):
            run("C2", catalogs)
        assert not mp.active_children()


class TestSpawn:
    @pytest.mark.parametrize("name", SHARDABLE if FULL else ["C2"])
    def test_spawn_equals_fork(self, name, catalogs, monkeypatch, forked):
        caught_up: list[tuple[int, int]] = []
        real = engine_mod._WorkerHandle.catch_up

        def counting(self, batch_no):
            caught_up.append((self.index, batch_no))
            real(self, batch_no)

        monkeypatch.setattr(engine_mod._WorkerHandle, "catch_up", counting)
        _, by_fork = run(name, catalogs)
        fork_workers = list(forked)
        forked.clear()
        # Under fork every worker adopts its session: nothing is replayed.
        assert caught_up == []
        monkeypatch.setattr(engine_mod, "_mp_context", lambda: mp.get_context("spawn"))
        _, by_spawn = run(name, catalogs)
        assert forked == fork_workers
        # Under spawn each worker joins at batch 2 by replaying batch 1.
        assert caught_up == [(s, 2) for s in fork_workers]
        assert_identical(by_fork, by_spawn, f"{name} spawn")
        assert not mp.active_children()


@pytest.mark.parametrize(
    "module",
    [
        "repro.engine",
        "repro.engine.executor",
        "repro.engine.shards",
        "repro.engine.shards.engine",
        "repro.engine.shards.envelope",
        "repro.engine.shards.planner",
        "repro.engine.shards.worker",
    ],
)
def test_module_imports_first(module):
    """Each module imports as the first ``repro`` import of an interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
