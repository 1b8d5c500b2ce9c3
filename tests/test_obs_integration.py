"""End-to-end observability acceptance tests.

The contract: a traced engine run emits a schema-valid event stream
whose span taxonomy covers the whole engine (run → batch → unit → op,
plus bootstrap / range-check / recovery-replay), the Chrome export of a
real trace is well-formed, and — the load-bearing half — tracing changes
*nothing* about the results, bit for bit.
"""

import json

import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.errors import RangeIntegrityError, UnsupportedQueryError
from repro.obs import Observability, to_chrome, validate_events
from repro.relational import Catalog, avg, col, count, min_, scan
from repro.workloads import TPCH_QUERIES, generate_tpch
from tests.conftest import KX_SCHEMA, random_kx
from tests.test_executor import _assert_rows_identical

NUM_BATCHES = 4


@pytest.fixture(scope="module")
def traced_q17():
    """One traced run of nested TPC-H Q17; (events, results)."""
    catalog = generate_tpch(scale=0.3, seed=3).catalog()
    spec = TPCH_QUERIES["Q17"]
    obs, sink = Observability.in_memory()
    engine = OnlineQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(num_trials=10, seed=7),
        obs=obs,
    )
    results = list(engine.run(spec.plan, NUM_BATCHES))
    obs.close()
    return sink.events, results


class TestTracedRun:
    def test_all_events_schema_valid(self, traced_q17):
        events, _ = traced_q17
        assert validate_events(events) == len(events) > 0

    def test_span_taxonomy_covers_engine(self, traced_q17):
        events, _ = traced_q17
        names = {e["name"] for e in events if e["kind"] == "span"}
        # Q17 is nested (side view + correlated filter), so the full
        # taxonomy must show up, including bootstrap and range checks.
        assert {
            "run", "batch", "unit", "op", "bootstrap", "range-check"
        } <= names

    def test_run_span_describes_the_run(self, traced_q17):
        events, _ = traced_q17
        [run] = [e for e in events if e["kind"] == "span" and e["name"] == "run"]
        assert run["args"]["num_batches"] == NUM_BATCHES
        # The run span closes last, so it spans every batch span.
        for e in events:
            if e["kind"] == "span" and e["name"] == "batch":
                assert run["ts"] <= e["ts"]
                assert e["ts"] + e["dur"] <= run["ts"] + run["dur"]

    def test_one_batch_span_per_batch(self, traced_q17):
        events, _ = traced_q17
        batches = [
            e["batch"] for e in events
            if e["kind"] == "span" and e["name"] == "batch"
        ]
        assert sorted(batches) == list(range(1, NUM_BATCHES + 1))

    def test_paper_signal_counters_present(self, traced_q17):
        events, _ = traced_q17
        counters = {e["name"] for e in events if e["kind"] == "counter"}
        for prefix in (
            "nd.rows",            # |U_i| ND-set sizes per operator
            "sentinels",          # recorded sentinels per operator
            "state.total_bytes",  # overall state footprint
            "state.entry.bytes",  # per StateStore entry
            "state.nd_bytes",     # pruned-vs-cached split
            "state.resolved_bytes",
            "op.rows_in",
            "op.rows_out",
            "range.width",        # variation-range width histogram
        ):
            assert any(name.startswith(prefix) for name in counters), prefix

    def test_chrome_export_of_real_trace(self, traced_q17):
        events, _ = traced_q17
        doc = to_chrome(events)
        json.dumps(doc, allow_nan=False)  # Perfetto-loadable JSON
        by_ph = {}
        for e in doc["traceEvents"]:
            by_ph.setdefault(e["ph"], []).append(e)
        assert {"M", "X", "C"} <= set(by_ph)
        # Every track got a thread-name record.
        names = {e["args"]["name"] for e in by_ph["M"]}
        assert names == {"main"}


class TestTracingIsPure:
    """Bit-identical results with tracing on vs off."""

    def test_results_identical(self):
        catalog = generate_tpch(scale=0.2, seed=3).catalog()
        spec = TPCH_QUERIES["Q17"]

        def run(obs):
            engine = OnlineQueryEngine(
                catalog,
                spec.streamed_table,
                OnlineConfig(num_trials=8, seed=5),
                obs=obs,
            )
            return list(engine.run(spec.plan, 3))

        plain = run(None)
        obs, sink = Observability.in_memory()
        traced = run(obs)
        obs.close()
        assert sink.events  # the traced run really did trace
        names = plain[0].schema.names
        for pp, pt in zip(plain, traced):
            assert pp.batch_no == pt.batch_no
            _assert_rows_identical(
                pp.rows, pt.rows, names,
                f"batch {pp.batch_no} tracing on/off",
            )


class TestWarningEvents:
    def test_unsupported_query_rejection_on_timeline(self):
        catalog = Catalog({"t": random_kx(100, seed=0, groups=3)})
        plan = scan("t", KX_SCHEMA).aggregate([], [min_("x", "mx")])
        obs, sink = Observability.in_memory()
        engine = OnlineQueryEngine(
            catalog, "t", OnlineConfig(num_trials=5), obs=obs
        )
        with pytest.raises(UnsupportedQueryError):
            engine.run_to_completion(plan, 3)
        [warning] = [e for e in sink.events if e["kind"] == "warning"]
        assert warning["name"] == "unsupported-query"
        assert "MIN" in warning["args"]["message"]
        assert "node" in warning["args"]
        validate_events(sink.events)

    def test_rejection_names_its_node_and_rule(self):
        # Refused once by the ProjectOp constructor with no plan node.
        catalog = Catalog({"t": random_kx(100, seed=0, groups=3)})
        inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
        plan = scan("t", KX_SCHEMA).join(inner, keys=[]).project(
            [("z", col("ax") * 2.0)]
        )
        obs, sink = Observability.in_memory()
        engine = OnlineQueryEngine(
            catalog, "t", OnlineConfig(num_trials=5), obs=obs
        )
        with pytest.raises(UnsupportedQueryError):
            engine.run_to_completion(plan, 3)
        [warning] = [e for e in sink.events if e["kind"] == "warning"]
        assert warning["args"]["node"] == "Project"
        assert warning["args"]["rule"] == "TC108"
        validate_events(sink.events)

    def test_attach_obs_wires_sanitizer_emit(self):
        from repro.core.blocks import RuntimeContext

        ctx = RuntimeContext(
            Catalog({"t": random_kx(20)}), "t", 20,
            OnlineConfig(num_trials=5, sanitize=True),
        )
        obs, _ = Observability.in_memory()
        ctx.attach_obs(obs)
        assert ctx.sanitizer.emit == obs.tracer.warning
        # The null session must NOT wire it (exception-only sanitizing).
        ctx2 = RuntimeContext(
            Catalog({"t": random_kx(20)}), "t", 20,
            OnlineConfig(num_trials=5, sanitize=True),
        )
        from repro.obs import NULL_OBS

        ctx2.attach_obs(NULL_OBS)
        assert ctx2.sanitizer.emit is None

    def test_state_violation_emitted_as_warning(self):
        from repro.analysis.sanitize import BufferSanitizer
        from repro.errors import SanitizerViolationError

        obs, sink = Observability.in_memory()
        sanitizer = BufferSanitizer()
        sanitizer.emit = obs.tracer.warning

        class FakeRule:
            entries = frozenset({"declared"})
            nd_entry = None

        class FakeOp:
            label = "join:9"
            state_rule = FakeRule

            def state_items(self):
                return [("declared", 1), ("stray", 2)]

        with pytest.raises(SanitizerViolationError, match="stray"):
            sanitizer.check_state(FakeOp())
        obs.flush()
        [warning] = [e for e in sink.events if e["kind"] == "warning"]
        assert warning["name"] == "sanitizer.violation"
        assert warning["args"]["rule"] == "SAN004"
        assert warning["args"]["writer"] == "join:9"
        validate_events(sink.events)


class TestRecoveryOnTimeline:
    def test_forced_recovery_replay_traced(self, monkeypatch):
        from repro.core.sentinels import SentinelStore

        original = SentinelStore.check
        fired = []

        def forced(self, ctx):
            # Fail the first live range check of batch 2, exactly once.
            if (
                not fired
                and ctx.batch_no >= 2
                and ctx.monitor.enabled
                and not ctx.monitor.replaying
            ):
                fired.append(True)
                ctx.monitor.record_failure()
                raise RangeIntegrityError("forced failure")
            return original(self, ctx)

        monkeypatch.setattr(SentinelStore, "check", forced)

        catalog = Catalog({"t": random_kx(600, seed=8, groups=5)})
        inner = (
            scan("t", KX_SCHEMA)
            .aggregate(["k"], [avg("x", "ax")])
            .rename({"k": "k2"})
        )
        plan = (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[("k", "k2")])
            .select(col("x") > col("ax"))
            .aggregate(["k"], [count("n")])
        )
        obs, sink = Observability.in_memory()
        engine = OnlineQueryEngine(
            catalog, "t", OnlineConfig(num_trials=8, seed=1), obs=obs
        )
        engine.run_to_completion(plan, NUM_BATCHES)
        obs.close()
        assert fired, "the forced failure path never triggered"

        [replay] = [
            e for e in sink.events
            if e["kind"] == "span" and e["name"] == "recovery-replay"
        ]
        assert replay["batch"] == 2
        assert replay["args"]["replayed_batches"] == 1
        [batch2] = [
            e for e in sink.events
            if e["kind"] == "span" and e["name"] == "batch"
            and e.get("batch") == 2
        ]
        assert batch2["args"]["recovered"] is True
        counters = {e["name"] for e in sink.events if e["kind"] == "counter"}
        assert any(n.startswith("recovery.failures") for n in counters)
        assert any(n.startswith("recovery.replays") for n in counters)
        assert any(n.startswith("recovery.depth") for n in counters)
        # The footprint gauge is the batch's own accounting, recovered
        # batch included.
        gauge = {
            e["batch"]: e["value"] for e in sink.events
            if e["kind"] == "counter" and e["name"] == "state.total_bytes"
        }
        assert gauge == {
            bm.batch_no: bm.total_state_bytes for bm in engine.metrics.batches
        }
        validate_events(sink.events)
