"""Tests for the range monitor and the sentinel integrity guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockOutput, OnlineConfig, RuntimeContext
from repro.core.classify import compare
from repro.core.ranges import RangeMonitor
from repro.core.sentinels import MembershipSentinels, SentinelStore
from repro.core.values import UncertainValue, VariationRange
from repro.errors import RangeIntegrityError
from repro.relational import Catalog, ColumnType, Relation, Schema
from repro.relational.expressions import Col, Comparison, Literal
from tests.conftest import Group, gid_column, publish_group



def make_ctx(num_trials=4) -> RuntimeContext:
    ctx = RuntimeContext(
        Catalog({}), "t", total_rows=100, config=OnlineConfig(num_trials=num_trials)
    )
    ctx.batch_no = 1
    return ctx


def publish(ctx, block_id, key, colname, value, trials, member_point=True, certain=True):
    uv = UncertainValue(value, np.resize(np.asarray(trials, dtype=float), ctx.num_trials))
    publish_group(
        ctx, block_id, [colname],
        Group(key, {colname: uv}, certain, member_point=member_point),
    )


class TestRangeMonitor:
    def test_observe_returns_fresh_range(self):
        mon = RangeMonitor(slack=0.0)
        r = mon.observe(2.0, np.array([1.0, 3.0]))
        assert (r.lo, r.hi) == (1.0, 3.0)

    def test_range_includes_running_value(self):
        mon = RangeMonitor(slack=0.0)
        r = mon.observe(10.0, np.array([1.0, 3.0]))
        assert r.contains_value(10.0)

    def test_disabled_returns_everything(self):
        mon = RangeMonitor(enabled=False)
        r = mon.observe(2.0, np.array([1.0, 3.0]))
        assert r == VariationRange.everything()

    def test_replaying_freezes(self):
        mon = RangeMonitor()
        mon.replaying = True
        r = mon.observe(2.0, np.array([1.0, 3.0]))
        assert r == VariationRange.everything()
        lo, hi = mon.observe_batch(np.array([2.0]), np.array([[1.0, 3.0]]))
        assert (lo[0], hi[0]) == (-np.inf, np.inf)

    def test_ranges_float_between_batches(self):
        mon = RangeMonitor(slack=0.0)
        mon.observe(2.0, np.array([1.0, 3.0]))
        r2 = mon.observe(9.0, np.array([8.0, 10.0]))
        assert (r2.lo, r2.hi) == (8.0, 10.0)  # no intersection pre-use

    def test_failure_counter(self):
        mon = RangeMonitor()
        mon.record_failure()
        mon.record_failure()
        assert mon.failures == 2


SCHEMA = Schema([("d", ColumnType.FLOAT), ("u", ColumnType.FLOAT)])


def rel_with_refs(ctx, d_values, key=(), block_id=1, colname="v"):
    """Rows ``d`` whose ``u`` references group ``key`` of the block column."""
    gids, lineage = gid_column(ctx, block_id, [key] * len(d_values), colname)
    return Relation._from_parts(
        SCHEMA, {"d": np.asarray(d_values, dtype=np.float64), "u": gids},
        np.ones(len(gids)), lineage={"u": lineage},
    )


class TestSentinelStore:
    def make(self):
        cmp_ = Comparison(">", Col("d"), Col("u"))
        return SentinelStore([cmp_], {"u"}), cmp_

    def test_empty_check_passes(self):
        store, _ = self.make()
        store.check(make_ctx())

    def test_holding_decision_passes(self):
        store, _ = self.make()
        ctx = make_ctx()
        publish(ctx, 1, (), "v", 10.0, [9.0, 11.0])
        rel = rel_with_refs(ctx, [50.0, 2.0])
        store.record(0, rel, np.array([0]), np.array([True]))  # 50 > u resolved TRUE
        store.record(0, rel, np.array([1]), np.array([False]))  # 2 > u resolved FALSE
        store.check(ctx)  # point estimate 10: 50>10 ok, 2>10 false ok

    def test_flip_raises(self):
        store, _ = self.make()
        ctx = make_ctx()
        publish(ctx, 1, (), "v", 10.0, [10.0])
        rel = rel_with_refs(ctx, [50.0])
        store.record(0, rel, np.array([0]), np.array([True]))
        publish(ctx, 1, (), "v", 99.0, [99.0])  # estimate moved above 50
        with pytest.raises(RangeIntegrityError, match="flipped"):
            store.check(ctx)
        assert ctx.monitor.failures == 1

    def test_vanished_entity_raises(self):
        store, _ = self.make()
        ctx = make_ctx()
        rel = rel_with_refs(ctx, [50.0], ("gone",))
        publish(ctx, 1, ("gone",), "v", 10.0, [10.0])
        store.record(0, rel, np.array([0]), np.array([True]))
        ctx.blocks[1] = BlockOutput(1, [], ["v"], ctx.indexes[1])  # group vanished
        with pytest.raises(RangeIntegrityError, match="vanished"):
            store.check(ctx)

    def test_keeps_only_tightest(self):
        store, _ = self.make()
        ctx = make_ctx()
        publish(ctx, 1, (), "v", 10.0, [10.0])
        rel = rel_with_refs(ctx, [50.0, 20.0, 90.0])
        store.record(0, rel, np.arange(3), np.array([True, True, True]))
        # One entity, one direction -> a single tightest sentinel (d=20).
        assert len(store) == 1
        publish(ctx, 1, (), "v", 30.0, [30.0])  # above 20: tightest flips
        with pytest.raises(RangeIntegrityError):
            store.check(ctx)

    def test_reset(self):
        store, _ = self.make()
        rel = rel_with_refs(make_ctx(), [50.0])
        store.record(0, rel, np.array([0]), np.array([True]))
        store.reset()
        assert len(store) == 0

    def test_both_sides_uncertain(self):
        cmp_ = Comparison(">", Col("u"), Literal(0.0))
        store = SentinelStore([cmp_], {"u"})
        ctx = make_ctx()
        publish(ctx, 1, (), "v", 5.0, [5.0])
        rel = rel_with_refs(ctx, [0.0])
        store.record(0, rel, np.array([0]), np.array([True]))
        store.check(ctx)
        publish(ctx, 1, (), "v", -5.0, [-5.0])
        with pytest.raises(RangeIntegrityError):
            store.check(ctx)

    def test_division_by_a_zero_point_is_a_range_failure(self):
        # Recorded 50 > 1/u as TRUE; u's point moving to 0.0 puts 1/u at
        # inf, a flip the controller recovers from (not a crash).
        store = SentinelStore([Comparison(">", Col("d"), Literal(1.0) / Col("u"))], {"u"})
        ctx = make_ctx()
        publish(ctx, 1, (), "v", 10.0, [10.0])
        store.record(0, rel_with_refs(ctx, [50.0]), np.array([0]), np.array([True]))
        store.check(ctx)
        publish(ctx, 1, (), "v", 0.0, [0.0])
        with pytest.raises(RangeIntegrityError, match="expected True for det value 50.0"):
            store.check(ctx)
        assert ctx.monitor.failures == 1


def record(ms, ctx, key, member, block_id=7):
    """Record one group's membership decision by its gid in the run's index."""
    index = ctx.indexes[block_id]
    ms.record_gids(index, index.add([key]), np.array([member]))


class TestMembershipSentinels:
    def view(self, ctx, member_point):
        publish(ctx, 7, ("g",), "v", 1.0, [1.0], member_point=member_point)
        return ctx.blocks[7]

    def test_expected_in_holds(self):
        ms = MembershipSentinels()
        ctx = make_ctx()
        record(ms, ctx, ("g",), True)
        ms.check(ctx, self.view(ctx, member_point=True))

    def test_expected_in_flips(self):
        ms = MembershipSentinels()
        ctx = make_ctx()
        record(ms, ctx, ("g",), True)
        with pytest.raises(RangeIntegrityError, match="membership"):
            ms.check(ctx, self.view(ctx, member_point=False))

    def test_expected_out_flips(self):
        ms = MembershipSentinels()
        ctx = make_ctx()
        record(ms, ctx, ("g",), False)
        with pytest.raises(RangeIntegrityError):
            ms.check(ctx, self.view(ctx, member_point=True))

    def test_missing_group_counts_as_out(self):
        ms = MembershipSentinels()
        ctx = make_ctx()
        record(ms, ctx, ("g",), False)
        ms.check(ctx, None)  # no view at all: group absent, as expected

    def test_first_record_wins(self):
        ms = MembershipSentinels()
        ctx = make_ctx()
        record(ms, ctx, ("g",), True)
        record(ms, ctx, ("g",), False)
        ms.check(ctx, self.view(ctx, member_point=True))  # True was kept
        with pytest.raises(RangeIntegrityError):
            ms.check(ctx, self.view(ctx, member_point=False))

    def test_reset(self):
        ms = MembershipSentinels()
        record(ms, make_ctx(), ("g",), True)
        ms.reset()
        assert len(ms) == 0

    def test_multiple_flips_name_the_first(self):
        ms = MembershipSentinels()
        ctx = make_ctx()
        record(ms, ctx, ("a",), True)
        record(ms, ctx, ("b",), True)
        publish(ctx, 7, ("a",), "v", 1.0, [1.0], member_point=False)
        publish(ctx, 7, ("b",), "v", 1.0, [1.0], member_point=False)
        with pytest.raises(RangeIntegrityError) as exc:
            ms.check(ctx, ctx.blocks[7])
        assert str(exc.value) == (
            "membership of group ('a',) flipped (expected True) at batch 1 (+1 more)"
        )

    def test_check_skipped_while_replaying(self):
        ms = MembershipSentinels()
        ctx = make_ctx()
        record(ms, ctx, ("g",), True)
        ctx.monitor.replaying = True
        ms.check(ctx, self.view(ctx, member_point=False))


class TestStaircaseCheck:
    """Only the tightest sentinel per (entity, direction) is kept and
    checked: the check raises exactly when it flips or its entity
    vanished, and the error names the entity and the direction."""

    ENTITY = "(block 1, key ('a',), column 'v')"

    def make(self):
        cmp_ = Comparison(">", Col("d"), Col("u"))
        return SentinelStore([cmp_], {"u"})

    def record(self, store, ctx, *d_values):
        for d in d_values:  # one batch each: 50 > u, then 20 > u, ...
            rel = rel_with_refs(ctx, [d], ("a",))
            store.record(0, rel, np.array([0]), np.array([True]))

    def test_only_tightest_flips(self):
        store = self.make()
        ctx = make_ctx()
        self.record(store, ctx, 50.0, 20.0)
        publish(ctx, 1, ("a",), "v", 30.0, [30.0])  # 20>30 flips, 50>30 holds
        with pytest.raises(RangeIntegrityError) as exc:
            store.check(ctx)
        assert str(exc.value) == (
            f"sentinel violation at batch 1: resolved decision flipped for "
            f"entity {self.ENTITY}: {store.conjuncts[0]!r} expected True "
            f"for det value 20.0"
        )

    def test_whole_staircase_flips(self):
        store = self.make()
        ctx = make_ctx()
        self.record(store, ctx, 50.0, 20.0)
        publish(ctx, 1, ("a",), "v", 60.0, [60.0])  # above both steps
        with pytest.raises(RangeIntegrityError, match="det value 20.0"):
            store.check(ctx)
        assert ctx.monitor.failures == 1

    def test_tightest_holds(self):
        store = self.make()
        ctx = make_ctx()
        self.record(store, ctx, 50.0, 20.0)
        publish(ctx, 1, ("a",), "v", 15.0, [15.0])  # 20>15: every step holds
        store.check(ctx)
        assert ctx.monitor.failures == 0

    def test_vanished_entity_is_named(self):
        store = self.make()
        ctx = make_ctx()
        self.record(store, ctx, 50.0)
        ctx.blocks[1] = BlockOutput(1, [], ["v"], ctx.indexes[1])
        with pytest.raises(RangeIntegrityError) as exc:
            store.check(ctx)
        assert str(exc.value) == (
            f"sentinel violation at batch 1: entity {self.ENTITY} "
            f"resolved True vanished"
        )

    def test_check_skipped_while_replaying(self):
        store = self.make()
        ctx = make_ctx()
        self.record(store, ctx, 50.0)
        publish(ctx, 1, ("a",), "v", 99.0, [99.0])
        ctx.monitor.replaying = True
        store.check(ctx)  # the replay prunes nothing; nothing is checked
        assert ctx.monitor.failures == 0


class TestVectorizedCheckMatchesRowwise:
    """The array pass of ``SentinelStore.check`` equals a row-by-row
    re-check of every slot (outcome and first reason) on random
    staircases; ``MembershipSentinels.check`` raises exactly when some
    recorded membership differs from the published one."""

    SCHEMA = Schema(
        [("d", ColumnType.FLOAT), ("u", ColumnType.FLOAT), ("w", ColumnType.FLOAT)]
    )
    CONJUNCTS = [
        Comparison(">", Col("d"), Col("u")),
        Comparison("<=", Col("u") * 0.5, Col("d")),  # det side on the right
        Comparison(">", Col("u"), Col("w") * 2.0),  # both sides uncertain
    ]

    @staticmethod
    def outcome(check):
        try:
            check()
        except RangeIntegrityError as failure:
            return str(failure)
        return None

    def context(self, published, indexes):
        ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=2))
        ctx.batch_no = 9
        # The recording run's group indexes: gids stay valid for a run.
        ctx.indexes = indexes
        for block_id, colname in ((1, "v"), (2, "x")):
            for key, value in published[block_id].items():
                publish(ctx, block_id, (key,), colname, value, [value])
        return ctx

    @staticmethod
    def rowwise(store, ctx):
        """The first violation a scalar re-check of each slot's tightest
        sentinels finds (each cell's current point read alone, the
        comparison evaluated on NumPy scalars), worded as ``check``
        words it, or None."""
        for idx, conj in enumerate(store._per_conjunct):
            det_expr, _unc, cols = store._sides[idx]
            cmp_ = store.conjuncts[idx]
            for slot in range(conj.n):
                row, names = {}, []
                for name, cells, code in zip(cols, conj.cells, conj.entities[slot].tolist()):
                    lin, gid = cells.lineage, int(cells.gids[code])
                    output = ctx.blocks.get(lin.block_id)
                    published = output is not None and not output.absent(np.array([gid]))[0]
                    row[name] = output.ucol(lin.column).point[gid] if published else None
                    key = f"key {output.index.keys[gid]!r}" if output is not None else f"gid {gid}"
                    names.append(f"(block {lin.block_id}, {key}, column {lin.column!r})")
                entity = " & ".join(names)
                for expected in (True, False):
                    if not conj.has[slot, int(expected)]:
                        continue
                    if any(v is None for v in row.values()):
                        reason = f"entity {entity} resolved {expected} vanished"
                    else:
                        tight = float(conj.tight[slot, int(expected)])
                        with np.errstate(all="ignore"):
                            left, right = (
                                np.float64(tight) if side is det_expr else side.evaluate_row(row)
                                for side in (cmp_.left, cmp_.right)
                            )
                        if bool(compare(cmp_.op, left, right)) == expected:
                            continue
                        reason = (
                            f"resolved decision flipped for entity {entity}: {cmp_!r} "
                            f"expected {expected} for det value {tight!r}"
                        )
                    return f"sentinel violation at batch {ctx.batch_no}: {reason}"
        return None

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sentinel_store(self, data):
        """Decisions are recorded as they held under one set of estimates
        (NaN det values and a few wrong ones mixed in), then checked
        under moved estimates — none, one or several flip or vanish."""
        which = data.draw(st.integers(0, 2), label="conjunct")
        conjunct = self.CONJUNCTS[which]
        value = st.floats(-20, 20, allow_nan=False)
        before = {1: [data.draw(value) for _ in range(4)],
                  2: [data.draw(value) for _ in range(2)]}
        store = SentinelStore([conjunct], {"u", "w"})
        ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=2))
        for _batch in range(data.draw(st.integers(1, 5), label="batches")):
            n = data.draw(st.integers(1, 6), label="rows")
            uk = [data.draw(st.integers(0, 3)) for _ in range(n)]
            wk = [data.draw(st.integers(0, 1)) for _ in range(n)]
            d = np.array([
                float("nan") if data.draw(st.integers(0, 9)) == 0 else data.draw(value)
                for _ in range(n)
            ])
            pu = np.array([before[1][k] for k in uk])
            pw = np.array([before[2][k] for k in wk])
            with np.errstate(invalid="ignore"):
                held = [d > pu, pu * 0.5 <= d, pu > pw * 2.0][which]
            wrong = np.array([data.draw(st.integers(0, 14)) == 0 for _ in range(n)])
            u, u_lin = gid_column(ctx, 1, [(k,) for k in uk], "v")
            w, w_lin = gid_column(ctx, 2, [(k,) for k in wk], "x")
            rel = Relation._from_parts(
                self.SCHEMA, {"d": d, "u": u, "w": w}, np.ones(n),
                lineage={"u": u_lin, "w": w_lin},
            )
            store.record(0, rel, np.arange(n), held ^ wrong)
        moved = st.one_of(st.just(0.0), st.floats(-15, 15, allow_nan=False))
        published = {
            block_id: {
                k: float("nan") if data.draw(st.integers(0, 19)) == 0 else p + data.draw(moved)
                for k, p in enumerate(points)
                if data.draw(st.integers(0, 9), label=f"{block_id}/{k} published")
            }
            for block_id, points in before.items()
        }
        check_ctx = self.context(published, ctx.indexes)
        want = self.rowwise(store, check_ctx)
        got = self.outcome(lambda: store.check(check_ctx))
        assert got == want
        assert check_ctx.monitor.failures == (got is not None)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_membership(self, data):
        ms = MembershipSentinels()
        ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=2))
        ctx.batch_no = 9
        recorded = {}
        for key in range(5):
            if data.draw(st.booleans(), label=f"recorded {key}"):
                recorded[key] = data.draw(st.booleans())
                record(ms, ctx, (key,), recorded[key])
        members = {
            key: data.draw(st.booleans())
            for key in range(5)
            if data.draw(st.booleans(), label=f"published {key}")
        }
        for key, member in members.items():
            publish(ctx, 7, (key,), "v", 1.0, [1.0], member_point=member)
        got = self.outcome(lambda: ms.check(ctx, ctx.blocks.get(7)))
        # An unpublished group counts as not a member.
        flipped = [
            (key,) for key, member in recorded.items() if members.get(key, False) != member
        ]
        assert (got is None) == (not flipped)
        if flipped:
            assert f"membership of group {flipped[0]!r} flipped" in got
