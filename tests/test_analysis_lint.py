"""The engine-contract lint: clean on the shipped sources, and every ENG
rule fires on a deliberately broken operator fixture (no dead rules)."""

from __future__ import annotations

import textwrap

from repro.analysis import run_lint
from repro.analysis.lint import ENGINE_LINT_RULES, lint_source


def _rules(source: str) -> set[str]:
    return {d.rule_id for d in lint_source(textwrap.dedent(source))}


# Baseline: a well-behaved operator shape that every fixture perturbs.
CLEAN_OP = """
class GoodOp:
    def __init__(self, child):
        self.child = child
        self.block_id = 7
        self.threshold = 4.2

    def process(self, delta, ctx):
        rows = [r for r in delta.rows if r.x > self.threshold]
        self.state.put("kept", len(rows))
        ctx.blocks[self.block_id] = rows
        return rows
"""


def test_clean_operator_has_no_findings():
    assert _rules(CLEAN_OP) == set()


def test_non_operator_classes_are_out_of_scope():
    # The same "violations" outside an operator class are fine: scope is
    # classes implementing process(self, delta, ctx).
    assert (
        _rules(
            """
            import time

            class Helper:
                def tick(self, delta, ctx):
                    delta.rows.append(1)
                    self.stamp = time.time()
            """
        )
        == set()
    )


def test_eng001_assigning_into_input():
    assert "ENG001" in _rules(
        """
        class BadOp:
            def process(self, delta, ctx):
                delta.certain = None
                return delta
        """
    )


def test_eng001_mutating_call_on_input():
    assert "ENG001" in _rules(
        """
        class BadOp:
            def process(self, delta, ctx):
                delta.rows.append(1)
                return delta
        """
    )


def test_eng001_mutating_ctx_delta():
    assert "ENG001" in _rules(
        """
        class BadOp:
            def process(self, delta, ctx):
                ctx.delta.columns["x"] = None
                return delta
        """
    )


def test_eng002_stray_instance_state():
    assert "ENG002" in _rules(
        """
        class BadOp:
            def process(self, delta, ctx):
                self.seen = self.seen + len(delta.rows)
                return delta
        """
    )


def test_eng002_allows_lifecycle_and_property_setters():
    assert (
        _rules(
            """
            class GoodOp:
                def __init__(self):
                    self.total = 0

                def _init_state(self):
                    self.total = 0

                @property
                def sketch(self):
                    return self.state.get("sketch")

                @sketch.setter
                def sketch(self, value):
                    self.state.put("sketch", value)

                def process(self, delta, ctx):
                    self.sketch = delta
                    return delta
            """
        )
        == set()
    )


def test_eng002_flags_state_seeded_in_open():
    # The engine never calls open(): state seeded there is never seeded.
    assert "ENG002" in _rules(
        """
        class BadOp:
            def open(self, ctx):
                self.total = 0

            def process(self, delta, ctx):
                return delta
        """
    )


def test_eng003_non_producer_block_write():
    assert "ENG003" in _rules(
        """
        class BadOp:
            def process(self, delta, ctx):
                ctx.blocks[3] = delta
                return delta
        """
    )


def test_eng003_mutating_published_block():
    assert "ENG003" in _rules(
        """
        class BadOp:
            def process(self, delta, ctx):
                ctx.block(3).publish(delta, True)
                return delta
        """
    )


def test_eng003_allows_own_block_publish():
    assert (
        _rules(
            """
            class GoodOp:
                def process(self, delta, ctx):
                    ctx.blocks[self.block_id] = delta
                    return delta
            """
        )
        == set()
    )


def test_eng004_clock_read_in_batch_pure_path():
    assert "ENG004" in _rules(
        """
        import time

        class BadOp:
            def process(self, delta, ctx):
                self.state.put("stamp", time.time())
                return delta
        """
    )


def test_eng004_entropy_in_helper_method():
    assert "ENG004" in _rules(
        """
        import random

        class BadOp:
            def process(self, delta, ctx):
                return self._jitter(delta)

            def _jitter(self, delta):
                return random.random()
        """
    )


def test_eng004_allows_setup_methods():
    assert (
        _rules(
            """
            import time

            class GoodOp:
                def __init__(self):
                    self.built_at = time.time()

                def process(self, delta, ctx):
                    return delta
            """
        )
        == set()
    )


def test_eng004_flags_clock_read_in_open():
    assert "ENG004" in _rules(
        """
        import time

        class BadOp:
            def open(self, ctx):
                self.opened_at = time.time()

            def process(self, delta, ctx):
                return delta
        """
    )


def test_eng005_iterating_raw_set():
    assert "ENG005" in _rules(
        """
        class BadOp:
            def process(self, delta, ctx):
                for key in set(delta.keys) - self.published:
                    self.state.put(key, 1)
                return delta
        """
    )


def test_eng005_comprehension_over_set():
    assert "ENG005" in _rules(
        """
        class BadOp:
            def process(self, delta, ctx):
                return [k for k in frozenset(delta.keys)]
        """
    )


def test_eng005_allows_sorted_iteration():
    assert (
        _rules(
            """
            class GoodOp:
                def process(self, delta, ctx):
                    for key in sorted(set(delta.keys) - self.published):
                        self.state.put(key, 1)
                    return delta
            """
        )
        == set()
    )


def test_eng006_subscript_write_into_column_buffer():
    assert "ENG006" in _rules(
        """
        def patch(rel, mask):
            rel.columns["x"][mask] = 0.0
        """
    )


def test_eng006_augmented_write_into_mult():
    assert "ENG006" in _rules(
        """
        def rescale(rel, factor):
            rel.mult[:] *= factor
        """
    )


def test_eng006_mutating_call_on_sidecar_buffer():
    assert "ENG006" in _rules(
        """
        def clear_codes(enc):
            enc.codes.fill(-1)
        """
    )


def test_eng006_applies_outside_operator_classes():
    # Unlike ENG001-ENG005, buffer ownership is engine-wide: a helper
    # holding a sliced relation aliases other batches just the same.
    assert "ENG006" in _rules(
        """
        class Helper:
            def tweak(self, rel):
                rel.trial_mults[0, :] = 0.0
        """
    )


def test_eng006_exempts_the_storage_layer():
    source = textwrap.dedent(
        """
        def _write(enc, i, code):
            enc.codes[i] = code
        """
    )
    assert {
        d.rule_id
        for d in lint_source(source, path="src/repro/storage/columns.py")
    } == set()
    assert {
        d.rule_id
        for d in lint_source(source, path="src/repro/relational/relation.py")
    } == set()
    assert "ENG006" in {
        d.rule_id for d in lint_source(source, path="src/repro/core/ops.py")
    }


def test_eng006_reads_and_fresh_dicts_are_fine():
    assert (
        _rules(
            """
            def build(rel, name, arr):
                cols = dict(rel.columns)
                cols[name] = arr
                x = rel.columns["x"][:10]
                return cols, x
            """
        )
        == set()
    )


def test_noqa_suppresses_named_rule():
    assert (
        _rules(
            """
            class BadOp:
                def process(self, delta, ctx):
                    delta.rows.append(1)  # noqa: ENG001
                    return delta
            """
        )
        == set()
    )


def test_noqa_bare_suppresses_everything_on_line():
    assert (
        _rules(
            """
            class BadOp:
                def process(self, delta, ctx):
                    delta.rows.append(1)  # noqa
                    return delta
            """
        )
        == set()
    )


def test_noqa_with_other_code_does_not_suppress():
    assert "ENG001" in _rules(
        """
        class BadOp:
            def process(self, delta, ctx):
                delta.rows.append(1)  # noqa: ENG004
                return delta
        """
    )


def test_shipped_sources_are_clean():
    report = run_lint()
    assert report.ok, report.format()
    assert not report.diagnostics, report.format()
    assert report.wall_seconds > 0


def test_rule_catalog_is_fully_exercised():
    import ast
    import pathlib

    source = pathlib.Path(__file__).read_text()
    asserted = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in ENGINE_LINT_RULES
    }
    assert asserted >= set(ENGINE_LINT_RULES), (
        f"rules without fixtures: {sorted(set(ENGINE_LINT_RULES) - asserted)}"
    )
