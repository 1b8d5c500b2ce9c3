"""AST-based lint suite over the engine's own source (``ENG0xx`` rules).

The engine assumes contracts the Python type system cannot
express: ``process`` must treat its inputs as immutable (sibling
operators read the same :class:`~repro.core.operators.DeltaBatch`),
between-batch state must live in named :class:`~repro.state.StateStore`
entries (so recovery's reset and the Figure 9(b) accounting see it),
lineage blocks have a single producing operator (cross-unit dataflow
depends on it), and batch-pure code paths must be deterministic
(bit-identical recovery replay depends on it). This module
enforces those contracts statically over ``src/repro`` itself. In-place
writes into relation buffers reach them through any alias (a local
name, a slice view, a ufunc's ``out=``), so no syntactic rule covers
them; the ``--sanitize`` run catches each at the write (SAN001/SAN002).

Framework:

* :class:`LintRule` — one pluggable rule; register instances in
  :data:`LINT_RULES` (or pass your own list to :func:`run_lint`);
* *operator-class* scope — a rule that only makes sense inside an online
  operator applies to every class that defines a
  ``process(self, delta, ctx)`` method (the ``SpineOp`` signature);
* suppressions — a trailing ``# noqa`` comment suppresses every rule on
  that line, ``# noqa: ENG001,ENG004`` only the named ones (the same
  grammar ruff/flake8 use).

Diagnostics are :class:`~repro.analysis.AnalysisDiagnostic` records with
``file:line`` locations, aggregated into an
:class:`~repro.analysis.AnalysisReport` that CI serializes as a build
artifact.
"""

from __future__ import annotations

import ast
import pathlib
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.diagnostics import AnalysisDiagnostic, AnalysisReport

__all__ = [
    "ENGINE_LINT_RULES",
    "LINT_RULES",
    "LintRule",
    "lint_source",
    "run_lint",
]

#: Rule catalog (ids -> one-line description). Mirrored in DESIGN.md; the
#: test suite asserts every rule here is triggered by some fixture.
ENGINE_LINT_RULES: dict[str, str] = {
    "ENG001": "process() mutates its input DeltaBatch or ctx.delta",
    "ENG002": "between-batch state assigned to a bare instance attribute "
    "outside construction and reset",
    "ENG003": "block write from an operator that is not the block's "
    "declared producer",
    "ENG004": "banned nondeterminism (time/random/uuid) in a batch-pure "
    "code path",
    "ENG005": "iteration over an unordered set in a batch-pure code path "
    "(dict/set-ordering hazard)",
}

#: Methods whose self-attribute assignments are configuration, not
#: between-batch state: construction and the recovery reset.
_SETUP_METHODS = frozenset({"__init__", "_init_state", "reset"})

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "fill",
        "insert",
        "pop",
        "popitem",
        "publish",
        "put",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: Dotted-prefix deny list for batch-pure code (ENG004).
_BANNED_PREFIXES = (
    "time.",
    "random.",
    "np.random.",
    "numpy.random.",
    "uuid.",
    "secrets.",
)
_BANNED_EXACT = frozenset({"os.urandom", "datetime.now", "datetime.datetime.now"})


# ---------------------------------------------------------------------------
# Framework
# ---------------------------------------------------------------------------


@dataclass
class LintModule:
    """One parsed source file handed to every rule."""

    path: str
    tree: ast.Module
    source_lines: list[str] = field(default_factory=list)

    def location(self, node: ast.AST) -> str:
        return f"{self.path}:{getattr(node, 'lineno', 0)}"


class LintRule:
    """Base class of one pluggable lint rule."""

    rule_id: str = "ENG000"
    description: str = ""

    def check(self, module: LintModule) -> Iterator[AnalysisDiagnostic]:
        raise NotImplementedError

    def diag(
        self, module: LintModule, node: ast.AST, message: str, hint: str = ""
    ) -> AnalysisDiagnostic:
        return AnalysisDiagnostic(self.rule_id, module.location(node), message, hint)


# -- shared AST helpers ------------------------------------------------------


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` of an attribute/subscript/call chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Call):
        return _root_name(node.func)
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure attribute chain rooted at a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_ctx_delta(node: ast.AST, ctx_name: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "delta"
        and isinstance(node.value, ast.Name)
        and node.value.id == ctx_name
    )


def _chain_touches(node: ast.AST, predicate: Callable[[ast.AST], bool]) -> bool:
    """Whether any link of an attribute/subscript chain satisfies
    ``predicate`` (used to catch e.g. ``delta.certain.columns[...]``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if predicate(node):
            return True
        node = node.value
    return predicate(node)


def _operator_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Classes implementing the ``SpineOp.process(self, delta, ctx)``
    contract — the scope of the operator-only rules."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (
                isinstance(item, ast.FunctionDef)
                and item.name == "process"
                and [a.arg for a in item.args.args] == ["self", "delta", "ctx"]
            ):
                yield node
                break


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item


def _property_setters(cls: ast.ClassDef) -> set[str]:
    """Names with an ``@name.setter`` method — assignments to these are
    store-backed writes, not bare instance attributes."""
    setters: set[str] = set()
    for method in _methods(cls):
        for deco in method.decorator_list:
            if isinstance(deco, ast.Attribute) and deco.attr == "setter":
                setters.add(method.name)
    return setters


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class NoInputMutation(LintRule):
    """ENG001: ``process`` must not mutate ``delta`` or ``ctx.delta``."""

    rule_id = "ENG001"
    description = ENGINE_LINT_RULES["ENG001"]

    def check(self, module: LintModule) -> Iterator[AnalysisDiagnostic]:
        for cls in _operator_classes(module.tree):
            for method in _methods(cls):
                if method.name != "process":
                    continue
                args = [a.arg for a in method.args.args]
                delta_name, ctx_name = args[1], args[2]
                yield from self._check_body(module, method, delta_name, ctx_name)

    def _check_body(
        self,
        module: LintModule,
        method: ast.FunctionDef,
        delta_name: str,
        ctx_name: str,
    ) -> Iterator[AnalysisDiagnostic]:
        def is_input_rooted(node: ast.AST) -> bool:
            if _chain_touches(node, lambda n: _is_ctx_delta(n, ctx_name)):
                return True
            return _root_name(node) == delta_name

        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) and is_input_rooted(target):
                        yield self.diag(
                            module,
                            node,
                            f"assignment into the operator input "
                            f"{ast.unparse(target)}",
                            "build a new DeltaBatch/Relation instead; inputs "
                            "are shared with sibling operators",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and is_input_rooted(func.value)
                ):
                    yield self.diag(
                        module,
                        node,
                        f"mutating call {ast.unparse(func)}() on the "
                        "operator input",
                        "copy before mutating, or restructure as a pure "
                        "transformation",
                    )


class StateOnlyInStore(LintRule):
    """ENG002: between-batch state lives in named store entries only."""

    rule_id = "ENG002"
    description = ENGINE_LINT_RULES["ENG002"]

    def check(self, module: LintModule) -> Iterator[AnalysisDiagnostic]:
        for cls in _operator_classes(module.tree):
            setters = _property_setters(cls)
            for method in _methods(cls):
                if method.name in _SETUP_METHODS or method.name in setters:
                    continue
                for node in ast.walk(method):
                    if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                        continue
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr not in setters
                        ):
                            yield self.diag(
                                module,
                                node,
                                f"instance attribute self.{target.attr} assigned "
                                f"in {cls.name}.{method.name}()",
                                "between-batch state must live in a named "
                                "StateStore entry (self.state.put) declared in "
                                "the class's state_rule, or behind a property "
                                "setter that writes the store",
                            )


class BlockWriteByProducerOnly(LintRule):
    """ENG003: only a block's declared producer writes ``ctx.blocks``."""

    rule_id = "ENG003"
    description = ENGINE_LINT_RULES["ENG003"]

    def check(self, module: LintModule) -> Iterator[AnalysisDiagnostic]:
        for cls in _operator_classes(module.tree):
            for method in _methods(cls):
                yield from self._check_method(module, cls, method)

    def _check_method(
        self, module: LintModule, cls: ast.ClassDef, method: ast.FunctionDef
    ) -> Iterator[AnalysisDiagnostic]:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and _dotted_name(target.value) == "ctx.blocks"
                        and _dotted_name(target.slice) != "self.block_id"
                    ):
                        yield self.diag(
                            module,
                            node,
                            f"{cls.name}.{method.name}() publishes block "
                            f"[{ast.unparse(target.slice)}] but an operator "
                            "may only write the block it declares via "
                            "self.block_id",
                            "route cross-block effects through the block's "
                            "producing unit",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                receiver = func.value
                # ctx.blocks.update(...) / ctx.block(i).publish(...)
                if (
                    _dotted_name(receiver) == "ctx.blocks"
                    and func.attr in _MUTATOR_METHODS
                ) or (
                    isinstance(receiver, ast.Call)
                    and _dotted_name(receiver.func) == "ctx.block"
                    and func.attr in _MUTATOR_METHODS
                ):
                    yield self.diag(
                        module,
                        node,
                        f"{cls.name}.{method.name}() mutates the shared block "
                        f"registry via {ast.unparse(func)}()",
                        "blocks are published whole by their producing "
                        "aggregate; consumers read only",
                    )


class NoNondeterminism(LintRule):
    """ENG004: batch-pure code must not read clocks or entropy."""

    rule_id = "ENG004"
    description = ENGINE_LINT_RULES["ENG004"]

    def check(self, module: LintModule) -> Iterator[AnalysisDiagnostic]:
        for cls in _operator_classes(module.tree):
            for method in _methods(cls):
                if method.name == "__init__":
                    continue
                for node in ast.walk(method):
                    if not isinstance(node, ast.Call):
                        continue
                    name = _dotted_name(node.func)
                    if name is None:
                        continue
                    if name in _BANNED_EXACT or name.startswith(_BANNED_PREFIXES):
                        yield self.diag(
                            module,
                            node,
                            f"call to {name}() in batch-pure "
                            f"{cls.name}.{method.name}()",
                            "batch results must be a pure function of the "
                            "batch inputs and seeded config (recovery "
                            "replay must agree bit for bit)",
                        )


class NoUnorderedIteration(LintRule):
    """ENG005: don't iterate raw sets where order reaches the output."""

    rule_id = "ENG005"
    description = ENGINE_LINT_RULES["ENG005"]

    def check(self, module: LintModule) -> Iterator[AnalysisDiagnostic]:
        for cls in _operator_classes(module.tree):
            for method in _methods(cls):
                if method.name == "__init__":
                    continue
                for node in ast.walk(method):
                    iters: list[ast.expr] = []
                    if isinstance(node, (ast.For, ast.AsyncFor)):
                        iters.append(node.iter)
                    elif isinstance(
                        node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                    ):
                        iters.extend(gen.iter for gen in node.generators)
                    for item in iters:
                        if _is_set_expression(item):
                            yield self.diag(
                                module,
                                node,
                                f"iteration over the unordered set expression "
                                f"{ast.unparse(item)}",
                                "wrap the set in sorted(...) so the iteration "
                                "order (and anything derived from it) is "
                                "deterministic",
                            )


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


#: The default pluggable rule set.
LINT_RULES: list[LintRule] = [
    NoInputMutation(),
    StateOnlyInStore(),
    BlockWriteByProducerOnly(),
    NoNondeterminism(),
    NoUnorderedIteration(),
]


# ---------------------------------------------------------------------------
# Driver + suppressions
# ---------------------------------------------------------------------------

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _suppressed(diag: AnalysisDiagnostic, source_lines: list[str]) -> bool:
    try:
        line_no = int(diag.location.rsplit(":", 1)[1])
    except (IndexError, ValueError):
        return False
    if not 1 <= line_no <= len(source_lines):
        return False
    match = _NOQA_RE.search(source_lines[line_no - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True  # bare "# noqa" suppresses everything on the line
    return diag.rule_id in {c.strip().upper() for c in codes.split(",")}


def lint_source(
    source: str, path: str = "<string>", rules: Iterable[LintRule] | None = None
) -> list[AnalysisDiagnostic]:
    """Lint one source text; returns un-suppressed diagnostics."""
    tree = ast.parse(source, filename=path)
    module = LintModule(path, tree, source.splitlines())
    out: list[AnalysisDiagnostic] = []
    for rule in LINT_RULES if rules is None else rules:
        for diag in rule.check(module):
            if not _suppressed(diag, module.source_lines):
                out.append(diag)
    return out


def _default_root() -> pathlib.Path:
    import repro

    return pathlib.Path(repro.__file__).parent


def _repo_relative(path: pathlib.Path) -> str:
    """A ``src/repro/...``-style path, stable across invocation directories.

    Diagnostic locations (and the ``# noqa`` baselines and CI artifacts
    built from them) must not depend on where the linter was invoked
    from, so paths are rebased onto the repository root — the nearest
    ancestor holding a ``pyproject.toml``. Sources installed outside any
    repository keep their absolute path.
    """
    resolved = path.resolve()
    for parent in resolved.parents:
        if (parent / "pyproject.toml").is_file():
            return resolved.relative_to(parent).as_posix()
    return resolved.as_posix()


def run_lint(
    root: str | pathlib.Path | None = None,
    rules: Iterable[LintRule] | None = None,
) -> AnalysisReport:
    """Lint every ``.py`` file under ``root`` (default: the installed
    ``repro`` package itself) and aggregate one report."""
    started = time.perf_counter()
    base = pathlib.Path(root) if root is not None else _default_root()
    report = AnalysisReport(subject=f"lint:{_repo_relative(base)}")
    for path in sorted(base.rglob("*.py")):
        source = path.read_text()
        rel = _repo_relative(path)
        try:
            diags = lint_source(source, rel, rules)
        except SyntaxError as exc:  # pragma: no cover - repo parses
            diags = [
                AnalysisDiagnostic(
                    "ENG000", f"{rel}:{exc.lineno or 0}", f"cannot parse: {exc.msg}"
                )
            ]
        report.extend(diags)
    report.wall_seconds = time.perf_counter() - started
    return report
