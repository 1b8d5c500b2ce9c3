"""Exception hierarchy for the iOLAP reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class. Sub-classes mirror the
subsystems: schema/typing problems, SQL front-end problems, unsupported
online-query shapes, and variation-range integrity failures (which are
normally handled internally by the query controller's recovery path, but
are also part of the public API for users driving the engine manually).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A relation, row, or expression does not match the declared schema."""


class ExpressionError(ReproError):
    """An expression is malformed or applied to incompatible operands."""


class PlanError(ReproError):
    """A logical plan is structurally invalid (schema mismatch, bad keys...)."""


class SQLError(ReproError):
    """The SQL front-end could not lex, parse, or plan a statement."""


class UnsupportedQueryError(ReproError):
    """The query falls outside the class supported by the online engine.

    Mirrors the paper's Section 3.3: positive relational algebra only, no
    approximate join/group-by keys under sampling, and aggregate functions
    must be Hadamard differentiable (so MIN/MAX are rejected online even
    though the batch evaluator supports them).

    Compile-time refusals come from one table
    (:func:`repro.core.uncertainty.tag_plan`) and carry the offending plan
    node and their ``TC1xx`` rule id, so callers can point at the exact
    plan location; runtime refusals carry neither.
    """

    def __init__(
        self, message: str, node: object = None, rule_id: str | None = None
    ) -> None:
        super().__init__(message)
        #: The plan node the rejection is about, when known.
        self.node = node
        #: The refusal's ``TC1xx`` rule id, for compile-time refusals.
        self.rule_id = rule_id


class RangeIntegrityError(ReproError):
    """A variation-range integrity check failed (Section 5.1).

    Raised by the sentinels (:mod:`repro.core.sentinels`) when a pruned
    decision no longer holds under the current estimates. The query
    controller catches this, resets the operators to their pre-run state
    and replays conservatively; it only propagates to users running operators
    by hand.
    """


class CatalogError(ReproError):
    """A referenced table is missing from the catalog."""


class SanitizerViolationError(ReproError):
    """The runtime debug mode caught a contract break (``--sanitize``).

    Raised by :class:`repro.analysis.sanitize.BufferSanitizer` when an
    operator writes in place into a frozen zero-copy buffer (``SAN001``)
    or a read-only memmapped :class:`~repro.storage.DiskTable` chunk
    (``SAN002``), or holds state entries outside its declared
    ``StateRule`` (``SAN004``). Carries the rule id, the offending
    operator's label, and the buffer's original owner(s) (for SAN004 the
    operator itself).
    """

    def __init__(
        self, rule_id: str, writer: str, owners: list[str], message: str
    ) -> None:
        super().__init__(message)
        self.rule_id = rule_id
        self.writer = writer
        self.owners = owners
