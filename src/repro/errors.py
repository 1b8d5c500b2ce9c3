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

    Rejection sites pass the offending plan node so callers (and the
    ``repro.analysis`` typechecker) can point at the exact plan location.
    """

    def __init__(self, message: str, node: object = None):
        super().__init__(message)
        #: The plan node the rejection is about, when known.
        self.node = node


class RangeIntegrityError(ReproError):
    """A variation-range integrity check failed (Section 5.1).

    Raised by :class:`repro.core.ranges.RangeMonitor` when a new batch's
    bootstrap outputs escape the previously published variation range. The
    query controller catches this and replays from the last consistent
    batch; it only propagates to users running operators by hand.
    """

    def __init__(self, message: str, recover_from_batch: int = 0):
        super().__init__(message)
        #: Last batch index whose resolved pruning decisions all still hold
        #: for the current estimates (0 = none do). The controller restores
        #: the newest state checkpoint taken at or before this batch and
        #: replays only the batches after it.
        self.recover_from_batch = recover_from_batch


class TransientUnitError(ReproError):
    """A retryable failure inside one execution unit.

    Raised before the unit body runs (fault injection, and the seam for
    future transient backends), so re-running the unit is side-effect
    safe. Executors retry errors carrying ``transient = True`` up to
    ``OnlineConfig.unit_retry_attempts`` times; anything else propagates
    immediately.
    """

    #: Marks the error as safe to retry at the executor level.
    transient = True


class CatalogError(ReproError):
    """A referenced table is missing from the catalog."""


class ContractViolationError(ReproError):
    """A runtime engine-contract check failed (``--verify`` mode).

    Raised by :class:`repro.analysis.verify.ContractVerifier` when an
    operator breaks a contract the executor relies on: mutating its input
    :class:`~repro.core.operators.DeltaBatch` or the installed streamed
    delta, growing state entries outside its declared
    :class:`~repro.state.StateStore` names, or two threads of one
    ParallelExecutor wave touching the same store entry.
    """


class SanitizerViolationError(ReproError):
    """The runtime buffer sanitizer caught an aliasing race (``--sanitize``).

    Raised by :class:`repro.analysis.sanitize.BufferSanitizer` when an
    operator writes in place into a frozen zero-copy buffer (``SAN001``),
    a read-only memmapped :class:`~repro.storage.DiskTable` chunk
    (``SAN002``), or when one base buffer is write-claimed from two
    threads within a single batch (``SAN003``). Carries the rule id, the
    writing operator's label, and the buffer's original owner(s).
    """

    def __init__(
        self, rule_id: str, writer: str, owners: list[str], message: str
    ) -> None:
        super().__init__(message)
        self.rule_id = rule_id
        self.writer = writer
        self.owners = owners
