"""Static analysis over plans and over the engine itself.

The paper's correctness story rests on a compile-time discipline: every
operator's output carries tuple-uncertainty (``u#``) and
attribute-uncertainty (``uA``) tags, and the §4.2 delta-update state
rules are *derived* from those tags. This package checks — before a run
starts — that a compiled plan's tag flow and state rules are mutually
consistent, and that the operator implementations still honor the
contracts the engine assumes:

* :mod:`repro.analysis.typecheck` — the plan-level uncertainty
  typechecker: reports every refusal in the engine's refusal table
  (:func:`repro.core.uncertainty.tag_plan`, TC1xx), then checks what the
  compiler emitted against the engine's Appendix-A tags (operator
  placement, declared state rules, ND-cache presence, block
  production/consumption) and the unit order: every consumer after its
  producer, no store shared by two units (TC310/TC311);
* :mod:`repro.analysis.lint` — an ``ast``-based lint suite over the
  engine's own source, enforcing the engine contracts (no input
  mutation in ``process``, between-batch state only in named
  :class:`~repro.state.StateStore` entries, block writes only by the
  declared producer, no banned nondeterminism in batch-pure paths);
* :mod:`repro.analysis.sanitize` — the one runtime debug mode, behind
  ``--sanitize`` / ``OnlineConfig(sanitize=True)``: freezes zero-copy
  buffers during ``process`` and tracks aliased-view provenance, so an
  in-place write names its writer and the buffer's owner (SAN001/002),
  and checks each operator's state entries against its declared
  ``StateRule`` after every ``process`` (SAN004).

Everything reports through :class:`AnalysisDiagnostic`: a structured
(rule id, location, message, fix hint) record instead of a runtime
surprise.
"""

from repro.analysis.diagnostics import AnalysisDiagnostic, AnalysisReport

__all__ = [
    "AnalysisDiagnostic",
    "AnalysisReport",
    "analyze_query",
    "check_plan",
    "run_lint",
]


def __getattr__(name: str) -> object:
    # Lazy re-exports: repro.core imports the sanitizer from this package,
    # so the package __init__ must not import repro.core back eagerly.
    if name in ("check_plan", "analyze_query"):
        from repro.analysis import typecheck

        return getattr(typecheck, name)
    if name == "run_lint":
        from repro.analysis.lint import run_lint

        return run_lint
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
