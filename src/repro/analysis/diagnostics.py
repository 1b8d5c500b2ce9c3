"""Structured diagnostics shared by the typechecker and lint.

A diagnostic names the violated rule, where it fired (a plan node /
operator label for plan checks, ``file:line`` for lint), what went wrong,
and how to fix it. Reports aggregate diagnostics per analysis run and
serialize to JSON for the CI artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class AnalysisDiagnostic:
    """One violation of a typechecker or lint rule."""

    #: Stable rule identifier (``TC1xx`` engine refusal, ``TC3xx``
    #: compiled-plan, ``ENG0xx`` engine lint).
    rule_id: str
    #: Where the rule fired: a plan-node / operator label, or file:line.
    location: str
    #: What is wrong, in one sentence.
    message: str
    #: How to fix it (may be empty for self-explanatory rules).
    hint: str = ""
    #: ``"error"`` diagnostics fail the build; ``"warning"`` ones do not.
    severity: str = "error"

    def format(self) -> str:
        text = f"{self.rule_id} [{self.severity}] {self.location}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, str]:
        return {
            "rule_id": self.rule_id,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
            "severity": self.severity,
        }


@dataclass
class AnalysisReport:
    """All diagnostics of one analysis run, plus its fixed cost."""

    #: What was analyzed (a query name, a source tree, ...).
    subject: str
    diagnostics: list[AnalysisDiagnostic] = field(default_factory=list)
    #: Wall seconds the analysis itself took (the fixed static-pass cost
    #: the benchmark harness tracks per query).
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)

    def extend(self, diagnostics: list[AnalysisDiagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def rule_ids(self) -> set[str]:
        return {d.rule_id for d in self.diagnostics}

    def format(self) -> str:
        if not self.diagnostics:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.diagnostics)} finding(s)"]
        lines += ["  " + d.format().replace("\n", "\n  ") for d in self.diagnostics]
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "wall_seconds": self.wall_seconds,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
