"""Fault-plan specs: which faults to inject, where, and how often.

A plan is a comma-separated list of specs, each::

    kind@batch[:target][*times]

* ``kind``    — ``sentinel`` (force a variation-range integrity failure),
  or ``batch`` (force one at the controller level, before any unit runs).
* ``batch``   — the 1-based mini-batch the fault arms at.
* ``target``  — for ``sentinel`` faults, an optional operator label
  substring the fault is restricted to (e.g. ``select:3``); note the
  label may itself contain ``:``, so everything after the first ``:`` is
  target.
* ``times``   — optional ``*N`` repeat count (default 1): the fault fires
  on the first N matching probes, then disarms.

Examples::

    sentinel@16                 # integrity failure at batch 16
    sentinel@16:select:3        # ... only in operator select:3
    batch@4                     # controller-level failure at batch 4
    sentinel@5*2                # two integrity failures at batch 5
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

#: The closed set of fault kinds a spec may name.
FAULT_KINDS = frozenset({"sentinel", "batch"})


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: ``kind@batch[:target][*times]``."""

    kind: str
    batch: int
    target: str | None = None
    times: int = 1

    def __str__(self) -> str:
        text = f"{self.kind}@{self.batch}"
        if self.target is not None:
            text += f":{self.target}"
        if self.times != 1:
            text += f"*{self.times}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """An immutable collection of fault specs (one injector arming)."""

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        return ",".join(str(spec) for spec in self.specs)

    def __len__(self) -> int:
        return len(self.specs)


def parse_fault(text: str) -> FaultSpec:
    """Parse one ``kind@batch[:target][*times]`` spec."""
    spec = text.strip()
    if "@" not in spec:
        raise ReproError(f"bad fault spec {text!r}: expected kind@batch[...]")
    kind, _, rest = spec.partition("@")
    kind = kind.strip()
    if kind not in FAULT_KINDS:
        raise ReproError(
            f"bad fault spec {text!r}: unknown kind {kind!r} "
            f"(expected one of {sorted(FAULT_KINDS)})"
        )
    times = 1
    if "*" in rest:
        rest, _, times_text = rest.rpartition("*")
        try:
            times = int(times_text)
        except ValueError:
            raise ReproError(
                f"bad fault spec {text!r}: repeat count {times_text!r} "
                "is not an integer"
            ) from None
        if times < 1:
            raise ReproError(f"bad fault spec {text!r}: repeat count must be >= 1")
    batch_text, _, target = rest.partition(":")
    try:
        batch = int(batch_text)
    except ValueError:
        raise ReproError(
            f"bad fault spec {text!r}: batch {batch_text!r} is not an integer"
        ) from None
    if batch < 1:
        raise ReproError(f"bad fault spec {text!r}: batch must be >= 1")
    target = target.strip() or None
    if target is not None and kind == "batch":
        raise ReproError(f"bad fault spec {text!r}: 'batch' faults take no target")
    return FaultSpec(kind, batch, target, times)


def parse_faults(text: str) -> FaultPlan:
    """Parse a comma-separated fault plan (empty string = empty plan)."""
    specs = tuple(
        parse_fault(part) for part in text.split(",") if part.strip()
    )
    return FaultPlan(specs)


def as_plan(value: object) -> FaultPlan:
    """Coerce ``OnlineConfig.faults`` (spec string or plan) to a plan."""
    if isinstance(value, FaultPlan):
        return value
    if isinstance(value, str):
        return parse_faults(value)
    raise ReproError(
        f"faults must be a spec string or FaultPlan, got {type(value).__name__}"
    )
