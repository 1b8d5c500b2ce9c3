"""Pluggable state stores for the online engine's between-batch state.

Every stateful online operator keeps its inter-batch state (ND-set
caches, sentinel guards, pending-join rows, aggregate sketches, …) in a
:class:`StateStore` rather than in bare instance attributes. The store
layer gives the engine three things the paper's delta-update algorithm
needs but ad-hoc attributes cannot provide:

* **uniform size accounting** — every entry is measured by
  :func:`estimate_nbytes`, feeding the Figure 9(b)/10(c) state-footprint
  metrics automatically;
* **checkpoint/restore** — the failure-recovery replay (Section 5.1)
  restores all operator state to the pristine pre-run snapshot instead
  of relying on each operator's ad-hoc ``reset``;
* **a backend seam** — the engine only talks to the :class:`StateStore`
  contract, so spill-to-disk or sharded implementations can be swapped
  in per operator without touching operator code.
"""

from repro.state.registry import StateRegistry
from repro.state.store import (
    InMemoryStateStore,
    StateStore,
    estimate_nbytes,
)

__all__ = [
    "InMemoryStateStore",
    "StateRegistry",
    "StateStore",
    "estimate_nbytes",
]
