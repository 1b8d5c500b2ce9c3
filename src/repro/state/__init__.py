"""State stores for the online engine's between-batch state.

Every stateful online operator keeps its inter-batch state (ND-set
caches, sentinel guards, pending-join rows, aggregate sketches, …) in a
:class:`StateStore` rather than in bare instance attributes. That gives
the engine **uniform size accounting**: every entry is measured by
:func:`estimate_nbytes` once per batch, as it is then (a sketch grows in
place), feeding the Figure 9(b)/10(c) state-footprint metrics
automatically. Failure recovery (Section 5.1) clears every store and
re-seeds it through the operator's ``reset``.
"""

from repro.state.store import StateStore, estimate_nbytes

__all__ = ["StateStore", "estimate_nbytes"]
