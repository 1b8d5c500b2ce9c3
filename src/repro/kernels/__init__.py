"""Vectorized hot-path kernels for the online engine.

The modules in this package replace per-row Python loops on the engine's
hot paths with batched NumPy kernels:

* :mod:`repro.kernels.codec` — key factorization: group-by/join key
  columns become dense integer codes, memoized per (immutable) relation;
* :mod:`repro.kernels.joins` — cross-batch cached hash-join index and a
  vectorized equi-join identical to the reference row-wise join;
* :mod:`repro.kernels.resolve` — batched lineage resolution and
  array-wide interval arithmetic for predicate classification;
* :mod:`repro.kernels.holistic` — sort-based grouped reductions for the
  per-trial holistic aggregate path;
* :mod:`repro.kernels.stats` — cache hit/miss counters surfaced through
  the observability registry.

The kernels are the engine's only execution path. The row-wise helpers
that remain (``AggBundle.fold_values``, ``RangeMonitor.observe``,
``join_relations``) are test references, beside the per-row comparison
side in ``tests/conftest.py``; ``tests/test_kernels.py`` and the property suite check that
each kernel is *bit-identical* to them. Submodules are imported
directly (not re-exported here) to keep import edges acyclic: ``codec``
depends only on NumPy, so even ``repro.relational`` may use it.
"""
