"""Vectorized hot-path kernels for the online engine.

The modules in this package replace per-row Python loops on the engine's
hot paths with batched NumPy kernels:

* :mod:`repro.kernels.codec` — key factorization: group-by/join key
  columns become dense integer codes, memoized per (immutable) relation;
* :mod:`repro.kernels.joins` — cross-batch cached hash-join index and the
  vectorized equi-join both engines (online and ``run_batch``) run;
* :mod:`repro.kernels.resolve` — batched lineage resolution and
  array-wide interval arithmetic for predicate classification;
* :mod:`repro.kernels.holistic` — sort-based grouped reductions for the
  per-trial holistic aggregate path;
* :mod:`repro.kernels.stats` — cache hit/miss counters surfaced through
  the observability registry.

The kernels are the engine's only execution path. The row-wise helpers
that remain in ``src/`` (``AggBundle.fold_values``,
``RangeMonitor.observe``) are test references, as are the dict-walk
join ``join_relations`` in ``tests/test_kernels.py`` and the per-row
comparison side in ``tests/conftest.py``; ``tests/test_kernels.py`` and
the property suite check that each kernel is *bit-identical* to them.
Submodules are imported directly (not re-exported here): ``codec`` and
``holistic`` depend only on NumPy, and ``relational.evaluator`` binds
``joins`` as a module, so ``repro.relational`` and ``repro.kernels.joins``
may be imported in either order.
"""
