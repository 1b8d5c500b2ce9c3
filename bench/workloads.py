"""The four named workloads and the one data scale they all run at.

Each workload is a list of the paper's workload queries (TPC-H-like
``Q*`` stream ``lineorder``/``partsupp``/``customer``; Conviva-like ``C*``
stream ``sessions``), a mini-batch count and a shard count. Why each one
exists is recorded in ``BENCHMARK.json`` (one ``why`` per workload) and in
``bench/README.md``; the names are final — later issues quote them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Data scale of every measured run: ``20_000 * SCALE`` fact rows. Fixed so
#: numbers of different commits compare; ``--smoke`` alone runs smaller.
SCALE = 2.0
SMOKE_SCALE = 0.5

#: Bootstrap trials per run; the only ``OnlineConfig`` field the benchmark
#: sets besides ``seed`` (and ``shards`` on the sharded workload).
NUM_TRIALS = 100

#: The accuracy an analyst waits for (Fig 7(a)): worst relative stdev.
RSD_TARGET = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple[str, ...]
    num_batches: int
    #: 0 = ``OnlineQueryEngine``; N > 0 = ``ShardedQueryEngine`` with N shards.
    shards: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "flat_spja",
            ("Q1", "Q3", "Q5", "Q6", "Q7", "C3", "C5", "C11", "C12"),
            num_batches=20,
        ),
        Workload(
            "nested_nd",
            ("Q11", "Q17", "Q18", "Q20", "Q22", "C1", "C2", "C4",
             "C6", "C7", "C8", "C9", "C10"),
            num_batches=20,
        ),
        Workload(
            "small_batch",
            ("Q6", "Q17", "Q20", "C6", "C9"),
            num_batches=100,
        ),
        Workload(
            "sharded2",
            ("Q1", "Q3", "Q18", "C2", "C3", "C5", "C9", "C11", "C12"),
            num_batches=20,
            shards=2,
        ),
    )
}
