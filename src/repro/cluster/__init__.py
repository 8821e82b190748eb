"""`repro.cluster` — sharded serving over one in-memory index.

Single-engine serving (:mod:`repro.serve`) coalesces traffic into
blocked batches, and one batch is one blocked column walk. The
similarity family served here is embarrassingly parallel across query
*columns* — each single-source evaluation is an independent sparse
matmul / BLAS solve, and that native code runs with the GIL released
— so this package spreads a batch over K threads, each holding its
own engine adopted from **one** exported
:class:`~repro.index.SimilarityIndex` (shared artifact arrays,
private column memos). Nothing is copied or serialised between them.

Two parts:

* :class:`ThreadWorkerPool` — the K per-thread engines, one per live
  snapshot *generation*; runs the two-phase hot-swap (``prepare``
  everywhere first, then ``commit``).
* :class:`ShardRouter` — splits each coalesced micro-batch into
  per-worker shards, dispatches them concurrently, merges the
  results, and owns the atomic snapshot *pinning* that lets mutations
  hot-swap mid-traffic with zero failed requests. Top-k selection
  runs inside the shard (:meth:`ShardRouter.compute_tasks` with
  :func:`run_tasks`), so only ``(k, B)`` ids and scores come back
  instead of ``(n, B)`` score blocks. Each shard runs once: an
  exception in a shard fails its batch, with no in-process retry.

Wired into the serving layer as ``ServingService(graph, workers=K)``
and ``python -m repro.serve serve --workers K``; scaling is measured
by ``python -m repro.bench --cluster`` (the ``speedup_workers_4_vs_1``
gate).

End to end, one worker, eleven nodes (the paper's Figure 1 graph):

>>> from repro.cluster import ShardRouter, ThreadWorkerPool
>>> from repro.graph import figure1_citation_graph
>>> from repro.serve import SnapshotManager
>>> snapshots = SnapshotManager(
...     figure1_citation_graph(), measure="gSR*", c=0.8,
...     num_iterations=10)
>>> router = ShardRouter(ThreadWorkerPool(workers=1), snapshots)
>>> router.start()
>>> snapshot = router.pin()
>>> columns = router.compute(snapshot.seq, [0, 1])
>>> router.unpin(snapshot.seq)
>>> sorted(columns) == [0, 1] and len(columns[0]) == 11
True
>>> float(columns[0][0]) > 0  # self-similarity is positive
True
>>> router.stop()
"""

from repro.cluster.router import ShardRouter
from repro.cluster.thread_pool import (
    ClusterError,
    ThreadWorkerPool,
    run_tasks,
)

__all__ = [
    "ClusterError",
    "ShardRouter",
    "ThreadWorkerPool",
    "run_tasks",
]
