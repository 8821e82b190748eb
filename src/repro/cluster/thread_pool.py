"""`ThreadWorkerPool` — K per-thread engines over one in-process index.

The blocked column kernels spend their time inside scipy's sparse
matmul and BLAS — C code that releases the GIL — so a pool of
*threads* over per-thread engines sharing **one** in-process index
parallelises query columns with no transport at all: a "shard" call
runs directly on the router's dispatch thread and returns the
engine's own arrays.

Each worker owns a :class:`~repro.obs.MetricsRegistry`, so the
``repro_shard_dispatch_seconds`` vs ``repro_worker_compute_seconds``
split and :meth:`ShardRouter.collect_worker_metrics
<repro.cluster.ShardRouter.collect_worker_metrics>` report per-worker
series.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any

import numpy as np

__all__ = [
    "ClusterError",
    "ThreadWorkerPool",
    "run_tasks",
]


class ClusterError(RuntimeError):
    """A cluster-level operation failed (prepare, dispatch, ...).

    >>> from repro.cluster import ClusterError
    >>> raise ClusterError("router not started")
    Traceback (most recent call last):
        ...
    repro.cluster.thread_pool.ClusterError: router not started
    """


def run_tasks(engine, tasks) -> tuple[list, int]:
    """Run selection *tasks* against *engine*, returning compact results.

    Each task collapses to either ``("top_k", nodes, scores)`` — the
    ranked node ids and their scores, selected with the *exact*
    parent algorithm (:meth:`~repro.engine.results.Ranking.from_scores`,
    so tie-breaks match bit for bit) — or ``("score", value)`` for a
    node-pair probe.  Labels are not attached: the broker holds the
    same graph and re-attaches them at render time.

    A task that fails on its own terms (e.g. a negative ``k``) yields
    ``("error", repr(exc))`` in its slot instead of poisoning the
    whole shard — mirroring the parent render loop, where one bad
    request never fails its batch.

    Duplicate queries across tasks share one column computation.
    Returns ``(results, distinct_columns)``.

    >>> from repro.engine import SimilarityConfig, SimilarityEngine
    >>> from repro.graph import figure1_citation_graph
    >>> engine = SimilarityEngine(
    ...     figure1_citation_graph(), SimilarityConfig(measure="gSR*"))
    >>> results, ncols = run_tasks(engine, [
    ...     {"op": "top_k", "query": 0, "k": 2},
    ...     {"op": "score", "query": 0, "u": 1},
    ... ])
    >>> ncols, results[0][0], results[1][0]
    (1, 'top_k', 'score')
    >>> expected = engine.top_k(0, k=2)
    >>> list(results[0][1]) == expected.nodes
    True
    """

    from repro.engine.results import Ranking

    distinct = list(dict.fromkeys(int(t["query"]) for t in tasks))
    columns = engine.columns(distinct)
    results: list = []
    for task in tasks:
        try:
            column = np.asarray(columns[int(task["query"])])
            if task["op"] == "score":
                results.append(
                    ("score", float(column[int(task["u"])]))
                )
                continue
            ranking = Ranking.from_scores(
                column,
                query=int(task["query"]),
                k=int(task["k"]),
                include_query=bool(task.get("include_query", False)),
            )
            nodes = np.fromiter(
                (e.node for e in ranking),
                dtype=np.int64,
                count=len(ranking),
            )
            scores = np.fromiter(
                (e.score for e in ranking),
                dtype=np.float64,
                count=len(ranking),
            )
            results.append(("top_k", nodes, scores))
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            results.append(("error", repr(exc)))
    return results, len(distinct)


class _ThreadWorker:
    """One worker: a bundle of per-generation engines."""

    __slots__ = (
        "index", "engines", "registry", "m_shards", "m_columns",
        "m_compute", "shards_served", "columns_served",
        "tasks_served", "lock",
    )

    def __init__(self, index: int) -> None:
        from repro.obs import MetricsRegistry

        self.index = index
        self.engines: dict[int, Any] = {}
        self.shards_served = 0
        self.columns_served = 0
        self.tasks_served = 0
        self.lock = threading.Lock()
        self.registry = MetricsRegistry()
        self.m_shards = self.registry.counter(
            "repro_worker_shards_total",
            "Column shards this worker served.",
        )
        self.m_columns = self.registry.counter(
            "repro_worker_columns_served_total",
            "Query columns this worker computed for shards.",
        )
        self.m_compute = self.registry.histogram(
            "repro_worker_compute_seconds",
            "Worker-side blocked column-walk time per shard.",
        )
        self.registry.counter_fn(
            "repro_worker_tasks_total",
            "Selection tasks (top-k / score) this worker ran.",
            lambda: self.tasks_served,
        )
        self.registry.gauge_fn(
            "repro_worker_generations",
            "Engine generations this worker currently holds.",
            lambda: len(self.engines),
        )


class ThreadWorkerPool:
    """K thread-local engines over one shared in-process index.

    The worker pool behind :class:`~repro.cluster.ShardRouter`
    (``workers=K`` on :class:`~repro.serve.ServingService`).
    ``prepare`` exports the snapshot engine's index once and has every
    worker adopt it — the artifact arrays are shared, only the
    per-engine memo state is private — so a generation swap is O(1)
    per worker and a shard dispatch is a plain method call on the
    router's shard thread.

    Construction is inert:

    >>> from repro.cluster import ThreadWorkerPool
    >>> pool = ThreadWorkerPool(workers=4)
    >>> pool.size, pool.started
    (4, False)
    """

    def __init__(self, *, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.size = int(workers)
        self._workers: list[_ThreadWorker] = []
        # the generations every worker holds an engine for
        self._generations: set[int] = set()
        self._lock = threading.Lock()
        self.current_seq = -1
        self.started = False
        self.releases = 0

    # ------------------------------------------------------------------
    # lifecycle + generations
    # ------------------------------------------------------------------
    def start(self, snapshot) -> None:
        """Create the workers, primed with ``snapshot`` as gen 0."""
        if self.started:
            raise ClusterError("pool already started")
        self._workers = [_ThreadWorker(i) for i in range(self.size)]
        self.started = True
        self.prepare(snapshot)
        self.commit(snapshot.seq)

    def stop(self) -> None:
        """Drop every engine (idempotent)."""
        if not self.started:
            return
        self.started = False
        for worker in self._workers:
            worker.engines.clear()
        with self._lock:
            self._generations.clear()
        self.current_seq = -1

    @staticmethod
    def _adopt(source: tuple):
        """One worker's engine over an exported index (shared arrays)."""
        from repro.engine.engine import SimilarityEngine

        index, graph, config = source
        return SimilarityEngine.from_index(index, graph, config)

    def prepare(self, snapshot) -> None:
        """Phase one: every worker adopts ``snapshot``'s index.

        The export is computed once; each worker's
        ``SimilarityEngine.from_index`` adoption shares the artifact
        arrays (transition CSR, factors, walk segments) and keeps only
        the column memo private. All engines are built before any is
        registered, so a failed adoption leaves no trace of the
        generation.
        """
        if not self.started:
            return
        source = (
            snapshot.engine.export_index(),
            snapshot.graph,
            snapshot.engine.config,
        )
        engines = [self._adopt(source) for _ in self._workers]
        with self._lock:
            self._generations.add(snapshot.seq)
        for worker, engine in zip(self._workers, engines):
            worker.engines[snapshot.seq] = engine

    def commit(self, seq: int) -> None:
        """Phase two: mark ``seq`` current (pure bookkeeping)."""
        if self.started:
            self.current_seq = max(self.current_seq, seq)

    def release(self, seq: int) -> None:
        """Drop generation ``seq`` everywhere (synchronous, cheap)."""
        with self._lock:
            dropped = seq in self._generations
            self._generations.discard(seq)
        for worker in self._workers:
            worker.engines.pop(seq, None)
        if dropped:
            self.releases += 1

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    @staticmethod
    def _engine(worker: _ThreadWorker, seq: int):
        engine = worker.engines.get(seq)
        if engine is None:
            # the router pins every generation it dispatches against,
            # so a missing one is a bug, not a fault to recover from
            raise ClusterError(
                f"worker {worker.index} holds no generation {seq} "
                f"(live: {sorted(worker.engines)})"
            )
        return engine

    def shard(self, worker_index: int, seq: int, ids: list[int]) -> dict:
        """One column shard, computed in place on the calling thread."""
        worker = self._workers[worker_index]
        engine = self._engine(worker, seq)
        t0 = perf_counter()
        columns = engine.columns(ids)
        compute_s = perf_counter() - t0
        payload = {
            int(q): np.asarray(col) for q, col in columns.items()
        }
        self._account(worker, compute_s, len(ids), 0)
        return payload

    def shard_tasks(
        self, worker_index: int, seq: int, tasks: list[dict]
    ) -> list:
        """Selection tasks (see :func:`run_tasks`) on one worker."""
        worker = self._workers[worker_index]
        engine = self._engine(worker, seq)
        t0 = perf_counter()
        results, ncols = run_tasks(engine, tasks)
        compute_s = perf_counter() - t0
        self._account(worker, compute_s, ncols, len(tasks))
        return results

    @staticmethod
    def _account(worker, compute_s, ncols, ntasks) -> None:
        with worker.lock:
            worker.shards_served += 1
            worker.columns_served += ncols
            worker.tasks_served += ntasks
            worker.m_shards.inc()
            worker.m_columns.inc(ncols)
            worker.m_compute.observe(compute_s)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def worker_status(self, *, strip_metrics: bool = True) -> list[dict]:
        """Per-worker counters and live generations."""
        out = []
        for worker in self._workers:
            entry = {
                "index": worker.index,
                "alive": self.started,
                "shards_served": worker.shards_served,
                "current_seq": self.current_seq,
                "generations": sorted(worker.engines),
                "columns_served": worker.columns_served,
                "tasks_served": worker.tasks_served,
            }
            if not strip_metrics:
                entry["metrics"] = worker.registry.snapshot()
            out.append(entry)
        return out

    def describe(self) -> dict:
        """JSON-ready pool state."""
        with self._lock:
            generations = sorted(self._generations)
        return {
            "workers": self.size,
            "started": self.started,
            "current_seq": self.current_seq,
            "generations": generations,
            "releases": self.releases,
        }

    def __repr__(self) -> str:
        return (
            f"ThreadWorkerPool(workers={self.size}, "
            f"started={self.started}, "
            f"current_seq={self.current_seq})"
        )
