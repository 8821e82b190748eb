"""`ShardRouter` — split micro-batches into per-worker column shards.

The router is the query plane of :mod:`repro.cluster`: the broker
hands it one coalesced micro-batch of resolved query ids (or top-k /
score selection tasks), it splits them into up to K contiguous
shards, runs each shard on its worker's engine concurrently (one
dispatch thread per shard; the kernels release the GIL), and merges
the per-shard results in shard order. This is exactly the shape
single-source SimRank-family evaluation shards into: every query
column is an independent solve, so the split needs no coordination
beyond the merge.

The router also owns the *pinning* discipline that makes hot-swaps
safe under concurrency: :meth:`pin` atomically reads the current
snapshot and counts the batch in-flight against its generation, and
:meth:`post_swap` retires old generations, releasing each one to the
workers only once its in-flight count drains to zero. A batch
therefore always computes against the exact generation it pinned —
never a mix, never a dropped request.

Each shard is dispatched once. Workers are threads in this process
running a deterministic kernel, so there is no in-process retry: an
exception in a shard fails its batch, and the broker answers every
request of that batch with the error.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.thread_pool import ClusterError, ThreadWorkerPool

__all__ = ["ShardRouter"]


class ShardRouter:
    """Route coalesced batches across a :class:`ThreadWorkerPool`.

    Parameters
    ----------
    pool:
        The worker pool that owns the engines and generations.
    snapshots:
        The parent :class:`~repro.serve.SnapshotManager`; its
        ``current`` snapshot is what :meth:`pin` pins, and its
        hot-swap hooks should point at :meth:`pre_swap` /
        :meth:`post_swap`.
    obs:
        Optional :class:`~repro.obs.Observability`; when set, each
        shard's round-trip is observed into the
        ``repro_shard_dispatch_seconds{worker=...}`` histogram and
        :meth:`collect_worker_metrics` merges worker-side metric
        snapshots into its registry.

    Construction is inert:

    >>> from repro.cluster import ShardRouter, ThreadWorkerPool
    >>> from repro.graph import figure1_citation_graph
    >>> from repro.serve import SnapshotManager
    >>> router = ShardRouter(
    ...     ThreadWorkerPool(workers=2),
    ...     SnapshotManager(figure1_citation_graph(), measure="gSR*"),
    ... )
    >>> router.started
    False
    """

    def __init__(
        self,
        pool: ThreadWorkerPool,
        snapshots,
        *,
        obs=None,
    ) -> None:
        self.pool = pool
        self.snapshots = snapshots
        self.obs = obs
        self._lock = threading.Lock()   # pins + retirement
        self._inflight: dict[int, int] = {}
        self._retired: set[int] = set()
        self._executor: ThreadPoolExecutor | None = None
        self.batches_routed = 0
        self.shards_dispatched = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self.pool.started

    def start(self) -> None:
        """Start the pool on the manager's current snapshot."""
        if self.started:
            return
        self.pool.start(self.snapshots.current)
        self._executor = ThreadPoolExecutor(
            max_workers=self.pool.size,
            thread_name_prefix="repro-cluster-shard",
        )

    def stop(self) -> None:
        """Stop the pool and the shard-dispatch threads (idempotent)."""
        self.pool.stop()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        with self._lock:
            self._inflight.clear()
            self._retired.clear()

    # ------------------------------------------------------------------
    # snapshot pinning (the hot-swap safety contract)
    # ------------------------------------------------------------------
    def pin(self):
        """Atomically grab the current snapshot and count it in-flight.

        The read of ``snapshots.current`` and the in-flight increment
        happen under one lock — the same lock :meth:`post_swap`
        retires generations under — so a generation can never be
        released between a batch pinning it and registering itself.
        """
        with self._lock:
            snapshot = self.snapshots.current
            self._inflight[snapshot.seq] = (
                self._inflight.get(snapshot.seq, 0) + 1
            )
            return snapshot

    def unpin(self, seq: int) -> None:
        """Drop one in-flight count; release the gen if fully drained."""
        with self._lock:
            remaining = self._inflight.get(seq, 0) - 1
            if remaining > 0:
                self._inflight[seq] = remaining
                return
            self._inflight.pop(seq, None)
            release = seq in self._retired
            if release:
                self._retired.discard(seq)
        if release:
            self.pool.release(seq)

    def pre_swap(self, snapshot) -> None:
        """Hot-swap phase one: all workers prepare ``snapshot``.

        Raising here aborts the swap in
        :meth:`~repro.serve.SnapshotManager.mutate` — the old
        generation keeps serving, untouched.
        """
        if self.started:
            self.pool.prepare(snapshot)

    def post_swap(self, old, new) -> None:
        """Hot-swap phase two: commit ``new``, retire older gens."""
        if not self.started:
            return
        self.pool.commit(new.seq)
        to_release = []
        with self._lock:
            known = set(self._inflight) | set(self._retired)
            known.add(old.seq)
            for seq in known:
                if seq >= new.seq:
                    continue
                if self._inflight.get(seq, 0) > 0:
                    self._retired.add(seq)  # released on last unpin
                else:
                    self._retired.discard(seq)
                    to_release.append(seq)
        for seq in to_release:
            self.pool.release(seq)

    # ------------------------------------------------------------------
    # the query plane
    # ------------------------------------------------------------------
    def compute(
        self, seq: int, ids: list[int], meta: dict | None = None
    ) -> dict:
        """Columns for ``ids`` from generation ``seq``, shard-parallel.

        Splits the (already resolved) ids, deduplicated, into
        contiguous shards over the pool's workers, dispatches them
        concurrently, and merges the results. Blocking — the broker
        calls it through an executor thread.

        ``meta`` is an optional telemetry dict: on return its
        ``shards`` entry holds one timing dict per dispatched shard
        (worker index, id count, start, seconds) — what the broker
        turns into per-shard trace spans.
        """
        distinct = list(dict.fromkeys(int(q) for q in ids))
        merged: dict[int, object] = {}
        for part in self._fan_out(seq, distinct, meta, op="columns"):
            merged.update(part)
        return merged

    def compute_tasks(
        self, seq: int, tasks: list[dict], meta: dict | None = None
    ) -> list:
        """Run selection ``tasks`` shard-parallel.

        The selection twin of :meth:`compute`: each task (see
        :func:`~repro.cluster.run_tasks`) is answered with a compact
        ``("top_k", nodes, scores)`` / ``("score", value)`` tuple, one
        per task, in task order. Sharding, the round-robin offset
        and ``meta`` telemetry all match :meth:`compute`.
        """
        parts = self._fan_out(seq, list(tasks), meta, op="tasks")
        return [result for part in parts for result in part]

    def _fan_out(
        self, seq: int, items: list, meta: dict | None, *, op: str
    ) -> list:
        """Split ``items``, run the shards, return results in shard order.

        The starting worker rotates per batch: without the offset,
        every batch smaller than the pool (the common case under
        steady non-bursty traffic) would land on worker 0 alone.
        """
        if not self.started:
            raise ClusterError("router not started")
        if not items:
            return []
        shards = self._split(items)
        offset = self.batches_routed % self.pool.size
        self.batches_routed += 1
        if meta is not None:
            meta.setdefault("shards", [])
        if len(shards) == 1:
            return [self._run_shard(offset, seq, shards[0], meta, op=op)]
        futures = [
            self._executor.submit(
                self._run_shard,
                (offset + i) % self.pool.size,
                seq,
                shard,
                meta,
                op=op,
            )
            for i, shard in enumerate(shards)
        ]
        parts, errors = [], []
        for future in futures:
            try:
                parts.append(future.result())
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            raise ClusterError(
                f"{len(errors)} of {len(shards)} shards failed: "
                f"{errors[0]}"
            ) from errors[0]
        return parts

    def _split(self, ids: list[int]) -> list[list[int]]:
        """Contiguous, balanced shards — at most one per worker.

        Never yields an empty shard, and never a shard twice another's
        width: when ``len(ids) % k`` would leave some workers with
        ``base + 1`` ids against a ``base`` of 1 (e.g. 5 ids over 4
        workers splitting 2/1/1/1), the shard count drops until widths
        are either equal or within a ``(base + 1) / base <= 1.5``
        ratio — a 3/2 split on two workers beats four workers where
        one does double duty and the batch waits on it.
        """
        k = min(self.pool.size, len(ids))
        while k > 1 and len(ids) % k and len(ids) // k < 2:
            k -= 1
        base, extra = divmod(len(ids), k)
        shards, cursor = [], 0
        for i in range(k):
            width = base + (1 if i < extra else 0)
            shards.append(ids[cursor:cursor + width])
            cursor += width
        return shards

    def _run_shard(
        self,
        worker_index: int,
        seq: int,
        shard: list,
        meta: dict | None = None,
        *,
        op: str = "columns",
    ):
        """One shard on one worker's engine, timed."""
        with self._lock:  # shard threads run concurrently
            self.shards_dispatched += 1
        dispatch = (
            self.pool.shard_tasks if op == "tasks" else self.pool.shard
        )
        t0 = time.perf_counter()
        result = dispatch(worker_index, seq, shard)
        elapsed = time.perf_counter() - t0
        if self.obs is not None and self.obs.enabled:
            self.obs.shard_dispatch.labels(
                worker=str(worker_index)
            ).observe(elapsed)
        if meta is not None:
            row = {
                "worker": worker_index,
                "ids": len(shard),
                "seconds": elapsed,
                "start_s": t0,
            }
            with self._lock:
                meta["shards"].append(row)
        return result

    def collect_worker_metrics(self, registry) -> int:
        """Merge every worker's metric snapshot into ``registry``.

        Each worker's cumulative
        :class:`~repro.obs.MetricsRegistry` snapshot is merged with
        replacement semantics (:meth:`~repro.obs.MetricsRegistry.ingest`)
        under the source id ``worker-<index>`` — re-ingesting never
        double-counts. Returns how many workers were merged.
        """
        if not self.started:
            return 0
        merged = 0
        for entry in self.pool.worker_status(strip_metrics=False):
            snapshot = entry.get("metrics")
            if not snapshot:
                continue
            registry.ingest(f"worker-{entry['index']}", snapshot)
            merged += 1
        return merged

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-ready router + pool state (the ``/status`` shape)."""
        with self._lock:
            inflight = dict(self._inflight)
        out = {
            "pool": self.pool.describe(),
            "batches_routed": self.batches_routed,
            "shards_dispatched": self.shards_dispatched,
            "inflight": inflight,
        }
        if self.started:
            out["worker_status"] = self.pool.worker_status()
        return out

    def __repr__(self) -> str:
        return (
            f"ShardRouter(pool={self.pool!r}, "
            f"batches_routed={self.batches_routed})"
        )
