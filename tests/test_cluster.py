"""Tests for :mod:`repro.cluster` — sharded serving, failure paths.

The happy-path and shard-failure tests share one module-scoped
router; the hot-swap tests build their own, on deliberately small
graphs.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.cluster import ClusterError, ShardRouter, ThreadWorkerPool
from repro.engine import SimilarityConfig, SimilarityEngine
from repro.graph.generators import random_digraph
from repro.serve import ServingService, SnapshotManager

CONFIG = SimilarityConfig(measure="gSR*", c=0.6, num_iterations=8)


@pytest.fixture(scope="module")
def cluster_env():
    """A started 2-worker router over a 300-node graph."""
    graph = random_digraph(300, 1800, seed=7)
    snapshots = SnapshotManager(graph, CONFIG)
    router = ShardRouter(ThreadWorkerPool(workers=2), snapshots)
    router.start()
    yield graph, snapshots, router
    router.stop()


@pytest.fixture(scope="module")
def reference_engine(cluster_env):
    graph, _, _ = cluster_env
    return SimilarityEngine(graph, CONFIG)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------
def test_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="workers"):
        ThreadWorkerPool(workers=0)


def test_router_compute_requires_start():
    snapshots = SnapshotManager(random_digraph(20, 60, seed=1), CONFIG)
    router = ShardRouter(ThreadWorkerPool(workers=1), snapshots)
    with pytest.raises(ClusterError, match="not started"):
        router.compute(0, [0, 1])


# ---------------------------------------------------------------------------
# sharded serving: parity + distribution
# ---------------------------------------------------------------------------
def test_sharded_columns_match_in_process_engine(
    cluster_env, reference_engine
):
    _, _, router = cluster_env
    snapshot = router.pin()
    try:
        ids = list(range(0, 40))
        columns = router.compute(snapshot.seq, ids)
    finally:
        router.unpin(snapshot.seq)
    assert sorted(columns) == ids
    for q in ids:
        np.testing.assert_array_equal(
            columns[q], reference_engine.single_source(q)
        )


def test_batch_is_sharded_across_every_worker(cluster_env):
    _, _, router = cluster_env
    snapshot = router.pin()
    try:
        router.compute(snapshot.seq, list(range(100, 140)))
    finally:
        router.unpin(snapshot.seq)
    status = router.pool.worker_status()
    assert all(w["alive"] for w in status)
    assert all(w["shards_served"] >= 1 for w in status)
    assert router.shards_dispatched >= 2


def test_small_batches_rotate_across_workers(cluster_env):
    """Size-1 batches must not all land on worker 0 (round-robin)."""
    _, _, router = cluster_env
    before = [
        w["shards_served"] for w in router.pool.worker_status()
    ]
    snapshot = router.pin()
    try:
        for q in range(60, 60 + 2 * router.pool.size):
            router.compute(snapshot.seq, [q])
    finally:
        router.unpin(snapshot.seq)
    after = [
        w["shards_served"] for w in router.pool.worker_status()
    ]
    assert all(b > a for a, b in zip(before, after)), (
        "single-query batches were not rotated across the pool"
    )


def test_duplicate_and_empty_batches(cluster_env):
    _, _, router = cluster_env
    snapshot = router.pin()
    try:
        columns = router.compute(snapshot.seq, [5, 5, 9, 5])
        assert sorted(columns) == [5, 9]
        assert router.compute(snapshot.seq, []) == {}
    finally:
        router.unpin(snapshot.seq)


# ---------------------------------------------------------------------------
# shard failure: each shard runs once, an exception fails the batch
# ---------------------------------------------------------------------------
def test_failing_shard_fails_its_batch_without_retry(
    cluster_env, monkeypatch
):
    _, _, router = cluster_env
    calls = []

    def failing_shard(worker_index, seq, ids):
        calls.append(worker_index)
        raise RuntimeError("injected shard failure")

    monkeypatch.setattr(router.pool, "shard", failing_shard)
    snapshot = router.pin()
    try:
        with pytest.raises(ClusterError, match="2 of 2 shards failed"):
            router.compute(snapshot.seq, [0, 1, 2, 3])
    finally:
        router.unpin(snapshot.seq)
    assert sorted(calls) == [0, 1]


def test_missing_generation_is_a_cluster_error(cluster_env):
    _, _, router = cluster_env
    with pytest.raises(ClusterError, match="holds no generation 99"):
        router.pool.shard(0, 99, [0])


# ---------------------------------------------------------------------------
# hot-swap: two-phase propagation, abort-on-failure
# ---------------------------------------------------------------------------
@pytest.fixture()
def swap_env():
    graph = random_digraph(120, 600, seed=11)
    snapshots = SnapshotManager(graph, CONFIG)
    router = ShardRouter(ThreadWorkerPool(workers=2), snapshots)
    snapshots.pre_swap = router.pre_swap
    snapshots.post_swap = router.post_swap
    router.start()
    yield graph, snapshots, router
    router.stop()


def test_two_phase_swap_propagates_to_all_workers(swap_env):
    _, snapshots, router = swap_env
    base_seq = snapshots.current.seq
    snapshot = router.pin()
    old_columns = router.compute(snapshot.seq, [3])
    router.unpin(snapshot.seq)

    fresh = snapshots.mutate(add=[(0, 3), (1, 3), (2, 3)])
    assert fresh.seq == base_seq + 1
    status = router.pool.worker_status()
    assert all(w["current_seq"] == fresh.seq for w in status)

    pinned = router.pin()
    try:
        assert pinned.seq == fresh.seq
        new_columns = router.compute(pinned.seq, [3])
    finally:
        router.unpin(pinned.seq)
    # the mutation gave node 3 new in-links: its column must change
    assert not np.array_equal(new_columns[3], old_columns[3])
    expected = SimilarityEngine(
        fresh.graph, CONFIG
    ).single_source(3)
    np.testing.assert_array_equal(new_columns[3], expected)
    # the drained old generation is released from the workers
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        gens = [
            w["generations"] for w in router.pool.worker_status()
        ]
        if all(g == [fresh.seq] for g in gens):
            break
        time.sleep(0.05)
    assert all(g == [fresh.seq] for g in gens)


def test_failed_prepare_aborts_swap_and_old_snapshot_serves(
    swap_env, monkeypatch
):
    _, snapshots, router = swap_env
    base = snapshots.current

    def broken_prepare(snapshot):
        raise ClusterError("injected: workers cannot prepare")

    monkeypatch.setattr(router.pool, "prepare", broken_prepare)
    with pytest.raises(ClusterError, match="injected"):
        snapshots.mutate(add=[(0, 5)])
    # no swap happened; the old generation still answers queries
    assert snapshots.current is base
    snapshot = router.pin()
    try:
        columns = router.compute(snapshot.seq, [0, 1, 2])
    finally:
        router.unpin(snapshot.seq)
    assert sorted(columns) == [0, 1, 2]


def test_aborted_prepare_unregisters_the_failed_generation(
    swap_env, monkeypatch
):
    """A failed swap leaves no trace of the failed generation."""
    _, snapshots, router = swap_env
    pool = router.pool
    adopt = ThreadWorkerPool._adopt
    adopted = []

    def failing_second_adoption(source):
        # the first worker adopts the new generation, the second fails
        if len(adopted) == 1:
            raise ClusterError("injected: prepare_failed")
        adopted.append(source)
        return adopt(source)

    monkeypatch.setattr(
        ThreadWorkerPool, "_adopt", staticmethod(failing_second_adoption)
    )
    with pytest.raises(ClusterError, match="injected"):
        snapshots.mutate(add=[(0, 5)])
    monkeypatch.undo()
    # the failed generation is gone from the pool and from every
    # worker, including the one that adopted it
    assert pool.describe()["generations"] == [0]
    assert all(w["generations"] == [0] for w in pool.worker_status())


# ---------------------------------------------------------------------------
# the full service: concurrent traffic + mutation, zero failures
# ---------------------------------------------------------------------------
def test_service_with_workers_serves_and_swaps_mid_traffic():
    graph = random_digraph(120, 600, seed=13)
    service = ServingService(
        graph,
        CONFIG,
        workers=2,
        max_batch=16,
        max_wait_ms=1.0,
        cache_entries=0,
    )

    async def drive():
        async with service:
            loop = asyncio.get_running_loop()
            first = asyncio.gather(
                *(service.top_k(q, k=5) for q in range(40))
            )
            # hot-swap while those queries are in flight
            mutated = loop.run_in_executor(
                None, service.mutate, [(0, 9), (1, 9)]
            )
            rankings = await first
            fresh = await mutated
            after = await asyncio.gather(
                *(service.top_k(q, k=5) for q in range(40, 60))
            )
            return rankings, fresh, after, service.status()

    rankings, fresh, after, status = asyncio.run(drive())
    assert len(rankings) == 40 and len(after) == 20
    assert all(len(r) == 5 for r in rankings + after)
    assert fresh.seq == 1
    assert status["broker"]["errors"] == 0
    cluster = status["cluster"]
    assert cluster["pool"]["workers"] == 2
    assert cluster["shards_dispatched"] > 0
    assert all(
        w["current_seq"] == fresh.seq
        for w in cluster["worker_status"]
        if w["alive"]
    )
    service.close()


def test_service_background_sync_with_workers():
    graph = random_digraph(80, 400, seed=17)
    service = ServingService(
        graph, CONFIG, workers=1, cache_entries=0
    )
    service.start_background()
    try:
        ranking = service.top_k_sync(4, k=3)
        assert len(ranking) == 3
        score = service.score_sync(2, 3)
        expected = SimilarityEngine(graph, CONFIG).score(2, 3)
        assert score == pytest.approx(expected, abs=1e-12)
        assert service.status()["cluster"]["pool"]["started"]
    finally:
        service.close()
    assert not service.cluster.started
