"""Tests for the shard plane of :mod:`repro.cluster`.

Covers worker-side top-k (:func:`~repro.cluster.run_tasks`) and its
tie-break parity with the broker's own selection, the
:class:`~repro.cluster.ThreadWorkerPool` behind a router and a
service, and the rebalanced
:meth:`~repro.cluster.ShardRouter._split`.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster import (
    ShardRouter,
    ThreadWorkerPool,
    run_tasks,
)
from repro.engine import SimilarityConfig, SimilarityEngine
from repro.graph import DiGraph
from repro.graph.generators import random_digraph
from repro.serve import ServingService, SnapshotManager

CONFIG = SimilarityConfig(measure="gSR*", c=0.6, num_iterations=8)


def tie_heavy_graph() -> DiGraph:
    """A complete bipartite digraph: every left node is structurally
    identical, so top-k rankings are wall-to-wall score ties — the
    regime where worker-side selection must reproduce the parent's
    tie-break exactly."""
    left, right = 6, 5
    edges = [(u, left + v) for u in range(left) for v in range(right)]
    return DiGraph(left + right, edges=edges)


# ---------------------------------------------------------------------------
# worker-side top-k
# ---------------------------------------------------------------------------
def test_run_tasks_matches_engine_and_isolates_bad_tasks():
    engine = SimilarityEngine(tie_heavy_graph(), CONFIG)
    results, ncols = run_tasks(engine, [
        {"op": "top_k", "query": 0, "k": 4},
        {"op": "score", "query": 0, "u": 1},
        {"op": "top_k", "query": 0, "k": -2},   # bad on its own terms
        {"op": "top_k", "query": 2, "k": 3, "include_query": True},
    ])
    assert ncols == 2  # queries 0 and 2, deduplicated
    expected = engine.top_k(0, k=4)
    assert results[0][0] == "top_k"
    assert list(results[0][1]) == expected.nodes
    assert list(results[0][2]) == pytest.approx(expected.scores)
    assert results[1][0] == "score"
    assert results[2][0] == "error"
    assert results[3][0] == "top_k"


def test_shard_topk_ties_match_parent_selection():
    """compute_tasks through the workers reproduces the broker's
    exact tie-break (argpartition + lexsort) on a tie-heavy graph."""
    graph = tie_heavy_graph()
    snapshots = SnapshotManager(graph, CONFIG)
    router = ShardRouter(ThreadWorkerPool(workers=2), snapshots)
    router.start()
    try:
        snapshot = router.pin()
        try:
            tasks = [
                {"op": "top_k", "query": q, "k": 4,
                 "include_query": False}
                for q in range(6)
            ]
            results = router.compute_tasks(snapshot.seq, tasks)
        finally:
            router.unpin(snapshot.seq)
    finally:
        router.stop()
    reference = SimilarityEngine(graph, CONFIG)
    for q, item in enumerate(results):
        expected = reference.top_k(q, k=4)
        assert item[0] == "top_k"
        assert list(item[1]) == expected.nodes, f"tie-break @ {q}"
        assert list(item[2]) == pytest.approx(expected.scores)


def test_service_shard_topk_matches_inprocess():
    graph = tie_heavy_graph()

    async def run():
        async with ServingService(
            graph, CONFIG, workers=2,
            cache_entries=0, telemetry=False,
        ) as svc:
            rankings = await asyncio.gather(
                *(svc.top_k(q, k=4) for q in range(6))
            )
            score = await svc.score(0, 7)
        async with ServingService(
            graph, CONFIG, cache_entries=0, telemetry=False
        ) as ref:
            expected = await asyncio.gather(
                *(ref.top_k(q, k=4) for q in range(6))
            )
            ref_score = await ref.score(0, 7)
        return rankings, score, expected, ref_score

    rankings, score, expected, ref_score = asyncio.run(run())
    assert score == ref_score
    for got, want in zip(rankings, expected):
        assert got.to_pairs() == want.to_pairs()


def test_service_bad_k_fails_only_its_own_request():
    graph = tie_heavy_graph()

    async def run():
        async with ServingService(
            graph, CONFIG, workers=1, cache_entries=0,
            telemetry=False,
        ) as svc:
            good, bad = await asyncio.gather(
                svc.top_k(0, k=3),
                svc.top_k(1, k=-1),
                return_exceptions=True,
            )
        return good, bad

    good, bad = asyncio.run(run())
    assert not isinstance(good, Exception) and len(good) == 3
    assert isinstance(bad, Exception)


# ---------------------------------------------------------------------------
# the thread pool
# ---------------------------------------------------------------------------
class TestThreadBackend:
    def test_pool_is_inert_before_start(self):
        pool = ThreadWorkerPool(workers=3)
        assert pool.size == 3
        assert not pool.started
        assert pool.describe()["generations"] == []

    def test_router_parity_and_describe(self):
        graph = random_digraph(90, 450, seed=9)
        snapshots = SnapshotManager(graph, CONFIG)
        router = ShardRouter(ThreadWorkerPool(workers=3), snapshots)
        router.start()
        try:
            snapshot = router.pin()
            try:
                columns = router.compute(
                    snapshot.seq, list(range(12))
                )
                tasks = [
                    {"op": "top_k", "query": 0, "k": 3,
                     "include_query": False},
                    {"op": "score", "query": 1, "u": 2},
                ]
                task_results = router.compute_tasks(
                    snapshot.seq, tasks
                )
            finally:
                router.unpin(snapshot.seq)
            description = router.describe()
        finally:
            router.stop()
        reference = SimilarityEngine(graph, CONFIG)
        expected = reference.columns(list(range(12)))
        for q, col in expected.items():
            assert np.allclose(np.asarray(columns[q]), col)
        ranked = reference.top_k(0, k=3)
        assert list(task_results[0][1]) == ranked.nodes
        assert task_results[1][0] == "score"
        pool_doc = description["pool"]
        assert pool_doc["workers"] == 3
        assert pool_doc["generations"] == [0]
        assert len(description["worker_status"]) == 3

    def test_service_mutation_swaps_through_thread_pool(self):
        graph = random_digraph(60, 240, seed=13)

        async def run():
            async with ServingService(
                graph, CONFIG, workers=2,
                cache_entries=0, telemetry=False,
            ) as svc:
                before = await svc.top_k(0, k=3)
                await asyncio.get_running_loop().run_in_executor(
                    None, svc.mutate, [(0, 0)]
                )
                after = await svc.top_k(0, k=3)
                status = svc.status()
            return before, after, status

        before, after, status = asyncio.run(run())
        assert len(before) == 3 and len(after) == 3
        assert status["snapshots"]["swaps"] >= 1
        assert status["cluster"]["pool"]["current_seq"] >= 1

    def test_service_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            ServingService(
                random_digraph(20, 60, seed=1), CONFIG, workers=-1
            )


# ---------------------------------------------------------------------------
# shard splitting
# ---------------------------------------------------------------------------
class TestSplitBalance:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize(
        "batch", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64]
    )
    def test_split_never_empty_never_lopsided(self, workers, batch):
        router = ShardRouter(
            ThreadWorkerPool(workers=workers),
            SnapshotManager(
                random_digraph(10, 30, seed=1), CONFIG
            ),
        )
        ids = list(range(batch))
        shards = router._split(ids)
        # order-preserving cover, no shard empty, at most one/worker
        assert [q for shard in shards for q in shard] == ids
        assert all(shards)
        assert len(shards) <= workers
        widths = [len(s) for s in shards]
        assert max(widths) < 2 * min(widths)
        assert max(widths) - min(widths) <= 1
