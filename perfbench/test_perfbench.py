"""Self-tests of the benchmark harness (no server is launched).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import check as checking
from perfbench.client import Result
from perfbench.layers import PER_LAYER_UNITS, join_http
from perfbench.bench import END_TO_END_UNITS
from perfbench.workload import (
    WORKLOADS, Op, OpStream, open_loop_schedule, schedule_bytes,
    streams, tail_percentile, zipf_weights)
from repro.engine import SimilarityConfig
from repro.graph import DiGraph
from repro.graph.generators import random_digraph

ROOT = Path(__file__).resolve().parent.parent


def _schedule(name: str, seed: int, graph) -> bytes:
    workload = WORKLOADS[name]
    parts = streams(workload, seed, graph.num_nodes, graph)
    ops = open_loop_schedule(parts["open"], workload.rate, 200,
                             parts["open_times"])
    closed = [parts["closed"].next() for _ in range(100)]
    return schedule_bytes(ops) + schedule_bytes(closed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_schedule(name):
    graph = random_digraph(300, 1500, seed=3)
    first = _schedule(name, 11, graph)
    assert first == _schedule(name, 11, graph)
    assert first != _schedule(name, 12, graph)


def test_mutations_never_collide():
    graph = random_digraph(200, 1000, seed=5)
    parts = streams(WORKLOADS["read-write"], 1, graph.num_nodes, graph)
    ops = [parts["open"].next() for _ in range(400)]
    edits = [tuple(e) for op in ops if op.kind == "mutate"
             for e in op.add + op.remove]
    assert len(edits) == 4 * 20 and len(set(edits)) == len(edits)
    replayed = graph
    for op in ops:
        if op.kind == "mutate":  # raises on a duplicate or missing edge
            replayed = replayed.copy_with_edits(map(tuple, op.add),
                                                map(tuple, op.remove))
    assert replayed.num_edges == graph.num_edges


def test_zipf_puts_90_percent_in_top_1024_ranks():
    assert zipf_weights(20000)[:1024].sum() >= 0.90
    permutation = np.random.default_rng(0).permutation(20000)
    stream = OpStream(WORKLOADS["hot-zipf"], np.random.default_rng(1),
                      permutation)
    hot = set(permutation[:1024].tolist())
    draws = [stream.next().query for _ in range(5000)]
    assert sum(q in hot for q in draws) / len(draws) >= 0.90


def test_tail_rule_picks_p99_only_at_1000_samples():
    assert tail_percentile(999) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(100) == 90.0
    assert tail_percentile(19) is None


# ----------------------------------------------------------------------
# the answer checker
# ----------------------------------------------------------------------
CONFIG = SimilarityConfig(measure="gSR*", c=0.6, num_iterations=10)


def _tie_graph() -> DiGraph:
    # 1..12 share the single in-neighbour 0, so their scores tie
    return DiGraph.from_edges([(0, i) for i in range(1, 13)]
                              + [(13, 1), (12, 13)], num_nodes=14)


def _answer(graph, query: int, t0: float = 0.0) -> Result:
    ranking = checking.Reference([graph], CONFIG).top_k(0, query)
    payload = {"query": query, "results": [
        {"node": node, "label": None, "score": score}
        for node, score in ranking]}
    return Result(Op(0.0, "top_k", query=query), sent=t0, done=t0 + 1,
                  status=200, payload=json.dumps(payload).encode())


def _check(reads, graphs=None, mutations=()):
    graphs = graphs or [_tie_graph()]
    reference = checking.Reference(graphs, CONFIG)
    return checking.check(reads, reads, list(mutations), reference,
                          exact=True)


def _edit(result: Result, edit) -> Result:
    document = json.loads(result.payload)
    edit(document["results"])
    result.payload = json.dumps(document).encode()
    return result


def test_checker_accepts_the_reference_answer():
    verdict = _check([_answer(_tie_graph(), 2)])
    assert verdict.wrong == [] and verdict.checked == 1
    assert verdict.precision == 1.0


def test_checker_rejects_a_wrong_score():
    def nudge(results):
        results[3]["score"] = float(np.nextafter(results[3]["score"], 1.0))
    verdict = _check([_edit(_answer(_tie_graph(), 2), nudge)])
    assert len(verdict.wrong) == 1


def test_checker_rejects_a_tie_order_swap():
    answer = _answer(_tie_graph(), 2)
    results = json.loads(answer.payload)["results"]
    assert results[1]["score"] == results[2]["score"]  # a real tie

    def swap(results):
        results[1]["node"], results[2]["node"] = (results[2]["node"],
                                                  results[1]["node"])
    verdict = _check([_edit(answer, swap)])
    assert len(verdict.wrong) == 1 and verdict.precision == 1.0


def test_checker_replays_the_mutation_log():
    base = random_digraph(60, 300, seed=9)
    heads, tails = base.edge_arrays()
    edit = Op(0.0, "mutate", add=[], remove=[[int(heads[0]),
                                               int(tails[0])]])
    after = base.copy_with_edits(removed=[tuple(edit.remove[0])])
    query = int(tails[0])
    mutation = Result(edit, sent=10.0, done=11.0, status=200)
    graphs = checking.graph_versions(base, [mutation])
    # overlapping the swap: either state is right
    overlap = _answer(after, query, t0=10.5)
    assert _check([overlap], graphs, [mutation]).wrong == []
    # sent after the swap was acknowledged: only the new state is
    stale = _answer(base, query, t0=12.0)
    assert _answer(after, query).payload != stale.payload
    assert len(_check([stale], graphs, [mutation]).wrong) == 1


def test_join_pairs_reads_with_their_connections_thread():
    reads = []
    spans = []
    for conn, thread in ((0, 111), (1, 222)):
        for i in range(5):
            t = 10.0 * i + conn * 3.0
            reads.append(Result(Op(0, "top_k", query=i), conn=conn,
                                sent=t, done=t + 2.0, status=200))
            spans.append(("service.top_k_sync", i, thread, t + 0.5,
                          t + 1.0, None))
    assert sorted(join_http(reads, spans)) == [1.5] * 10


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert f"{WORKLOADS[entry['name']].rate:g} ops/s" in entry["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS
