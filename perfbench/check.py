"""Answer checking: recompute a seeded sample of served answers.

Runs after timing ends, in the client process, with
:class:`repro.engine.SimilarityEngine` on the same seeded graph and
configuration the server was given. Exact answers must match
bit-for-bit: the same ids, the same scores and the same tie order.
Approx answers are scored by precision@k against exact columns.

On a workload with writes the mutation log is replayed: a read that
overlapped a ``/mutate`` may match the graph state before or after it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from perfbench.workload import K


@dataclass
class Verdict:
    checked: int = 0  # reads recomputed against the reference
    wrong: list = field(default_factory=list)  # (op index, reason)
    precision_hits: int = 0
    precision_total: int = 0

    @property
    def precision(self) -> float:
        if not self.precision_total:
            return float("nan")
        return self.precision_hits / self.precision_total


def parse_answer(result) -> tuple[list | None, str]:
    """``([(node, score), ...], "")`` or ``(None, reason)`` for a read."""
    try:
        document = json.loads(result.payload)
        pairs = [(int(e["node"]), float(e["score"]))
                 for e in document["results"]]
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unparseable answer: {exc!r}"
    if document.get("query") != result.op.query:
        return None, f"answer is for query {document.get('query')!r}"
    nodes = [node for node, _ in pairs]
    scores = [score for _, score in pairs]
    if len(pairs) > K or len(set(nodes)) != len(nodes):
        return None, "wrong length or repeated node"
    if result.op.query in nodes:
        return None, "query ranked against itself"
    if not all(math.isfinite(s) for s in scores) or any(
            a < b for a, b in zip(scores, scores[1:])):
        return None, "scores not finite and non-increasing"
    return pairs, ""


def graph_versions(base_graph, mutations: list) -> list:
    """Graph states after 0, 1, ... applied (2xx) mutations, in order."""
    graphs = [base_graph]
    for result in mutations:
        if result.ok:
            graphs.append(graphs[-1].copy_with_edits(
                added=[tuple(e) for e in result.op.add],
                removed=[tuple(e) for e in result.op.remove]))
    return graphs


def version_bracket(read, mutations: list) -> tuple[int, int]:
    """Range of applied-mutation counts the read may have seen.

    ``lo`` counts mutations answered before the read was sent (their
    swap had committed); ``hi`` counts those sent before the read was
    answered (their swap may have committed in time).
    """
    applied = [m for m in mutations if m.ok]
    lo = sum(1 for m in applied if m.done <= read.sent)
    hi = sum(1 for m in applied if m.sent <= read.done)
    return lo, hi


class Reference:
    """Lazily built reference engines, one per graph state."""

    def __init__(self, graphs: list, config) -> None:
        from repro.engine import SimilarityEngine

        self._graphs = graphs
        self._config = config
        self._engine_type = SimilarityEngine
        self._engines: dict = {}

    def engine(self, version: int):
        if version not in self._engines:
            self._engines[version] = self._engine_type(
                self._graphs[version], self._config)
        return self._engines[version]

    def prefetch(self, version: int, queries) -> None:
        """Compute many columns in one blocked call (fills the memo)."""
        self.engine(version).columns(sorted(set(queries)))

    def top_k(self, version: int, query: int) -> list:
        ranking = self.engine(version).top_k(query, k=K)
        return [(int(entry.node), float(entry.score)) for entry in ranking]


def check(reads: list, sample: list, mutations: list, reference,
          exact: bool) -> Verdict:
    """Check every read's shape and ``sample``'s content.

    ``reads`` are the timed reads that answered 2xx; ``sample`` is the
    seeded subset recomputed in full. Exact answers must equal the
    reference at some graph state in their bracket; approx answers
    only feed precision@k at the base state (approx runs no writes).
    """
    verdict = Verdict()
    answers = {}
    for index, result in enumerate(reads):
        pairs, reason = parse_answer(result)
        if pairs is None:
            verdict.wrong.append((index, reason))
        answers[id(result)] = pairs
    by_version: dict = {}
    for result in sample:
        if answers[id(result)] is None:
            continue
        lo, hi = version_bracket(result, mutations)
        by_version.setdefault(lo, []).append((result, lo, hi))
    for version in sorted(by_version):
        reference.prefetch(version, (r.op.query for r, _, _ in
                                     by_version[version]))
        for result, lo, hi in by_version[version]:
            pairs = answers[id(result)]
            verdict.checked += 1
            expected = reference.top_k(lo, result.op.query)
            candidate = lo
            while exact and pairs != expected and candidate < hi:
                candidate += 1
                expected = reference.top_k(candidate, result.op.query)
            want = {node for node, _ in expected}
            verdict.precision_hits += len(want & {n for n, _ in pairs})
            verdict.precision_total += len(want)
            if exact and pairs != expected:
                verdict.wrong.append(
                    (reads.index(result),
                     f"query {result.op.query}: {pairs[:3]}... != "
                     f"reference {expected[:3]}... (states {lo}..{hi})"))
    return verdict
