"""Workload definitions and the seeded op schedules they generate.

A workload is a server configuration (graph, mode) plus a traffic
mix (query distribution, share of writes) and the fixed open-loop
rate it is driven at. Everything a run sends is drawn here from the
run's ``--seed``; the server only ever sees the generated requests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# The graph each server builds is pinned, so runs with different
# ``--seed`` values differ only in their request streams.
GRAPH_SEED = 42
K = 10
# a /mutate carries this many edge edits, half adds and half removals
EDITS_PER_MUTATION = 4
ZIPF_S = 1.3
# reads draw their keys in stratified blocks of this many
QUERY_BLOCK = 256


@dataclass(frozen=True)
class Workload:
    name: str
    graph_args: tuple[str, ...]
    mode: str  # "exact" | "approx"
    rate: float  # open-loop ops/s, identical on every commit
    queries: str  # "uniform" | "zipf"
    mutate_every: int = 0  # one op in N is a POST /mutate; 0 = none
    warm_hot: int = 0  # hottest nodes read once before timing

    @property
    def serve_args(self) -> list[str]:
        """Flags for ``python -m repro.serve serve`` (beyond --port)."""
        return [
            *self.graph_args,
            "--seed", str(GRAPH_SEED),
            "--measure", "gSR*", "-c", "0.6", "--num-iterations", "10",
            "--mode", self.mode,
        ]


_RANDOM_20K = ("--nodes", "20000", "--edges", "120000")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# The rate is about a third of the seed's closed-loop peak: at higher
# rates the keep-alive stall cascades and whole runs flip mode. There is
# no uniform-read workload on the 20k graph: read-write's misses already
# keep the kernel busy, and three workloads leave time for 30 s runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hot-zipf", _RANDOM_20K, "exact", rate=11.0,
            queries="zipf", warm_hot=256,
        ),
        Workload(
            "read-write", _RANDOM_20K, "exact", rate=11.0,
            queries="zipf", mutate_every=20, warm_hot=256,
        ),
        Workload(
            "approx-large",
            ("--scale-free", "--nodes", "100000", "--edges", "600000"),
            "approx", rate=11.0, queries="uniform",
        ),
    )
}


@dataclass
class Op:
    """One request of a schedule; ``at`` is its offset in seconds."""

    at: float
    kind: str  # "top_k" | "mutate"
    query: int = -1
    add: list = field(default_factory=list)
    remove: list = field(default_factory=list)

    def body(self) -> bytes:
        if self.kind == "top_k":
            return b'{"query": %d, "k": %d}' % (self.query, K)
        return json.dumps({"add": self.add, "remove": self.remove}).encode()

    def to_json(self) -> dict:
        return {"at": self.at, "kind": self.kind, "query": self.query,
                "add": self.add, "remove": self.remove}


def stratified(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniforms on [0, 1), one per equal-width stratum, shuffled.

    Every run then draws the same spread of values (as many short
    gaps, as many hot-key reads) and the seed decides only which op
    gets which; runs differ in order, not in luck, which is most of
    their spread.
    """
    return (rng.permutation(size) + rng.random(size)) / size


def zipf_weights(n: int, s: float = ZIPF_S) -> np.ndarray:
    """Normalised Zipf(s) probabilities of ranks 1..n."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return weights / weights.sum()


class EditPool:
    """Hands out edge edits that never collide with one another.

    Removals are distinct edges of the base graph and additions are
    distinct non-edges, each used at most once across a run, so every
    mutation is valid whatever order the others were applied in.
    """

    def __init__(self, graph, rng: np.random.Generator) -> None:
        heads, tails = graph.edge_arrays()
        order = rng.permutation(heads.size)
        self._removals = iter(
            zip(heads[order].tolist(), tails[order].tolist())
        )
        self._graph = graph
        self._rng = rng
        self._added: set = set()

    def take(self, count: int) -> tuple[list, list]:
        n = self._graph.num_nodes
        add: list = []
        while len(add) < count // 2:
            u, v = (int(x) for x in self._rng.integers(0, n, size=2))
            if u == v or (u, v) in self._added or self._graph.has_edge(u, v):
                continue
            self._added.add((u, v))
            add.append([u, v])
        remove = [list(next(self._removals)) for _ in range(count - len(add))]
        return add, remove


class OpStream:
    """The seeded, endless op mix of one workload (times not set)."""

    def __init__(self, workload: Workload, rng: np.random.Generator,
                 permutation: np.ndarray, edits: EditPool | None = None
                 ) -> None:
        self.workload = workload
        self._rng = rng
        # rank r -> node permutation[r] (uniform reads ignore the order)
        self._permutation = permutation
        self._edits = edits
        self._count = 0
        self._uniforms: list = []
        if workload.queries == "zipf":
            self._cdf = np.cumsum(zipf_weights(permutation.size))
            self._cdf[-1] = 1.0

    def _query(self) -> int:
        if not self._uniforms:
            self._uniforms = stratified(self._rng, QUERY_BLOCK).tolist()
        u = self._uniforms.pop()
        if self.workload.queries == "zipf":
            rank = int(np.searchsorted(self._cdf, u, side="right"))
        else:
            rank = int(u * self._permutation.size)
        return int(self._permutation[rank])

    def next(self, at: float = 0.0) -> Op:
        self._count += 1
        every = self.workload.mutate_every
        if every and self._edits is not None and self._count % every == 0:
            add, remove = self._edits.take(EDITS_PER_MUTATION)
            return Op(at, "mutate", add=add, remove=remove)
        return Op(at, "top_k", query=self._query())


def open_loop_schedule(stream: OpStream, rate: float, count: int,
                       rng: np.random.Generator) -> list[Op]:
    """``count`` ops at Poisson arrival times of mean rate ``rate``.

    The exponential gaps come from stratified uniforms (see
    :func:`stratified`).
    """
    gaps = -np.log1p(-stratified(rng, count)) / rate
    times = np.cumsum(gaps) - gaps[0]
    return [stream.next(float(at)) for at in times]


def schedule_bytes(ops: list[Op]) -> bytes:
    """A canonical byte encoding of a schedule (for identity checks)."""
    return json.dumps([op.to_json() for op in ops]).encode()


def streams(workload: Workload, seed: int, num_nodes: int,
            graph=None) -> dict:
    """Independent seeded generators for each part of one run.

    Each part gets its own ``SeedSequence`` child, so e.g. making the
    closed loop longer never shifts the open-loop schedule. Reads of
    every phase share one node popularity order.
    """
    children = np.random.SeedSequence([seed, 0x5EED]).spawn(7)
    rngs = [np.random.default_rng(child) for child in children]
    permutation = rngs[0].permutation(num_nodes)
    edits = (
        EditPool(graph, rngs[1])
        if workload.mutate_every and graph is not None else None
    )
    return {
        "permutation": permutation,
        "warmup": OpStream(workload, rngs[2], permutation),
        "open": OpStream(workload, rngs[3], permutation, edits),
        "open_times": rngs[4],
        "closed": OpStream(workload, rngs[5], permutation, edits),
        "sample": rngs[6],
    }


# ----------------------------------------------------------------------
# statistics shared by the runner and the layer report
# ----------------------------------------------------------------------
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count: int, beyond: int = 10) -> float | None:
    """The highest percentile with at least ``beyond`` samples past it."""
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= beyond - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])
