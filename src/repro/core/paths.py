"""In-link path machinery — Lemma 1, Corollaries 1-2, Figures 2 and 3.

An *in-link path* of node-pair ``(a, b)`` (Section 3.1) is a walk
``a <-^{l1} w ->^{l2} b``: ``l1`` steps against edge directions from
``a`` back to the in-link "source" ``w``, then ``l2`` steps along edge
directions to ``b``. It is *symmetric* when ``l1 = l2``.

This module provides:

* exact path counting via products of ``A`` / ``A^T`` (Lemma 1);
* exact existence matrices for symmetric in-link paths (what SimRank
  sees), directed paths (what RWR sees), and dissymmetric in-link
  paths (what only SimRank* sees) — the primitives behind the
  Figure 6(d) zero-similarity census;
* per-path contribution rates combining length and symmetry weights
  (the worked numbers 0.0384 / 0.0205 below Figure 3);
* the Figure 2 table of path shapes each measure accommodates.
"""

from __future__ import annotations

import numpy as np

from repro.core.weights import GeometricWeights, WeightScheme, symmetry_weights
from repro.graph.digraph import DiGraph
from repro.graph.matrices import adjacency_matrix

__all__ = [
    "accommodated_path_shapes",
    "count_inlink_paths",
    "count_specific_paths",
    "dissymmetric_inlink_path_exists",
    "inlink_path_exists",
    "path_contribution",
    "reachability",
    "symmetric_inlink_path_exists",
]


def count_specific_paths(graph: DiGraph, pattern: str) -> np.ndarray:
    """Lemma 1: count "specific paths" whose edge directions follow
    ``pattern``.

    ``pattern`` is a string over ``{'>', '<'}`` read left to right
    along the walk from ``i`` to ``j``: ``'>'`` is a step along an edge
    (``v_{k-1} -> v_k``, contributing a factor ``A``) and ``'<'`` a
    step against one (``v_{k-1} <- v_k``, contributing ``A^T``).
    Entry ``[i, j]`` of the result counts walks of that exact shape.

    >>> # [A (x) A^T] counts i -> * <- j patterns
    >>> from repro.graph import DiGraph
    >>> g = DiGraph(3, edges=[(0, 1), (2, 1)])
    >>> count_specific_paths(g, "><")[0, 2]
    1.0
    """
    if not pattern:
        raise ValueError("pattern must contain at least one step")
    a = adjacency_matrix(graph)
    result = None
    for step in pattern:
        if step == ">":
            factor = a
        elif step == "<":
            factor = a.T
        else:
            raise ValueError(
                f"pattern may only contain '>' and '<', got {step!r}"
            )
        result = factor if result is None else result @ factor
    return np.asarray(result.todense())


def count_inlink_paths(graph: DiGraph, l1: int, l2: int) -> np.ndarray:
    """Count in-link paths ``i <-^{l1} w ->^{l2} j``: ``(A^T)^{l1} A^{l2}``.

    ``[(A^T)^{l1} A^{l2}]_{ij}`` tallies the number of in-link paths of
    node-pair ``(i, j)`` with ``l1`` steps against and ``l2`` along
    (the example below Lemma 1).
    """
    if l1 < 0 or l2 < 0:
        raise ValueError("step counts must be >= 0")
    if l1 + l2 == 0:
        return np.eye(graph.num_nodes)
    return count_specific_paths(graph, "<" * l1 + ">" * l2)


def reachability(graph: DiGraph, include_self: bool = True) -> np.ndarray:
    """Boolean transitive closure: ``[i, j]`` iff a directed path i ~> j.

    ``include_self=True`` counts the empty path (diagonal true);
    ``False`` requires length >= 1 (diagonal true only on cycles).
    Uses logical matrix squaring, so ``O(log diameter)`` dense products.
    """
    n = graph.num_nodes
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    a = adjacency_matrix(graph)
    closure = np.asarray(a.todense()) > 0
    np.fill_diagonal(closure, True)
    while True:
        squared = (closure.astype(np.float64) @ closure) > 0
        if (squared == closure).all():
            break
        closure = squared
    if include_self:
        return closure
    at_least_one = (np.asarray(a.todense()) @ closure) > 0
    return at_least_one


def symmetric_inlink_path_exists(
    graph: DiGraph, max_depth: int | None = None
) -> np.ndarray:
    """Boolean matrix: ``[i, j]`` iff a *symmetric* in-link path exists.

    ``(i, j)`` has one iff some source ``w`` reaches both at equal
    distance ``k >= 1`` (for ``i != j``; the diagonal is trivially
    true at ``k = 0``). By Theorem 1 this is exactly the non-zero
    pattern of SimRank.

    Computed as the fixpoint of ``R <- R | (A^T R A > 0)`` from
    ``R = I``: one step extends every equidistant pair by one hop on
    both sides. ``max_depth`` caps the iteration. The default, ``n * n``
    (the number of pair states), always reaches the fixpoint; the loop
    stops as soon as a step adds nothing. A cap of ``n`` is enough on
    acyclic graphs but not on cyclic ones, where the shortest
    equal-length pair path can be longer than ``n``: on the 6-node
    graph with edges ``0->1, 0->4, 1->0, 2->3, 2->5, 3->1, 4->2`` the
    pair ``(2, 3)`` first appears at depth 7.
    """
    n = graph.num_nodes
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    a = adjacency_matrix(graph)
    at = a.T.tocsr()
    reach = np.eye(n, dtype=bool)
    limit = n * n if max_depth is None else max_depth
    for _ in range(limit):
        stepped = (at @ (reach.astype(np.float64) @ a)) > 0
        merged = reach | stepped
        if (merged == reach).all():
            break
        reach = merged
    return reach


def inlink_path_exists(graph: DiGraph) -> np.ndarray:
    """Boolean matrix: ``[i, j]`` iff *any* in-link path joins i and j.

    Equivalent to sharing a common ancestor under reachability
    (including the nodes themselves): this is the non-zero pattern of
    SimRank*, and the universe against which the zero-similarity
    census counts missed contributions.
    """
    reach = reachability(graph, include_self=True).astype(np.float64)
    return (reach.T @ reach) > 0


def dissymmetric_inlink_path_exists(graph: DiGraph) -> np.ndarray:
    """Boolean matrix: ``[i, j]`` iff a *dissymmetric* in-link path exists.

    Decomposition: an in-link path ``i <-^{k} w ->^{k + d} j`` with
    ``d >= 1`` factors through the node ``x`` at distance ``k`` on the
    ``j``-side leg: ``w`` is equidistant from ``i`` and ``x``, and
    ``x`` reaches ``j`` in ``d >= 1`` more steps. Hence::

        D = (Sym @ Reach+) > 0       (j-side longer)
        result = D | D^T             (either side longer)

    where ``Sym`` is :func:`symmetric_inlink_path_exists` (equidistant
    pairs, k >= 0) and ``Reach+`` is length->=1 reachability. These
    are the contributions SimRank provably drops (Theorem 1).
    """
    sym = symmetric_inlink_path_exists(graph).astype(np.float64)
    reach_plus = reachability(graph, include_self=False).astype(np.float64)
    longer_right = (sym @ reach_plus) > 0
    return longer_right | longer_right.T


def path_contribution(
    c: float,
    l1: int,
    l2: int,
    weights: WeightScheme | None = None,
) -> float:
    """Contribution *rate* of one in-link path shape to SimRank*.

    ``rate = w_{l1+l2} * binom(l1+l2, l1) / 2^{l1+l2}`` — the weight
    the path earns before in-degree normalisation. Reproduces the
    paper's worked examples (C = 0.8): the path
    ``h <- e <- a -> d`` (l1=2, l2=1) rates
    ``0.2 * 0.8^3 * binom(3,2)/2^3 = 0.0384`` and
    ``h <- e <- a -> b -> f -> d`` (l1=2, l2=3) rates ``0.0205``.
    """
    if l1 < 0 or l2 < 0:
        raise ValueError("step counts must be >= 0")
    if weights is None:
        weights = GeometricWeights(c)
    length = l1 + l2
    return float(
        weights.length_weight(length) * symmetry_weights(length)[l1]
    )


def accommodated_path_shapes(measure: str, length: int) -> list[tuple[int, int]]:
    """Figure 2: which ``(l1, l2)`` in-link path shapes a measure counts.

    * ``"simrank"`` — only the centred shape ``(l/2, l/2)`` (even l);
    * ``"rwr"`` — only the one-directional shape ``(0, l)``;
    * ``"simrank_star"`` — all ``l + 1`` shapes.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if measure == "simrank":
        if length % 2 == 0:
            return [(length // 2, length // 2)]
        return []
    if measure == "rwr":
        return [(0, length)]
    if measure == "simrank_star":
        return [(a, length - a) for a in range(length + 1)]
    raise ValueError(
        "measure must be 'simrank', 'rwr' or 'simrank_star', "
        f"got {measure!r}"
    )
