"""Tests for in-link path machinery (Lemma 1, Figures 2-3)."""

import numpy as np
import pytest

from repro.core import (
    GeometricWeights,
    accommodated_path_shapes,
    count_inlink_paths,
    count_specific_paths,
    dissymmetric_inlink_path_exists,
    inlink_path_exists,
    path_contribution,
    reachability,
    symmetric_inlink_path_exists,
    symmetry_weights,
)
from repro.baselines import simrank_matrix, rwr
from repro.core import simrank_star
from repro.graph import (
    DiGraph,
    cycle_graph,
    family_tree,
    figure1_citation_graph,
    path_graph,
    random_digraph,
    two_ray_path,
)


class TestLemma1Counting:
    def test_pure_forward_pattern_is_adjacency_power(self):
        g = random_digraph(10, 30, seed=0)
        from repro.graph import adjacency_matrix

        a = adjacency_matrix(g).toarray()
        np.testing.assert_array_equal(
            count_specific_paths(g, ">>>"), a @ a @ a
        )

    def test_mixed_pattern(self):
        # i -> * <- j counted by A A^T
        g = DiGraph(3, edges=[(0, 1), (2, 1)])
        counts = count_specific_paths(g, "><")
        assert counts[0, 2] == 1
        assert counts[0, 1] == 0

    def test_inlink_path_counts_on_figure1(self):
        g = figure1_citation_graph()
        h, d = g.node_of("h"), g.node_of("d")
        # exactly one in-link path h <-<- a -> d (l1=2, l2=1)
        assert count_inlink_paths(g, 2, 1)[h, d] == 1
        # and one h <-<- a -> b -> f -> d (l1=2, l2=3)
        assert count_inlink_paths(g, 2, 3)[h, d] == 1
        # no symmetric path of any length
        for k in range(1, 6):
            assert count_inlink_paths(g, k, k)[h, d] == 0

    def test_zero_steps_is_identity(self):
        g = path_graph(4)
        np.testing.assert_array_equal(
            count_inlink_paths(g, 0, 0), np.eye(4)
        )

    def test_invalid_pattern_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            count_specific_paths(g, ">x<")
        with pytest.raises(ValueError):
            count_specific_paths(g, "")
        with pytest.raises(ValueError):
            count_inlink_paths(g, -1, 2)


class TestReachability:
    def test_path_graph_closure(self):
        g = path_graph(4)
        r = reachability(g)
        for i in range(4):
            for j in range(4):
                assert r[i, j] == (i <= j)

    def test_exclude_self_on_dag(self):
        g = path_graph(3)
        r = reachability(g, include_self=False)
        assert not r[0, 0]
        assert r[0, 1] and r[0, 2]

    def test_cycle_reaches_self(self):
        g = cycle_graph(3)
        r = reachability(g, include_self=False)
        assert r.all()  # everything reaches everything on a cycle

    def test_empty(self):
        assert reachability(DiGraph(0)).shape == (0, 0)


class TestSymmetricPathExistence:
    def test_matches_simrank_nonzero_pattern(self):
        # Theorem 1 (both directions): SR > 0 iff symmetric path.
        for seed in range(4):
            g = random_digraph(12, 30, seed=seed)
            sym = symmetric_inlink_path_exists(g)
            s = simrank_matrix(g, 0.6, 40)
            np.testing.assert_array_equal(sym, s > 1e-13, err_msg=str(seed))

    def test_matches_bruteforce_counting(self):
        g = random_digraph(10, 25, seed=7)
        sym = symmetric_inlink_path_exists(g)
        brute = np.eye(10, dtype=bool)
        for k in range(1, 11):
            brute |= count_inlink_paths(g, k, k) > 0
        np.testing.assert_array_equal(sym, brute)

    def test_fixpoint_deeper_than_n_on_a_cycle(self):
        # the shortest equal-length path to (2, 3) has depth 7 > n = 6:
        # a fixpoint capped at n steps reported no symmetric path
        g = DiGraph(6, edges=[(0, 1), (0, 4), (1, 0), (2, 3), (2, 5),
                              (3, 1), (4, 2)])
        sym = symmetric_inlink_path_exists(g)
        assert sym[2, 3] and sym[3, 2]
        assert not symmetric_inlink_path_exists(g, max_depth=6)[2, 3]
        s = simrank_matrix(g, 0.6, 24)
        assert s[2, 3] > 1e-13
        np.testing.assert_array_equal(sym, s > 1e-13)

    def test_figure1_hd_has_no_symmetric_path(self):
        g = figure1_citation_graph()
        sym = symmetric_inlink_path_exists(g)
        assert not sym[g.node_of("h"), g.node_of("d")]
        assert sym[g.node_of("g"), g.node_of("i")]


class TestInlinkAndDissymmetricExistence:
    def test_inlink_matches_simrank_star_nonzero(self):
        for seed in range(4):
            g = random_digraph(12, 30, seed=seed)
            exists = inlink_path_exists(g)
            s = simrank_star(g, 0.6, 60)
            np.testing.assert_array_equal(
                exists, s > 1e-14, err_msg=str(seed)
            )

    def test_rwr_nonzero_iff_directed_path(self):
        for seed in range(3):
            g = random_digraph(12, 30, seed=seed)
            r = rwr(g, 0.6, 60)
            reach = reachability(g, include_self=True)
            np.testing.assert_array_equal(r > 1e-14, reach)

    def test_dissymmetric_on_two_ray_path(self):
        # (1, n+1) is equidistant (symmetric only at depth 1); deeper
        # cross pairs at equal depth also have ONLY symmetric paths
        # (single parent chain), so no dissymmetric path exists there.
        g = two_ray_path(2)
        dis = dissymmetric_inlink_path_exists(g)
        assert not dis[1, 3]  # depth-1 pair: only the symmetric path
        assert dis[1, 4]  # depths 1 vs 2: only dissymmetric paths
        assert dis[0, 1]  # root -> child: unidirectional

    def test_dissymmetric_vs_bruteforce(self):
        g = random_digraph(10, 25, seed=9)
        dis = dissymmetric_inlink_path_exists(g)
        brute = np.zeros((10, 10), dtype=bool)
        for l1 in range(0, 8):
            for l2 in range(0, 8):
                if l1 != l2:
                    brute |= count_inlink_paths(g, l1, l2) > 0
        # brute force is truncated at length 7 legs; it must be a
        # subset of the exact answer and equal on this small graph
        np.testing.assert_array_equal(dis, brute)

    def test_figure1_hd_dissymmetric_only(self):
        g = figure1_citation_graph()
        h, d = g.node_of("h"), g.node_of("d")
        assert dissymmetric_inlink_path_exists(g)[h, d]
        assert not symmetric_inlink_path_exists(g)[h, d]


class TestContributionRates:
    def test_paper_worked_examples(self):
        # (1-0.8) * 0.8^3 * binom(3,2)/2^3 = 0.0384
        assert path_contribution(0.8, 2, 1) == pytest.approx(0.0384)
        # (1-0.8) * 0.8^5 * binom(5,2)/2^5 = 0.02048
        assert path_contribution(0.8, 2, 3) == pytest.approx(0.02048)

    def test_figure3_ordering(self):
        # rho_A (Me-Cousin, 2+2) > rho_B (Uncle-Son, 1+3)
        #   > rho_C (Grandpa-Grandson, 0+4)
        rho_a = path_contribution(0.8, 2, 2)
        rho_b = path_contribution(0.8, 1, 3)
        rho_c = path_contribution(0.8, 0, 4)
        assert rho_a > rho_b > rho_c > 0

    def test_symmetric_peak(self):
        # for fixed length, the centred split earns the most
        contributions = [path_contribution(0.6, a, 6 - a) for a in range(7)]
        assert max(contributions) == contributions[3]
        assert contributions[0] == contributions[6] == min(contributions)

    def test_custom_wescheme(self):
        rate = path_contribution(
            0.8, 2, 1, weights=GeometricWeights(0.8)
        )
        assert rate == pytest.approx(0.0384)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            path_contribution(0.6, -1, 2)


class TestSymmetryWeights:
    def test_sum_to_one(self):
        for l in range(8):
            assert symmetry_weights(l).sum() == pytest.approx(1.0)

    def test_unimodal(self):
        w = symmetry_weights(6)
        assert np.argmax(w) == 3
        diffs = np.diff(w)
        assert (diffs[:3] > 0).all() and (diffs[3:] < 0).all()

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            symmetry_weights(-1)


class TestFigure2Shapes:
    def test_simrank_shapes(self):
        assert accommodated_path_shapes("simrank", 1) == []
        assert accommodated_path_shapes("simrank", 2) == [(1, 1)]
        assert accommodated_path_shapes("simrank", 4) == [(2, 2)]

    def test_rwr_shapes(self):
        assert accommodated_path_shapes("rwr", 3) == [(0, 3)]

    def test_simrank_star_counts_all(self):
        for length in range(1, 5):
            shapes = accommodated_path_shapes("simrank_star", length)
            assert len(shapes) == length + 1
            assert set(accommodated_path_shapes("simrank", length)) <= set(
                shapes
            )
            assert set(accommodated_path_shapes("rwr", length)) <= set(
                shapes
            )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            accommodated_path_shapes("pagerank", 2)
        with pytest.raises(ValueError):
            accommodated_path_shapes("simrank", 0)


class TestFamilyTreeSemantics:
    """Figure 3's narrative, checked end to end on real measures."""

    @pytest.fixture(scope="class")
    def tree(self):
        g = family_tree()
        return g, simrank_star(g, 0.8, 80)

    def test_simrank_star_relates_everyone(self, tree):
        # "all nodes in the family tree G should have some relevances"
        g, s = tree
        assert (s > 0).all()

    def test_rwr_misses_me_and_cousin(self, tree):
        g, _ = tree
        r = rwr(g, 0.8, 60)
        me, cousin = g.node_of("Me"), g.node_of("Cousin")
        assert r[me, cousin] == 0.0  # no directed path either way
        assert r[cousin, me] == 0.0

    def test_simrank_misses_me_and_uncle(self, tree):
        g, _ = tree
        s = simrank_matrix(g, 0.8, 60)
        me, uncle = g.node_of("Me"), g.node_of("Uncle")
        assert s[me, uncle] == 0.0  # depths 2 vs 1: never equidistant
        # but SimRank* sees them
        assert tree[1][me, uncle] > 0.0
