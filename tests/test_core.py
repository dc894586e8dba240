"""Hypergraph container, adjacency/degree/Laplacian construction."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlap as hl


class TestFromEdges:
    def test_canonical_form(self):
        h = hl.Hypergraph.from_edges([(3, 1, 2), (0, 1)], n=4)
        # edges sorted internally and lexicographically as a tuple-of-tuples
        assert h.edges == ((0, 1), (1, 2, 3))
        assert h.n == 4
        assert h.m == 2

    def test_default_labels(self):
        h = hl.Hypergraph.from_edges([(0, 1)], n=3)
        assert h.labels is None
        assert h.label_of(2) == "2"
        assert h.label_index() == {"0": 0, "1": 1, "2": 2}

    def test_custom_labels(self):
        h = hl.Hypergraph.from_edges([(0, 1)], n=2, labels=("a", "b"))
        assert h.label_of(0) == "a"
        assert h.label_index()["b"] == 1
        assert h.edge_labels((0, 1)) == ("a", "b")

    def test_no_edges_allowed(self):
        h = hl.Hypergraph.from_edges([], n=3)
        assert h.m == 0
        assert h.edges == ()

    def test_rejects_vertex_repeat_inside_edge(self):
        with pytest.raises(hl.DuplicateVertexError):
            hl.Hypergraph.from_edges([(0, 1, 1)], n=3)

    def test_rejects_singleton_edge(self):
        with pytest.raises(hl.SingletonEdgeError):
            hl.Hypergraph.from_edges([(2,)], n=3)

    def test_rejects_out_of_range(self):
        with pytest.raises(hl.VertexOutOfRangeError):
            hl.Hypergraph.from_edges([(0, 3)], n=3)
        with pytest.raises(hl.VertexOutOfRangeError):
            hl.Hypergraph.from_edges([(-1, 0)], n=3)

    def test_rejects_non_integer_vertex(self):
        with pytest.raises(hl.VertexOutOfRangeError, match="1.5"):
            hl.Hypergraph.from_edges([(0, 1.5), (1, 2)], n=3)
        h = hl.Hypergraph.from_edges([(np.int64(2), np.int64(0))], n=3)
        assert h.edges == ((0, 2),)
        assert all(type(v) is int for v in h.edges[0])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(hl.DuplicateEdgeError):
            hl.Hypergraph.from_edges([(0, 1, 2), (2, 1, 0)], n=3)

    def test_rejects_bad_n(self):
        with pytest.raises(hl.InvalidHypergraphError, match="must be positive"):
            hl.Hypergraph.from_edges([], n=0)

    @pytest.mark.parametrize("n", [2.5, "3"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(hl.InvalidHypergraphError, match="is not an integer"):
            hl.Hypergraph.from_edges([(0, 1)], n=n)

    def test_numpy_integer_n_is_stored_as_int(self):
        h = hl.Hypergraph.from_edges([(0, 1)], n=np.int64(3))
        assert h.n == 3 and type(h.n) is int

    @pytest.mark.parametrize(
        "labels", [[1, 2, 3], ["a b", "c", "d"], ["a", "", "c"], ["a", "b\tc", "d"]]
    )
    def test_rejects_labels_that_are_not_hg_tokens(self, labels):
        with pytest.raises(hl.InvalidHypergraphError, match="vertex label"):
            hl.Hypergraph.from_edges([(0, 1)], n=3, labels=labels)

    def test_rejects_bad_labels(self):
        with pytest.raises(hl.InvalidHypergraphError):
            hl.Hypergraph.from_edges([(0, 1)], n=2, labels=("a",))
        with pytest.raises(hl.InvalidHypergraphError, match="distinct"):
            hl.Hypergraph.from_edges([(0, 1)], n=2, labels=("a", "a"))


class TestAdjacency:
    def test_pair_multiplicities(self, g_triple_overlap):
        a = hl.adjacency_matrix(g_triple_overlap)
        expected = np.array(
            [
                [0, 2, 1, 1],
                [2, 0, 2, 2],
                [1, 2, 0, 1],
                [1, 2, 1, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(a, expected)

    def test_multiplicity_two_everywhere(self, g_all_triples):
        a = hl.adjacency_matrix(g_all_triples)
        assert np.array_equal(a, 2.0 * (np.ones((4, 4)) - np.eye(4)))

    def test_single_edge(self, k2):
        assert np.array_equal(
            hl.adjacency_matrix(k2), np.array([[0.0, 1.0], [1.0, 0.0]])
        )


class TestDegreeProfile:
    def test_triple_overlap(self, g_triple_overlap):
        dp = hl.degree_profile(g_triple_overlap)
        assert dp.d.tolist() == [2, 3, 2, 2]
        assert dp.delta.tolist() == [4, 6, 4, 4]
        assert dp.k_min == 3
        assert dp.k_max == 3

    def test_mixed_sizes(self, g_mixed_sizes):
        dp = hl.degree_profile(g_mixed_sizes)
        assert dp.d.tolist() == [2, 2, 2, 2, 2, 2]
        assert dp.delta.tolist() == [5, 5, 3, 3, 5, 5]
        assert dp.k_min == 2
        assert dp.k_max == 4

    def test_empty(self):
        dp = hl.degree_profile(hl.Hypergraph.from_edges([], n=3))
        assert dp.d.tolist() == [0, 0, 0]
        assert dp.delta.tolist() == [0, 0, 0]
        assert dp.k_min == 0 and dp.k_max == 0


class TestLaplacian:
    def test_values(self, g_overlap_heavy):
        lap = hl.analyze(g_overlap_heavy).laplacian
        a = hl.adjacency_matrix(g_overlap_heavy)
        assert np.array_equal(np.diag(lap), [4.0, 6.0, 6.0, 4.0, 4.0])
        assert np.array_equal(lap - np.diag(np.diag(lap)), -a)

    def test_row_sums_exactly_zero(self, g_mixed_sizes):
        lap = hl.analyze(g_mixed_sizes).laplacian
        # integer-valued construction: no float tolerance needed
        assert np.array_equal(lap.sum(axis=1), np.zeros(6))

    def test_complete_triples(self):
        h = hl.complete_kgraph(4, 3)
        lap = hl.analyze(h).laplacian
        assert np.array_equal(lap, 6.0 * np.eye(4) - 2.0 * (np.ones((4, 4)) - np.eye(4)))


class TestComponents:
    def test_disjoint_edges(self):
        h = hl.Hypergraph.from_edges([(0, 1), (2, 3)], n=4)
        assert hl.connected_components(h) == [[0, 1], [2, 3]]
        assert not hl.analyze(h).connected

    def test_isolated_vertex(self):
        h = hl.Hypergraph.from_edges([(0, 2)], n=3)
        assert hl.connected_components(h) == [[0, 2], [1]]

    def test_connected(self, g_mixed_sizes):
        assert hl.connected_components(g_mixed_sizes) == [[0, 1, 2, 3, 4, 5]]
        assert hl.analyze(g_mixed_sizes).connected

    def test_no_edges(self):
        h = hl.Hypergraph.from_edges([], n=2)
        assert hl.connected_components(h) == [[0], [1]]


def test_degree_identities_randomized():
    # delta equals the Laplacian row sum of the adjacency part for every
    # instance; pairwise weights never exceed either endpoint degree.
    for seed in range(200):
        h = hl.random_hypergraph(n=4 + seed % 7, m=2 + seed % 6,
                                 k_min=2, k_max=4, seed=seed)
        a = hl.adjacency_matrix(h)
        dp = hl.degree_profile(h)
        assert np.array_equal(a.sum(axis=1), dp.delta.astype(float))
        mins = np.minimum.outer(dp.d, dp.d).astype(float)
        assert np.all(a <= mins + 0.0)
        assert np.all((dp.k_min - 1) * dp.d <= dp.delta)
        assert np.all(dp.delta <= (dp.k_max - 1) * dp.d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), shuffle=st.integers(0, 2**31 - 1))
def test_canonicalization_order_invariant(seed, shuffle):
    h = hl.random_hypergraph(n=7, m=5, k_min=2, k_max=4, seed=seed)
    rng = random.Random(shuffle)
    scrambled = []
    for e in h.edges:
        e = list(e)
        rng.shuffle(e)
        scrambled.append(tuple(e))
    rng.shuffle(scrambled)
    assert hl.Hypergraph.from_edges(scrambled, n=7) == h


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), data=st.data())
def test_duplicate_edge_always_detected(seed, data):
    h = hl.random_hypergraph(n=6, m=4, k_min=2, k_max=3, seed=seed)
    pick = data.draw(st.integers(0, h.m - 1))
    edges = list(h.edges) + [h.edges[pick]]
    with pytest.raises(hl.DuplicateEdgeError):
        hl.Hypergraph.from_edges(edges, n=6)


def _adjacency_loops(h):
    a = np.zeros((h.n, h.n), dtype=np.int64)
    for edge in h.edges:
        for x, i in enumerate(edge):
            for j in edge[x + 1 :]:
                a[i, j] += 1
                a[j, i] += 1
    return a


def _degrees_loops(h):
    d = np.zeros(h.n, dtype=np.int64)
    delta = np.zeros(h.n, dtype=np.int64)
    for edge in h.edges:
        for v in edge:
            d[v] += 1
            delta[v] += len(edge) - 1
    return d, delta


def test_vectorised_construction_matches_loops():
    rng = random.Random(77)
    cases = [hl.Hypergraph.from_edges([], n=1), hl.Hypergraph.from_edges([], n=4)]
    for seed in range(150):
        n = rng.randint(2, 24)
        k_max = rng.randint(2, min(n, 7))
        m = rng.randint(1, min(60, math.comb(n, 2)))
        cases.append(hl.random_hypergraph(n=n, m=m, k_min=2, k_max=k_max, seed=seed))
    for h in cases:
        a = hl.adjacency_matrix(h)
        assert a.dtype == np.int64
        assert np.array_equal(a, _adjacency_loops(h))
        dp = hl.degree_profile(h)
        d, delta = _degrees_loops(h)
        assert dp.d.dtype == dp.delta.dtype == np.int64
        assert np.array_equal(dp.d, d) and np.array_equal(dp.delta, delta)
        sizes = [len(e) for e in h.edges]
        assert (dp.k_min, dp.k_max) == (min(sizes, default=0), max(sizes, default=0))
