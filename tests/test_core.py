"""Hypergraph container, adjacency/degree/Laplacian construction."""

from __future__ import annotations

import functools
import math
import operator
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


@st.composite
def _reduce_inputs(draw):
    """A hypergraph with mixed edge sizes (n = 1 and m = 0 included, and
    edges holding vertex n-1) and one int64 value per vertex."""
    n = draw(st.integers(1, 9))
    edges = set()
    if n > 1:
        any_edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=n)
        top_edge = st.sets(st.integers(0, n - 2), min_size=1).map(lambda s: s | {n - 1})
        edges = draw(st.sets(st.one_of(any_edge, top_edge).map(frozenset), max_size=12))
    values = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n))
    return hl.Hypergraph.from_edges(edges, n=n), np.array(values, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(case=_reduce_inputs())
def test_edge_reduce_matches_per_edge_loops(case):
    h, values = case
    assert h.edge_sizes.dtype == np.int64
    assert h.edge_sizes.tolist() == [len(e) for e in h.edges]
    loops = {
        np.add: sum,
        np.minimum: min,
        np.maximum: max,
        np.bitwise_or: lambda xs: functools.reduce(operator.or_, xs),
    }
    for ufunc, fold in loops.items():
        got = h.edge_reduce(ufunc, values)
        assert got.dtype == np.int64 and got.shape == (h.m,)
        assert got.tolist() == [fold([int(values[v]) for v in e]) for e in h.edges]


def test_dense_stages_are_refused_before_allocating():
    # n = 10**5 would need about 80 GB for the bincount alone.
    h = hl.Hypergraph.from_edges([(0, 1)], n=10**5)
    with pytest.raises(hl.TooLargeError, match="an estimated 800000000000 bytes"):
        hl.adjacency_matrix(h)
    assert hl.core.dense_bytes(128) <= hl.core.MAX_DENSE_BYTES


def test_scan_budget_admits_n_up_to_28():
    fits = [n for n in range(1, 64) if hl.core.fits_budget(hl.core.scan_bytes(n))]
    assert fits == list(range(1, 29))


def test_refusal_names_an_astronomical_price_by_its_power_of_two():
    # 20 * 2**99999 bytes has 30 104 decimal digits, past the 4300 that
    # Python converts to text.
    an = hl.analyze(hl.Hypergraph.from_edges([(0, 1)], n=10**5))
    with pytest.raises(hl.TooLargeError) as info:
        an.require_enumerable()
    assert str(info.value) == (
        "n=100000 needs at least 2**100003 bytes for its subset scan,"
        " above the budget of 4294967296"
    )
