"""Edge boundaries, the spectral sandwich, exact cut quantities, sweep cut."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlap as hl


def _bf_boundary(h, subset):
    """Reference boundary count straight off the definition."""
    s = set(subset)
    return sum(1 for e in h.edges if 0 < len(s.intersection(e)) < len(e))


def _bf_max_cut(h):
    """(value, lexicographically least maximiser) over all proper subsets;
    the empty one counts too, so an edgeless hypergraph gets the witness ()."""
    best, witness = min(
        (-_bf_boundary(h, s), s)
        for size in range(h.n)
        for s in combinations(range(h.n), size)
    )
    return -best, witness


def _bf_isoperimetric(h):
    """(value, lexicographically least minimiser) over 1 <= |S| <= n/2."""
    return min(
        (Fraction(_bf_boundary(h, s), size), s)
        for size in range(1, h.n // 2 + 1)
        for s in combinations(range(h.n), size)
    )


@st.composite
def _small_hypergraphs(draw):
    """Any hypergraph on 2..8 vertices, edgeless and disconnected included."""
    n = draw(st.integers(2, 8))
    edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=n)
    edges = draw(st.lists(edge.map(sorted).map(tuple), unique=True, max_size=12))
    return hl.Hypergraph.from_edges(edges, n=n)


class TestEdgeBoundary:
    def test_uniform_examples(self, g_uniform_cycle):
        assert hl.edge_boundary(g_uniform_cycle, [0, 3])[0] == 4
        assert hl.edge_boundary(g_uniform_cycle, [0, 1, 2])[0] == 2

    def test_mixed_example(self, g_mixed_sizes):
        count, crossing = hl.edge_boundary(g_mixed_sizes, [2])
        assert count == 2
        assert crossing == [(0, 1, 2), (2, 3)]

    def test_empty_and_full(self, g_uniform_cycle):
        assert hl.edge_boundary(g_uniform_cycle, [])[0] == 0
        assert hl.edge_boundary(g_uniform_cycle, range(6))[0] == 0

    def test_bad_subsets(self, g_uniform_cycle):
        with pytest.raises(hl.VertexOutOfRangeError):
            hl.edge_boundary(g_uniform_cycle, [7])
        with pytest.raises(hl.DuplicateVertexError):
            hl.edge_boundary(g_uniform_cycle, [1, 1])

    def test_non_integer_vertices_rejected(self, g_uniform_cycle):
        with pytest.raises(hl.VertexOutOfRangeError, match="1.9"):
            hl.edge_boundary(g_uniform_cycle, [1.9])
        with pytest.raises(hl.VertexOutOfRangeError, match="2.5"):
            hl.boundary_sandwich(g_uniform_cycle, [2.5])
        assert hl.edge_boundary(g_uniform_cycle, [np.int64(1)]) == hl.edge_boundary(
            g_uniform_cycle, [1]
        )


class TestEdgeContribution:
    def test_quadratic_identity_exact(self, g_mixed_sizes):
        for subset in [(0,), (1, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]:
            per_edge, quad = _boundary_quadratic_loops(g_mixed_sizes, subset)
            assert per_edge == quad

    def test_quadratic_identity_random(self):
        for seed in range(50):
            h = hl.random_hypergraph(n=8, m=6, k_min=2, k_max=4, seed=seed)
            pick = hl.SplitMix64(seed ^ 0xC0FFEE)
            subset = tuple(pick.sample(8, pick.randrange(9)))
            per_edge, quad = _boundary_quadratic_loops(h, subset)
            assert per_edge == quad


class TestBoundarySandwich:
    def test_uniform_upper_tight(self, g_uniform_cycle):
        rep = hl.boundary_sandwich(g_uniform_cycle, [0, 3])
        assert rep.boundary_size == 4
        # lambda_n * 2*4 / (6*2) = 6*8/12 = 4: tight before any rounding
        assert rep.upper == pytest.approx(4.0, abs=1e-8)
        assert rep.lower <= rep.boundary_size <= rep.upper + 1e-8

    def test_uniform_lower_tight_after_ceiling(self, g_uniform_cycle):
        rep = hl.boundary_sandwich(g_uniform_cycle, [0, 1, 2])
        assert rep.boundary_size == 2
        # 4*lambda_2*9/(6*9) = 4*2/6 = 4/3, so ceil gives the attained 2
        assert rep.lower == pytest.approx(4.0 / 3.0, abs=1e-8)
        assert int(np.ceil(rep.lower - 1e-9)) == rep.boundary_size

    def test_mixed_bounds_strict(self, g_mixed_sizes):
        rep = hl.boundary_sandwich(g_mixed_sizes, [0, 1, 3])
        assert rep.boundary_size == 4
        # upper = 7*9/(6*1) = 10.5; the non-uniform graph sits well inside
        assert rep.upper == pytest.approx(10.5, abs=1e-8)
        assert rep.boundary_size < np.floor(rep.upper)
        assert rep.boundary_size > np.ceil(rep.lower)

    def test_degenerate_subset_density_nan(self, g_uniform_cycle):
        rep = hl.boundary_sandwich(g_uniform_cycle, [])
        assert rep.boundary_size == 0
        assert rep.lower == 0.0 and rep.upper == 0.0
        assert np.isnan(rep.density)

    def test_needs_edges(self):
        with pytest.raises(hl.NoEdgesError):
            hl.boundary_sandwich(hl.Hypergraph.from_edges([], n=3), [0])

    def test_holds_for_all_subsets_on_battery(self):
        count = 0
        seed = 0
        while count < 60:
            h = hl.random_hypergraph(n=4 + seed % 4, m=4 + seed % 3,
                                     k_min=2, k_max=4, seed=seed)
            seed += 1
            an = hl.analyze(h)
            if not an.connected:
                continue
            count += 1
            for size in range(h.n + 1):
                for s in combinations(range(h.n), size):
                    rep = hl.boundary_sandwich(an, s)
                    assert rep.boundary_size == _bf_boundary(h, s)
                    assert rep.lower - 1e-8 <= rep.boundary_size
                    assert rep.boundary_size <= rep.upper + 1e-8


def _density_bounds(h, subset):
    """(density, lower, upper): the sandwich divided through by s*(n-s)."""
    report = hl.boundary_sandwich(h, subset)
    pairs = len(subset) * (h.n - len(subset))
    return report.density, report.lower / pairs, report.upper / pairs


class TestEdgeDensity:
    def test_uniform_tight_upper(self, g_uniform_cycle):
        rho, lower, upper = _density_bounds(g_uniform_cycle, [0, 3])
        assert rho == pytest.approx(0.5)
        assert upper == pytest.approx(0.5, abs=1e-8)

    def test_uniform_lower(self, g_uniform_cycle):
        rho, lower, upper = _density_bounds(g_uniform_cycle, [0, 1, 2])
        assert rho == pytest.approx(2.0 / 9.0)
        assert lower == pytest.approx(8.0 / 54.0, abs=1e-8)

    def test_single_edge_everything_tight(self, k2):
        rho, lower, upper = _density_bounds(k2, [0])
        assert rho == pytest.approx(1.0)
        assert lower == pytest.approx(1.0, abs=1e-8)
        assert upper == pytest.approx(1.0, abs=1e-8)


class TestMaxCut:
    def test_uniform_example(self, g_uniform_cycle):
        value, witness = hl.max_cut(g_uniform_cycle)
        assert value == 4
        assert witness == (0, 1, 3)
        assert _bf_boundary(g_uniform_cycle, witness) == 4

    def test_single_edge(self, k2):
        assert hl.max_cut(k2) == (1, (0,))

    def test_complete_triples(self):
        value, witness = hl.max_cut(hl.complete_kgraph(4, 3))
        assert value == 4
        assert witness == (0, 1)

    def test_edgeless(self):
        assert hl.max_cut(hl.Hypergraph.from_edges([], n=3)) == (0, ())

    def test_matches_brute_force(self):
        for seed in range(40):
            h = hl.random_hypergraph(n=7, m=5, k_min=2, k_max=4, seed=seed)
            value, witness = hl.max_cut(h)
            assert (value, witness) == _bf_max_cut(h)
            assert _bf_boundary(h, witness) == value

    def test_refused_over_the_scan_budget(self):
        # n = 29 is the first n whose subset scan exceeds the byte budget.
        h = hl.Hypergraph.from_edges([(i, i + 1) for i in range(28)], n=29)
        with pytest.raises(hl.TooLargeError):
            hl.max_cut(h)
        with pytest.raises(hl.TooLargeError):
            hl.isoperimetric(h)
        with pytest.raises(hl.TooLargeError):
            hl.connectivity_summary(h)


class TestIsoperimetric:
    def test_uniform_example(self, g_uniform_cycle):
        value, witness = hl.isoperimetric(g_uniform_cycle)
        assert value == Fraction(2, 3)
        assert witness == (0, 1, 2)

    def test_single_edge(self, k2):
        value, witness = hl.isoperimetric(k2)
        assert value == Fraction(1) and witness == (0,)

    def test_disconnected_gives_zero(self):
        h = hl.Hypergraph.from_edges([(0, 1), (2, 3)], n=4)
        value, witness = hl.isoperimetric(h)
        assert value == 0
        assert witness == (0, 1)

    def test_needs_two_vertices(self):
        with pytest.raises(hl.TooSmallError):
            hl.isoperimetric(hl.Hypergraph.from_edges([], n=1))

    def test_matches_brute_force(self):
        for seed in range(40):
            h = hl.random_hypergraph(n=7, m=5, k_min=2, k_max=4, seed=seed)
            value, witness = hl.isoperimetric(h)
            assert (value, witness) == _bf_isoperimetric(h)
            assert Fraction(_bf_boundary(h, witness), len(witness)) == value
            assert 2 * len(witness) <= h.n

    def test_small_minimiser_holding_the_last_vertex(self):
        # The scan avoids vertex 4, so the only minimiser {3, 4} (size 2 <
        # n/2) is seen only as its complement {0, 1, 2}, of size n - 2.
        h = hl.Hypergraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (0, 1, 2), (3, 4), (2, 3)], n=5
        )
        assert hl.isoperimetric(h) == _bf_isoperimetric(h) == (Fraction(1, 2), (3, 4))

    def test_ratio_tied_across_sizes(self):
        # Ratio 1 is reached at size 1 ({3}) and at size 2; the least
        # witness is a folded pair holding vertex n-1.
        h = hl.Hypergraph.from_edges(
            [(0, 1), (0, 1, 2), (0, 1, 3), (1, 2, 4), (2, 4)], n=5
        )
        assert hl.isoperimetric(h) == _bf_isoperimetric(h) == (Fraction(1), (2, 4))
        assert _bf_boundary(h, (3,)) == 1

    def test_exact_ties_resolved_lexicographically(self, g_all_triples):
        # every 2-subset of the complete triple system has the same ratio
        value, witness = hl.isoperimetric(g_all_triples)
        assert value == Fraction(4, 2)
        assert witness == (0, 1)


@settings(max_examples=150, deadline=None)
@given(h=_small_hypergraphs())
def test_witnesses_are_lexicographically_least(h):
    assert hl.max_cut(h) == _bf_max_cut(h)
    assert hl.isoperimetric(h) == _bf_isoperimetric(h)


def test_complete_graph_on_twenty_vertices():
    h = hl.complete_kgraph(20, 2)
    assert hl.max_cut(h) == (100, tuple(range(10)))
    assert hl.isoperimetric(h) == (Fraction(10), tuple(range(10)))


class TestFiedlerSweep:
    def test_single_edge(self, k2):
        subset, rep = hl.fiedler_sweep(k2)
        assert subset == (0,)
        assert rep.boundary_size == 1

    def test_path_matches_exact_optimum(self, path4):
        subset, rep = hl.fiedler_sweep(path4)
        assert subset == (0, 1)
        assert rep.boundary_size == 1
        value, _ = hl.isoperimetric(path4)
        assert Fraction(rep.boundary_size, len(subset)) == value

    def test_complete_triples(self):
        # halving prefix wins: ratio 4/2 beats the singleton's 3/1
        h = hl.complete_kgraph(4, 3)
        subset, rep = hl.fiedler_sweep(h)
        assert len(subset) == 2
        assert rep.boundary_size == 4
        assert Fraction(rep.boundary_size, len(subset)) == hl.isoperimetric(h)[0]

    def test_rejects_disconnected(self):
        h = hl.Hypergraph.from_edges([(0, 1), (2, 3)], n=4)
        with pytest.raises(hl.DisconnectedError):
            hl.fiedler_sweep(h)

    def test_rejects_single_vertex(self):
        with pytest.raises(hl.TooSmallError):
            hl.fiedler_sweep(hl.Hypergraph.from_edges([], n=1))

    def test_never_beats_exact_optimum(self):
        count = 0
        seed = 5000
        while count < 60:
            h = hl.random_hypergraph(n=4 + seed % 5, m=4 + seed % 3,
                                     k_min=2, k_max=4, seed=seed)
            seed += 1
            if not hl.analyze(h).connected:
                continue
            count += 1
            subset, rep = hl.fiedler_sweep(h)
            ratio = Fraction(rep.boundary_size, len(subset))
            exact, _ = hl.isoperimetric(h)
            assert ratio >= exact


class TestConnectivitySummary:
    def test_uniform_example(self, g_uniform_cycle):
        summary = hl.connectivity_summary(g_uniform_cycle)
        assert summary.max_cut == 4
        assert summary.max_cut_bound_kmin == pytest.approx(4.5, abs=1e-8)
        assert summary.max_cut_bound_kmax == pytest.approx(4.5, abs=1e-8)
        assert summary.isoperimetric == Fraction(2, 3)
        assert summary.iso_lower_bound == pytest.approx(4.0 / 9.0, abs=1e-8)
        assert summary.max_cut <= summary.max_cut_bound_kmin + 1e-8
        assert summary.isoperimetric >= summary.iso_lower_bound - 1e-8

    def test_mixed_bounds(self, g_mixed_sizes):
        summary = hl.connectivity_summary(g_mixed_sizes)
        # lambda_n = 7: k_min bound 6*7/4, k_max bound 6*7/12
        assert summary.max_cut_bound_kmin == pytest.approx(10.5, abs=1e-8)
        assert summary.max_cut_bound_kmax == pytest.approx(3.5, abs=1e-8)
        assert summary.max_cut <= summary.max_cut_bound_kmin + 1e-8
        assert summary.max_cut == _bf_max_cut(g_mixed_sizes)[0]

    def test_needs_edges(self):
        with pytest.raises(hl.NoEdgesError):
            hl.connectivity_summary(hl.Hypergraph.from_edges([], n=3))


# The per-edge loops that the edge-index passes replaced, kept as oracles.


def _edge_boundary_loops(h, s):
    s = set(s)
    crossing = [e for e in h.edges if 0 < sum(1 for v in e if v in s) < len(e)]
    return len(crossing), crossing


def _boundary_quadratic_loops(h, s):
    """Both sides of sum_e t_e (|e| - t_e) == chi_S^T L chi_S, where t_e is
    the number of the edge's vertices in S, as integers."""
    inside = set(s)
    per_edge = 0
    for e in h.edges:
        t = sum(1 for v in e if v in inside)
        per_edge += t * (len(e) - t)
    chi = np.zeros(h.n, dtype=np.int64)
    chi[list(s)] = 1
    quad = int(chi @ hl.analyze(h).laplacian.astype(np.int64) @ chi)
    return per_edge, quad


def _fiedler_sweep_loops(h):
    an = hl.analyze(h)
    order = np.argsort(-an.spectrum.eigenvectors[:, 1], kind="stable")
    best = None
    best_subset = None
    for t in range(1, h.n):
        if 2 * t > h.n:
            break
        subset = tuple(sorted(int(v) for v in order[:t]))
        count, _ = _edge_boundary_loops(h, subset)
        ratio = Fraction(count, t)
        if best is None or ratio < best:
            best, best_subset = ratio, subset
    return best_subset, best


def _random_cases(count, seed):
    rng = random.Random(seed)
    cases = [hl.Hypergraph.from_edges([], n=1), hl.Hypergraph.from_edges([], n=5)]
    for i in range(count):
        n = rng.randint(2, 24)
        k_max = rng.randint(2, min(n, 7))
        m = rng.randint(min(n, comb(n, 2)), min(80, comb(n, 2)))
        cases.append(hl.random_hypergraph(n=n, m=m, k_min=2, k_max=k_max, seed=i))
    return rng, cases


def test_edge_index_passes_match_loops():
    rng, cases = _random_cases(160, 41)
    for h in cases:
        subsets = [(), tuple(range(h.n))]
        for _ in range(4):
            subsets.append(tuple(sorted(rng.sample(range(h.n), rng.randint(0, h.n)))))
        for s in subsets:
            count, edges = hl.edge_boundary(h, s)
            assert (count, edges) == _edge_boundary_loops(h, s)
            assert all(type(e) is tuple for e in edges)
            per_edge, quad = _boundary_quadratic_loops(h, s)
            assert per_edge == quad


def test_one_pass_sweep_matches_prefix_loop():
    _, cases = _random_cases(240, 43)
    compared = 0
    for h in cases:
        an = hl.analyze(h)
        if h.n < 2 or not an.connected:
            continue
        subset, report = hl.fiedler_sweep(an)
        want_subset, want_ratio = _fiedler_sweep_loops(an)
        assert subset == want_subset
        assert all(type(v) is int for v in subset)
        assert Fraction(report.boundary_size, len(subset)) == want_ratio
        assert report == hl.boundary_sandwich(an, want_subset)
        compared += 1
    assert compared >= 150
