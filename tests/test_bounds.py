"""Eigenvalue upper bounds and the degree-sum counterexample predicate."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import hyperlap as hl
from hyperlap import bounds


def test_neighborhood_profile_distinct_vs_weighted(g_triple_overlap):
    prof = hl.neighborhood_profile(g_triple_overlap)
    assert prof.neighbor_sets == (
        frozenset({1, 2, 3}),
        frozenset({0, 2, 3}),
        frozenset({0, 1, 3}),
        frozenset({0, 1, 2}),
    )
    np.testing.assert_allclose(prof.mean_degree, [3.5, 2.0, 3.5, 3.5])
    assert not prof.weighted

    weighted = hl.neighborhood_profile(g_triple_overlap, weighted=True)
    np.testing.assert_allclose(weighted.mean_degree, [5.0, 4.0, 5.0, 5.0])
    assert weighted.weighted


def test_neighborhood_profile_symmetry():
    for seed in range(25):
        h = hl.random_hypergraph(n=8, m=5, k_min=2, k_max=4, seed=seed)
        sets = hl.neighborhood_profile(h).neighbor_sets
        for i in range(h.n):
            for j in sets[i]:
                assert i in sets[j]


def test_neighborhood_profile_isolated_vertex_nan():
    h = hl.Hypergraph.from_edges([(0, 2)], n=3)
    prof = hl.neighborhood_profile(h)
    assert math.isnan(prof.mean_degree[1])


def test_two_graph_mean_degree_is_average_neighbor_degree(path4):
    # simple 2-graph: |N(i)| == d_i, so m_i is the plain neighbor average
    prof = hl.neighborhood_profile(path4)
    np.testing.assert_allclose(prof.mean_degree, [2.0, 1.5, 1.5, 2.0])


class TestTwiceMaxDelta:
    def test_complete_triples(self):
        rep = hl.bound_twice_max_delta(hl.complete_kgraph(4, 3))
        assert rep.name == "twice_max_laplacian_degree"
        assert rep.value == 12.0
        assert rep.lambda_n == pytest.approx(8.0, abs=1e-8)
        assert rep.holds

    def test_single_edge_tight(self, k2):
        rep = hl.bound_twice_max_delta(k2)
        assert rep.value == 2.0
        assert rep.slack == pytest.approx(0.0, abs=1e-8)
        assert rep.holds

    def test_overlap_heavy(self, g_overlap_heavy):
        rep = hl.bound_twice_max_delta(g_overlap_heavy)
        assert rep.value == 12.0
        assert rep.witness == (1,)  # first vertex with delta = 6
        assert rep.holds

    def test_needs_two_vertices(self):
        with pytest.raises(hl.TooSmallError):
            hl.bound_twice_max_delta(hl.Hypergraph.from_edges([], n=1))


class TestDeltaPairSum:
    def test_single_edge_tight(self, k2):
        rep = hl.bound_delta_pair_sum(k2)
        assert rep.name == "adjacent_laplacian_degree_sum"
        assert rep.value == 2.0 and rep.holds

    def test_overlap_heavy(self, g_overlap_heavy):
        rep = hl.bound_delta_pair_sum(g_overlap_heavy)
        assert rep.value == 12.0
        assert rep.witness == (1, 2)
        assert rep.holds

    def test_star(self):
        rep = hl.bound_delta_pair_sum(hl.star_kgraph(3, 2))
        assert rep.value == 6.0
        assert rep.witness == (0, 1)
        assert rep.lambda_n == pytest.approx(5.0, abs=1e-8)

    def test_no_edges(self):
        with pytest.raises(hl.NoEdgesError):
            hl.bound_delta_pair_sum(hl.Hypergraph.from_edges([], n=3))


class TestGenericWeightBound:
    def test_single_edge_literal_vs_strict(self, k2):
        one = lambda i, j: 1.0
        literal = hl.zhu_generic_bound(k2, one)
        assert literal.name == "generic_weight"
        assert literal.value == 2.0 and literal.holds  # tight at lambda_n = 2
        strict = hl.zhu_generic_bound(k2, one, strict_exclusion=True)
        assert strict.name == "generic_weight_strict"
        assert strict.value == 0.0 and not strict.holds

    def test_triangle_literal_vs_strict(self, triangle):
        one = lambda i, j: 1.0
        literal = hl.zhu_generic_bound(triangle, one)
        assert literal.value == 3.0 and literal.holds  # tight at lambda_n = 3
        strict = hl.zhu_generic_bound(triangle, one, strict_exclusion=True)
        assert strict.value == 1.0 and not strict.holds

    def test_degree_sum_weight_on_star(self):
        h = hl.Hypergraph.from_edges([(0, 1), (0, 2)], n=3)
        delta = hl.degree_profile(h).delta
        rep = hl.zhu_generic_bound(h, lambda i, j: float(delta[i] + delta[j]))
        assert rep.value == pytest.approx(3.0)
        assert rep.witness == (0, 1)
        assert rep.slack == pytest.approx(0.0, abs=1e-8)

    def test_rejects_nonpositive_weight(self, triangle):
        with pytest.raises(hl.BadWeightFunctionError):
            hl.zhu_generic_bound(triangle, lambda i, j: 0.0)


class TestZhuUniform:
    def test_single_edge(self, k2):
        rep = hl.bound_zhu_uniform(k2)
        assert rep.name == "zhu_uniform"
        assert rep.value == pytest.approx(2.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-8)

    def test_triangle(self, triangle):
        rep = hl.bound_zhu_uniform(triangle)
        assert rep.value == pytest.approx(3.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-8)

    def test_path(self, path3):
        rep = hl.bound_zhu_uniform(path3)
        assert rep.value == pytest.approx(3.0)
        assert rep.witness == (0, 1)
        assert rep.slack == pytest.approx(0.0, abs=1e-8)

    def test_rejects_mixed_sizes(self, g_mixed_sizes):
        with pytest.raises(hl.NotUniformError, match="uniform"):
            hl.bound_zhu_uniform(g_mixed_sizes)

    def test_holds_on_random_two_graphs(self):
        # established prior result: never violated on 2-graphs
        for seed in range(500):
            n = 4 + seed % 7
            h = hl.random_hypergraph(n=n, m=min(2 + seed % 8, n * (n - 1) // 2),
                                     k_min=2, k_max=2, seed=seed)
            assert hl.bound_zhu_uniform(h).holds


class TestZhuNonUniform:
    def test_uniform_reduction_is_exact(self):
        for seed in range(40):
            h = hl.random_hypergraph(n=7, m=4, k_min=3, k_max=3, seed=seed)
            uni = hl.bound_zhu_uniform(h)
            non = hl.bound_zhu_nonuniform(h)
            assert non.value == uni.value  # factor is exactly 1
            assert non.witness == uni.witness

    def test_mixed_sizes_distinct_mode(self, g_mixed_sizes):
        rep = hl.bound_zhu_nonuniform(g_mixed_sizes)
        assert rep.name == "zhu_nonuniform"
        # factor (k_max-1)/(k_min-1) = 3 on bracket 5 at the bridge pair
        assert rep.value == pytest.approx(15.0)
        assert rep.witness == (2, 3)
        assert rep.lambda_n == pytest.approx(7.0, abs=1e-8)
        assert rep.holds

    def test_mixed_sizes_weighted_mode(self, g_mixed_sizes):
        rep = hl.bound_zhu_nonuniform(g_mixed_sizes, weighted=True)
        assert rep.name == "zhu_nonuniform_weighted"
        assert rep.value == pytest.approx(15.0)
        assert rep.witness == (0, 2)
        assert rep.holds

    def test_no_edges(self):
        with pytest.raises(hl.NoEdgesError):
            hl.bound_zhu_nonuniform(hl.Hypergraph.from_edges([], n=3))


class TestEdgeDegreeSum:
    def test_overlap_heavy_exceeds(self, g_overlap_heavy):
        chk = hl.check_edge_degree_sum(g_overlap_heavy)
        assert chk.edge_max == 8
        assert chk.lambda_n == pytest.approx(8.2360679775, abs=1e-8)
        assert chk.exceeded
        d = hl.degree_profile(g_overlap_heavy).d
        assert sum(d[v] for v in chk.witness_edge) == 8

    def test_single_edge_not_exceeded(self, k2):
        chk = hl.check_edge_degree_sum(k2)
        assert chk.edge_max == 2 and not chk.exceeded

    def test_complete_triples_not_exceeded(self):
        chk = hl.check_edge_degree_sum(hl.complete_kgraph(4, 3))
        assert chk.edge_max == 9
        assert chk.lambda_n == pytest.approx(8.0, abs=1e-8)
        assert not chk.exceeded


class TestAllBounds:
    def test_order_uniform(self, triangle):
        names = [r.name for r in hl.all_bounds(triangle)]
        assert names == [
            "twice_max_laplacian_degree",
            "adjacent_laplacian_degree_sum",
            "zhu_uniform",
            "zhu_nonuniform",
            "zhu_nonuniform_weighted",
        ]

    def test_order_mixed(self, g_mixed_sizes):
        names = [r.name for r in hl.all_bounds(g_mixed_sizes)]
        assert names == [
            "twice_max_laplacian_degree",
            "adjacent_laplacian_degree_sum",
            "zhu_nonuniform",
            "zhu_nonuniform_weighted",
        ]

    def test_edgeless(self):
        reports = hl.all_bounds(hl.Hypergraph.from_edges([], n=2))
        assert [r.name for r in reports] == ["twice_max_laplacian_degree"]

    def test_shared_lambda_n(self, g_mixed_sizes):
        reports = hl.all_bounds(g_mixed_sizes)
        assert len({r.lambda_n for r in reports}) == 1


_ONE_VERTEX = hl.Hypergraph.from_edges([], n=1)
_EDGELESS = hl.Hypergraph.from_edges([], n=3)
_PUBLIC_BOUNDS = {
    "twice": hl.bound_twice_max_delta,
    "pair": hl.bound_delta_pair_sum,
    "uniform": hl.bound_zhu_uniform,
    "distinct": hl.bound_zhu_nonuniform,
    "weighted": lambda h: hl.bound_zhu_nonuniform(h, weighted=True),
    "all": hl.all_bounds,
}


@pytest.mark.parametrize("h, name, error, message", [
    *[(_ONE_VERTEX, name, hl.TooSmallError, "lambda_n needs at least two vertices")
      for name in _PUBLIC_BOUNDS],
    (_EDGELESS, "pair", hl.NoEdgesError,
     "bound over adjacent pairs needs at least one edge"),
    (_EDGELESS, "uniform", hl.NoEdgesError,
     "uniform degree bound needs at least one edge"),
    (_EDGELESS, "distinct", hl.NoEdgesError, "degree bound needs at least one edge"),
    (_EDGELESS, "weighted", hl.NoEdgesError, "degree bound needs at least one edge"),
    (hl.Hypergraph.from_edges([(0, 1), (1, 2, 3)], n=4), "uniform",
     hl.NotUniformError,
     "edge sizes range over [2, 3]; bound needs a uniform hypergraph"),
])
def test_bound_errors_are_pinned(h, name, error, message):
    with pytest.raises(error) as exc:
        _PUBLIC_BOUNDS[name](h)
    assert type(exc.value) is error and str(exc.value) == message


def test_proved_bounds_hold_on_battery():
    # 500 instances: both proved bounds hold, and the pair-sum bound is
    # never worse than the doubled-max bound
    for seed in range(500):
        n = 4 + seed % 7
        h = hl.random_hypergraph(n=n, m=2 + seed % 7, k_min=2,
                                 k_max=min(4, n), seed=seed)
        if h.m == 0:
            continue
        an = hl.analyze(h)
        twice = hl.bound_twice_max_delta(an)
        pair = hl.bound_delta_pair_sum(an)
        assert twice.holds and pair.holds
        assert pair.value <= twice.value


def test_holds_flag_matches_slack_rule(g_overlap_heavy):
    rep = hl.bound_delta_pair_sum(g_overlap_heavy)
    assert rep.slack == rep.value - rep.lambda_n
    assert rep.holds == (rep.slack >= -1e-8 * max(1.0, rep.lambda_n))


def _pair_max_loops(h, score):
    a = hl.adjacency_matrix(h)
    best = best_pair = None
    for i in range(h.n):
        for j in range(i + 1, h.n):
            if a[i, j] > 0:
                s = score(a, i, j)
                if best is None or s > best:
                    best, best_pair = s, (i, j)
    return best, best_pair


def _zhu_bracket_loops(h, weighted):
    d = hl.degree_profile(h).d.astype(np.float64)

    def score(a, i, j):
        if weighted:
            sum_i, sum_j = float(a[i] @ d), float(a[j] @ d)
            common = float(np.minimum(a[i], a[j]) @ d)
        else:
            sum_i, sum_j = float(d[a[i] > 0].sum()), float(d[a[j] > 0].sum())
            common = float(d[(a[i] > 0) & (a[j] > 0)].sum())
        num = d[i] * d[i] + sum_i + d[j] * d[j] + sum_j - 2.0 * common
        return num / (d[i] + d[j])

    return _pair_max_loops(h, score)


def _generic_weight(i, j):
    # Symmetric, positive and integer-valued, so every sum is exact in any order.
    return float(1 + (i * j + i + j) % 4)


def _zhu_generic_loops(h, strict_exclusion):
    def score(a, i, j):
        ni, nj = set(np.flatnonzero(a[i]).tolist()), set(np.flatnonzero(a[j]).tolist())
        only_i, only_j = ni - nj, nj - ni
        if strict_exclusion:
            only_i, only_j = only_i - {i, j}, only_j - {i, j}
        total = sum(_generic_weight(i, l) for l in only_i)
        total += sum(_generic_weight(j, l) for l in only_j)
        return len(ni & nj) + total / _generic_weight(i, j)

    return _pair_max_loops(h, score)


def test_vectorised_pair_bounds_match_loops():
    for seed in range(120):
        n = 3 + seed % 18
        m = min(1 + (seed * 7) % (2 * n), math.comb(n, 2))
        h = hl.random_hypergraph(n=n, m=m, k_min=2, k_max=min(n, 2 + seed % 4), seed=seed)
        dp = hl.degree_profile(h)
        factor = (dp.k_max - 1) / (dp.k_min - 1)
        for weighted in (False, True):
            value, pair = _zhu_bracket_loops(h, weighted)
            rep = hl.bound_zhu_nonuniform(h, weighted=weighted)
            assert rep.value == factor * value and rep.witness == pair
        value, pair = _pair_max_loops(
            h, lambda a, i, j: float(dp.delta[i] + dp.delta[j])
        )
        rep = hl.bound_delta_pair_sum(h)
        assert rep.value == value and rep.witness == pair
        assert all(type(v) is int for v in rep.witness)
        for strict in (False, True):
            value, pair = _zhu_generic_loops(h, strict)
            rep = hl.zhu_generic_bound(h, _generic_weight, strict_exclusion=strict)
            assert rep.value == value and rep.witness == pair
            assert all(type(v) is int for v in rep.witness)


def _zhu_bracket_by_rows(h, iu, ju, weighted):
    """The bracket's common-neighbour sums one row i at a time."""
    w, d, sums = bounds._neighbor_sums(h, weighted)
    cut = np.searchsorted(iu, np.arange(h.n + 1))
    common = np.empty(iu.size)
    for i in range(h.n):
        row = slice(cut[i], cut[i + 1])
        common[row] = np.minimum(w[i], w[ju[row]]) @ d
    di, dj = d[iu], d[ju]
    num = di * di + sums[iu] + dj * dj + sums[ju] - 2.0 * common
    return bounds._argmax_pair(num / (di + dj), iu, ju)


def test_bracket_blocks_of_pairs_match_the_row_loop():
    # Pair counts below n, between multiples of n and far above them (the
    # dense inputs, where every pair is adjacent).
    cases = [hl.random_hypergraph(n=n, m=m, k_min=2, k_max=k, seed=n + m)
             for n, m, k in ((3, 1, 2), (9, 4, 3), (12, 30, 4), (20, 60, 5), (33, 40, 12))]
    for h in cases:
        an = hl.analyze(h)
        iu, ju = bounds._adjacent_pairs(an)
        for weighted in (False, True):
            got = bounds._zhu_bracket_max(an, iu, ju, weighted)
            want = _zhu_bracket_by_rows(an, iu, ju, weighted)
            assert got == want and type(got[0]) is type(want[0]), (h.n, h.m, weighted)


def _edge_degree_sum_loops(h):
    """The per-edge scan that the edge-index pass replaced."""
    d = hl.degree_profile(h).d
    best = 0
    witness = None
    for edge in h.edges:
        total = int(sum(d[v] for v in edge))
        if total > best:
            best, witness = total, edge
    return best, witness


def test_edge_degree_sum_matches_loops(g_overlap_heavy):
    rng = random.Random(19)
    cases = [g_overlap_heavy, hl.Hypergraph.from_edges([], n=3)]
    for seed in range(160):
        n = rng.randint(2, 24)
        m = rng.randint(1, min(60, math.comb(n, 2)))
        k_max = rng.randint(2, min(n, 7))
        cases.append(hl.random_hypergraph(n=n, m=m, k_min=2, k_max=k_max, seed=seed))
    for h in cases:
        chk = hl.check_edge_degree_sum(h)
        best, witness = _edge_degree_sum_loops(h)
        assert (chk.edge_max, chk.witness_edge) == (best, witness)
        assert type(chk.edge_max) is int
        lam = hl.analyze(h).lambda_n
        assert chk.exceeded == bool(lam > best + 1e-8 * max(1.0, lam))
