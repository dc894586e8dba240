"""Eigenvalue upper bounds and the degree-sum counterexample predicate."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

import hyperlap as hl
from hyperlap import bounds


def _mean_neighbor_degree(h, weighted=False):
    """m_i: sum_j w_ij d_j over d_i, with w_ij = a_ij, or 1 per distinct
    neighbour."""
    _, d, sums = bounds._neighbor_sums(hl.analyze(h), weighted)
    return sums / d


def test_neighborhood_profile_distinct_vs_weighted(g_triple_overlap):
    np.testing.assert_allclose(_mean_neighbor_degree(g_triple_overlap), [3.5, 2.0, 3.5, 3.5])
    np.testing.assert_allclose(
        _mean_neighbor_degree(g_triple_overlap, weighted=True), [5.0, 4.0, 5.0, 5.0]
    )


def test_neighborhood_profile_symmetry():
    for seed in range(25):
        h = hl.random_hypergraph(n=8, m=5, k_min=2, k_max=4, seed=seed)
        for weighted in (False, True):
            w, _, _ = bounds._neighbor_sums(hl.analyze(h), weighted)
            assert np.array_equal(w, w.T)


def test_neighborhood_profile_isolated_vertex_nan():
    # An isolated vertex has no neighbour sum and no degree, and lies in no
    # adjacent pair, so no bracket reads it.
    an = hl.analyze(hl.Hypergraph.from_edges([(0, 2)], n=3))
    _, d, sums = bounds._neighbor_sums(an, False)
    assert d[1] == 0 and sums[1] == 0
    assert 1 not in np.concatenate(bounds._adjacent_pairs(an))


def test_two_graph_mean_degree_is_average_neighbor_degree(path4):
    # simple 2-graph: |N(i)| == d_i, so m_i is the plain neighbor average
    np.testing.assert_allclose(_mean_neighbor_degree(path4), [2.0, 1.5, 1.5, 2.0])


class TestTwiceMaxDelta:
    def test_complete_triples(self):
        rep = hl.analyze(hl.complete_kgraph(4, 3)).bounds["twice_max_laplacian_degree"]
        assert rep.name == "twice_max_laplacian_degree"
        assert rep.value == 12.0
        assert rep.lambda_n == pytest.approx(8.0, abs=1e-8)
        assert rep.holds

    def test_single_edge_tight(self, k2):
        rep = hl.analyze(k2).bounds["twice_max_laplacian_degree"]
        assert rep.value == 2.0
        assert rep.slack == pytest.approx(0.0, abs=1e-8)
        assert rep.holds

    def test_overlap_heavy(self, g_overlap_heavy):
        rep = hl.analyze(g_overlap_heavy).bounds["twice_max_laplacian_degree"]
        assert rep.value == 12.0
        assert rep.witness == (1,)  # first vertex with delta = 6
        assert rep.holds

    def test_needs_two_vertices(self):
        with pytest.raises(hl.TooSmallError):
            hl.analyze(hl.Hypergraph.from_edges([], n=1)).bounds["twice_max_laplacian_degree"]


class TestDeltaPairSum:
    def test_single_edge_tight(self, k2):
        rep = hl.analyze(k2).bounds["adjacent_laplacian_degree_sum"]
        assert rep.name == "adjacent_laplacian_degree_sum"
        assert rep.value == 2.0 and rep.holds

    def test_overlap_heavy(self, g_overlap_heavy):
        rep = hl.analyze(g_overlap_heavy).bounds["adjacent_laplacian_degree_sum"]
        assert rep.value == 12.0
        assert rep.witness == (1, 2)
        assert rep.holds

    def test_star(self):
        rep = hl.analyze(hl.star_kgraph(3, 2)).bounds["adjacent_laplacian_degree_sum"]
        assert rep.value == 6.0
        assert rep.witness == (0, 1)
        assert rep.lambda_n == pytest.approx(5.0, abs=1e-8)

    def test_no_edges(self):
        an = hl.analyze(hl.Hypergraph.from_edges([], n=3))
        assert "adjacent_laplacian_degree_sum" not in an.bounds


class TestZhuUniform:
    def test_single_edge(self, k2):
        rep = hl.analyze(k2).bounds["zhu_uniform"]
        assert rep.name == "zhu_uniform"
        assert rep.value == pytest.approx(2.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-8)

    def test_triangle(self, triangle):
        rep = hl.analyze(triangle).bounds["zhu_uniform"]
        assert rep.value == pytest.approx(3.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-8)

    def test_path(self, path3):
        rep = hl.analyze(path3).bounds["zhu_uniform"]
        assert rep.value == pytest.approx(3.0)
        assert rep.witness == (0, 1)
        assert rep.slack == pytest.approx(0.0, abs=1e-8)

    def test_rejects_mixed_sizes(self, g_mixed_sizes):
        assert "zhu_uniform" not in hl.analyze(g_mixed_sizes).bounds

    def test_holds_on_random_two_graphs(self):
        # established prior result: never violated on 2-graphs
        for seed in range(500):
            n = 4 + seed % 7
            h = hl.random_hypergraph(n=n, m=min(2 + seed % 8, n * (n - 1) // 2),
                                     k_min=2, k_max=2, seed=seed)
            assert hl.analyze(h).bounds["zhu_uniform"].holds


class TestZhuNonUniform:
    def test_uniform_reduction_is_exact(self):
        for seed in range(40):
            h = hl.random_hypergraph(n=7, m=4, k_min=3, k_max=3, seed=seed)
            uni = hl.analyze(h).bounds["zhu_uniform"]
            non = hl.analyze(h).bounds["zhu_nonuniform"]
            assert non.value == uni.value  # factor is exactly 1
            assert non.witness == uni.witness

    def test_mixed_sizes_distinct_mode(self, g_mixed_sizes):
        rep = hl.analyze(g_mixed_sizes).bounds["zhu_nonuniform"]
        assert rep.name == "zhu_nonuniform"
        # factor (k_max-1)/(k_min-1) = 3 on bracket 5 at the bridge pair
        assert rep.value == pytest.approx(15.0)
        assert rep.witness == (2, 3)
        assert rep.lambda_n == pytest.approx(7.0, abs=1e-8)
        assert rep.holds

    def test_mixed_sizes_weighted_mode(self, g_mixed_sizes):
        rep = hl.analyze(g_mixed_sizes).bounds["zhu_nonuniform_weighted"]
        assert rep.name == "zhu_nonuniform_weighted"
        assert rep.value == pytest.approx(15.0)
        assert rep.witness == (0, 2)
        assert rep.holds

    def test_no_edges(self):
        an = hl.analyze(hl.Hypergraph.from_edges([], n=3))
        assert "zhu_nonuniform" not in an.bounds
        assert "zhu_nonuniform_weighted" not in an.bounds


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
        names = [r.name for r in hl.analyze(triangle).bounds.values()]
        assert names == [
            "twice_max_laplacian_degree",
            "adjacent_laplacian_degree_sum",
            "zhu_uniform",
            "zhu_nonuniform",
            "zhu_nonuniform_weighted",
        ]

    def test_order_mixed(self, g_mixed_sizes):
        names = [r.name for r in hl.analyze(g_mixed_sizes).bounds.values()]
        assert names == [
            "twice_max_laplacian_degree",
            "adjacent_laplacian_degree_sum",
            "zhu_nonuniform",
            "zhu_nonuniform_weighted",
        ]

    def test_edgeless(self):
        an = hl.analyze(hl.Hypergraph.from_edges([], n=2))
        assert list(an.bounds) == ["twice_max_laplacian_degree"]

    def test_shared_lambda_n(self, g_mixed_sizes):
        reports = hl.analyze(g_mixed_sizes).bounds.values()
        assert len({r.lambda_n for r in reports}) == 1


_ONE_VERTEX = hl.Hypergraph.from_edges([], n=1)
_EDGELESS = hl.Hypergraph.from_edges([], n=3)
_PUBLIC_BOUNDS = {
    "twice": lambda h: hl.analyze(h).bounds["twice_max_laplacian_degree"],
    "pair": lambda h: hl.analyze(h).bounds["adjacent_laplacian_degree_sum"],
    "uniform": lambda h: hl.analyze(h).bounds["zhu_uniform"],
    "distinct": lambda h: hl.analyze(h).bounds["zhu_nonuniform"],
    "weighted": lambda h: hl.analyze(h).bounds["zhu_nonuniform_weighted"],
    "all": lambda h: list(hl.analyze(h).bounds.values()),
}


@pytest.mark.parametrize("h, name, error, message", [
    (_ONE_VERTEX, name, hl.TooSmallError, "lambda_n needs at least two vertices")
    for name in _PUBLIC_BOUNDS
])
def test_bound_errors_are_pinned(h, name, error, message):
    with pytest.raises(error) as exc:
        _PUBLIC_BOUNDS[name](h)
    assert type(exc.value) is error and str(exc.value) == message


# A bound that does not apply is absent from the cache: without edges only
# twice the largest Laplacian degree is reported, and mixed edge sizes have
# no uniform bound.
@pytest.mark.parametrize("h, name", [
    (_EDGELESS, "adjacent_laplacian_degree_sum"),
    (_EDGELESS, "zhu_uniform"),
    (_EDGELESS, "zhu_nonuniform"),
    (_EDGELESS, "zhu_nonuniform_weighted"),
    (hl.Hypergraph.from_edges([(0, 1), (1, 2, 3)], n=4), "zhu_uniform"),
], ids=["edgeless-pair", "edgeless-uniform", "edgeless-distinct", "edgeless-weighted",
        "mixed-uniform"])
def test_inapplicable_bounds_are_absent(h, name):
    an = hl.analyze(h)
    assert name not in an.bounds
    assert "twice_max_laplacian_degree" in an.bounds


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
        twice = an.bounds["twice_max_laplacian_degree"]
        pair = an.bounds["adjacent_laplacian_degree_sum"]
        assert twice.holds and pair.holds
        assert pair.value <= twice.value


def test_holds_flag_matches_slack_rule(g_overlap_heavy):
    rep = hl.analyze(g_overlap_heavy).bounds["adjacent_laplacian_degree_sum"]
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


def test_vectorised_pair_bounds_match_loops():
    for seed in range(120):
        n = 3 + seed % 18
        m = min(1 + (seed * 7) % (2 * n), math.comb(n, 2))
        h = hl.random_hypergraph(n=n, m=m, k_min=2, k_max=min(n, 2 + seed % 4), seed=seed)
        an = hl.analyze(h)
        dp = an.degrees
        factor = (dp.k_max - 1) / (dp.k_min - 1)
        for name, weighted in (("zhu_nonuniform", False), ("zhu_nonuniform_weighted", True)):
            value, pair = _zhu_bracket_loops(h, weighted)
            rep = an.bounds[name]
            assert rep.value == factor * value and rep.witness == pair
        value, pair = _pair_max_loops(
            h, lambda a, i, j: float(dp.delta[i] + dp.delta[j])
        )
        rep = an.bounds["adjacent_laplacian_degree_sum"]
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


# The `holds` and `exceeded` verdicts at their margin HOLDS_TOL * max(1,
# lambda_n).  A slack 2 margins past it must give the failing verdict, and
# one half a margin inside it must not, so a loosened or a tightened margin
# fails one of the pair; lambda_n below and above 1 pins the max(1, .) scale.
_PAST_OR_INSIDE = pytest.mark.parametrize("margins", [2.0, 0.5], ids=["past", "inside"])
_BELOW_OR_ABOVE_ONE = pytest.mark.parametrize("below_one", [True, False],
                                              ids=["lambda_below_1", "lambda_above_1"])


@_PAST_OR_INSIDE
@_BELOW_OR_ABOVE_ONE
def test_holds_margin(below_one, margins):
    lam = 0.25 if below_one else 40.0
    margin = bounds.HOLDS_TOL * max(1.0, lam)
    rep = bounds._report("demo", lam - margins * margin, lam, None)
    assert rep.holds == (margins < 1)


@_PAST_OR_INSIDE
@_BELOW_OR_ABOVE_ONE
def test_edge_degree_sum_exceeded_margin(below_one, margins):
    # Edgeless, every edge sum is 0 and lambda_n = margins * HOLDS_TOL < 1;
    # on complete triples on 4 vertices the largest sum is 9, and lambda_n
    # = 9 / (1 - margins * HOLDS_TOL) exceeds it by margins * HOLDS_TOL * lambda_n.
    if below_one:
        an = hl.analyze(hl.Hypergraph.from_edges([], n=3))
        best, lam = 0, margins * bounds.HOLDS_TOL
    else:
        an = hl.analyze(hl.complete_kgraph(4, 3))
        best = 9
        lam = best / (1.0 - margins * bounds.HOLDS_TOL)
    values = an.spectrum.eigenvalues.copy()
    values[-1] = lam
    vars(an)["spectrum"] = dataclasses.replace(an.spectrum, eigenvalues=values)
    chk = hl.check_edge_degree_sum(an)
    assert (chk.edge_max, chk.lambda_n) == (best, lam)
    assert chk.exceeded == (margins > 1)
