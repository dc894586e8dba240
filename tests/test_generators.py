"""Generated families, their closed-form spectra, and the seeded RNG."""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest

import hyperlap as hl
from hyperlap import generators


class TestSplitMix64:
    def test_reference_stream(self):
        # first three outputs for seed 0, from the published reference
        rng = hl.SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_determinism(self):
        a = hl.SplitMix64(123456789)
        b = hl.SplitMix64(123456789)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    @pytest.mark.parametrize("seed", [0, 123456789, (1 << 64) - 1])
    def test_next_u64s_is_the_stream_in_numpy(self, seed):
        # The state wraps past 2**64 within the first draws from the top seed.
        a, b = hl.SplitMix64(seed), hl.SplitMix64(seed)
        got = a.next_u64s(300)
        assert got.dtype == np.uint64
        assert got.tolist() == [b.next_u64() for _ in range(300)]
        assert a.next_u64() == b.next_u64()

    def test_randrange_hits_full_range(self):
        rng = hl.SplitMix64(42)
        seen = {rng.randrange(5) for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_sample(self):
        rng = hl.SplitMix64(7)
        for _ in range(50):
            s = rng.sample(10, 4)
            assert len(s) == 4 and len(set(s)) == 4
            assert s == sorted(s)
            assert all(0 <= v < 10 for v in s)
        assert rng.sample(3, 0) == []
        assert rng.sample(3, 3) == [0, 1, 2]
        with pytest.raises(ValueError):
            rng.sample(3, 4)

    def test_sample_does_not_build_the_pool(self):
        # Only the k touched positions are stored, so a huge n costs nothing.
        s = hl.SplitMix64(1).sample(10**15, 3)
        assert len(set(s)) == 3 and all(0 <= v < 10**15 for v in s)

    def test_sample_matches_full_pool_fisher_yates(self):
        for seed in range(300):
            n = 1 + seed % 23
            k = seed % (n + 1)
            rng, ref = hl.SplitMix64(seed), hl.SplitMix64(seed)
            pool = list(range(n))
            for i in range(k):
                j = i + ref.randrange(n - i)
                pool[i], pool[j] = pool[j], pool[i]
            assert rng.sample(n, k) == sorted(pool[:k])
            assert rng.next_u64() == ref.next_u64()


class TestCompleteKGraph:
    def test_edges_are_all_subsets(self):
        h = hl.complete_kgraph(5, 3)
        assert h.n == 5
        assert h.edges == tuple(combinations(range(5), 3))

    def test_analytic_pairs(self):
        spec = hl.complete_kgraph_spectrum(4, 3)
        assert spec.pairs == ((0, 1), (8, 3))
        assert spec.residual_poly is None

    def test_analytic_matches_solver(self):
        for n in range(2, 7):
            for k in range(2, n + 1):
                want = hl.complete_kgraph_spectrum(n, k).expand()
                got = hl.analyze(hl.complete_kgraph(n, k)).spectrum
                np.testing.assert_allclose(got.eigenvalues, want, atol=1e-8)

    def test_bad_parameters(self):
        with pytest.raises(hl.BadParametersError):
            hl.complete_kgraph(3, 1)
        with pytest.raises(hl.BadParametersError):
            hl.complete_kgraph_spectrum(3, 4)


class TestStarKGraph:
    def test_shape(self):
        h = hl.star_kgraph(3, 2)
        assert h.n == 5
        assert h.edges == ((0, 1, 2), (0, 3, 4))

    def test_two_uniform_star(self):
        spec = hl.star_kgraph_spectrum(2, 3)
        assert spec.pairs == ((0, 1), (1, 2), (4, 1))
        got = hl.analyze(hl.star_kgraph(2, 3)).spectrum
        np.testing.assert_allclose(got.eigenvalues, [0, 1, 1, 4], atol=1e-8)

    def test_analytic_matches_solver(self):
        for k in range(2, 6):
            for r in range(1, 5):
                want = hl.star_kgraph_spectrum(k, r).expand()
                got = hl.analyze(hl.star_kgraph(k, r)).spectrum
                np.testing.assert_allclose(got.eigenvalues, want, atol=1e-8)

    def test_eigenvector_basis_exact(self):
        for k, r in [(2, 1), (3, 2), (4, 3), (5, 4)]:
            h = hl.star_kgraph(k, r)
            lap = hl.analyze(h).laplacian.astype(np.int64)
            basis = hl.star_eigenvector_basis(k, r)
            assert len(basis) == h.n
            for lam, vec in basis:
                assert np.array_equal(lap @ vec, lam * vec)  # exact, no tolerance
            stacked = np.array([vec for _, vec in basis])
            assert np.linalg.matrix_rank(stacked) == h.n

    def test_bad_parameters(self):
        with pytest.raises(hl.BadParametersError):
            hl.star_kgraph(1, 2)
        with pytest.raises(hl.BadParametersError):
            hl.star_kgraph(3, 0)


class TestCompleteKPartite:
    def test_edges_are_transversals(self):
        h = hl.complete_kpartite((2, 2))
        assert h.n == 4
        assert h.edges == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_two_by_two(self):
        spec = hl.complete_kpartite_spectrum((2, 2))
        assert spec.pairs == ((0, 1), (2, 1), (2, 1))
        assert spec.residual_poly == (1, -4)
        got = hl.analyze(hl.complete_kpartite((2, 2))).spectrum
        np.testing.assert_allclose(got.eigenvalues, [0, 2, 2, 4], atol=1e-8)

    def test_single_edge_case(self):
        spec = hl.complete_kpartite_spectrum((1, 1))
        assert spec.pairs == ((0, 1),)
        assert spec.residual_poly == (1, -2)

    def test_three_parts_residual(self):
        # residual quadratic for sizes (2, 1, 2) factors as (X-6)(X-10)
        spec = hl.complete_kpartite_spectrum((2, 1, 2))
        assert spec.pairs == ((0, 1), (4, 1), (4, 1))
        assert spec.residual_poly == (1, -16, 60)
        got = hl.analyze(hl.complete_kpartite((2, 1, 2))).spectrum
        np.testing.assert_allclose(got.eigenvalues, [0, 4, 4, 6, 10], atol=1e-8)

    def test_parts_of_size_one_collapse_to_single_edge(self):
        # one vertex per part -> exactly one transversal edge covering all
        h = hl.complete_kpartite((1, 1, 1, 1))
        assert h.edges == ((0, 1, 2, 3),)
        spec = hl.complete_kpartite_spectrum((1, 1, 1, 1))
        got = hl.analyze(h).spectrum
        # every plateau multiplicity is zero; the cubic carries the rest
        assert spec.pairs == ((0, 1),)
        coeffs = np.array(spec.residual_poly, dtype=float)
        for lam in got.eigenvalues[1:]:
            assert abs(np.polyval(coeffs, lam)) <= 1e-6 * max(1.0, np.abs(coeffs).max())

    def test_residual_evaluates_to_zero_on_leftover_eigenvalues(self):
        for sizes in [(2, 3), (3, 3), (2, 2, 2), (1, 2, 3), (2, 1, 1, 2)]:
            spec = hl.complete_kpartite_spectrum(sizes)
            got = hl.analyze(hl.complete_kpartite(sizes)).spectrum
            plateau = []
            for lam, mult in spec.pairs:
                plateau.extend([lam] * mult)
            # strip the plateau values (greedy nearest match), leaving the
            # k-1 eigenvalues the polynomial must annihilate
            remaining = list(got.eigenvalues)
            for lam in plateau:
                idx = int(np.argmin([abs(x - lam) for x in remaining]))
                assert abs(remaining[idx] - lam) <= 1e-8
                remaining.pop(idx)
            assert len(remaining) == len(sizes) - 1
            coeffs = np.array(spec.residual_poly, dtype=float)
            bound = 1e-6 * max(1.0, np.abs(coeffs).max())
            for lam in remaining:
                assert abs(np.polyval(coeffs, lam)) <= bound

    def test_bad_parameters(self):
        with pytest.raises(hl.BadParametersError):
            hl.complete_kpartite((3,))
        with pytest.raises(hl.BadParametersError):
            hl.complete_kpartite((2, 0))


class TestRandomHypergraph:
    def test_deterministic(self):
        a = hl.random_hypergraph(n=8, m=6, k_min=2, k_max=4, seed=99)
        b = hl.random_hypergraph(n=8, m=6, k_min=2, k_max=4, seed=99)
        assert a == b

    def test_seeds_differ(self):
        a = hl.random_hypergraph(n=8, m=6, k_min=2, k_max=4, seed=0)
        b = hl.random_hypergraph(n=8, m=6, k_min=2, k_max=4, seed=1)
        assert a != b

    def test_shape_constraints(self):
        for seed in range(30):
            h = hl.random_hypergraph(n=7, m=5, k_min=2, k_max=3, seed=seed)
            assert h.n == 7 and h.m == 5
            assert all(2 <= len(e) <= 3 for e in h.edges)
            assert len(set(h.edges)) == 5

    def test_exhaustive_draw_terminates(self):
        # asking for every possible edge forces the redraw loop to finish
        h = hl.random_hypergraph(n=4, m=6, k_min=2, k_max=2, seed=5)
        assert h.edges == tuple(combinations(range(4), 2))

    def test_zero_edges(self):
        h = hl.random_hypergraph(n=3, m=0, k_min=2, k_max=2, seed=1)
        assert h.m == 0

    def test_parameter_errors(self):
        with pytest.raises(hl.UnsatisfiableError):
            hl.random_hypergraph(n=4, m=7, k_min=2, k_max=2, seed=0)
        with pytest.raises(hl.BadParametersError):
            hl.random_hypergraph(n=4, m=2, k_min=1, k_max=2, seed=0)
        with pytest.raises(hl.BadParametersError):
            hl.random_hypergraph(n=4, m=2, k_min=3, k_max=2, seed=0)
        with pytest.raises(hl.BadParametersError):
            hl.random_hypergraph(n=4, m=-1, k_min=2, k_max=2, seed=0)


def test_analytic_expand_refuses_residual():
    spec = hl.complete_kpartite_spectrum((2, 2))
    with pytest.raises(ValueError, match="residual"):
        spec.expand()


@pytest.mark.parametrize(
    "build, members, exact",
    [
        (lambda: hl.complete_kgraph(6, 3), comb(6, 3) * 3, True),
        (lambda: hl.complete_kpartite((2, 3, 4)), 2 * 3 * 4 * 3, True),
        (lambda: hl.star_kgraph(3, 5), 5 * 3, True),
        # m * k_min: the fewest members six edges of size >= 2 can have
        (lambda: hl.random_hypergraph(n=8, m=6, k_min=2, k_max=4, seed=3), 6 * 2, False),
    ],
)
def test_member_cap_refuses_before_building(monkeypatch, build, members, exact):
    monkeypatch.setattr(generators, "MAX_MEMBERS", members)
    total = sum(len(e) for e in build().edges)
    assert total == members if exact else total >= members
    monkeypatch.setattr(generators, "MAX_MEMBERS", members - 1)
    monkeypatch.setattr(hl.Hypergraph, "from_edges", None)  # nothing is built
    with pytest.raises(hl.BadParametersError, match="edge members"):
        build()
