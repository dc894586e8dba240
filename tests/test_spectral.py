"""Jacobi eigensolver, spectral certificates, connectivity agreement."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import hyperlap as hl
from hyperlap import _kernels, spectral


def _random_symmetric(rng, n):
    x = rng.uniform(-5.0, 5.0, size=(n, n))
    return (x + x.T) / 2.0


def _connected_instances(count, start_seed=0, n_lo=4, n_hi=10):
    out = []
    seed = start_seed
    while len(out) < count:
        n = n_lo + seed % (n_hi - n_lo + 1)
        h = hl.random_hypergraph(n=n, m=n, k_min=2, k_max=4, seed=seed)
        seed += 1
        if hl.analyze(h).connected:
            out.append(h)
    return out


class TestKnownSpectra:
    def test_single_edge(self, k2):
        s = hl.analyze(k2).spectrum
        np.testing.assert_allclose(s.eigenvalues, [0.0, 2.0], atol=1e-12)
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            s.eigenvectors, [[r, r], [r, -r]], atol=1e-12
        )

    def test_complete_triples(self):
        s = hl.analyze(hl.complete_kgraph(4, 3)).spectrum
        np.testing.assert_allclose(s.eigenvalues, [0.0, 8.0, 8.0, 8.0], atol=1e-8)

    def test_uniform_cycle(self, g_uniform_cycle):
        s = hl.analyze(g_uniform_cycle).spectrum
        np.testing.assert_allclose(
            s.eigenvalues, [0.0, 2.0, 4.0, 6.0, 6.0, 6.0], atol=1e-8
        )

    def test_mixed_sizes(self, g_mixed_sizes):
        s = hl.analyze(g_mixed_sizes).spectrum
        np.testing.assert_allclose(
            s.eigenvalues, [0.0, 3.0, 3.0, 6.0, 7.0, 7.0], atol=1e-8
        )

    def test_overlap_heavy_top_eigenvalue(self, g_overlap_heavy):
        # frozen: agrees with an independent dense solver to 12 digits
        s = hl.analyze(g_overlap_heavy).spectrum
        assert hl.lambda_n(s) == pytest.approx(8.236067977499792, abs=1e-8)

    def test_path_lambda2(self, path4):
        s = hl.analyze(path4).spectrum
        assert hl.lambda2(s) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-10)


class TestEigendecompose:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hl.eigendecompose(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            hl.eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sweep_budget_exhaustion(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(hl.ConvergenceFailureError, match="0 sweeps"):
            hl.eigendecompose(m, max_sweeps=0)

    def test_diagonal_needs_no_sweeps(self):
        s = hl.eigendecompose(np.diag([3.0, 1.0, 2.0]), max_sweeps=0)
        np.testing.assert_array_equal(s.eigenvalues, [1.0, 2.0, 3.0])

    def test_deterministic(self, g_mixed_sizes):
        lap = hl.analyze(g_mixed_sizes).laplacian
        s1 = hl.eigendecompose(lap)
        s2 = hl.eigendecompose(lap)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_matches_independent_solver(self):
        rng = np.random.default_rng(20250401)
        for trial in range(100):
            n = 2 + trial % 11
            m = _random_symmetric(rng, n)
            got = hl.eigendecompose(m)
            want = np.linalg.eigvalsh(m)
            np.testing.assert_allclose(got.eigenvalues, want, atol=1e-8)

    def test_certificates_on_random_matrices(self):
        # residual, orthonormality, ordering, sign rule
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = 2 + trial % 11
            m = _random_symmetric(rng, n)
            s = hl.eigendecompose(m)
            scale = max(1.0, float(np.linalg.norm(m, "fro")))
            resid = m @ s.eigenvectors - s.eigenvectors * s.eigenvalues
            assert np.linalg.norm(resid, axis=0).max() <= 1e-8 * scale
            gram = s.eigenvectors.T @ s.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(s.eigenvalues) >= 0.0)
            for col in range(n):
                lead = s.eigenvectors[:, col][
                    np.abs(s.eigenvectors[:, col]) > 1e-12
                ][0]
                assert lead > 0.0

    def test_rayleigh_never_exceeds_top(self):
        rng = np.random.default_rng(991)
        for trial in range(100):
            n = 2 + trial % 11
            m = _random_symmetric(rng, n)
            s = hl.eigendecompose(m)
            v = rng.normal(size=(1000, n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            quad = np.einsum("ij,jk,ik->i", v, m, v)
            assert quad.max() <= s.eigenvalues[-1] + 1e-8
            assert quad.min() >= s.eigenvalues[0] - 1e-8

    def test_trace_conservation(self):
        rng = np.random.default_rng(5150)
        for trial in range(100):
            n = 2 + trial % 11
            m = _random_symmetric(rng, n)
            s = hl.eigendecompose(m)
            tr = float(np.trace(m))
            assert abs(s.eigenvalues.sum() - tr) <= 1e-8 * max(1.0, abs(tr))


def test_fiedler_variational_bound():
    # lambda_2 <= 2n * sum_{i~j} a_ij (w_i - w_j)^2 / sum_{i,j} (w_i - w_j)^2
    # <= lambda_n for every non-constant w on a connected hypergraph.
    rng = np.random.default_rng(31)
    for h in _connected_instances(100, start_seed=1000):
        a = hl.adjacency_matrix(h)
        s = hl.analyze(h).spectrum
        lo, hi = hl.lambda2(s), hl.lambda_n(s)
        tol = 1e-8 * max(1.0, hi)
        w = rng.normal(size=(50, h.n))
        diff2 = (w[:, :, None] - w[:, None, :]) ** 2
        num = 0.5 * np.einsum("kij,ij->k", diff2, a)
        den = diff2.sum(axis=(1, 2))
        assert np.all(den > 1e-12)
        ratio = 2.0 * h.n * num / den
        assert np.all(ratio >= lo - tol)
        assert np.all(ratio <= hi + tol)


def test_fiedler_vector_shape_and_sign():
    h = hl.Hypergraph.from_edges([(0, 1), (0, 2)], n=3)
    s = hl.analyze(h).spectrum
    f = hl.fiedler_vector(s)
    assert f.shape == (3,)
    assert f[0] == pytest.approx(0.0, abs=1e-10)
    assert f[1] > 0.0 > f[2]  # sign rule: first non-negligible entry positive


def test_small_spectrum_errors():
    s = hl.eigendecompose(np.zeros((1, 1)))
    for fn in (hl.lambda2, hl.lambda_n, hl.fiedler_vector):
        with pytest.raises(hl.TooSmallError):
            fn(s)


def test_zero_multiplicity_counts_components():
    for seed in range(120):
        n = 4 + seed % 6
        h = hl.random_hypergraph(n=n, m=2 + seed % 4, k_min=2, k_max=4, seed=seed)
        an = hl.analyze(h)
        k = hl.spectral_component_count(an.spectrum, an.zero_threshold)
        assert k == len(hl.connected_components(h))
        assert (an.lambda2 > an.zero_threshold) == an.connected


def test_single_vertex_connected():
    an = hl.analyze(hl.Hypergraph.from_edges([], n=1))
    assert an.connected
    assert hl.spectral_component_count(an.spectrum, an.zero_threshold) == 1


class TestRoundRobinJacobi:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_schedule_steps_are_disjoint_and_cover_each_pair_once(self, n):
        seen = []
        for p, q in _kernels._round_robin(n):
            assert np.all(p < q) and np.all(q < n)
            touched = np.concatenate([p, q])
            assert np.unique(touched).size == touched.size
            seen += list(zip(p.tolist(), q.tolist()))
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    @staticmethod
    def _laplacian(n, seed):
        # The kernel rotates a float64 matrix in place; the Laplacian is int64.
        if n == 1:
            h = hl.Hypergraph.from_edges([], n=1)
        else:
            m = 2 * n if n > 3 else n - 1
            h = hl.random_hypergraph(n=n, m=m, k_min=2, k_max=min(4, n), seed=seed)
        return hl.analyze(h).laplacian.astype(np.float64)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64])
    def test_matches_eigh_with_small_residual(self, n):
        rng = np.random.default_rng(1000 + n)
        for m in (_random_symmetric(rng, n), self._laplacian(n, n)):
            a = m.copy()
            v = np.eye(n)
            off_tol = spectral.OFF_DIAGONAL_TOL * float(np.linalg.norm(m, "fro"))
            assert _kernels.jacobi_sweeps(a, v, spectral.MAX_SWEEPS, off_tol) >= 0
            bound = 1e-10 * max(1.0, float(np.linalg.norm(m, "fro")))
            values = np.diagonal(a)
            np.testing.assert_allclose(
                np.sort(values), np.linalg.eigvalsh(m), rtol=0.0, atol=bound
            )
            assert np.abs(m @ v - v * values).max() <= bound
            assert np.abs(v.T @ v - np.eye(n)).max() <= bound

    def test_tiny_off_diagonal_entries_raise_no_warning(self):
        # |a_pq| from 1e-200 to 1: tau reaches about 1e200, whose square
        # overflows, so the rotation must not be computed from sqrt(1+tau^2).
        rng = np.random.default_rng(44)
        n = 12
        mag = 10.0 ** -rng.uniform(0.0, 200.0, size=(n, n))
        x = np.triu(mag * rng.choice([-1.0, 1.0], size=(n, n)), 1)
        wide = x + x.T + np.diag(rng.uniform(-5.0, 5.0, size=n))
        wide[0, 1] = wide[1, 0] = 1e-200
        wide[2, 3] = wide[3, 2] = 1.0
        # A subnormal a_pq next to a diagonal gap of 10: tau itself overflows.
        subnormal = np.array([[0.0, 1e-320, 0.0], [1e-320, 10.0, 1.0], [0.0, 1.0, 5.0]])
        for m in (wide, subnormal):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                s = hl.eigendecompose(m)
            np.testing.assert_allclose(
                s.eigenvalues,
                np.linalg.eigvalsh(m),
                rtol=0.0,
                atol=1e-10 * np.linalg.norm(m),
            )
