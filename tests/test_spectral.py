"""Warm-started Jacobi eigensolver, spectral certificates, connectivity
agreement."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hyperlap as hl
from hyperlap import _kernels, core, spectral, verify


def _random_symmetric(rng, n):
    x = rng.uniform(-5.0, 5.0, size=(n, n))
    return (x + x.T) / 2.0


def _start_cold(monkeypatch):
    """Build the vectors from the identity, as Jacobi did before the warm
    start: the seam that the sweep-budget and sweep-count tests need, since
    a good warm start leaves Jacobi no sweep to take.  The reduction's
    first array is the stack's reflectors, (B, n, n)."""
    monkeypatch.setattr(
        spectral, "warm_start",
        lambda reduction: np.broadcast_to(np.eye(reduction[0].shape[1]), reduction[0].shape).copy(),
    )


@pytest.fixture
def cold_start(monkeypatch):
    _start_cold(monkeypatch)


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
        an = hl.analyze(g_overlap_heavy)
        assert an.lambda_n == pytest.approx(8.236067977499792, abs=1e-8)

    def test_path_lambda2(self, path4):
        an = hl.analyze(path4)
        assert an.lambda2 == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-10)


class TestEigendecompose:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hl.eigendecompose(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            hl.eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "matrix",
        [[[np.inf]], [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 1.0], [1.0, 0.0]]],
        ids=["inf", "nan", "inf-coupled"],
    )
    def test_rejects_non_finite(self, matrix):
        # Unchecked, an infinite entry gives NaN eigenvalues with no error, a
        # NaN fails the symmetry test, and an infinite coupling spends the
        # whole sweep budget.
        with pytest.raises(ValueError, match="non-finite"):
            hl.eigendecompose(np.array(matrix))
        with pytest.raises(ValueError, match="non-finite"):
            hl.eigendecompose_stack([np.zeros_like(matrix), matrix])

    def test_sweep_budget_exhaustion(self, cold_start, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(hl.ConvergenceFailureError, match="0 sweeps"):
            hl.eigendecompose(m).eigenvectors

    def test_diagonal_needs_no_sweeps(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
        s = hl.eigendecompose(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(s.eigenvalues, [1.0, 2.0, 3.0])
        assert s.sweeps == 0

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
        an = hl.analyze(h)
        lo, hi = an.lambda2, an.lambda_n
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
    f = hl.analyze(h).spectrum.eigenvectors[:, 1]
    assert f.shape == (3,)
    assert f[0] == pytest.approx(0.0, abs=1e-10)
    assert f[1] > 0.0 > f[2]  # sign rule: first non-negligible entry positive


def test_small_spectrum_errors():
    an = hl.analyze(hl.Hypergraph.from_edges([], n=1))
    for name, message in (("lambda2", "lambda_2 needs at least two vertices"),
                          ("lambda_n", "lambda_n needs at least two vertices")):
        with pytest.raises(hl.TooSmallError) as exc:
            getattr(an, name)
        assert str(exc.value) == message
    with pytest.raises(hl.TooSmallError) as exc:
        hl.fiedler_sweep(an)
    assert str(exc.value) == "sweep cut needs at least two vertices"


def test_zero_multiplicity_counts_components():
    for seed in range(120):
        n = 4 + seed % 6
        h = hl.random_hypergraph(n=n, m=2 + seed % 4, k_min=2, k_max=4, seed=seed)
        an = hl.analyze(h)
        k = np.count_nonzero(np.abs(an.spectrum.eigenvalues) <= an.zero_threshold)
        assert k == len(hl.connected_components(h))
        assert (an.lambda2 > an.zero_threshold) == an.connected


def test_single_vertex_connected():
    an = hl.analyze(hl.Hypergraph.from_edges([], n=1))
    assert an.connected
    assert np.count_nonzero(np.abs(an.spectrum.eigenvalues) <= an.zero_threshold) == 1


# The golden inputs (tests/test_golden.py) as generator calls.
GOLDEN = {
    "n40": lambda: hl.random_hypergraph(40, 3000, 2, 8, 11),
    "r18": lambda: hl.random_hypergraph(18, 40, 2, 4, 7),
    "k16": lambda: hl.complete_kgraph(16, 2),
    "k20": lambda: hl.complete_kgraph(20, 3),
}


def _wilkinson_plus(n):
    """W_n^+: diagonal |i - (n-1)/2|, unit off-diagonals; its largest
    eigenvalues come in pairs that agree to many digits."""
    return (np.diag(np.abs(np.arange(n) - (n - 1) / 2))
            + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))


def _two_disjoint_k6():
    k6 = hl.analyze(hl.complete_kgraph(6, 2)).laplacian
    two = np.zeros((12, 12), dtype=np.int64)
    two[:6, :6] = two[6:, 6:] = k6
    return two


def _assert_warm_and_orthonormal(s):
    """0 sweeps, and columns orthonormal to 1e-12: Jacobi's rotations keep
    V^T V as the warm start left it, and its stopping test does not read it."""
    assert s.sweeps == 0
    v = s.eigenvectors
    assert np.abs(v.T @ v - np.eye(s.n)).max() <= 1e-12


class TestWarmStart:
    # Jacobi takes no sweep when the warm start's basis is already converged,
    # so a sweep count above 0 here means the warm start got worse and Jacobi
    # silently took the work back.
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_inputs_need_no_sweeps(self, name):
        _assert_warm_and_orthonormal(hl.analyze(GOLDEN[name]()).spectrum)

    def test_battery_stack_needs_no_sweeps(self):
        laplacians = [hl.analyze(h).laplacian
                      for _, h in hl.random_battery(12, 20, 2, 4, 40, 99)]
        for s in hl.eigendecompose_stack(laplacians):
            _assert_warm_and_orthonormal(s)

    @pytest.mark.parametrize("n", [64, 96, 128])
    def test_random_inputs_need_no_sweeps(self, n):
        lap = hl.analyze(hl.random_hypergraph(n, 5 * n, 2, 4, n)).laplacian
        _assert_warm_and_orthonormal(hl.eigendecompose(lap))

    @pytest.mark.parametrize(
        "matrix",
        [_wilkinson_plus(21), _two_disjoint_k6(), np.zeros((7, 7)),
         hl.analyze(hl.star_kgraph(3, 30)).laplacian,
         hl.analyze(hl.complete_kgraph(20, 3)).laplacian],
        ids=["wilkinson21", "two-k6", "zero", "star-3-30", "complete-20-3"],
    )
    def test_hard_cases_are_solved_to_rounding(self, matrix):
        # Near-equal pairs, equal eigenvalues in separate blocks, a zero
        # matrix and eigenvalues of multiplicity up to n - 2.
        s = hl.eigendecompose(matrix)
        scale = max(1.0, float(np.linalg.norm(matrix, "fro")))
        resid = matrix @ s.eigenvectors - s.eigenvectors * s.eigenvalues
        assert np.abs(resid).max() <= 1e-12 * scale
        _assert_warm_and_orthonormal(s)

    def test_start_vectors_are_fixed_hashes(self):
        # Hashed, not drawn: the same rows give the same values in any call.
        first = _kernels._start_vectors(np.arange(3, 6), 5)
        assert first.shape == (5, 3)
        assert np.array_equal(first, _kernels._start_vectors(np.arange(6), 5)[:, 3:])
        assert np.all((first >= -1.0) & (first < 1.0))


class TestLazySchedule:
    # Jacobi builds its round-robin schedule just before its first rotation,
    # so a solve that needs no sweep never builds it.
    def test_solves_that_need_no_sweep_build_no_schedule(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the Jacobi schedule was built")

        monkeypatch.setattr(_kernels, "_round_robin", refuse)
        for name in sorted(GOLDEN):
            assert hl.analyze(GOLDEN[name]()).spectrum.sweeps == 0
        laplacians = [hl.analyze(h).laplacian
                      for _, h in hl.random_battery(12, 20, 2, 4, 40, 99)]
        assert all(s.sweeps == 0 for s in hl.eigendecompose_stack(laplacians))

    def test_cold_solves_build_it_once_for_the_matrices_left(self, cold_start, monkeypatch):
        # Each entry of `built` is the index, within its solve, of the
        # matrix that Jacobi was rotating when the schedule was built.
        built, solving = [], []
        real_schedule, real_jacobi = _kernels._round_robin, spectral.jacobi_sweeps

        def record(n):
            built.append(len(solving) - 1)
            return real_schedule(n)

        def jacobi(*args):
            solving.append(args[0].shape[0])
            return real_jacobi(*args)

        monkeypatch.setattr(_kernels, "_round_robin", record)
        monkeypatch.setattr(spectral, "jacobi_sweeps", jacobi)
        assert hl.eigendecompose(_wilkinson_plus(9)).sweeps > 0
        assert built == [0]
        # The identity is diagonal from the start, so only the second matrix
        # is scheduled.
        built.clear()
        solving.clear()
        solved = hl.eigendecompose_stack([np.eye(4), _wilkinson_plus(4)])
        assert solved[0].sweeps == 0 and solved[1].sweeps > 0
        assert built == [1]


# Reference forms of the Sturm rows and of inverse iteration, in the plainest
# row-at-a-time numpy: the shipped loops, which take fewer numpy calls for
# the same arithmetic, must give the same arrays, bit for bit.
def _multisection_by_rows(d, e, lo, hi, start, stop):
    """Four numpy calls per row of each pass, with +inf outside each
    eigenvalue's block."""
    shifts_n, passes = _kernels._SHIFTS, _kernels._PASSES
    b, n = d.shape
    ends = np.empty((b, n, shifts_n + 2))
    ends[:, :, 0] = lo[:, None]
    ends[:, :, -1] = hi[:, None]
    flat = ends.reshape(-1)
    base = np.arange(b * n).reshape(b, n) * (shifts_n + 2)
    rank = (np.arange(n) - start)[:, :, None]
    frac = np.arange(1, shifts_n + 1) / (shifts_n + 1)
    idx = np.arange(n)[:, None, None]
    diag = np.where((start <= idx) & (idx < stop), d.T[:, :, None], np.inf)[..., None]
    e2 = (e * e).T[:, :, None, None]
    split = e2 == 0.0
    restart = split.any(axis=(1, 2, 3))
    negative = np.empty((n, b, n, shifts_n), dtype=bool)
    shifts = np.empty((b, n, shifts_n))
    q = np.empty((b, n, shifts_n))
    t = np.empty((b, n, shifts_n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(passes):
            lo, hi = ends[:, :, :1], ends[:, :, -1:]
            np.multiply(hi - lo, frac, out=shifts)
            shifts += lo
            ends[:, :, 1:-1] = shifts
            for i in range(n):
                np.subtract(diag[i], shifts, out=q if i == 0 else t)
                if i:
                    np.divide(e2[i - 1], q, out=q)
                    np.subtract(t, q, out=q)
                    if restart[i - 1]:
                        np.copyto(q, t, where=split[i - 1])
                np.less(q, 0.0, out=negative[i])
            below = base + (negative.sum(axis=0) <= rank).sum(axis=2)
            ends[:, :, 0], ends[:, :, -1] = flat[below], flat[below + 1]
    return 0.5 * (ends[:, :, 0] + ends[:, :, -1])


def _inverse_iteration_unfused(d, e, lam, rows, start, stop, pivot_tol):
    """The factorisation, then each solve's elimination and substitution,
    one row at a time with fresh temporaries."""
    b, n = d.shape
    c = lam.shape[1]
    idx = np.arange(n)[:, None, None]
    x = np.where((start <= idx) & (idx < stop),
                 _kernels._start_vectors(rows, n)[:, None, :], 0.0)
    u0 = np.empty((n, b, c))
    u1 = np.empty((n, b, c))
    u2 = np.zeros((n, b, c))
    mult = np.zeros((n, b, c))
    swap = np.zeros((n, b, c), dtype=bool)
    ee = np.concatenate([e, np.zeros((b, 1))], axis=1)[:, :, None]
    top, nxt = d[:, 0, None] - lam, np.broadcast_to(ee[:, 0], (b, c))
    for i in range(n - 1):
        sub = np.broadcast_to(ee[:, i], (b, c))
        diag = d[:, i + 1, None] - lam
        s = np.abs(sub) > np.abs(top)
        p0 = np.where(s, sub, top)
        u1[i] = np.where(s, diag, nxt)
        u2[i] = np.where(s, ee[:, i + 1], 0.0)
        m = np.divide(np.where(s, top, sub), p0, out=np.zeros((b, c)), where=p0 != 0.0)
        top = np.where(s, nxt, diag) - m * u1[i]
        nxt = np.where(s, 0.0, ee[:, i + 1]) - m * u2[i]
        u0[i], mult[i], swap[i] = p0, m, s
    u0[n - 1] = top
    tol = np.broadcast_to(pivot_tol[:, None], u0.shape)
    small = np.abs(u0) < tol
    u0[small] = np.copysign(tol[small], u0[small])
    for _ in range(_kernels._SOLVES):
        for i in range(n - 1):
            s = swap[i]
            top = np.where(s, x[i + 1], x[i])
            x[i + 1] = np.where(s, x[i], x[i + 1]) - mult[i] * top
            x[i] = top
        x[n - 1] /= u0[n - 1]
        if n > 1:
            x[n - 2] = (x[n - 2] - u1[n - 2] * x[n - 1]) / u0[n - 2]
        for i in range(n - 3, -1, -1):
            x[i] = (x[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
        x /= np.sqrt(np.sum(x * x, axis=0))
    return x.transpose(1, 2, 0)


def _assert_same_bits(x, y):
    assert x.shape == y.shape
    assert np.array_equal(x, y, equal_nan=True)
    assert np.array_equal(np.signbit(x), np.signbit(y))


def _assert_loops_match_oracles(stack):
    """The warm start's inputs to multisection and inverse iteration, as
    :func:`_kernels.warm_start` makes them from ``stack``, through the
    shipped loops and the oracles."""
    a = np.array(stack, dtype=np.float64)
    b, n = a.shape[0], a.shape[1]
    _, exp = np.frexp(np.abs(a).max(axis=(1, 2), initial=0.0))
    h = a * np.ldexp(1.0, -exp)[:, None, None]
    d, e, _ = _kernels._tridiagonalize(h)
    norm, lo, hi = _kernels._split_tridiagonal(d, e)
    start, stop = _kernels._blocks(e, n)
    per_pass, rows = _kernels._chunks(n, b)
    lam = _kernels._multisection(d, e, lo, hi, start, stop, rows)
    _assert_same_bits(lam, _multisection_by_rows(d, e, lo, hi, start, stop))
    pivot_tol = _kernels._PIVOT_TOL * np.where(norm > 0.0, norm, 1.0)
    for first in range(0, n, per_pass):
        cols = slice(first, first + per_pass)
        args = (d, e, lam[:, cols], np.arange(n)[cols], start[:, cols], stop[:, cols],
                pivot_tol)
        _assert_same_bits(_kernels._inverse_iteration(*args),
                          _inverse_iteration_unfused(*args))
    return e


class TestRewrittenLoopsMatchOracles:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_inputs(self, name):
        _assert_loops_match_oracles([hl.analyze(GOLDEN[name]()).laplacian])

    @pytest.mark.parametrize("shape", [(8, 6, 2, 4, 64, 12345), (12, 20, 2, 4, 28, 99)])
    def test_battery_stacks(self, shape):
        _assert_loops_match_oracles(
            [hl.analyze(h).laplacian for _, h in hl.random_battery(*shape)])

    @pytest.mark.parametrize(
        "matrix", [_wilkinson_plus(21), _two_disjoint_k6(), np.zeros((7, 7))],
        ids=["wilkinson21", "two-k6", "zero"])
    def test_hard_cases(self, matrix):
        _assert_loops_match_oracles([matrix])

    # Edgeless and disconnected batteries: T splits in some matrices of the
    # stack and not in others, and in every matrix of the edgeless one.
    @pytest.mark.parametrize("shape", [(7, 0, 2, 4, 6, 1), (9, 5, 2, 4, 30, 8)],
                             ids=["edgeless", "disconnected"])
    def test_split_batteries(self, shape):
        e = _assert_loops_match_oracles(
            [hl.analyze(h).laplacian for _, h in hl.random_battery(*shape)])
        assert np.any(e == 0.0)


class TestRestartInsideACluster:
    # Instance 18 of this battery has an isolated vertex, so 0 is a double
    # eigenvalue, but T does not split: both inverse iterations give the
    # same vector, and the first Gram-Schmidt pass leaves 3e-7 of the
    # second.  Normalised, that residual was 1.6e-10 off orthogonal to an
    # unrelated vector.
    @pytest.fixture
    def laplacian(self):
        _, h = hl.random_battery(8, 6, 2, 4, 40, 1359169625)[18]
        return hl.analyze(h).laplacian

    @staticmethod
    def _overlap(lap):
        v = hl.eigendecompose(lap).eigenvectors
        return np.abs(v.T @ v - np.eye(lap.shape[0])).max()

    def test_the_second_vector_is_recomputed_orthogonal(self, laplacian):
        assert self._overlap(laplacian) < 1e-14

    def test_without_the_restart_it_is_not(self, laplacian, monkeypatch):
        monkeypatch.setattr(_kernels, "_RESTART_TOL", 0.0)
        assert self._overlap(laplacian) > 1e-10

    def test_a_stack_restarts_only_its_own_matrix(self, laplacian):
        others = [hl.analyze(h).laplacian
                  for _, h in hl.random_battery(8, 6, 2, 4, 3, 5)]
        stack = hl.eigendecompose_stack([others[0], laplacian, *others[1:]])
        for lap, got in zip([others[0], laplacian, *others[1:]], stack):
            alone = hl.eigendecompose(lap)
            _assert_same_bits(got.eigenvalues, alone.eigenvalues)
            _assert_same_bits(got.eigenvectors, alone.eigenvectors)


def _solo_and_stack(n):
    """A seeded random symmetric matrix and a stack of three seeded
    Laplacians (zeros at n <= 1), all n-by-n."""
    solo = _random_symmetric(np.random.default_rng(n), n)
    if n < 2:
        return solo, np.zeros((3, n, n))
    m, k_max = min(2 * n, 2**n - n - 1), min(4, n)
    return solo, [hl.analyze(h).laplacian
                  for _, h in hl.random_battery(n, m, 2, k_max, 3, n)]


class TestChunking:
    # The warm start's loops take all eigenvalues and rows at once below
    # _CHUNK_BYTES and the large-n sizes above it; every spectrum must be the
    # same bits either way.
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 19, 40, 64, 65])
    def test_spectra_do_not_depend_on_the_chunking(self, monkeypatch, n):
        solo, stack = _solo_and_stack(n)
        solved = []
        for cap in (0, 2**40):
            monkeypatch.setattr(_kernels, "_CHUNK_BYTES", cap)
            solved.append([hl.eigendecompose(solo)] + hl.eigendecompose_stack(stack))
        small, whole = solved
        assert len(small) == len(whole) == 4
        for x, y in zip(small, whole):
            _assert_same_bits(x.eigenvalues, y.eigenvalues)
            _assert_same_bits(x.eigenvectors, y.eigenvectors)
            assert x.sweeps == y.sweeps

    @pytest.mark.parametrize("n, b, chunks", [
        (0, 1, (1, 1)), (1, 1, (1, 1)), (19, 1, (19, 19)), (34, 1, (34, 34)),
        (35, 1, (35, 4)), (40, 1, (40, 5)), (41, 1, (21, 5)), (64, 1, (32, 8)),
        (128, 1, (64, 16)), (2, 256, (2, 2)), (3, 256, (2, 1)), (4, 256, (2, 1)),
    ])
    def test_chunks_are_whole_at_small_n_and_keep_the_large_n_sizes(self, n, b, chunks):
        # (eigenvalues per pass, Sturm rows per chunk); README names the
        # largest n whose loops are whole for one matrix, 34 and 40.
        assert _kernels._chunks(n, b) == chunks

    def test_a_small_solve_takes_one_pass_and_one_chunk(self, monkeypatch):
        # The eigenvalues of each inverse-iteration pass, then the Sturm
        # rows of each multisection chunk.
        passes, chunks = [], []
        inverse_iteration, multisection = _kernels._inverse_iteration, _kernels._multisection

        def count_passes(d, e, lam, *args):
            passes.append(lam.shape[1])
            return inverse_iteration(d, e, lam, *args)

        def count_chunks(*args):
            chunks.append(args[-1])
            return multisection(*args)

        monkeypatch.setattr(_kernels, "_inverse_iteration", count_passes)
        monkeypatch.setattr(_kernels, "_multisection", count_chunks)
        for n, want in ((2, [2]), (16, [16]), (19, [19]), (64, [32, 32])):
            passes.clear()
            chunks.clear()
            hl.eigendecompose(_random_symmetric(np.random.default_rng(n), n)).eigenvectors
            assert passes == want
            assert chunks == [n if n <= 19 else n // 8]

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16, 19, 24, 30, 34, 35, 40, 41, 64])
    def test_whole_loops_hold_at_most_160_kib_more(self, monkeypatch, n):
        # One matrix's solve with its eigenvectors, by tracemalloc, at the
        # large-n sizes (_CHUNK_BYTES = 0) and as the solver runs.  Measured:
        # whole loops hold at most 154.5 KiB more, at n=34, where both are
        # whole, and peak at most 144 KiB above dense_bytes(n), which is 2.95
        # dense_bytes(n) at n=16, 2.83 at n=19 and 2.59 at n=34; from n=41
        # the two solves are the same.  A larger _CHUNK_BYTES makes whole
        # loops at larger n and fails the first bound (96 KiB: 176 KiB at
        # n=40).
        solo = _random_symmetric(np.random.default_rng(n), n)
        peaks = []
        for cap in (0, _kernels._CHUNK_BYTES):
            monkeypatch.setattr(_kernels, "_CHUNK_BYTES", cap)
            hl.eigendecompose(solo).eigenvectors  # keeps first-call allocations out
            tracemalloc.start()
            try:
                hl.eigendecompose(solo).eigenvectors
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        split, whole = peaks
        assert whole - split <= 160 << 10, f"{(whole - split) / 1024:.1f} KiB"
        assert whole <= core.dense_bytes(n) + (160 << 10), f"{whole / core.dense_bytes(n):.2f}"


@settings(max_examples=100, deadline=None)
@given(
    stack=st.tuples(st.integers(1, 5), st.integers(0, 9)).flatmap(
        lambda shape: hnp.arrays(np.float64, (shape[0], shape[1], shape[1]),
                                 elements=st.floats(-4.0, 4.0, width=32))
    )
)
def test_rewritten_loops_match_oracles_on_random_stacks(stack):
    _assert_loops_match_oracles(stack + stack.transpose(0, 2, 1))


def test_eigenvalues_match_a_40_digit_reference():
    # Every eigenvalue within 16 eps max|lambda| of mpmath's 40-digit solve.
    # Cold Jacobi missed by up to 37 (n40) and 163 (n=96) ulps of max|lambda|.
    mpmath = pytest.importorskip("mpmath")
    for h in (GOLDEN["n40"](), GOLDEN["r18"](), hl.random_hypergraph(96, 800, 2, 4, 3)):
        lap = hl.analyze(h).laplacian
        with mpmath.workdps(40):
            exact = mpmath.eigsy(mpmath.matrix(lap.tolist()), eigvals_only=True)
            want = np.array(sorted(float(x) for x in exact))
        got = hl.eigendecompose(lap).eigenvalues
        top = np.abs(want).max()
        assert np.abs(got - want).max() <= 16 * np.finfo(np.float64).eps * top


def test_the_solve_sorts_the_multisection_midpoints(monkeypatch):
    # Sturm counts in floating point need not be monotone in the shift, so
    # the midpoints of a multiple eigenvalue can descend: on K16 three times,
    # by up to 1.4e-14.  The midpoints of a split T follow its blocks, as on
    # the star.  Unsorted, verify on K16 fails: "eigenvalues not ascending".
    raw, multisection = [], _kernels._multisection

    def record(*args):
        raw.append(multisection(*args))
        return raw[-1]

    monkeypatch.setattr(_kernels, "_multisection", record)
    k16 = hl.analyze(GOLDEN["k16"]())
    assert verify._check_spectrum_certificates(k16, 0) is None
    assert np.any(np.diff(raw[0][0]) < 0)
    families = [hl.complete_kgraph(n, k) for n in range(4, 21, 4) for k in (2, 3)]
    families += [hl.star_kgraph(k, r) for k in (2, 3, 4) for r in (2, 10, 20)]
    for h in families:
        assert np.all(np.diff(hl.analyze(h).spectrum.eigenvalues) >= 0)


def _run_cli(argv, **env):
    """``cli.run(argv)`` in a fresh interpreter with extra environment."""
    code = "import sys\nfrom hyperlap import cli\nsys.exit(cli.run(sys.argv[1:]))\n"
    src = str(Path(hl.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=120)


def test_printed_spectrum_does_not_depend_on_the_blas_kernel(tmp_path):
    # The solver calls no matrix product, whose rounding differs between
    # BLAS kernels (with and without fused multiply-adds): through one, an
    # older kernel moved a printed eigenvalue of n40 in its last digit.  An
    # OpenBLAS built for one CPU ignores the variable, and the test is then
    # trivially true.
    path = tmp_path / "n40.hg"
    hl.dump(GOLDEN["n40"](), str(path))
    runs = [_run_cli(["spectrum", str(path)], OPENBLAS_CORETYPE=core)
            for core in ("Haswell", "Sandybridge", "Prescott")]
    assert all(run.returncode == 0 for run in runs)
    assert len({run.stdout for run in runs}) == 1


def test_solving_does_not_import_numpy_random():
    # numpy.random adds about 6 MiB of resident memory when imported; the
    # warm start hashes its start vectors instead.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import hyperlap\n"
        "from hyperlap import cli\n"
        "hyperlap.eigendecompose(np.eye(3))\n"
        "cli.run(['verify', '--random', '8', '6', '2', '4', '5', '1'])\n"
        "sys.exit(2 if 'numpy.random' in sys.modules else 0)\n"
    )
    src = str(Path(hl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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


def _assert_same_spectrum(stacked, alone):
    """Equal bit for bit, down to the sign of every zero."""
    for x, y in ((stacked.eigenvalues, alone.eigenvalues),
                 (stacked.eigenvectors, alone.eigenvectors)):
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))
    assert stacked.sweeps == alone.sweeps


class TestStackedSolve:
    # (n, m, k_min, k_max, count, seed): chunk-spanning, disconnected, m=0
    # and odd-n batteries.
    @pytest.mark.parametrize(
        "shape",
        [(5, 2, 2, 4, 60, 3), (7, 0, 2, 4, 6, 1), (9, 5, 2, 4, 30, 8),
         (12, 20, 2, 4, 28, 99), (2, 1, 2, 2, 5, 4)],
    )
    def test_stack_equals_each_solve_bit_for_bit(self, shape, monkeypatch):
        laplacians = [hl.analyze(h).laplacian for _, h in hl.random_battery(*shape)]
        stacked = hl.eigendecompose_stack(laplacians)
        assert len(stacked) == len(laplacians)
        for spectrum, lap in zip(stacked, laplacians):
            _assert_same_spectrum(spectrum, hl.eigendecompose(lap))
        assert all(spectrum.sweeps == 0 for spectrum in stacked)
        # From the identity, Jacobi does the work, and the stack still
        # equals each solve.
        _start_cold(monkeypatch)
        stacked = hl.eigendecompose_stack(laplacians)
        for spectrum, lap in zip(stacked, laplacians):
            _assert_same_spectrum(spectrum, hl.eigendecompose(lap))
        assert any(spectrum.sweeps > 0 for spectrum in stacked) == (shape[1] > 0)

    def test_stack_of_random_matrices_converging_apart(self, monkeypatch):
        rng = np.random.default_rng(9)
        stack = [np.diag(rng.uniform(-5.0, 5.0, 6)) for _ in range(3)]
        stack += [_random_symmetric(rng, 6) for _ in range(5)]
        for spectrum, m in zip(hl.eigendecompose_stack(stack), stack):
            _assert_same_spectrum(spectrum, hl.eigendecompose(m))
        # From the identity, matrices of one stack need different sweep
        # counts: each stops at its own, as it would alone.
        _start_cold(monkeypatch)
        solved = hl.eigendecompose_stack(stack)
        assert len({s.sweeps for s in solved}) > 1
        for spectrum, m in zip(solved, stack):
            _assert_same_spectrum(spectrum, hl.eigendecompose(m))

    def test_sweep_budget_exhaustion_has_the_same_text(self, cold_start, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(hl.ConvergenceFailureError) as alone:
            hl.eigendecompose(m).eigenvectors
        with pytest.raises(hl.ConvergenceFailureError) as stacked:
            hl.eigendecompose_stack([np.eye(2), m])[0].eigenvectors
        assert str(stacked.value) == str(alone.value)

    def test_rejects_what_the_single_solve_rejects(self):
        with pytest.raises(ValueError, match="square"):
            hl.eigendecompose_stack(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="square"):
            hl.eigendecompose_stack(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not symmetric"):
            hl.eigendecompose_stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_two_dimensional_binding_returns_an_int(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        v = np.eye(2)
        sweeps = _kernels.jacobi_sweeps(a, v, spectral.MAX_SWEEPS, 1e-12)
        assert type(sweeps) is int and sweeps > 0
        np.testing.assert_allclose(np.sort(np.diagonal(a)), [1.0, 3.0], atol=1e-12)

    def test_kernel_refuses_a_stack_it_cannot_rotate_in_place(self):
        a = np.eye(4)[::2, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            _kernels.jacobi_sweeps(a, np.eye(2), 5, 0.0)


@settings(max_examples=150, deadline=None)
@given(
    stack=st.tuples(st.integers(1, 8), st.integers(0, 6)).flatmap(
        lambda shape: hnp.arrays(np.int64, (shape[0], shape[1], shape[1]),
                                 elements=st.integers(-6, 6))
    )
)
def test_stacked_solve_matches_each_solve_on_integer_stacks(stack):
    symmetric = stack + stack.transpose(0, 2, 1)
    for spectrum, m in zip(hl.eigendecompose_stack(symmetric), symmetric):
        _assert_same_spectrum(spectrum, hl.eigendecompose(m))
