"""Symmetric eigensolver.

The solver is self-contained (kernels in :mod:`hyperlap._kernels`) and
works on one float64 copy of its input, so the int64 Laplacian stays
exact; it never calls LAPACK, so test oracles can cross-check it.  A warm
start (Householder tridiagonalisation, Sturm multisection and inverse
iteration, with Gram-Schmidt within clusters) gives a basis V of
approximate eigenvectors; the round-robin Jacobi iteration then starts from
V^T A V (made exactly symmetric) and V, and decides when V^T A V is
diagonal enough.  From a good warm start it takes 0 sweeps, and the
eigenvalues are the Rayleigh quotients on the diagonal; from a poor one it
rotates until V^T A V is diagonal.  Its rotations are orthogonal, so they
leave V^T V as it is: the eigenvectors are orthonormal only because the
warm start's V is, which Jacobi does not check (tests/test_spectral.py
asserts it beside each 0-sweep solve).
:func:`eigendecompose_stack` runs the warm start and V^T A V on a stack of
same-size matrices in one pass, then Jacobi on each matrix of the stack in
turn, so each matrix gets the same result, bit for bit, as solving it
alone.  The spectrum, connectivity and zero threshold of a hypergraph's
Laplacian are cached on its :class:`hyperlap.analysis.Analysis`.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import jacobi_sweeps, similarity, warm_start
from .errors import ConvergenceFailureError

# Convergence: off-diagonal Frobenius mass must drop below this times the
# input norm.  100 sweeps is far beyond what desk-scale matrices need: from
# the warm start they take 0, and from the identity n=128 takes about 7.
OFF_DIAGONAL_TOL = 1e-12
MAX_SWEEPS = 100

# An eigenvalue counts as zero (for connectivity) below 1e-8 * max(1, |L|_F).
ZERO_EIGENVALUE_TOL = 1e-8

_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues ascending; ``eigenvectors[:, i]`` pairs with
    ``eigenvalues[i]``.  Columns are unit vectors whose first component
    larger than 1e-12 in magnitude is positive.  ``sweeps`` is the number
    of Jacobi sweeps the solve took after its warm start."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def eigendecompose(matrix: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix, which may be of
    any real dtype and is left unmodified.

    Raises ValueError on a non-finite entry, and ConvergenceFailureError if
    MAX_SWEEPS sweeps run out before the off-diagonal norm reaches the
    tolerance.
    """
    a = np.array(matrix, dtype=np.float64)  # the kernel's working copy
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _solve(a[None])[0]


def eigendecompose_stack(matrices: np.ndarray) -> list:
    """:func:`eigendecompose` of each matrix of a (B, n, n) stack, as a list
    of B Spectra equal bit for bit to solving each matrix alone, with the
    same errors; the solve fails as a whole if any matrix fails."""
    a = np.array(matrices, dtype=np.float64)  # the kernel's working copy
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    return _solve(a)


def _solve(a: np.ndarray) -> list:
    """Spectra of the float64 stack ``a``, which the kernels overwrite: the
    warm start and V^T A V for the whole stack, then Jacobi on each matrix."""
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if not np.array_equal(a, a.transpose(0, 2, 1)):
        raise ValueError("matrix is not symmetric")
    n = a.shape[1]

    off_tol = [OFF_DIAGONAL_TOL * float(np.linalg.norm(x, "fro")) for x in a]
    v = warm_start(a)
    similarity(a, v)  # nearly diagonal when V is good
    sweeps = [jacobi_sweeps(x, y, MAX_SWEEPS, t) for x, y, t in zip(a, v, off_tol)]
    if any(s < 0 for s in sweeps):
        raise ConvergenceFailureError(
            f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps"
        )

    values = np.diagonal(a, axis1=1, axis2=2)
    order = np.argsort(values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(v, order[:, None, :], axis=2)
    if n > 0:  # argmax has nothing to reduce over an empty column
        # Flip each column whose first entry above _SIGN_TOL in magnitude is
        # negative; a column with no such entry stays as it is.
        large = np.abs(vectors) > _SIGN_TOL
        lead = np.argmax(large, axis=1)[:, None, :]
        first = np.take_along_axis(vectors, lead, axis=1)
        flip = large.any(axis=1, keepdims=True) & (first < 0.0)
        np.negative(vectors, out=vectors, where=flip)
    return [Spectrum(x, y, s) for x, y, s in zip(values, vectors, sweeps)]
