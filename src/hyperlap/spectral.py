"""Symmetric eigensolver.

The solver is self-contained (kernels in :mod:`hyperlap._kernels`) and
works on one float64 copy of its input, so the int64 Laplacian stays
exact; it never calls LAPACK, so test oracles can cross-check it.  The
eigenvalues are the sorted midpoints of Sturm multisection on the
Householder tridiagonal form.  The eigenvectors, which only the Fiedler
sweep and ``verify`` read, are built on first read: inverse iteration
gives a basis V (the warm start), and round-robin Jacobi, from V^T A V
(made exactly symmetric) and V, rotates until V^T A V is diagonal enough
(0 sweeps from a good V); its diagonal orders the vectors.  Its rotations
leave V^T V as it is, which Jacobi does not check (tests/test_spectral.py
asserts it beside each 0-sweep solve).  A stack of same-size matrices
(:func:`eigendecompose_stack`) runs each stage at once, and Jacobi on each
matrix in turn, so each matrix gets the same bits as it would alone.  An
:class:`hyperlap.analysis.Analysis` caches its Laplacian's spectrum.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import jacobi_sweeps, similarity, tridiagonal_eigenvalues, warm_start
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
    of Jacobi sweeps the solve took after its warm start.  Both are built
    on first read, for every matrix of the solve (:class:`_Basis`)."""

    eigenvalues: np.ndarray
    _basis: "_Basis" = field(repr=False, compare=False)
    _index: int

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._basis.built()[0][self._index]

    @property
    def sweeps(self) -> int:
        return self._basis.built()[1][self._index]


def eigendecompose(matrix: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix, which may be of
    any real dtype and is left unmodified.

    Raises ValueError on a non-finite entry; a read of its eigenvectors or
    sweeps raises ConvergenceFailureError if MAX_SWEEPS sweeps run out
    before the off-diagonal norm reaches the tolerance.
    """
    a = np.array(matrix, dtype=np.float64)  # the kernel's working copy
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _solve(a[None])[0]


def eigendecompose_stack(matrices: np.ndarray) -> list:
    """:func:`eigendecompose` of each matrix of a (B, n, n) stack, as a list
    of B Spectra equal bit for bit to solving each matrix alone, with the
    same errors; the vectors fail as a whole if any matrix fails."""
    a = np.array(matrices, dtype=np.float64)  # the kernel's working copy
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    return _solve(a)


def _solve(a: np.ndarray) -> list:
    """Spectra of the float64 stack ``a``: its eigenvalues now, and a
    :class:`_Basis` that builds their vectors on first read."""
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if not np.array_equal(a, a.transpose(0, 2, 1)):
        raise ValueError("matrix is not symmetric")
    off_tol = [OFF_DIAGONAL_TOL * float(np.linalg.norm(x, "fro")) for x in a]
    values, reduction = tridiagonal_eigenvalues(a)
    basis = _Basis(reduction, off_tol)
    return [Spectrum(x, basis, i) for i, x in enumerate(values)]


class _Basis:
    """(eigenvectors, sweeps) of one solve's stack, built on the first
    :meth:`built`: the warm start and V^T A V for the whole stack, then
    Jacobi on each matrix, whose diagonal orders the vectors."""

    def __init__(self, reduction: tuple, off_tol: list):
        self._pending, self._built = (reduction, off_tol), None

    def built(self) -> tuple:
        if self._built is None:
            (reduction, off_tol), self._pending = self._pending, None
            v = warm_start(reduction)
            a = reduction[0]  # the matrices above the reflectors; overwritten
            similarity(a, v)  # nearly diagonal when V is good
            sweeps = [jacobi_sweeps(x, y, MAX_SWEEPS, t) for x, y, t in zip(a, v, off_tol)]
            order = np.argsort(np.diagonal(a, axis1=1, axis2=2), axis=1, kind="stable")
            vectors = np.take_along_axis(v, order[:, None, :], axis=2)
            if a.shape[1] > 0:  # argmax has nothing to reduce over an empty column
                # Flip each column whose first entry above _SIGN_TOL in magnitude
                # is negative; a column with no such entry stays as it is.
                large = np.abs(vectors) > _SIGN_TOL
                lead = np.argmax(large, axis=1)[:, None, :]
                first = np.take_along_axis(vectors, lead, axis=1)
                flip = large.any(axis=1, keepdims=True) & (first < 0.0)
                np.negative(vectors, out=vectors, where=flip)
            self._built = vectors, sweeps
        if min(self._built[1]) < 0:  # so every read of a failed build raises
            raise ConvergenceFailureError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps"
            )
        return self._built
