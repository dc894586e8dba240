"""Symmetric eigensolver and spectral connectivity tests.

The solver is a self-contained round-robin parallel Jacobi iteration (hot
loop in :mod:`hyperlap._kernels`); it never calls into LAPACK, so test oracles can
cross-check it against an independent routine.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import jacobi_sweeps
from .core import Hypergraph, connected_components, laplacian
from .errors import ConvergenceFailureError, TooSmallError

# Convergence: off-diagonal Frobenius mass must drop below this times the
# input norm.  100 sweeps is far beyond what desk-scale matrices need (n=128
# takes about 7).
OFF_DIAGONAL_TOL = 1e-12
MAX_SWEEPS = 100

# An eigenvalue counts as zero (for connectivity) below 1e-8 * max(1, |L|_F).
ZERO_EIGENVALUE_TOL = 1e-8

_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues ascending; ``eigenvectors[:, i]`` pairs with
    ``eigenvalues[i]``.  Columns are unit vectors whose first component
    larger than 1e-12 in magnitude is positive."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def eigendecompose(matrix: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix.

    Raises ConvergenceFailureError if the sweep budget runs out before the
    off-diagonal norm reaches the tolerance.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    n = m.shape[0]

    a = m.copy()
    v = np.eye(n)
    off_tol = OFF_DIAGONAL_TOL * float(np.linalg.norm(m, "fro"))
    sweeps = jacobi_sweeps(a, v, max_sweeps, off_tol)
    if sweeps < 0:
        raise ConvergenceFailureError(
            f"Jacobi iteration did not converge in {max_sweeps} sweeps"
        )

    values = np.diagonal(a).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order].copy()
    for col in range(n):
        for row in range(n):
            entry = vectors[row, col]
            if abs(entry) > _SIGN_TOL:
                if entry < 0.0:
                    vectors[:, col] = -vectors[:, col]
                break
    return Spectrum(values, vectors)


def lambda2(spectrum: Spectrum) -> float:
    """Second-smallest eigenvalue (algebraic connectivity)."""
    if spectrum.n < 2:
        raise TooSmallError("lambda_2 needs at least two vertices")
    return float(spectrum.eigenvalues[1])


def lambda_n(spectrum: Spectrum) -> float:
    """Largest eigenvalue."""
    if spectrum.n < 2:
        raise TooSmallError("lambda_n needs at least two vertices")
    return float(spectrum.eigenvalues[-1])


def fiedler_vector(spectrum: Spectrum) -> np.ndarray:
    """Eigenvector paired with lambda_2 (sign-normalized)."""
    if spectrum.n < 2:
        raise TooSmallError("Fiedler vector needs at least two vertices")
    return spectrum.eigenvectors[:, 1].copy()


def zero_threshold(lap: np.ndarray) -> float:
    return ZERO_EIGENVALUE_TOL * max(1.0, float(np.linalg.norm(lap, "fro")))


def spectral_component_count(spectrum: Spectrum, threshold: float) -> int:
    """Multiplicity of the zero eigenvalue at the given threshold."""
    return int(np.count_nonzero(np.abs(spectrum.eigenvalues) <= threshold))


def is_connected(h: Hypergraph) -> bool:
    """Union-find connectivity; the authority when the spectral answer is
    checked against it."""
    return len(connected_components(h)) == 1


def spectral_is_connected(h: Hypergraph, spectrum: Spectrum = None) -> bool:
    if h.n == 1:
        return True
    lap = laplacian(h)
    if spectrum is None:
        spectrum = eigendecompose(lap)
    return float(spectrum.eigenvalues[1]) > zero_threshold(lap)


def hypergraph_spectrum(h: Hypergraph) -> Spectrum:
    """Spectrum of the hypergraph Laplacian."""
    return eigendecompose(laplacian(h))
