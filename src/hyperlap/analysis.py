"""One cached analysis per input.

An :class:`Analysis` is a Hypergraph that computes each derived quantity
once, on first use.  Bounds, cuts and reports call :func:`analyze` on the
hypergraph they are given, so passing one Analysis to all of them computes
each quantity once per input.  It keeps the subset scan once computed, so
build one per input and drop it with that input; it is not attached to the
Hypergraph it came from.
"""

from functools import cached_property

import numpy as np

from ._kernels import popcount_array, subset_scan
from .core import (
    DegreeProfile,
    Hypergraph,
    adjacency_matrix,
    connected_components,
    degree_profile,
    laplacian_from_adjacency,
)
from .errors import TooLargeError
from .spectral import ZERO_EIGENVALUE_TOL, Spectrum, eigendecompose, lambda2, lambda_n

ENUMERATION_CAP = 20


class Analysis(Hypergraph):
    """A hypergraph with its derived quantities, each computed once on
    first use.  Build one with :func:`analyze`."""

    @cached_property
    def degrees(self) -> DegreeProfile:
        return degree_profile(self)

    @cached_property
    def adjacency(self) -> np.ndarray:
        return adjacency_matrix(self)

    @cached_property
    def laplacian(self) -> np.ndarray:
        return laplacian_from_adjacency(self.adjacency)

    @cached_property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.laplacian, "fro"))

    @property
    def zero_threshold(self) -> float:
        """``spectral.zero_threshold`` of the Laplacian, from the cached norm."""
        return ZERO_EIGENVALUE_TOL * max(1.0, self.frobenius)

    @cached_property
    def spectrum(self) -> Spectrum:
        return eigendecompose(self.laplacian)

    @property
    def lambda2(self) -> float:
        """Raises TooSmallError below two vertices."""
        return lambda2(self.spectrum)

    @property
    def lambda_n(self) -> float:
        """Raises TooSmallError below two vertices."""
        return lambda_n(self.spectrum)

    @cached_property
    def components(self) -> list:
        return connected_components(self)

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    @property
    def enumerable(self) -> bool:
        return self.n <= ENUMERATION_CAP

    def require_enumerable(self) -> None:
        if not self.enumerable:
            raise TooLargeError(
                f"exact enumeration capped at {ENUMERATION_CAP} vertices, got {self.n}"
            )

    @cached_property
    def scan(self) -> tuple:
        """Kernel scan over all subsets of {0..n-2}: (boundary, quad, sizes),
        indexed by subset bitmask.  Raises TooLargeError above
        ENUMERATION_CAP vertices."""
        self.require_enumerable()
        p = self.n - 1
        masks = np.array(
            [sum(1 << v for v in e) for e in self.edges], dtype=np.int64
        ).reshape(-1)
        sizes = np.array([len(e) for e in self.edges], dtype=np.int64).reshape(-1)
        boundary, quad = subset_scan(masks, sizes, p)
        subset_sizes = popcount_array(np.arange(1 << p, dtype=np.int64))
        return boundary, quad, subset_sizes


def analyze(h: Hypergraph) -> Analysis:
    """An Analysis of ``h``; ``h`` itself when it already is one."""
    if isinstance(h, Analysis):
        return h
    return Analysis(n=h.n, edges=h.edges, labels=h.labels)
