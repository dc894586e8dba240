"""One cached analysis per input.

An :class:`Analysis` is a Hypergraph that computes each derived quantity
once, on first use.  Bounds, cuts and reports call :func:`analyze` on the
hypergraph they are given, so passing one Analysis to all of them computes
each quantity once per input.  It keeps the subset scan once computed, so
build one per input and drop it with that input; it is not attached to the
Hypergraph it came from.

Exact max cut and the isoperimetric number enumerate vertex subsets, so
they are capped at ENUMERATION_CAP vertices.  Since a cut and its
complement have the same boundary, only subsets avoiding vertex n-1 are
scanned (half the masks).  Ratios are compared as exact rationals; floats
only preselect candidates, with a cushion far below the coarsest possible
ratio gap.
"""

from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from ._kernels import subset_scan
from .core import (
    DegreeProfile,
    Hypergraph,
    adjacency_matrix,
    connected_components,
    degree_profile,
    laplacian_from_adjacency,
)
from .errors import TooLargeError, TooSmallError
from .spectral import ZERO_EIGENVALUE_TOL, Spectrum, eigendecompose, lambda2, lambda_n

ENUMERATION_CAP = 20
_PRESELECT_CUSHION = 1e-9


def _bits(mask: int, n: int) -> tuple:
    return tuple(v for v in range(n) if (mask >> v) & 1)


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
        subset_sizes = np.bitwise_count(np.arange(1 << p, dtype=np.int64))
        return boundary, quad, subset_sizes.astype(np.int64)

    @cached_property
    def max_cut(self) -> tuple:
        """(value, witness) of :func:`hyperlap.cuts.max_cut`."""
        boundary, _, _ = self.scan
        value = int(boundary.max())
        if value == 0:
            return 0, ()
        best = None
        for mask in np.flatnonzero(boundary == value):
            side = _bits(int(mask), self.n)
            inside = set(side)
            other = tuple(v for v in range(self.n) if v not in inside)
            cand = min(side, other)
            if best is None or cand < best:
                best = cand
        return value, best

    @cached_property
    def isoperimetric(self) -> tuple:
        """(value, witness) of :func:`hyperlap.cuts.isoperimetric`."""
        n = self.n
        if n < 2:
            raise TooSmallError("isoperimetric number needs at least two vertices")
        boundary, _, sizes = self.scan
        b = boundary.astype(np.float64)
        s = sizes.astype(np.float64)
        comp = float(n) - s

        with np.errstate(divide="ignore", invalid="ignore"):
            direct = np.where((sizes >= 1) & (2 * sizes <= n), b / s, np.inf)
            flipped = np.where(
                (n - sizes >= 1) & (2 * (n - sizes) <= n), b / comp, np.inf
            )
        approx = min(direct.min(), flipped.min())
        cutoff = approx + _PRESELECT_CUSHION

        best: Optional[Fraction] = None
        best_witness = None
        for mask in np.flatnonzero(np.minimum(direct, flipped) <= cutoff):
            mask = int(mask)
            count = int(boundary[mask])
            size = int(sizes[mask])
            candidates = []
            if 1 <= size and 2 * size <= n and direct[mask] <= cutoff:
                candidates.append((Fraction(count, size), _bits(mask, n)))
            flip_size = n - size
            if 1 <= flip_size and 2 * flip_size <= n and flipped[mask] <= cutoff:
                inside = set(_bits(mask, n))
                other = tuple(v for v in range(n) if v not in inside)
                candidates.append((Fraction(count, flip_size), other))
            for ratio, witness in candidates:
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and witness < best_witness)
                ):
                    best, best_witness = ratio, witness
        return best, best_witness


def analyze(h: Hypergraph) -> Analysis:
    """An Analysis of ``h``; ``h`` itself when it already is one."""
    if isinstance(h, Analysis):
        return h
    return Analysis(n=h.n, edges=h.edges, labels=h.labels)
