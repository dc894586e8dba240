"""One cached analysis per input.

An :class:`Analysis` is a Hypergraph that computes each derived quantity
once, on first use.  Bounds, cuts and reports call :func:`analyze` on the
hypergraph they are given, so passing one Analysis to all of them computes
each quantity once per input, including the incidence table that every
per-edge pass reads (``Hypergraph.edge_reduce``) and the lambda_n bounds
(``Analysis.bounds``) that every bound reader reads.  It keeps the
subset scan once computed, so build one per input and drop it with that
input; it is not attached to the Hypergraph it came from.

Exact max cut and the isoperimetric number enumerate vertex subsets, so
they are capped at ENUMERATION_CAP vertices.  Since a cut and its
complement have the same boundary, only subsets avoiding vertex n-1 are
scanned (half the masks).  The scan gets every boundary from one subset-sum
transform of the edge list, in O(n 2**n) whatever the edge count.  Values
and witnesses are chosen in integer arithmetic: the isoperimetric number is
the least of at most n/2 exact Fractions (the smallest boundary per subset
size, taken in one pass over the scan, with size t folded together with
size n - t), its minimisers are the masks whose boundary equals the value
times their size or their complement's, and both witnesses come from one
rule, :func:`_lex_least`.  No float takes part in either choice.
"""

from fractions import Fraction
from functools import cached_property

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


def _lex_least(sides: np.ndarray) -> tuple:
    """The lexicographically least sorted vertex tuple among ``sides``, an
    int64 array of distinct nonzero vertex bitmasks.  Each step keeps the
    sides whose lowest remaining vertex is least and clears that vertex; a
    side left with no vertex is a prefix of every other kept side, so it is
    the least."""
    witness = []
    while True:
        low = sides & -sides
        least = int(low.min())
        witness.append(least.bit_length() - 1)
        sides = sides[low == least] ^ least
        if not sides.all():
            return tuple(witness)


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
        """An eigenvalue counts as zero (for connectivity) at or below this."""
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
    def bounds(self) -> dict:
        """Every applicable lambda_n bound, name -> BoundReport in report
        order.  Raises TooSmallError below two vertices."""
        from .bounds import _evaluate  # bounds imports this module

        return _evaluate(self)

    @cached_property
    def components(self) -> list:
        return connected_components(self)

    @property
    def connected(self) -> bool:
        """Union-find connectivity, the authority that the spectral answer
        is checked against."""
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
    def edge_masks(self) -> np.ndarray:
        """Each edge as an int64 bitmask of its vertices, in edge order; an
        edge's size is its mask's bit count.  Raises TooLargeError above
        ENUMERATION_CAP vertices, as :attr:`scan` does."""
        self.require_enumerable()
        return self.edge_reduce(np.bitwise_or, 1 << np.arange(self.n, dtype=np.int64))

    @cached_property
    def scan(self) -> tuple:
        """Kernel scan over all subsets of {0..n-2}: (boundary, sizes), the
        boundary edge count and size of each subset, indexed by subset
        bitmask.  Raises TooLargeError above ENUMERATION_CAP vertices."""
        self.require_enumerable()
        p = self.n - 1
        masks = self.edge_masks
        boundary = subset_scan(masks, np.bitwise_count(masks), p)
        subset_sizes = np.bitwise_count(np.arange(1 << p, dtype=np.int64))
        return boundary, subset_sizes.astype(np.int64)

    @cached_property
    def max_cut(self) -> tuple:
        """(value, witness) of :func:`hyperlap.cuts.max_cut`."""
        boundary, _ = self.scan
        value = int(boundary.max())
        if value == 0:
            return 0, ()
        best = np.flatnonzero(boundary == value)
        full = (1 << self.n) - 1
        return value, _lex_least(np.concatenate([best, full ^ best]))

    @cached_property
    def isoperimetric(self) -> tuple:
        """(value, witness) of :func:`hyperlap.cuts.isoperimetric`."""
        n = self.n
        if n < 2:
            raise TooSmallError("isoperimetric number needs at least two vertices")
        boundary, sizes = self.scan
        # A scanned mask of size s stands for itself (size s) and for its
        # complement (size n - s), which holds vertex n-1.
        least = np.full(n, boundary.max())
        np.minimum.at(least, sizes, boundary)
        value = min(
            Fraction(int(min(least[t], least[n - t])), t) for t in range(1, n // 2 + 1)
        )
        # need[t] is the boundary of a size-t minimiser with 1 <= t <= n/2,
        # and -1, which no boundary equals, where value * t is no integer.
        need = np.full(n + 1, -1, dtype=np.int64)
        t = np.arange(value.denominator, n // 2 + 1, value.denominator)
        need[t] = t // value.denominator * value.numerator
        direct = boundary == need[sizes]
        flipped = boundary == need[n - sizes]
        full = (1 << n) - 1
        sides = np.concatenate([np.flatnonzero(direct), full ^ np.flatnonzero(flipped)])
        return value, _lex_least(sides)


def analyze(h: Hypergraph) -> Analysis:
    """An Analysis of ``h``; ``h`` itself when it already is one."""
    if isinstance(h, Analysis):
        return h
    return Analysis(n=h.n, edges=h.edges, labels=h.labels)
