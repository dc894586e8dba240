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
they are refused when the scan's predicted bytes (``core.scan_bytes``)
exceed the budget ``core.MAX_DENSE_BYTES``, which admits n <= 28.  Since a
cut and its complement have the same boundary, only subsets avoiding
vertex n-1 are scanned (half the masks).  The scan gets every boundary from one subset-sum
transform of the edge list, in O(n 2**n) whatever the edge count.  Its
readers share one profile (``Analysis.profile``): the least and most
boundary among the scanned masks of each size.  The max cut and the
subset-sandwich check read their values and bounds from it, and the scan
is searched again only for witnesses and for a failed check's first
offending mask.  Values and witnesses are chosen in integer arithmetic: the
isoperimetric number is the least of at most n/2 exact Fractions (the
profile's least boundary per subset size, with size t folded together with
size n - t), its minimisers are the masks whose boundary equals the value
times their size or their complement's, searched for only among the
boundary values that the profile reaches, and both witnesses come from one
rule, :func:`_lex_least`.  No float takes part in either choice.

:func:`analyze_stream` analyses a stream of inputs, such as a battery, and
solves the spectra of consecutive same-size inputs as one stack.
"""

from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb
from typing import Iterable, Iterator

import numpy as np

from ._kernels import subset_scan
from .core import (
    DegreeProfile,
    Hypergraph,
    adjacency_matrix,
    connected_components,
    degree_profile,
    dense_bytes,
    fits_budget,
    laplacian_from_adjacency,
    require_budget,
    scan_bytes,
)
from .errors import TooSmallError
from .spectral import (
    ZERO_EIGENVALUE_TOL,
    Reduction,
    Spectrum,
    eigendecompose,
    eigendecompose_stack,
)


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


# A scanned mask's low bits, which give its column in :func:`_size_profile`.
_PROFILE_BITS = 12


def _size_profile(boundary: np.ndarray, n: int) -> tuple:
    """(least, most): the least and most of ``boundary`` among the scanned
    masks of each size 0..n-1, in the boundary's type.
    The masks of one row of 2**bits share their high part; taken in order
    of size, each run of a row's masks has one size.  The rows whose high
    parts have size c are first reduced, column by column, to one row,
    whose runs then hold the masks of sizes c..c+bits.  The order is made
    for each scan, not cached for the process: a cache's small arrays hold
    the heap's top in place, which raised the peak of later, unrelated
    inputs by up to 1 MiB."""
    bits = min(n - 1, _PROFILE_BITS)
    order = np.argsort(np.bitwise_count(np.arange(1 << bits)), kind="stable")
    starts = [0, *accumulate(comb(bits, j) for j in range(bits))]
    rows = boundary.reshape(-1, 1 << bits)
    if rows.shape[0] == 1:
        runs = boundary[order]
        return np.minimum.reduceat(runs, starts), np.maximum.reduceat(runs, starts)
    row_sizes = np.bitwise_count(np.arange(rows.shape[0]))
    least = np.full(n, np.iinfo(boundary.dtype).max, dtype=boundary.dtype)
    most = np.full(n, -1, dtype=boundary.dtype)
    for c in range(n - bits):
        block = rows[row_sizes == c]
        window = slice(c, c + bits + 1)
        lo = np.minimum.reduceat(block.min(axis=0)[order], starts)
        hi = np.maximum.reduceat(block.max(axis=0)[order], starts)
        np.minimum(least[window], lo, out=least[window])
        np.maximum(most[window], hi, out=most[window])
    return least, most


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
        if "_reduction" in vars(self):  # made by an earlier read: reuse it
            return self._reduction.spectrum()
        return eigendecompose(self.laplacian)

    @cached_property
    def _reduction(self) -> Reduction:
        return Reduction(self.laplacian)

    def _extremes(self) -> tuple:
        """(lambda_2, lambda_n): from the spectrum once it has been read,
        else from :attr:`Reduction.extremes`, or from the spectrum when
        that falls back."""
        if "spectrum" not in vars(self):
            found = self._reduction.extremes
            if found is not None:
                return found
        lam = self.spectrum.eigenvalues
        return float(lam[1]), float(lam[-1])

    @property
    def lambda2(self) -> float:
        """The second-smallest eigenvalue (algebraic connectivity), equal bit
        for bit to ``spectrum.eigenvalues[1]``.  Before the spectrum is read
        it comes from a multisection at six ranks, which costs a quarter to
        a half of the full one at n = 64 to 128.  Raises TooSmallError below
        two vertices."""
        if self.n < 2:
            raise TooSmallError("lambda_2 needs at least two vertices")
        return self._extremes()[0]

    @property
    def lambda_n(self) -> float:
        """The largest eigenvalue, equal bit for bit to
        ``spectrum.eigenvalues[-1]`` and read as :attr:`lambda2` is.  Raises
        TooSmallError below two vertices."""
        if self.n < 2:
            raise TooSmallError("lambda_n needs at least two vertices")
        return self._extremes()[1]

    @property
    def fiedler(self) -> np.ndarray:
        """The eigenvector of lambda_2 that the sweep cut orders by:
        ``spectrum.eigenvectors[:, 1]`` once the spectrum has been read,
        else :attr:`Reduction.fiedler`, one inverse iteration that builds no
        full basis and equals that column bit for bit when Jacobi takes 0
        sweeps, or the column when that falls back."""
        if "spectrum" not in vars(self):
            found = self._reduction.fiedler
            if found is not None:
                return found
        return self.spectrum.eigenvectors[:, 1]

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
        """Connectivity from the edges (:func:`~hyperlap.core.connected_components`),
        the authority that the spectral answer is checked against."""
        return len(self.components) == 1

    @property
    def enumerable(self) -> bool:
        """Whether the subset scan's predicted bytes are within budget."""
        return fits_budget(scan_bytes(self.n))

    def require_enumerable(self) -> None:
        """Raise TooLargeError when the subset scan is over budget."""
        require_budget(self.n, scan_bytes(self.n), "subset scan")

    @cached_property
    def edge_masks(self) -> np.ndarray:
        """Each edge as an int64 bitmask of its vertices, in edge order.
        Raises TooLargeError, as :attr:`scan` does, when the subset scan is
        over budget."""
        self.require_enumerable()
        return self.edge_reduce(np.bitwise_or, 1 << np.arange(self.n, dtype=np.int64))

    @cached_property
    def scan(self) -> np.ndarray:
        """The boundary edge count of each subset of {0..n-2}, indexed by
        subset bitmask, in the narrowest signed type that holds m
        (:func:`~hyperlap._kernels.subset_scan`).  A subset's size is the
        popcount of its bitmask, so no size is stored: the readers hold a
        bool per subset and the indices they search, within the price
        ``core.scan_bytes``.  Raises TooLargeError, through
        :attr:`edge_masks` and before the table is allocated, when the scan
        is over budget."""
        return subset_scan(self.edge_masks, self.edge_sizes, self.n - 1)

    @cached_property
    def profile(self) -> tuple:
        """(least, most): the least and most boundary among the scanned
        masks of each size 0..n-1, in the boundary's type
        (:func:`_size_profile`)."""
        return _size_profile(self.scan, self.n)

    @cached_property
    def max_cut(self) -> tuple:
        """(value, witness) of :func:`hyperlap.cuts.max_cut`."""
        _, most = self.profile
        value = int(most.max())
        if value == 0:
            return 0, ()
        best = np.flatnonzero(self.scan == value)
        full = (1 << self.n) - 1
        return value, _lex_least(np.concatenate([best, full ^ best]))

    @cached_property
    def isoperimetric(self) -> tuple:
        """(value, witness) of :func:`hyperlap.cuts.isoperimetric`."""
        n = self.n
        if n < 2:
            raise TooSmallError("isoperimetric number needs at least two vertices")
        least = self.profile[0].tolist()
        # A scanned mask of size s stands for itself (size s) and for its
        # complement (size n - s), which holds vertex n-1.  The value is the
        # least ratio min(least[t], least[n - t]) / t over 1 <= t <= n/2,
        # compared by cross-multiplying and made one exact Fraction.
        best = (min(least[1], least[n - 1]), 1)
        for t in range(2, n // 2 + 1):
            b = min(least[t], least[n - t])
            if b * best[1] < best[0] * t:
                best = (b, t)
        value = Fraction(*best)
        # need[t] is the boundary of a size-t minimiser with 1 <= t <= n/2,
        # and -1, which no boundary equals, where value * t is no integer.
        num, den = value.numerator, value.denominator
        need = [
            t // den * num if t % den == 0 and 0 < t <= n // 2 else -1 for t in range(n + 1)
        ]
        # A scanned mask of size s is a minimiser when its boundary is
        # direct[s], and its complement is one when it is flipped[s].  No
        # mask of size s has a boundary below least[s], so only the values
        # that least reaches are searched for, on the sides that reach them.
        direct, flipped = need[:n], need[n:0:-1]
        on_direct = {b for b, d in zip(least, direct) if b == d}
        on_flipped = {b for b, f in zip(least, flipped) if b == f}
        direct, flipped = np.array(direct), np.array(flipped)
        full = (1 << n) - 1
        sides = []
        for b in on_direct | on_flipped:
            hits = np.flatnonzero(self.scan == b)
            s = np.bitwise_count(hits)
            if b in on_direct:
                sides.append(hits[direct[s] == b])
            if b in on_flipped:
                sides.append(full ^ hits[flipped[s] == b])
        return value, _lex_least(np.concatenate(sides))


def analyze(h: Hypergraph) -> Analysis:
    """An Analysis of ``h``; ``h`` itself when it already is one."""
    if isinstance(h, Analysis):
        return h
    an = Analysis(n=h.n, edges=h.edges, labels=h.labels)
    if "_incidence" in vars(h):  # seeded by hgio.loads, or built already
        vars(an)["_incidence"] = h._incidence
    return an


def _chunk_size(n: int) -> int:
    """How many n-vertex inputs one stacked solve takes: B with
    B * dense_bytes(max(n, 4)) <= dense_bytes(64), and at least one.  The
    solve peaks above that price at small n, at up to 1.61 dense_bytes(64)
    at n=4 (measured, :func:`hyperlap.core.dense_bytes`); below n=4 the
    per-row arrays outweigh n**2, so a chunk is no longer than at n=4."""
    return max(1, dense_bytes(64) // dense_bytes(max(n, 4)))


def analyze_stream(instances: Iterable) -> Iterator:
    """(name, Analysis) for each (name, hypergraph) of ``instances``, in
    order.  Consecutive inputs with the same n are taken in chunks of at
    most :func:`_chunk_size` (n), and the spectra of a chunk of two or more
    are solved as one stack (:func:`eigendecompose_stack`) and seeded into
    each Analysis, so no input is solved twice; a chunk of one is solved
    lazily, as :func:`analyze` does.  The stream keeps no Analysis it has
    handed out, so a chunk's matrices, never its subset scans, are what is
    alive at once."""
    chunk = deque()
    for name, h in instances:
        if chunk and (h.n != chunk[0][1].n or len(chunk) == _chunk_size(h.n)):
            _seed_spectra(chunk)
            yield from _drain(chunk)
        chunk.append((name, analyze(h)))
    _seed_spectra(chunk)
    yield from _drain(chunk)


def _seed_spectra(chunk: deque) -> None:
    """Solve the spectra of the chunk's analyses that have none yet as one
    stack, and store each in its Analysis, when there are two or more."""
    todo = [an for _, an in chunk if "spectrum" not in vars(an)]
    if len(todo) > 1:
        spectra = eigendecompose_stack([an.laplacian for an in todo])
        for an, spectrum in zip(todo, spectra):
            vars(an)["spectrum"] = spectrum  # the cached_property's slot


def _drain(chunk: deque) -> Iterator:
    """Hand out the chunk's pairs in order, emptying it as they go."""
    while chunk:
        yield chunk.popleft()
