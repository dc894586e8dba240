"""Hypergraph families with known spectra, plus a seeded random generator.

Analytic spectra come back as multiplicity pairs so tests can compare them
against the numeric solver without reconstructing closed forms.  Randomness
runs through a hand-rolled SplitMix64 so identical seeds give identical
hypergraphs on every platform and Python version.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod
from typing import Optional, Sequence

import numpy as np

from .core import Hypergraph
from .errors import BadParametersError, UnsatisfiableError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Largest total member count sum |e| a generator builds, and largest n of a
# random hypergraph (its !vertices line holds n labels).  Larger families
# cannot be held in memory, so they are refused up front.
MAX_MEMBERS = 10**7


def _require_fits(members: int, what: str) -> None:
    if members > MAX_MEMBERS:
        raise BadParametersError(
            f"{what} has {members} edge members in total, above the limit of {MAX_MEMBERS}"
        )


class SplitMix64:
    """SplitMix64 PRNG: 64-bit state, fixed increment, bit-mix output.

    Sequential seeds give independent-looking streams, so batch drivers may
    seed instance i with ``base + i``.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_u64s(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of :meth:`next_u64`, as a uint64 array
        computed with numpy's wrapping arithmetic."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def randrange(self, bound: int) -> int:
        """Uniform draw from [0, bound); rejection keeps it unbiased."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def sample(self, n: int, k: int) -> list:
        """Sorted k-subset of range(n) via partial Fisher-Yates on a virtual
        pool whose position p holds ``moved.get(p, p)``: O(k) for any n."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        moved: dict = {}
        out = []
        for i in range(k):
            j = i + self.randrange(n - i)
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return sorted(out)


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Closed-form spectrum: (eigenvalue, multiplicity) pairs ascending.

    ``residual_poly`` (monic integer coefficients, highest degree first)
    holds eigenvalues that only exist as polynomial roots; it is None when
    the pairs already cover everything.
    """

    pairs: tuple
    residual_poly: Optional[tuple] = None

    def expand(self) -> np.ndarray:
        if self.residual_poly is not None:
            raise ValueError("spectrum has a residual polynomial part")
        values = [lam for lam, mult in self.pairs for _ in range(mult)]
        return np.array(values, dtype=np.float64)


def _sorted_pairs(pairs) -> tuple:
    kept = [(lam, mult) for lam, mult in pairs if mult > 0]
    kept.sort(key=lambda p: p[0])
    return tuple(kept)


def complete_kgraph(n: int, k: int) -> Hypergraph:
    """All k-subsets of n vertices as edges."""
    if k < 2 or k > n:
        raise BadParametersError(f"need 2 <= k <= n, got k={k}, n={n}")
    _require_fits(comb(n, k) * k, f"complete n={n} k={k}")
    return Hypergraph.from_edges(combinations(range(n), k), n=n)


def complete_kgraph_spectrum(n: int, k: int) -> AnalyticSpectrum:
    if k < 2 or k > n:
        raise BadParametersError(f"need 2 <= k <= n, got k={k}, n={n}")
    lam = n * comb(n - 2, k - 2)
    return AnalyticSpectrum(_sorted_pairs([(0, 1), (lam, n - 1)]))


def complete_kpartite(sizes: Sequence[int]) -> Hypergraph:
    """One edge per transversal: k parts, each edge takes one vertex from
    every part."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise BadParametersError("need at least two parts")
    if any(s < 1 for s in sizes):
        raise BadParametersError(f"part sizes must be >= 1, got {sizes}")
    _require_fits(prod(sizes) * len(sizes), f"kpartite sizes={sizes}")
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    blocks = [range(offsets[i], offsets[i + 1]) for i in range(len(sizes))]
    return Hypergraph.from_edges(product(*blocks), n=int(offsets[-1]))


def _elementary_symmetric(values: Sequence[int], r: int) -> int:
    e = [1] + [0] * r
    for v in values:
        for j in range(min(r, len(e) - 1), 0, -1):
            e[j] += e[j - 1] * v
    return e[r]


def complete_kpartite_spectrum(sizes: Sequence[int]) -> AnalyticSpectrum:
    """Pairs cover 0 and the per-part plateaus; the k-1 remaining
    eigenvalues are the roots of the returned monic integer polynomial."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise BadParametersError(f"bad part sizes {sizes}")
    k = len(sizes)
    size_product = prod(sizes)
    pairs = [(0, 1)]
    pairs += [((k - 1) * size_product // s, s - 1) for s in sizes]
    # Coefficient of X^(k-1-r) is (-1)^r * A_{k-1-r} where
    # A_i = (i+1) * (k * prod(sizes))^(k-2-i) * e_{i+1}(sizes).
    coeffs = [1]
    for j in range(1, k):
        i = k - 1 - j
        a_i = (i + 1) * (k * size_product) ** (k - 2 - i) * _elementary_symmetric(sizes, i + 1)
        coeffs.append((-1) ** j * a_i)
    return AnalyticSpectrum(_sorted_pairs(pairs), residual_poly=tuple(coeffs))


def star_kgraph(k: int, r: int) -> Hypergraph:
    """r edges of size k sharing exactly one center vertex (vertex 0)."""
    if k < 2:
        raise BadParametersError(f"edge size must be >= 2, got {k}")
    if r < 1:
        raise BadParametersError(f"need at least one spoke, got {r}")
    _require_fits(r * k, f"star k={k} r={r}")
    edges = []
    for j in range(r):
        start = 1 + j * (k - 1)
        edges.append((0,) + tuple(range(start, start + k - 1)))
    return Hypergraph.from_edges(edges, n=(k - 1) * r + 1)


def star_kgraph_spectrum(k: int, r: int) -> AnalyticSpectrum:
    if k < 2 or r < 1:
        raise BadParametersError(f"bad star parameters k={k}, r={r}")
    n = (k - 1) * r + 1
    return AnalyticSpectrum(
        _sorted_pairs([(0, 1), (1, r - 1), (k, (k - 2) * r), (n, 1)])
    )


def star_eigenvector_basis(k: int, r: int) -> list:
    """Integer eigenvectors of the star Laplacian as (eigenvalue, vector).

    All n of them: the constant vector, the center-vs-rest vector, r-1
    spoke-difference vectors at eigenvalue 1, and (k-2)r within-spoke
    difference vectors at eigenvalue k.  Exact, so L @ v == lam * v holds in
    integer arithmetic.
    """
    if k < 2 or r < 1:
        raise BadParametersError(f"bad star parameters k={k}, r={r}")
    n = (k - 1) * r + 1
    spokes = [list(range(1 + j * (k - 1), 1 + (j + 1) * (k - 1))) for j in range(r)]

    basis = [(0, np.ones(n, dtype=np.int64))]
    center = -np.ones(n, dtype=np.int64)
    center[0] = n - 1
    basis.append((n, center))
    for j in range(1, r):
        vec = np.zeros(n, dtype=np.int64)
        vec[spokes[0]] = 1
        vec[spokes[j]] = -1
        basis.append((1, vec))
    for j in range(r):
        first = spokes[j][0]
        for other in spokes[j][1:]:
            vec = np.zeros(n, dtype=np.int64)
            vec[first] = 1
            vec[other] = -1
            basis.append((k, vec))
    return basis


def random_hypergraph(n: int, m: int, k_min: int, k_max: int, seed: int) -> Hypergraph:
    """m distinct edges, sizes uniform on [k_min, k_max], members uniform
    k-subsets; duplicates are redrawn."""
    if n < 1:
        raise BadParametersError(f"vertex count must be positive, got {n}")
    if n > MAX_MEMBERS:
        raise BadParametersError(f"vertex count {n} is above the limit of {MAX_MEMBERS}")
    if not 2 <= k_min <= k_max <= n:
        raise BadParametersError(
            f"need 2 <= k_min <= k_max <= n, got k_min={k_min}, k_max={k_max}, n={n}"
        )
    if m < 0:
        raise BadParametersError(f"edge count must be >= 0, got {m}")
    # m * k_min is the least member count any such draw can have.
    _require_fits(m * k_min, f"random n={n} m={m} kmin={k_min}")
    available = sum(comb(n, k) for k in range(k_min, k_max + 1))
    if m > available:
        raise UnsatisfiableError(
            f"asked for {m} distinct edges but only {available} exist"
        )
    rng = SplitMix64(seed)
    chosen = set()
    while len(chosen) < m:
        k = k_min + rng.randrange(k_max - k_min + 1)
        chosen.add(tuple(rng.sample(n, k)))
    return Hypergraph.from_edges(sorted(chosen), n=n)
