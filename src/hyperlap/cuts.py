"""Edge boundaries, spectral cut bounds, and exact connectivity quantities.

Spectra, degrees, the subset scan and the exact max cut and isoperimetric
number are read from ``analyze(h)``; the exact searches are refused when
the subset scan's predicted bytes exceed the budget (``core.scan_bytes``
against ``core.MAX_DENSE_BYTES``).  Each spectral cut bound is stated once:
the sandwich in :func:`sandwich_bounds`, the max-cut and isoperimetric
bounds in :func:`connectivity_summary`.  Boundaries, the quadratic identity
and the Fiedler sweep are per-edge reductions (``Hypergraph.edge_reduce``),
so each is O(sum |e|) numpy work; the sweep gets the boundary of every
prefix from one difference array.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .analysis import analyze
from .core import Hypergraph, vertex_index
from .errors import (
    DegenerateSubsetError,
    DisconnectedError,
    DuplicateVertexError,
    NoEdgesError,
    TooSmallError,
)
from .spectral import fiedler_vector


@dataclass(frozen=True)
class CutReport:
    """One subset against the spectral sandwich.

    lower and upper are the :func:`sandwich_bounds` of the subset's size;
    density is |bd S| / (s*(n-s)), NaN for degenerate subsets; edges are
    the crossing hyperedges in canonical order.
    """

    subset: tuple
    boundary_size: int
    lower: float
    upper: float
    density: float
    edges: list


@dataclass(frozen=True)
class ConnectivitySummary:
    """Exact max cut and isoperimetric number next to their spectral bounds.

    ``max_cut_bound_kmin`` follows from the sandwich and is asserted;
    ``max_cut_bound_kmax`` replaces k_min with k_max and is recorded only --
    overlapping edges can push the true max cut past it.
    """

    max_cut: int
    max_cut_witness: tuple
    max_cut_bound_kmin: float
    max_cut_bound_kmax: float
    isoperimetric: Fraction
    iso_witness: tuple
    iso_lower_bound: float


def _clean_subset(h: Hypergraph, subset: Iterable[int]) -> tuple:
    out = []
    seen = set()
    for v in subset:
        v = vertex_index(v, h.n)
        if v in seen:
            raise DuplicateVertexError(f"subset repeats vertex {v}")
        seen.add(v)
        out.append(v)
    return tuple(sorted(out))


def edge_contribution(edge: Sequence[int], subset) -> int:
    """t * (|e| - t) where t = |e & S|: this edge's share of chi^T L chi."""
    inside = set(subset)
    t = sum(1 for v in edge if v in inside)
    return t * (len(edge) - t)


def _members_inside(h: Hypergraph, subset: tuple) -> np.ndarray:
    """Each edge's member count in the subset, in edge order."""
    inside = np.zeros(h.n, dtype=np.int64)
    inside[list(subset)] = 1
    return h.edge_reduce(np.add, inside)


def edge_boundary(h: Hypergraph, subset: Iterable[int]) -> tuple:
    """(count, edges) of hyperedges split by the subset, canonical order."""
    t = _members_inside(h, _clean_subset(h, subset))
    split = np.flatnonzero((t > 0) & (t < h.edge_sizes))
    crossing = [h.edges[p] for p in split.tolist()]
    return len(crossing), crossing


def boundary_quadratic(h: Hypergraph, subset: Iterable[int]) -> tuple:
    """Both sides of the exact identity
    sum_e t_e(|e| - t_e) == chi_S^T L chi_S, as integers."""
    h = analyze(h)
    s = _clean_subset(h, subset)
    t = _members_inside(h, s)
    per_edge = int((t * (h.edge_sizes - t)).sum())
    chi = np.zeros(h.n, dtype=np.int64)
    chi[list(s)] = 1
    quad = int(chi @ h.laplacian @ chi)
    return per_edge, quad


def sandwich_bounds(h: Hypergraph, size):
    """(lower, upper) on the boundary of any subset of ``size`` vertices:
    4*lambda_2*s*(n-s)/(n*k_max^2) and lambda_n*s*(n-s)/(n*(k_min-1)).

    ``size`` is an int or an int64 array of sizes; s*(n-s) stays exact in
    either, so both give the same floats.  Needs at least one edge.
    """
    h = analyze(h)
    dp = h.degrees
    pairs = size * (h.n - size)
    lower = 4.0 * h.lambda2 * pairs / (h.n * dp.k_max**2)
    upper = h.lambda_n * pairs / (h.n * (dp.k_min - 1))
    return lower, upper


def boundary_sandwich(h: Hypergraph, subset: Iterable[int]) -> CutReport:
    """Boundary size of one subset between its two spectral bounds."""
    h = analyze(h)
    if h.m == 0:
        raise NoEdgesError("spectral cut bounds need at least one edge")
    s = _clean_subset(h, subset)
    size = len(s)
    pairs = size * (h.n - size)
    count, edges = edge_boundary(h, s)
    lower, upper = sandwich_bounds(h, size)
    density = count / pairs if pairs > 0 else float("nan")
    return CutReport(
        subset=s,
        boundary_size=count,
        lower=lower,
        upper=upper,
        density=density,
        edges=edges,
    )


def edge_density_bounds(h: Hypergraph, subset: Iterable[int]) -> tuple:
    """(density, lower, upper) with the sandwich divided through by
    s*(n-s); the bounds no longer depend on the subset."""
    s = _clean_subset(h, subset)
    if len(s) == 0 or len(s) == h.n:
        raise DegenerateSubsetError("density needs a proper nonempty subset")
    report = boundary_sandwich(h, s)
    pairs = len(s) * (h.n - len(s))
    return report.density, report.lower / pairs, report.upper / pairs


def max_cut(h: Hypergraph) -> tuple:
    """(value, witness): max boundary size over all subsets; the witness is
    the lexicographically least sorted tuple attaining it.  Computed once
    per Analysis."""
    return analyze(h).max_cut


def isoperimetric(h: Hypergraph) -> tuple:
    """(value, witness): min over nonempty S with |S| <= n/2 of
    |bd S| / |S|, as an exact Fraction.  Disconnected hypergraphs give 0.
    Computed once per Analysis.

    Witness rule: among minimizers, the lexicographically least sorted
    tuple.  The value is the least of one exact Fraction per size and the
    minimizers pass an integer test, so no float rounding enters either.
    """
    return analyze(h).isoperimetric


def fiedler_sweep(h: Hypergraph) -> tuple:
    """(subset, CutReport) for the best prefix cut of the Fiedler order.

    Vertices are sorted by descending Fiedler-vector value (the positive
    side first; exact ties keep index order); prefixes with 2t <= n compete
    on the exact ratio |bd S_t| / t, earliest prefix winning ties.  The
    ratio always upper bounds the true isoperimetric number.  One pass over
    the edges gives every prefix's boundary: prefix t cuts edge e
    exactly when minrank(e) < t <= maxrank(e) in the Fiedler order.
    """
    h = analyze(h)
    if h.n < 2:
        raise TooSmallError("sweep cut needs at least two vertices")
    if not h.connected:
        raise DisconnectedError("sweep cut needs a connected hypergraph")
    n = h.n
    order = np.argsort(-fiedler_vector(h.spectrum), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # counts[t] = #edges with minrank < t <= maxrank, from a difference array.
    change = np.bincount(h.edge_reduce(np.minimum, rank) + 1, minlength=n + 1)
    change -= np.bincount(h.edge_reduce(np.maximum, rank) + 1, minlength=n + 1)
    counts = np.cumsum(change).tolist()
    best = None
    best_t = None
    for t in range(1, n // 2 + 1):
        ratio = Fraction(counts[t], t)
        if best is None or ratio < best:
            best, best_t = ratio, t
    best_subset = tuple(sorted(order[:best_t].tolist()))
    return best_subset, boundary_sandwich(h, best_subset)


def connectivity_summary(h: Hypergraph) -> ConnectivitySummary:
    """Exact cut quantities with their spectral bounds, one report."""
    h = analyze(h)
    h.require_enumerable()
    dp = h.degrees
    if h.m == 0:
        raise NoEdgesError("connectivity summary needs at least one edge")
    lam2, lam_n = h.lambda2, h.lambda_n
    mc, mc_witness = max_cut(h)
    iso, iso_witness = isoperimetric(h)
    kmin_bound, kmax_bound = (h.n * lam_n / (4.0 * (k - 1)) for k in (dp.k_min, dp.k_max))
    return ConnectivitySummary(
        max_cut=mc,
        max_cut_witness=mc_witness,
        max_cut_bound_kmin=kmin_bound,
        max_cut_bound_kmax=kmax_bound,
        isoperimetric=iso,
        iso_witness=iso_witness,
        iso_lower_bound=2.0 * lam2 / dp.k_max**2,
    )
