"""Edge boundaries, spectral cut bounds, and exact connectivity quantities.

Spectra, degrees, the subset scan and the exact max cut and isoperimetric
number are read from ``analyze(h)``; the exact searches are capped at
``ENUMERATION_CAP`` (20) vertices.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .analysis import analyze
from .core import Hypergraph
from .errors import (
    DegenerateSubsetError,
    DisconnectedError,
    DuplicateVertexError,
    NoEdgesError,
    TooSmallError,
    VertexOutOfRangeError,
)
from .spectral import Spectrum, fiedler_vector, lambda2, lambda_n


@dataclass(frozen=True)
class CutReport:
    """One subset against the spectral sandwich.

    lower and upper are 4*lambda_2*s*(n-s)/(n*k_max^2) and
    lambda_n*s*(n-s)/(n*(k_min-1)); density is |bd S| / (s*(n-s)), NaN for
    degenerate subsets.
    """

    subset: tuple
    boundary_size: int
    lower: float
    upper: float
    density: float


@dataclass(frozen=True)
class ConnectivitySummary:
    """Exact max cut and isoperimetric number next to their spectral bounds.

    ``max_cut_bound_kmin`` (n*lambda_n/(4*(k_min-1))) follows from the
    sandwich and is asserted; ``max_cut_bound_kmax`` replaces k_min with
    k_max and is recorded only -- overlapping edges can push the true max
    cut past it.
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
        v = int(v)
        if not (0 <= v < h.n):
            raise VertexOutOfRangeError(f"vertex {v} outside [0, {h.n})")
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


def edge_boundary(h: Hypergraph, subset: Iterable[int]) -> tuple:
    """(count, edges) of hyperedges split by the subset, canonical order."""
    s = set(_clean_subset(h, subset))
    crossing = [e for e in h.edges if 0 < sum(1 for v in e if v in s) < len(e)]
    return len(crossing), crossing


def boundary_quadratic(h: Hypergraph, subset: Iterable[int]) -> tuple:
    """Both sides of the exact identity
    sum_e t_e(|e| - t_e) == chi_S^T L chi_S, as integers."""
    s = _clean_subset(h, subset)
    per_edge = sum(edge_contribution(e, s) for e in h.edges)
    chi = np.zeros(h.n, dtype=np.int64)
    chi[list(s)] = 1
    lap_int = analyze(h).laplacian.astype(np.int64)
    quad = int(chi @ lap_int @ chi)
    return per_edge, quad


def boundary_sandwich(
    h: Hypergraph,
    subset: Iterable[int],
    spectrum: Optional[Spectrum] = None,
) -> CutReport:
    """Boundary size of one subset between its two spectral bounds;
    ``spectrum`` defaults to the hypergraph's own."""
    h = analyze(h)
    dp = h.degrees
    if h.m == 0:
        raise NoEdgesError("spectral cut bounds need at least one edge")
    if spectrum is None:
        spectrum = h.spectrum
    lam2, lam_n = lambda2(spectrum), lambda_n(spectrum)
    s = _clean_subset(h, subset)
    size = len(s)
    pairs = size * (h.n - size)
    count, _ = edge_boundary(h, s)
    lower = 4.0 * lam2 * pairs / (h.n * dp.k_max**2)
    upper = lam_n * pairs / (h.n * (dp.k_min - 1))
    density = count / pairs if pairs > 0 else float("nan")
    return CutReport(
        subset=s,
        boundary_size=count,
        lower=lower,
        upper=upper,
        density=density,
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
    tuple.  Floats preselect near-minimal candidates; exact rationals pick
    the winner, so float rounding can never flip the result.
    """
    return analyze(h).isoperimetric


def fiedler_sweep(h: Hypergraph) -> tuple:
    """(subset, CutReport) for the best prefix cut of the Fiedler order.

    Vertices are sorted by descending Fiedler-vector value (the positive
    side first; exact ties keep index order); prefixes with 2t <= n compete
    on the exact ratio |bd S_t| / t, earliest prefix winning ties.  The
    ratio always upper bounds the true isoperimetric number.
    """
    h = analyze(h)
    if h.n < 2:
        raise TooSmallError("sweep cut needs at least two vertices")
    if not h.connected:
        raise DisconnectedError("sweep cut needs a connected hypergraph")
    order = np.argsort(-fiedler_vector(h.spectrum), kind="stable")
    best = None
    best_subset = None
    for t in range(1, h.n):
        if 2 * t > h.n:
            break
        subset = tuple(sorted(int(v) for v in order[:t]))
        count, _ = edge_boundary(h, subset)
        ratio = Fraction(count, t)
        if best is None or ratio < best:
            best, best_subset = ratio, subset
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
    return ConnectivitySummary(
        max_cut=mc,
        max_cut_witness=mc_witness,
        max_cut_bound_kmin=h.n * lam_n / (4.0 * (dp.k_min - 1)),
        max_cut_bound_kmax=h.n * lam_n / (4.0 * (dp.k_max - 1)),
        isoperimetric=iso,
        iso_witness=iso_witness,
        iso_lower_bound=2.0 * lam2 / dp.k_max**2,
    )
