"""Upper bounds on the largest Laplacian eigenvalue.

Every bound lands in a BoundReport carrying the bound value, the computed
lambda_n, the slack, and a witness for where the maximum was attained, so
callers can both rank bounds and audit them.  ``holds`` uses a relative
tolerance of 1e-8 scaled by max(1, lambda_n).

The lambda_n bounds are evaluated once per input by :func:`_evaluate` and
cached as ``Analysis.bounds``; the bound functions, the battery and the
reports all read that cache, where a bound that does not apply is absent.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analysis import Analysis, analyze
from .core import Hypergraph
from .errors import BadWeightFunctionError, NoEdgesError, NotUniformError

HOLDS_TOL = 1e-8


@dataclass(frozen=True)
class NeighborhoodProfile:
    """Per-vertex neighbor sets and mean neighbor degree m_i.

    ``mean_degree[i]`` averages d_j over the distinct neighbors j of i by
    default; the weighted variant averages with adjacency multiplicities,
    (sum_j a_ij d_j) / d_i.  NaN where d_i == 0.
    """

    neighbor_sets: tuple
    mean_degree: np.ndarray
    weighted: bool


def _neighbor_sums(h: Analysis, weighted: bool) -> tuple:
    """(w, d, w @ d): weights w_ij (a_ij, or 1 per distinct neighbour), the
    degrees as float64, and sum_j w_ij d_j, exact since every term is an
    integer far below 2**53."""
    a = h.adjacency
    w = a if weighted else (a > 0).astype(np.float64)
    d = h.degrees.d.astype(np.float64)
    return w, d, w @ d


def neighborhood_profile(h: Hypergraph, weighted: bool = False) -> NeighborhoodProfile:
    h = analyze(h)
    a = h.adjacency
    sets = tuple(frozenset(np.flatnonzero(a[i]).tolist()) for i in range(h.n))
    _, d, sums = _neighbor_sums(h, weighted)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / d
    mean[d == 0] = np.nan
    return NeighborhoodProfile(sets, mean, weighted)


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: float
    lambda_n: float
    slack: float
    holds: bool
    witness: Optional[tuple]


def _report(name: str, value: float, lam: float, witness) -> BoundReport:
    slack = value - lam
    return BoundReport(
        name=name,
        value=float(value),
        lambda_n=float(lam),
        slack=float(slack),
        holds=bool(slack >= -HOLDS_TOL * max(1.0, lam)),
        witness=witness,
    )


def _adjacent_pairs(h: Analysis) -> tuple:
    """Index arrays (iu, ju) of the adjacent pairs i < j, in row-major order,
    so the first maximum over them is the first in (i, j) order."""
    iu, ju = np.nonzero(np.triu(h.adjacency > 0, 1))
    if iu.size == 0:
        raise NoEdgesError("bound over adjacent pairs needs at least one edge")
    return iu, ju


def _argmax_pair(scores: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> tuple:
    k = int(np.argmax(scores))
    return scores[k], (int(iu[k]), int(ju[k]))


def bound_twice_max_delta(h: Hypergraph) -> BoundReport:
    """lambda_n <= 2 * max_i delta_i."""
    return analyze(h).bounds["twice_max_laplacian_degree"]


def bound_delta_pair_sum(h: Hypergraph) -> BoundReport:
    """lambda_n <= max over adjacent pairs of delta_i + delta_j."""
    return _read(h, "adjacent_laplacian_degree_sum", "bound over adjacent pairs")


def _read(h: Hypergraph, name: str, needs_edges: str) -> Optional[BoundReport]:
    """Bound ``name`` from the cache, or None.  Raises TooSmallError below
    two vertices and NoEdgesError without edges."""
    bounds = analyze(h).bounds
    if h.m == 0:
        raise NoEdgesError(f"{needs_edges} needs at least one edge")
    return bounds.get(name)


def zhu_generic_bound(
    h: Hypergraph,
    f: Callable[[int, int], float],
    strict_exclusion: bool = False,
) -> BoundReport:
    """lambda_n <= max over adjacent i~j of
    |N(i) & N(j)| + (sum_{l in N(i)\\N(j)} f(i,l) + sum_{l in N(j)\\N(i)} f(j,l)) / f(i,j)
    for any symmetric positive f on adjacent pairs.

    By default the difference sets are taken literally, so l may hit j (or
    i); ``strict_exclusion`` drops both endpoints from the sums.
    """
    h = analyze(h)
    lam = h.lambda_n
    profile = neighborhood_profile(h)
    sets = profile.neighbor_sets
    iu, ju = _adjacent_pairs(h)

    def score(i: int, j: int) -> float:
        fij = float(f(i, j))
        if not fij > 0.0:
            raise BadWeightFunctionError(
                f"f({i},{j}) = {fij} but adjacent pairs need f > 0"
            )
        only_i = sets[i] - sets[j]
        only_j = sets[j] - sets[i]
        if strict_exclusion:
            only_i = only_i - {i, j}
            only_j = only_j - {i, j}
        total = sum(float(f(i, l)) for l in only_i)
        total += sum(float(f(j, l)) for l in only_j)
        return len(sets[i] & sets[j]) + total / fij

    scores = np.array([score(i, j) for i, j in zip(iu.tolist(), ju.tolist())])
    value, pair = _argmax_pair(scores, iu, ju)
    name = "generic_weight" + ("_strict" if strict_exclusion else "")
    return _report(name, value, lam, pair)


def bound_zhu_uniform(h: Hypergraph) -> BoundReport:
    """Degree/mean-degree bound for uniform hypergraphs:
    lambda_n <= max over adjacent i~j of
    [d_i(d_i + m_i) + d_j(d_j + m_j) - 2 * sum_{l in N(i) & N(j)} d_l] / (d_i + d_j).

    Sharp for 2-graphs; k >= 3 can break it (the battery records offenders).
    """
    rep = _read(h, "zhu_uniform", "uniform degree bound")
    if rep is None:
        dp = analyze(h).degrees
        raise NotUniformError(
            f"edge sizes range over [{dp.k_min}, {dp.k_max}]; bound needs a uniform hypergraph"
        )
    return rep


def bound_zhu_nonuniform(h: Hypergraph, weighted: bool = False) -> BoundReport:
    """Uniform bracket scaled by (k_max - 1)/(k_min - 1) for mixed edge
    sizes.  ``weighted`` swaps in multiplicity-weighted neighbor sums (and a
    min-multiplicity common term); both readings are recorded by the battery
    because neither survives every instance.
    """
    name = "zhu_nonuniform" + ("_weighted" if weighted else "")
    return _read(h, name, "degree bound")


def _zhu_bracket_max(h: Analysis, iu: np.ndarray, ju: np.ndarray, weighted: bool) -> tuple:
    w, d, sums = _neighbor_sums(h, weighted)
    if weighted:
        # min(a_il, a_jl) summed against d_l, one row i at a time.
        cut = np.searchsorted(iu, np.arange(h.n + 1))
        common = np.concatenate(
            [np.minimum(w[i], w[ju[cut[i] : cut[i + 1]]]) @ d for i in range(h.n)]
        )
    else:
        common = ((w * d) @ w.T)[iu, ju]
    di = d[iu]
    dj = d[ju]
    num = di * di + sums[iu] + dj * dj + sums[ju] - 2.0 * common
    return _argmax_pair(num / (di + dj), iu, ju)


def _evaluate(h: Analysis) -> dict:
    """Every applicable bound, name -> BoundReport in report order, with
    one pair build and one pass per bracket reading (on uniform input the
    factor is exactly 1.0, so ``zhu_uniform`` is ``zhu_nonuniform``)."""
    lam = h.lambda_n
    dp = h.degrees
    delta = dp.delta
    i = int(np.argmax(delta))
    reports = [_report("twice_max_laplacian_degree", 2.0 * float(delta[i]), lam, (i,))]
    if h.m > 0:
        iu, ju = _adjacent_pairs(h)
        value, pair = _argmax_pair(delta[iu] + delta[ju], iu, ju)
        reports.append(_report("adjacent_laplacian_degree_sum", float(value), lam, pair))
        factor = (dp.k_max - 1) / (dp.k_min - 1)
        value, pair = _zhu_bracket_max(h, iu, ju, weighted=False)
        if dp.k_min == dp.k_max:
            reports.append(_report("zhu_uniform", value, lam, pair))
        reports.append(_report("zhu_nonuniform", factor * value, lam, pair))
        value, pair = _zhu_bracket_max(h, iu, ju, weighted=True)
        reports.append(_report("zhu_nonuniform_weighted", factor * value, lam, pair))
    return {rep.name: rep for rep in reports}


@dataclass(frozen=True)
class EdgeDegreeSumCheck:
    """Max over edges of the in-edge degree sum, versus lambda_n.

    exceeded=True exhibits a hypergraph whose lambda_n is larger than every
    edge's degree sum -- possible once edges overlap enough.
    """

    edge_max: int
    lambda_n: float
    exceeded: bool
    witness_edge: Optional[tuple]


def check_edge_degree_sum(h: Hypergraph) -> EdgeDegreeSumCheck:
    """Every edge's degree sum from one reduction over the edges; the
    witness is the first edge in canonical order with the largest sum."""
    h = analyze(h)
    lam = h.lambda_n
    totals = h.edge_reduce(np.add, h.degrees.d)
    best = 0
    witness = None
    if h.m > 0:
        i = int(np.argmax(totals))
        best, witness = int(totals[i]), h.edges[i]
    return EdgeDegreeSumCheck(
        edge_max=best,
        lambda_n=lam,
        exceeded=bool(lam > best + HOLDS_TOL * max(1.0, lam)),
        witness_edge=witness,
    )


def all_bounds(h: Hypergraph) -> list:
    """Every applicable bound, in a fixed order (for reports)."""
    return list(analyze(h).bounds.values())
