"""Upper bounds on the largest Laplacian eigenvalue.

Every bound lands in a BoundReport carrying the bound value, the computed
lambda_n, the slack, and a witness for where the maximum was attained, so
callers can both rank bounds and audit them.  ``holds`` uses a relative
tolerance of 1e-8 scaled by max(1, lambda_n).

Bounds read lambda_n, degrees and adjacency from ``analyze(h)`` and report
against that lambda_n.
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


def neighborhood_profile(h: Hypergraph, weighted: bool = False) -> NeighborhoodProfile:
    h = analyze(h)
    a = h.adjacency
    d = h.degrees.d.astype(np.float64)
    sets = tuple(frozenset(np.flatnonzero(a[i]).tolist()) for i in range(h.n))
    with np.errstate(invalid="ignore", divide="ignore"):
        if weighted:
            mean = (a @ d) / d
        else:
            mean = ((a > 0).astype(np.float64) @ d) / d
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


def _max_over_pairs(pairs, score) -> tuple:
    best = None
    best_pair = None
    for i, j in pairs:
        s = score(i, j)
        if best is None or s > best:
            best, best_pair = s, (i, j)
    return best, best_pair


def bound_twice_max_delta(h: Hypergraph) -> BoundReport:
    """lambda_n <= 2 * max_i delta_i."""
    h = analyze(h)
    lam = h.lambda_n
    delta = h.degrees.delta
    i = int(np.argmax(delta))
    return _report("twice_max_laplacian_degree", 2.0 * float(delta[i]), lam, (i,))


def bound_delta_pair_sum(h: Hypergraph) -> BoundReport:
    """lambda_n <= max over adjacent pairs of delta_i + delta_j."""
    h = analyze(h)
    lam = h.lambda_n
    delta = h.degrees.delta
    iu, ju = _adjacent_pairs(h)
    value, pair = _argmax_pair(delta[iu] + delta[ju], iu, ju)
    return _report("adjacent_laplacian_degree_sum", float(value), lam, pair)


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
    pairs = zip(iu.tolist(), ju.tolist())

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

    value, pair = _max_over_pairs(pairs, score)
    name = "generic_weight" + ("_strict" if strict_exclusion else "")
    return _report(name, value, lam, pair)


def bound_zhu_uniform(h: Hypergraph) -> BoundReport:
    """Degree/mean-degree bound for uniform hypergraphs:
    lambda_n <= max over adjacent i~j of
    [d_i(d_i + m_i) + d_j(d_j + m_j) - 2 * sum_{l in N(i) & N(j)} d_l] / (d_i + d_j).

    Sharp for 2-graphs; k >= 3 can break it (the battery records offenders).
    """
    h = analyze(h)
    lam = h.lambda_n
    dp = h.degrees
    if h.m == 0:
        raise NoEdgesError("uniform degree bound needs at least one edge")
    if dp.k_min != dp.k_max:
        raise NotUniformError(
            f"edge sizes range over [{dp.k_min}, {dp.k_max}]; bound needs a uniform hypergraph"
        )
    value, pair = _zhu_bracket_max(h, weighted=False)
    return _report("zhu_uniform", value, lam, pair)


def bound_zhu_nonuniform(h: Hypergraph, weighted: bool = False) -> BoundReport:
    """Uniform bracket scaled by (k_max - 1)/(k_min - 1) for mixed edge
    sizes.  ``weighted`` swaps in multiplicity-weighted neighbor sums (and a
    min-multiplicity common term); both readings are recorded by the battery
    because neither survives every instance.
    """
    h = analyze(h)
    lam = h.lambda_n
    dp = h.degrees
    if h.m == 0:
        raise NoEdgesError("degree bound needs at least one edge")
    factor = (dp.k_max - 1) / (dp.k_min - 1)
    value, pair = _zhu_bracket_max(h, weighted=weighted)
    name = "zhu_nonuniform" + ("_weighted" if weighted else "")
    return _report(name, factor * value, lam, pair)


def _zhu_bracket_max(h: Analysis, weighted: bool) -> tuple:
    a = h.adjacency
    d = h.degrees.d.astype(np.float64)
    iu, ju = _adjacent_pairs(h)
    # Every term is a sum of integers far below 2**53, so these sums are
    # exact in any order.
    if weighted:
        sums = a @ d
        # min(a_il, a_jl) summed against d_l, one row i at a time.
        cut = np.searchsorted(iu, np.arange(h.n + 1))
        common = np.concatenate(
            [np.minimum(a[i], a[ju[cut[i] : cut[i + 1]]]) @ d for i in range(h.n)]
        )
    else:
        support = (a > 0).astype(np.float64)
        sums = support @ d
        common = ((support * d) @ support.T)[iu, ju]
    di = d[iu]
    dj = d[ju]
    num = di * di + sums[iu] + dj * dj + sums[ju] - 2.0 * common
    return _argmax_pair(num / (di + dj), iu, ju)


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
    """Every edge's degree sum from one gather over the shared edge index;
    the witness is the first edge in canonical order with the largest sum."""
    h = analyze(h)
    lam = h.lambda_n
    d = h.degrees.d
    totals = np.zeros(h.m, dtype=np.int64)
    for rows, positions in h.edge_index.values():
        totals[positions] = d[rows].sum(axis=1)
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
    h = analyze(h)
    out = [bound_twice_max_delta(h)]
    if h.m > 0:
        out.append(bound_delta_pair_sum(h))
        dp = h.degrees
        if dp.k_min == dp.k_max:
            out.append(bound_zhu_uniform(h))
        out.append(bound_zhu_nonuniform(h, weighted=False))
        out.append(bound_zhu_nonuniform(h, weighted=True))
    return out
