"""Upper bounds on the largest Laplacian eigenvalue.

Every bound lands in a BoundReport carrying the bound value, the computed
lambda_n, the slack, and a witness for where the maximum was attained, so
callers can both rank bounds and audit them.  ``holds`` uses a relative
tolerance of 1e-8 scaled by max(1, lambda_n).

The lambda_n bounds are evaluated once per input by :func:`_evaluate` and
cached as ``Analysis.bounds``; the battery and the reports read that
cache, where a bound that does not apply is absent.  With delta_i the
Laplacian degrees, d_i the degrees and m_i the mean degree of i's
neighbours, they are:

* ``twice_max_laplacian_degree``: 2 max_i delta_i;
* ``adjacent_laplacian_degree_sum``: max over adjacent i~j of
  delta_i + delta_j (absent without edges);
* ``zhu_uniform``: max over adjacent i~j of
  [d_i(d_i + m_i) + d_j(d_j + m_j) - 2 sum_{l in N(i) & N(j)} d_l] / (d_i + d_j),
  on uniform input only.  Sharp for 2-graphs; k >= 3 can break it;
* ``zhu_nonuniform``: that bracket times (k_max - 1)/(k_min - 1), and
  ``zhu_nonuniform_weighted`` the same with multiplicity-weighted
  neighbour sums and a min-multiplicity common term.  The battery records
  both readings, because neither survives every instance.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import Analysis, analyze
from .core import Hypergraph

HOLDS_TOL = 1e-8


def _neighbor_sums(h: Analysis, weighted: bool) -> tuple:
    """(w, d, w @ d): weights w_ij (a_ij, or 1 per distinct neighbour), the
    degrees as float64, and sum_j w_ij d_j, exact since every term is an
    integer far below 2**53."""
    a = h.adjacency
    w = a if weighted else (a > 0).astype(np.float64)
    d = h.degrees.d.astype(np.float64)
    return w, d, w @ d


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
    return np.nonzero(np.triu(h.adjacency > 0, 1))


def _argmax_pair(scores: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> tuple:
    k = int(np.argmax(scores))
    return scores[k], (int(iu[k]), int(ju[k]))


def _zhu_bracket_max(h: Analysis, iu: np.ndarray, ju: np.ndarray, weighted: bool) -> tuple:
    w, d, sums = _neighbor_sums(h, weighted)
    # min(w_il, w_jl) summed against d_l, n pairs at a time, so a block's
    # two gathers hold 2 n**2 entries; on the 0/1 weights of distinct
    # neighbours the minimum is the product.  Every term is an integer far
    # below 2**53, so the sums are exact in any order.
    common = np.empty(iu.size)
    for first in range(0, iu.size, h.n):
        block = slice(first, first + h.n)
        rows = w[iu[block]]
        common[block] = np.minimum(rows, w[ju[block]], out=rows) @ d
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
