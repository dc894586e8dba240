"""Batch verification: hard invariants and recorded empirical claims.

Hard checks must hold on every instance (within stated tolerances) and any
failure fails the whole report.  Recorded claims are bounds that provably
cannot hold universally; the battery counts violations and keeps witnesses
instead of failing.  Everything is deterministic for a fixed instance list.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Optional

import numpy as np

from .analysis import Analysis, analyze_stream
from .bounds import check_edge_degree_sum
from .core import connected_components, degree_profile
from .cuts import connectivity_summary, fiedler_sweep, isoperimetric, sandwich_bounds
from .errors import BadParametersError
from .generators import SplitMix64, random_hypergraph
from .spectral import spectral_component_count

_WITNESS_CAP = 5
_FAILURE_CAP = 5

# Full quadratic-identity cross-check up to this n; sampled masks beyond.
_FULL_QUAD_N = 12
_QUAD_SAMPLES = 256


@dataclass
class CheckResult:
    """One hard check aggregated over every instance."""

    name: str
    checked: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def record(self, instance: str, detail: Optional[str]) -> None:
        self.checked += 1
        if detail is not None:
            self.failed += 1
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append(f"{instance}: {detail}")


@dataclass
class RecordedClaim:
    """A bound checked but allowed to fail; violations are collected."""

    name: str
    checked: int = 0
    violations: int = 0
    witnesses: list = field(default_factory=list)

    def record(self, witness: Optional[dict]) -> None:
        self.checked += 1
        if witness is not None:
            self.violations += 1
            if len(self.witnesses) < _WITNESS_CAP:
                self.witnesses.append(witness)


@dataclass
class VerifyReport:
    source: str
    instance_count: int
    hard_checks: list
    recorded: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.hard_checks)


def _check_laplacian_structure(an: Analysis, index: int) -> Optional[str]:
    a, dp = an.adjacency, an.degrees
    if not np.array_equal(a, a.T):
        return "adjacency not symmetric"
    if np.any(np.diagonal(a) != 0):
        return "adjacency diagonal not zero"
    if np.any(a < 0) or np.any(a != np.floor(a)):
        return "adjacency entries not nonnegative integers"
    d = dp.d
    cap = np.minimum.outer(d, d)
    np.fill_diagonal(cap, 0)
    if np.any(a > cap):
        return "pair multiplicity exceeds min(d_i, d_j)"
    if not np.array_equal(a.sum(axis=1), dp.delta):
        return "delta differs from adjacency row sums"
    if np.any(an.laplacian.sum(axis=1) != 0):
        return "Laplacian row sums not exactly zero"
    if an.m > 0:
        if np.any(dp.delta < (dp.k_min - 1) * d) or np.any(
            dp.delta > (dp.k_max - 1) * d
        ):
            return "delta outside [(k_min-1) d, (k_max-1) d]"
        if dp.k_min == dp.k_max and np.any(dp.delta != (dp.k_min - 1) * d):
            return "uniform hypergraph with delta != (k-1) d"
    return None


# Spectrum certificates: the largest eigen-residual norm and the most
# negative eigenvalue, each times max(1, ||L||_F); the largest entry of
# V^T V - I; and |sum of eigenvalues - trace|, times max(1, |trace|).
RESIDUAL_TOL = 1e-8
ORTHONORMAL_TOL = 1e-10
NEGATIVE_EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-8


def _check_spectrum_certificates(an: Analysis, index: int) -> Optional[str]:
    lam, vec = an.spectrum.eigenvalues, an.spectrum.eigenvectors
    scale = max(1.0, an.frobenius)
    residual = float(
        np.max(np.linalg.norm(an.laplacian @ vec - vec * lam, axis=0))
    )
    if residual > RESIDUAL_TOL * scale:
        return f"eigen residual {residual:.3e}"
    ortho = float(np.max(np.abs(vec.T @ vec - np.eye(an.n))))
    if ortho > ORTHONORMAL_TOL:
        return f"eigenvectors not orthonormal ({ortho:.3e})"
    if np.any(np.diff(lam) < 0):
        return "eigenvalues not ascending"
    if float(lam[0]) < -NEGATIVE_EIGENVALUE_TOL * scale:
        return f"negative eigenvalue {float(lam[0]):.3e}"
    trace = float(np.trace(an.laplacian))
    if abs(float(lam.sum()) - trace) > TRACE_TOL * max(1.0, abs(trace)):
        return "eigenvalue sum differs from trace"
    return None


def _check_connectivity_agreement(an: Analysis, index: int) -> Optional[str]:
    thr = an.zero_threshold
    count = spectral_component_count(an.spectrum, thr)
    if count != len(an.components):
        return (
            f"zero multiplicity {count} != component count {len(an.components)}"
        )
    if an.n >= 2:
        spectral = an.lambda2 > thr
        if spectral != an.connected:
            return "spectral connectivity disagrees with union-find"
    return None


def _check_degree_bounds(an: Analysis, index: int) -> Optional[str]:
    if an.n < 2:
        return None  # lambda_n is undefined; 2 max delta = 0 bounds nothing
    twice = an.bounds["twice_max_laplacian_degree"]
    if not twice.holds:
        return f"2 max delta = {twice.value} < lambda_n = {twice.lambda_n}"
    if an.m == 0:
        return None
    pair = an.bounds["adjacent_laplacian_degree_sum"]
    if not pair.holds:
        return f"max delta_i+delta_j = {pair.value} < lambda_n = {pair.lambda_n}"
    if pair.value > twice.value:
        return "pair-sum bound exceeds twice-max bound"
    return None


def _check_zhu_two_graph(an: Analysis, index: int) -> Optional[str]:
    if an.m == 0 or not (an.degrees.k_min == an.degrees.k_max == 2):
        return None
    rep = an.bounds["zhu_uniform"]
    if not rep.holds:
        return f"2-graph bound {rep.value} < lambda_n {rep.lambda_n}"
    return None


# How far a boundary may fall below the sandwich's lower bound, or rise
# above its upper bound, for its subset size.
SANDWICH_LOWER_MARGIN = 1e-8
SANDWICH_UPPER_MARGIN = 1e-8


def _check_subset_sandwich(an: Analysis, index: int) -> Optional[str]:
    if not an.enumerable or an.m == 0 or an.n < 2:
        return None
    # The bounds depend on the subset size alone, so each size's least and
    # most boundary decide the check; the scan is searched for the first
    # offending mask only when one exists.
    least, most = an.profile
    lower, upper = sandwich_bounds(an, np.arange(an.n, dtype=np.int64))
    low = lower - SANDWICH_LOWER_MARGIN
    high = upper + SANDWICH_UPPER_MARGIN
    if (least < low).any():
        boundary, sizes = an.scan
        s = int(np.flatnonzero(boundary < low[sizes])[0])
        return f"boundary {boundary[s]} below lower bound {lower[sizes[s]]:.6f} (mask {s})"
    if (most > high).any():
        boundary, sizes = an.scan
        s = int(np.flatnonzero(boundary > high[sizes])[0])
        return f"boundary {boundary[s]} above upper bound {upper[sizes[s]]:.6f} (mask {s})"
    return None


def _sampled_masks(index: int, p: int) -> np.ndarray:
    """The distinct masks, ascending, of _QUAD_SAMPLES draws of
    ``SplitMix64(0xA5C3 + index).randrange(1 << p)``.  A draw from a power
    of two is never rejected, since its limit is 2**64, so draw k is the
    low p bits of output k."""
    draws = SplitMix64(0xA5C3 + index).next_u64s(_QUAD_SAMPLES)
    draws &= np.uint64((1 << p) - 1)
    return np.array(sorted(set(draws.tolist())), dtype=np.int64)


def _check_quadratic_identity(an: Analysis, index: int) -> Optional[str]:
    if not an.enumerable:
        return None
    n = an.n
    p = n - 1
    if n <= _FULL_QUAD_N:
        masks = np.arange(1 << p, dtype=np.int64)
    else:
        masks = _sampled_masks(index, p)
    # Each edge adds t (|e| - t) for the t of its vertices in the mask.  All
    # edges are counted against all masks at once, n edges at a time, so the
    # int64 temporary is no larger than chi below; t <= |e| <= n <= 28, so
    # t (|e| - t) <= 196 fits in uint8.
    quad = np.zeros(masks.size, dtype=np.int64)
    sizes = an.edge_sizes.astype(np.uint8)[:, None]
    for first in range(0, an.m, n):
        t = np.bitwise_count(masks & an.edge_masks[first : first + n, None])
        quad += np.add.reduce(t * (sizes[first : first + n] - t), axis=0, dtype=np.int64)
    # Every product and partial sum of chi^T L chi is an integer far below
    # 2**53, so the float64 products are exact whatever the BLAS does.
    chi = ((masks[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(np.float64)
    expected = np.einsum("si,si->s", chi @ an.laplacian.astype(np.float64), chi)
    if not np.array_equal(quad, expected):
        bad = int(masks[np.flatnonzero(quad != expected)[0]])
        return f"edge-contribution sum differs from chi^T L chi (mask {bad})"
    return None


# How far the max cut may exceed n lambda_n / (4 (k_min - 1)), and the
# isoperimetric number fall below 2 lambda_2 / k_max^2.
MAX_CUT_MARGIN = 1e-8
ISOPERIMETRIC_MARGIN = 1e-8


def _check_maxcut_iso_bounds(an: Analysis, index: int) -> Optional[str]:
    if not an.enumerable or an.m == 0 or an.n < 2:
        return None
    summary = connectivity_summary(an)
    mc, bound = summary.max_cut, summary.max_cut_bound_kmin
    if mc > bound + MAX_CUT_MARGIN:
        return f"max cut {mc} above n lambda_n / (4 (k_min - 1)) = {bound:.6f}"
    if an.connected:
        iso, low = summary.isoperimetric, summary.iso_lower_bound
        if float(iso) < low - ISOPERIMETRIC_MARGIN:
            return f"isoperimetric {iso} below 2 lambda_2 / k_max^2 = {low:.6f}"
    return None


def _check_sweep_ratio(an: Analysis, index: int) -> Optional[str]:
    if not an.enumerable or not an.connected or an.n < 2 or an.m == 0:
        return None
    subset, report = fiedler_sweep(an)
    ratio = Fraction(report.boundary_size, len(subset))
    iso, _ = isoperimetric(an)
    if ratio < iso:
        return f"sweep ratio {ratio} below isoperimetric number {iso}"
    return None


_HARD_CHECKS = (
    ("laplacian_structure", _check_laplacian_structure),
    ("spectrum_certificates", _check_spectrum_certificates),
    ("connectivity_agreement", _check_connectivity_agreement),
    ("degree_bounds", _check_degree_bounds),
    ("zhu_two_graph", _check_zhu_two_graph),
    ("subset_sandwich", _check_subset_sandwich),
    ("quadratic_identity", _check_quadratic_identity),
    ("maxcut_iso_bounds", _check_maxcut_iso_bounds),
    ("sweep_ratio", _check_sweep_ratio),
)


def _record_bound(an: Analysis, name: str, k_min: int = 0) -> Optional[dict]:
    """A violation of bound ``name`` when it applies and the edges have at
    least ``k_min`` vertices each."""
    if an.n < 2 or an.degrees.k_min < k_min:
        return None
    rep = an.bounds.get(name)
    if rep is None or rep.holds:
        return None
    return {"bound": rep.value, "lambda_n": rep.lambda_n, "pair": list(rep.witness)}


# How far the max cut may exceed the k_max form of its bound before the
# claim records a violation.
MAX_CUT_KMAX_MARGIN = 1e-8


def _record_maxcut_printed(an: Analysis) -> Optional[dict]:
    if not an.enumerable or an.m == 0 or an.n < 2:
        return None
    summary = connectivity_summary(an)
    mc, bound = summary.max_cut, summary.max_cut_bound_kmax
    if mc <= bound + MAX_CUT_KMAX_MARGIN:
        return None
    return {
        "max_cut": mc,
        "bound": bound,
        "witness": list(summary.max_cut_witness),
    }


def _record_edge_degree_sum(an: Analysis) -> Optional[dict]:
    if an.m == 0 or an.n < 2:
        return None
    chk = check_edge_degree_sum(an)
    if not chk.exceeded:
        return None
    return {
        "edge_max": chk.edge_max,
        "lambda_n": chk.lambda_n,
        "edge": list(chk.witness_edge),
    }


_RECORDED = (
    ("zhu_nonuniform_distinct", lambda an: _record_bound(an, "zhu_nonuniform")),
    ("zhu_nonuniform_weighted", lambda an: _record_bound(an, "zhu_nonuniform_weighted")),
    ("zhu_uniform_k3plus", lambda an: _record_bound(an, "zhu_uniform", k_min=3)),
    ("maxcut_kmax_bound", _record_maxcut_printed),
    ("edge_degree_sum_exceeded", _record_edge_degree_sum),
)


def verify_instances(instances: Iterable, source: str) -> VerifyReport:
    """Run every check over (name, hypergraph) pairs.  Each instance is
    analysed once, through :func:`hyperlap.analysis.analyze_stream`, so the
    spectra of consecutive same-size instances are solved in stacked
    chunks; each analysis is dropped after its checks, so at most one
    subset scan is alive at a time."""
    checks = [CheckResult(name) for name, _ in _HARD_CHECKS]
    recorded = [RecordedClaim(name) for name, _ in _RECORDED]
    count = 0
    for index, (name, an) in enumerate(analyze_stream(instances)):
        count += 1
        for result, (_, fn) in zip(checks, _HARD_CHECKS):
            result.record(name, fn(an, index))
        for claim, (_, fn) in zip(recorded, _RECORDED):
            witness = fn(an)
            claim.record(None if witness is None else {"instance": name, **witness})
    return VerifyReport(
        source=source,
        instance_count=count,
        hard_checks=checks,
        recorded=recorded,
    )


def random_battery(
    n: int, m: int, k_min: int, k_max: int, count: int, seed: int
) -> list:
    """Fixed-shape battery: instance i uses seed ``seed + i``."""
    if count < 0:
        raise BadParametersError(f"instance count must be >= 0, got {count}")
    return [
        (
            f"random(n={n},m={m},k={k_min}..{k_max},seed={seed + i})",
            random_hypergraph(n, m, k_min, k_max, seed + i),
        )
        for i in range(count)
    ]


def varied_battery(
    count: int,
    base_seed: int,
    n_lo: int = 4,
    n_hi: int = 9,
    k_lo: int = 2,
    k_hi: int = 4,
    require: Optional[str] = None,
) -> list:
    """Battery with varied shapes, deterministic in base_seed.

    ``require`` filters by rejection: "connected" or "nonuniform".
    """
    out = []
    for i in range(count):
        rng = SplitMix64(base_seed + i)
        for _ in range(10_000):
            n = n_lo + rng.randrange(n_hi - n_lo + 1)
            hi = min(k_hi, n)
            lo = min(k_lo, hi)
            available = sum(comb(n, k) for k in range(lo, hi + 1))
            m = min(available, 2 + rng.randrange(n + 2))
            h = random_hypergraph(n, m, lo, hi, seed=rng.next_u64())
            if require == "connected" and len(connected_components(h)) != 1:
                continue
            if require == "nonuniform":
                dp = degree_profile(h)
                if dp.k_min == dp.k_max:
                    continue
            out.append((f"varied(seed={base_seed + i})", h))
            break
        else:  # pragma: no cover
            raise RuntimeError("battery rejection loop failed to terminate")
    return out
