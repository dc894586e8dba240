"""Deterministic JSON reports.

Identical input and flags must produce byte-identical output: key order is
fixed by construction, floats are rounded to 10 decimal places, non-finite
floats become null, and exact rationals are emitted as numerator/denominator
pairs next to a rounded decimal.  Degrees, spectrum, connectivity and
bounds are read from ``analyze(h)``.
"""

import json
from fractions import Fraction
from math import isfinite
from typing import Optional

import numpy as np

from .analysis import analyze
from .bounds import all_bounds
from .core import Hypergraph
from .cuts import ConnectivitySummary, CutReport
from .verify import VerifyReport

_PLACES = 10


def _round(x: float) -> Optional[float]:
    x = float(x)
    if not isfinite(x):
        return None
    return round(x, _PLACES) + 0.0  # -0.0 -> 0.0


class _Labels(list):
    """A list of vertex labels: already JSON-safe, so :func:`jsonable`
    returns it as it is."""

    __slots__ = ()  # as small as a plain list


def jsonable(obj):
    """Recursively convert to JSON-safe values with fixed float rounding."""
    if type(obj) is _Labels:
        return obj
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round(obj)
    if isinstance(obj, Fraction):
        return {
            "numerator": obj.numerator,
            "denominator": obj.denominator,
            "value": _round(float(obj)),
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    return obj


def dumps(payload: dict) -> str:
    return json.dumps(jsonable(payload), indent=2, allow_nan=False) + "\n"


def _labels(h: Hypergraph, vertices) -> Optional[list]:
    if vertices is None:
        return None
    return _Labels(map(h.label_of, vertices))


def _shape(h: Hypergraph, source: str) -> dict:
    dp = analyze(h).degrees
    return {
        "input": source,
        "n": h.n,
        "m": h.m,
        "k_min": dp.k_min,
        "k_max": dp.k_max,
    }


def spectrum_payload(h: Hypergraph, source: str) -> dict:
    h = analyze(h)
    lam = h.spectrum.eigenvalues
    payload = _shape(h, source)
    payload.update(
        {
            "connected": h.connected,
            "eigenvalues": list(lam),
            "lambda_2": float(lam[1]) if h.n >= 2 else None,
            "lambda_n": float(lam[-1]) if h.n >= 2 else None,
        }
    )
    return payload


def bounds_payload(h: Hypergraph) -> list:
    """JSON array: one entry per applicable bound."""
    return [
        {
            "name": rep.name,
            "value": rep.value,
            "lambda_n": rep.lambda_n,
            "slack": rep.slack,
            "holds": rep.holds,
            "witness": _labels(h, rep.witness),
        }
        for rep in all_bounds(h)
    ]


def cut_payload(h: Hypergraph, report: CutReport, source: str, edges) -> dict:
    payload = _shape(h, source)
    payload.update(
        {
            "subset": _labels(h, report.subset),
            "boundary_size": report.boundary_size,
            "lower": report.lower,
            "upper": report.upper,
            "density": report.density,
            "boundary_edges": [_labels(h, e) for e in edges],
        }
    )
    return payload


def _summary_fields(h: Hypergraph, summary: ConnectivitySummary) -> dict:
    return {
        "max_cut": summary.max_cut,
        "max_cut_witness": _labels(h, summary.max_cut_witness),
        "max_cut_bound_kmin": summary.max_cut_bound_kmin,
        "max_cut_bound_kmax": summary.max_cut_bound_kmax,
        "isoperimetric": summary.isoperimetric,
        "iso_witness": _labels(h, summary.iso_witness),
        "iso_lower_bound": summary.iso_lower_bound,
    }


def summary_payload(h: Hypergraph, summary: ConnectivitySummary, source: str) -> dict:
    payload = _shape(h, source)
    payload.update(_summary_fields(h, summary))
    return payload


def sweep_payload(
    h: Hypergraph, subset: tuple, report: CutReport, source: str
) -> dict:
    payload = _shape(h, source)
    payload.update(
        {
            "subset": _labels(h, subset),
            "ratio": Fraction(report.boundary_size, len(subset)),
            "boundary_size": report.boundary_size,
            "lower": report.lower,
            "upper": report.upper,
        }
    )
    return payload


def verify_payload(report: VerifyReport) -> dict:
    return {
        "input": report.source,
        "instances": report.instance_count,
        "passed": report.passed,
        "hard_checks": [
            {
                "name": c.name,
                "checked": c.checked,
                "failed": c.failed,
                "failures": list(c.failures),
            }
            for c in report.hard_checks
        ],
        "recorded": [
            {
                "name": r.name,
                "checked": r.checked,
                "violations": r.violations,
                "witnesses": list(r.witnesses),
            }
            for r in report.recorded
        ],
    }


def analysis_payload(
    h: Hypergraph,
    source: str,
    report: VerifyReport,
    summary: Optional[ConnectivitySummary],
) -> dict:
    """Single-input verification: shape, spectrum, bounds, optional exact
    cuts, recorded violations, and the hard-check outcomes."""
    h = analyze(h)
    payload = _shape(h, source)
    payload.update(
        {
            "spectrum": list(h.spectrum.eigenvalues),
            "connected": h.connected,
            "bounds": bounds_payload(h) if h.n >= 2 else [],
            "cuts": _summary_fields(h, summary) if summary is not None else None,
            "violations": [
                {"name": r.name, "count": r.violations, "witnesses": list(r.witnesses)}
                for r in report.recorded
                if r.violations > 0
            ],
            "hard_checks": [
                {"name": c.name, "failed": c.failed, "failures": list(c.failures)}
                for c in report.hard_checks
            ],
            "passed": report.passed,
        }
    )
    return payload
