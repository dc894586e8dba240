"""Deterministic JSON reports.

Identical input and flags must produce byte-identical output: key order is
fixed by construction, floats are rounded to 10 decimal places, non-finite
floats become null, and exact rationals are emitted as numerator/denominator
pairs next to a rounded decimal.  Degrees, spectrum, connectivity and
bounds are read from ``analyze(h)``.

:func:`dumps` writes the JSON text in one recursive pass that converts
and encodes each value: two-space indentation, ``","`` between items and
``": "`` after keys, ASCII-only strings through the standard library's C
string encoder, and each number as its ``repr``.  Vertex labels are looked
up by index, with one table per input, and each list of labels is written
with one ``join``.  A list of edges, such as a cut's boundary, is held as
the label table and the edge tuples (``_Rows``), and written with one
``join`` of pieces that each hold one quoted label, three per vertex.
"""

from dataclasses import asdict
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from typing import Optional

import numpy as np

from .analysis import analyze
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
    """A list of vertex labels, which :func:`dumps` writes as strings
    without looking at each one's type."""

    __slots__ = ()  # as small as a plain list


class _Rows:
    """Edges as rows of vertex labels: ``names``, each vertex's label by
    index, and ``edges``, tuples of two or more vertex indices.
    :func:`dumps` writes them as an array of arrays of strings with one
    ``join``: each member's text is one of three pieces per vertex, the
    quoted label with what precedes it as an edge's first or a later
    member, and as an edge's last member with what follows it too."""

    __slots__ = ("names", "edges")

    def __init__(self, names: tuple, edges) -> None:
        self.names, self.edges = names, edges

    def __len__(self) -> int:
        return len(self.edges)

    def encode(self, pad: str) -> str:
        if not self.edges:
            return "[]"
        inner = pad + "  "
        cell = inner + "  "
        quoted = list(map(_string, self.names))
        n = len(quoted)
        pieces = np.array(
            ["[" + cell + q for q in quoted]
            + ["," + cell + q for q in quoted]
            + ["," + cell + q + inner + "]," + inner for q in quoted],
            dtype=object,
        )
        sizes = np.fromiter(map(len, self.edges), dtype=np.int64, count=len(self.edges))
        ends = np.cumsum(sizes)
        piece = np.fromiter(chain.from_iterable(self.edges), dtype=np.int64, count=int(ends[-1]))
        piece += n
        piece[ends - sizes] -= n  # each edge's first member
        piece[ends - 1] += n  # and its last
        parts = pieces[piece].tolist()
        parts[-1] = parts[-1][: -len("," + inner)]  # no edge follows the last
        return "".join(chain(["[" + inner], parts, [pad + "]"]))


def dumps(payload) -> str:
    """The JSON text of ``payload``, ending in a newline.  Floats (numpy's
    too) are rounded to 10 places and non-finite ones become null; numpy
    integers become ints; a Fraction becomes its numerator, denominator and
    rounded value; tuples and arrays become lists; dict keys become
    strings.  A value of any other type raises TypeError."""
    return _encode(payload, "\n") + "\n"


def _encode(obj, pad: str) -> str:
    """``obj`` as JSON text whose nested lines start with ``pad``, a
    newline and the indentation of the line ``obj`` starts on."""
    inner = pad + "  "
    if type(obj) is _Labels:  # first, as most nodes of a large report are
        items = map(_string, obj)
    elif type(obj) is _Rows:
        return obj.encode(pad)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [_encode(v, inner) for v in obj]
    elif isinstance(obj, str):
        return _string(obj)
    elif obj is None:
        return "null"
    elif isinstance(obj, bool):
        return "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    elif isinstance(obj, (float, np.floating)):
        x = _round(obj)
        return "null" if x is None else float.__repr__(x)
    else:
        if isinstance(obj, Fraction):
            obj = {"numerator": obj.numerator, "denominator": obj.denominator,
                   "value": float(obj)}
        if not isinstance(obj, dict):
            raise TypeError(
                f"Object of type {type(obj).__name__} is not JSON serializable"
            )
        if not obj:
            return "{}"
        items = (_string(str(k)) + ": " + _encode(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if len(obj) == 0:
        return "[]"
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _names(h: Hypergraph) -> tuple:
    """Each vertex's label, by index."""
    return h.labels if h.labels is not None else tuple(map(str, range(h.n)))


def _labels(names: tuple, vertices) -> Optional[list]:
    if vertices is None:
        return None
    return _Labels(map(names.__getitem__, vertices))


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
    names = _names(h)
    return [
        {
            "name": rep.name,
            "value": rep.value,
            "lambda_n": rep.lambda_n,
            "slack": rep.slack,
            "holds": rep.holds,
            "witness": _labels(names, rep.witness),
        }
        for rep in analyze(h).bounds.values()
    ]


def cut_payload(h: Hypergraph, report: CutReport, source: str) -> dict:
    names = _names(h)
    payload = _shape(h, source)
    payload.update(
        {
            "subset": _labels(names, report.subset),
            "boundary_size": report.boundary_size,
            "lower": report.lower,
            "upper": report.upper,
            "density": report.density,
            "boundary_edges": _Rows(names, report.edges),
        }
    )
    return payload


def _summary_fields(h: Hypergraph, summary: ConnectivitySummary) -> dict:
    names = _names(h)
    return {
        "max_cut": summary.max_cut,
        "max_cut_witness": _labels(names, summary.max_cut_witness),
        "max_cut_bound_kmin": summary.max_cut_bound_kmin,
        "max_cut_bound_kmax": summary.max_cut_bound_kmax,
        "isoperimetric": summary.isoperimetric,
        "iso_witness": _labels(names, summary.iso_witness),
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
            "subset": _labels(_names(h), subset),
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
        "hard_checks": [asdict(c) for c in report.hard_checks],
        "recorded": [asdict(r) for r in report.recorded],
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
