"""Output checks: every CLI answer against the benchmark's own oracles.

Each factory takes what the benchmark knows about an input and returns a
check ``(exit_code, stdout, stderr) -> None | str``; a string says why the
call failed.  Nothing is compared with a saved copy of earlier output:

* eigenvalues against ``np.linalg.eigh`` of a Laplacian built here from the
  generated edge lists;
* bounds against that lambda_n, and 2 max delta / the adjacent pair sum
  against a recomputation;
* max cut and the isoperimetric number against a brute force over subsets
  done here, compared as exact fractions;
* sweep and subset cuts by recounting their boundary from the edge list
  and placing it between the spectral bounds (a sweep subset is never
  pinned: another rotation order may pick another valid subset);
* verify reports by `passed` and their instance and check counts.
"""

import json
from fractions import Fraction
from typing import Optional

import numpy as np

# Eigenvalues agree with LAPACK to this share of max(1, |L|_F); reports
# round floats to 10 places, which ROUND covers.
EIG_TOL = 1e-9
ROUND = 1e-9
# Same threshold the program uses to decide whether a bound holds.
HOLDS_TOL = 1e-8

PROVEN_BOUNDS = ("twice_max_laplacian_degree", "adjacent_laplacian_degree_sum")


class Mismatch(Exception):
    """An output that contradicts an oracle or a required property."""


def _require(condition, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _judged(body):
    def check(rc, out: str, err: str) -> Optional[str]:
        try:
            body(rc, out, err)
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"
        return None

    return check


def _payload(rc, out: str):
    _require(rc == 0, f"exit code {rc}")
    return json.loads(out)


def brute_force_cuts(n: int, edges) -> tuple:
    """(max cut, isoperimetric number as a Fraction) by scanning every
    subset of the first n-1 vertices; a set and its complement share a
    boundary, so that covers every cut."""
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    boundary = np.zeros(masks.size, dtype=np.int64)
    for edge in edges:
        t = np.bitwise_count(masks & sum(1 << v for v in edge))
        boundary += (t > 0) & (t < len(edge))
    sizes = np.bitwise_count(masks)
    iso = min(
        Fraction(int(boundary[(sizes == s) | (sizes == n - s)].min()), s)
        for s in range(1, n // 2 + 1)
    )
    return int(boundary.max()), iso


def _tol(inp) -> float:
    return EIG_TOL * max(1.0, inp.fro) + ROUND


def _close(got, want: float, scale: float = 1.0) -> bool:
    return abs(float(got) - want) <= EIG_TOL * max(1.0, abs(want), scale) + ROUND


def _vertices(inp, labels) -> list:
    _require(len(set(labels)) == len(labels), f"subset repeats a label: {labels}")
    _require(all(lab in inp.index for lab in labels), f"unknown labels in {labels}")
    return [inp.index[lab] for lab in labels]


def _shape(inp, p: dict) -> None:
    _require(p["n"] == inp.n and p["m"] == len(inp.edges), "wrong n or m")
    _require(
        p["k_min"] == int(inp.sizes.min()) and p["k_max"] == int(inp.sizes.max()),
        "wrong k_min or k_max",
    )


def _eigenvalues(inp, values) -> None:
    got = np.array(values, dtype=np.float64)
    _require(got.shape == (inp.n,), f"{got.size} eigenvalues for n={inp.n}")
    worst = float(np.max(np.abs(got - inp.eigenvalues)))
    _require(worst <= _tol(inp), f"eigenvalue off LAPACK by {worst:.3e}")
    _require(bool(np.all(np.diff(got) >= 0)), "eigenvalues not ascending")


def _bounds(inp, entries: list) -> None:
    lam_n = float(inp.eigenvalues[-1])
    tol = _tol(inp)
    uniform = inp.sizes.min() == inp.sizes.max()
    names = [e["name"] for e in entries]
    expected = list(PROVEN_BOUNDS) + (["zhu_uniform"] if uniform else [])
    expected += ["zhu_nonuniform", "zhu_nonuniform_weighted"]
    _require(names == expected, f"bounds {names}, expected {expected}")
    proven = set(PROVEN_BOUNDS) | ({"zhu_uniform"} if inp.sizes.max() == 2 else set())
    edge = HOLDS_TOL * max(1.0, lam_n)
    for e in entries:
        value = float(e["value"])
        _require(abs(e["lambda_n"] - lam_n) <= tol, f"{e['name']}: lambda_n off")
        _require(_close(e["slack"], value - e["lambda_n"]), f"{e['name']}: slack")
        if abs(value - lam_n) > edge + tol:
            _require(e["holds"] == (value > lam_n), f"{e['name']}: holds flag wrong")
        if e["name"] in proven:
            _require(value >= lam_n - tol, f"{e['name']} = {value} < lambda_n {lam_n}")

    delta = inp.delta
    twice = entries[0]
    _require(twice["value"] == 2.0 * delta.max(), "2 max delta differs from recount")
    _require(delta[_vertices(inp, twice["witness"])[0]] == delta.max(), "twice-max witness")
    adjacent = -inp.laplacian > 0
    sums = np.where(adjacent, delta[:, None] + delta[None, :], -1)
    pair = entries[1]
    _require(pair["value"] == float(sums.max()), "adjacent pair sum differs from recount")
    i, j = _vertices(inp, pair["witness"])
    _require(sums[i, j] == sums.max(), "adjacent pair-sum witness")


def _fraction(obj) -> Fraction:
    frac = Fraction(obj["numerator"], obj["denominator"])
    _require(_close(obj["value"], float(frac)), "fraction value differs from its ratio")
    return frac


def _cut_summary(inp, p: dict) -> None:
    max_cut, iso = inp.brute_force
    lam2, lam_n = float(inp.eigenvalues[1]), float(inp.eigenvalues[-1])
    k_min, k_max = int(inp.sizes.min()), int(inp.sizes.max())
    _require(p["max_cut"] == max_cut, f"max cut {p['max_cut']}, brute force {max_cut}")
    witness = _vertices(inp, p["max_cut_witness"])
    _require(len(inp.boundary(witness)) == max_cut, "max-cut witness does not attain it")
    got = _fraction(p["isoperimetric"])
    _require(got == iso, f"isoperimetric {got}, brute force {iso}")
    witness = _vertices(inp, p["iso_witness"])
    _require(1 <= len(witness) and 2 * len(witness) <= inp.n, "iso witness size")
    _require(Fraction(len(inp.boundary(witness)), len(witness)) == iso, "iso witness ratio")
    kmin_bound = inp.n * lam_n / (4.0 * (k_min - 1))
    _require(_close(p["max_cut_bound_kmin"], kmin_bound, inp.fro), "max-cut bound value")
    _require(max_cut <= kmin_bound + _tol(inp), "max cut above its k_min bound")
    low = 2.0 * lam2 / k_max**2
    _require(_close(p["iso_lower_bound"], low, inp.fro), "isoperimetric bound value")
    _require(low <= float(iso) + _tol(inp), "isoperimetric number below its bound")


def _sandwich(inp, vertices: list, p: dict) -> int:
    """Recount |bd S| and place it between the spectral bounds; returns it."""
    n, s = inp.n, len(vertices)
    count = len(inp.boundary(vertices))
    _require(p["boundary_size"] == count, f"boundary {p['boundary_size']}, recount {count}")
    lam2, lam_n = float(inp.eigenvalues[1]), float(inp.eigenvalues[-1])
    pairs = s * (n - s)
    lower = 4.0 * lam2 * pairs / (n * int(inp.sizes.max()) ** 2)
    upper = lam_n * pairs / (n * (int(inp.sizes.min()) - 1))
    _require(_close(p["lower"], lower, inp.fro), "lower bound value")
    _require(_close(p["upper"], upper, inp.fro), "upper bound value")
    tol = _tol(inp) * max(1, pairs)
    _require(lower - tol <= count <= upper + tol, "boundary outside the sandwich")
    return count


def spectrum(inp):
    def body(rc, out, err):
        p = _payload(rc, out)
        _shape(inp, p)
        _eigenvalues(inp, p["eigenvalues"])
        _require(p["lambda_2"] == p["eigenvalues"][1], "lambda_2 field")
        _require(p["lambda_n"] == p["eigenvalues"][-1], "lambda_n field")
        _require(p["connected"] is inp.connected, "connectivity")

    return _judged(body)


def bounds(inp):
    return _judged(lambda rc, out, err: _bounds(inp, _payload(rc, out)))


def cuts_exact(inp):
    def body(rc, out, err):
        p = _payload(rc, out)
        _shape(inp, p)
        _cut_summary(inp, p)

    return _judged(body)


def cuts_sweep(inp):
    def body(rc, out, err):
        p = _payload(rc, out)
        _shape(inp, p)
        vertices = _vertices(inp, p["subset"])
        _require(1 <= len(vertices) and 2 * len(vertices) <= inp.n, "sweep subset size")
        count = _sandwich(inp, vertices, p)
        ratio = _fraction(p["ratio"])
        _require(ratio == Fraction(count, len(vertices)), "sweep ratio does not match its subset")

    return _judged(body)


def cuts_subset(inp, labels: list):
    def body(rc, out, err):
        p = _payload(rc, out)
        _shape(inp, p)
        _require(sorted(p["subset"]) == sorted(labels), "subset echo differs from request")
        vertices = _vertices(inp, labels)
        count = _sandwich(inp, vertices, p)
        got = {frozenset(e) for e in p["boundary_edges"]}
        want = {frozenset(inp.labels[v] for v in e) for e in inp.boundary(vertices)}
        _require(len(p["boundary_edges"]) == count and got == want, "boundary edge list")
        pairs = len(vertices) * (inp.n - len(vertices))
        _require(_close(p["density"], count / pairs), "density")

    return _judged(body)


def _hard_checks_clean(checks: list, count: Optional[int]) -> None:
    _require(len(checks) > 0, "no hard checks reported")
    for c in checks:
        _require(c["failed"] == 0, f"hard check {c['name']} failed: {c['failures'][:1]}")
        if count is not None:
            _require(c["checked"] == count, f"hard check {c['name']} ran {c['checked']} times")


def verify_file(inp):
    def body(rc, out, err):
        p = _payload(rc, out)
        _shape(inp, p)
        _eigenvalues(inp, p["spectrum"])
        _require(p["connected"] is inp.connected, "connectivity")
        _bounds(inp, p["bounds"])
        if inp.n <= 20:
            _cut_summary(inp, p["cuts"])
        else:
            _require(p["cuts"] is None, "exact cuts reported above the cap")
        _hard_checks_clean(p["hard_checks"], None)
        _require(p["passed"] is True, "report not passed")

    return _judged(body)


def verify_random(count: int):
    def body(rc, out, err):
        p = _payload(rc, out)
        _require(p["instances"] == count, f"{p['instances']} instances, asked for {count}")
        _hard_checks_clean(p["hard_checks"], count)
        for r in p["recorded"]:
            _require(r["checked"] == count, f"claim {r['name']} ran {r['checked']} times")
            _require(0 <= r["violations"] <= count, f"claim {r['name']} violations")
        _require(p["passed"] is True, "battery not passed")

    return _judged(body)


@_judged
def rejected(rc, out, err):
    """A bad input must end in exit 1 and one `error:` line, nothing else."""
    _require(rc == 1, f"exit code {rc}, expected 1")
    _require(out == "", "stdout not empty")
    lines = err.splitlines()
    _require(len(lines) == 1 and lines[0].startswith("error:"), "stderr is not one error line")
