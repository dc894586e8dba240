"""Hot numeric kernels: round-robin Jacobi sweeps and the subset-boundary scan.

These two loops do nearly all of the package's numeric work: the Jacobi
sweeps behind every spectrum, and the scan over all vertex subsets behind
exact max cut and the isoperimetric number.  Each has one numpy build.
Jacobi applies the n/2 disjoint rotations of each round-robin step at
once, as fancy-indexed row updates; the scan counts boundary edges only,
over the whole mask range, one pass per edge, with ``np.bitwise_count``.
"""

import numpy as np


def backend() -> str:
    """Name of the kernel build.  There is only the numpy one; this stays
    because benchmark results record it with the machine facts."""
    return "numpy"


# ---------------------------------------------------------------------------
# Round-robin parallel Jacobi sweeps (Brent & Luk 1985; Golub & Van Loan ch. 8)
#
# A sweep is the n'-1 steps of the circle-method tournament on n' = n rounded
# up to even players; pairs with the padding player are dropped.  The pairs of
# one step are disjoint, so their rotations commute and are applied at once as
# fancy-indexed row updates; each (p, q) with p < q meets once per sweep.
# Sweeps repeat until the off-diagonal Frobenius norm drops below off_tol.
# Mutates `a` (diagonal converges to the eigenvalues) and accumulates
# rotations into the columns of `v`. Returns the number of completed sweeps,
# or -1 if the cap was hit before convergence.
# ---------------------------------------------------------------------------


def _round_robin(n):
    """The steps of one sweep, each as index arrays (p, q) with p < q."""
    players = list(range(n + n % 2))
    half = len(players) // 2
    steps = []
    for _ in range(len(players) - 1):
        pairs = [
            (min(x, y), max(x, y))
            for x, y in zip(players[:half], reversed(players[half:]))
            if max(x, y) < n
        ]
        if pairs:
            p, q = (np.array(col, dtype=np.intp) for col in zip(*pairs))
            steps.append((p, q))
        players.insert(1, players.pop())
    return steps


def _rotate_rows(x, p, q, c, s):
    """Row p becomes c*row_p - s*row_q and row q becomes s*row_p + c*row_q."""
    xp = x[p]
    xq = x[q]
    x[p] = c * xp - s * xq
    x[q] = s * xp + c * xq


def jacobi_sweeps(a, v, max_sweeps, off_tol):
    steps = _round_robin(a.shape[0])
    # Only whole rows are rotated, since gathering rows is much cheaper than
    # gathering columns: `w` takes its column update as a row update of its
    # transpose, and the rows of `vt` are the columns of `v`.
    w = a.copy()
    vt = v.T.copy()
    sweeps = -1
    for sweep in range(max_sweeps + 1):
        od = w - np.diag(np.diagonal(w))
        if np.sqrt(np.sum(od * od)) <= off_tol:
            sweeps = sweep
            break
        if sweep == max_sweeps:
            break
        for p, q in steps:
            apq = w[p, q]
            live = apq != 0.0
            if not live.all():
                p, q, apq = p[live], q[live], apq[live]
                if p.size == 0:
                    continue
            # tau overflows to +-inf only when a_pq is negligible next to the
            # diagonal gap; then t = 0 and the rotation is the identity.
            with np.errstate(over="ignore"):
                tau = (w[q, q] - w[p, p]) / (2.0 * apq)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            c = c[:, None]
            s = s[:, None]
            _rotate_rows(w, p, q, c, s)
            w = w.T.copy()
            _rotate_rows(w, p, q, c, s)
            _rotate_rows(vt, p, q, c, s)
    a[...] = w
    v[...] = vt.T
    return sweeps


# ---------------------------------------------------------------------------
# Subset-boundary scan
#
# For every vertex-subset bitmask in [0, 2**p) and precomputed edge bitmasks
# and sizes, count the boundary edges, those with 0 < |e & S| < |e|.  Returns
# the int64 counts, indexed by subset bitmask.
# ---------------------------------------------------------------------------


def subset_scan(edge_masks, edge_sizes, p):
    masks = np.arange(1 << p, dtype=np.int64)
    boundary = np.zeros(masks.size, dtype=np.int64)
    for em, sz in zip(edge_masks, edge_sizes):
        t = np.bitwise_count(masks & em)
        boundary += (t > 0) & (t < sz)
    return boundary


def warm_up():
    """Run both kernels once on toy inputs.  Nothing is compiled any more;
    this stays because the benchmark calls it before it starts timing."""
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    v = np.eye(2)
    jacobi_sweeps(a, v, 30, 1e-12 * np.sqrt(10.0))
    subset_scan(np.array([3], dtype=np.int64), np.array([2], dtype=np.int64), 2)
