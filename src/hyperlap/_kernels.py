"""Hot numeric kernels: cyclic Jacobi sweeps and the subset-boundary scan.

These two loops do nearly all of the package's numeric work: the Jacobi
sweeps behind every spectrum, and the scan over all vertex subsets behind
exact max cut and the isoperimetric number.  Each has one numpy build.
Jacobi applies each rotation as row and column slice updates in a fixed
cyclic order; the scan vectorizes over the whole mask range, one pass per
edge, counting bits with ``np.bitwise_count``.
"""

import numpy as np


def backend() -> str:
    """Name of the kernel build.  There is only the numpy one; this stays
    because benchmark results record it with the machine facts."""
    return "numpy"


# ---------------------------------------------------------------------------
# Cyclic Jacobi sweeps
#
# Rotates (p, q) planes in a fixed row-major order until the off-diagonal
# Frobenius norm drops below off_tol. Mutates `a` (diagonal converges to the
# eigenvalues) and accumulates rotations into the columns of `v`. Returns the
# number of completed sweeps, or -1 if the cap was hit before convergence.
# ---------------------------------------------------------------------------


def jacobi_sweeps(a, v, max_sweeps, off_tol):
    n = a.shape[0]
    for sweep in range(max_sweeps + 1):
        od = a - np.diag(np.diagonal(a))
        if np.sqrt(np.sum(od * od)) <= off_tol:
            return sweep
        if sweep == max_sweeps:
            return -1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                akp = a[:, p].copy()
                akq = a[:, q].copy()
                a[:, p] = c * akp - s * akq
                a[:, q] = s * akp + c * akq
                apk = a[p, :].copy()
                aqk = a[q, :].copy()
                a[p, :] = c * apk - s * aqk
                a[q, :] = s * apk + c * aqk
                vkp = v[:, p].copy()
                vkq = v[:, q].copy()
                v[:, p] = c * vkp - s * vkq
                v[:, q] = s * vkp + c * vkq
    return -1


# ---------------------------------------------------------------------------
# Subset-boundary scan
#
# For every vertex-subset bitmask in [0, 2**p) and precomputed edge bitmasks,
# count boundary edges (0 < |e & S| < |e|) and accumulate the quadratic
# contribution sum(t * (|e| - t)), t = |e & S|, which equals chi^T L chi.
# All quantities are small integers, so int64 arithmetic is exact.
# ---------------------------------------------------------------------------


def subset_scan(edge_masks, edge_sizes, p):
    masks = np.arange(1 << p, dtype=np.int64)
    boundary = np.zeros(masks.size, dtype=np.int64)
    quad = np.zeros(masks.size, dtype=np.int64)
    for em, sz in zip(edge_masks, edge_sizes):
        t = np.bitwise_count(masks & em).astype(np.int64)
        quad += t * (sz - t)
        boundary += (t > 0) & (t < sz)
    return boundary, quad


def warm_up():
    """Run both kernels once on toy inputs.  Nothing is compiled any more;
    this stays because the benchmark calls it before it starts timing."""
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    v = np.eye(2)
    jacobi_sweeps(a, v, 30, 1e-12 * np.sqrt(10.0))
    subset_scan(np.array([3], dtype=np.int64), np.array([2], dtype=np.int64), 2)
