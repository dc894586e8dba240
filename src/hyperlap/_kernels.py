"""Hot numeric kernels: round-robin Jacobi sweeps and the subset-boundary scan.

These two loops do nearly all of the package's numeric work: the Jacobi
sweeps behind every spectrum, and the scan over all vertex subsets behind
exact max cut and the isoperimetric number.  Each has one numpy build.
Jacobi applies the n/2 disjoint rotations of each round-robin step at
once, as fancy-indexed row updates; the scan counts, for every subset, the
edges inside it with one subset-sum (zeta) transform, n whole-table passes
whose cost O(n 2**n) does not depend on the number of edges.
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
    # gathering columns: `a` takes its column update as a row update of its
    # transpose (numpy copies the overlapping assignment through a
    # temporary), and `v` is held transposed, so its rows are its columns.
    # Both are rotated in place; no working copy is alive beside them.
    v[...] = v.T
    sweeps = -1
    for sweep in range(max_sweeps + 1):
        od = a - np.diag(np.diagonal(a))
        off = np.sqrt(np.sum(od * od))
        del od  # freed before the rotations, which hold the solve's peak
        if off <= off_tol:
            sweeps = sweep
            break
        if sweep == max_sweeps:
            break
        for p, q in steps:
            apq = a[p, q]
            live = apq != 0.0
            if not live.all():
                p, q, apq = p[live], q[live], apq[live]
                if p.size == 0:
                    continue
            # tau overflows to +-inf only when a_pq is negligible next to the
            # diagonal gap; then t = 0 and the rotation is the identity.
            with np.errstate(over="ignore"):
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            c = c[:, None]
            s = s[:, None]
            _rotate_rows(a, p, q, c, s)
            a[...] = a.T
            _rotate_rows(a, p, q, c, s)
            _rotate_rows(v, p, q, c, s)
    v[...] = v.T
    return sweeps


# ---------------------------------------------------------------------------
# Subset-boundary scan (Yates 1937; Bjorklund, Husfeldt, Kaski & Koivisto,
# "Fourier meets Mobius", STOC 2007)
#
# Edges are distinct, so a table of 2**n counts holds 1 at each edge's
# bitmask.  Pass i adds every entry without bit i into the entry with it;
# after the n passes entry S is g(S), the number of edges inside S.  An edge
# crosses S unless it lies inside S or inside its complement, so the boundary
# of S is m - g(S) - g(V \ S).
# ---------------------------------------------------------------------------


def subset_scan(edge_masks, edge_sizes, p):
    """The boundary edge count of each subset bitmask in [0, 2**p), for
    edges given as distinct vertex bitmasks over n = p + 1 vertices, in the
    table's int32: every count is at most m < 2**n.  ``edge_sizes`` is not
    read; it stays because the benchmark's tracer unpacks three arguments."""
    half = 1 << p
    inside = np.zeros(2 * half, dtype=np.int32)
    inside[edge_masks] = 1
    for i in range(p + 1):
        v = inside.reshape(-1, 2, 1 << i)
        v[:, 1] += v[:, 0]
    # Entry S of the reversed upper half is g of the complement of S.
    boundary = len(edge_masks) - inside[:half]
    boundary -= inside[: half - 1 : -1]
    return boundary


def warm_up():
    """Run both kernels once on toy inputs.  Nothing is compiled any more;
    this stays because the benchmark calls it before it starts timing."""
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    v = np.eye(2)
    jacobi_sweeps(a, v, 30, 1e-12 * np.sqrt(10.0))
    subset_scan(np.array([3], dtype=np.int64), np.array([2], dtype=np.int64), 2)
