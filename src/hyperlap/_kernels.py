"""Hot numeric kernels: round-robin Jacobi sweeps and the subset-boundary scan.

These two loops do nearly all of the package's numeric work: the Jacobi
sweeps behind every spectrum, and the scan over all vertex subsets behind
exact max cut and the isoperimetric number.  Each has one numpy build.
Jacobi works on a stack of same-size matrices, (B, n, n), and applies the
n/2 disjoint rotations of each round-robin step to every matrix of the
stack at once, as fancy-indexed row updates, so a stack of small matrices
pays each step's numpy calls once; ``jacobi_sweeps`` is the same kernel on
one matrix.  The scan counts, for every subset, the edges inside it with
one subset-sum (zeta) transform, n whole-table passes whose cost
O(n 2**n) does not depend on the number of edges.
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
# A stack of B same-size matrices is solved together: each step rotates the
# pairs of every matrix still being solved in the same row updates, so the
# step's numpy calls are shared by the whole stack.  Each matrix sweeps until
# its own off-diagonal Frobenius norm drops below its own tolerance, and is
# left alone from then on; every matrix gets exactly the arithmetic it would
# get if solved alone.  Mutates `a` (diagonals converge to the eigenvalues)
# and accumulates rotations into the columns of `v`.
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


def _stack_steps(n, b):
    """The steps of one sweep over every matrix of a (B, n, n) stack, each
    as index arrays (p, q) over its pairs, matrix-major, into the stack's
    (B*n, n) row view."""
    base = np.arange(b)[:, None] * n
    return [((base + p).ravel(), (base + q).ravel()) for p, q in _round_robin(n)]


def _rotate_rows(x, p, q, c, s):
    """Row p becomes c*row_p - s*row_q and row q becomes s*row_p + c*row_q."""
    xp = x[p]
    xq = x[q]
    x[p] = c * xp - s * xq
    x[q] = s * xp + c * xq


def jacobi_stack(a, v, max_sweeps, off_tol):
    """Jacobi sweeps over C-contiguous float64 stacks ``a`` and ``v`` of
    shape (B, n, n), with one tolerance per matrix in ``off_tol``.  Returns
    each matrix's number of completed sweeps, or -1 where the cap was hit
    before convergence."""
    if not (a.flags.c_contiguous and v.flags.c_contiguous):
        raise ValueError("the Jacobi kernel rotates C-contiguous stacks in place")
    b, n = a.shape[0], a.shape[1]
    # Only whole rows are rotated, since gathering rows is much cheaper than
    # gathering columns: `a` takes its column update as a row update of its
    # transpose (numpy copies the overlapping assignment through a
    # temporary), and `v` is held transposed, so its rows are its columns.
    # Both are rotated in place; no working copy is alive beside them.
    v[...] = v.transpose(0, 2, 1)
    flat = a.reshape(-1)
    rows = a.reshape(b * n, n)
    v_rows = v.reshape(b * n, n)
    # The flat index of each row's diagonal entry; a_pq sits q - p entries
    # after a_pp.
    diag = (np.arange(b)[:, None] * (n * n) + np.arange(n) * (n + 1)).ravel()
    off_tol = np.asarray(off_tol, dtype=np.float64)
    sweeps = np.full(b, -1)
    active = np.arange(b)
    steps = _stack_steps(n, b)
    for sweep in range(max_sweeps + 1):
        sq = a * a
        sq.reshape(b, n * n)[:, :: n + 1] = 0.0
        off = np.sqrt(np.sum(sq.reshape(b, n * n), axis=1))
        del sq  # freed before the rotations, which hold the solve's peak
        done = off[active] <= off_tol[active]
        sweeps[active[done]] = sweep
        if done.all():
            break
        if done.any():
            # Drop the converged matrices' pairs from every step.
            keep = ~done
            steps = [
                tuple(x.reshape(active.size, -1)[keep].ravel() for x in step)
                for step in steps
            ]
            active = active[keep]
        if sweep == max_sweeps:
            break
        for rp, rq in steps:
            apq = flat[diag[rp] + (rq - rp)]
            live = apq != 0.0
            turned = active
            if not live.all():
                rp, rq, apq = rp[live], rq[live], apq[live]
                if apq.size == 0:
                    continue
                if active.size > 1:
                    # A matrix with no live pair in this step is not
                    # touched, not even transposed: it is symmetric only
                    # up to rounding.
                    turned = active[live.reshape(active.size, -1).any(axis=1)]
            # tau overflows to +-inf only when a_pq is negligible next to the
            # diagonal gap; then t = 0 and the rotation is the identity.
            with np.errstate(over="ignore"):
                tau = (flat[diag[rq]] - flat[diag[rp]]) / (2.0 * apq)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            c = c[:, None]
            s = s[:, None]
            _rotate_rows(rows, rp, rq, c, s)
            if turned.size == b:
                a[...] = a.transpose(0, 2, 1)
            else:
                a[turned] = a[turned].transpose(0, 2, 1)
            _rotate_rows(rows, rp, rq, c, s)
            _rotate_rows(v_rows, rp, rq, c, s)
    v[...] = v.transpose(0, 2, 1)
    return sweeps


def jacobi_sweeps(a, v, max_sweeps, off_tol):
    """:func:`jacobi_stack` on one (n, n) matrix ``a`` and one float
    tolerance; returns its sweep count as an int."""
    return int(jacobi_stack(a[None], v[None], max_sweeps, [off_tol])[0])


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
