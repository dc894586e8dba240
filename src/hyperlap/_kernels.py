"""Hot numeric kernels: the eigensolver's warm start, round-robin Jacobi
sweeps and the subset-boundary scan.

These loops do nearly all of the package's numeric work: the eigensolve
behind every spectrum, and the scan over all vertex subsets behind exact
max cut and the isoperimetric number.  Each has one numpy build.  The warm
start works on a stack of same-size matrices, (B, n, n), giving each matrix
the arithmetic it would get alone: :func:`warm_start` reduces each matrix
to a tridiagonal T by Householder reflections (for a lone matrix, with
each reflector's scalars as Python floats), finds every eigenvalue of T
by Sturm-count multisection and every eigenvector by inverse iteration,
and maps them back: a basis in which the matrix is diagonal to rounding.
:func:`jacobi_sweeps` then confirms it on one (n, n) matrix at a time,
which from a good warm start costs one off-diagonal norm; otherwise it
applies the n/2 disjoint rotations of each round-robin step at once, as
fancy-indexed row updates.  The scan counts, for every subset, the edges
inside it with a subset-sum (zeta) transform: its b low-bit passes run on a
block of at most m rows of 2**b entries, one row per distinct high part of
an edge, unless there are as many edges as high parts, and the n - b
passes that follow run on the whole table, so the cost is
O(b m 2**b + (n - b) 2**n).  Its counts are held in the narrowest signed
integer type that holds m.
"""

import math

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
# The matrix sweeps until its off-diagonal Frobenius norm drops below its
# tolerance.  The schedule's n-1 steps of index arrays, the diagonal index and
# the transposed basis are made only before the first rotation: a matrix that
# has converged before any sweep, as one from a good warm start has, costs
# one off-norm.  Mutates `a` (diagonals converge to the eigenvalues) and
# accumulates rotations into the columns of `v`.
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
    """Jacobi sweeps over the C-contiguous float64 (n, n) matrices ``a`` and
    ``v``, in place, until the off-diagonal norm of ``a`` is at most
    ``off_tol``.  Returns the number of completed sweeps, or -1 if the cap
    was hit before convergence."""
    if not (a.flags.c_contiguous and v.flags.c_contiguous):
        raise ValueError("the Jacobi kernel rotates C-contiguous matrices in place")
    n = a.shape[0]
    flat = a.reshape(-1)
    steps = None  # made at the first rotation: from a warm start none runs
    sweeps = -1
    for sweep in range(max_sweeps + 1):
        sq = flat * flat
        sq[:: n + 1] = 0.0
        off = np.sqrt(np.sum(sq))
        del sq  # freed before the rotations, which hold the solve's peak
        if off <= off_tol:
            sweeps = sweep
            break
        if sweep == max_sweeps:
            break
        if steps is None:
            steps = _round_robin(n)
            # The flat index of each row's diagonal entry; a_pq sits q - p
            # entries after a_pp.
            diag = np.arange(n) * (n + 1)
            # Only whole rows are rotated, since gathering rows is much
            # cheaper than gathering columns: `a` takes its column update as
            # a row update of its transpose (numpy copies the overlapping
            # assignment through a temporary), and `v` is held transposed,
            # so its rows are its columns.
            v[...] = v.T
        for p, q in steps:
            apq = flat[diag[p] + (q - p)]
            live = apq != 0.0
            if not live.all():
                p, q, apq = p[live], q[live], apq[live]
                if apq.size == 0:
                    continue
            # tau overflows to +-inf only when a_pq is negligible next to the
            # diagonal gap; then t = 0 and the rotation is the identity.
            with np.errstate(over="ignore"):
                tau = (flat[diag[q]] - flat[diag[p]]) / (2.0 * apq)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            c = c[:, None]
            s = s[:, None]
            _rotate_rows(a, p, q, c, s)
            a[...] = a.T
            _rotate_rows(a, p, q, c, s)
            _rotate_rows(v, p, q, c, s)
    if steps is not None:
        v[...] = v.T
    return sweeps


# ---------------------------------------------------------------------------
# Warm start: Householder tridiagonalisation, Sturm multisection and inverse
# iteration (Golub & Van Loan 8.3-8.5; Parlett, The Symmetric Eigenvalue
# Problem, ch. 7; LAPACK dsytrd, dstebz and dstein)
#
# Every function works on a stack of same-size matrices with elementwise numpy
# calls and sums, and never decides anything for the stack as a whole that
# changes one matrix's arithmetic, so each matrix gets exactly the arithmetic
# it would get alone.  No function calls a matrix product: its rounding
# depends on the BLAS build and on the CPU (fused multiply-adds, block
# sizes), and it would reach the printed eigenvalues.  Every tolerance below
# is relative to the infinity norm ||T|| of the tridiagonal T.
# ---------------------------------------------------------------------------

_EPS = np.finfo(np.float64).eps
# Off-diagonals of T at or below this (times ||T||) are set to 0, so T splits
# into blocks whose eigenvectors the solves keep apart.
_SPLIT_TOL = 16 * _EPS
# Multisection: shifts per interval per pass, and the passes that take an
# interval from T's Gershgorin width, at most 2 ||T|| (1 + 2n eps), to at most
# 4 eps ||T||: each pass divides it by _SHIFTS + 1 = 2**3, so 18 passes
# divide it by 2**54, more than the 2**51 (1 + 2n eps) needed.
_SHIFTS = 7
_PASSES = 18
# The warm start's two row loops, inverse iteration over eigenvalues and
# multisection over the rows of T, take all n at once when their working
# arrays fit in this many bytes: the five (n, B, n) float64 factors and
# iterates, or the (n, _SHIFTS, n, B) float64 pivots.  Below it a solve's
# time is set by how many numpy calls it makes, not by its arithmetic.
# Otherwise they keep the sizes that bound the solve's memory at large n
# (core.dense_bytes): half of the eigenvalues a pass, and n // 8 rows, 1 to
# _STURM_ROWS, a chunk.  At 64 KiB one matrix takes whole loops up to n=34
# and n=40, while a battery stack (analysis._chunk_size) keeps the large-n
# sizes from n=3 up, so its peak stays where it was.
_CHUNK_BYTES = 64 << 10
_STURM_ROWS = 32
# Inverse iteration: solves per eigenvalue, the size (times ||T||) below
# which a pivot of the factorisation is replaced, and the gap between
# consecutive eigenvalues (times ||T||) within which vectors are
# reorthogonalised, as LAPACK dstein does.  A zero T takes ||T|| as 1 here.
_SOLVES = 2
_PIVOT_TOL = _EPS
_CLUSTER_GAP = 1e-3
# A clustered vector of which the first Gram-Schmidt pass leaves less than
# this norm lies in the span of its cluster's earlier vectors up to
# rounding, and normalising the rest would lose about eps / 4 divided by
# that norm of orthogonality to every other vector.  It is computed again
# from its start vector, orthogonalised against those vectors before each
# solve, as dstein does within a cluster.
_RESTART_TOL = 1e-5


def _chunks(n, b):
    """(eigenvalues per inverse-iteration pass, rows per multisection chunk)
    for a stack of b n-by-n matrices, each at least 1.  Every operation of
    both loops is elementwise across eigenvalues and shifts, and the vector
    norms add rows in order, so the chunking does not change a bit."""
    plane = 8 * n * n * b  # bytes of one float64 array of n * n * b entries
    per_pass = n if 5 * plane <= _CHUNK_BYTES else (n + 1) // 2
    rows = n if _SHIFTS * plane <= _CHUNK_BYTES else min(_STURM_ROWS, n // 8)
    return max(per_pass, 1), max(rows, 1)


def _tridiagonalize(h):
    """Reduce each matrix of the C-contiguous float64 stack ``h`` (B, n, n)
    to a symmetric tridiagonal T = Q^T h Q in place, by n - 2 Householder
    reflections.  Returns (d, e, tau): T's diagonal (B, n), off-diagonal
    (B, n - 1) and reflector scales (B, n - 2).  Reflector k is
    I - tau[:, k] v v^T on coordinates k+1..n-1, with v = h[:, k+1:, k], whose
    first entry is 1, and Q is the product of reflectors 0, 1, ..., n-3."""
    b, n = h.shape[0], h.shape[1]
    tau = np.zeros((b, max(n - 2, 0)))
    e = np.zeros((b, max(n - 1, 0)))
    if b == 1:
        _tridiagonalize_one(h[0], e[0], tau[0])
    else:
        for k in range(n - 2):
            x = h[:, k + 1 :, k]
            alpha = x[:, 0].copy()
            tail = x[:, 1:]
            sigma = np.add.reduce(tail * tail, axis=1)
            norm = np.sqrt(alpha * alpha + sigma)
            beta = np.where(alpha >= 0.0, -norm, norm)
            # A column already zero below the subdiagonal needs no reflection.
            reflect = sigma != 0.0
            head = np.where(reflect, alpha - beta, 1.0)
            t = np.where(reflect, (beta - alpha) / np.where(reflect, beta, 1.0), 0.0)
            v = x / head[:, None]
            v[:, 0] = 1.0
            e[:, k] = np.where(reflect, beta, alpha)
            tau[:, k] = t
            # Two-sided update of the trailing block: A -= v w^T + w v^T with
            # p = tau A v and w = p - (tau/2)(p.v) v.
            block = h[:, k + 1 :, k + 1 :]
            p = t[:, None] * np.add.reduce(block * v[:, None, :], axis=2)
            w = p - (0.5 * t * np.add.reduce(p * v, axis=1))[:, None] * v
            block -= v[:, :, None] * w[:, None, :]
            block -= w[:, :, None] * v[:, None, :]
            x[...] = v
    if n > 1:
        e[:, n - 2] = h[:, n - 1, n - 2]
    d = np.diagonal(h, axis1=1, axis2=2).copy()
    return d, e, tau


def _tridiagonalize_one(g, e, tau):
    """The reflections of :func:`_tridiagonalize` for one matrix ``g``
    (n, n), writing ``e`` and ``tau`` in place.  Each reflector's scalars
    are Python floats: the same IEEE operations on the same operands as the
    stack's (B,) arrays, without a numpy call each."""
    n = g.shape[0]
    for k in range(n - 2):
        x = g[k + 1 :, k]
        alpha = float(x[0])
        tail = x[1:]
        sigma = float(np.add.reduce(tail * tail))
        norm = math.sqrt(alpha * alpha + sigma)
        beta = -norm if alpha >= 0.0 else norm
        if sigma != 0.0:
            head, t, e[k] = alpha - beta, (beta - alpha) / beta, beta
        else:
            head, t, e[k] = 1.0, 0.0, alpha
        v = x / head
        v[0] = 1.0
        tau[k] = t
        block = g[k + 1 :, k + 1 :]
        p = t * np.add.reduce(block * v, axis=1)
        w = p - 0.5 * t * float(np.add.reduce(p * v)) * v
        block -= v[:, None] * w
        block -= w[:, None] * v
        x[...] = v


def _back_transform(h, tau, w):
    """Apply Q of :func:`_tridiagonalize` to each row of ``w`` (B, c, n) in
    place: a row z of T's eigenvectors becomes Q z, one of h's."""
    n = h.shape[1]
    for k in range(n - 3, -1, -1):
        v = h[:, k + 1 :, k]
        tail = w[:, :, k + 1 :]
        s = np.add.reduce(tail * v[:, None, :], axis=2) * tau[:, k, None]
        tail -= s[:, :, None] * v[:, None, :]


def _split_tridiagonal(d, e):
    """Set each off-diagonal of T at or below _SPLIT_TOL ||T|| to 0, in
    place.  Returns ||T||, T's infinity norm, and the ends of an interval
    that holds every eigenvalue of the split T: the Gershgorin bounds of the
    unsplit T, whose radii cover the split one's, widened by 2n eps ||T||
    for their rounding; each (B,)."""
    n = d.shape[1]
    radius = np.zeros_like(d)
    radius[:, 1:] += np.abs(e)
    radius[:, :-1] += np.abs(e)
    norm = (np.abs(d) + radius).max(axis=1, initial=0.0)
    e[np.abs(e) <= _SPLIT_TOL * norm[:, None]] = 0.0
    pad = 2 * n * _EPS * norm
    lo = (d - radius).min(axis=1, initial=0.0) - pad
    hi = (d + radius).max(axis=1, initial=0.0) + pad
    return norm, lo, hi


def _blocks(e, n):
    """Where each of T's blocks starts and stops, (B, n) each: index i lies
    in [start[:, i], stop[:, i]), and T splits between i - 1 and i where
    e[:, i - 1] is 0."""
    b = e.shape[0]
    idx = np.arange(n)
    opens = np.ones((b, n), dtype=bool)
    opens[:, 1:] = e == 0.0
    start = np.maximum.accumulate(np.where(opens, idx, 0), axis=1)
    closes = np.ones((b, n), dtype=bool)
    closes[:, :-1] = opens[:, 1:]
    stop = np.minimum.accumulate(np.where(closes, idx + 1, n)[:, ::-1], axis=1)[:, ::-1]
    return start, stop


def _multisection(d, e, lo, hi, start, stop, rows):
    """All eigenvalues of each T, (B, n): index i of a block
    [start, stop) holds the block's (i - start)-th smallest.  Each
    eigenvalue has its own interval, starting from [lo, hi] (B,); a
    pass counts the block's eigenvalues below _SHIFTS evenly spaced shifts
    inside every interval and keeps the part that holds the eigenvalue.
    After _PASSES passes every interval is at most 4 eps ||T|| wide.

    The count below a shift x is the number of negative pivots
    q_i = d_i - x - e_{i-1}**2 / q_{i-1} of the LDL^T factorisation of
    T - x.  Where e_{i-1} is 0, T splits and q_i = d_i - x starts afresh.
    Each eigenvalue's count takes only the pivots of its own block.  A zero
    pivot within a block makes the next one infinite; of the two, one is
    negative, as when the zero is taken as a tiny negative number.

    Every array is laid out (shift, eigenvalue, matrix), so each numpy call
    runs over all 7 n B shifts of one row.  A pass takes the rows in chunks
    of ``rows`` (:func:`_chunks`): all n while their float pivots fit in
    _CHUNK_BYTES, else n // 8 (1 to _STURM_ROWS).  One call computes
    d_i - x for the whole chunk, two per row (a division and a subtraction,
    in place) finish its pivots, and one marks the negative ones in an
    (n, 7, n, B) bool array, which is counted once per pass, after the
    block mask clears the rows outside each eigenvalue's block if any T
    splits.  The shifts are written into the intervals' ends in place, and
    both new ends are gathered with one index.  Beyond _CHUNK_BYTES the
    chunk's float pivots take no more bytes than that array; with it, the
    (n, n, B) block mask and a few (7, n, B) arrays they are the working
    set."""
    b, n = d.shape
    ends = np.empty((_SHIFTS + 2, n, b))
    ends[0] = lo
    ends[-1] = hi
    flat = ends.reshape(-1)
    # The flat index of each interval's lower end in ends[0], and of its
    # upper end in ends[-1]; a pass moves both by the same count of planes.
    base = np.arange(n * b).reshape(n, b) + np.array([0, n * b])[:, None, None]
    rank = np.arange(n)[:, None] - start.T
    frac = np.arange(1, _SHIFTS + 1)[:, None, None] / (_SHIFTS + 1)

    idx = np.arange(n)[:, None, None]
    inside = ((start.T <= idx) & (idx < stop.T))[:, None]  # row i in j's block
    if inside.all():
        inside = None  # no T splits
    rows_d = d.T[:, None, None]
    e2 = (e * e).T
    # Where T splits, q_i is d_i - x afresh: for each row, None where no
    # matrix splits, True where all do, else the indices of those that do.
    split = [None if x.all() else True if not x.any() else np.flatnonzero(~x)
             for x in (e2 != 0.0)]
    if b == 1:
        # A Python float divides one matrix's pivots faster than a (1,)
        # array broadcast across them, with the same quotients.
        e2 = e2[:, 0].tolist()
    shifts = ends[1:-1]
    ratio = np.empty((_SHIFTS, n, b))
    q = np.empty((rows, _SHIFTS, n, b))
    pivots = list(q)
    negative = np.empty((n, _SHIFTS, n, b), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_PASSES):
            np.multiply(ends[-1] - ends[0], frac, out=shifts)
            shifts += ends[0]
            for first in range(0, n, rows):
                last = min(first + rows, n)
                for i in range(first, last):
                    # e_{i-1}**2 / q_{i-1}; for a chunk's first row, before
                    # the chunk's d_i - x overwrites q_{i-1}.
                    joined = i > 0 and split[i - 1] is not True
                    if joined:
                        np.divide(e2[i - 1], pivots[(i - 1 - first) % rows], out=ratio)
                        if split[i - 1] is not None:
                            ratio[..., split[i - 1]] = 0.0  # q_i = d_i - x there
                    if i == first:
                        np.subtract(rows_d[first:last], shifts, out=q[: last - first])
                    if joined:
                        np.subtract(pivots[i - first], ratio, out=pivots[i - first])
                np.less(q[: last - first], 0.0, out=negative[first:last])
            if inside is not None:
                negative &= inside
            # Summed as uint8 into int32: numpy adds bools several times slower.
            count = np.add.reduce(negative.view(np.uint8), axis=0, dtype=np.int32)
            ends[:: _SHIFTS + 1] = flat[base + (count <= rank).sum(axis=0) * (n * b)]
    return (0.5 * (ends[0] + ends[-1])).T.copy()


def _start_vectors(rows, n):
    """Start vectors for inverse iteration, one per entry of ``rows``, as an
    (n, len(rows)) array of values in [-1, 1) hashed (splitmix64) from each
    (row, index) pair, so that every matrix of every stack starts alike."""
    z = (np.asarray(rows, dtype=np.uint64)[None, :] * np.uint64(n)
         + np.arange(n, dtype=np.uint64)[:, None])
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    values = z.astype(np.float64)
    values *= 2.0**-52
    values -= 1.0
    return values


def _eliminate(x0, x1, swap, mult, tmp):
    """One step of the forward elimination of L^-1 x, on consecutive rows
    ``x0`` and ``x1`` of the iterate: swap them where ``swap``, then
    subtract ``mult`` times the first from the second.  Returns ``x1``."""
    top = np.where(swap, x1, x0)
    np.subtract(np.where(swap, x0, x1), np.multiply(mult, top, out=tmp), out=x1)
    x0[...] = top
    return x1


def _project_out(x, basis):
    """``x`` (B, c, n) less its components along the rows of ``basis``
    (B, k, n), orthonormal or zero: one Gram-Schmidt pass, in place."""
    coef = np.sum(basis[:, None] * x[:, :, None], axis=3)
    x -= np.sum(coef[..., None] * basis[:, None], axis=2)


def _inverse_iteration(d, e, lam, rows, start, stop, pivot_tol, basis=None):
    """Eigenvectors of each T for the eigenvalues ``lam`` (B, c) of
    its blocks [start, stop) (B, c), as unit rows (B, c, n): _SOLVES solves
    with T - lam, factored once by Gaussian elimination with partial
    pivoting, from the :func:`_start_vectors` of ``rows`` cut to each
    eigenvalue's block.  The factors of T - lam split where T does, so each
    vector stays in its block.  A pivot smaller than its matrix's
    ``pivot_tol`` (B,) is replaced by that size, keeping its sign.  Given
    ``basis`` (B, k, n), each iterate is made orthogonal to its rows
    (:func:`_project_out`) before each solve.

    The factors (three bands, the multipliers and the swaps) and the iterate
    are (n, B, c) arrays, so each row is one (B, c) view: d - lam of every
    row is computed in one call into the pivots' slots, and the first
    solve's forward elimination runs inside the factorisation loop.  Beside
    the factors and the iterate, the working set is a few (B, c) rows."""
    b, n = d.shape
    c = lam.shape[1]
    # The start vectors first, while their hashing's temporaries are all
    # that is alive beside them.
    idx = np.arange(n)[:, None, None]
    x = np.where((start <= idx) & (idx < stop), _start_vectors(rows, n)[:, None, :], 0.0)
    if basis is not None:
        _project_out(x.transpose(1, 2, 0), basis)
    # d_i - lam for every row, in the pivots' slots: row i+1's is read at
    # step i, before step i+1 writes pivot i+1 over it.
    u0 = np.subtract(d.T[:, :, None], lam)  # the pivots
    u1 = np.empty((n, b, c))  # U's first superdiagonal
    u2 = np.zeros((n, b, c))  # U's second superdiagonal, nonzero where swapped
    mult = np.zeros((n, b, c))
    swap = np.empty((n, b, c), dtype=bool)
    ee = np.concatenate([e, np.zeros((b, 1))], axis=1).T[:, :, None]  # (n, B, 1)
    tmp = np.empty((b, c))
    # Row i is (top, nxt, 0) and row i+1 is (sub, diag, below): e_i,
    # d_{i+1} - lam and e_{i+1}.  Each row's views are taken once and
    # carried to the next step.
    top, nxt, below, pivot, xi = u0[0], ee[0], ee[0], u0[0], x[0]
    for i in range(n - 1):
        sub, below, diag = below, ee[i + 1], u0[i + 1]
        s, m, v1, v2 = swap[i], mult[i], u1[i], u2[i]
        np.greater(np.abs(sub), np.abs(top), out=s)
        p0 = np.where(s, sub, top)
        v1[...] = np.where(s, diag, nxt)
        v2[...] = np.where(s, below, 0.0)
        np.divide(np.where(s, top, sub), p0, out=m, where=p0 != 0.0)
        top = np.where(s, nxt, diag) - m * v1
        nxt = np.where(s, 0.0, below) - m * v2
        pivot[...] = p0
        pivot = diag
        xi = _eliminate(xi, x[i + 1], s, m, tmp)  # the first solve's, while row i is at hand
    pivot[...] = top
    tol = np.broadcast_to(pivot_tol[:, None], u0.shape)
    small = np.abs(u0) < tol
    u0[small] = np.copysign(tol[small], u0[small])

    for solve in range(_SOLVES):
        if solve:
            if basis is not None:
                _project_out(x.transpose(1, 2, 0), basis)
            xi = x[0]
            for i in range(n - 1):
                xi = _eliminate(xi, x[i + 1], swap[i], mult[i], tmp)
        x1 = x[n - 1]
        x1 /= u0[n - 1]
        x2 = None
        for i in range(n - 2, -1, -1):
            # x_i = (x_i - u1_i x_{i+1} - u2_i x_{i+2}) / u0_i, left to right.
            xi = x[i]
            np.subtract(xi, np.multiply(u1[i], x1, out=tmp), out=xi)
            if x2 is not None:
                np.subtract(xi, np.multiply(u2[i], x2, out=tmp), out=xi)
            np.divide(xi, u0[i], out=xi)
            x1, x2 = xi, x1
        x /= np.sqrt(np.sum(x * x, axis=0))
    return x.transpose(1, 2, 0)


def _orthogonalize_clusters(w, lam, start, gap, restart):
    """Gram-Schmidt, twice, on the unit rows of ``w`` (B, n, n) within each
    cluster: a run of consecutive eigenvalues ``lam`` (B, n) of one block
    (``start``, (B, n)) whose gaps are at most ``gap``.  Each row is
    orthogonalised against all earlier rows of its cluster, read through one
    product over every earlier row, so a matrix's arithmetic does not depend
    on the clusters of the others.  A row that the first pass leaves
    shorter than _RESTART_TOL is replaced, before the second pass, by
    ``restart(j, basis)``: row j computed afresh orthogonal to ``basis``
    (B, j, n), its cluster's earlier rows and zero rows."""
    b, n = lam.shape
    idx = np.arange(n)
    close = np.zeros((b, n), dtype=bool)
    close[:, 1:] = (np.diff(lam, axis=1) <= gap) & (start[:, 1:] == start[:, :-1])
    first = np.maximum.accumulate(np.where(close, 0, idx), axis=1)
    for j in np.flatnonzero((first < idx).any(axis=0)):
        joined = first[:, j] < j
        member = idx[:j] >= first[:, j, None]
        earlier = w[:, :j]
        row = w[:, j]
        for k in range(2):
            coef = np.where(member, np.sum(earlier * row[:, None, :], axis=2), 0.0)
            row = row - np.sum(coef[:, :, None] * earlier, axis=1)
            if k == 0:
                redo = joined & (np.sqrt(np.sum(row * row, axis=1)) < _RESTART_TOL)
                if redo.any():
                    basis = np.where(member[:, :, None], earlier, 0.0)
                    fresh = restart(j, basis)
                    _project_out(fresh[:, None], basis)
                    row = np.where(redo[:, None], fresh, row)
        row = row / np.sqrt(np.sum(row * row, axis=1))[:, None]
        w[:, j] = np.where(joined[:, None], row, w[:, j])


def warm_start(a):
    """An orthonormal basis (B, n, n) of approximate eigenvectors, one per
    column, for each symmetric matrix of the float64 stack ``a``, which is
    left unmodified: Householder tridiagonalisation, multisection for every
    eigenvalue of T, inverse iteration for every eigenvector, Gram-Schmidt
    within clusters, then back through the reflectors.  Inverse iteration
    takes every eigenvalue in one pass while its factors and iterates fit in
    _CHUNK_BYTES, and half of them a pass beyond that, so at large n they
    hold about 2.5 n-by-n float64 arrays at once (``core.dense_bytes``)."""
    b, n = a.shape[0], a.shape[1]
    # Scaled by a power of two to entries below 1, so no square overflows.
    _, exp = np.frexp(np.abs(a).max(axis=(1, 2), initial=0.0))
    h = a * np.ldexp(1.0, -exp)[:, None, None]
    d, e, tau = _tridiagonalize(h)
    norm, lo, hi = _split_tridiagonal(d, e)
    start, stop = _blocks(e, n)
    per_pass, sturm_rows = _chunks(n, b)
    lam = _multisection(d, e, lo, hi, start, stop, sturm_rows)
    unit = np.where(norm > 0.0, norm, 1.0)
    w = np.empty((b, n, n))
    for first in range(0, n, per_pass):
        cols = slice(first, first + per_pass)
        rows = np.arange(n)[cols]
        w[:, cols] = _inverse_iteration(
            d, e, lam[:, cols], rows, start[:, cols], stop[:, cols], _PIVOT_TOL * unit
        )

    def restart(j, basis):
        cols = slice(j, j + 1)
        return _inverse_iteration(
            d, e, lam[:, cols], [j], start[:, cols], stop[:, cols], _PIVOT_TOL * unit, basis
        )[:, 0]

    _orthogonalize_clusters(w, lam, start, _CLUSTER_GAP * unit[:, None], restart)
    _back_transform(h, tau, w)
    del h  # freed before the transpose's temporary
    w[...] = w.transpose(0, 2, 1)
    return w


def similarity(a, v):
    """Overwrite each matrix of the symmetric stack ``a`` with V^T a V for
    the stack ``v``, made exactly symmetric by mirroring its upper triangle.
    It is built a row at a time, so every entry is one numpy sum of
    products, whose rounding does not depend on the machine."""
    n = a.shape[1]
    w = v.transpose(0, 2, 1)
    wa = np.empty_like(a)
    for i in range(n):
        np.add.reduce(w[:, i, None, :] * a, axis=2, out=wa[:, i])
    for i in range(n):
        np.add.reduce(w[:, i, None, :] * wa[:, i:], axis=2, out=a[:, i, i:])
    lower = np.tril_indices(n, -1)
    a[:, lower[0], lower[1]] = a[:, lower[1], lower[0]]


# ---------------------------------------------------------------------------
# Subset-boundary scan (Yates 1937; Bjorklund, Husfeldt, Kaski & Koivisto,
# "Fourier meets Mobius", STOC 2007)
#
# Edges are distinct, so a table of 2**n counts holds 1 at each edge's
# bitmask.  Pass i adds every entry without bit i into the entry with it;
# after the n passes entry S is g(S), the number of edges inside S.  An edge
# crosses S unless it lies inside S or inside its complement, so the boundary
# of S is m - g(S) - g(V \ S).
#
# Passes 0..b-1 move counts only within a row of 2**b entries that share the
# high part S >> b, and their inner runs of 1..2**(b-1) entries make them the
# dearest per entry.  They run first, on a block with one row per distinct
# high part of an edge, so at most m rows; every other row of the table is 0
# and stays 0 under them.  The block is written into its rows of the table,
# and passes b..n-1 run on the whole table, on inner runs of at least 2**b
# entries.  Integer sums are exact, so the order of the passes does not
# change the table.  With at least as many edges as high parts the block
# could be the whole table, so then every pass runs on the table.
# ---------------------------------------------------------------------------

# The low bits whose passes run on the block.
_LOW_BITS = 8


def _count_dtype(m):
    """The narrowest signed integer type that holds every count of a scan
    of m edges: each is at most m."""
    for dtype in (np.int8, np.int16):
        if m <= np.iinfo(dtype).max:
            return dtype
    return np.int32


def subset_scan(edge_masks, edge_sizes, p):
    """The boundary edge count of each subset bitmask in [0, 2**p), for
    edges given as distinct vertex bitmasks over n = p + 1 vertices, in the
    narrowest signed type that holds m, the edge count (int8 up to m = 127,
    int16 up to 32767, else int32): every count, of the table and of the
    boundary, is at most m.  ``edge_sizes`` is not read; it stays because
    the benchmark's tracer unpacks three arguments."""
    n = p + 1
    half = 1 << p
    b = min(_LOW_BITS, n)
    m = len(edge_masks)
    dtype = _count_dtype(m)
    inside = np.zeros(2 * half, dtype=dtype)
    if m >= 1 << (n - b):
        # The block could hold every row: all passes run on the table.
        b = 0
        inside[edge_masks] = 1
    else:
        width = 1 << b
        high = edge_masks >> b
        present = np.zeros(1 << (n - b), dtype=bool)
        present[high] = True
        rows = np.flatnonzero(present)
        block = np.zeros((rows.size, width), dtype=dtype)
        block[np.searchsorted(rows, high), edge_masks & (width - 1)] = 1
        for i in range(b):
            v = block.reshape(rows.size, width >> (i + 1), 2, 1 << i)
            upper = v[:, :, 1]
            upper += v[:, :, 0]
        inside.reshape(-1, width)[rows] = block
    for i in range(b, n):
        # The halves are views: adding in place into one writes the table,
        # without the item assignment that `v[:, 1] += v[:, 0]` makes.
        v = inside.reshape(-1, 2, 1 << i)
        upper = v[:, 1]
        upper += v[:, 0]
    # Entry S of the reversed upper half is g of the complement of S.  An
    # int8 half is reversed a word of 8 counts at a time, each word's bytes
    # then swapped, several times faster than a count at a time.
    if dtype is np.int8 and half >= 8:
        boundary = inside[half:].view(np.uint64)[::-1].byteswap().view(np.int8)
    else:
        boundary = inside[: half - 1 : -1].copy()
    np.subtract(m, boundary, out=boundary)
    boundary -= inside[:half]
    return boundary


def warm_up():
    """Run the Jacobi and scan kernels once on toy inputs.  Nothing is
    compiled any more; this stays because the benchmark calls it before it
    starts timing."""
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    v = np.eye(2)
    jacobi_sweeps(a, v, 30, 1e-12 * np.sqrt(10.0))
    subset_scan(np.array([3], dtype=np.int64), np.array([2], dtype=np.int64), 2)
