"""Exact integer-matrix utilities: Hermite normal forms, lattice arithmetic, and
Smith normal forms computed by alternating Hermite forms.

Matrices are tuples of tuples of Python ints (rows are vectors), so everything
is exact at arbitrary precision.  Ranks here are tiny (a module rarely has more
than six cyclic factors), so the classical cubic algorithms are used throughout.

Conventions:
  * lattices are row spans: L = {y @ H : y integer row vector};
  * canonical bases are row-style Hermite normal forms: pivot columns strictly
    increase, pivots are positive, and entries above a pivot are reduced into
    [0, pivot).  For the full-rank square case this is upper triangular with
    the pivot of row i in column i, and the HNF is unique per lattice.

All arithmetic is on Python ints; no rational numbers are used.
"""

from __future__ import annotations

from math import gcd, lcm

Matrix = tuple[tuple[int, ...], ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) >= 0 and u*a + v*b == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def diagonal(values) -> Matrix:
    values = list(values)
    k = len(values)
    return tuple(tuple(values[i] if i == j else 0 for j in range(k)) for i in range(k))


def hnf(rows, width: int) -> Matrix:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns only the nonzero rows (one per pivot).  Width must be passed
    explicitly so the empty-row-list case is well defined.
    """
    work = [list(r) for r in rows if any(r)]
    m = len(work)
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, m):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, m):
            if work[i][c] == 0:
                continue
            a, b = work[r][c], work[i][c]
            g, u, v = xgcd(a, b)
            aq, bq = a // g, b // g
            row_r = [u * x + v * y for x, y in zip(work[r], work[i])]
            row_i = [aq * y - bq * x for x, y in zip(work[r], work[i])]
            work[r], work[i] = row_r, row_i
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        for j in range(r):
            q = work[j][c] // work[r][c]
            if q:
                work[j] = [x - q * y for x, y in zip(work[j], work[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in work[:r])


def hnf_square(rows, k: int) -> Matrix:
    """HNF of a full-rank lattice in Z^k; raises if the span has rank < k."""
    h = hnf(rows, k)
    if len(h) != k:
        raise ValueError(f"lattice has rank {len(h)}, expected {k}")
    return h


def rowspan_reduce(h: Matrix, x) -> tuple[list[int], list[int]]:
    """Reduce x against echelon rows h; return (coefficients, remainder)."""
    x = list(x)
    coeffs = []
    pc = 0
    for row in h:
        while not row[pc]:  # pivots strictly increase, so resume at the last one
            pc += 1
        q = x[pc] // row[pc]
        if q:
            x = [a - q * b for a, b in zip(x, row)]
        coeffs.append(q)
    return coeffs, x


def in_rowspan(h: Matrix, x) -> bool:
    _, rem = rowspan_reduce(h, x)
    return not any(rem)


def rowspan_coords(h: Matrix, x):
    """Integer coordinates of x w.r.t. the rows of h, or None if x is outside."""
    coeffs, rem = rowspan_reduce(h, x)
    return None if any(rem) else coeffs


def multiple_order(h: Matrix, v) -> int:
    """Least c >= 1 with c*v inside the full-rank lattice rowspan(h).

    h must be square full-rank HNF (upper triangular).  Back-substitution over
    the pivots: at pivot i the reduced vector x needs the extra factor
    g = h_ii / gcd(x_i, h_ii) before row i divides it out.  Every valid
    multiplier is a multiple of each successive g, so their product is least.
    """
    c = 1
    x = list(v)
    for i, row in enumerate(h):
        p = row[i]
        g = p // gcd(x[i], p)
        if g > 1:
            c *= g
            x = [g * a for a in x]
        q = x[i] // p
        if q:
            x = [a - q * b for a, b in zip(x, row)]
    return c


def lattice_intersect(h1: Matrix, h2: Matrix, k: int) -> Matrix:
    """Basis of rowspan(h1) ∩ rowspan(h2), both full-rank lattices in Z^k.

    Uses the doubled-width trick: rows (a | a) for a in h1 and (b | 0) for b
    in h2 span pairs (u@h1 + v@h2, u@h1); the rows whose left half vanishes
    carry exactly the intersection in their right half.
    """
    rows = [tuple(r) + tuple(r) for r in h1] + [tuple(r) + (0,) * k for r in h2]
    big = hnf(rows, 2 * k)
    out = [row[k:] for row in big if not any(row[:k])]
    return hnf_square(out, k)


def smith_normal_form(mat: Matrix) -> Matrix:
    """Smith normal form S of mat: S == U @ mat @ V for unimodular U, V.

    S is diagonal with nonnegative entries and s_i | s_{i+1}; its nonzero
    diagonal lists the invariant factors of Z^k / rowspan(mat).  Neither
    transform is recorded.

    Hermite forms of the matrix and of its transpose alternate until the
    result is diagonal (R. Kannan, A. Bachem, SIAM J. Comput. 8, 1979).  From
    the second round on the matrix is square of full rank, so a Hermite form
    keeps the pivot row's other entries in [0, pivot).  The leading pivot is
    a positive gcd of its row (or column) and never grows; once it divides its
    row and column, both clear and stay clear, and the trailing block follows.
    """
    m = len(mat)
    k = len(mat[0]) if m else 0
    h = hnf(mat, k)
    while any(x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
        h = hnf(zip(*h), len(h))
    d = [row[i] for i, row in enumerate(h)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    d += [0] * m
    return tuple(tuple(d[i] if i == j else 0 for j in range(k)) for i in range(m))
