"""
Fast exact determinants of linear pencils A0 + t*A1 over F_p.

Fox matrices of Wirtinger-type relators become linear in t after scaling
each row by a power of t.  Their determinants are computed here by deflating
the pencil over F_p itself, which is exact for every square pencil:

1. Row-reduce A1, applying the same row operations to A0.
2. If A1 is now nonsingular, det(A0 + t*A1) = det(A1) * det(tI + A1^-1 A0).
   A1^-1 A0 comes from back substitution, and the second factor is the
   characteristic polynomial of -A1^-1 A0, by reduction to Hessenberg form.
3. Otherwise every zero row of A1 is a constant row of the pencil.  Scalar
   column operations on A0 and A1, which keep the matrix a pencil, clear
   each constant row but for one pivot, and the determinant is expanded
   along it.  A constant row that is all zero makes the determinant 0.  The
   smaller pencil that is left goes back to step 1.

Fox pencils are very degenerate (many constant rows, a small rank of A1),
so step 3 removes most of the matrix before any characteristic polynomial
is formed.  Matrices that are not unit multiples of pencils, and matrices
over Z or Q, fall back to fraction-free Gaussian elimination.
"""

from __future__ import annotations

from .algebra import LaurentPoly, det


def _perm_sign(perm):
    """Sign of a permutation of 0..n-1: each cycle of length L gives
    (-1)^(L-1)."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        seen[i] = True
        j = perm[i]
        while j != i:
            seen[j] = True
            sign = -sign
            j = perm[j]
    return sign


def _reduce_rows(A0, A1, p):
    """Forward elimination on A1 without row swaps, mirrored on A0 (so the
    pencil's determinant is unchanged).  Returns the pivot row of each column
    in column order, None for a column with no pivot, and the rows left
    without a pivot, which end with A1 zero."""
    free = list(range(len(A1)))
    pivots = []
    for c in range(len(A1)):
        piv = next((r for r in free if A1[r][c]), None)
        pivots.append(piv)
        if piv is None:
            continue
        free.remove(piv)
        inv = pow(A1[piv][c], p - 2, p)
        P0, P1 = A0[piv], A1[piv]
        for r in free:
            f = A1[r][c]
            if f:
                f = f * inv % p
                A1[r] = [(a - f * b) % p for a, b in zip(A1[r], P1)]
                A0[r] = [(a - f * b) % p for a, b in zip(A0[r], P0)]
    return pivots, free


def _expand_constant_rows(A0, A1, rows, p):
    """Clear each constant row (A1 zero) but for one pivot by scalar column
    operations and expand the determinant along it.  Returns (factor, rest
    rows, rest columns) with det(A0 + t*A1) = factor * det of the pencil on
    the rest, or (0, None, None) when a constant row vanishes."""
    n = len(A0)
    alive = [True] * n
    factor = 1
    cols = []
    for r in rows:
        row = A0[r]
        j = next((k for k in range(n) if alive[k] and row[k]), None)
        if j is None:
            return 0, None, None
        inv = pow(row[j], p - 2, p)
        ops = [(k, row[k] * inv % p) for k in range(n)
               if k != j and alive[k] and row[k]]
        factor = factor * row[j] % p
        if ops:
            for M in (A0, A1):
                for R in M:
                    x = R[j]
                    if x:
                        for k, f in ops:
                            R[k] = (R[k] - f * x) % p
        alive[j] = False
        cols.append(j)
    # the expanded rows and columns, moved to the front in expansion order,
    # form a lower triangular block above a zero block
    expanded = set(rows)
    keep_rows = [i for i in range(n) if i not in expanded]
    keep_cols = [k for k in range(n) if alive[k]]
    sign = _perm_sign(rows + keep_rows) * _perm_sign(cols + keep_cols)
    return factor * sign % p, keep_rows, keep_cols


def _charpoly(C, p):
    """Coefficients, low degree first, of det(xI - C) over F_p: reduction to
    upper Hessenberg form by similarity, then the Hessenberg recurrence."""
    n = len(C)
    H = [list(r) for r in C]
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if H[r][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            H[col + 1], H[piv] = H[piv], H[col + 1]
            for row in H:
                row[col + 1], row[piv] = row[piv], row[col + 1]
        inv = pow(H[col + 1][col], p - 2, p)
        for r in range(col + 2, n):
            f = H[r][col] * inv % p
            if f:
                H[r] = [(a - f * b) % p for a, b in zip(H[r], H[col + 1])]
                for row in H:
                    row[col + 1] = (row[col + 1] + f * row[r]) % p
    # p_m(x) = (x - H[m-1][m-1]) p_{m-1}(x)
    #          - sum_i H[i][m-1] (prod of subdiagonals) p_i(x)
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        hm = H[m - 1][m - 1]
        cur = [0] + prev
        for i, c in enumerate(prev):
            cur[i] = (cur[i] - hm * c) % p
        beta = 1
        for i in range(m - 2, -1, -1):
            beta = beta * H[i + 1][i] % p
            coef = H[i][m - 1] * beta % p
            if coef:
                for j, c in enumerate(polys[i]):
                    cur[j] = (cur[j] - coef * c) % p
        polys.append(cur)
    return polys[n]


def _pencil_det_gf(A0, A1, p):
    """Coefficients, low degree first, of det(A0 + t*A1) over F_p, for
    integer matrices mod p given as lists of rows (overwritten)."""
    scale = 1
    while A0:
        pivots, free = _reduce_rows(A0, A1, p)
        if not free:
            break
        factor, keep_rows, keep_cols = _expand_constant_rows(A0, A1, free, p)
        if not factor:
            return [0]
        scale = scale * factor % p
        A0 = [[A0[i][k] for k in keep_cols] for i in keep_rows]
        A1 = [[A1[i][k] for k in keep_cols] for i in keep_rows]
    n = len(A0)
    if not n:
        return [scale]
    # A1 nonsingular: its rows in pivot order form an upper triangular U
    scale = scale * _perm_sign(pivots) % p
    U = [A1[r] for r in pivots]
    B0 = [A0[r] for r in pivots]
    # back substitution for C = -U^-1 B0, whose characteristic polynomial is
    # det(tI + U^-1 B0)
    C = [None] * n
    for c in range(n - 1, -1, -1):
        Uc = U[c]
        acc = B0[c]
        for k in range(c + 1, n):
            f = Uc[k]
            if f:
                acc = [a + f * b for a, b in zip(acc, C[k])]
        scale = scale * Uc[c] % p
        ninv = -pow(Uc[c], p - 2, p)
        C[c] = [a * ninv % p for a in acc]
    return [v * scale % p for v in _charpoly(C, p)]


# -- public entry ------------------------------------------------------------

def pencil_det(M):
    """Exact determinant of a square Laurent-polynomial matrix; uses the
    pencil deflation when every row is a unit multiple of a row linear in t
    and the domain is a prime field, otherwise falls back to fraction-free
    elimination."""
    dom = M.domain
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return LaurentPoly.one(dom)
    if dom.kind != "GF":
        return det(M)
    shift_total = 0
    A0 = []
    A1 = []
    for row in M.entries:
        exps = set().union(*[f.coeffs for f in row])
        if not exps:
            return LaurentPoly.zero(dom)
        lo = min(exps)
        if max(exps) - lo > 1:
            return det(M)
        shift_total += lo
        A0.append([f.coeffs.get(lo, 0) for f in row])
        A1.append([f.coeffs.get(lo + 1, 0) for f in row])
    coeffs = _pencil_det_gf(A0, A1, dom.p)
    return LaurentPoly(dom, dict(enumerate(coeffs))).shift(shift_total)
