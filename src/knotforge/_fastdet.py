"""
Fast exact determinants of linear pencils A0 + t*A1 over F_p.

Fox matrices become linear in t once each row is scaled by a power of t and
each row of higher degree is linearized with auxiliary rows and columns;
`twisted._fox_pencil` does both, in one place, and yields a `Pencil`: the
integer matrices A0, A1 and the total shift.  The twisted path
(`twisted.fox_matrix`, then `pencil_det`) and the classical Alexander path
both read their pencils from it, and no Laurent polynomial is built until
the determinant is.  `pencil_det`, the determinant of every pencil over
F_p, deflates it over F_p itself, which is exact for every square pencil:

1. Row-reduce A1, applying the same row operations to A0.
2. Every zero row of A1 is now a constant row of the pencil.  Scalar
   column operations on A0 and A1, which keep the matrix a pencil, clear
   each constant row but for one pivot, and the determinant is expanded
   along it.  A constant row that is all zero makes the determinant 0.  The
   smaller pencil that is left goes back to step 1, until A1 is
   nonsingular: the infinite eigenvalues are deflated.  Every round removes
   at least one row and column or ends the deflation, so at most n + 1
   rounds run.
3. What is left is exactly as wide as the determinant's degree, and
   det(A0 + t*A1) = det(A1) * det(tI + A1^-1 A0), the characteristic
   polynomial of -A1^-1 A0 by back substitution and reduction to Hessenberg
   form.  Its m + 1 coefficients, m the size left, times the expanded
   pivots, are those of the determinant.
4. The entry point fixes which end of the pencil is deflated.  For k x k,
   det(A0 + t*A1) = t^k * det(A1 + s*A0) with s = 1/t, and `pencil_det`
   hands the kernel (A1, A0), so that step 2 deflates the rows that are t
   times a constant row, the eigenvalue 0.  Fox pencils are very
   degenerate: many constant rows, a small rank of A1, and determinants
   with a large power of t (the widest union pencil of the symmetric-union
   grid, 28 x 28, has determinant t^20 times a polynomial of degree 8).  So
   most of a twisted pencil is removed before any characteristic
   polynomial is formed, and the infinite eigenvalues that are left are
   roots s = 0 of it.  Their rows are sparse, and each elimination touches
   the pivot row's nonzero entries only.

The integer Alexander pencil is deflated by `_int_pencil_det` as it is,
from its infinite end, modulo a Mersenne prime above twice a Hadamard bound
on its coefficients, or, past the largest listed one, modulo several of
them joined by the Chinese remainder theorem, which is exact.
"""

from __future__ import annotations

from itertools import zip_longest
from math import prod

from .algebra import LaurentPoly

# exponents e of the Mersenne primes 2^e - 1 for integer pencils
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217)
_MERSENNE_PRIMES = tuple((1 << e) - 1 for e in _MERSENNE_EXPONENTS)


class Pencil:
    """A matrix whose row i is t^lo_i * (A0[i] + t*A1[i]), kept as the
    integer matrices A0 and A1 (lists of rows; entries reduced mod p over
    GF(p)) and shift = sum lo_i, so that its determinant, when it is
    square, is t^shift * det(A0 + t*A1).  `rows` counts its rows."""

    __slots__ = ("domain", "A0", "A1", "shift")

    def __init__(self, domain, A0, A1, shift=0):
        self.domain = domain
        self.A0 = A0
        self.A1 = A1
        self.shift = shift

    @property
    def rows(self):
        return len(self.A0)


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
    without a pivot, which end with A1 zero.  Each elimination touches only
    the nonzero entries of the pivot row, as Fox pencil rows are sparse."""
    free = list(range(len(A1)))
    pivots = []
    for c in range(len(A1)):
        hits = [r for r in free if A1[r][c]]
        if not hits:
            pivots.append(None)
            continue
        piv = hits[0]
        pivots.append(piv)
        free.remove(piv)
        if len(hits) == 1:
            continue
        P1 = A1[piv]
        inv = pow(P1[c], -1, p)
        nz1 = [(k, v) for k, v in enumerate(P1) if v]
        nz0 = [(k, v) for k, v in enumerate(A0[piv]) if v]
        for r in hits[1:]:
            R1, R0 = A1[r], A0[r]
            f = R1[c] * inv % p
            for k, v in nz1:
                R1[k] = (R1[k] - f * v) % p
            for k, v in nz0:
                R0[k] = (R0[k] - f * v) % p
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
        inv = pow(row[j], -1, p)
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
        inv = pow(H[col + 1][col], -1, p)
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


def _regular_det(A0, A1, pivots, p):
    """Coefficients, low degree first, of det(A0 + x*A1) over F_p when
    _reduce_rows has left A1 nonsingular with these pivots: det(A1) times
    the characteristic polynomial of -A1^-1 A0."""
    n = len(A0)
    # A1's rows in pivot order form an upper triangular U
    scale = _perm_sign(pivots) % p
    U = [A1[r] for r in pivots]
    B0 = [A0[r] for r in pivots]
    # back substitution for C = -U^-1 B0, whose characteristic polynomial is
    # det(xI + U^-1 B0)
    C = [None] * n
    for c in range(n - 1, -1, -1):
        Uc = U[c]
        acc = B0[c]
        for k in range(c + 1, n):
            f = Uc[k]
            if f:
                acc = [a + f * b for a, b in zip(acc, C[k])]
        scale = scale * Uc[c] % p
        ninv = -pow(Uc[c], -1, p)
        C[c] = [a * ninv % p for a in acc]
    return [v * scale % p for v in _charpoly(C, p)]


def _pencil_det_gf(A0, A1, p):
    """Coefficients, low degree first, of det(A0 + t*A1) over F_p, for
    integer matrices mod p given as lists of rows (overwritten): the
    constant rows are deflated until A1 is nonsingular, and the
    characteristic polynomial is taken of what is left."""
    scale = 1
    while A0:
        pivots, free = _reduce_rows(A0, A1, p)
        if not free:
            return [v * scale % p for v in _regular_det(A0, A1, pivots, p)]
        factor, keep_rows, keep_cols = _expand_constant_rows(A0, A1, free, p)
        if not factor:
            return [0]
        scale = scale * factor % p
        A0 = [[A0[i][k] for k in keep_cols] for i in keep_rows]
        A1 = [[A1[i][k] for k in keep_cols] for i in keep_rows]
    return [scale]


def _int_pencil_det(A0, A1):
    """Integer coefficients, low degree first, of det(A0 + t*A1) (A0, A1 not
    modified).  On |t| = 1 Hadamard gives |det|^2 <= prod_i 2(|A0_i|^2 +
    |A1_i|^2) = H^2, and by Parseval no coefficient exceeds H.  Deflation mod
    the smallest listed Mersenne prime M above 2H, or else mod the listed
    primes from the largest down until their product M is above 2H, joined
    by the Chinese remainder theorem (their exponents are distinct primes,
    so they are coprime); lifted to (-M/2, M/2].  ValueError past them all."""
    h2 = 1
    for r0, r1 in zip(A0, A1):
        h2 *= 2 * sum(a * a + b * b for a, b in zip(r0, r1))
    # M > 2H, that is M^2 > 4H^2
    primes = _MERSENNE_PRIMES
    moduli = [next((P for P in primes if P * P > 4 * h2), primes[-1])]
    while prod(moduli) ** 2 <= 4 * h2:
        if len(moduli) == len(primes):
            raise ValueError("determinant past the listed Mersenne primes")
        moduli.append(primes[-1 - len(moduli)])
    coeffs, M = [], 1
    for P in moduli:
        residues = _pencil_det_gf([[a % P for a in r] for r in A0],
                                  [[b % P for b in r] for r in A1], P)
        if M > 1:
            # x = c mod M and x = v mod P: x = c + M * ((v - c) / M mod P)
            inv = pow(M, -1, P)
            residues = [c + M * ((v - c) * inv % P) for c, v in
                        zip_longest(coeffs, residues, fillvalue=0)]
        coeffs, M = residues, M * P
    return [c - M if 2 * c > M else c for c in coeffs]


# -- public entry ------------------------------------------------------------

def pencil_det(M):
    """Exact determinant of a square `Pencil` over F_p.  M is not modified.
    For n x n, det(A0 + t*A1) = t^n * det(A1 + s*A0) with s = 1/t, and
    `_pencil_det_gf` takes the latter, so that the rows that are t times a
    constant row, the eigenvalue 0 that Fox pencils are full of, are the
    ones deflated; coefficient i of it is that of t^(n + shift - i).  An
    integer pencil goes to `_int_pencil_det` instead."""
    if M.domain.kind != "GF":
        raise ValueError("pencil_det works over F_p only")
    n = M.rows
    if any(len(r) != n for r in M.A0):
        raise ValueError("determinant of a non-square matrix")
    if len(M.A1) != n or any(len(r) != n for r in M.A1):
        raise ValueError("A1 is not of the shape of A0")
    coeffs = _pencil_det_gf([list(r) for r in M.A1],
                            [list(r) for r in M.A0], M.domain.p)
    top = n + M.shift
    return LaurentPoly._raw(M.domain, {top - i: c
                                       for i, c in enumerate(coeffs) if c})
