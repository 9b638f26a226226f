"""Shared test helpers: the symmetric-union grid of the acceptance suite,
the integer Bareiss determinant, the evaluate-and-interpolate oracle for
the classical Alexander polynomial (the route `classical_alexander` took
before it deflated its integer pencil modulo a Mersenne prime), the
two-sided F_p deflation (the route `_fastdet.pencil_det` took before it
deflated the zero end of a pencil only), the Laurent-polynomial route of
`reduce_fraction` and `split_pencil`, the reference row shift of
`twisted._fox_pencil` for rows that are linear in t, the face count of a
PD code's rotation system, the Alexander polynomial of a presentation, and
the SL(2, F_p) classes of the bundled knots, enumerated once per test run."""

from fractions import Fraction
from functools import lru_cache

from knotforge._fastdet import (Pencil, _expand_constant_rows,
                               _int_pencil_det, _reduce_rows, _regular_det)
from knotforge.algebra import (ZZ, LaurentPoly, RationalFn, canonicalize,
                               exact_div, gcd_pair)
from knotforge.cli import KnotTable, bundled_table_path
from knotforge.presentation import deficiency_one, wirtinger
from knotforge.reps import RepSearchConfig, enumerate_sl2
from knotforge.twisted import _alexander_pencil, _fox_pencil, _fox_rows

# -- the symmetric-union grid -------------------------------------------------

PARTIALS = ("3_1", "4_1", "6_1")
M_VECTORS = {
    1: [(-2,), (-1,), (0,), (1,), (2,)],
    2: [(1, 1), (-1, 2), (2, -2), (0, -1)],
    3: [(1, -1, 2), (-2, 0, 1), (2, 2, -2)],
}


def grid_marks(pd, k):
    edges = sorted(pd.edges)
    step = len(edges) // (k + 1)
    return tuple(edges[i * step] for i in range(k + 1))


def grid_cells():
    """(partial name, partial PD, marks, m vector) for the 36 grid cells;
    the union's twists are 2m."""
    t = KnotTable.parse(bundled_table_path().read_text(), origin="bundled")
    for name in PARTIALS:
        pd = t[name]
        for k, mss in M_VECTORS.items():
            marks = grid_marks(pd, k)
            for ms in mss:
                yield name, pd, marks, ms


def pd_faces(pd):
    """The number of faces of the rotation system of a PD code with at least
    one crossing: each crossing's four slots in counterclockwise order, each
    edge joining the two slots that carry its label.  A face is an orbit of
    "cross the edge, then turn to the next slot".  A knot diagram has n
    vertices and 2n edges, so it is planar exactly when faces = n + 2
    (Euler); fewer faces mean a diagram on a surface of higher genus, a
    virtual diagram."""
    slots = {}
    for ci, crossing in enumerate(pd.crossings):
        for j, e in enumerate(crossing):
            slots.setdefault(e, []).append((ci, j))
    other = {}
    for a, b in slots.values():
        other[a], other[b] = b, a
    seen, faces = set(), 0
    for dart in other:
        if dart in seen:
            continue
        faces += 1
        while dart not in seen:
            seen.add(dart)
            ci, j = other[dart]
            dart = (ci, (j + 1) % 4)
    return faces


def presentation_alexander(pres):
    """Delta of a knot-group presentation whose generators are all meridians,
    in canonical unit form: the determinant of its abelianized Fox matrix
    with the first column and all relator rows past the first N - 1 dropped
    (N generators), as `classical_alexander` takes it from a diagram."""
    ncols, rows = _fox_rows(pres, None, 0)
    pencil = _fox_pencil(ncols, rows[:ncols], ZZ)
    coeffs = _int_pencil_det(pencil.A0, pencil.A1)
    return canonicalize(LaurentPoly(ZZ, dict(enumerate(coeffs))))


# -- the integer Bareiss determinant and the evaluate-and-interpolate oracle --

def int_det(A):
    """Determinant of a square integer matrix, given as a list of int lists
    that is overwritten, by fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not A[k][k]:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = A[k][k]
        row_k = A[k]
        for i in range(k + 1, n):
            row_i = A[i]
            a = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - a * row_k[j]) // prev
        prev = pivot
    return sign * A[n - 1][n - 1]


def pencil_value(A0, A1, x):
    """det(A0 + x*A1) at an integer x, by int_det."""
    return int_det([[a + x * b for a, b in zip(r0, r1)]
                    for r0, r1 in zip(A0, A1)])


def int_interpolate(xs, ys):
    """Coefficients, lowest first, of the polynomial of degree < len(xs)
    through the points (xs[i], ys[i]), at least one (Newton divided
    differences over Q); raises unless every coefficient is an integer."""
    n = len(xs)
    dd = [Fraction(y) for y in ys]
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    coeffs = [dd[n - 1]]
    for k in range(n - 2, -1, -1):
        # coeffs := coeffs * (t - xs[k]) + dd[k]
        coeffs = ([dd[k] - xs[k] * coeffs[0]] +
                  [coeffs[i - 1] - xs[k] * coeffs[i]
                   for i in range(1, len(coeffs))] + [coeffs[-1]])
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("interpolated polynomial is not integral")
    return [c.numerator for c in coeffs]


def interpolated_alexander(pd):
    """Delta_K in canonical unit form from the Alexander pencil A0 + t*A1:
    its integer Bareiss determinant at the n + 1 points 0, 1, -1, 2, -2, ...
    (n the pencil's size, which bounds the degree), interpolated."""
    A0, A1 = _alexander_pencil(wirtinger(pd))
    xs = [(i + 1) // 2 * (1 if i % 2 else -1) for i in range(len(A0) + 1)]
    ys = [pencil_value(A0, A1, x) for x in xs]
    coeffs = int_interpolate(xs, ys)
    return canonicalize(LaurentPoly(ZZ, dict(enumerate(coeffs))))


def bareiss_determinant(pd):
    """det K = |Delta_K(-1)|: the integer Bareiss determinant of the
    Alexander pencil at t = -1."""
    return abs(pencil_value(*_alexander_pencil(wirtinger(pd)), -1))


# -- the two-sided deflation and the Laurent-polynomial fraction route -------

def two_sided_pencil_det(A0, A1, p):
    """Coefficients, low degree first, of det(A0 + t*A1) over F_p (A0, A1
    overwritten): the constant rows are deflated first, then, with the roles
    of A0 and A1 swapped, the rows that are t times a constant row, and the
    characteristic polynomial is taken of what is left, exactly as wide as
    the determinant's span."""
    scale, tpow, swapped = 1, 0, False
    while A0:
        pivots, free = _reduce_rows(A0, A1, p)
        if not free:
            if swapped:
                break
            # det(A0 + t*A1) = t^k * det(A1 + s*A0) for k x k, s = 1/t
            tpow = len(A0)
            A0, A1, swapped = A1, A0, True
            continue
        factor, keep_rows, keep_cols = _expand_constant_rows(A0, A1, free, p)
        if not factor:
            return [0]
        scale = scale * factor % p
        A0 = [[A0[i][k] for k in keep_cols] for i in keep_rows]
        A1 = [[A1[i][k] for k in keep_cols] for i in keep_rows]
    if not A0:
        return [0] * tpow + [scale]
    # the coefficients of det(A1 + s*A0), low degree in s first, are those
    # of t^-tpow * det(A0 + t*A1) from the top degree in t down
    coeffs = _regular_det(A0, A1, pivots, p)
    return [0] * (tpow - len(A0)) + [v * scale % p for v in reversed(coeffs)]


def laurent_reduce_fraction(num, den):
    """num/den over a field reduced by Laurent-polynomial arithmetic: the
    canonical GCD, exact division and the canonical form of each part."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return RationalFn(num, LaurentPoly.one(num.domain), _reduced=True)
    g = gcd_pair(num, den)
    return RationalFn(canonicalize(exact_div(num, g)),
                      canonicalize(exact_div(den, g)), _reduced=True)


# -- the reference row shift --------------------------------------------------

def split_pencil(rows, ncols, domain):
    """The `Pencil` of a matrix with ncols columns given by sparse rows,
    {(column, exponent): coefficient} dicts; None when a row is not linear
    in t.  Over GF(p) each coefficient is reduced mod p first.  Zero
    coefficients do not count as exponents, and a row without any nonzero
    coefficient is a zero row with lo = 0."""
    p = domain.p if domain.kind == "GF" else None
    A0, A1, shift = [], [], 0
    for row in rows:
        if p is None:
            cells = [(k, e, c) for (k, e), c in row.items() if c]
        else:
            cells = [(k, e, v) for (k, e), c in row.items() if (v := c % p)]
        r0, r1 = [0] * ncols, [0] * ncols
        if cells:
            lo = min(e for _, e, _ in cells)
            for k, e, c in cells:
                if e == lo:
                    r0[k] = c
                elif e == lo + 1:
                    r1[k] = c
                else:
                    return None
            shift += lo
        A0.append(r0)
        A1.append(r1)
    return Pencil(domain, A0, A1, shift)


def sparse_rows(M):
    """A PolyMatrix as rows of {(column, exponent): coefficient} cells."""
    return [{(k, e): c for k, f in enumerate(row) for e, c in f.coeffs.items()}
            for row in M.entries]


def as_pencil(M):
    """The `Pencil` of a PolyMatrix whose rows are linear in t after a row
    shift, by split_pencil."""
    pencil = split_pencil(sparse_rows(M), M.cols, M.domain)
    assert pencil is not None, "a row is not linear in t"
    return pencil


# -- the classes of the bundled knots ----------------------------------------

BUNDLED = KnotTable.parse(bundled_table_path().read_text(), origin="bundled")


@lru_cache(maxsize=None)
def bundled_classes(name, p):
    """Every SL(2, F_p) class, abelian ones included, of the bundled knot
    name's deficiency-1 Wirtinger presentation; shared by the test modules,
    so that each knot and prime is enumerated once."""
    return enumerate_sl2(deficiency_one(wirtinger(BUNDLED[name])),
                         RepSearchConfig(p=p, nonabelian_only=False))
