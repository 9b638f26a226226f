"""Shared test helpers: the definitions that only the tests use, moved out
of the package unchanged (the matrices of Laurent polynomials, the
polynomial text parser and unit equality of fractions from `algebra`; the
free group ring, Fox derivatives and 2-bridge presentations from
`presentation`; the genus bound from `twisted`; `pd_to_json` from
`diagram`; the bundled table's path from `cli`), the loaders of the
benchmark's tracer and of the README's library example, the
symmetric-union grid of the acceptance suite, the integer Bareiss
determinant, the evaluate-and-interpolate oracle for the classical
Alexander polynomial (the route `classical_alexander` took before it
deflated its integer pencil modulo a Mersenne prime), the two-sided F_p
deflation (the route `_fastdet.pencil_det` took before it deflated the zero
end of a pencil only), the Laurent-polynomial route of `reduce_fraction`
and `split_pencil`, the reference row shift of `twisted._fox_pencil` for
rows that are linear in t, the face count of a PD code's rotation system,
the Alexander polynomial of a presentation, and the SL(2, F_p) classes of
the bundled knots, enumerated once per test run."""

import importlib.util
import json
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from knotforge._fastdet import (Pencil, _expand_constant_rows,
                               _int_pencil_det, _reduce_rows, _regular_det)
from knotforge.algebra import (ZZ, LaurentPoly, RationalFn, canonicalize,
                               exact_div, gcd_pair, unit_equal)
from knotforge.cli import _DATA, KnotTable
from knotforge.presentation import (GroupPresentation, deficiency_one,
                                    inverse_word, reduce_word, wirtinger)
from knotforge.reps import RepSearchConfig, enumerate_sl2
from knotforge.twisted import _alexander_pencil, _fox_pencil, _fox_rows

ROOT = Path(__file__).resolve().parent.parent

# -- moved from algebra: matrices, divisibility, unit equality, text syntax --

class PolyMatrix:
    """Dense matrix of LaurentPoly sharing one coefficient domain."""

    __slots__ = ("domain", "rows", "cols", "entries")

    def __init__(self, domain, entries):
        entries = tuple(tuple(e for e in row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.domain is not domain and e.domain != domain:
                    raise ValueError("mixed coefficient domains")
        self.domain = domain
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def submatrix(self, rows, cols):
        return PolyMatrix(self.domain, [
            [self.entries[i][j] for j in cols] for i in rows])


def divides(g, f):
    try:
        exact_div(f, g)
        return True
    except ArithmeticError:
        return False


def rational_unit_equal(a, b):
    """Equality of two RationalFn up to units (cross-multiplied)."""
    return unit_equal(a.num * b.den, b.num * a.den)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?: (?P<coef>\d+(?:/\d+)?) \s* (?:\*\s*)? )?
        (?: (?P<t>t) (?:\s*\^\s*(?P<exp>-?\d+))? )?\s*""",
    re.VERBOSE)


def parse_poly(text, domain):
    """Parse the polynomial text syntax into a LaurentPoly."""
    s = text.strip()
    if not s or s == "0":
        return LaurentPoly.zero(domain)
    coeffs = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (m.group("coef") is None and m.group("t") is None):
            raise ValueError("malformed polynomial %r at offset %d" % (text, pos))
        if not first and m.group("sign") is None:
            raise ValueError("missing +/- between terms in %r" % text)
        sign = -1 if m.group("sign") == "-" else 1
        coef = m.group("coef")
        if coef is None:
            c = Fraction(1)
        else:
            c = Fraction(coef)
        e = 0
        if m.group("t"):
            e = int(m.group("exp")) if m.group("exp") is not None else 1
        c = sign * c
        prev = coeffs.get(e, Fraction(0))
        coeffs[e] = prev + c
        pos = m.end()
        first = False
    return LaurentPoly(domain, coeffs)


# -- moved from presentation: words, the free group ring, 2-bridge knots -----

def concat(*words):
    letters = []
    for w in words:
        letters.extend(w)
    return reduce_word(letters)


def parse_word(text, names):
    index = {nm: i for i, nm in enumerate(names)}
    letters = []
    for tok in text.split():
        if tok == "1":
            continue
        if tok.endswith("^-1"):
            nm, e = tok[:-3], -1
        else:
            nm, e = tok, 1
        if nm not in index:
            raise ValueError("unknown generator %r" % nm)
        letters.append((index[nm], e))
    return reduce_word(letters)


class GroupRingElt:
    """Formal Z-linear combination of freely-reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            if c:
                clean[w] = c
        self.terms = clean

    @classmethod
    def from_word(cls, w, c=1):
        return cls({reduce_word(w): c})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElt(out)

    def __neg__(self):
        return GroupRingElt({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def left_mul_word(self, u):
        return GroupRingElt({concat(u, w): c for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, GroupRingElt) and self.terms == other.terms

    def __repr__(self):
        return "GroupRingElt(%r)" % (self.terms,)


def fox_derivative(w, j):
    """Fox free derivative d(w)/d(x_j) in the free group ring.

    d(x_j)/d(x_j) = 1, d(uv) = du + u.dv, hence d(x_j^-1) = -x_j^-1.
    """
    out = {}
    prefix = ()
    for g, e in w:
        if g == j:
            if e == 1:
                key = prefix
                out[key] = out.get(key, 0) + 1
            else:
                key = concat(prefix, ((g, -1),))
                out[key] = out.get(key, 0) - 1
        prefix = concat(prefix, ((g, e),))
    return GroupRingElt(out)


def two_bridge_presentation(p, q):
    """One-relator presentation of the 2-bridge knot group b(p, q):
    <a, b | w a w^-1 b^-1> with w = a^e1 b^e2 a^e3 ... b^e_{p-1},
    e_i = (-1)^floor(i*q/p)."""
    from math import gcd
    if p % 2 == 0 or p < 3 or not (0 < q < p) or gcd(p, q) != 1:
        raise ValueError("b(%d, %d) is not a 2-bridge knot" % (p, q))
    eps = [(-1) ** ((i * q) // p) for i in range(1, p)]
    w = []
    for i, e in enumerate(eps, start=1):
        g = 0 if i % 2 == 1 else 1  # a for odd positions, b for even
        w.append((g, e))
    w = reduce_word(w)
    relator = concat(w, ((0, 1),), inverse_word(w), ((1, -1),))
    return GroupPresentation(("a", "b"), (relator,), meridian=0)


# -- moved from twisted, diagram and cli --------------------------------------

def genus_lower_bound(tw):
    """Exact rational (deg/d + 1)/2 from the degree inequality
    d(2g - 1) >= deg; the genus bound is the ceiling of this value."""
    if tw.degree is None:
        raise ValueError("zero twisted polynomial has no degree")
    return Fraction(tw.degree + tw.d, 2 * tw.d)


def pd_to_json(pd):
    return json.dumps([list(c) for c in pd.crossings])


def bundled_table_path():
    """The bundled knots.csv as a pathlib.Path, imported only here: the
    commands read the bundled files with _read_bundled."""
    from pathlib import Path
    return Path(_DATA, "knots.csv")


# -- the benchmark's tracer and the README's library example ----------------

TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


README = ROOT / "README.md"


def library_example():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
