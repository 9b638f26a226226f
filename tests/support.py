"""Shared test helpers: the definitions that only the tests use, moved out
of the package unchanged (the matrices of Laurent polynomials, the
polynomial text parser and unit equality of fractions from `algebra`; the
free group ring, Fox derivatives and 2-bridge presentations from
`presentation`; the genus bound from `twisted`; `pd_to_json` from
`diagram`; the bundled table's path from `cli`), the two-pass reference
walk of a PD code (the route `PDCode` took before it walked each circuit
once), the loaders of the benchmark's tracer and workloads and of the
README's library example, the 36 specs of the seed-7 symun-grid workload,
the sub-arc walk of `PDCode.subarcs` before it returned crossing roles
(half-edge arc lists, a start_cut and a separate crossing_roles), the
symmetric-union grid of the acceptance suite, the integer Bareiss
determinant, the evaluate-and-interpolate oracle for the classical
Alexander polynomial (the route `classical_alexander` took before it
deflated its integer pencil modulo a listed prime), the two-sided F_p
deflation (the route `_fastdet.pencil_det` took before it deflated the zero
end of a pencil only), the Laurent-polynomial route of `reduce_fraction`
and `split_pencil`, the Smith form of `twisted._smith_invariants` with
three restart rules (before it restarted by one), the reference row shift
of `twisted._fox_pencil` for rows that are linear in t, the face count of
a PD code's rotation system,
the Alexander polynomial of a presentation, the brute-force oracle of the
column that `twisted_alexander` drops, Wada's invariant with any column
dropped, the SL(2, F_p) classes of the
bundled knots, enumerated once per test run, and the SL(2, F_p) search of
`reps.enumerate_sl2` and its `_trace_tables` before the search derived each
class's GL2 partner (both pinned unipotent classes searched, and the first
branch's candidates one per orbit of the SL2 centralizer), its centralizers
whole, -I included, as `_pinned_class_reps` lists them, and the obstruction
before it compared only the classes of K at the meridian trace (every
class's polynomial compared with the target)."""

import importlib.util
import json
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

from knotforge._fastdet import (Pencil, _expand_constant_rows,
                               _int_pencil_det, _reduce_rows, _regular_det)
from knotforge.algebra import (ZZ, LaurentPoly, RationalFn, canonicalize,
                               divmod_poly, exact_div, gcd_pair, unit_equal)
from knotforge.cli import _DATA, KnotTable
from knotforge import diagram
from knotforge.diagram import InvalidDiagram
from knotforge.presentation import (GroupPresentation, deficiency_one,
                                    eliminate_generators, inverse_word,
                                    reduce_word, wirtinger)
from knotforge.reps import (_TABLE_MEMO, RepSearchConfig, Representation,
                            SearchBudgetExceeded, _abelian_class_reps,
                            _canonical, _commute_with_first, _compile_plans,
                            _flat_pairs, _orbit_reps, _pinned_class_reps,
                            _sign_twin, _trace_slice, enumerate_sl2)
from knotforge.twisted import (_alexander_pencil, _deficiency_one,
                               _factorization_target, _fox_pencil, _fox_rows,
                               _wada, _wirtinger, format_fraction,
                               twisted_alexander)

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


def reference_walk(crossings):
    """The two-pass walk that PDCode took before it walked each circuit
    once: walk the circuit, rotate by two each tuple whose under-strand is
    entered at position 2, then walk the rotated tuples again.  crossings
    are 4-tuples in which each label occurs exactly twice; returns the
    normalized (crossings, edge_order, slots, over_entry), or raises
    InvalidDiagram."""
    crossings = tuple(crossings)
    n = len(crossings)
    if n == 0:
        return (), (), {}, ()
    for _ in range(2):  # second pass re-walks after rotation fixes
        occ = {}
        for ci, c in enumerate(crossings):
            for pos, e in enumerate(c):
                occ.setdefault(e, []).append((ci, pos))
        start = (0, 2)  # leave crossing 0 along its under-out edge
        edge_order = []
        slots = {}  # edge -> (source_slot, target_slot)
        entries = {}  # crossing -> set of entry positions
        cur = start
        steps = 0
        while True:
            e = crossings[cur[0]][cur[1]]
            s1, s2 = occ[e]
            nxt = s2 if s1 == cur else s1
            edge_order.append(e)
            slots[e] = (cur, nxt)
            entries.setdefault(nxt[0], set()).add(nxt[1])
            cur = (nxt[0], (nxt[1] + 2) % 4)
            steps += 1
            if cur == start:
                break
            if steps > 2 * n:
                raise InvalidDiagram("traversal does not close properly")
        if steps != 2 * n or len(slots) != 2 * n:
            raise InvalidDiagram("diagram is not a single-component knot")
        rotated = []
        needs_fix = False
        over_entry = []
        for ci, c in enumerate(crossings):
            ent = entries.get(ci, set())
            und = ent & {0, 2}
            ovr = ent & {1, 3}
            if len(und) != 1 or len(ovr) != 1:
                raise InvalidDiagram("inconsistent strand orientation at "
                                     "crossing %d" % ci)
            if und == {2}:
                rotated.append(c[2:] + c[:2])
                needs_fix = True
            else:
                rotated.append(c)
            over_entry.append(ovr.pop())
        if not needs_fix:
            return crossings, tuple(edge_order), slots, tuple(over_entry)
        crossings = tuple(rotated)
    raise InvalidDiagram("orientation normalization failed to converge")


def reference_subarcs(pd, cut_edges=(), start_cut=None):
    """`PDCode.subarcs` as it was before it returned crossing roles,
    unchanged but for its name: partition the strand into sub-arcs broken
    at undercrossings and at the midpoints of cut_edges.

    Returns (arcs, arc_of, events) where arcs is a list of arcs in circuit
    order (each arc a list of edge-halves (edge, 'tail'|'head')), arc_of
    maps each half to its arc index, and events[i] describes the break
    ending arc i: ('under', crossing) or ('cut', edge).  When start_cut is
    given (a cut edge), arc 0 is the arc beginning just after that cut.
    """
    if pd.n == 0:
        # closed circle: abstract marks play the role of cut edges
        if not cut_edges:
            return [[("*", "tail"), ("*", "head")]], \
                {("*", "tail"): 0, ("*", "head"): 0}, []
        order = list(dict.fromkeys(cut_edges))
        if start_cut is not None:
            i = order.index(start_cut)
            order = order[i:] + order[:i]
        arcs, arc_of, events = [], {}, []
        for k, e in enumerate(order):
            half_h = (e, "head")
            nxt = order[(k + 1) % len(order)]
            half_t = (nxt, "tail")
            arcs.append([half_h, half_t])
            arc_of[half_h] = arc_of[half_t] = k
            events.append(("cut", nxt))
        return arcs, arc_of, events
    cuts = set(cut_edges)
    unknown = cuts.difference(pd._slots)
    if unknown:
        raise InvalidDiagram("cut edges %s not in diagram" % sorted(unknown))
    # circuit of halves; a cut breaks between the tail and head halves of
    # its edge, an undercrossing breaks after the head half
    seq = []  # (half, break_after: None | event)
    for e in pd._edge_order:
        tgt = pd.target_slot(e)
        seq.append(((e, "tail"), ("cut", e) if e in cuts else None))
        under = tgt[1] == 0
        seq.append(((e, "head"), ("under", tgt[0]) if under else None))
    # n >= 1 here, and the walk puts each crossing's incoming under-edge
    # at position 0, so that edge breaks an arc and breaks is not empty
    breaks = [i for i, (_, brk) in enumerate(seq) if brk is not None]
    if start_cut is not None:
        want = None
        for i in breaks:
            if seq[i][1] == ("cut", start_cut):
                want = i
                break
        if want is None:
            raise InvalidDiagram("start_cut %r is not a cut edge" % (start_cut,))
    else:
        want = breaks[0]
    # rotate the circuit so it begins just after the chosen break
    k = (want + 1) % len(seq)
    seq = seq[k:] + seq[:k]
    arcs, arc_of, events = [], {}, []
    cur = []
    for half, brk in seq:
        cur.append(half)
        if brk is not None:
            idx = len(arcs)
            for h in cur:
                arc_of[h] = idx
            arcs.append(cur)
            events.append(brk)
            cur = []
    assert not cur
    return arcs, arc_of, events


def reference_crossing_roles(pd, arc_of):
    """The `PDCode.crossing_roles` that went with reference_subarcs,
    unchanged but for its name.  Per crossing: (in_arc, out_arc, over_arc, sign) under a sub-arc
    partition produced by subarcs()."""
    roles = []
    for ci, (a, b, c, d) in enumerate(pd.crossings):
        over_in = pd.crossings[ci][pd._over_entry[ci]]
        roles.append((arc_of[(a, "head")], arc_of[(c, "tail")],
                      arc_of[(over_in, "head")], pd.sign(ci)))
    return roles


def bundled_table_path():
    """The bundled knots.csv as a pathlib.Path, imported only here: the
    commands read the bundled files with _read_bundled."""
    from pathlib import Path
    return Path(_DATA, "knots.csv")


# -- the benchmark's tracer and the README's library example ----------------

TRACER_PATH = ROOT / "perfbench" / "tracer.py"


WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PATH)
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


def smallest_column(pres):
    """The generator j whose Tietze reduction `eliminate_generators(pres,
    j)` keeps the fewest generators, ties to the lowest j, by running the
    pass for every j."""
    sizes = [eliminate_generators(pres, j)[0].num_generators
             for j in range(pres.num_generators)]
    return sizes.index(min(sizes))


def wada_column(pres, rho, j):
    """Wada's invariant of pres under rho with column j dropped, through
    `twisted._wada` and rho unchecked: `twisted_alexander` always drops
    the column of `_column(pres)`, and the tests that vary it call this."""
    return _wada(pres, j, lambda kept: Representation._trusted(
        rho.p, rho.d, tuple(rho.matrices[g] for g in kept)))


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


# -- the three-rule Smith form --------------------------------------------

def reference_smith_invariants(pencil):
    """The Smith form that `twisted._smith_invariants` computed before it
    restarted by one rule, with three restart rules: a column remainder is
    swapped into the pivot row, a row remainder into the pivot column, and
    a row that the pivot does not divide is mixed in.

    Invariant factors of a pencil's matrix over a field, d_1 | d_2 | ...
    (ordinary Smith normal form over F[t], computed up to units), read as
    the Laurent rows A0 + t*A1: the row shifts are units."""
    dom = pencil.domain
    grid = [[LaurentPoly(dom, {0: a, 1: b}) for a, b in zip(r0, r1)]
            for r0, r1 in zip(pencil.A0, pencil.A1)]
    nr, nc = len(grid), len(pencil.A0[0]) if grid else 0
    invariants = []

    def scale_pivot_row(top):
        # multiply the whole pivot row by the unit that makes the pivot
        # canonical (unit row scaling preserves invariant factors up to units)
        p = grid[top][top]
        if p.is_zero:
            return
        unit = LaurentPoly(dom, {-p.min_deg: dom.inv(p.coeffs[p.max_deg])})
        if unit != LaurentPoly.one(dom):
            grid[top] = [f * unit for f in grid[top]]

    top = 0
    while top < min(nr, nc):
        pivot = None
        for i in range(top, nr):
            for j in range(top, nc):
                f = grid[i][j]
                if not f.is_zero and (pivot is None or f.span <
                                      grid[pivot[0]][pivot[1]].span):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        grid[top], grid[i0] = grid[i0], grid[top]
        for row in grid:
            row[top], row[j0] = row[j0], row[top]
        while True:
            scale_pivot_row(top)
            p = grid[top][top]
            # a nonzero remainder becomes the new (strictly smaller) pivot
            # and the pass restarts, so the pivot span decreases monotonically
            swapped = False
            for i in range(top + 1, nr):
                f = grid[i][top]
                if f.is_zero:
                    continue
                q, _ = divmod_poly(f, p)
                for j in range(top, nc):
                    grid[i][j] = grid[i][j] - q * grid[top][j]
                if not grid[i][top].is_zero:
                    grid[top], grid[i] = grid[i], grid[top]
                    swapped = True
                    break
            if swapped:
                continue
            for j in range(top + 1, nc):
                f = grid[top][j]
                if f.is_zero:
                    continue
                q, _ = divmod_poly(f, p)
                for i in range(top, nr):
                    grid[i][j] = grid[i][j] - grid[i][top] * q
                if not grid[top][j].is_zero:
                    for row in grid:
                        row[top], row[j] = row[j], row[top]
                    swapped = True
                    break
            if not swapped:
                break
        # every remaining entry must be divisible by the pivot; if not, mix
        # the offending row in and continue reducing
        p = grid[top][top]
        bad = None
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                _, r = divmod_poly(grid[i][j], p)
                if not r.is_zero:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(top, nc):
                grid[top][j] = grid[top][j] + grid[bad][j]
            continue
        invariants.append(canonicalize(p))
        top += 1
    return invariants


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


def seed7_grid_specs():
    """The 36 specs of the seed-7 symun-grid workload of
    perfbench/workloads.py."""
    kf = SimpleNamespace(diagram=diagram)
    return [spec for _, _, specs in load_workloads().grid_specs(kf, BUNDLED, 7)
            for spec in specs]


@lru_cache(maxsize=None)
def bundled_classes(name, p):
    """Every SL(2, F_p) class, abelian ones included, of the bundled knot
    name's deficiency-1 Wirtinger presentation; shared by the test modules,
    so that each knot and prime is enumerated once."""
    return enumerate_sl2(deficiency_one(wirtinger(BUNDLED[name])),
                         RepSearchConfig(p=p, nonabelian_only=False))


# -- the SL(2, F_p) search before GL2 partners -------------------------------

@lru_cache(maxsize=_TABLE_MEMO)
def reference_class_tables(s, p):
    """Per pinned class of trace s over F_p, the flat matrix M0 and its
    whole centralizer Z in SL2(F_p), -I included, as flat (z, z^-1) pairs:
    the table `reps._class_tables` kept before it took Z modulo +-I."""
    return tuple((M0[0] + M0[1], tuple(_flat_pairs(zs, p)))
                 for M0, zs in _pinned_class_reps(s, p))


@lru_cache(maxsize=_TABLE_MEMO)
def reference_trace_tables(s, p):
    """The search's tables for trace s over F_p, as immutable tuples of
    flat (M, M^-1) pairs: the trace slice, and per pinned class (M0, its
    whole centralizer Z, the first branch's candidates: the least member of
    each Z-orbit of the slice).  Flat and nested matrices sort alike."""
    pairs = {pair[0]: pair for pair in _flat_pairs(_trace_slice(s, p), p)}
    classes = []
    for M0, zpairs in reference_class_tables(s, p):
        first = _orbit_reps(pairs, zpairs, p)
        classes.append((pairs[M0], zpairs, tuple(pairs[M] for M in first)))
    return tuple(pairs.values()), tuple(classes)


class ReferenceRepList(list):
    """The list of representations enumerate_sl2 returns, with `twins`:
    per listed class the index of its sign twin in the list (possibly its
    own), or None for an abelian class and over F_2; and `nodes`: the
    search nodes it visited, what max_nodes bounds."""

    def __init__(self, reps, twins, nodes):
        super().__init__(reps)
        self.twins = tuple(twins)
        self.nodes = nodes


def reference_enumerate_sl2(pres, cfg):
    """All SL(2, F_p) representations of a Wirtinger-type presentation, as a
    deterministically ordered list.

    Representations are listed up to conjugacy.  Nonabelian ones are found
    per trace value by pinning the first generator to a representative of
    each non-scalar conjugacy class (the companion matrix; for traces +-2
    both unipotent classes), propagating forced values through the
    relators, branching over the remaining trace slice, and deduplicating
    under the pinned matrix's centralizer Z.  The first branch tries one
    matrix per Z-orbit of the slice (its least member), since every class
    has a member there; each class is listed by the member the unpruned
    search would visit last, the Z-conjugate whose tuple of
    branched-generator values is largest.  With nonabelian_only=False
    abelian representations are included first: one per SL2 conjugacy
    class, all generators equal.

    For p odd only the traces s <= -s mod p are searched.  The classes of a
    trace -s > s are the sign twins of those of trace s (eps (x) rho
    conjugated by D = diag(1, -1), eps the character sending every meridian
    to -1, which the relators' exponent sums 0 allow), canonicalized as a
    leaf is, so the list is the one the search would give; such a trace
    visits no node of the budget.  The returned RepList carries the sign
    twin of every class, so that the twisted polynomial of one class of a
    pair gives the other's, Delta_{eps rho}(t) = Delta_rho(-t) (Wada, 1994;
    Kirk and Livingston, 1999).  Trace-0 classes are paired by
    canonicalizing their sign twins.
    """
    p = cfg.p
    if not pres.is_wirtinger:
        raise ValueError("enumeration needs a Wirtinger-type presentation")
    ng = pres.num_generators
    plans, gens, crossings = _compile_plans(pres.relators, ng)
    # every leaf is at the last depth, and the search meets leaves in
    # lexicographic order of their values on the branched generators
    branched = gens[:-1]
    reps, twins = [], []
    budget = cfg.max_nodes
    nodes = 0
    # the slots of _compile_plans: x_h, then x_h^-1, then I, each a flat
    # (a, b, c, d).  One array serves the whole search, since a node's plan
    # reads only slots assigned on its own path.
    vals = [None] * (2 * ng) + [(1, 0, 0, 1)]

    def mk(mats):
        return Representation._trusted(p, 2, mats)

    if not cfg.nonabelian_only:
        for M in _abelian_class_reps(p):
            reps.append(mk((M,) * ng))
            twins.append(None)

    def exceeded(s):
        return SearchBudgetExceeded(
            "representation search exceeded its budget: %d nodes used, "
            "reached trace %d of 0..%d" % (budget, s, p - 1))

    def branch(depth, s, cands):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise exceeded(s)
        # every value lies in SL2(F_p), so a forced product has det 1 and
        # needs only the trace and scalar checks
        for g, e, first, rest in plans[depth]:
            a, b, c, d = vals[first]
            for h in rest:
                x, y, z, w = vals[h]
                a, b, c, d = ((a * x + b * z) % p, (a * y + b * w) % p,
                              (c * x + d * z) % p, (c * y + d * w) % p)
            if g is None:
                if a != 1 or b or c or d != 1:
                    return
                continue
            if (a + d) % p != s or (b == c == 0 and a == d):
                return
            P, Pi = (a, b, c, d), (d, -b % p, -c % p, a)
            vals[g], vals[ng + g] = (Pi, P) if e > 0 else (P, Pi)
        g = gens[depth]
        if g is None:
            leaf(vals[:ng])
            return
        # each crossing over g is tested here, as in . N = N . out for
        # N = g^e; a candidate it rejects is the node whose check step
        # would reject it, and is counted as one
        tests = crossings[depth] and [(vals[i], vals[o], e > 0)
                                      for i, o, e in crossings[depth]]
        for M, Mi in cands:
            for (a, b, c, d), (x, y, z, w), direct in tests:
                n0, n1, n2, n3 = M if direct else Mi
                if ((a * n0 + b * n2 - n0 * x - n1 * z) % p
                        or (a * n1 + b * n3 - n0 * y - n1 * w) % p
                        or (c * n0 + d * n2 - n2 * x - n3 * z) % p
                        or (c * n1 + d * n3 - n2 * y - n3 * w) % p):
                    nodes += 1
                    if nodes > budget:
                        raise exceeded(s)
                    break
            else:
                vals[g], vals[ng + g] = M, Mi
                branch(depth + 1, s, trace_slice)

    def leaf(mats):
        # x_0 is not scalar, so its centralizer is commutative and the
        # leaf is abelian when every value commutes with x_0
        if _commute_with_first(mats, p):
            return  # abelian classes are listed up front
        canon, keep = _canonical(mats, zpairs, branched, p)
        found[canon] = keep

    def twin_class(mats, s):
        # (canon, keep) of the sign twin of a class, a class of trace s: it
        # keeps x_0 on its pinned matrix, M0(-s) -> M0(s)
        twin = _sign_twin(mats, p)
        zs = dict(reference_class_tables(s, p))[twin[0]]
        return _canonical(twin, zs, branched, p)

    # trace -> (index of its first class, the flat classes in list order)
    listed = {}
    for s in range(p):
        found = {}
        source = {}  # a derived class's canon -> its sign twin's index
        t = -s % p
        if p > 2 and t < s:
            start, keeps = listed[t]
            for i, mats in enumerate(keeps, start):
                canon, keep = twin_class(mats, s)
                found[canon], source[canon] = keep, i
        else:
            trace_slice, classes = reference_trace_tables(s, p)
            for (vals[0], vals[ng]), zpairs, first in classes:
                branch(0, s, first)
        order = sorted(found)
        start = len(reps)
        listed[s] = start, [found[canon] for canon in order]
        for j, canon in enumerate(order, start):
            # flat and nested matrices sort alike
            reps.append(mk(tuple(((a, b), (c, d))
                                 for a, b, c, d in found[canon])))
            i = source.get(canon)
            twins.append(i)
            if i is not None:
                twins[i] = j
        if p > 2 and t == s:
            # trace 0 is its own twin trace
            index = {canon: j for j, canon in enumerate(order, start)}
            for j, mats in enumerate(listed[s][1], start):
                twins[j] = index[twin_class(mats, s)[0]]
    return ReferenceRepList(reps, twins, nodes)


# -- the obstruction before it compared only the classes at the meridian trace

@lru_cache(maxsize=None)
def every_class_polynomial(K, p):
    """The nonabelian SL(2, F_p) classes of the knot K, enumerated on its
    Wirtinger presentation, and the twisted polynomial of every one of them,
    each by twisted_alexander, with no twin or partner reuse."""
    pres = _wirtinger(K)
    reps = enumerate_sl2(pres, RepSearchConfig(p=p))
    return reps, [twisted_alexander(_deficiency_one(pres), rho).value
                  for rho in reps]


def reference_obstruction(K, candidate_partial, rho_partial):
    """even_symun_obstruction before it compared only the classes of K at
    the meridian trace of rho_partial: the twisted polynomial of every
    class of K, of any trace, compared with the target."""
    _, target, text = _factorization_target(
        _deficiency_one(_wirtinger(candidate_partial)), rho_partial)
    reps, polys = every_class_polynomial(K, rho_partial.p)
    evidence = [{"matrices": rho.matrices, "trace": rho.trace(),
                 "polynomial": format_fraction(tw)}
                for rho, tw in zip(reps, polys) if tw == target]
    return {"verdict": "obstructed" if not evidence else "inconclusive",
            "target": text, "num_reps": len(reps), "evidence": evidence}
