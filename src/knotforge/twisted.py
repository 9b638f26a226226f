"""
Twisted and classical Alexander polynomials.

The map Phi sends a free-group generator x_i to rho(x_i)*t and extends to the
group ring; the Wada invariant of a deficiency-1 presentation is
det A_{x_j} / det Phi(x_j - 1), where A is the Fox Jacobian of the relators
with the j-th generator column removed.  Classical and higher Alexander
polynomials come from the abelianized (d = 1, trivial rho) Fox matrix.  The
classical one is a single maximal minor over Z[t, t^-1], an integer pencil
evaluated at integer points and interpolated; the higher ones are the GCD of
its (N-k)-minors over Q[t, t^-1], via the Smith normal form.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (GF, QQ, ZZ, LaurentPoly, PolyMatrix, RationalFn,
                      _int_det, _int_interpolate, canonicalize, det,
                      divmod_poly, exact_div, format_poly,
                      rational_unit_equal, reduce_fraction, unit_equal)
from .diagram import InvalidDiagram
from .presentation import (GroupPresentation, build_symun_presentation,
                           deficiency_one, fox_derivative, lamm_pullback,
                           wirtinger, word_exponent_sum)
from .reps import (Representation, RepSearchConfig, enumerate_sl2,
                   identity_matrix, mat_inv, mat_mul, verify_representation)
from ._fastdet import pencil_det


def trivial_rep(pres, p=None):
    """The rank-1 trivial representation (over F_p, or over Q when p is
    None): every generator maps to the 1x1 identity."""
    return Representation(presentation=pres, p=p, d=1,
                          matrices=((((1,),),) * pres.num_generators))


class PhiMap:
    """Ring homomorphism Z[F_N] -> M(d, F[t, t^-1]) determined by
    x_i -> rho(x_i) * t; the abelianization exponent of every generator of a
    knot group is 1."""

    def __init__(self, pres, rho):
        self.pres = pres
        self.rho = rho
        self.d = rho.d
        self.domain = GF(rho.p) if rho.p is not None else QQ

    def gen_minus_one(self, g):
        """Phi(x_g - 1) = rho(x_g)*t - I."""
        dom = self.domain
        M = self.rho.matrices[g]
        out = []
        for i in range(self.d):
            row = []
            for j in range(self.d):
                coeffs = {1: M[i][j]}
                if i == j:
                    coeffs[0] = -1
                row.append(LaurentPoly(dom, coeffs))
            out.append(row)
        return out


class TwistedPolynomial:
    """Wada invariant: a reduced rational function together with the
    representation dimension and the degree (numerator span minus denominator
    span, which is invariant under units)."""

    __slots__ = ("value", "d", "degree")

    def __init__(self, value, d):
        self.value = value
        self.d = d
        self.degree = None if value.num.is_zero else value.degree

    @property
    def is_polynomial(self):
        return self.value.is_polynomial

    def __repr__(self):
        return "TwistedPolynomial(%s, d=%d)" % (format_fraction(self.value),
                                                self.d)


def format_fraction(fr):
    if fr.den == LaurentPoly.one(fr.den.domain):
        return format_poly(fr.num)
    return "(%s) / (%s)" % (format_poly(fr.num), format_poly(fr.den))


def fox_matrix(pres, phi, drop=None):
    """Block matrix with (i, j) block Phi(d r_i / d x_j), optionally with one
    generator column removed.

    Each relator is read once, left to right, with the running prefix
    product P = rho(prefix) and its exponent sum e (the fundamental formula):
    a letter x_g adds +P*t^e to column g and then advances P, a letter
    x_g^-1 first advances P by rho(x_g)^-1 and then adds -P*t^e."""
    rho, d, dom = phi.rho, phi.d, phi.domain
    p = rho.p
    inverses = {}
    zero = LaurentPoly.zero(dom)
    cols = [j for j in range(pres.num_generators) if j != drop]
    rows = []
    for r in pres.relators:
        cells = {}
        P = identity_matrix(d)
        e = 0
        for g, s in r:
            if s == -1:
                if g not in inverses:
                    inverses[g] = mat_inv(rho.matrices[g], p)
                P = mat_mul(P, inverses[g], p)
                e -= 1
            if g != drop:
                for i in range(d):
                    for j in range(d):
                        if P[i][j]:
                            c = cells.setdefault((g, i, j), {})
                            c[e] = c.get(e, 0) + s * P[i][j]
            if s == 1:
                P = mat_mul(P, rho.matrices[g], p)
                e += 1
        for bi in range(d):
            row = []
            for g in cols:
                for bj in range(d):
                    c = cells.get((g, bi, bj))
                    row.append(LaurentPoly(dom, c) if c else zero)
            rows.append(row)
    return PolyMatrix(dom, rows)


def _block_det(blk, domain):
    return det(PolyMatrix(domain, blk))


def twisted_alexander(pres, rho, drop_column="auto"):
    """Wada's twisted Alexander polynomial det A_{x_j} / det Phi(x_j - 1) of
    a deficiency-1 presentation; drop_column "auto" removes the first
    generator's column (its denominator has unit leading coefficient, hence
    is never zero)."""
    if pres.deficiency != 1:
        raise ValueError("Wada's invariant needs a deficiency-1 presentation,"
                         " got deficiency %d" % pres.deficiency)
    if not verify_representation(pres, rho, require_sl=(rho.d == 2)):
        raise ValueError("representation does not satisfy the relators")
    j = 0 if drop_column == "auto" else drop_column
    if not (0 <= j < pres.num_generators):
        raise ValueError("drop_column out of range")
    phi = PhiMap(pres, rho)
    den = _block_det(phi.gen_minus_one(j), phi.domain)
    A = fox_matrix(pres, phi, drop=j)
    num = pencil_det(A)
    return TwistedPolynomial(reduce_fraction(num, den), rho.d)


def _abelian_fox_matrix(pres, domain):
    """Abelianized Fox matrix (d = 1, all generators to t), all columns."""
    rows = []
    for r in pres.relators:
        row = []
        for jj in range(pres.num_generators):
            elt = fox_derivative(r, jj)
            coeffs = {}
            for w, c in elt.terms.items():
                e = word_exponent_sum(w)
                coeffs[e] = coeffs.get(e, 0) + c
            row.append(LaurentPoly(domain, coeffs))
        rows.append(row)
    return PolyMatrix(domain, rows)


def _alexander_pencil(pd):
    """Integer matrices (A0, A1) with det(A0 + t*A1) = Delta_K up to a unit:
    the first N-1 relator rows of the abelianized Wirtinger Fox matrix with
    column 0 dropped, each row shifted by t^-lo to be linear in t.

    Every Wirtinger relator r has exponent sum 0, so the fundamental formula
    sum_j (dr/dx_j)(x_j - 1) = r - 1 makes every row sum to 0; the N maximal
    minors of the (N-1) x N relator block are then equal up to sign, and
    this one is their GCD."""
    pres = wirtinger(pd)
    M = _abelian_fox_matrix(pres, ZZ)
    A0, A1 = [], []
    for i in range(pres.num_generators - 1):
        row = M.entries[i][1:]
        exps = [e for f in row for e in f.coeffs]
        lo = min(exps, default=0)
        if exps and max(exps) - lo > 1:
            raise AssertionError("Fox row %d is not linear in t" % i)
        A0.append([f.coeff(lo) for f in row])
        A1.append([f.coeff(lo + 1) for f in row])
    return A0, A1


def _pencil_value(pencil, x):
    """det(A0 + x*A1) at an integer x."""
    A0, A1 = pencil
    return _int_det([[a + x * b for a, b in zip(r0, r1)]
                     for r0, r1 in zip(A0, A1)])


def _check_at_one(at_one):
    if at_one not in (1, -1):
        raise AssertionError("Alexander polynomial fails Delta(1) = +-1 "
                             "(got %s)" % at_one)


def classical_alexander(pd):
    """Classical Alexander polynomial over Z, in canonical unit form: one
    maximal minor of the abelianized Wirtinger Fox matrix, a polynomial of
    degree <= N-1 interpolated from its values at N integer points; checked
    against Delta(1) = +-1."""
    pencil = _alexander_pencil(pd)
    # 0, 1, -1, 2, -2, ... keeps the evaluated entries small
    xs = [(i + 1) // 2 * (1 if i % 2 else -1)
          for i in range(len(pencil[0]) + 1)]
    coeffs = _int_interpolate(xs, [_pencil_value(pencil, x) for x in xs])
    delta = canonicalize(LaurentPoly(ZZ, dict(enumerate(coeffs))))
    _check_at_one(delta.evaluate(1))
    return delta


def _smith_invariants(M):
    """Invariant factors of a polynomial matrix over a field, d_1 | d_2 | ...
    (ordinary Smith normal form over F[t], computed up to units)."""
    dom = M.domain
    grid = [[M[i, j] for j in range(M.cols)] for i in range(M.rows)]
    nr, nc = M.rows, M.cols
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


def higher_alexander(pd, k):
    """k-th Alexander polynomial over Q: GCD of the (N-k)-minors of the
    abelianized Fox matrix, i.e. the product of the first N-k invariant
    factors of its Smith normal form; 1 when the minor size is not positive."""
    if k < 1:
        raise ValueError("k must be at least 1")
    pres = wirtinger(pd)
    N = pres.num_generators
    size = N - k
    if size <= 0:
        return LaurentPoly.one(QQ)
    M = _abelian_fox_matrix(pres, QQ)
    inv = _smith_invariants(M)
    if len(inv) < size:
        return LaurentPoly.zero(QQ)
    acc = LaurentPoly.one(QQ)
    for f in inv[:size]:
        acc = acc * f
    return canonicalize(acc)


def knot_determinant(pd):
    """|Delta_K(-1)|, the order of the first homology of the double branched
    cover, read off the Alexander pencil at t = -1; checked against
    Delta(1) = +-1."""
    pencil = _alexander_pencil(pd)
    _check_at_one(_pencil_value(pencil, 1))
    return abs(_pencil_value(pencil, -1))


def _fraction_mul(a, b):
    return reduce_fraction(a.num * b.num, a.den * b.den)


def verify_theorem(spec, rho_partial):
    """Check the symmetric-union factorization: the twisted polynomial of the
    union under the pulled-back representation against
    Delta_partial^2 * det(rho(mu)t - I), with the degree law
    deg lhs = 2 deg Delta_partial + d."""
    union_pres, partial_pres, phi = build_symun_presentation(spec)
    if len(rho_partial.matrices) != partial_pres.num_generators or \
            not verify_representation(partial_pres, rho_partial,
                                      require_sl=(rho_partial.d == 2)):
        raise ValueError("representation is not valid on the partial "
                         "presentation produced by this construction")
    rho = lamm_pullback(phi, rho_partial)
    lhs = twisted_alexander(union_pres, rho)
    partial_tw = twisted_alexander(partial_pres, rho_partial)
    pm = PhiMap(partial_pres, rho_partial)
    mu_factor = _block_det(pm.gen_minus_one(partial_pres.meridian), pm.domain)
    rhs_fr = _fraction_mul(_fraction_mul(partial_tw.value, partial_tw.value),
                           RationalFn(mu_factor, LaurentPoly.one(pm.domain)))
    equal = rational_unit_equal(lhs.value, rhs_fr)
    deg_rhs = (None if partial_tw.degree is None
               else 2 * partial_tw.degree + rho_partial.d)
    return {
        "lhs": format_fraction(lhs.value),
        "rhs": format_fraction(rhs_fr),
        "equal": equal,
        "deg_lhs": lhs.degree,
        "deg_rhs": deg_rhs,
        "d": rho_partial.d,
    }


def genus_lower_bound(tw):
    """Exact rational (deg/d + 1)/2 from the degree inequality
    d(2g - 1) >= deg; the genus bound is the ceiling of this value."""
    if tw.degree is None:
        raise ValueError("zero twisted polynomial has no degree")
    return Fraction(tw.degree + tw.d, 2 * tw.d)


def even_symun_quick_obstructions(K, candidate_partial, genus=None):
    """Necessary conditions for K to be an even symmetric union with the
    given partial knot: (a) Delta_K is the square of the candidate's,
    (b) deg Delta_K divisible by 4, (c) det K a perfect square of the
    candidate's determinant, (d) with a genus witness deg Delta_K = 2g(K),
    the genus must be even."""
    dK = classical_alexander(K)
    dC = classical_alexander(candidate_partial)
    deg = 0 if dK.is_zero else dK.span
    checks = {
        "a_alexander_square": unit_equal(dK, dC * dC),
        "b_degree_mod_4": deg % 4 == 0,
        "c_determinant_square": abs(dK.evaluate(-1)) ==
                                abs(dC.evaluate(-1)) ** 2,
    }
    if genus is not None:
        checks["d_genus_even"] = (deg == 2 * genus) and genus % 2 == 0
    checks["all_pass"] = all(v for v in checks.values())
    return checks


def even_symun_obstruction(K, candidate_partial, p, rho_partial,
                           search=None, jobs=None):
    """Enumerate all nonabelian SL(2, F_p) representations of G(K) up to
    conjugacy and compare each twisted polynomial against the target
    Delta_{cand, rho}^2 * det(rho(mu)t - I).  If none matches, K admits no
    even symmetric-union presentation with this partial knot and this
    representation (the pullback representation would have to appear).
    """
    cand_pres = wirtinger(candidate_partial)
    if len(rho_partial.matrices) != cand_pres.num_generators:
        raise ValueError("representation does not fit the candidate's "
                         "Wirtinger presentation")
    if not verify_representation(cand_pres, rho_partial,
                                 require_sl=(rho_partial.d == 2)):
        raise ValueError("representation fails the candidate's relators")
    cand_tw = twisted_alexander(deficiency_one(cand_pres), rho_partial)
    pm = PhiMap(cand_pres, rho_partial)
    mu_factor = _block_det(pm.gen_minus_one(cand_pres.meridian), pm.domain)
    target = _fraction_mul(_fraction_mul(cand_tw.value, cand_tw.value),
                           RationalFn(mu_factor,
                                      LaurentPoly.one(pm.domain)))
    pres = wirtinger(K)
    cfg = search or RepSearchConfig(p=p)
    if cfg.p != p:
        raise ValueError("search config prime differs from p")
    reps = enumerate_sl2(pres, cfg)  # SearchBudgetExceeded propagates
    polys = _rep_polynomials(deficiency_one(pres), reps, jobs)
    evidence = []
    for rho, tw in zip(reps, polys):
        if rational_unit_equal(tw.value, target):
            evidence.append({"matrices": rho.matrices, "trace": rho.trace(),
                             "polynomial": format_fraction(tw.value)})
    return {
        "verdict": "obstructed" if not evidence else "inconclusive",
        "target": format_fraction(target),
        "num_reps": len(reps),
        "evidence": evidence,
    }


def _rep_polynomials(pres, reps, jobs=None):
    if jobs and jobs > 1 and len(reps) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_one_poly, [(pres, r) for r in reps]))
    return [_one_poly((pres, r)) for r in reps]


def _one_poly(args):
    pres, rho = args
    return twisted_alexander(pres, rho)
