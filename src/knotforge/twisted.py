"""
Twisted Alexander polynomials over F_p, and the classical ones over Z and Q.

The map Phi sends a free-group generator x_i to rho(x_i)*t and extends to the
group ring; the Wada invariant of a deficiency-1 presentation is
det A_{x_j} / det Phi(x_j - 1), where A is the Fox Jacobian of the relators
with the j-th generator column removed.  Each presentation is compiled once
per dropped column (`_fox_program`) into a left-to-right pass over each
relator that names, per letter, the prefix product, sign, column block and
power of t of its Fox coefficient; evaluating it (`_fox_rows`) gives every
Fox coefficient, and without a representation it is the abelianization,
every generator going to t.  `_fox_pencil` turns these rows into the one
kind of matrix, a `Pencil` (over F_p for `fox_matrix`, over Z for the
Alexander pencil), linearizing the rows of higher degree in t with
auxiliary rows and columns.
`twisted_alexander` first runs the Tietze pass `eliminate_generators`, a
unit change of the invariant that shrinks the pencil and adds no auxiliary
rows, keeping the column that `_column` chooses.  Every determinant, the
Wada numerator and the denominator det(rho(x_j)t - I) alike, goes through
`pencil_det`.  The
classical Alexander polynomial is a single maximal minor of the abelianized
Fox matrix over Z[t, t^-1], an integer pencil deflated modulo a listed
prime, 2^30 - 35 for up to 19 rows (`_fastdet._int_pencil_det`), once per
diagram, and det K is
the same determinant's value at t = -1; the higher ones are the GCD of the
(N-k)-minors over Q[t, t^-1], from the Smith normal form of the same
pencil.  Each derived value is kept on the object it comes from, a diagram,
presentation, marked diagram or spec (`Record._derived`), and lives and
dies with the object the caller holds.
"""

from __future__ import annotations

from .algebra import (GF, QQ, ZZ, LaurentPoly, canonicalize, divmod_poly,
                      format_poly, reduce_fraction, unit_equal)
from .presentation import (_checked, _pullback, build_symun_presentation,
                           deficiency_one, eliminate_generators, wirtinger)
from .reps import (Representation, RepSearchConfig, enumerate_sl2, inverses,
                   verify_representation, word_prefixes)
from ._fastdet import Pencil, _int_pencil_det, pencil_det


def trivial_rep(pres, p):
    """The rank-1 trivial representation over F_p: every generator maps to
    the 1x1 identity."""
    return Representation(p=p, d=1,
                          matrices=(((1,),),) * pres.num_generators)


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
    if fr.is_polynomial:
        return format_poly(fr.num)
    return "(%s) / (%s)" % (format_poly(fr.num), format_poly(fr.den))


def _fox_program(pres, drop):
    """The Fox Jacobian of pres, generator column drop removed, compiled
    once (kept on pres): the number of kept generators and, per relator,
    (word, lo, span, terms).  The relator is read left to right with its running exponent
    sum e (the fundamental formula): a letter x_g adds +rho(prefix before
    it)*t^e to the block of x_g, a letter x_g^-1 first lowers e and adds
    -rho(prefix through it)*t^e.  Each letter with a kept column is one term
    (prefix index, sign, block, slot), slot = e - lo with lo the relator's
    lowest exponent: slot 0 lands in A0 and slot 1 in A1 of the relator's
    rows, and span counts the slots."""
    block = {g: k for k, g in enumerate(
        g for g in range(pres.num_generators) if g != drop)}
    program = []
    for r in pres.relators:
        terms, exps, e = [], [], 0
        for i, (g, s) in enumerate(r):
            if s < 0:
                e -= 1
            k = block.get(g)
            if k is not None:
                terms.append((i + (s < 0), s, k))
                exps.append(e)
            if s > 0:
                e += 1
        lo = min(exps, default=0)
        program.append((r, lo, max(exps, default=lo) - lo + 1,
                        tuple([(*t, e - lo) for t, e in zip(terms, exps)])))
    return len(block), tuple(program)


def _fox_rows(pres, rho, drop):
    """Evaluate the compiled Fox program under x_g -> rho(x_g)*t, or under
    the abelianization x_g -> t (d = 1) without rho.  Returns the column
    count and, per row of the matrix, (lo, slots): slots[j] is the dense row
    of coefficients of t^(lo + j), reduced mod p over F_p.  Entry (i, j) of
    the k-th kept generator's block is column d*k + j of row i."""
    nblocks, program = pres._derived(("fox", drop), _fox_program, pres, drop)
    d = 1 if rho is None else rho.d
    ncols = d * nblocks
    if rho is not None:
        p, mats = rho.p, rho.matrices
        invs = inverses(mats, p)
    rows = []
    for word, lo, span, terms in program:
        block = [[[0] * ncols for _ in range(span)] for _ in range(d)]
        if rho is None:
            for _, s, k, j in terms:
                block[0][j][k] += s
        elif d == 2:
            # the 2 x 2 blocks written out, reduced as they are written
            prefixes = word_prefixes(word, mats, p, invs)
            top, bottom = block
            for i, s, k, j in terms:
                (a, b), (c, e) = prefixes[i]
                k *= 2
                R = top[j]
                R[k] = (R[k] + s * a) % p
                R[k + 1] = (R[k + 1] + s * b) % p
                R = bottom[j]
                R[k] = (R[k] + s * c) % p
                R[k + 1] = (R[k + 1] + s * e) % p
        else:
            prefixes = word_prefixes(word, mats, p, invs)
            for i, s, k, j in terms:
                for slots, Pi in zip(block, prefixes[i]):
                    R = slots[j]
                    for c, v in enumerate(Pi, d * k):
                        R[c] = (R[c] + s * v) % p
        rows += ((lo, slots) for slots in block)
    return ncols, rows


def _fox_pencil(ncols, rows, domain):
    """The `Pencil` of Fox rows, each shifted to its lowest exponent with a
    nonzero coefficient (a zero row has lo = 0).  A row c_0 + t*c_1 + ... +
    t^k*c_k, k > 1, is linearized (Gohberg, Lancaster and Rodman): it
    becomes c_0 + t*c_1 - t*y_1 over new columns y_1..y_(k-1), and y_i gets
    the row t*c_(i+1) + y_i - t*y_(i+1), without y_k in the last.  These
    come after the other rows and columns; their block is unit upper
    triangular, so the determinant is unchanged."""
    A0, A1, shift, tails = [], [], 0, []
    for lo, slots in rows:
        live = list(map(any, slots))
        if True not in live:
            A0.append([0] * ncols)
            A1.append([0] * ncols)
            continue
        j = live.index(True)
        if True in live[j + 2:]:
            top = len(live) - live[::-1].index(True)
            tails.append((len(A0), slots[j + 2:top]))
        A0.append(slots[j])
        A1.append(slots[j + 1] if j + 1 < len(slots) else [0] * ncols)
        shift += lo + j
    if tails:
        m = sum(len(cs) for _, cs in tails)
        A0 = [r + [0] * m for r in A0]
        A1 = [r + [0] * m for r in A1]
        y = ncols
        for i, cs in tails:
            # -t*y is written into the row above y's own row
            above = A1[i]
            for c in cs:
                above[y] = domain.p - 1 if domain.kind == "GF" else -1
                above = c + [0] * m
                A0.append([int(k == y) for k in range(ncols + m)])
                A1.append(above)
                y += 1
    return Pencil(domain, A0, A1, shift)


def fox_matrix(pres, rho, drop=None):
    """Block matrix with (i, j) block Phi(d r_i / d x_j), Phi(x_g) =
    rho(x_g)*t, optionally with one generator column removed, evaluated from
    the compiled Fox program: the `Pencil` of `_fox_pencil`, over F_p."""
    return _fox_pencil(*_fox_rows(pres, rho, drop), GF(rho.p))


def _gen_minus_one_det(rho, g):
    """det Phi(x_g - 1) = det(rho(x_g)*t - I), the determinant of the
    pencil with A0 = -I and A1 = rho(x_g)."""
    d, p = rho.d, rho.p
    return pencil_det(Pencil(
        GF(p), [[p - 1 if i == j else 0 for j in range(d)] for i in range(d)],
        [list(row) for row in rho.matrices[g]]))


def twisted_alexander(pres, rho):
    """Wada's twisted Alexander polynomial det A_{x_j} / det Phi(x_j - 1) of
    a deficiency-1 presentation, with the column of j = `_column(pres)`
    removed: the generator whose Tietze reduction is smallest for an
    is_wirtinger pres and the first generator otherwise (the denominator,
    of constant term +-1, is never zero).  rho is checked on pres; the
    determinants are taken on the presentation that `eliminate_generators`
    leaves of pres with column j kept (kept on pres), under rho restricted
    to the kept generators.  The invariant changes by
    a unit under Tietze moves and with the column dropped (Wada 1994),
    which the canonical form of the reduced fraction removes."""
    if pres.deficiency != 1:
        raise ValueError("Wada's invariant needs a deficiency-1 presentation,"
                         " got deficiency %d" % pres.deficiency)
    if not verify_representation(pres, rho):
        raise ValueError("representation is singular or does not satisfy "
                         "the relators")
    return _twisted_alexander(pres, rho)


def _twisted_alexander(pres, rho):
    """twisted_alexander for a deficiency-1 pres and a rho already known to
    satisfy it, unchecked: so rho maps each generator the Tietze pass
    eliminates to its word, and is restricted to the ones it keeps."""
    return _wada(pres, _column(pres), lambda kept: Representation._trusted(
        rho.p, rho.d, tuple(rho.matrices[g] for g in kept)))


def _column(pres):
    """The column twisted_alexander drops, kept on pres.  For an
    is_wirtinger pres it is the generator j whose
    `eliminate_generators(pres, j)` keeps the fewest generators, ties to
    the lowest j, and only that reduction is kept, as ("tietze", j).  The
    passes tried are the meridian's and those of the generators it
    eliminates: keeping a generator that the meridian's pass keeps anyway
    kept as many on every grid union, partial and bundled knot measured.
    Any other pres drops column 0."""
    if not pres.is_wirtinger:
        return 0

    def choose():
        m = pres.meridian
        reductions = {m: eliminate_generators(pres, m)}
        for j in range(pres.num_generators):
            if j not in reductions[m][1]:
                reductions[j] = eliminate_generators(pres, j)
        j = min(reductions, key=lambda j: (len(reductions[j][1]), j))
        pres._derived(("tietze", j), reductions.get, j)
        return j
    return pres._derived("column", choose)


def _wada(pres, j, restrict):
    """det A_{x_j} / det Phi(x_j - 1) on the Tietze reduction of pres that
    keeps x_j (kept on pres), under restrict(kept), unchecked."""
    pres, kept = pres._derived(("tietze", j), eliminate_generators, pres, j)
    rho, j = restrict(kept), kept.index(j)
    num = pencil_det(fox_matrix(pres, rho, drop=j))
    den = _gen_minus_one_det(rho, j)
    return TwistedPolynomial(reduce_fraction(num, den), rho.d)


def _alexander_pencil(pres):
    """Integer matrices (A0, A1) with det(A0 + t*A1) = Delta_K up to a unit:
    the first N-1 relator rows of the abelianized Fox matrix of a Wirtinger
    presentation with column 0 dropped, each row shifted to be linear in t.

    Every Wirtinger relator r has exponent sum 0, so the fundamental formula
    sum_j (dr/dx_j)(x_j - 1) = r - 1 makes every row sum to 0; the N maximal
    minors of the (N-1) x N relator block are then equal up to sign, and
    this one is their GCD."""
    ncols, rows = _fox_rows(pres, None, 0)
    pencil = _fox_pencil(ncols, rows[:ncols], ZZ)
    return pencil.A0, pencil.A1


def _wirtinger(pd):
    """pd's Wirtinger presentation, kept on pd: Delta_K, det K, the higher
    polynomials and the obstruction of one diagram share it."""
    return pd._derived("wirtinger", wirtinger, pd)


def _deficiency_one(pres):
    """deficiency_one(pres), built once and kept on pres."""
    return pres._derived("deficiency_one", deficiency_one, pres)


def _alexander_coefficients(pd):
    """The integer coefficients, lowest first, of the determinant of pd's
    Alexander pencil (Delta_K up to a unit), which Delta_K and det K read
    from pd's cache; checked against Delta(1) = +-1, their sum."""
    coeffs = tuple(_int_pencil_det(*_alexander_pencil(_wirtinger(pd))))
    at_one = sum(coeffs)
    if at_one not in (1, -1):
        raise AssertionError("Alexander polynomial fails Delta(1) = +-1 "
                             "(got %s)" % at_one)
    return coeffs


def classical_alexander(pd):
    """Classical Alexander polynomial over Z, in canonical unit form: one
    maximal minor of the abelianized Wirtinger Fox matrix, the determinant
    of its integer pencil by one modular deflation (kept on pd); checked
    against Delta(1) = +-1."""
    return canonicalize(LaurentPoly(ZZ, dict(enumerate(
        pd._derived("alexander", _alexander_coefficients, pd)))))


def _smith_invariants(pencil):
    """Invariant factors of a pencil's matrix over a field, d_1 | d_2 | ...
    (ordinary Smith normal form over F[t], in canonical form), read as the
    Laurent rows A0 + t*A1: the row shifts are units.  Each round moves an
    entry of least span to the corner and multiplies its row by the unit
    that makes it canonical, so that every remainder by it has a smaller
    span, and divides its column and its row by it.  A nonzero remainder,
    or an entry of the rest that it does not divide (whose row is added to
    its own), starts the next round at an entry of smaller span; otherwise
    it is the next invariant factor, and its row and column are dropped."""
    dom = pencil.domain
    grid = [[LaurentPoly(dom, {0: a, 1: b}) for a, b in zip(r0, r1)]
            for r0, r1 in zip(pencil.A0, pencil.A1)]
    invariants = []
    while True:
        live = [(f.span, i, j) for i, row in enumerate(grid)
                for j, f in enumerate(row) if not f.is_zero]
        if not live:
            return invariants
        _, i, j = min(live)
        grid[0], grid[i] = grid[i], grid[0]
        for row in grid:
            row[0], row[j] = row[j], row[0]
        p = grid[0][0]
        unit = LaurentPoly(dom, {-p.min_deg: dom.inv(p.leading())})
        top = grid[0] = [f * unit for f in grid[0]]
        p = top[0]
        for row in grid[1:]:
            if not row[0].is_zero:
                q = divmod_poly(row[0], p)[0]
                row[:] = [f - q * g for f, g in zip(row, top)]
        for j in range(1, len(top)):
            if not top[j].is_zero:
                q = divmod_poly(top[j], p)[0]
                for row in grid:
                    if not row[0].is_zero:
                        row[j] = row[j] - row[0] * q
        if any(not row[0].is_zero for row in grid[1:]) or any(
                not f.is_zero for f in top[1:]):
            continue
        # a pivot of span 0 is 1 by now, and 1 divides every entry
        bad = None if p.span == 0 else next((row for row in grid[1:] if any(
            not divmod_poly(f, p)[1].is_zero for f in row[1:])), None)
        if bad is not None:
            grid[0] = [f + g for f, g in zip(top, bad)]
            continue
        invariants.append(p)
        grid = [row[1:] for row in grid[1:]]


def _alexander_invariants(pd):
    """(N, invariant factors): the generator count of pd's Wirtinger
    presentation and the Smith invariant factors over Q of its Alexander
    pencil, kept on pd by higher_alexander, since they do not depend on k.

    The (N-1) x (N-1) pencil, the first N-1 relator rows with column 0
    dropped, has the ideals of minors of the whole N x N abelianized Fox
    matrix: every row sums to zero, so column 0 is minus the sum of the
    other columns, and the dropped relator follows from the others, so its
    row lies in the span of the remaining rows."""
    A0, A1 = _alexander_pencil(_wirtinger(pd))
    return len(A0) + 1, tuple(_smith_invariants(Pencil(QQ, A0, A1)))


def higher_alexander(pd, k):
    """k-th Alexander polynomial over Q: GCD of the (N-k)-minors of the
    abelianized Fox matrix, i.e. the product of the first N-k invariant
    factors of the Smith normal form of its Alexander pencil (kept on pd);
    1 when the minor size is not positive."""
    if k < 1:
        raise ValueError("k must be at least 1")
    N, inv = pd._derived("smith", _alexander_invariants, pd)
    size = N - k
    if size <= 0:
        return LaurentPoly.one(QQ)
    if len(inv) < size:
        return LaurentPoly.zero(QQ)
    acc = LaurentPoly.one(QQ)
    for f in inv[:size]:
        acc = acc * f
    return canonicalize(acc)


def knot_determinant(pd):
    """|Delta_K(-1)|, the order of the first homology of the double branched
    cover: the alternating sum of the coefficients of the Alexander pencil's
    determinant, the one kept on pd that classical_alexander reads;
    checked against Delta(1) = +-1."""
    coeffs = pd._derived("alexander", _alexander_coefficients, pd)
    return abs(sum(coeffs[0::2]) - sum(coeffs[1::2]))


def _factorization_target(pres, rho):
    """The twisted polynomial Delta_{pres,rho}, the factorization target
    Delta_{pres,rho}^2 * det(rho(mu)t - I), mu the meridian of pres, and
    the target's text, kept on pres per value of rho, which is checked on
    pres (`_checked`) when they are first built."""
    def build():
        tw = _twisted_alexander(pres, _checked(pres, rho))
        num, den = tw.value.num, tw.value.den
        mu = _gen_minus_one_det(rho, pres.meridian)
        target = reduce_fraction(num * num * mu, den * den)
        return tw, target, format_fraction(target)
    return pres._derived(rho, build)


def _symun_presentations(spec):
    """(union, partial, phi) of build_symun_presentation(spec), kept on
    spec.  The partial presentation depends on the marks only: the specs of
    one marked diagram share the first one built, and so its targets."""
    def build():
        union, partial, phi = build_symun_presentation(spec)
        return union, spec.partial._derived("partial", lambda: partial), phi
    return spec._derived("symun", build)


def verify_theorem(spec, rho_partial):
    """Check the symmetric-union factorization: the twisted polynomial of the
    union under the pulled-back representation against
    Delta_partial^2 * det(rho(mu)t - I), with the degree law
    deg lhs = 2 deg Delta_partial + d.  rho_partial is checked once per
    value, on the partial presentation the specs of one marked diagram
    share, which keeps the target; the pullback satisfies the union
    (GeneratorMap) and is built on its Tietze-kept generators only."""
    union_pres, partial_pres, phi = _symun_presentations(spec)
    partial_tw, rhs_fr, rhs = _factorization_target(partial_pres,
                                                    rho_partial)
    lhs = _wada(union_pres, _column(union_pres),
                lambda kept: _pullback(phi, rho_partial, kept))
    deg_rhs = (None if partial_tw.degree is None
               else 2 * partial_tw.degree + rho_partial.d)
    # both fractions are reduced and canonical, so unit equality is equality
    return {"lhs": format_fraction(lhs.value), "rhs": rhs,
            "equal": lhs.value == rhs_fr, "deg_lhs": lhs.degree,
            "deg_rhs": deg_rhs, "d": rho_partial.d}


def even_symun_quick_obstructions(K, candidate_partial, genus=None):
    """Necessary conditions for K to be an even symmetric union with the
    given partial knot: (a) Delta_K is the square of the candidate's,
    (b) deg Delta_K divisible by 4, (c) det K a perfect square of the
    candidate's determinant, (d) with a genus witness deg Delta_K = 2g(K),
    the genus must be even."""
    if genus is not None and genus < 0:
        raise ValueError("genus must be non-negative")
    dK = classical_alexander(K)
    dC = classical_alexander(candidate_partial)
    deg = 0 if dK.is_zero else dK.span
    checks = {
        "a_alexander_square": unit_equal(dK, dC * dC),
        "b_degree_mod_4": deg % 4 == 0,
        "c_determinant_square": knot_determinant(K) ==
                                knot_determinant(candidate_partial) ** 2,
    }
    if genus is not None:
        checks["d_genus_even"] = (deg == 2 * genus) and genus % 2 == 0
    checks["all_pass"] = all(v for v in checks.values())
    return checks


def even_symun_obstruction(K, candidate_partial, rho_partial,
                           max_nodes=None):
    """Enumerate all nonabelian SL(2, F_p) representations of G(K) up to
    conjugacy, p the prime of rho_partial, and compare the twisted
    polynomial of each class of meridian trace s = tr rho_partial(mu)
    against the target Delta_{cand, rho}^2 * det(rho(mu)t - I).  Lamm's
    epimorphism phi: G(K) -> G(cand) sends meridians to meridians, so the
    pullback rho o phi that the obstruction looks for has trace s on every
    meridian of K, and a class of another trace cannot be it.  If no
    trace-s class matches, K admits no even symmetric-union presentation
    with this partial knot and this representation (the pullback
    representation would have to appear).  Only the trace-s classes and
    the twins and partners they take their polynomials from reach a Fox
    pencil (`_rep_polynomials`); num_reps still counts every class the
    search lists.  rho_partial must be a nonabelian SL(2, F_p)
    representation of the candidate's Wirtinger presentation: the pullback
    of any other is never among the classes enumerated.  max_nodes bounds
    the search (RepSearchConfig's budget when None).  Both presentations
    are the ones kept on the diagrams (`_wirtinger`).  The target is kept
    on the candidate's deficiency-one presentation, per value of
    rho_partial, which is checked there first (`_factorization_target`):
    the relator it drops follows from the others."""
    _, target, _ = _factorization_target(
        _deficiency_one(_wirtinger(candidate_partial)), rho_partial)
    if rho_partial.d != 2 or rho_partial.is_abelian:
        raise ValueError("the obstruction needs a nonabelian SL(2, F_p) "
                         "representation of the candidate; only those "
                         "classes of K are enumerated")
    pres = _wirtinger(K)
    cfg = RepSearchConfig(p=rho_partial.p) if max_nodes is None else \
        RepSearchConfig(p=rho_partial.p, max_nodes=max_nodes)
    reps = enumerate_sl2(pres, cfg)  # SearchBudgetExceeded propagates
    s = rho_partial.trace()
    wanted = [rho.trace() == s for rho in reps]
    polys = _rep_polynomials(_deficiency_one(pres), reps, wanted)
    evidence = []
    for rho, tw, w in zip(reps, polys, wanted):
        if w and tw.value == target:
            evidence.append({"matrices": rho.matrices, "trace": s,
                             "polynomial": format_fraction(tw.value)})
    return {
        "verdict": "obstructed" if not evidence else "inconclusive",
        "target": format_fraction(target),
        "num_reps": len(reps),
        "evidence": evidence,
    }


def _rep_polynomials(pres, reps, wanted=None):
    """The twisted polynomial of each representation of reps, the RepList
    of enumerate_sl2 on pres, in order.  enumerate_sl2 has checked every
    relator, so no representation is checked again.

    reps.twins[i] is the index of the class of eps (x) rho_i, eps the
    character sending every meridian to -1, or None.  Twisting by eps
    substitutes -t for t, Delta_{eps rho}(t) = Delta_rho(-t) (Wada, Topology
    33, 1994; Kirk and Livingston, Topology 38, 1999), so a representation
    whose twin comes before it takes its twin's polynomial with the odd
    coefficients of the numerator and the denominator negated, reduced
    again.  reps.partners[i] is the index of the class of g rho_i g^-1, g
    of non-square determinant in GL(2, F_p), or None; Wada's invariant does
    not change under conjugation by GL(2, F_p), so a representation whose
    partner comes before it takes its partner's polynomial as it is.  The
    others go through the Fox pencil.

    With a mask wanted, one flag per representation, only the wanted ones
    and the earlier twins and partners they take their polynomials from,
    whatever their trace, are computed, each on first use; every other
    entry is None.  Each computed entry is the one the unmasked call gives.
    A partner's twin is the twin's partner, so a chain of sources visits at
    most four classes."""
    out = [None] * len(reps)

    def poly(i):
        if out[i] is None:
            j, k = reps.twins[i], reps.partners[i]
            out[i] = (poly(k) if k is not None and k < i
                      else _at_minus_t(poly(j)) if j is not None and j < i
                      else _twisted_alexander(pres, reps[i]))
        return out[i]
    for i in range(len(reps)):
        if wanted is None or wanted[i]:
            poly(i)
    return out


def _at_minus_t(tw):
    """The twisted polynomial tw with -t substituted for t."""
    def flip(f):
        return LaurentPoly(f.domain, {e: -c if e % 2 else c
                                      for e, c in f.coeffs.items()})
    return TwistedPolynomial(reduce_fraction(flip(tw.value.num),
                                             flip(tw.value.den)), tw.d)
