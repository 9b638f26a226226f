"""
Exact arithmetic for Laurent polynomials over Z, Q and prime fields F_p:
reduced fractions, GCDs and canonical forms up to multiplication by units
of the Laurent ring, and the fraction-free (Bareiss) determinant of a
square matrix of them (anything with `domain`, `rows`, `cols` and
`entries`, such as the tests' `PolyMatrix`).  The library's own
determinants go through `_fastdet.pencil_det`; `det` and `gcd_polys` stay
here for the tests' oracles and the benchmark's tracer, which looks them up
by name.

A Laurent polynomial is stored sparsely as {exponent: coefficient} with no
zero coefficients.  Units of F[t,t^-1] are c*t^k (c a nonzero scalar, and
c = +-1 over Z); `canonicalize` picks the distinguished representative of
each unit orbit so that "equal up to units" becomes plain equality.
"""

from __future__ import annotations

from fractions import Fraction


# the first 12 primes: as Miller-Rabin bases they decide every n below
# 3.18 * 10^23 (Sorenson and Webster, Math. Comp. 86, 2017), so every n < 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Whether n is a prime int, by deterministic Miller-Rabin on the first
    12 prime bases; False for anything that is not an int (7.0, None), and
    ValueError for n >= 2^64, past the bases' proven range."""
    if not isinstance(n, int):
        return False
    if n >= 1 << 64:
        raise ValueError("p = %d is too large: primes are checked "
                         "below 2^64 only" % n)
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n - 1 = d 2^s, d odd: a witness a has a^d != 1, a^(d 2^r) != -1 (r < s)
    return not any(pow(a, d, n) != 1 and all(
        pow(a, d << r, n) != n - 1 for r in range(s)) for a in _MR_BASES)


class Domain:
    """Coefficient domain: arbitrary-precision Z, Q, or F_p."""

    def __init__(self, kind, p=None):
        assert kind in ("ZZ", "QQ", "GF")
        if kind == "GF":
            if not _is_prime(p):
                raise ValueError("modulus %r is not prime" % (p,))
        self.kind = kind
        self.p = p

    @property
    def is_field(self):
        return self.kind != "ZZ"

    def coerce(self, x):
        if self.kind == "GF":
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ZeroDivisionError("denominator not invertible mod %d" % self.p)
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            return int(x) % self.p
        if self.kind == "QQ":
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError("non-integer coefficient %r over Z" % (x,))
            return x.numerator
        return int(x)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "GF" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "GF" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "GF" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "GF" else -a

    def inv(self, a):
        if self.kind == "GF":
            return pow(a, -1, self.p)
        if self.kind == "QQ":
            return 1 / a
        if a in (1, -1):
            return a
        raise ZeroDivisionError("%r is not a unit of Z" % (a,))

    def div(self, a, b):
        """Exact division; raises if not exact over Z."""
        if self.kind == "GF":
            return a * pow(b, -1, self.p) % self.p
        if self.kind == "QQ":
            return a / b
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact integer division %r / %r" % (a, b))
        return q

    def __eq__(self, other):
        return (isinstance(other, Domain) and self.kind == other.kind
                and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return self.kind if self.kind != "GF" else "GF(%d)" % self.p


ZZ = Domain("ZZ")
QQ = Domain("QQ")

_gf_cache = {}


def GF(p):
    # 7.0 == 7 finds GF(7) in the cache: Domain rejects what is not an int
    if not isinstance(p, int) or p not in _gf_cache:
        _gf_cache[p] = Domain("GF", p)
    return _gf_cache[p]


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a Domain."""

    __slots__ = ("domain", "coeffs", "_hash")

    def __init__(self, domain, coeffs):
        self.domain = domain
        clean = {}
        for e, c in coeffs.items():
            c = domain.coerce(c)
            if c:
                clean[int(e)] = c
        self.coeffs = clean
        self._hash = None

    @classmethod
    def _raw(cls, domain, coeffs):
        """The polynomial with these coefficients, already elements of
        domain and all nonzero (the dict is kept, not copied or coerced)."""
        f = cls.__new__(cls)
        f.domain = domain
        f.coeffs = coeffs
        f._hash = None
        return f

    @classmethod
    def zero(cls, domain):
        return cls(domain, {})

    @classmethod
    def one(cls, domain):
        return cls(domain, {0: 1})

    @classmethod
    def t(cls, domain, k=1):
        return cls(domain, {k: 1})

    @classmethod
    def const(cls, domain, c):
        return cls(domain, {0: c})

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def min_deg(self):
        return min(self.coeffs)

    @property
    def max_deg(self):
        return max(self.coeffs)

    @property
    def span(self):
        """Degree in the unit-invariant sense: max_deg - min_deg.

        Undefined (raises) for the zero polynomial.
        """
        if self.is_zero:
            raise ValueError("degree of the zero polynomial is undefined")
        return self.max_deg - self.min_deg

    def coeff(self, e):
        z = 0 if self.domain.kind != "QQ" else Fraction(0)
        return self.coeffs.get(e, z)

    def shift(self, k):
        """Multiply by t^k."""
        if k == 0:
            return self
        return LaurentPoly(self.domain, {e + k: c for e, c in self.coeffs.items()})

    def scale(self, c):
        d = self.domain
        c = d.coerce(c)
        return LaurentPoly(d, {e: d.mul(v, c) for e, v in self.coeffs.items()})

    def __add__(self, other):
        d = self.domain
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = d.add(out.get(e, 0), c) if e in out else c
        return LaurentPoly(d, out)

    def __neg__(self):
        d = self.domain
        return LaurentPoly(d, {e: d.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        d = self.domain
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                v = d.mul(c1, c2)
                if e in out:
                    out[e] = d.add(out[e], v)
                else:
                    out[e] = v
        return LaurentPoly(d, out)

    def __pow__(self, n):
        assert n >= 0
        out = LaurentPoly.one(self.domain)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.domain == other.domain
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.domain, tuple(sorted(self.coeffs.items()))))
        return self._hash

    def evaluate(self, x):
        """Evaluate at a scalar (x must be invertible if min_deg < 0)."""
        d = self.domain
        if self.is_zero:
            return d.coerce(0)
        lo = self.min_deg
        acc = d.coerce(0)
        # Horner on the ordinary polynomial t^-lo * self, then shift back
        for e in range(self.max_deg, lo - 1, -1):
            acc = d.add(d.mul(acc, d.coerce(x)), self.coeff(e))
        if lo > 0:
            for _ in range(lo):
                acc = d.mul(acc, d.coerce(x))
        elif lo < 0:
            xinv = d.inv(d.coerce(x))
            for _ in range(-lo):
                acc = d.mul(acc, xinv)
        return acc

    def leading(self):
        return self.coeffs[self.max_deg]

    def __repr__(self):
        return "LaurentPoly(%r, %s)" % (self.domain, format_poly(self))


def divmod_poly(f, g):
    """Ordinary polynomial divmod over a field, after shifting both to
    nonnegative exponents; returns (q, r) with f = q*g + r, span r < span g."""
    d = f.domain
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    sf = -f.min_deg if (not f.is_zero and f.min_deg < 0) else 0
    sg = -g.min_deg if g.min_deg < 0 else 0
    F = dict(f.shift(sf).coeffs)
    G = g.shift(sg)
    q = {}
    ginv = d.inv(G.leading())
    gmax = G.max_deg
    while F and max(F) >= gmax:
        e = max(F)
        c = d.mul(F[e], ginv)
        q[e - gmax] = c
        for eg, cg in G.coeffs.items():
            k = e - gmax + eg
            v = d.sub(F.get(k, 0), d.mul(c, cg))
            if v:
                F[k] = v
            elif k in F:
                del F[k]
    return (LaurentPoly(d, q).shift(sg - sf),
            LaurentPoly(d, F).shift(-sf))


def exact_div(f, g):
    """Exact division f / g in domain[t, t^-1]; raises if not exact."""
    d = f.domain
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    if d.is_field:
        q, r = divmod_poly(f, g)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q
    # over Z: synthetic division from the top, exactness checked coefficientwise
    F = dict(f.coeffs)
    q = {}
    gmax = g.max_deg
    glead = g.leading()
    qmin = f.min_deg - g.min_deg  # lowest quotient exponent if division is exact
    while F:
        e = max(F)
        if e - gmax < qmin:
            raise ArithmeticError("inexact polynomial division")
        c = d.div(F[e], glead)
        q[e - gmax] = c
        for eg, cg in g.coeffs.items():
            k = e - gmax + eg
            v = F.get(k, 0) - c * cg
            if v:
                F[k] = v
            elif k in F:
                del F[k]
    return LaurentPoly(d, q)


def _content(f):
    from math import gcd
    c = 0
    for v in f.coeffs.values():
        c = gcd(c, abs(v))
    return c


def canonicalize(f):
    """The distinguished representative of f's orbit under units of F[t,t^-1].

    Shift so the constant term is nonzero; then make monic over a field, or
    make the leading coefficient positive over Z (whose units are +-t^k only).
    canonicalize(0) = 0.
    """
    if f.is_zero:
        return f
    g = f.shift(-f.min_deg)
    d = f.domain
    if d.is_field:
        return g.scale(d.inv(g.leading()))
    if g.leading() < 0:
        g = -g
    return g


def unit_equal(f, g):
    return canonicalize(f) == canonicalize(g)


def gcd_pair(f, g):
    d = f.domain
    if f.is_zero:
        return canonicalize(g)
    if g.is_zero:
        return canonicalize(f)
    if d.is_field:
        a, b = f, g
        while not b.is_zero:
            a, b = b, divmod_poly(a, b)[1]
        return canonicalize(a)
    # Z: Gauss — gcd of contents times primitive part of the Q-gcd
    from math import gcd as igcd
    cf, cg = _content(f), _content(g)
    fq = LaurentPoly(QQ, f.coeffs)
    gq = LaurentPoly(QQ, g.coeffs)
    h = gcd_pair(fq, gq)
    # rescale the monic Q-gcd to a primitive integer polynomial
    mult = 1
    for v in h.coeffs.values():
        mult = mult * v.denominator // igcd(mult, v.denominator)
    hz = LaurentPoly(ZZ, {e: v * mult for e, v in h.coeffs.items()})
    c = _content(hz)
    hz = LaurentPoly(ZZ, {e: v // c for e, v in hz.coeffs.items()})
    return canonicalize(hz.scale(igcd(cf, cg)))


def gcd_polys(fs):
    """Canonical-form GCD of a nonempty list (0 for an all-zero list)."""
    fs = list(fs)
    if not fs:
        raise ValueError("gcd of empty list")
    acc = fs[0]
    for f in fs[1:]:
        acc = gcd_pair(acc, f)
        if not acc.is_zero and acc.span == 0 and not (acc.domain.kind == "ZZ"
                                                      and abs(acc.leading()) != 1):
            break  # gcd is already a unit; it cannot shrink further
    return canonicalize(acc)


class RationalFn:
    """Reduced fraction of Laurent polynomials over a field domain."""

    __slots__ = ("num", "den")

    def __init__(self, num, den, _reduced=False):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            r = reduce_fraction(num, den)
            num, den = r.num, r.den
        self.num = num
        self.den = den

    @property
    def degree(self):
        """deg num - deg den (span convention); undefined for 0."""
        return self.num.span - self.den.span

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den == LaurentPoly.one(self.den.domain)

    def __eq__(self, other):
        return (isinstance(other, RationalFn) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial:
            return format_poly(self.num)
        return "(%s)/(%s)" % (format_poly(self.num), format_poly(self.den))


def _dense(f):
    """Coefficients of a nonzero f from its lowest exponent up, a list whose
    first and last entries are nonzero (f divided by its lowest power of t)."""
    c = f.coeffs
    return [c.get(e, 0) for e in range(min(c), max(c) + 1)]


def _list_divmod(a, b, p):
    """(q, r) with a = q*b + r and len(r) < len(b), for dense coefficient
    lists, lowest first, over F_p (p the modulus) or over Q (p None); b's
    last entry is nonzero, and r has no trailing zeros."""
    nb = len(b)
    r = list(a)
    q = [0] * max(len(a) - nb + 1, 0)
    inv = pow(b[-1], -1, p) if p else 1 / b[-1]
    terms = [(i, c) for i, c in enumerate(b[:-1]) if c]
    for top in range(len(a) - 1, nb - 2, -1):
        lead = r[top]
        if not lead:
            continue
        f = lead * inv % p if p else lead * inv
        off = top - nb + 1
        q[off] = f
        if p:
            for i, c in terms:
                r[off + i] = (r[off + i] - f * c) % p
        else:
            for i, c in terms:
                r[off + i] -= f * c
    del r[nb - 1:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _list_monic(a, p):
    """a divided by its last entry."""
    if a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p) if p else 1 / a[-1]
    return [c * inv % p for c in a] if p else [c * inv for c in a]


def reduce_fraction(num, den):
    """Fully reduced, canonicalized num/den over a field domain.  Both parts
    are divided by their lowest powers of t, reduced by their Euclidean GCD
    and made monic as dense coefficient lists, one routine over F_p and Q;
    each part becomes a Laurent polynomial once, at the end, with a nonzero
    constant term and leading coefficient 1 (its canonical form)."""
    d = num.domain
    if not d.is_field:
        raise ValueError("reduce_fraction needs a field coefficient domain")
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return RationalFn(num, LaurentPoly.one(d), _reduced=True)
    p = d.p
    a, b = _dense(num), _dense(den)
    # a and b have nonzero constant terms, and so have their GCD g and the
    # quotients by g: made monic, each quotient is in canonical form
    g, h = a, b
    while h:
        g, h = h, _list_divmod(g, h, p)[1]
    if len(g) > 1:
        a = _list_divmod(a, g, p)[0]
        b = _list_divmod(b, g, p)[0]
    return RationalFn(*(LaurentPoly._raw(d, {e: c for e, c in enumerate(
        _list_monic(x, p)) if c}) for x in (a, b)), _reduced=True)


def det(M):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Negative exponents are cleared row by row first and the accumulated
    power of t divided back out at the end, so the result equals the
    cofactor expansion exactly (not just up to units).
    """
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    d = M.domain
    one = LaurentPoly.one(d)
    if n == 0:
        return one
    shift_total = 0
    A = []
    for row in M.entries:
        lo = min((e.min_deg for e in row if not e.is_zero), default=0)
        if lo < 0:
            row = [e.shift(-lo) for e in row]
            shift_total += lo
        A.append(list(row))
    sign = 1
    prev = one
    for k in range(n - 1):
        if A[k][k].is_zero:
            for i in range(k + 1, n):
                if not A[i][k].is_zero:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero(d)
        pivot = A[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = A[i][j] * pivot - A[i][k] * A[k][j]
                A[i][j] = exact_div(num, prev)
            A[i][k] = LaurentPoly.zero(d)
        prev = pivot
    result = A[n - 1][n - 1].shift(shift_total)
    return -result if sign < 0 else result


# ---------------------------------------------------------------------------
# text syntax:  terms `c*t^k` joined by + / -, e.g.  2*t^-1 - 5 + 2*t

def _fmt_coeff(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return str(c)
    return str(int(c))


def format_poly(f):
    """Render in the text syntax; finite-field residues print in [0, p)."""
    if f.is_zero:
        return "0"
    parts = []
    for e in sorted(f.coeffs, reverse=True):
        c = f.coeffs[e]
        neg = (not isinstance(c, Fraction) and f.domain.kind != "GF" and c < 0) or \
              (isinstance(c, Fraction) and c < 0)
        mag = -c if neg else c
        if e == 0:
            body = _fmt_coeff(mag)
        else:
            tpart = "t" if e == 1 else "t^%d" % e
            body = tpart if mag == 1 else "%s*%s" % (_fmt_coeff(mag), tpart)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
