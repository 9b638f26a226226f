import random

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforge.algebra import (ZZ, QQ, GF, LaurentPoly, divmod_poly,
                               canonicalize, det, gcd_polys, reduce_fraction,
                               format_poly, unit_equal, exact_div, _is_prime)

from support import (PolyMatrix, divides, int_det, int_interpolate,
                     laurent_reduce_fraction, parse_poly, rational_unit_equal)


def P(text, domain=ZZ):
    return parse_poly(text, domain)


def rand_poly(rng, domain, max_deg=2, min_deg=0, density=0.8):
    coeffs = {}
    for e in range(min_deg, max_deg + 1):
        if rng.random() < density:
            coeffs[e] = rng.randrange(-5, 6)
    return LaurentPoly(domain, coeffs)


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(10 ** 5) if _is_prime(n)] == \
            [n for n in range(10 ** 5) if trial_division_is_prime(n)]

    def test_strong_pseudoprimes(self):
        # 3215031751 = 151 * 751 * 28351 passes bases 2, 3, 5 and 7;
        # 3825123056546413051 passes every prime base up to 19
        for n in (3215031751, 3825123056546413051):
            assert not _is_prime(n)
        assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 64 - 59)

    def test_refuses_two_to_the_64(self):
        # trial division of 2^89 - 1 did not finish; past 2^64 the bases
        # are not proven to decide
        assert not _is_prime(2 ** 64 - 1)
        for n in (2 ** 64, 2 ** 89 - 1):
            with pytest.raises(ValueError, match="below 2\\^64"):
                _is_prime(n)
            with pytest.raises(ValueError, match="below 2\\^64"):
                GF(n)

    @pytest.mark.parametrize("p", [7.0, None, "7"])
    def test_non_int_is_not_prime(self, p):
        # 7.0 was accepted, also as a key equal to 7 of the GF cache, and
        # None failed with a bare TypeError from the 2^64 comparison
        assert not _is_prime(p)
        GF(7)
        with pytest.raises(ValueError, match="not prime"):
            GF(p)


class TestCanonicalize:
    def test_symmetric_6_1_value(self):
        f = P("2*t^-1 - 5 + 2*t")
        assert canonicalize(f) == P("2*t^2 - 5*t + 2")

    def test_zero(self):
        assert canonicalize(LaurentPoly.zero(ZZ)) == LaurentPoly.zero(ZZ)

    def test_monic_over_field(self):
        f = P("3*t^4 + 3*t^2", GF(7))
        assert canonicalize(f) == P("t^2 + 1", GF(7))

    def test_idempotent_and_unit_orbit_1000(self):
        rng = random.Random(20260824)
        for _ in range(1000):
            domain = rng.choice([ZZ, QQ, GF(5), GF(7)])
            f = rand_poly(rng, domain, max_deg=4, min_deg=-2, density=0.6)
            k = rng.randrange(-3, 4)
            if domain.is_field:
                c = rng.randrange(1, domain.p) if domain.kind == "GF" else \
                    Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                             rng.choice([1, 2, 5]))
            else:
                c = rng.choice([-1, 1])
            unit = LaurentPoly(domain, {k: c})
            cf = canonicalize(f)
            assert canonicalize(cf) == cf
            assert canonicalize(unit * f) == cf


class TestDet:
    def test_triangular(self):
        t = LaurentPoly.t(ZZ)
        one = LaurentPoly.one(ZZ)
        zero = LaurentPoly.zero(ZZ)
        M = PolyMatrix(ZZ, [[t, one], [zero, t]])
        assert det(M) == P("t^2")

    def test_rho0_denominator_matrix(self):
        # det(rho0(x)*t - I) over F_7 with rho0(x) = [[0,1],[6,4]]
        F7 = GF(7)
        t = LaurentPoly.t(F7)
        one = LaurentPoly.one(F7)

        def entry(a, sub):
            e = t.scale(a)
            return e - one if sub else e

        M = PolyMatrix(F7, [[entry(0, True), entry(1, False)],
                            [entry(6, False), entry(4, True)]])
        assert canonicalize(det(M)) == P("t^2 + 3*t + 1", GF(7))

    def test_nonsquare_rejected(self):
        one = LaurentPoly.one(ZZ)
        with pytest.raises(ValueError):
            det(PolyMatrix(ZZ, [[one, one]]))

    def test_empty_matrix(self):
        assert det(PolyMatrix(ZZ, [])) == LaurentPoly.one(ZZ)


def cofactor_det(M):
    n = M.rows
    if n == 0:
        return LaurentPoly.one(M.domain)
    if n == 1:
        return M[0, 0]
    acc = LaurentPoly.zero(M.domain)
    cols = list(range(1, n))
    for i in range(n):
        minor = M.submatrix([r for r in range(n) if r != i], cols)
        term = M[i, 0] * cofactor_det(minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


class TestDetOracle:
    def test_cofactor_oracle_1000(self):
        rng = random.Random(1357)
        F5 = GF(5)
        for _ in range(1000):
            n = rng.randrange(1, 5)
            M = PolyMatrix(F5, [[rand_poly(rng, F5, max_deg=2, min_deg=-1)
                                 for _ in range(n)] for _ in range(n)])
            assert det(M) == cofactor_det(M)

    def test_cofactor_oracle_size_6(self):
        rng = random.Random(8642)
        F5 = GF(5)
        for _ in range(30):
            for n in (5, 6):
                M = PolyMatrix(F5, [[rand_poly(rng, F5, max_deg=2)
                                     for _ in range(n)] for _ in range(n)])
                assert det(M) == cofactor_det(M)

    def test_integer_bareiss_against_cofactor(self):
        rng = random.Random(2468)
        for _ in range(300):
            n = rng.randrange(0, 6)
            # mostly zeros, so that pivots vanish and rows get swapped
            A = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                 for _ in range(n)]
            M = PolyMatrix(ZZ, [[LaurentPoly.const(ZZ, a) for a in row]
                                for row in A])
            assert int_det(A) == cofactor_det(M).coeff(0)

    def test_integer_interpolation(self):
        rng = random.Random(1357)
        for _ in range(100):
            n = rng.randrange(1, 8)
            coeffs = [rng.randrange(-20, 21) for _ in range(n)]
            xs = [(i + 1) // 2 * (1 if i % 2 else -1) for i in range(n)]
            ys = [sum(c * x ** e for e, c in enumerate(coeffs)) for x in xs]
            assert int_interpolate(xs, ys) == coeffs
        with pytest.raises(ArithmeticError):
            int_interpolate([0, 2], [0, 1])  # t/2

    def test_row_swap_and_row_add(self):
        rng = random.Random(99)
        F5 = GF(5)
        for _ in range(200):
            n = rng.randrange(2, 5)
            rows = [[rand_poly(rng, F5, max_deg=2) for _ in range(n)]
                    for _ in range(n)]
            d0 = det(PolyMatrix(F5, rows))
            i, j = rng.sample(range(n), 2)
            swapped = list(rows)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert det(PolyMatrix(F5, swapped)) == -d0
            f = rand_poly(rng, F5, max_deg=1)
            added = [list(r) for r in rows]
            added[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
            assert det(PolyMatrix(F5, added)) == d0


class TestGcd:
    def test_simple(self):
        assert gcd_polys([P("t^2 - 1", QQ), P("t - 1", QQ)]) == P("t - 1", QQ)

    def test_gcd_with_zero(self):
        f = P("2*t^2 - 4", ZZ)
        assert gcd_polys([LaurentPoly.zero(ZZ), f]) == canonicalize(f)

    def test_structured(self):
        f = P("t^2 - t + 1", QQ)
        g = P("t - 2", QQ)
        got = gcd_polys([f ** 3, (f ** 2) * g])
        assert got == canonicalize(f ** 2)
        assert divides(got, f ** 3)
        assert divides(got, (f ** 2) * g)

    def test_divides_every_input_and_maximality(self):
        rng = random.Random(4321)
        for _ in range(200):
            domain = rng.choice([QQ, GF(5), ZZ])
            common = rand_poly(rng, domain, max_deg=2)
            if common.is_zero:
                continue
            fs = [common * rand_poly(rng, domain, max_deg=2) for _ in range(3)]
            if all(f.is_zero for f in fs):
                continue
            g = gcd_polys(fs)
            for f in fs:
                assert divides(g, f)
            assert divides(canonicalize(common), g) or common.is_zero

    def test_integer_content(self):
        f = P("4*t^2 + 2", ZZ)
        g = P("6*t", ZZ)
        assert gcd_polys([f, g]) == P("2", ZZ)


class TestReduceFraction:
    def test_simple(self):
        r = reduce_fraction(P("t^2 - 1", QQ), P("t - 1", QQ))
        assert r.num == P("t + 1", QQ)
        assert r.is_polynomial

    def test_self_quotient_is_one(self):
        f = P("t^2 + 3*t + 1", GF(7))
        r = reduce_fraction(f, f)
        assert r.num == LaurentPoly.one(GF(7))
        assert r.is_polynomial

    def test_monomials_degree(self):
        r = reduce_fraction(P("t^3", QQ), P("t", QQ))
        assert r.num == LaurentPoly.one(QQ)  # canonical form of t^2
        assert r.degree == 0  # span convention: monomials have span 0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            reduce_fraction(P("t", QQ), LaurentPoly.zero(QQ))

    def test_cross_multiplied_unit_equality(self):
        a = reduce_fraction(P("t^2 - 1", GF(5)), P("t + 2", GF(5)))
        b = reduce_fraction(P("3*t^2 - 3", GF(5)).shift(2), P("t + 2", GF(5)).shift(1))
        assert rational_unit_equal(a, b)


def laurent(domain, coeffs, lo):
    return LaurentPoly(domain, {lo + i: c for i, c in enumerate(coeffs)})


@st.composite
def fractions_over(draw, domain, coefficient):
    """(num, den) over domain: random Laurent polynomials with negative
    exponents, and the corner cases: a zero numerator, num = den, a unit
    denominator c*t^k and a common factor of positive degree."""
    def poly(nonzero=True):
        coeffs = draw(st.lists(coefficient, min_size=1, max_size=7))
        f = laurent(domain, coeffs, draw(st.integers(-4, 4)))
        return laurent(domain, [1], 0) if nonzero and f.is_zero else f

    num, den = poly(nonzero=False), poly()
    kind = draw(st.sampled_from(("random", "zero", "equal", "unit",
                                 "common")))
    if kind == "zero":
        num = LaurentPoly.zero(domain)
    elif kind == "equal":
        num = den.shift(draw(st.integers(-3, 3)))
    elif kind == "unit":
        den = laurent(domain, [draw(coefficient.filter(bool))],
                      draw(st.integers(-4, 4)))
    elif kind == "common":
        g = poly()
        num, den = num * g, den * g
    return num, den


class TestReduceFractionRoute:
    """reduce_fraction's coefficient lists against the Laurent-polynomial
    route of gcd_pair, exact_div and canonicalize."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 31]).flatmap(
        lambda p: fractions_over(GF(p), st.integers(0, p - 1))))
    def test_over_gf_p(self, fraction):
        num, den = fraction
        got = reduce_fraction(num, den)
        want = laurent_reduce_fraction(num, den)
        assert (got.num, got.den) == (want.num, want.den)
        assert hash(got) == hash(want)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(fractions_over(QQ, st.fractions(-4, 4, max_denominator=3)))
    def test_over_q(self, fraction):
        num, den = fraction
        got = reduce_fraction(num, den)
        want = laurent_reduce_fraction(num, den)
        assert (got.num, got.den) == (want.num, want.den)


@st.composite
def unit_multiples(draw, domain, coefficient):
    """(num, den, u, v): a fraction of fractions_over and two units
    c*t^k, c a nonzero coefficient."""
    num, den = draw(fractions_over(domain, coefficient))
    u, v = (laurent(domain, [draw(coefficient.filter(bool))],
                    draw(st.integers(-5, 5))) for _ in range(2))
    return num, den, u, v


class TestCanonicalFractionsAreUnitFree:
    """reduce_fraction(u*a, v*b) == reduce_fraction(a, b) for units u, v:
    two reduced fractions are equal up to a unit exactly when they are
    equal, so reduced fractions may be compared with ==."""

    def check(self, num, den, u, v):
        want = reduce_fraction(num, den)
        got = reduce_fraction(u * num, v * den)
        assert got == want
        assert rational_unit_equal(got, want)
        # a fraction that differs by more than a unit differs under == too
        other = reduce_fraction(num + den, den)
        assert (other == want) == rational_unit_equal(other, want)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 31]).flatmap(
        lambda p: unit_multiples(GF(p), st.integers(0, p - 1))))
    def test_over_gf_p(self, case):
        self.check(*case)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(unit_multiples(QQ, st.fractions(-4, 4, max_denominator=3)))
    def test_over_q(self, case):
        self.check(*case)


class TestRingAxioms:
    def test_distributivity_random(self):
        rng = random.Random(777)
        for _ in range(300):
            domain = rng.choice([ZZ, QQ, GF(5)])
            f = rand_poly(rng, domain, max_deg=3, min_deg=-2)
            g = rand_poly(rng, domain, max_deg=3, min_deg=-2)
            h = rand_poly(rng, domain, max_deg=3, min_deg=-2)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)

    def test_exact_div_roundtrip(self):
        rng = random.Random(31415)
        for _ in range(200):
            domain = rng.choice([ZZ, QQ, GF(7)])
            f = rand_poly(rng, domain, max_deg=3)
            g = rand_poly(rng, domain, max_deg=2)
            if g.is_zero:
                continue
            assert exact_div(f * g, g) == f


def dense_value(domain, c):
    """The int or Fraction c as an element of domain (F_7 for GF)."""
    if domain.kind == "GF":
        return c % 7
    return Fraction(c) if domain.kind == "QQ" else c


def dense_coeffs(domain, lo, cs):
    """{exponent: element} of the dense list cs of t^lo, t^(lo+1), ..."""
    out = {}
    for i, c in enumerate(cs):
        c = dense_value(domain, c)
        if c:
            out[lo + i] = c
    return out


def dense_sum(f, g):
    (lf, cf), (lg, cg) = f, g
    lo = min(lf, lg)
    out = [0] * (max(lf + len(cf), lg + len(cg)) - lo)
    for l, cs in (f, g):
        for i, c in enumerate(cs):
            out[l - lo + i] += c
    return lo, out


def dense_product(f, g):
    (lf, cf), (lg, cg) = f, g
    out = [0] * max(len(cf) + len(cg) - 1, 0)
    for i, a in enumerate(cf):
        for j, b in enumerate(cg):
            out[i + j] += a * b
    return lf + lg, out


def dense_evaluate(domain, lo, cs, x):
    if domain.kind == "GF":
        return sum(c * pow(x, lo + i, 7) for i, c in enumerate(cs)) % 7
    v = sum(c * Fraction(x) ** (lo + i) for i, c in enumerate(cs))
    return Fraction(v) if domain.kind == "QQ" else int(v)


def dense_divmod(domain, f, g):
    """divmod_poly's (q, r) as {exponent: element} dicts, f and g given as
    such dicts (g nonzero): both are multiplied by the power of t that makes
    their lowest exponent 0 when it is negative, divided as polynomials by
    long division, and shifted back."""
    sf = max(-min(f), 0) if f else 0
    sg = max(-min(g), 0)
    R = [f.get(e - sf, 0) for e in range(max(f) + sf + 1)] if f else []
    G = [g.get(e - sg, 0) for e in range(max(g) + sg + 1)]
    inv = pow(G[-1], -1, 7) if domain.kind == "GF" else 1 / G[-1]
    Q = [0] * max(len(R) - len(G) + 1, 0)
    for k in range(len(Q) - 1, -1, -1):
        Q[k] = c = dense_value(domain, R[k + len(G) - 1] * inv)
        for i, b in enumerate(G):
            R[k + i] = dense_value(domain, R[k + i] - c * b)
    return ({e + sg - sf: c for e, c in enumerate(Q) if c},
            {e - sf: c for e, c in enumerate(R) if c})


class TestLaurentArithmetic:
    """+, -, *, scale, evaluate and divmod_poly against dense coefficient
    lists computed with plain ints and Fractions, reduced mod 7 over F_7
    only when they are compared: a reduction that is consistently wrong
    fails here, not only one that disagrees with itself."""

    @staticmethod
    def is_element(domain, c):
        if domain.kind == "GF":
            return type(c) is int and 0 < c < 7
        return type(c) is (Fraction if domain.kind == "QQ" else int)

    def check(self, domain, f, want):
        assert f.coeffs == want
        assert all(self.is_element(domain, c) for c in f.coeffs.values())

    @pytest.mark.parametrize("domain", [ZZ, QQ, GF(7)], ids=repr)
    def test_against_dense_lists(self, domain):
        rng = random.Random(2828)

        def coefficient():
            if domain.kind == "QQ":
                return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            return rng.randrange(-30, 31)

        def dense():
            n = rng.randrange(0, 6)
            return rng.randrange(-3, 3), [coefficient() if rng.random() < 0.8
                                          else 0 for _ in range(n)]
        divisions = 0
        for _ in range(400):
            (lf, cf), (lg, cg) = fd, gd = dense(), dense()
            f = LaurentPoly(domain, dict(zip(range(lf, lf + len(cf)), cf)))
            g = LaurentPoly(domain, dict(zip(range(lg, lg + len(cg)), cg)))
            self.check(domain, f + g,
                       dense_coeffs(domain, *dense_sum(fd, gd)))
            self.check(domain, f - g, dense_coeffs(domain, *dense_sum(
                fd, (lg, [-c for c in cg]))))
            self.check(domain, -f, dense_coeffs(domain, lf,
                                                [-c for c in cf]))
            self.check(domain, f * g,
                       dense_coeffs(domain, *dense_product(fd, gd)))
            k = coefficient()
            self.check(domain, f.scale(k),
                       dense_coeffs(domain, lf, [c * k for c in cf]))
            if domain.kind == "GF":
                x = rng.choice([-20, -8, -1, 1, 3, 6, 9, 15])
            elif domain.kind == "ZZ" and lf < 0:
                x = rng.choice([-1, 1])
            else:
                x = rng.choice([-3, -1, 1, 2, 5])
            got = f.evaluate(x)
            assert got == dense_evaluate(domain, lf, cf, x)
            assert got == 0 or self.is_element(domain, got)
            if domain.is_field and not g.is_zero:
                q, r = divmod_poly(f, g)
                want_q, want_r = dense_divmod(
                    domain, dense_coeffs(domain, lf, cf),
                    dense_coeffs(domain, lg, cg))
                self.check(domain, q, want_q)
                self.check(domain, r, want_r)
                divisions += 1
        assert divisions > 200 or not domain.is_field


class TestTextFormat:
    def test_roundtrip(self):
        rng = random.Random(2718)
        for _ in range(300):
            domain = rng.choice([ZZ, QQ, GF(7)])
            f = rand_poly(rng, domain, max_deg=4, min_deg=-3, density=0.5)
            assert parse_poly(format_poly(f), domain) == f

    def test_laurent_string(self):
        f = parse_poly("2*t^-1 - 5 + 2*t", ZZ)
        assert f.coeffs == {-1: 2, 0: -5, 1: 2}

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_poly("2**t", ZZ)
        with pytest.raises(ValueError):
            parse_poly("t^", ZZ)

    def test_gf_residues_nonnegative(self):
        f = LaurentPoly(GF(7), {0: -1, 1: 3})
        assert "6" in format_poly(f)
        assert "-" not in format_poly(f)


class TestUnitEqual:
    def test_shift_and_scale(self):
        f = P("2*t^2 - 5*t + 2", ZZ)
        assert unit_equal(f, f.shift(-3))
        assert unit_equal(f, (-f).shift(5))
        assert not unit_equal(f, f + LaurentPoly.one(ZZ))
