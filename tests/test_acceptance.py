"""
End-to-end acceptance suite.  Each criterion is one test emitting one
pass/fail line (run with `pytest -v`); a failure of any single instance
inside a criterion fails that criterion.
"""

import os
import random
import time
from fractions import Fraction

from knotforge.algebra import (GF, QQ, ZZ, LaurentPoly, RationalFn,
                               canonicalize, det, unit_equal)
from knotforge.cli import KnotTable
from knotforge.diagram import MarkedDiagram, SymUnionSpec, symmetric_union_pd
from knotforge.presentation import (build_symun_presentation, deficiency_one,
                                    reduce_word, wirtinger)
from knotforge.reps import (RepSearchConfig, Representation, enumerate_sl2,
                            rep_from_json, verify_representation)
from knotforge.twisted import (_gen_minus_one_det, classical_alexander,
                               even_symun_obstruction, higher_alexander,
                               knot_determinant, twisted_alexander)

from support import (M_VECTORS, PARTIALS, PolyMatrix, bundled_table_path,
                     concat, fox_derivative, grid_cells, grid_marks,
                     parse_poly, rational_unit_equal, two_bridge_presentation)

HERE = os.path.dirname(os.path.abspath(__file__))


def table():
    return KnotTable.parse(bundled_table_path().read_text(), origin="bundled")


def P(text, domain=ZZ):
    return parse_poly(text, domain)


def qq(f):
    return LaurentPoly(QQ, {e: Fraction(c) for e, c in f.coeffs.items()})


def report(n, msg):
    print("criterion %d: PASS - %s" % (n, msg))


# -- criterion 1: classical Alexander golden values ---------------------------

def test_criterion_1_classical_golden_values():
    t = table()
    t0 = time.monotonic()
    f61 = P("2*t^2 - 5*t + 2")
    f31 = P("t^2 - t + 1")
    assert classical_alexander(t["6_1"]) == f61
    assert classical_alexander(t["11a_201"]) == canonicalize(f61 * f61)
    assert classical_alexander(t["8_10"]) == canonicalize(f31 ** 3)
    assert higher_alexander(t["8_10"], 2) == LaurentPoly.one(QQ)
    assert classical_alexander(t["10_99"]) == canonicalize(f31 ** 4)
    assert higher_alexander(t["10_99"], 2) == canonicalize(qq(f31) ** 2)
    assert higher_alexander(t["10_99"], 3) == LaurentPoly.one(QQ)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, "golden Alexander values exact in %.2f s" % elapsed)


# -- criterion 2: determinants ------------------------------------------------

def test_criterion_2_determinants():
    t = table()
    assert knot_determinant(t["11a_201"]) == 81
    assert knot_determinant(t["6_1"]) == 9
    report(2, "det 11a_201 = 81, det 6_1 = 9, exact")


# -- criterion 3: the explicit F_7 representation rho_0 -----------------------

RHO0_X = ((0, 1), (6, 4))
RHO0_Y = ((0, 2), (3, 4))


def test_criterion_3_rho0_on_6_1():
    t0 = time.monotonic()
    # 6_1 is the 2-bridge knot b(9/2); since 2*5 = 1 (mod 9) the pair
    # (x, y) realizes it through the b(9/5) braid-word presentation
    pres = two_bridge_presentation(9, 5)
    rho = Representation(p=7, d=2, matrices=(RHO0_X, RHO0_Y))
    assert verify_representation(pres, rho)
    tw = twisted_alexander(pres, rho)
    one = RationalFn(LaurentPoly.one(GF(7)), LaurentPoly.one(GF(7)))
    assert rational_unit_equal(tw.value, one)
    mu = _gen_minus_one_det(rho, pres.meridian)
    assert unit_equal(mu, P("t^2 + 3*t + 1", GF(7)))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(3, "rho_0 verifies on 6_1; Delta = 1; det factor t^2+3*t+1 "
              "(%.3f s)" % elapsed)


# -- criterion 4: the 11a_201 obstruction -------------------------------------

def test_criterion_4_obstruction_11a_201():
    t = table()
    t0 = time.monotonic()
    pres61 = wirtinger(t["6_1"])
    rep_text = (bundled_table_path().parent / "rho0.json").read_text()
    rho0 = rep_from_json(rep_text)
    assert verify_representation(pres61, rho0)
    out = even_symun_obstruction(t["11a_201"], t["6_1"], rho0)
    # hard assertion: no nonabelian SL(2,F_7) rep of G(11a_201) matches the
    # target Delta_{6_1,rho_0}^2 * det(rho_0(mu) t - I) = t^2 + 3t + 1
    assert out["verdict"] == "obstructed"
    assert out["evidence"] == []
    assert unit_equal(parse_poly(out["target"], GF(7)),
                      P("t^2 + 3*t + 1", GF(7)))
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    # 33 = nonabelian conjugacy classes plus the abelian ones
    cfg = RepSearchConfig(p=7, nonabelian_only=False)
    total = len(enumerate_sl2(wirtinger(t["11a_201"]), cfg))
    assert total == 33
    report(4, "no rep matches the target; %d nonabelian / %d total classes "
              "in %.1f s" % (out["num_reps"], total, elapsed))


# -- criteria 5 and 6: the symmetric-union grid -------------------------------

PRIMES = (5, 7)


def cached_partial_reps():
    """One enumeration per (partial, k, p): the cut presentation depends on
    the marks only, so all twist vectors of a cell share it."""
    t = table()
    cache = {}
    for name in PARTIALS:
        pd = t[name]
        for k in M_VECTORS:
            marks = grid_marks(pd, k)
            spec = SymUnionSpec(MarkedDiagram(pd, marks), (0,) * k)
            _, partial_pres, _ = build_symun_presentation(spec)
            for p in PRIMES:
                cfg = RepSearchConfig(p=p, nonabelian_only=False)
                reps = enumerate_sl2(partial_pres, cfg)
                # nonabelian classes first; abelian ones pad the small cells
                cache[name, k, p] = \
                    sorted(reps, key=lambda r: r.is_abelian)
    return cache


def test_criterion_5_factorization_theorem_grid():
    from knotforge.twisted import verify_theorem
    reps_cache = cached_partial_reps()
    runs = 0
    for name, pd, marks, ms in grid_cells():
        spec = SymUnionSpec(MarkedDiagram(pd, marks), tuple(2 * m for m in ms))
        for p in PRIMES:
            reps = reps_cache[name, len(ms), p]
            assert len(reps) >= 5, (name, ms, p, len(reps))
            for rho in reps[:5]:
                out = verify_theorem(spec, rho)
                assert out["equal"], (name, marks, ms, p, out)
                assert out["deg_lhs"] is not None
                assert out["deg_lhs"] == out["deg_rhs"], (name, ms, p, out)
                runs += 1
    report(5, "factorization and degree law hold in %d/%d runs "
              "(partials %s, k in {1,2,3}, p in %s)"
           % (runs, runs, "/".join(PARTIALS), list(PRIMES)))


def test_criterion_6_classical_square_grid():
    checked = 0
    for name, pd, marks, ms in grid_cells():
        spec = SymUnionSpec(MarkedDiagram(pd, marks), tuple(2 * m for m in ms))
        union = symmetric_union_pd(spec)
        dp = classical_alexander(pd)
        assert unit_equal(classical_alexander(union), dp * dp), (name, ms)
        assert knot_determinant(union) == knot_determinant(pd) ** 2
        checked += 1
    report(6, "Alexander square and determinant square hold for all %d "
              "constructed even unions" % checked)


# -- criterion 7: property-based suites ---------------------------------------

def rand_word(rng, ngen, maxlen=8):
    return reduce_word(tuple((rng.randrange(ngen), rng.choice((1, -1)))
                             for _ in range(rng.randrange(maxlen + 1))))


def test_criterion_7_property_suites():
    rng = random.Random(20260824)
    # (a) Fox fundamental identity on 1000 random word pairs
    for _ in range(1000):
        ngen = rng.randrange(1, 4)
        u, v = rand_word(rng, ngen), rand_word(rng, ngen)
        j = rng.randrange(ngen)
        assert fox_derivative(reduce_word(concat(u, v)), j) == \
            fox_derivative(u, j) + fox_derivative(v, j).left_mul_word(u)
    # (b) Wada column independence on every computed example
    t = table()
    examples = 0
    for name in ("3_1", "4_1", "6_1"):
        pres = deficiency_one(wirtinger(t[name]))
        for p in (5, 7):
            for rho in enumerate_sl2(pres, RepSearchConfig(p=p)):
                base = twisted_alexander(pres, rho)
                for j in range(1, pres.num_generators):
                    other = twisted_alexander(pres, rho, drop_column=j)
                    assert rational_unit_equal(base.value, other.value)
                examples += 1
    # (c) determinant vs cofactor-expansion oracle on 1000 small matrices
    def cofactor_det(M, n):
        if n == 0:
            return LaurentPoly.one(M.domain)
        if n == 1:
            return M[0, 0]
        acc = LaurentPoly.zero(M.domain)
        rows = list(range(1, n))
        for j in range(n):
            cols = [c for c in range(n) if c != j]
            minor = cofactor_det(M.submatrix(rows, cols), n - 1)
            term = M[0, j] * minor
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    domains = [ZZ, QQ, GF(5), GF(7)]
    for _ in range(1000):
        dom = rng.choice(domains)
        n = rng.randrange(0, 4)
        rows = [[LaurentPoly(dom, {e: rng.randrange(-3, 4)
                                   for e in range(rng.randrange(3))})
                 for _ in range(n)] for _ in range(n)]
        M = PolyMatrix(dom, rows)
        assert det(M) == cofactor_det(M, n)
    # (d) canonicalize unit-orbit invariance on 1000 random (f, unit) pairs
    for _ in range(1000):
        dom = rng.choice(domains)
        f = LaurentPoly(dom, {e: rng.randrange(-5, 6)
                              for e in range(rng.randrange(5))})
        shift = rng.randrange(-4, 5)
        sign = rng.choice((1, -1))
        if dom.kind == "GF":
            c = rng.randrange(1, dom.p)
        elif dom == QQ:
            c = Fraction(rng.randrange(1, 5), rng.randrange(1, 5)) * sign
        else:
            c = sign
        g = f.shift(shift).scale(c)
        assert canonicalize(g) == canonicalize(f)
        assert canonicalize(canonicalize(f)) == canonicalize(f)
    report(7, "Fox identity x1000, column independence x%d reps, "
              "det oracle x1000, canonicalize x1000: zero failures" % examples)


# -- criterion 8: geometric claims are assumed, not computed ------------------

def test_criterion_8_geometric_claims_documented():
    # run reports carry the disclaimer
    from knotforge.cli import run
    rep = run(["obstruct", "4_1", "--candidate", "3_1"])
    assert rep.results["assumed_not_computed"] == \
        "geometric classification of admissible partial knots"
    # and the project documentation states the exclusion
    readme = open(os.path.join(HERE, os.pardir, "README.md")).read()
    assert "assumed background and never computed" in readme
    assert "assumed_not_computed" in readme
    report(8, "geometric claims flagged as assumed in reports and README")
