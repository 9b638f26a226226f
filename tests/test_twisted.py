from fractions import Fraction
from itertools import combinations

import pytest

from knotforge.algebra import (GF, QQ, ZZ, LaurentPoly, PolyMatrix,
                               RationalFn, canonicalize, det, gcd_polys,
                               parse_poly, rational_unit_equal, unit_equal)
from knotforge.cli import KnotTable, bundled_table_path
from knotforge.diagram import (MarkedDiagram, PDCode, SymUnionSpec, parse_pd,
                               symmetric_union_pd)
from knotforge.presentation import (build_symun_presentation, deficiency_one,
                                    fox_derivative, lamm_pullback,
                                    two_bridge_presentation, wirtinger,
                                    word_exponent_sum)
from knotforge.reps import RepSearchConfig, enumerate_sl2
from knotforge.twisted import (PhiMap, _abelian_fox_matrix,
                               classical_alexander, even_symun_obstruction,
                               even_symun_quick_obstructions, fox_matrix,
                               genus_lower_bound, higher_alexander,
                               knot_determinant, trivial_rep,
                               twisted_alexander, verify_theorem)

TREFOIL = "X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]"
FIG8 = "X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] X[2,5,3,6]"
SIX_ONE = ("X[12,6,1,5] X[6,12,7,11] X[10,1,11,2] X[2,9,3,10] "
           "X[8,3,9,4] X[4,7,5,8]")


def P(text, domain=ZZ):
    return parse_poly(text, domain)


def oracle_diagrams():
    """The bundled knots and the k = 1 grid unions of 3_1 and 4_1."""
    table = KnotTable.parse(bundled_table_path().read_text())
    out = [(name, table[name]) for name in sorted(table.entries)]
    for name in ("3_1", "4_1"):
        pd = table[name]
        edges = sorted(pd.edges)
        marks = (edges[0], edges[len(edges) // 2])
        for m in (-2, -1, 0, 1, 2):
            spec = SymUnionSpec(MarkedDiagram(pd, marks), (2 * m,))
            out.append(("%s twists=%d" % (name, 2 * m),
                        symmetric_union_pd(spec)))
    return out


ORACLE_DIAGRAMS = oracle_diagrams()
over_oracle_diagrams = pytest.mark.parametrize(
    "pd", [pd for _, pd in ORACLE_DIAGRAMS],
    ids=[name for name, _ in ORACLE_DIAGRAMS])


class TestClassicalAlexander:
    def test_unknot(self):
        assert classical_alexander(PDCode([])) == P("1")

    def test_trefoil(self):
        assert classical_alexander(parse_pd(TREFOIL)) == P("t^2 - t + 1")

    def test_fig8(self):
        assert classical_alexander(parse_pd(FIG8)) == P("t^2 - 3*t + 1")

    def test_six_one(self):
        assert classical_alexander(parse_pd(SIX_ONE)) == P("2*t^2 - 5*t + 2")

    def test_determinants(self):
        assert knot_determinant(PDCode([])) == 1
        assert knot_determinant(parse_pd(TREFOIL)) == 3
        assert knot_determinant(parse_pd(FIG8)) == 5
        assert knot_determinant(parse_pd(SIX_ONE)) == 9

    @over_oracle_diagrams
    def test_matches_minor_gcd_oracle(self, pd):
        # the definition: GCD of all N maximal minors of the relator block
        pres = wirtinger(pd)
        N = pres.num_generators
        M = _abelian_fox_matrix(pres, ZZ)
        minors = [det(M.submatrix(list(range(N - 1)), list(cols)))
                  for cols in combinations(range(N), N - 1)]
        delta = classical_alexander(pd)
        assert delta == canonicalize(gcd_polys(minors))
        assert knot_determinant(pd) == abs(delta.evaluate(-1))

    @over_oracle_diagrams
    def test_fox_rows_sum_to_zero(self, pd):
        # the fundamental formula for exponent-sum-0 relators; it makes all
        # maximal minors agree up to sign, so one of them is Delta
        M = _abelian_fox_matrix(wirtinger(pd), ZZ)
        zero = LaurentPoly.zero(ZZ)
        for row in M.entries:
            total = zero
            for f in row:
                total = total + f
            assert total == zero


class TestHigherAlexander:
    def minor_gcd_oracle(self, pd, k):
        # direct definition: GCD of all (N-k)-minors over Q[t, t^-1]
        pres = wirtinger(pd)
        N = pres.num_generators
        size = N - k
        if size <= 0:
            return LaurentPoly.one(QQ)
        M = _abelian_fox_matrix(pres, QQ)
        minors = [det(M.submatrix(list(rows), list(cols)))
                  for rows in combinations(range(N), size)
                  for cols in combinations(range(N), size)]
        return canonicalize(gcd_polys(minors))

    @pytest.mark.parametrize("text", [TREFOIL, FIG8, SIX_ONE])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_smith_matches_minor_gcd(self, text, k):
        pd = parse_pd(text)
        assert higher_alexander(pd, k) == self.minor_gcd_oracle(pd, k)

    def test_first_is_classical(self):
        # compare through the common canonical QQ form
        for text in (TREFOIL, FIG8):
            pd = parse_pd(text)
            zz = classical_alexander(pd)
            qq = LaurentPoly(QQ, {e: Fraction(c)
                                  for e, c in zz.coeffs.items()})
            assert unit_equal(higher_alexander(pd, 1), qq)

    def test_stabilizes_to_one(self):
        pd = parse_pd(TREFOIL)
        assert higher_alexander(pd, 2) == LaurentPoly.one(QQ)
        assert higher_alexander(pd, 7) == LaurentPoly.one(QQ)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            higher_alexander(parse_pd(TREFOIL), 0)


def reference_fox_matrix(pres, rho, drop=None):
    """Fox matrix from the definition: the (i, j) block is
    sum c * rho(w) * t^(exponent sum of w) over the terms c*w of
    fox_derivative(r_i, x_j)."""
    dom = GF(rho.p) if rho.p is not None else QQ
    d = rho.d
    rows = []
    for r in pres.relators:
        blocks = []
        for j in range(pres.num_generators):
            if j == drop:
                continue
            blk = [[LaurentPoly.zero(dom)] * d for _ in range(d)]
            for w, c in fox_derivative(r, j).terms.items():
                M, e = rho(w), word_exponent_sum(w)
                for a in range(d):
                    for b in range(d):
                        blk[a][b] = blk[a][b] + LaurentPoly(dom,
                                                            {e: c * M[a][b]})
            blocks.append(blk)
        for a in range(d):
            rows.append([blk[a][b] for blk in blocks for b in range(d)])
    return PolyMatrix(dom, rows)


def fox_oracle_cases():
    """(name, presentation, representation) triples for the Fox oracle."""
    table = KnotTable.parse(bundled_table_path().read_text())
    cases = []
    # the bundled knots over F_5 (10_99 has no cheap enumeration there),
    # the small ones over F_7 too
    for name in sorted(table.entries):
        primes = (5, 7) if name in ("3_1", "4_1", "6_1") else (5,)
        if name == "10_99":
            continue
        pres = deficiency_one(wirtinger(table[name]))
        for p in primes:
            for i, rho in enumerate(enumerate_sl2(pres,
                                                  RepSearchConfig(p=p))[:2]):
                cases.append(("%s F_%d rep %d" % (name, p, i), pres, rho))
    pd = table["3_1"]
    edges = sorted(pd.edges)
    spec = SymUnionSpec(MarkedDiagram(pd, (edges[0], edges[len(edges) // 2])),
                        (-4,))
    union, partial, phi = build_symun_presentation(spec)
    rho = enumerate_sl2(partial, RepSearchConfig(p=7))[0]
    cases.append(("3_1 union twists=-4 F_7", union, lamm_pullback(phi, rho)))
    bridge = two_bridge_presentation(7, 3)
    for i, rho in enumerate(enumerate_sl2(bridge, RepSearchConfig(p=7))[:2]):
        cases.append(("b(7,3) F_7 rep %d" % i, bridge, rho))
    pres = deficiency_one(wirtinger(table["4_1"]))
    cases.append(("4_1 trivial Q", pres, trivial_rep(pres)))
    return cases


FOX_CASES = fox_oracle_cases()


class TestFoxMatrix:
    @pytest.mark.parametrize("pres, rho", [c[1:] for c in FOX_CASES],
                             ids=[c[0] for c in FOX_CASES])
    @pytest.mark.parametrize("drop", [None, 0, 1])
    def test_one_pass_matches_definition(self, pres, rho, drop):
        A = fox_matrix(pres, PhiMap(pres, rho), drop=drop)
        ref = reference_fox_matrix(pres, rho, drop=drop)
        assert A.domain == ref.domain
        assert A.entries == ref.entries

    def test_cases_cover_the_presentations(self):
        # a relator that is not a 4-letter Wirtinger word, a d = 1 case over
        # Q and representations over both primes
        assert any(len(r) > 4 for _, pres, _ in FOX_CASES
                   for r in pres.relators)
        assert any(rho.p is None and rho.d == 1 for _, _, rho in FOX_CASES)
        assert {rho.p for _, _, rho in FOX_CASES} == {None, 5, 7}


class TestWadaInvariant:
    def test_trivial_rep_gives_alexander_over_t_minus_one(self):
        for text in (TREFOIL, FIG8, SIX_ONE):
            pd = parse_pd(text)
            pres = deficiency_one(wirtinger(pd))
            tw = twisted_alexander(pres, trivial_rep(pres))
            zz = classical_alexander(pd)
            qq = LaurentPoly(QQ, {e: Fraction(c)
                                  for e, c in zz.coeffs.items()})
            target = RationalFn(qq, P("t - 1", QQ))
            assert rational_unit_equal(tw.value, target)
            assert tw.d == 1
            assert tw.degree == qq.span - 1

    def test_column_independence_every_example(self):
        # the Wada invariant does not depend on which generator column is
        # dropped; checked for the d=1 trivial rep and every nonabelian
        # SL(2, F_p) rep of each example knot
        for text in (TREFOIL, FIG8):
            pd = parse_pd(text)
            pres = deficiency_one(wirtinger(pd))
            rhos = [trivial_rep(pres)]
            for p in (5, 7):
                rhos.extend(enumerate_sl2(pres, RepSearchConfig(p=p)))
            for rho in rhos:
                base = twisted_alexander(pres, rho)
                for j in range(1, pres.num_generators):
                    other = twisted_alexander(pres, rho, drop_column=j)
                    assert rational_unit_equal(base.value, other.value)
                    assert base.degree == other.degree

    def test_deficiency_requirement(self):
        pres = wirtinger(parse_pd(TREFOIL))  # deficiency 0
        with pytest.raises(ValueError):
            twisted_alexander(pres, trivial_rep(pres))

    def test_invalid_rep_rejected(self):
        pd3 = parse_pd(TREFOIL)
        pd4 = parse_pd(FIG8)
        pres3 = deficiency_one(wirtinger(pd3))
        pres4 = deficiency_one(wirtinger(pd4))
        rho = enumerate_sl2(pres4, RepSearchConfig(p=5))[0]
        bad = type(rho)(presentation=pres3, p=5, d=2,
                        matrices=rho.matrices[:3])
        with pytest.raises(ValueError):
            twisted_alexander(pres3, bad)

    def test_genus_lower_bound(self):
        pres = deficiency_one(wirtinger(parse_pd(TREFOIL)))
        tw = twisted_alexander(pres, trivial_rep(pres))
        assert genus_lower_bound(tw) == Fraction(1)
        pres8 = deficiency_one(wirtinger(parse_pd(FIG8)))
        tw8 = twisted_alexander(pres8, trivial_rep(pres8))
        assert genus_lower_bound(tw8) == Fraction(1)


class TestVerifyTheorem:
    def test_smoke_grid_cell(self):
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,))
        from knotforge.presentation import build_symun_presentation
        _, partial, _ = build_symun_presentation(spec)
        reps = enumerate_sl2(partial, RepSearchConfig(p=5))
        assert len(reps) >= 5
        for rho in reps[:5]:
            out = verify_theorem(spec, rho)
            assert out["equal"]
            assert out["deg_lhs"] == out["deg_rhs"]
            assert out["d"] == 2

    def test_odd_twists_rejected(self):
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (1,))
        with pytest.raises(ValueError):
            verify_theorem(spec, None)


class TestObstructions:
    def test_quick_checks_pass_for_genuine_union(self):
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,))
        K = symmetric_union_pd(spec)
        checks = even_symun_quick_obstructions(K, pd)
        assert checks["all_pass"]

    def test_quick_checks_fail_for_wrong_candidate(self):
        checks = even_symun_quick_obstructions(parse_pd(FIG8),
                                               parse_pd(TREFOIL))
        assert not checks["a_alexander_square"]
        assert not checks["b_degree_mod_4"]
        assert not checks["c_determinant_square"]
        assert not checks["all_pass"]

    def test_genus_witness(self):
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,))
        K = symmetric_union_pd(spec)
        with_genus = even_symun_quick_obstructions(K, pd, genus=2)
        assert with_genus["d_genus_even"]
        odd_genus = even_symun_quick_obstructions(K, pd, genus=3)
        assert not odd_genus["d_genus_even"]

    def test_positive_control_finds_pullback(self):
        # a genuine even symmetric union cannot be obstructed: the pullback
        # representation's polynomial matches the target
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,))
        K = symmetric_union_pd(spec)
        rho = enumerate_sl2(wirtinger(pd), RepSearchConfig(p=5))[0]
        out = even_symun_obstruction(K, pd, 5, rho)
        assert out["verdict"] == "inconclusive"
        assert out["evidence"]

    def test_negative_control_obstructs(self):
        pd = parse_pd(TREFOIL)
        rho = enumerate_sl2(wirtinger(pd), RepSearchConfig(p=5))[0]
        out = even_symun_obstruction(parse_pd(FIG8), pd, 5, rho)
        assert out["verdict"] == "obstructed"
        assert out["evidence"] == []
        assert out["num_reps"] > 0
