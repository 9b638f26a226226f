import copy
import gc
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

import knotforge.reps
from knotforge import algebra, diagram, presentation, twisted
from knotforge._fastdet import Pencil, pencil_det
from knotforge.algebra import (GF, QQ, ZZ, LaurentPoly, RationalFn,
                               canonicalize, det, gcd_polys, reduce_fraction,
                               unit_equal)
from knotforge.cli import KnotTable
from knotforge.diagram import (MarkedDiagram, PDCode, SymUnionSpec, parse_pd,
                               symmetric_union_pd)
from knotforge.presentation import (GroupPresentation,
                                    build_symun_presentation, deficiency_one,
                                    eliminate_generators, lamm_pullback,
                                    wirtinger, word_exponent_sum)
from knotforge.reps import (RepSearchConfig, Representation, enumerate_sl2,
                            mat_inv, verify_representation)
from knotforge.twisted import (classical_alexander, even_symun_obstruction,
                               even_symun_quick_obstructions, fox_matrix,
                               higher_alexander,
                               knot_determinant, trivial_rep,
                               twisted_alexander, verify_theorem)

from support import (BUNDLED, PolyMatrix, bareiss_determinant,
                     bundled_classes, bundled_table_path, fox_derivative,
                     genus_lower_bound, grid_cells, interpolated_alexander,
                     load_workloads, parse_poly, rational_unit_equal,
                     reference_smith_invariants, seed7_grid_specs,
                     smallest_column, sparse_rows, split_pencil,
                     two_bridge_presentation, wada_column)

TREFOIL = "X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]"
FIG8 = "X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] X[2,5,3,6]"
SIX_ONE = ("X[12,6,1,5] X[6,12,7,11] X[10,1,11,2] X[2,9,3,10] "
           "X[8,3,9,4] X[4,7,5,8]")
# trefoil diagrams with a kink whose first crossing's over-arc is its
# incoming under-arc: in the first its relator keeps four letters, in the
# second (the other crossing sign) it reduces to an identification x_a x_b^-1
KINKED_TREFOIL = "X[7,6,8,7] X[8,3,1,4] X[2,5,3,6] X[4,1,5,2]"
KINK_IDENTIFYING_TREFOIL = "X[6,7,7,8] X[8,3,1,4] X[2,5,3,6] X[4,1,5,2]"


def P(text, domain=ZZ):
    return parse_poly(text, domain)


def oracle_diagrams():
    """The bundled knots, a trefoil diagram with a kink whose first
    crossing's over-arc is its incoming under-arc (one of its Fox
    coefficients cancels to 0), and the k = 1 grid unions of 3_1 and 4_1."""
    table = KnotTable.parse(bundled_table_path().read_text())
    out = [(name, table[name]) for name in sorted(table.entries)]
    out.append(("3_1 with a kink", parse_pd(KINKED_TREFOIL)))
    for name in ("3_1", "4_1"):
        pd = table[name]
        edges = sorted(pd.edges)
        marks = (edges[0], edges[len(edges) // 2])
        for m in (-2, -1, 0, 1, 2):
            spec = SymUnionSpec(MarkedDiagram(pd, marks), (2 * m,))
            out.append(("%s twists=%d" % (name, 2 * m),
                        symmetric_union_pd(spec)))
    return out


def reference_fox_matrix(pres, rho, drop=None):
    """Fox matrix from the definition: the (i, j) block is
    sum c * rho(w) * t^(exponent sum of w) over the terms c*w of
    fox_derivative(r_i, x_j)."""
    dom = GF(rho.p)
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


def reference_abelian_fox_matrix(pd, domain):
    """The abelianized Fox matrix of the Wirtinger presentation, all
    columns, over domain, from the definition: the (i, j) entry is
    sum c * t^(exponent sum of w) over the terms c*w of
    fox_derivative(r_i, x_j)."""
    pres = wirtinger(pd)
    rows = []
    for r in pres.relators:
        row = []
        for j in range(pres.num_generators):
            coeffs = {}
            for w, c in fox_derivative(r, j).terms.items():
                e = word_exponent_sum(w)
                coeffs[e] = coeffs.get(e, 0) + c
            row.append(LaurentPoly(domain, coeffs))
        rows.append(row)
    return PolyMatrix(domain, rows)


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
        N = wirtinger(pd).num_generators
        M = reference_abelian_fox_matrix(pd, ZZ)
        minors = [det(M.submatrix(list(range(N - 1)), list(cols)))
                  for cols in combinations(range(N), N - 1)]
        delta = classical_alexander(pd)
        assert delta == canonicalize(gcd_polys(minors))
        assert knot_determinant(pd) == abs(delta.evaluate(-1))

    @pytest.mark.parametrize("pd", [pd for name, pd in ORACLE_DIAGRAMS
                                    if "twists" not in name] + [PDCode([])],
                             ids=[name for name, _ in ORACLE_DIAGRAMS
                                  if "twists" not in name] + ["unknot"])
    def test_matches_interpolation_oracle(self, pd):
        # the bundled knots, the kinked trefoil and the unknot; det K against
        # the integer Bareiss determinant of the pencil at t = -1
        assert classical_alexander(pd) == interpolated_alexander(pd)
        assert knot_determinant(pd) == bareiss_determinant(pd)

    def test_grid_unions_match_interpolation_oracle(self):
        cells = list(grid_cells())
        assert len(cells) == 36
        for name, pd, marks, ms in cells:
            union = symmetric_union_pd(SymUnionSpec(MarkedDiagram(pd, marks),
                                                    tuple(2 * m for m in ms)))
            assert classical_alexander(union) == \
                interpolated_alexander(union), (name, ms)
            assert knot_determinant(union) == \
                bareiss_determinant(union), (name, ms)

    def test_delta_and_det_share_one_determinant(self, monkeypatch):
        calls = {"wirtinger": 0, "_int_pencil_det": 0}

        def counted(name):
            original = getattr(twisted, name)

            def call(*args):
                calls[name] += 1
                return original(*args)
            return call
        for name in calls:
            monkeypatch.setattr(twisted, name, counted(name))
        pd = parse_pd(SIX_ONE)
        assert classical_alexander(pd) == P("2*t^2 - 5*t + 2")
        assert knot_determinant(pd) == 9
        assert calls == {"wirtinger": 1, "_int_pencil_det": 1}
        # a second call on the same diagram does no work; an equal diagram
        # built afresh starts cold
        assert classical_alexander(pd) == P("2*t^2 - 5*t + 2")
        assert knot_determinant(pd) == 9
        assert calls == {"wirtinger": 1, "_int_pencil_det": 1}
        twin = parse_pd(SIX_ONE)
        assert twin == pd and knot_determinant(twin) == 9
        assert calls == {"wirtinger": 2, "_int_pencil_det": 2}

    def test_delta_at_one_is_checked(self, monkeypatch):
        # 1 + 2t has Delta(1) = 3; neither entry point may return a value,
        # on the first call or on a second one on the same diagram
        monkeypatch.setattr(twisted, "_int_pencil_det", lambda A0, A1: [1, 2])
        pd = parse_pd(TREFOIL)
        for entry in (classical_alexander, knot_determinant) * 2:
            with pytest.raises(AssertionError, match="Delta\\(1\\)"):
                entry(pd)
        # the failed determinant is not kept; the presentation is
        assert set(pd._cache) == {"wirtinger"}

    @over_oracle_diagrams
    def test_fox_rows_sum_to_zero(self, pd):
        # the fundamental formula for exponent-sum-0 relators; it makes all
        # maximal minors agree up to sign, so one of them is Delta
        M = reference_abelian_fox_matrix(pd, ZZ)
        zero = LaurentPoly.zero(ZZ)
        for row in M.entries:
            total = zero
            for f in row:
                total = total + f
            assert total == zero


class TestHigherAlexander:
    def minor_gcd_oracle(self, pd, k):
        # direct definition: GCD of all (N-k)-minors over Q[t, t^-1]
        N = wirtinger(pd).num_generators
        size = N - k
        if size <= 0:
            return LaurentPoly.one(QQ)
        M = reference_abelian_fox_matrix(pd, QQ)
        minors = [det(M.submatrix(list(rows), list(cols)))
                  for rows in combinations(range(N), size)
                  for cols in combinations(range(N), size)]
        return canonicalize(gcd_polys(minors))

    @pytest.mark.parametrize("text", [TREFOIL, FIG8, SIX_ONE, KINKED_TREFOIL,
                                      KINK_IDENTIFYING_TREFOIL])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_smith_matches_minor_gcd(self, text, k):
        # the Smith form is taken of the square Alexander pencil, the
        # oracle's minors of the whole N x N abelianized Fox matrix
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


class TestSmithForm:
    def test_alexander_pencils_match_the_reference(self):
        # the Alexander pencils over Q of the 11 bundled knots and the 36
        # seed-7 grid unions: invariant factors are unique up to units and
        # returned canonical, so the pivot order cannot change the list
        pds = [BUNDLED[name] for name in sorted(BUNDLED.entries)]
        pds += [symmetric_union_pd(spec) for spec in seed7_grid_specs()]
        assert len(pds) == 47
        for pd in pds:
            pencil = Pencil(QQ, *twisted._alexander_pencil(wirtinger(pd)))
            assert (twisted._smith_invariants(pencil)
                    == reference_smith_invariants(pencil)), pd

    @pytest.mark.parametrize("A0, A1, want", [
        # t - 1 does not divide t - 2: the divisibility step adds a row
        ([[-1, 0], [0, -2]], [[1, 0], [0, 1]], ["1", "t^2 - 3*t + 2"]),
        # the least-span entry t has lowest exponent 1
        ([[0, 1], [1, 0]], [[1, 0], [0, 1]], ["1", "t^2 - 1"]),
        # t*I plus 2 above the diagonal: its determinant t^2 is a unit
        ([[0, 2], [0, 0]], [[1, 0], [0, 1]], ["1", "1"]),
        # 3 x 2 and 2 x 3: the 2-minors have GCD t - 1
        ([[-1, 0], [0, -1], [1, 1]], [[1, 0], [0, 1], [0, 0]],
         ["1", "t - 1"]),
        ([[-1, 0, 1], [0, -1, 1]], [[1, 0, 0], [0, 1, 0]], ["1", "t - 1"]),
        ([[0, 0], [0, 0]], [[0, 0], [0, 0]], []),
    ], ids=["diagonal", "t-corner", "t-corner-unit-det", "3x2", "2x3",
            "zero"])
    def test_hand_built_pencils(self, A0, A1, want):
        pencil = Pencil(QQ, A0, A1)
        got = twisted._smith_invariants(pencil)
        assert got == [canonicalize(P(text, QQ)) for text in want]
        assert got == reference_smith_invariants(pencil)

    def test_unit_pivot_skips_the_divisibility_scan(self, monkeypatch):
        # every pivot of I_3 is 1, which divides every entry of the rest,
        # and every entry beside a pivot is already 0: no division is made
        calls = []
        divmod_poly = twisted.divmod_poly
        monkeypatch.setattr(twisted, "divmod_poly", lambda f, g: (
            calls.append((f, g)), divmod_poly(f, g))[1])
        identity = [[int(i == j) for j in range(3)] for i in range(3)]
        zero = [[0] * 3 for _ in range(3)]
        got = twisted._smith_invariants(Pencil(QQ, identity, zero))
        assert got == [canonicalize(P("1", QQ))] * 3
        assert calls == []


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
    cases.append(("4_1 trivial F_11", pres, trivial_rep(pres, 11)))
    # GL(1, F_7): every meridian to the unit 3
    cases.append(("4_1 GL(1) F_7", pres, Representation(
        p=7, d=1, matrices=(((3,),),) * pres.num_generators)))
    # d = 3: the symmetric square of a nonabelian SL(2, F_7) representation
    pres = deficiency_one(wirtinger(table["3_1"]))
    rho = enumerate_sl2(pres, RepSearchConfig(p=7))[0]
    cases.append(("3_1 Sym^2 F_7 d=3", pres, Representation(
        p=7, d=3, matrices=tuple(symmetric_square(M) for M in rho.matrices))))
    # a kink: a crossing relator x_a x_a x_b^-1 x_a^-1
    pres = deficiency_one(wirtinger(parse_pd(KINKED_TREFOIL)))
    for i, rho in enumerate(enumerate_sl2(pres, RepSearchConfig(p=5))[:2]):
        cases.append(("3_1 with a kink F_5 rep %d" % i, pres, rho))
    return cases


def symmetric_square(M):
    """The 3 x 3 matrix of a 2 x 2 matrix acting on the quadratic forms in
    its two basis vectors (basis e1^2, e1 e2, e2^2); M -> Sym^2 M is a
    homomorphism."""
    (a, b), (c, d) = M
    return ((a * a, a * b, b * b),
            (2 * a * c, a * d + b * c, 2 * b * d),
            (c * c, c * d, d * d))


FOX_CASES = fox_oracle_cases()


def pencil_rows(pencil):
    """Rows of A0 + t*A1 as Laurent polynomials (the shift left out)."""
    dom = pencil.domain
    return [[LaurentPoly(dom, {0: a, 1: b}) for a, b in zip(r0, r1)]
            for r0, r1 in zip(pencil.A0, pencil.A1)]


def delinearized_rows(pencil, nrows, ncols):
    """The first nrows rows of A0 + t*A1 over the first ncols columns, once
    the auxiliary columns ncols + k are eliminated, in column order, by the
    auxiliary rows nrows + k, whose pivot there must be 1 (the shift left
    out)."""
    rows = pencil_rows(pencil)
    one = LaurentPoly.one(pencil.domain)
    assert all(len(row) - ncols == len(rows) - nrows for row in rows)
    for k in range(len(rows) - nrows):
        aux, c = rows[nrows + k], ncols + k
        assert aux[c] == one
        for row in rows[:nrows]:
            f = row[c]
            if not f.is_zero:
                row[:] = [a - f * b for a, b in zip(row, aux)]
    assert all(f.is_zero for row in rows[:nrows] for f in row[ncols:])
    return [row[:ncols] for row in rows[:nrows]]


def matches_definition(A, ref):
    """Assert that the pencil A is the reference Fox matrix ref: row i of
    the definition is t^lo_i times row i of A0 + t*A1, its auxiliary
    columns eliminated; a square one has the same determinant."""
    assert isinstance(A, Pencil)
    assert A.domain == ref.domain
    los = [min((f.min_deg for f in row if not f.is_zero), default=0)
           for row in ref.entries]
    assert delinearized_rows(A, ref.rows, ref.cols) == \
        [[f.shift(-lo) for f in row] for lo, row in zip(los, ref.entries)]
    assert A.shift == sum(los)
    if ref.rows == ref.cols:
        assert pencil_det(A) == det(ref)


class TestFoxMatrix:
    @pytest.mark.parametrize("pres, rho", [c[1:] for c in FOX_CASES],
                             ids=[c[0] for c in FOX_CASES])
    @pytest.mark.parametrize("drop", [None, 0, 1])
    def test_one_pass_matches_definition(self, pres, rho, drop):
        matches_definition(fox_matrix(pres, rho, drop=drop),
                           reference_fox_matrix(pres, rho, drop=drop))

    def test_cases_cover_the_presentations(self):
        # a relator that is not a 4-letter Wirtinger word, an identification
        # (the union's), the trivial d = 1 case, d = 1, 2 and 3 over F_p,
        # and representations over three primes, all valid
        assert any(len(r) > 4 for _, pres, _ in FOX_CASES
                   for r in pres.relators)
        assert any(len(r) == 2 for _, pres, _ in FOX_CASES
                   for r in pres.relators)
        assert any(set(rho.matrices) == {((1,),)} for _, _, rho in FOX_CASES)
        assert {rho.d for _, _, rho in FOX_CASES} == {1, 2, 3}
        assert {rho.p for _, _, rho in FOX_CASES} == {5, 7, 11}
        for name, pres, rho in FOX_CASES:
            assert verify_representation(pres, rho), name

    def test_always_a_pencil(self):
        # over every F_p; b(7,3)'s one-relator presentation, whose row
        # is not linear in t, gains auxiliary rows and columns, and the
        # Wirtinger-type ones do not
        for name, pres, rho in FOX_CASES:
            linear = not name.startswith("b(7,3)")
            for drop in (None, 0):
                A = fox_matrix(pres, rho, drop=drop)
                assert isinstance(A, Pencil), name
                assert A.domain == GF(rho.p)
                width = (pres.num_generators - (drop is not None)) * rho.d
                assert {len(r) for r in A.A0} == {width + A.rows
                                                  - len(pres.relators) * rho.d}
                assert (A.rows == len(pres.relators) * rho.d) == linear, name


def bounded_walk_word(rng, ngen, length):
    """A word whose Fox coefficients all sit at t^0 and t^1: x_g adds its
    coefficient at the exponent sum before it and x_g^-1 at the sum after
    it, and the running exponent sum stays in {0, 1, 2}, ending at 0."""
    letters, e = [], 0
    while len(letters) < length or e:
        s = 1 if e == 0 else -1 if e == 2 else rng.choice((1, -1))
        letters.append((rng.randrange(ngen), s))
        e += s
    return letters


def random_invertible(rng, d, p):
    while True:
        M = tuple(tuple(rng.randrange(p) for _ in range(d))
                  for _ in range(d))
        try:
            mat_inv(M, p)
        except ZeroDivisionError:
            continue
        return M


def vanishing_case(p, d):
    """Relators a b c^-1 c^-1 a c^-1 and a b^-1 with column c dropped, under
    a -> I, b -> -I, c -> I: column a's coefficient at t^0 in the first
    relator is I + rho(a b c^-2) = I + (p - 1)I, which vanishes mod p, so
    every row of that relator is t times a constant row (b's column at
    t^1)."""
    pres = GroupPresentation(("a", "b", "c"), (
        ((0, 1), (1, 1), (2, -1), (2, -1), (0, 1), (2, -1)),
        ((0, 1), (1, -1))))
    one = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    minus = tuple(tuple((p - 1) * x for x in row) for row in one)
    rho = Representation(p=p, d=d, matrices=(one, minus, one))
    return ("vanishing F_%d d=%d" % (p, d), pres, rho, 2)


def integer_pencil_cases():
    """(name, presentation, representation, drop) over F_p, p in
    {2, 3, 5, 7}: a presentation with coefficients that vanish mod p at the
    lowest exponent of a row (vanishing_case); random presentations of
    bounded-walk relators under random invertible matrices (d = 1, 2, 3);
    and the deficiency-one Wirtinger presentations of 3_1 and 4_1 under
    enumerated representations, abelian ones included."""
    table = KnotTable.parse(bundled_table_path().read_text())
    rng = random.Random(20261018)
    cases = []
    for p in (2, 3, 5, 7):
        cases += [vanishing_case(p, d) for d in (1, 2)]
        for i in range(12):
            n = rng.randrange(2, 5)
            d = rng.choice((1, 2, 3))
            pres = GroupPresentation(
                tuple("a%d" % g for g in range(n)),
                tuple(bounded_walk_word(rng, n, rng.randrange(4, 11))
                      for _ in range(n - 1)))
            rho = Representation(p=p, d=d, matrices=tuple(
                random_invertible(rng, d, p) for _ in range(n)))
            cases.append(("random F_%d d=%d #%d" % (p, d, i), pres, rho,
                          rng.randrange(n)))
        for name in ("3_1", "4_1"):
            pres = deficiency_one(wirtinger(table[name]))
            cfg = RepSearchConfig(p=p, nonabelian_only=False)
            for i, rho in enumerate(enumerate_sl2(pres, cfg)[:3]):
                cases.append(("%s F_%d rep %d" % (name, p, i), pres, rho, 0))
    return cases


INTEGER_PENCIL_CASES = integer_pencil_cases()


def integer_fox_sums(pres, rho, drop):
    """{(row, column, exponent): coefficient} of the Fox matrix from the
    definition, with each rho(w) read mod p but the sums over the terms
    c*w of fox_derivative left as integers."""
    d = rho.d
    cols = [j for j in range(pres.num_generators) if j != drop]
    sums = {}
    for r_i, r in enumerate(pres.relators):
        for k, j in enumerate(cols):
            for w, c in fox_derivative(r, j).terms.items():
                M, e = rho(w), word_exponent_sum(w)
                for a in range(d):
                    for b in range(d):
                        key = (r_i * d + a, k * d + b, e)
                        sums[key] = sums.get(key, 0) + c * M[a][b]
    return sums


class TestIntegerFoxPencil:
    @pytest.mark.parametrize("pres, rho, drop",
                             [c[1:] for c in INTEGER_PENCIL_CASES],
                             ids=[c[0] for c in INTEGER_PENCIL_CASES])
    def test_matches_reference_mod_p(self, pres, rho, drop):
        A = fox_matrix(pres, rho, drop=drop)
        ref = reference_fox_matrix(pres, rho, drop=drop)
        want = split_pencil(sparse_rows(ref), ref.cols, ref.domain)
        assert isinstance(A, Pencil)
        assert A.domain == want.domain
        assert (A.A0, A.A1, A.shift) == (want.A0, want.A1, want.shift)
        assert pencil_det(A) == det(ref)

    def test_cases_have_coefficients_vanishing_mod_p(self):
        # for every p, a row whose lowest exponent as an integer sum differs
        # from its lowest exponent mod p: counting a vanishing coefficient as
        # an exponent would shift that row wrongly
        shifted = set()
        for _, pres, rho, drop in INTEGER_PENCIL_CASES:
            p = rho.p
            lowest = {}
            for (row, _, e), v in integer_fox_sums(pres, rho, drop).items():
                if v:
                    lo_int, lo_p = lowest.get(row, (None, None))
                    lo_int = e if lo_int is None else min(lo_int, e)
                    if v % p:
                        lo_p = e if lo_p is None else min(lo_p, e)
                    lowest[row] = (lo_int, lo_p)
            if any(lo_p is not None and lo_int != lo_p
                   for lo_int, lo_p in lowest.values()):
                shifted.add(p)
        assert shifted == {2, 3, 5, 7}


def wide_walk_word(rng, ngen, length, top):
    """A word whose running exponent sum climbs straight to top, then walks
    within [0, top + 1] back to 0 after at least length letters, with no
    letter next to its inverse: its Fox coefficients span at least top
    powers of t, so top >= 3 gives rows that are not linear in t."""
    letters, e = [(rng.randrange(ngen), 1) for _ in range(top)], top
    while len(letters) < length or e:
        s = 1 if e == 0 else -1 if e == top + 1 else rng.choice((1, -1))
        g, last = rng.randrange(ngen), letters[-1]
        if (g, s) == (last[0], -last[1]):
            g = (g + 1) % ngen
        letters.append((g, s))
        e += s
    return letters


def live_range_case(p, d):
    """Relators a c^-1 a a a b c^-4 and b b b a c^-1 a c^-4 with column c
    dropped, under a -> I, b -> I, c -> -I over F_p.  The first relator's coefficients of t^0..t^3 are
    I + rho(a c^-1) = I - I at a, then -I at a, -I at a and -I at b; the
    second's are I at b, I at b, I at b and I + rho(b b b a c^-1) = I - I at
    a.  Over F_p these vanishing sums are p*I as integers: only t^1..t^3 and
    t^0..t^2 hold nonzero slots, so each row takes one auxiliary row, not
    two."""
    pres = GroupPresentation(("a", "b", "c"), (
        ((0, 1), (2, -1), (0, 1), (0, 1), (0, 1), (1, 1)) + ((2, -1),) * 4,
        ((1, 1),) * 3 + ((0, 1), (2, -1), (0, 1)) + ((2, -1),) * 4))
    one = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    minus = tuple(tuple((p - 1) * x for x in row) for row in one)
    rho = Representation(p=p, d=d, matrices=(one, one, minus))
    return ("live range F_%d d=%d" % (p, d), pres, rho, 2)


def linearized_cases():
    """(name, presentation, representation, drop): presentations of random
    relators whose running exponent sum spans 3 to 5 (wide_walk_word), under
    random invertible matrices over F_p, p in {2, 3, 5, 7}, with d = 1, 2;
    and live_range_case for each."""
    rng = random.Random(20261019)
    cases = []
    for p in (2, 3, 5, 7):
        for d in (1, 2):
            cases.append(live_range_case(p, d))
            for i in range(4):
                n = rng.randrange(2, 5)
                pres = GroupPresentation(
                    tuple("a%d" % g for g in range(n)),
                    tuple(wide_walk_word(rng, n, rng.randrange(6, 13),
                                         rng.randrange(3, 6))
                          for _ in range(n - 1)))
                mats = tuple(random_invertible(rng, d, p)
                             for _ in range(n))
                rho = Representation(p=p, d=d, matrices=mats)
                cases.append(("random F_%d d=%d #%d" % (p, d, i),
                              pres, rho, rng.randrange(n)))
    return cases


LINEARIZED_CASES = linearized_cases()


class TestLinearizedFoxPencil:
    @pytest.mark.parametrize("pres, rho, drop",
                             [c[1:] for c in LINEARIZED_CASES],
                             ids=[c[0] for c in LINEARIZED_CASES])
    def test_matches_definition(self, pres, rho, drop):
        # square, so the determinants are compared too
        ref = reference_fox_matrix(pres, rho, drop=drop)
        assert ref.rows == ref.cols
        matches_definition(fox_matrix(pres, rho, drop=drop), ref)

    def test_cases_are_not_linear(self):
        # every case gains auxiliary rows; p in {2, 3, 5, 7} with d = 1, 2
        # are covered
        covered = set()
        for name, pres, rho, drop in LINEARIZED_CASES:
            A = fox_matrix(pres, rho, drop=drop)
            assert A.rows > len(pres.relators) * rho.d, name
            covered.add((rho.p, rho.d))
        assert covered == {(p, d) for p in (2, 3, 5, 7) for d in (1, 2)}

    def test_vanishing_slots_do_not_count(self):
        # both relators' integer sums span t^0..t^3, but the first one's
        # t^0 sum and the second one's t^3 sum vanish: one auxiliary row per
        # matrix row
        for name, pres, rho, drop in LINEARIZED_CASES:
            if not name.startswith("live range"):
                continue
            d = rho.d
            A = fox_matrix(pres, rho, drop=drop)
            assert A.rows == 4 * d, name
            ref = reference_fox_matrix(pres, rho, drop=drop)
            live = [(min(f.min_deg for f in row if not f.is_zero),
                     max(f.max_deg for f in row if not f.is_zero))
                    for row in ref.entries]
            assert live == [(1, 3)] * d + [(0, 2)] * d, name
            sums = integer_fox_sums(pres, rho, drop)
            assert all(sums[(i, i, 0)] == sums[(d + i, i, 3)] == rho.p
                       for i in range(d))


def denominator_oracle(rho, j):
    """det(rho(x_j)t - I) by Bareiss over the representation's field."""
    dom = GF(rho.p)
    M = rho.matrices[j]
    return det(PolyMatrix(dom, [
        [LaurentPoly(dom, {1: M[a][b], 0: -int(a == b)})
         for b in range(rho.d)] for a in range(rho.d)]))


def unreduced_wada(pres, rho, j=0):
    """The Wada invariant on pres itself, with no generator eliminated."""
    return reduce_fraction(pencil_det(fox_matrix(pres, rho, j)),
                           denominator_oracle(rho, j))


def tietze_oracle_cases():
    """(name, presentation, representation): for the unions of 3_1, 4_1 and
    6_1 with k = 1, 2, 3 marked twist regions (the first twist vector of
    each in the acceptance grid), the pullbacks of the first two
    representations of the partial knot over F_5 and over F_7; and the
    Wirtinger presentation of a trefoil whose kink relator is an
    identification, under its first two representations over each."""
    cases, seen = [], set()
    pres = deficiency_one(wirtinger(parse_pd(KINK_IDENTIFYING_TREFOIL)))
    for p in (5, 7):
        for i, rho in enumerate(enumerate_sl2(pres, RepSearchConfig(p=p))[:2]):
            cases.append(("3_1 with an identifying kink F_%d rep %d" % (p, i),
                          pres, rho))
    for name, pd, marks, ms in grid_cells():
        if (name, len(ms)) in seen:
            continue
        seen.add((name, len(ms)))
        spec = SymUnionSpec(MarkedDiagram(pd, marks), tuple(2 * m for m in ms))
        union, partial, phi = build_symun_presentation(spec)
        for p in (5, 7):
            for i, rho in enumerate(enumerate_sl2(
                    partial, RepSearchConfig(p=p))[:2]):
                cases.append(("%s twists=%s F_%d rep %d"
                              % (name, list(spec.twists), p, i),
                              union, lamm_pullback(phi, rho)))
    return cases


TIETZE_CASES = tietze_oracle_cases()


def bundled_oracle_cases():
    """(name, presentation, representation): every bundled knot's
    deficiency-1 Wirtinger presentation under its first nonabelian
    SL(2, F_p) class, p = 5 and 7."""
    cases = []
    for name in sorted(BUNDLED.entries):
        pres = deficiency_one(wirtinger(BUNDLED[name]))
        for p in (5, 7):
            rho = next(r for r in bundled_classes(name, p)
                       if not r.is_abelian)
            cases.append(("%s F_%d" % (name, p), pres, rho))
    return cases


BUNDLED_CASES = bundled_oracle_cases()


def check_pass(pres, rho, j):
    """The Tietze pass keeps column j and the deficiency, its Fox pencil
    has no auxiliary row, and the invariant equals the one computed on pres
    itself."""
    reduced, kept = eliminate_generators(pres, j)
    assert j in kept and reduced.deficiency == 1
    restricted = Representation(p=rho.p, d=rho.d,
                                matrices=[rho.matrices[g] for g in kept])
    A = fox_matrix(reduced, restricted, kept.index(j))
    assert A.rows == len(A.A0[0]) == rho.d * (reduced.num_generators - 1)
    tw = twisted_alexander(pres, rho) if j == 0 else wada_column(pres, rho, j)
    assert tw.value == unreduced_wada(pres, rho, j)
    return reduced


class TestTietzeReduction:
    @pytest.mark.parametrize("i, pres, rho",
                             [(i, *c[1:]) for i, c in enumerate(TIETZE_CASES)],
                             ids=[c[0] for c in TIETZE_CASES])
    def test_reduced_matches_unreduced(self, i, pres, rho):
        reduced = check_pass(pres, rho, 0)
        assert reduced.num_generators < pres.num_generators
        # every fourth explicit column: the four cases of each presentation
        # (two classes over F_5 and F_7 each) cover all of its columns
        for j in range(i % 4 or 4, pres.num_generators, 4):
            check_pass(pres, rho, j)

    @pytest.mark.parametrize("pres, rho", [c[1:] for c in BUNDLED_CASES],
                             ids=[c[0] for c in BUNDLED_CASES])
    def test_every_column_of_the_bundled_knots(self, pres, rho):
        for j in range(pres.num_generators):
            check_pass(pres, rho, j)

    def test_bundled_knots_shrink(self):
        sizes = {name: eliminate_generators(deficiency_one(wirtinger(
            BUNDLED[name])), 0)[0].num_generators for name in BUNDLED.entries}
        assert sizes == {"3_1": 3, "4_1": 3, "6_1": 5, "8_10": 8, "8_20": 7,
                         "9_1": 9, "9_24": 8, "10_99": 9, "10_137": 7,
                         "10_140": 9, "11a_201": 8}

    def test_bundled_knots_shrink_at_the_chosen_column(self):
        # the chosen column keeps one generator fewer of 11a_201 and of 10_137, and as
        # many as column 0 of the others
        sizes = {}
        for name in BUNDLED.entries:
            pres = deficiency_one(wirtinger(BUNDLED[name]))
            j = twisted._column(pres)
            sizes[name] = pres._cache["tietze", j][0].num_generators
        assert sizes == {"3_1": 3, "4_1": 3, "6_1": 5, "8_10": 8, "8_20": 7,
                         "9_1": 9, "9_24": 8, "10_99": 9, "10_137": 6,
                         "10_140": 9, "11a_201": 7}

    def test_determinants_are_taken_on_the_reduced_presentation(
            self, monkeypatch):
        pres, rho = TIETZE_CASES[-1][1:]
        sizes = []

        def spy(p, r, drop=None):
            sizes.append((p.num_generators, len(r.matrices), drop))
            return fox_matrix(p, r, drop)
        monkeypatch.setattr(twisted, "fox_matrix", spy)
        twisted_alexander(pres, rho)
        # the pass keeps the chosen column, x2_2* (29), and drops it
        assert (pres.num_generators, sizes) == (36, [(13, 13, 10)])

    def test_cases_cover_the_grid(self):
        names = {c[0].split()[0] for c in TIETZE_CASES}
        assert names == {"3_1", "4_1", "6_1"}
        assert {c[0].count(",") + 1 for c in TIETZE_CASES} == {1, 2, 3}
        assert {c[2].p for c in TIETZE_CASES} == {5, 7}

    def test_repeated_identification_falls_back(self):
        # the trefoil's Wirtinger generators x1, x2, x3, one crossing
        # relator, and x4 = x1 said twice: the crossing relator eliminates
        # x2, but the cycle is never emptied; its two rows are dependent
        # and the invariant is 0
        base = deficiency_one(wirtinger(parse_pd(TREFOIL)))
        pres = GroupPresentation(
            base.names + ("x4",),
            base.relators[:1] + (((3, 1), (0, -1)), ((0, 1), (3, -1))))
        assert pres.deficiency == 1
        reduced, kept = eliminate_generators(pres, 0)
        assert kept == (0, 2, 3)
        assert reduced.relators == (((2, 1), (0, -1)), ((0, 1), (2, -1)))
        for p in (5, 7):
            for rho in enumerate_sl2(base, RepSearchConfig(p=p))[:2]:
                ext = Representation(p=p, d=2, matrices=rho.matrices
                                     + (rho.matrices[0],))
                tw = twisted_alexander(pres, ext)
                assert tw.value == unreduced_wada(pres, ext)
                assert tw.value.num.is_zero

    def test_memos_are_bounded(self, monkeypatch):
        # a presentation keeps its chosen column and one Tietze reduction
        # per kept column asked for, and each reduction one program per
        # dropped column, no more; a copy (rebuilt through the constructor)
        # starts cold.  The chosen column tries the meridian's pass and that
        # of x3, the one generator it eliminates, and keeps column 0
        pres, rho = TIETZE_CASES[0][1:]
        pres = copy.copy(pres)
        calls = []
        monkeypatch.setattr(twisted, "eliminate_generators",
                            lambda *args: (calls.append(args[1]),
                                           eliminate_generators(*args))[1])
        first = [twisted_alexander(pres, rho).value,
                 wada_column(pres, rho, 1).value]
        assert [twisted_alexander(pres, rho).value,
                wada_column(pres, rho, 1).value] == first
        assert calls == [0, 2, 1]
        assert set(pres._cache) == {"column", ("tietze", 0), ("tietze", 1)}
        for j in (0, 1):
            reduced, kept = pres._cache["tietze", j]
            assert set(reduced._cache) == {("fox", kept.index(j))}
        twin = copy.copy(pres)
        assert twin == pres and not hasattr(twin, "_cache")
        assert twisted_alexander(twin, rho).value == first[0]
        assert calls == [0, 2, 1, 0, 2]

    def test_program_is_compiled_once_per_presentation(self, monkeypatch):
        pres, rho = TIETZE_CASES[0][1:]
        pres = copy.copy(pres)
        drops = []
        program = twisted._fox_program
        monkeypatch.setattr(twisted, "_fox_program", lambda p, drop: (
            drops.append(drop), program(p, drop))[1])
        first = fox_matrix(pres, rho, 0)
        second = fox_matrix(pres, rho, 0)
        fox_matrix(pres, rho, 1)
        assert drops == [0, 1]
        assert (second.A0, second.A1) == (first.A0, first.A1)
        # an equal presentation built afresh compiles its own
        fox_matrix(copy.deepcopy(pres), rho, 0)
        assert drops == [0, 1, 0]


def first_classes(pres, p, n=2):
    """The first n nonabelian SL(2, F_p) classes of pres."""
    return enumerate_sl2(pres, RepSearchConfig(p=p))[:n]


class TestChosenColumn:
    """twisted_alexander drops the column of the generator whose Tietze
    reduction is smallest, against the brute-force oracle, and gives the
    polynomial of column 0."""

    def test_chosen_column_is_the_smallest(self):
        specs = seed7_grid_specs()
        assert len(set(specs)) == 36
        for spec in specs:
            union = build_symun_presentation(spec)[0]
            assert twisted._column(union) == smallest_column(union), spec
        for name in BUNDLED.entries:
            pres = deficiency_one(wirtinger(BUNDLED[name]))
            assert twisted._column(pres) == smallest_column(pres), name

    def test_verify_theorem_takes_the_smallest_pencil(self, monkeypatch):
        # each union's pencil under the first F_5 class of its partial: 598
        # rows over the seed-7 grid, where column 0 would give 676
        rows, total = [], 0
        fox = twisted.fox_matrix

        def spy(*args, **kwargs):
            A = fox(*args, **kwargs)
            rows.append(A.rows)
            return A
        for spec in seed7_grid_specs():
            union, partial, _ = build_symun_presentation(spec)
            rho = first_classes(partial, 5, 1)[0]
            # with the partial target kept, the second call takes only the
            # union's pencil
            verify_theorem(spec, rho)
            with monkeypatch.context() as m:
                m.setattr(twisted, "fox_matrix", spy)
                assert verify_theorem(spec, rho)["equal"]
            smallest = eliminate_generators(union, smallest_column(union))[0]
            assert rows[-1] == 2 * (smallest.num_generators - 1)
            total += 2 * (eliminate_generators(union, 0)[0].num_generators
                          - 1)
        assert len(rows) == 36 and (sum(rows), total) == (598, 676)

    def test_polynomial_is_that_of_column_zero(self):
        # on every cell of the acceptance grid and of the seed-7 grid, under
        # two classes of the partial over F_5 and over F_7, and on every
        # bundled knot under two classes over each
        specs = {SymUnionSpec(MarkedDiagram(pd, marks),
                              tuple(2 * m for m in ms))
                 for _, pd, marks, ms in grid_cells()}
        specs.update(seed7_grid_specs())
        cases = []
        for spec in specs:
            union, partial, phi = build_symun_presentation(spec)
            cases.append((union, [lamm_pullback(phi, rho) for p in (5, 7)
                                  for rho in first_classes(partial, p)]))
        for name in BUNDLED.entries:
            cases.append((deficiency_one(wirtinger(BUNDLED[name])), [
                rho for p in (5, 7) for rho in [
                    r for r in bundled_classes(name, p) if not r.is_abelian
                ][:2]]))
        assert len(cases) > 36 + 11
        assert all(len(rhos) == 4 for _, rhos in cases)
        for pres, rhos in cases:
            for rho in rhos:
                assert twisted_alexander(pres, rho).value == \
                    wada_column(pres, rho, 0).value
            assert twisted._column(pres) == smallest_column(pres)

    def test_other_presentations_keep_column_zero(self, monkeypatch):
        # 11a_201's presentation, whose smallest reduction keeps column 2,
        # read as not of Wirtinger type: twisted_alexander runs the pass of
        # column 0 only and drops column 0
        base = deficiency_one(wirtinger(BUNDLED["11a_201"]))
        assert smallest_column(base) == 2
        pres = GroupPresentation(base.names, base.relators,
                                 is_wirtinger=False)
        calls, drops = [], []
        monkeypatch.setattr(twisted, "eliminate_generators",
                            lambda *args: (calls.append(args[1]),
                                           eliminate_generators(*args))[1])
        fox = twisted.fox_matrix
        monkeypatch.setattr(twisted, "fox_matrix", lambda p, r, drop=None: (
            drops.append(drop), fox(p, r, drop))[1])
        rho = first_classes(base, 5, 1)[0]
        tw = twisted_alexander(pres, rho)
        assert (calls, drops) == ([0], [0])
        assert set(pres._cache) == {("tietze", 0)}
        assert tw.value == twisted_alexander(base, rho).value


class TestWadaInvariant:
    def test_trivial_rep_gives_alexander_over_t_minus_one(self):
        # no coefficient of these Delta vanishes mod 7 or mod 11, so the
        # degree is kept
        for p, text in product((7, 11), (TREFOIL, FIG8, SIX_ONE)):
            pd = parse_pd(text)
            pres = deficiency_one(wirtinger(pd))
            tw = twisted_alexander(pres, trivial_rep(pres, p))
            zz = classical_alexander(pd)
            mod_p = LaurentPoly(GF(p), zz.coeffs)
            assert mod_p.span == zz.span
            target = RationalFn(mod_p, P("t - 1", GF(p)))
            assert rational_unit_equal(tw.value, target)
            assert tw.d == 1
            assert tw.degree == zz.span - 1

    def test_column_independence_every_example(self):
        # the Wada invariant does not depend on which generator column is
        # dropped; checked for the d=1 trivial rep over F_7 and F_11 and
        # every nonabelian SL(2, F_p) rep of each example knot
        for text in (TREFOIL, FIG8):
            pd = parse_pd(text)
            pres = deficiency_one(wirtinger(pd))
            rhos = [trivial_rep(pres, 7), trivial_rep(pres, 11)]
            for p in (5, 7):
                rhos.extend(enumerate_sl2(pres, RepSearchConfig(p=p)))
            for rho in rhos:
                base = twisted_alexander(pres, rho)
                for j in range(1, pres.num_generators):
                    other = wada_column(pres, rho, j)
                    assert rational_unit_equal(base.value, other.value)
                    assert base.degree == other.degree

    def test_deficiency_requirement(self):
        pres = wirtinger(parse_pd(TREFOIL))  # deficiency 0
        with pytest.raises(ValueError):
            twisted_alexander(pres, trivial_rep(pres, 7))

    def test_invalid_rep_rejected(self):
        pd3 = parse_pd(TREFOIL)
        pd4 = parse_pd(FIG8)
        pres3 = deficiency_one(wirtinger(pd3))
        pres4 = deficiency_one(wirtinger(pd4))
        rho = enumerate_sl2(pres4, RepSearchConfig(p=5))[0]
        bad = type(rho)(p=5, d=2, matrices=rho.matrices[:3])
        with pytest.raises(ValueError):
            twisted_alexander(pres3, bad)

    def test_genus_lower_bound(self):
        for p in (7, 11):
            for text in (TREFOIL, FIG8):
                pres = deficiency_one(wirtinger(parse_pd(text)))
                tw = twisted_alexander(pres, trivial_rep(pres, p))
                assert genus_lower_bound(tw) == Fraction(1)


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

    def test_pullback_is_not_checked_twice(self, monkeypatch):
        # rho_partial is checked once per value, on the partial presentation
        # that the specs of one marked diagram share; no union relator is
        # evaluated, since the GeneratorMap proved at construction that they
        # map to partial relators or to 1
        marked = MarkedDiagram(parse_pd(TREFOIL), (1, 3))
        spec, other = SymUnionSpec(marked, (2,)), SymUnionSpec(marked, (-2,))
        _, partial, _ = build_symun_presentation(spec)
        rho = enumerate_sl2(partial, RepSearchConfig(p=5))[0]
        checked = count_checks(monkeypatch)
        first = verify_theorem(spec, rho)
        assert checked == [partial]
        assert verify_theorem(other, rho)["equal"]
        assert verify_theorem(spec, rho) == first
        assert checked == [partial]

    def test_union_matrices_are_inverted_once(self, monkeypatch):
        # with warm memos: once, in the Fox pass over the reduced union;
        # rho_partial was checked on the first call, and the pullback reads
        # one-letter images, so neither inverts a matrix
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,))
        _, partial, _ = build_symun_presentation(spec)
        rho = enumerate_sl2(partial, RepSearchConfig(p=5))[0]
        first = verify_theorem(spec, rho)
        sizes = []
        inverses = knotforge.reps.inverses

        def counted(mats, p):
            sizes.append(len(mats))
            return inverses(mats, p)
        for module in (knotforge.reps, twisted):
            monkeypatch.setattr(module, "inverses", counted)
        assert verify_theorem(spec, rho) == first
        union = build_symun_presentation(spec)[0]
        reduced, _ = eliminate_generators(union, twisted._column(union))
        assert sizes == [reduced.num_generators] == [6]

    def test_second_spec_checks_and_evaluates_no_word(self, monkeypatch):
        # on another spec of the same marked diagram, with the target of
        # rho_partial kept: no check, and no word evaluated outside the Fox
        # pass, which alone calls word_prefixes through twisted
        marked = MarkedDiagram(parse_pd(FIG8), (1, 3, 5))
        spec, other = (SymUnionSpec(marked, (2, -2)),
                       SymUnionSpec(marked, (4, 2)))
        _, partial, _ = build_symun_presentation(spec)
        rho = enumerate_sl2(partial, RepSearchConfig(p=7))[0]
        verify_theorem(spec, rho)
        checked = count_checks(monkeypatch)
        words, fox = [], []
        word_prefixes = knotforge.reps.word_prefixes
        for module, seen in ((knotforge.reps, words), (presentation, words),
                             (twisted, fox)):
            monkeypatch.setattr(module, "word_prefixes",
                                lambda *args, seen=seen: (
                                    seen.append(args[0]),
                                    word_prefixes(*args))[1])
        assert verify_theorem(other, rho)["equal"]
        assert checked == [] and words == [] and fox

    def test_failing_rep_raises_on_every_call_and_keeps_nothing(
            self, monkeypatch):
        spec = SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3)), (2,))
        _, partial, _ = build_symun_presentation(spec)
        A, B = enumerate_sl2(partial, RepSearchConfig(p=5))[0].matrices[:2]
        bad = Representation(
            p=5, d=2, matrices=(A,) + (B,) * (partial.num_generators - 1))
        checked = count_checks(monkeypatch)
        for calls in (1, 2):
            with pytest.raises(ValueError, match="^representation is not "
                               "valid on the partial presentation produced "
                               "by this construction$"):
                verify_theorem(spec, bad)
            assert checked == [partial] * calls
            assert targets_kept(spec._cache["symun"][1]) == []

    def test_wrong_matrix_count_is_refused(self):
        spec = SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3)), (2,))
        _, partial, _ = build_symun_presentation(spec)
        rho = enumerate_sl2(partial, RepSearchConfig(p=5))[0]
        short = Representation(p=5, d=2, matrices=rho.matrices[:-1])
        for _ in range(2):
            with pytest.raises(ValueError, match="^matrix count 4 does not "
                               "match the generator count 5$"):
                verify_theorem(spec, short)
            assert targets_kept(spec._cache["symun"][1]) == []

    def test_failed_identification_is_rejected(self):
        # a representation of the cut trefoil's crossing relators alone that
        # breaks y1_1 = y1_2 is no representation of the partial knot
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,))
        _, partial, _ = build_symun_presentation(spec)
        crossings = GroupPresentation(
            partial.names, [r for r in partial.relators if len(r) != 2],
            meridian=partial.meridian)
        reps = enumerate_sl2(crossings, RepSearchConfig(p=5))
        assert len(reps) == 42
        y1, y2 = partial.names.index("y1_1"), partial.names.index("y1_2")
        split = [rho for rho in reps if rho.matrices[y1] != rho.matrices[y2]]
        assert split
        for rho in split[:3]:
            bad = Representation(p=5, d=2, matrices=rho.matrices)
            assert not verify_representation(partial, bad)
            with pytest.raises(ValueError, match="^representation is not "
                               "valid on the partial presentation produced "
                               "by this construction$"):
                verify_theorem(spec, bad)

    def test_direct_call_on_the_union_still_checks(self):
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,))
        union, partial, phi = build_symun_presentation(spec)
        rho_partial = enumerate_sl2(partial, RepSearchConfig(p=5))[0]
        rho = lamm_pullback(phi, rho_partial)
        assert twisted.format_fraction(twisted_alexander(union, rho).value) \
            == verify_theorem(spec, rho_partial)["lhs"]
        mats = rho.matrices
        bad = Representation(p=5, d=2, matrices=(mats[1],) + mats[1:])
        assert mats[0] != mats[1]
        assert not verify_representation(union, bad)
        with pytest.raises(ValueError, match="does not satisfy the relators"):
            twisted_alexander(union, bad)


def test_verify_theorem_matches_the_checked_route():
    # every grid cell under two nonabelian classes over F_5 and F_7, each
    # call on fresh objects with empty caches: lhs against the public
    # checked route (lamm_pullback onto every union generator, then
    # twisted_alexander on the whole union), rhs against a target computed
    # afresh on its own partial presentation
    runs = 0
    for name, pd, marks, ms in grid_cells():
        def fresh():
            return SymUnionSpec(MarkedDiagram(copy.deepcopy(pd), marks),
                                tuple(2 * m for m in ms))
        _, partial, _ = build_symun_presentation(fresh())
        for p in (5, 7):
            reps = enumerate_sl2(partial, RepSearchConfig(p=p))[:2]
            assert len(reps) == 2, (name, ms, p)
            for rho in reps:
                out = verify_theorem(fresh(), rho)
                union, own_partial, phi = build_symun_presentation(fresh())
                lhs = twisted_alexander(union, lamm_pullback(phi, rho))
                _, target, _ = twisted._factorization_target(own_partial,
                                                             rho)
                assert out["lhs"] == twisted.format_fraction(lhs.value)
                assert out["rhs"] == twisted.format_fraction(target)
                assert out["equal"] and out["deg_lhs"] == lhs.degree
                runs += 1
    assert runs == 36 * 2 * 2


class TestTrustedRepresentations:
    """The pulled-back and the restricted representations skip the public
    constructor's re-reduction, and equal what it builds."""

    def setup(self, p):
        spec = SymUnionSpec(MarkedDiagram(parse_pd(FIG8), (1, 3, 5)),
                            (2, -2))
        union, partial, phi = build_symun_presentation(spec)
        return spec, union, partial, phi, enumerate_sl2(
            partial, RepSearchConfig(p=p))

    @pytest.mark.parametrize("p", [5, 7])
    def test_pullback_equals_the_validated_construction(self, p):
        _, union, _, phi, reps = self.setup(p)
        assert reps
        for rho in reps:
            up = lamm_pullback(phi, rho)
            checked = Representation(p=p, d=2, matrices=up.matrices)
            # entries given as other residues, reduced by the constructor
            shifted = Representation(
                p=p, d=2, matrices=[[[v - p for v in row] for row in M]
                                    for M in up.matrices])
            assert up == checked == shifted
            assert hash(up) == hash(checked) == hash(shifted)

    def test_restricted_rep_equals_the_validated_construction(
            self, monkeypatch):
        _, union, _, phi, reps = self.setup(5)
        reduced, kept = eliminate_generators(union, twisted._column(union))
        assert (union.num_generators, len(kept)) == (24, 9)
        seen = []
        fox = twisted.fox_matrix
        monkeypatch.setattr(twisted, "fox_matrix",
                            lambda pres, rho, drop=None:
                            (seen.append(rho), fox(pres, rho, drop))[1])
        for rho in reps:
            up = lamm_pullback(phi, rho)
            twisted._twisted_alexander(union, up)
            want = Representation(p=5, d=2,
                                  matrices=[up.matrices[g] for g in kept])
            assert seen[-1] == want and hash(seen[-1]) == hash(want)

    def test_verify_theorem_reruns_no_validation(self, monkeypatch):
        # with its memos warm, verify_theorem builds the pullback and the
        # restriction without the validating Representation.__init__
        spec, _, _, _, reps = self.setup(5)
        first = verify_theorem(spec, reps[0])
        calls = []
        init = Representation.__init__
        monkeypatch.setattr(Representation, "__init__",
                            lambda rho, *args, **kwargs:
                            (calls.append(args),
                             init(rho, *args, **kwargs))[1])
        assert verify_theorem(spec, reps[0]) == first
        assert calls == []

    def test_verify_theorem_still_rejects_bad_input(self):
        spec, union, partial, phi, reps = self.setup(5)
        assert not hasattr(spec, "_cache")  # a fresh spec starts cold
        A, B = reps[0].matrices[:2]
        bad = Representation(
            p=5, d=2,
            matrices=(A,) + (B,) * (partial.num_generators - 1))
        # on the cold spec, then with its template and a target kept
        for _ in range(2):
            with pytest.raises(ValueError, match="not valid on the partial"):
                verify_theorem(spec, bad)
            assert verify_theorem(spec, reps[0])["equal"]
        # images that break a union relator make no generator map, so the
        # pullback of a checked representation satisfies the union
        with pytest.raises(ValueError, match="neither trivial nor a target"):
            type(phi)(union, partial, (((0, 1), (1, 1)),) + phi.images[1:])


def count_checks(monkeypatch):
    """The presentations verify_representation checks a representation on
    from now on, in order, through any module that binds it."""
    checked = []
    check = knotforge.reps.verify_representation

    def counted(pres, rho):
        checked.append(pres)
        return check(pres, rho)
    for module in (knotforge.reps, presentation, twisted):
        monkeypatch.setattr(module, "verify_representation", counted)
    return checked


def count_builds(monkeypatch):
    """The specs whose template twisted builds from now on, in order."""
    builds = []
    monkeypatch.setattr(twisted, "build_symun_presentation", lambda spec: (
        builds.append(spec), build_symun_presentation(spec))[1])
    return builds


def targets_kept(pres):
    """The representations whose factorization target pres keeps."""
    return [key for key in getattr(pres, "_cache", ())
            if isinstance(key, Representation)]


class TestVerifyTheoremMemos:
    """verify_theorem keeps each template on its spec and each partial
    target on the partial presentation: a second call on the same objects
    does no work, an equal object built afresh starts cold, and a cache
    holds one entry per value asked of its object."""

    def trefoil_setup(self, p):
        spec = SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3)), (2,))
        _, partial, _ = build_symun_presentation(spec)
        return spec, partial, enumerate_sl2(partial, RepSearchConfig(p=p))

    def test_caches_hold_one_entry_per_value(self):
        spec, _, reps = self.trefoil_setup(5)
        for _ in range(2):
            for rho in reps:
                verify_theorem(spec, rho)
        assert set(spec._cache) == {"symun"}
        assert set(spec.partial._cache) == {"partial"}
        partial = spec._cache["symun"][1]
        assert partial is spec.partial._cache["partial"]
        targets = targets_kept(partial)
        assert len(targets) == len(reps) and set(targets) == set(reps)
        # and the chosen column, 0, and the one Tietze reduction its
        # targets were computed on
        assert set(partial._cache) - set(targets) == {"column",
                                                      ("tietze", 0)}

    def test_every_module_memo_is_bounded(self):
        # found by introspection: twisted has no module-level memo, so that
        # a new one, bounded or not, fails here
        memos = [name for name, f in vars(twisted).items()
                 if callable(getattr(f, "cache_parameters", None))
                 and f.__module__ == twisted.__name__]
        assert memos == []

    def test_equal_spec_starts_cold(self, monkeypatch):
        spec, _, reps = self.trefoil_setup(5)
        builds = count_builds(monkeypatch)
        twin = SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3)), (2,))
        assert twin == spec and twin is not spec
        first = verify_theorem(spec, reps[0])
        assert verify_theorem(spec, reps[0]) == first
        assert builds == [spec] and builds[0] is spec
        assert verify_theorem(twin, reps[0]) == first
        assert len(builds) == 2 and builds[1] is twin

    def test_invalid_rep_still_rejected_after_memo(self):
        spec, partial, reps = self.trefoil_setup(5)
        verify_theorem(spec, reps[0])
        A, B = reps[0].matrices[0], reps[0].matrices[1]
        bad = Representation(
            p=5, d=2,
            matrices=(A,) + (B,) * (partial.num_generators - 1))
        assert not verify_representation(partial, bad)
        assert set(spec._cache) == {"symun"}
        with pytest.raises(ValueError, match="not valid on the partial"):
            verify_theorem(spec, bad)
        assert targets_kept(spec._cache["symun"][1]) == [reps[0]]

    def test_sizes_stay_bounded_and_results_match_cleared(self):
        # 18 specs of one marked diagram under every class over F_11: each
        # spec keeps one template, the shared partial presentation one
        # target per class, and every result equals the one computed on
        # equal objects built afresh, with empty caches
        marked = MarkedDiagram(parse_pd(TREFOIL), (1, 3))
        specs = [SymUnionSpec(marked, (2 * m,)) for m in range(-9, 9)]
        _, partial, reps = self.trefoil_setup(11)
        assert len(reps) > 1
        sweep = [verify_theorem(spec, reps[0]) for spec in specs]
        sweep += [verify_theorem(specs[0], rho) for rho in reps]
        shared = marked._cache["partial"]
        for spec in specs:
            assert set(spec._cache) == {"symun"}
            assert spec._cache["symun"][1] is shared
        assert len(targets_kept(shared)) == len(reps)
        cold = [copy.deepcopy(spec) for spec in specs]
        assert cold == specs
        assert not any(hasattr(spec, "_cache") or
                       hasattr(spec.partial, "_cache") for spec in cold)
        fresh = [verify_theorem(spec, reps[0]) for spec in cold]
        fresh += [verify_theorem(copy.deepcopy(specs[0]), rho)
                  for rho in reps]
        assert sweep == fresh
        assert all(out["equal"] for out in sweep)


class TestCachesLiveOnObjects:
    def test_a_warm_grid_pass_builds_nothing(self, monkeypatch):
        # the seed-7 symun-grid workload of perfbench/workloads.py; its
        # enumerate ops build their cut partial presentation themselves,
        # outside twisted
        kf = SimpleNamespace(algebra=algebra, diagram=diagram,
                             presentation=presentation,
                             reps=knotforge.reps, twisted=twisted)
        cells = load_workloads().symun_cells(kf, BUNDLED, 7)
        calls = dict.fromkeys(("build_symun_presentation",
                               "eliminate_generators", "_fox_program"), 0)

        def counted(name):
            original = getattr(twisted, name)

            def call(*args):
                calls[name] += 1
                return original(*args)
            return call
        for name in calls:
            monkeypatch.setattr(twisted, name, counted(name))
        passes = []
        for _ in range(2):
            for cell in cells:
                for op in cell:
                    assert op.check(op.call())[1] is None, op.label
            passes.append(dict(calls))
            calls.update(dict.fromkeys(calls, 0))
        # the first pass builds each of the 36 unions once and compiles
        # each union and each of the 9 shared partials once; choosing their
        # columns runs 592 Tietze passes, one per generator tried
        assert passes == [{"build_symun_presentation": 36,
                           "eliminate_generators": 592, "_fox_program": 45},
                          dict.fromkeys(calls, 0)]

    def test_twist_vectors_share_the_partial_target(self, monkeypatch):
        marked = MarkedDiagram(parse_pd(TREFOIL), (1, 3))
        specs = [SymUnionSpec(marked, (2 * m,)) for m in (-2, -1, 0, 1, 2)]
        _, partial, _ = build_symun_presentation(specs[0])
        rho = enumerate_sl2(partial, RepSearchConfig(p=5))[0]
        targets = []
        target = twisted._factorization_target
        monkeypatch.setattr(twisted, "_factorization_target", lambda p, r: (
            targets.append(p), target(p, r))[1])
        outs = [verify_theorem(spec, rho) for spec in specs]
        assert all(out["equal"] for out in outs)
        assert len({out["rhs"] for out in outs}) == 1
        assert targets == [marked._cache["partial"]]

    def test_dropping_a_spec_frees_its_presentations(self):
        # GroupPresentation has no __weakref__, so its live instances are
        # counted among the objects the garbage collector tracks
        def live():
            gc.collect()
            return sum(type(o) is GroupPresentation for o in gc.get_objects())
        spec = SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3)), (2,))
        _, partial, _ = build_symun_presentation(spec)
        rho = enumerate_sl2(partial, RepSearchConfig(p=5))[0]
        del partial
        before = live()
        assert verify_theorem(spec, rho)["equal"]
        # union, partial, and the Tietze reduction of each
        assert live() >= before + 4
        del spec
        assert live() == before

    def test_twisted_source_has_no_lru_memo(self):
        source = Path(twisted.__file__).read_text()
        assert "lru_cache" not in source and "_MEMO_SIZE" not in source


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

    def test_negative_genus_is_rejected(self):
        pd = parse_pd(TREFOIL)
        K = symmetric_union_pd(SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,)))
        with pytest.raises(ValueError, match="genus must be non-negative"):
            even_symun_quick_obstructions(K, pd, genus=-1)
        # genus 0 is a valid witness (it fails the check: deg Delta_K = 4)
        assert not even_symun_quick_obstructions(K, pd,
                                                 genus=0)["d_genus_even"]

    def test_positive_control_finds_pullback(self):
        # a genuine even symmetric union cannot be obstructed: the pullback
        # representation's polynomial matches the target
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,))
        K = symmetric_union_pd(spec)
        rho = enumerate_sl2(wirtinger(pd), RepSearchConfig(p=5))[0]
        out = even_symun_obstruction(K, pd, rho)
        assert out["verdict"] == "inconclusive"
        assert out["evidence"]

    def test_abelian_or_non_sl2_rep_is_rejected(self):
        # only nonabelian SL(2, F_p) classes of G(K) are enumerated, so the
        # pullback of any other rho never matches: these reps gave a false
        # "obstructed" for this genuine even symmetric union
        pd = parse_pd(TREFOIL)
        K = symmetric_union_pd(SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,)))
        pres = wirtinger(pd)
        every = enumerate_sl2(pres, RepSearchConfig(p=5,
                                                    nonabelian_only=False))
        abelian = [rho for rho in every if rho.is_abelian]
        assert len(abelian) == len(every) - 10 > 0
        for rho in [trivial_rep(pres, 5)] + abelian:
            with pytest.raises(ValueError, match="needs a nonabelian "
                               r"SL\(2, F_p\) representation"):
                even_symun_obstruction(K, pd, rho)

    def test_classes_are_searched_over_the_reps_prime(self, monkeypatch):
        # K is an even symmetric union with partial 3_1, so an F_5 class of
        # 3_1 must not obstruct it; compared with K's classes over F_7 it
        # gave a false "obstructed".  The prime is the representation's.
        pd = parse_pd(TREFOIL)
        K = symmetric_union_pd(SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,)))
        rho = enumerate_sl2(wirtinger(pd), RepSearchConfig(p=5))[0]
        primes = []
        search = twisted.enumerate_sl2
        monkeypatch.setattr(twisted, "enumerate_sl2", lambda pres, cfg: (
            primes.append(cfg.p), search(pres, cfg))[1])
        out = even_symun_obstruction(K, pd, rho)
        assert primes == [5]
        assert out["verdict"] == "inconclusive" and out["evidence"]

    def test_negative_control_obstructs(self):
        pd = parse_pd(TREFOIL)
        rho = enumerate_sl2(wirtinger(pd), RepSearchConfig(p=5))[0]
        out = even_symun_obstruction(parse_pd(FIG8), pd, rho)
        assert out["verdict"] == "obstructed"
        assert out["evidence"] == []
        assert out["num_reps"] > 0


class TestRepPolynomials:
    @pytest.mark.parametrize("pd,p,nreps,ndirect", [
        pytest.param(TREFOIL, 5, 10, 5, id="3_1 F_5"),
        pytest.param(TREFOIL, 7, 14, 8, id="3_1 F_7"),
        pytest.param(FIG8, 7, 20, 10, id="4_1 F_7"),
        pytest.param(SIX_ONE, 11, 10, 5, id="6_1 F_11"),
    ])
    def test_twins_skip_the_pencil_and_nothing_is_verified(
            self, monkeypatch, pd, p, nreps, ndirect):
        # of the nreps reps, those with a sign twin earlier in the list take
        # their polynomial from their twin's: only the other ndirect reach
        # the Fox pencil, and enumerate_sl2 has checked all of them already
        pres = deficiency_one(wirtinger(parse_pd(pd)))
        reps = enumerate_sl2(pres, RepSearchConfig(p=p))
        want = [twisted_alexander(pres, rho).value for rho in reps]
        direct = [rho for i, rho in enumerate(reps) if reps.twins[i] >= i]
        assert len(direct) == ndirect and len(reps) == nreps
        pencil, verified = [], []
        core = twisted._twisted_alexander
        monkeypatch.setattr(twisted, "_twisted_alexander",
                            lambda pres, rho: (pencil.append(rho),
                                               core(pres, rho))[1])
        for module in (twisted, knotforge.reps):
            monkeypatch.setattr(module, "verify_representation",
                                lambda *args: verified.append(args))
        got = twisted._rep_polynomials(pres, reps)
        assert [tw.value for tw in got] == want
        assert pencil == direct
        assert verified == []
