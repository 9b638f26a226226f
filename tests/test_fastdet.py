import ast
import random
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforge import _fastdet, twisted
from knotforge._fastdet import (_MERSENNE_EXPONENTS, _MERSENNE_PRIMES, Pencil,
                                _int_pencil_det, pencil_det)
from knotforge.algebra import GF, QQ, ZZ, LaurentPoly, det
from knotforge.cli import KnotTable
from knotforge.diagram import (MarkedDiagram, SymUnionSpec, parse_pd,
                               symmetric_union_pd)
from knotforge.presentation import (build_symun_presentation, deficiency_one,
                                    lamm_pullback, wirtinger)
from knotforge.reps import RepSearchConfig, enumerate_sl2
from knotforge.twisted import _alexander_pencil, _fox_pencil, fox_matrix

import support
from support import (PolyMatrix, as_pencil, bundled_table_path, grid_cells,
                     split_pencil, two_sided_pencil_det)


def rand_pencil_matrix(rng, dom, n, density=0.85, singular=False):
    """Random n x n matrix with entries a + b*t (optionally with a repeated
    row to force a zero determinant)."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            coeffs = {}
            if rng.random() < density:
                coeffs[0] = rng.randrange(dom.p)
            if rng.random() < density:
                coeffs[1] = rng.randrange(dom.p)
            row.append(LaurentPoly(dom, coeffs))
        rows.append(row)
    if singular and n >= 2:
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
    return PolyMatrix(dom, rows)


def structured_pencil(rng, dom, n):
    """Random n x n pencil A0 + t*A1 with the degeneracies of Fox pencils:
    some A1 rows and columns all zero, and sometimes a singular A0, a
    singular A1 or a repeated pencil row (so det = 0)."""
    p = dom.p
    dens = rng.choice((0.3, 0.6, 0.9))

    def rand_matrix():
        return [[rng.randrange(p) if rng.random() < dens else 0
                 for _ in range(n)] for _ in range(n)]

    A0, A1 = rand_matrix(), rand_matrix()
    for i in rng.sample(range(n), rng.randrange(n + 1)):
        A1[i] = [0] * n
    for j in rng.sample(range(n), rng.randrange(n)):
        for row in A1:
            row[j] = 0
    kind = rng.randrange(4)
    if n >= 2 and kind:
        i, j = rng.sample(range(n), 2)
        if kind == 1:    # singular A0
            A0[i] = list(A0[j])
        elif kind == 2:  # singular A1
            A1[i] = list(A1[j])
        else:            # singular pencil
            A0[i], A1[i] = list(A0[j]), list(A1[j])
    return PolyMatrix(dom, [[LaurentPoly(dom, {0: A0[i][j], 1: A1[i][j]})
                             for j in range(n)] for i in range(n)])


def laurent_matrix(pencil):
    """The PolyMatrix A0 + t*A1 of a pencil (its shift left out)."""
    dom = pencil.domain
    return PolyMatrix(dom, [[LaurentPoly(dom, {0: a, 1: b})
                             for a, b in zip(r0, r1)]
                            for r0, r1 in zip(pencil.A0, pencil.A1)])


def bareiss_det(A):
    """Bareiss det of a PolyMatrix, or of a Pencil read as Laurent rows."""
    if isinstance(A, Pencil):
        return det(laurent_matrix(A)).shift(A.shift)
    return det(A)


def parts(pencil):
    return pencil.A0, pencil.A1, pencil.shift


class TestSplitPencil:
    def test_laurent_rows_shift_to_a_pencil(self):
        rows = [{(0, -2): 1, (1, -1): 4, (1, -2): 3}, {(0, 5): 2}]
        pencil = split_pencil(rows, 2, ZZ)
        assert parts(pencil) == ([[1, 3], [2, 0]], [[0, 4], [0, 0]], 3)
        assert pencil.rows == 2 and pencil.domain == ZZ

    def test_zero_coefficients_are_not_exponents(self):
        # the zeros at t^0 and t^3 would make the first row look like
        # t^0 * (0 + t*3) and the second row not linear
        rows = [{(0, 0): 0, (0, 1): 3}, {(0, 1): 2, (0, 3): 0, (1, 2): 5}]
        assert parts(split_pencil(rows, 2, ZZ)) == (
            [[3, 0], [2, 0]], [[0, 0], [0, 5]], 2)

    def test_coefficients_vanishing_mod_p_are_not_exponents(self):
        # over F_7, 7 and -14 vanish and 9 is 2: the first row is t times
        # [2, 0], the second t times [2, 0] + t^2 times [0, 6]; over Z the
        # second row spans t^1..t^3 and is not linear
        rows = [{(0, 0): 7, (0, 1): 9}, {(0, 1): 2, (1, 3): -14, (1, 2): -1}]
        assert parts(split_pencil(rows, 2, GF(7))) == (
            [[2, 0], [2, 0]], [[0, 0], [0, 6]], 2)
        assert split_pencil(rows, 2, ZZ) is None

    def test_zero_row(self):
        assert parts(split_pencil([{(1, 4): 0}, {(0, 0): 1, (1, 1): 1}], 2,
                                  ZZ)) == ([[0, 0], [1, 0]],
                                           [[0, 0], [0, 1]], 0)

    def test_not_linear(self):
        rows = [{(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (0, 2): 1}]
        assert split_pencil(rows, 2, ZZ) is None


class TestPencilDet:
    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_matches_bareiss_randomized(self, p):
        rng = random.Random(20260824 + p)
        dom = GF(p)
        for _ in range(60):
            n = rng.randrange(1, 6)
            M = rand_pencil_matrix(rng, dom, n,
                                   singular=(rng.random() < 0.25))
            assert pencil_det(as_pencil(M)) == det(M)

    def test_laurent_shifted_rows(self):
        # rows may sit at any degree window of width one
        rng = random.Random(7)
        dom = GF(5)
        for _ in range(40):
            n = rng.randrange(1, 5)
            M = rand_pencil_matrix(rng, dom, n)
            sh = [rng.randrange(-3, 4) for _ in range(n)]
            shifted = PolyMatrix(dom, [[M[i, j].shift(sh[i])
                                        for j in range(n)] for i in range(n)])
            assert pencil_det(as_pencil(shifted)) == det(shifted)

    def test_non_pencil_is_linearized(self):
        # rows of degree 2 in t: _fox_pencil gives each an auxiliary row and
        # column; over F_5 and F_7, and over Z for _int_pencil_det
        for dom in (GF(5), GF(7), ZZ):
            f = LaurentPoly(dom, {0: 1, 1: 2, 2: 3})
            M = PolyMatrix(dom, [[f, LaurentPoly.one(dom)],
                                 [LaurentPoly.t(dom), f]])
            pencil = _fox_pencil(2, [(0, [[1, 1], [2, 0], [3, 0]]),
                                     (0, [[0, 1], [1, 2], [0, 3]])], dom)
            assert pencil.rows == 4
            if dom == ZZ:
                assert _int_pencil_det(pencil.A0, pencil.A1) == \
                    int_coeffs(det(M))
            else:
                assert pencil_det(pencil) == det(M)

    def test_char_zero_takes_the_integer_pencil(self):
        # pencil_det is the F_p deflation only; an integer pencil goes to
        # _int_pencil_det, and over Z or Q pencil_det refuses it
        for dom in (QQ, ZZ):
            M = PolyMatrix(dom, [[LaurentPoly.t(dom), LaurentPoly.one(dom)],
                                 [LaurentPoly.one(dom), LaurentPoly.t(dom)]])
            pencil = as_pencil(M)
            with pytest.raises(ValueError, match="over F_p"):
                pencil_det(pencil)
        assert _int_pencil_det(pencil.A0, pencil.A1) == \
            int_coeffs(det(M).shift(-pencil.shift)) == [-1, 0, 1]

    def test_empty_matrix(self):
        assert pencil_det(as_pencil(PolyMatrix(GF(5), []))) == \
            LaurentPoly.one(GF(5))
        assert _int_pencil_det([], []) == [1]

    def test_zero_row(self):
        dom = GF(7)
        z = LaurentPoly.zero(dom)
        M = PolyMatrix(dom, [[z, z], [LaurentPoly.t(dom), LaurentPoly.one(dom)]])
        assert pencil_det(as_pencil(M)) == z

    def test_only_pencils(self):
        # a Laurent-polynomial matrix is not a pencil; no module of the
        # package but algebra binds the Bareiss oracles (det and gcd_polys
        # there, PolyMatrix in the tests' support module), and _fastdet
        # takes LaurentPoly alone from algebra
        with pytest.raises(AttributeError):
            pencil_det(PolyMatrix(GF(5), [[LaurentPoly.one(GF(5))]]))
        oracles = {"PolyMatrix", "det", "gcd_polys"}
        for path in Path(_fastdet.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            imports = {(node.module, alias.name) for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
            if path.name == "_fastdet.py":
                assert {name for module, name in imports
                        if module == "algebra"} == {"LaurentPoly"}
            if path.name in ("algebra.py", "__init__.py"):
                continue
            names = {name for _, name in imports} | {
                node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
            assert not names & oracles, path.name

    def test_integer_pencil_is_not_modified(self):
        dom = GF(5)
        A0, A1 = [[1, 2], [0, 3]], [[4, 0], [1, 1]]
        pencil = Pencil(dom, [list(r) for r in A0], [list(r) for r in A1], -2)
        want = bareiss_det(pencil)
        assert pencil_det(pencil) == want
        assert pencil_det(pencil) == want
        assert parts(pencil) == (A0, A1, -2)

    def test_integer_pencil_over_q_and_non_square(self):
        # an integer pencil over Q is refused, and its determinant is
        # _int_pencil_det's; a non-square pencil over F_p is refused
        pencil = Pencil(QQ, [[-1, 0], [0, -1]], [[0, -1], [1, 1]], 1)
        with pytest.raises(ValueError, match="over F_p"):
            pencil_det(pencil)
        assert _int_pencil_det(pencil.A0, pencil.A1) == \
            int_coeffs(bareiss_det(pencil).shift(-pencil.shift))
        with pytest.raises(ValueError, match="non-square"):
            pencil_det(Pencil(GF(5), [[1, 2]], [[0, 1]]))

    def test_a1_of_another_shape_is_refused(self):
        # A1 is the matrix the kernel reduces first; a short one would end
        # in an IndexError and a wide one in a wrong determinant
        for A1 in ([[1, 0]], [[1, 0, 0], [0, 1, 0]], [[1], [0]]):
            with pytest.raises(ValueError, match="shape"):
                pencil_det(Pencil(GF(5), [[1, 0], [0, 1]], A1))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(
        st.just(p),
        st.integers(0, 6).flatmap(lambda n: st.lists(
            st.tuples(st.lists(st.integers(0, p - 1), min_size=n,
                               max_size=n),
                      st.lists(st.integers(0, p - 1), min_size=n,
                               max_size=n),
                      st.integers(-3, 3)),
            min_size=n, max_size=n)))))
    def test_random_integer_pencil_matches_bareiss(self, case):
        # row i of the matrix is t^lo_i * (A0[i] + t*A1[i])
        p, rows = case
        dom = GF(p)
        pencil = Pencil(dom, [r0 for r0, _, _ in rows],
                        [r1 for _, r1, _ in rows],
                        sum(lo for _, _, lo in rows))
        M = PolyMatrix(dom, [[LaurentPoly(dom, {lo: a, lo + 1: b})
                              for a, b in zip(r0, r1)]
                             for r0, r1, lo in rows])
        assert pencil_det(pencil) == det(M)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_deflation_matches_bareiss_structured(self, p):
        rng = random.Random(20261018 + p)
        dom = GF(p)
        mats = [structured_pencil(rng, dom, rng.randrange(1, 11))
                for _ in range(120)]
        want = [det(M) for M in mats]
        got = [pencil_det(as_pencil(M)) for M in mats]
        assert got == want
        # the cases reach every branch: zero and nonzero results
        assert any(w.is_zero for w in want)
        assert any(not w.is_zero and w.span > 0 for w in want)

    def test_p2_fox_matrix_takes_the_pencil_path(self):
        # SL(2, F_2) representations of the trefoil; over F_2 pencil_det
        # used to fall back to Bareiss
        pres = deficiency_one(wirtinger(parse_pd(
            "X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]")))
        reps = enumerate_sl2(pres, RepSearchConfig(p=2,
                                                   nonabelian_only=False))
        assert reps
        for rho in reps:
            A = fox_matrix(pres, rho, drop=0)
            assert isinstance(A, Pencil)
            assert pencil_det(A) == bareiss_det(A)

    def test_grid_union_pencils(self):
        # the 3_1 k = 1 grid unions under pulled-back F_5 representations
        table = KnotTable.parse(bundled_table_path().read_text())
        pd = table["3_1"]
        edges = sorted(pd.edges)
        marked = MarkedDiagram(pd, (edges[0], edges[len(edges) // 2]))
        for twist in (-2, 2, 4):
            union, partial, phi = build_symun_presentation(
                SymUnionSpec(marked, (twist,)))
            for rho in enumerate_sl2(partial, RepSearchConfig(p=5))[:3]:
                up = lamm_pullback(phi, rho)
                A = fox_matrix(union, up, drop=0)
                assert isinstance(A, Pencil)
                want = bareiss_det(A)
                assert not want.is_zero
                assert pencil_det(A) == want


def unimodular(rng, p, n):
    """A random n x n matrix over F_p of determinant +-1: a random lower
    times a random upper unitriangular matrix, its rows shuffled."""
    L = [[1 if i == j else rng.randrange(p) if j < i else 0
          for j in range(n)] for i in range(n)]
    U = [[1 if i == j else rng.randrange(p) if j > i else 0
          for j in range(n)] for i in range(n)]
    M = mat_mul_mod(L, U, p)
    rng.shuffle(M)
    return M


def mat_mul_mod(A, B, p):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)]
            for row in A]


def jordan_pencil(rng, p):
    """(A0, A1) = P * (B0, B1) * Q for a block diagonal pencil B0 + t*B1
    and random unimodular P, Q: a regular block M + t*D (D diagonal and
    invertible), Jordan chains at 0 (N + t*I, N a nilpotent Jordan block)
    and at infinity (I + t*N), and now and then one pencil row repeated, so
    that the determinant vanishes."""
    sizes = ([("fin", rng.randrange(4))]
             + [("zero", rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
             + [("inf", rng.randrange(1, 4)) for _ in range(rng.randrange(3))])
    rng.shuffle(sizes)
    n = sum(k for _, k in sizes)
    B0 = [[0] * n for _ in range(n)]
    B1 = [[0] * n for _ in range(n)]
    at = 0
    for kind, k in sizes:
        for i in range(k):
            r = at + i
            if kind == "fin":
                for j in range(k):
                    B0[r][at + j] = rng.randrange(p)
                B1[r][r] = rng.randrange(1, p)
            else:
                nil, unit = (B0, B1) if kind == "zero" else (B1, B0)
                unit[r][r] = rng.randrange(1, p)
                if i + 1 < k:
                    nil[r][r + 1] = rng.randrange(1, p)
        at += k
    if n >= 2 and rng.random() < 0.15:
        i, j = rng.sample(range(n), 2)
        B0[i], B1[i] = list(B0[j]), list(B1[j])
    P, Q = unimodular(rng, p, n), unimodular(rng, p, n)
    return (mat_mul_mod(mat_mul_mod(P, B0, p), Q, p),
            mat_mul_mod(mat_mul_mod(P, B1, p), Q, p))


def charpoly_sizes(monkeypatch):
    """The sizes of the matrices that _fastdet._charpoly is given."""
    sizes = []
    charpoly = _fastdet._charpoly

    def spy(C, p):
        sizes.append(len(C))
        return charpoly(C, p)
    monkeypatch.setattr(_fastdet, "_charpoly", spy)
    return sizes


def widest_grid_union():
    """The widest union of the symmetric-union grid, 6_1 with twists
    (4, 4, -4), its partial presentation and pullback phi."""
    table = KnotTable.parse(bundled_table_path().read_text())
    pd = table["6_1"]
    edges = sorted(pd.edges)
    spec = SymUnionSpec(MarkedDiagram(pd, tuple(edges[i * 3]
                                                for i in range(4))),
                        (4, 4, -4))
    return build_symun_presentation(spec)


def numerator_pencils(monkeypatch, union, reps):
    """The Wada numerator pencil of union under each representation."""
    pencils = []
    fox_matrix_ = twisted.fox_matrix
    with monkeypatch.context() as m:
        m.setattr(twisted, "fox_matrix", lambda *a, **k: (
            pencils.append(fox_matrix_(*a, **k)), pencils[-1])[1])
        for rho in reps:
            twisted._twisted_alexander(union, rho)
    return pencils


class TestTwoSidedDeflation:
    """The one-sided kernel and `pencil_det`'s orientation, against Bareiss
    and against the two-sided deflation of `support`."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, (1 << 31) - 1])
    def test_jordan_chains_at_zero_and_infinity(self, p, monkeypatch):
        rng = random.Random(20261118 + p % 1000)
        shifts = random.Random(p)
        dom = GF(p)
        sizes = charpoly_sizes(monkeypatch)
        kinds = set()
        for _ in range(40):
            A0, A1 = jordan_pencil(rng, p)
            n = len(A0)
            want = bareiss_det(Pencil(dom, A0, A1))
            oracle = two_sided_pencil_det([list(r) for r in A0],
                                          [list(r) for r in A1], p)
            del sizes[:]
            got = _fastdet._pencil_det_gf([list(r) for r in A0],
                                          [list(r) for r in A1], p)
            assert got == oracle
            assert LaurentPoly(dom, dict(enumerate(got))) == want
            # the kernel deflates the infinite eigenvalues only: its
            # characteristic polynomial is as wide as the degree
            assert sizes == ([] if want.is_zero or not want.max_deg
                             else [want.max_deg])
            # pencil_det hands it (A1, A0): the eigenvalue 0 is deflated,
            # and the characteristic polynomial is as wide as n - min_deg
            shift = shifts.randrange(-5, 6)
            del sizes[:]
            assert pencil_det(Pencil(dom, A0, A1, shift)) == \
                want.shift(shift)
            assert sizes == ([] if want.is_zero or want.min_deg == n
                             else [n - want.min_deg])
            kinds.add("zero" if want.is_zero else
                      "t^k" if want.min_deg > 0 else "constant term")
            if not want.is_zero and want.max_deg < n:
                kinds.add("degree < n")
        # the cases reach zero determinants, factors t^k, k > 0, and
        # infinite eigenvalues, which pencil_det leaves to the
        # characteristic polynomial
        assert kinds == {"zero", "t^k", "constant term", "degree < n"}

    def test_grid_union_charpoly_runs_at_the_span(self, monkeypatch):
        # the widest union pencil of the symmetric-union grid, 28 x 28
        # after the Tietze pass that keeps the chosen column; its
        # determinant has degree 28 and lowest term t^20
        union, partial, phi = widest_grid_union()
        rho = lamm_pullback(phi, enumerate_sl2(partial,
                                               RepSearchConfig(p=5))[0])
        [A] = numerator_pencils(monkeypatch, union, [rho])
        assert A.rows == 28
        sizes = charpoly_sizes(monkeypatch)
        want = two_sided_pencil_det([list(r) for r in A.A0],
                                    [list(r) for r in A.A1], 5)
        assert len(want) == 29 and want[:20] == [0] * 20 and want[20]
        del sizes[:]
        assert pencil_det(A) == LaurentPoly(
            GF(5), dict(enumerate(want))).shift(A.shift)
        assert sizes == [8]
        # deflated from its infinite end, it runs at the full degree
        del sizes[:]
        assert _fastdet._pencil_det_gf([list(r) for r in A.A0],
                                       [list(r) for r in A.A1], 5) == want
        assert sizes == [28]

    def test_grid_cell_reduction_count(self, monkeypatch):
        # the union numerators of the grid cell 6_1, k = 3, twists
        # (4, 4, -4), under both pulled-back F_5 classes, 28 x 28 each:
        # pencil_det reduces rows exactly 10 times, on matrices whose sizes
        # squared sum to 3464; the two-sided deflation, which deflates the
        # infinite end first, takes 12 rounds and 5032
        union, partial, phi = widest_grid_union()
        reps = [lamm_pullback(phi, rho)
                for rho in enumerate_sl2(partial, RepSearchConfig(p=5))]
        pencils = numerator_pencils(monkeypatch, union, reps)
        assert [A.rows for A in pencils] == [28, 28]
        sizes = []
        reduce_rows = _fastdet._reduce_rows

        def spy(A0, A1, p):
            sizes.append(len(A0))
            return reduce_rows(A0, A1, p)
        monkeypatch.setattr(_fastdet, "_reduce_rows", spy)
        monkeypatch.setattr(support, "_reduce_rows", spy)
        got = [pencil_det(A) for A in pencils]
        assert (len(sizes), sum(n * n for n in sizes)) == (10, 3464)
        del sizes[:]
        assert got == [LaurentPoly(GF(5), dict(enumerate(two_sided_pencil_det(
            [list(r) for r in A.A0], [list(r) for r in A.A1], 5)))).shift(
                A.shift) for A in pencils]
        assert (len(sizes), sum(n * n for n in sizes)) == (12, 5032)


def int_coeffs(f):
    """Coefficients, lowest first, of a polynomial with min_deg >= 0."""
    return [f.coeff(e) for e in range(max(f.coeffs, default=0) + 1)]


def spy_moduli(monkeypatch):
    """Record the modulus of every F_p deflation."""
    seen = []
    deflate = _fastdet._pencil_det_gf

    def spy(A0, A1, p):
        seen.append(p)
        return deflate(A0, A1, p)
    monkeypatch.setattr(_fastdet, "_pencil_det_gf", spy)
    return seen


def lucas_lehmer(e):
    """True when 2^e - 1 is prime, for an odd prime e."""
    m = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


class TestIntPencilDet:
    def test_listed_exponents_give_mersenne_primes(self):
        assert list(_MERSENNE_EXPONENTS) == sorted(set(_MERSENNE_EXPONENTS))
        assert _MERSENNE_PRIMES == tuple((1 << e) - 1
                                         for e in _MERSENNE_EXPONENTS)
        for e in _MERSENNE_EXPONENTS:
            assert all(e % q for q in range(2, e)), e
            assert lucas_lehmer(e), e
        # the test itself tells composites apart: 2^11 - 1 = 23 * 89
        assert not lucas_lehmer(11)

    @pytest.mark.parametrize("s,exponent", [
        (2 ** 40, 89), (-(2 ** 40), 89), (2 ** 58, 127), (-(2 ** 58), 127)])
    def test_large_coefficients_pick_a_larger_prime(self, monkeypatch,
                                                    s, exponent):
        seen = spy_moduli(monkeypatch)
        A0 = [[3 * s + 1, -2 * s], [s, 2 * s - 1]]
        A1 = [[-s, 3 * s], [2 * s, -3 * s]]
        want = int_coeffs(bareiss_det(Pencil(ZZ, A0, A1)))
        assert max(map(abs, want)) > 2 ** 61
        assert _int_pencil_det(A0, A1) == want
        assert seen == [(1 << exponent) - 1]

    @pytest.mark.parametrize("a", [2 ** 88, -(2 ** 88), 2 ** 88 - 1])
    def test_coefficient_close_to_the_bound(self, monkeypatch, a):
        # H = sqrt(2) |a| < 2^89 - 1 < 2|a|: a prime above H but not above
        # 2H, or no symmetric lift, would return a wrong value
        seen = spy_moduli(monkeypatch)
        assert _int_pencil_det([[a]], [[0]]) == [a]
        assert _int_pencil_det([[0]], [[a]]) == [0, a]
        assert seen == [(1 << 107) - 1] * 2

    def test_past_the_last_prime_takes_crt(self, monkeypatch):
        # H is about 2^3610: past 2^3217 - 1 alone, within its product with
        # 2^2281 - 1
        big = 2 ** 400
        A0 = [[big + i if i == j else (i + j) % 3 for j in range(9)]
              for i in range(9)]
        A1 = [[-big if i == j else 0 for j in range(9)] for i in range(9)]
        A1[0][0] = 0
        want = int_coeffs(bareiss_det(Pencil(ZZ, A0, A1)))
        seen = spy_moduli(monkeypatch)
        got = _int_pencil_det(A0, A1)
        assert got == want
        assert seen == [(1 << 3217) - 1, (1 << 2281) - 1]
        assert max(map(abs, got)) > 2 ** 3217
        assert any(c < 0 for c in got)

    def test_crt_takes_primes_from_the_largest_down(self, monkeypatch):
        # 1 x 1 pencils a + b*t: H^2 = 2(a^2 + b^2), so the primes run until
        # their product passes 2H; the symmetric lift keeps the signs
        seen = spy_moduli(monkeypatch)
        primes = [(1 << e) - 1 for e in reversed(_MERSENNE_EXPONENTS)]
        for count in range(2, len(primes) + 1):
            a = prod(primes[:count - 1]) // 3
            for A0, A1, want in (([[a]], [[-a]], [a, -a]),
                                 ([[-a]], [[a]], [-a, a]),
                                 ([[a]], [[a]], [a, a])):
                del seen[:]
                assert _int_pencil_det(A0, A1) == want
                assert seen == primes[:count]

    def test_past_every_listed_prime_raises(self, monkeypatch):
        seen = spy_moduli(monkeypatch)
        big = prod((1 << e) - 1 for e in _MERSENNE_EXPONENTS)
        with pytest.raises(ValueError, match="Mersenne"):
            _int_pencil_det([[big]], [[0]])
        assert seen == []

    def test_alexander_pencils_use_the_smallest_prime(self, monkeypatch):
        # the grid unions have up to 24 generators, far below the 41 of
        # an abelianized Wirtinger pencil that 2^61 - 1 bounds
        seen = spy_moduli(monkeypatch)
        for _, pd, marks, ms in grid_cells():
            A0, A1 = _alexander_pencil(wirtinger(symmetric_union_pd(
                SymUnionSpec(MarkedDiagram(pd, marks),
                             tuple(2 * m for m in ms)))))
            _int_pencil_det(A0, A1)
        assert seen == [(1 << 61) - 1] * 36

    def test_inputs_are_not_modified_and_empty_is_one(self):
        A0, A1 = [[3, -1], [0, 2]], [[-2, 0], [5, -7]]
        # (3 - 2t)(2 - 7t) + 5t
        assert _int_pencil_det(A0, A1) == [6, -20, 14]
        assert (A0, A1) == ([[3, -1], [0, 2]], [[-2, 0], [5, -7]])
        assert _int_pencil_det([], []) == [1]
        assert _int_pencil_det([[0, 0], [1, 2]], [[0, 0], [3, 4]]) == [0]

    def test_integer_pencils_skip_bareiss(self):
        # (1)(1) - (1 + 2t)(3t)
        assert _int_pencil_det([[1, 1], [0, 1]], [[0, 2], [3, 0]]) == \
            [1, -3, -6]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=2 * n, max_size=2 * n),
        min_size=n, max_size=n)))
    def test_random_small_pencil_matches_bareiss(self, rows):
        # row i of the matrix is A0[i] + t*A1[i]
        n = len(rows)
        A0 = [cs[:n] for cs in rows]
        A1 = [cs[n:] for cs in rows]
        want = bareiss_det(Pencil(ZZ, A0, A1))
        assert _int_pencil_det(A0, A1) == int_coeffs(want)
