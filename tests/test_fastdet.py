import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforge import _fastdet
from knotforge._fastdet import Pencil, pencil_det, split_pencil
from knotforge.algebra import GF, QQ, ZZ, LaurentPoly, PolyMatrix, det
from knotforge.cli import KnotTable, bundled_table_path
from knotforge.diagram import MarkedDiagram, SymUnionSpec, parse_pd
from knotforge.presentation import (build_symun_presentation, deficiency_one,
                                    lamm_pullback, wirtinger)
from knotforge.reps import RepSearchConfig, enumerate_sl2
from knotforge.twisted import fox_matrix


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


def no_fallback(monkeypatch):
    """Make a fallback from pencil_det to Bareiss fail the test."""
    def fail(M):
        raise AssertionError("pencil_det fell back to Bareiss")
    monkeypatch.setattr(_fastdet, "det", fail)


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
            assert pencil_det(M) == det(M)

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
            assert pencil_det(shifted) == det(shifted)

    def test_non_pencil_falls_back(self):
        dom = GF(5)
        f = LaurentPoly(dom, {0: 1, 1: 2, 2: 3})
        M = PolyMatrix(dom, [[f, LaurentPoly.one(dom)],
                             [LaurentPoly.t(dom), f]])
        assert pencil_det(M) == det(M)

    def test_char_zero_falls_back(self):
        for dom in (ZZ, QQ):
            M = PolyMatrix(dom, [[LaurentPoly.t(dom), LaurentPoly.one(dom)],
                                 [LaurentPoly.one(dom), LaurentPoly.t(dom)]])
            assert pencil_det(M) == det(M)

    def test_empty_matrix(self):
        assert pencil_det(PolyMatrix(GF(5), [])) == LaurentPoly.one(GF(5))

    def test_zero_row(self):
        dom = GF(7)
        z = LaurentPoly.zero(dom)
        M = PolyMatrix(dom, [[z, z], [LaurentPoly.t(dom), LaurentPoly.one(dom)]])
        assert pencil_det(M) == z

    def test_integer_pencil_is_not_modified(self, monkeypatch):
        dom = GF(5)
        A0, A1 = [[1, 2], [0, 3]], [[4, 0], [1, 1]]
        pencil = Pencil(dom, [list(r) for r in A0], [list(r) for r in A1], -2)
        want = bareiss_det(pencil)
        no_fallback(monkeypatch)
        assert pencil_det(pencil) == want
        assert pencil_det(pencil) == want
        assert parts(pencil) == (A0, A1, -2)

    def test_integer_pencil_over_q_and_non_square(self):
        pencil = Pencil(QQ, [[-1, 0], [0, -1]], [[0, -1], [1, 1]], 1)
        assert pencil_det(pencil) == bareiss_det(pencil)
        with pytest.raises(ValueError):
            pencil_det(Pencil(GF(5), [[1, 2]], [[0, 1]]))

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
    def test_deflation_matches_bareiss_structured(self, p, monkeypatch):
        rng = random.Random(20261018 + p)
        dom = GF(p)
        mats = [structured_pencil(rng, dom, rng.randrange(1, 11))
                for _ in range(120)]
        want = [det(M) for M in mats]
        no_fallback(monkeypatch)
        got = [pencil_det(M) for M in mats]
        assert got == want
        # the cases reach every branch: zero and nonzero results
        assert any(w.is_zero for w in want)
        assert any(not w.is_zero and w.span > 0 for w in want)

    def test_p2_fox_matrix_takes_the_pencil_path(self, monkeypatch):
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
            want = bareiss_det(A)
            with monkeypatch.context() as m:
                no_fallback(m)
                assert pencil_det(A) == want

    def test_grid_union_pencils(self, monkeypatch):
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
                with monkeypatch.context() as m:
                    no_fallback(m)
                    assert pencil_det(A) == want
