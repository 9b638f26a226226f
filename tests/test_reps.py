import json
import random

import pytest

from knotforge.diagram import parse_pd
from knotforge.presentation import two_bridge_presentation, wirtinger
from knotforge.reps import (RepSearchConfig, Representation,
                            SearchBudgetExceeded, enumerate_sl2,
                            evaluate_word, identity_matrix, is_scalar,
                            mat_det2, mat_inv, mat_mul, rep_from_json,
                            rep_to_json, verify_representation)

TREFOIL = "X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]"
FIG8 = "X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] X[2,5,3,6]"


def all_sl2(p):
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        out.append(((a, b), (c, d)))
    return out


def brute_force_classes(pres, p):
    """Oracle: scan all generator assignments of a 2-generator presentation,
    keep the nonabelian solutions, and count orbits under global conjugation."""
    assert pres.num_generators == 2
    G = all_sl2(p)
    ident = identity_matrix(2)
    sols = []
    for A in G:
        for B in G:
            mats = (A, B)
            if mat_mul(A, B, p) == mat_mul(B, A, p):
                continue
            if all(evaluate_word(r, mats, p) == ident for r in pres.relators):
                sols.append(mats)
    canon = set()
    for mats in sols:
        best = None
        for z in G:
            zi = mat_inv(z, p)
            cand = tuple(mat_mul(mat_mul(z, M, p), zi, p) for M in mats)
            if best is None or cand < best:
                best = cand
        canon.add(best)
    return canon, sols


def sum_product(A, B, p):
    """Matrix product from the definition, sum_k A[i][k] * B[k][j] mod p."""
    d = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(d)) % p
                       for j in range(d)) for i in range(d))


class TestMatrixOps:
    def test_mat_mul_every_pair_in_sl2_f3(self):
        G = all_sl2(3)
        assert len(G) == 24
        for A in G:
            for B in G:
                assert mat_mul(A, B, 3) == sum_product(A, B, 3)

    @pytest.mark.parametrize("p", [2, 5, 7, 101])
    def test_mat_mul_unreduced_integer_entries(self, p):
        # negative entries and entries >= p are reduced like the sum
        rng = random.Random(p)
        for _ in range(300):
            A, B = [tuple(tuple(rng.randrange(-3 * p, 3 * p)
                                for _ in range(2)) for _ in range(2))
                    for _ in range(2)]
            assert mat_mul(A, B, p) == sum_product(A, B, p)

    def test_inverse(self):
        p = 7
        for M in all_sl2(p)[:200]:
            assert mat_mul(M, mat_inv(M, p), p) == identity_matrix(2)

    def test_det(self):
        assert mat_det2(((2, 3), (1, 2)), 7) == 1
        assert is_scalar(((3, 0), (0, 3)), 7)
        assert not is_scalar(((3, 1), (0, 3)), 7)


class TestEnumerationOracle:
    @pytest.mark.parametrize("pq,p", [((3, 1), 5), ((5, 3), 5), ((5, 3), 7)])
    def test_conjugacy_classes_match_brute_force(self, pq, p):
        pres = two_bridge_presentation(*pq)
        canon, sols = brute_force_classes(pres, p)
        reps = enumerate_sl2(pres, RepSearchConfig(p=p))
        nonab = [r for r in reps if not r.is_abelian]
        assert len(nonab) == len(canon)
        # every enumerated class representative is one of the brute-force
        # solutions (so the classes coincide, not merely the counts)
        sol_set = set(sols)
        for r in nonab:
            assert r.matrices in sol_set

    def test_wirtinger_vs_two_bridge_counts(self):
        # the class counts are presentation-independent group invariants
        for text, pq in ((TREFOIL, (3, 1)), (FIG8, (5, 3))):
            for p in (5, 7):
                a = enumerate_sl2(wirtinger(parse_pd(text)),
                                  RepSearchConfig(p=p))
                b = enumerate_sl2(two_bridge_presentation(*pq),
                                  RepSearchConfig(p=p))
                assert len(a) == len(b)

    def test_all_enumerated_reps_verify(self):
        pres = wirtinger(parse_pd(FIG8))
        for p in (3, 5, 7):
            for r in enumerate_sl2(pres, RepSearchConfig(p=p)):
                assert verify_representation(pres, r)

    def test_abelian_inclusion(self):
        pres = wirtinger(parse_pd(TREFOIL))
        cfg = RepSearchConfig(p=5, nonabelian_only=False)
        with_ab = enumerate_sl2(pres, cfg)
        without = enumerate_sl2(pres, RepSearchConfig(p=5))
        ab = [r for r in with_ab if r.is_abelian]
        assert len(with_ab) == len(without) + len(ab)
        # one abelian class per SL2(F_5) conjugacy class: 2 scalars,
        # 3 companion traces, and two unipotent classes per sign
        assert len(ab) == 2 + 3 + 4
        for r in ab:
            assert verify_representation(pres, r)

    def test_raw_mode_contains_class_reps(self):
        pres = two_bridge_presentation(3, 1)
        raw = enumerate_sl2(pres, RepSearchConfig(p=5, up_to_conjugacy=False))
        classes = enumerate_sl2(pres, RepSearchConfig(p=5))
        raw_set = {r.matrices for r in raw}
        for r in classes:
            assert r.matrices in raw_set
        assert len(raw) >= len(classes)
        for r in raw:
            assert verify_representation(pres, r)


class TestDeterminismAndBudget:
    def test_deterministic(self):
        pres = wirtinger(parse_pd(FIG8))
        a = enumerate_sl2(pres, RepSearchConfig(p=7))
        b = enumerate_sl2(pres, RepSearchConfig(p=7))
        assert [r.matrices for r in a] == [r.matrices for r in b]

    def test_budget_exception(self):
        pres = wirtinger(parse_pd(FIG8))
        with pytest.raises(SearchBudgetExceeded):
            enumerate_sl2(pres, RepSearchConfig(p=7, max_nodes=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RepSearchConfig(p=6)
        with pytest.raises(ValueError):
            RepSearchConfig(p=5, max_nodes=0)

    def test_non_wirtinger_rejected(self):
        from knotforge.presentation import GroupPresentation
        pres = GroupPresentation(("a",), (((0, 1),),), is_wirtinger=False)
        with pytest.raises(ValueError):
            enumerate_sl2(pres, RepSearchConfig(p=5))


class TestSerialization:
    def test_round_trip(self):
        pres = two_bridge_presentation(9, 5)
        rho = Representation(presentation=pres, p=7, d=2,
                             matrices=(((0, 1), (6, 4)), ((0, 2), (3, 4))))
        back = rep_from_json(rep_to_json(rho), pres)
        assert back.matrices == rho.matrices
        assert back.p == rho.p and back.d == rho.d

    def test_bad_json(self):
        pres = two_bridge_presentation(3, 1)
        with pytest.raises(ValueError):
            rep_from_json(json.dumps({"p": 5}), pres)
        with pytest.raises(ValueError):
            rep_from_json(json.dumps({"p": 5, "generators": []}), pres)

    def test_matrix_count_enforced(self):
        pres = two_bridge_presentation(3, 1)
        with pytest.raises(ValueError):
            Representation(presentation=pres, p=5, d=2,
                           matrices=(identity_matrix(2),))
