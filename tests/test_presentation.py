import random

import pytest

from knotforge.diagram import (MarkedDiagram, SymUnionSpec, parse_pd,
                               symmetric_union_pd)
from knotforge.presentation import (GroupPresentation, GroupRingElt,
                                    build_symun_presentation, concat,
                                    deficiency_one,
                                    eliminate_identifications, format_word,
                                    fox_derivative, inverse_word,
                                    lamm_pullback, map_word, parse_word,
                                    reduce_word, two_bridge_presentation,
                                    wirtinger, word_exponent_sum)
from knotforge.reps import (RepSearchConfig, Representation, enumerate_sl2,
                            evaluate_word, identity_matrix, mat_mul,
                            verify_representation)

TREFOIL = "X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]"
FIG8 = "X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] X[2,5,3,6]"


def rand_word(rng, ngen, maxlen=8):
    return reduce_word(tuple((rng.randrange(ngen), rng.choice((1, -1)))
                             for _ in range(rng.randrange(maxlen + 1))))


class TestWords:
    def test_reduce_cancels(self):
        assert reduce_word(((0, 1), (0, -1))) == ()
        assert reduce_word(((0, 1), (1, 1), (1, -1), (0, 1))) == ((0, 1), (0, 1))

    def test_inverse(self):
        rng = random.Random(1)
        for _ in range(100):
            w = rand_word(rng, 3)
            assert reduce_word(concat(w, inverse_word(w))) == ()

    def test_exponent_sum(self):
        assert word_exponent_sum(((0, 2), (1, -1), (0, -2))) == -1

    def test_parse_format_round_trip(self):
        names = ("a", "b", "c")
        rng = random.Random(2)
        for _ in range(100):
            w = rand_word(rng, 3)
            assert parse_word(format_word(w, names), names) == w

    def test_map_word_identity(self):
        rng = random.Random(3)
        ident = tuple(((g, 1),) for g in range(4))
        for _ in range(50):
            w = rand_word(rng, 4)
            assert map_word(w, ident) == w


class TestFoxCalculus:
    def test_generator_rules(self):
        # d/dx (x) = 1, d/dx (x^-1) = -x^-1, d/dx (y) = 0
        one = GroupRingElt.from_word(())
        assert fox_derivative(((0, 1),), 0) == one
        assert fox_derivative(((0, -1),), 0) == -GroupRingElt.from_word(((0, -1),))
        assert fox_derivative(((1, 1),), 0) == GroupRingElt()

    def test_fundamental_identity_1000(self):
        # d(uv) = du + u * dv as elements of the group ring
        rng = random.Random(20260824)
        for _ in range(1000):
            ngen = rng.randrange(1, 4)
            u = rand_word(rng, ngen)
            v = rand_word(rng, ngen)
            j = rng.randrange(ngen)
            lhs = fox_derivative(reduce_word(concat(u, v)), j)
            rhs = fox_derivative(u, j) + fox_derivative(v, j).left_mul_word(u)
            assert lhs == rhs


class TestWirtinger:
    def test_structure(self):
        for text, n in ((TREFOIL, 3), (FIG8, 4)):
            pres = wirtinger(parse_pd(text))
            assert pres.num_generators == n
            assert len(pres.relators) == n
            assert pres.is_wirtinger
            for r in pres.relators:
                assert word_exponent_sum(r) == 0

    def test_longitude_has_zero_exponent_sum(self):
        for text in (TREFOIL, FIG8):
            pres = wirtinger(parse_pd(text))
            assert pres.longitude is not None
            assert word_exponent_sum(pres.longitude) == 0

    def test_longitude_commutes_with_meridian(self):
        # the peripheral subgroup is abelian, so every representation must
        # send (meridian, longitude) to a commuting pair
        pres = wirtinger(parse_pd(FIG8))
        mu = ((pres.meridian, 1),)
        for rho in enumerate_sl2(pres, RepSearchConfig(p=5)):
            L = rho(pres.longitude)
            M = rho(mu)
            assert mat_mul(L, M, rho.p) == mat_mul(M, L, rho.p)

    def test_deficiency_one(self):
        pres = wirtinger(parse_pd(TREFOIL))
        assert pres.deficiency == 0
        d1 = deficiency_one(pres)
        assert d1.deficiency == 1
        assert d1.relators == pres.relators[:-1]
        # already deficiency 1: returned unchanged
        assert deficiency_one(d1) is d1


class TestTwoBridge:
    def test_trefoil_braid_relator(self):
        # the (3,1) presentation is <a,b | aba = bab>
        pres = two_bridge_presentation(3, 1)
        assert pres.num_generators == 2
        assert len(pres.relators) == 1
        aba = ((0, 1), (1, 1), (0, 1))
        bab = ((1, 1), (0, 1), (1, 1))
        assert pres.relators[0] == reduce_word(concat(aba, inverse_word(bab)))

    def test_validation(self):
        with pytest.raises(ValueError):
            two_bridge_presentation(4, 1)
        with pytest.raises(ValueError):
            two_bridge_presentation(9, 3)

    def test_f7_pair_on_9_5(self):
        # an explicit SL(2,F_7) pair satisfying the b(9/5) braid relator
        pres = two_bridge_presentation(9, 5)
        rho = Representation(presentation=pres, p=7, d=2,
                             matrices=(((0, 1), (6, 4)), ((0, 2), (3, 4))))
        assert verify_representation(pres, rho)

    def test_same_pair_fails_other_presentations(self):
        mats = (((0, 1), (6, 4)), ((0, 2), (3, 4)))
        for q in (1, 2, 7):
            pres = two_bridge_presentation(9, q)
            rho = Representation(presentation=pres, p=7, d=2, matrices=mats)
            assert not verify_representation(pres, rho)


class TestSymUnionPresentation:
    def specs(self):
        pd = parse_pd(TREFOIL)
        return [SymUnionSpec(MarkedDiagram(pd, (1, 3)), (2,)),
                SymUnionSpec(MarkedDiagram(pd, (1, 3, 5)), (2, -2)),
                SymUnionSpec(MarkedDiagram(pd, (1, 2, 4, 5)), (0, 2, -4))]

    def test_deficiencies(self):
        for spec in self.specs():
            union, partial, phi = build_symun_presentation(spec)
            assert union.deficiency == 1
            assert partial.deficiency == 1
            assert union.is_wirtinger and partial.is_wirtinger

    def test_odd_twists_rejected(self):
        pd = parse_pd(TREFOIL)
        spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (3,))
        with pytest.raises(ValueError):
            build_symun_presentation(spec)

    def test_phi_preserves_meridian(self):
        for spec in self.specs():
            union, partial, phi = build_symun_presentation(spec)
            assert phi(((union.meridian, 1),)) == ((partial.meridian, 1),)

    def test_phi_respects_relators(self):
        # the image of every union relator must die in the partial group;
        # checked by evaluating under every enumerated representation
        for spec in self.specs()[:2]:
            union, partial, phi = build_symun_presentation(spec)
            reps = enumerate_sl2(partial, RepSearchConfig(p=5))
            ident = identity_matrix(2)
            for rho in reps:
                for r in union.relators:
                    assert evaluate_word(phi(r), rho.matrices, rho.p) == ident

    def test_phi_kills_longitude(self):
        # the union's longitude maps into the kernel: its image evaluates to
        # the identity under every representation of the partial group
        for spec in self.specs()[:2]:
            union, partial, phi = build_symun_presentation(spec)
            assert union.longitude is not None
            lam = phi(union.longitude)
            ident = identity_matrix(2)
            for rho in enumerate_sl2(partial, RepSearchConfig(p=7)):
                assert evaluate_word(lam, rho.matrices, rho.p) == ident

    def test_lamm_pullback_valid(self):
        for spec in self.specs()[:2]:
            union, partial, phi = build_symun_presentation(spec)
            for rho in enumerate_sl2(partial, RepSearchConfig(p=5))[:3]:
                lifted = lamm_pullback(phi, rho)
                assert verify_representation(union, lifted)

    def test_bad_generator_map_rejected(self):
        # scrambling one image breaks a relator image; the map constructor
        # refuses it outright
        union, partial, phi = build_symun_presentation(self.specs()[0])
        from knotforge.presentation import GeneratorMap
        images = list(phi.images)
        images[2] = ((partial.meridian, 1), (partial.meridian, 1))
        with pytest.raises(ValueError):
            GeneratorMap(union, partial, tuple(images))


class TestEliminateIdentifications:
    def test_merges_into_the_lowest_index(self):
        # x3 = x1 and x2 = x4 (either orientation); x0 x1 x0^-1 x4^-1 stays
        pres = GroupPresentation(
            ("a", "b", "c", "d", "e"),
            (((3, 1), (1, -1)), ((0, 1), (1, 1), (0, -1), (4, -1)),
             ((2, -1), (4, 1))),
            meridian=3, longitude=((3, 1), (4, -1)))
        reduced, classes = eliminate_identifications(pres)
        assert classes == (0, 1, 2, 1, 2)
        assert reduced.names == ("a", "b", "c")
        assert reduced.relators == (((0, 1), (1, 1), (0, -1), (2, -1)),)
        assert reduced.meridian == 1
        assert reduced.longitude == ((1, 1), (2, -1))
        assert reduced.deficiency == pres.deficiency

    def test_nothing_to_eliminate(self):
        pres = deficiency_one(wirtinger(parse_pd(TREFOIL)))
        assert eliminate_identifications(pres) is None

    def test_cycle_falls_back(self):
        # x1 = x2, x2 = x3, x3 = x1: the third closes a cycle
        pres = GroupPresentation(
            ("x1", "x2", "x3", "x4"),
            (((0, 1), (1, -1)), ((1, 1), (2, -1)), ((2, 1), (0, -1))))
        assert eliminate_identifications(pres) is None

    def test_symmetric_unions_shrink_to_their_arcs(self):
        # the template's cut points, v1 and the chain ends go; one generator
        # more than the union diagram has arcs is left (deficiency 1 against
        # the Wirtinger presentation's 0), and the partial knot keeps its arcs
        # plus one likewise
        pd = parse_pd(TREFOIL)
        for marks, twists in (((1, 3), (2,)), ((1, 3, 5), (2, -2)),
                              ((1, 2, 4, 5), (0, 2, -4))):
            spec = SymUnionSpec(MarkedDiagram(pd, marks), twists)
            union, partial, _ = build_symun_presentation(spec)
            for pres, arcs in ((union, wirtinger(symmetric_union_pd(spec))
                                .num_generators), (partial, pd.n)):
                reduced, classes = eliminate_identifications(pres)
                assert reduced.num_generators == arcs + 1
                assert reduced.deficiency == pres.deficiency == 1
                assert classes[0] == 0 and reduced.is_wirtinger
                assert all(len(r) == 4 for r in reduced.relators)
