import hashlib
import random

import pytest

from knotforge.diagram import (MarkedDiagram, SymUnionSpec, parse_pd,
                               symmetric_union_pd)
from knotforge.presentation import (GroupPresentation, GroupRingElt,
                                    build_symun_presentation, concat,
                                    deficiency_one, eliminate_generators,
                                    format_word,
                                    fox_derivative, inverse_word,
                                    lamm_pullback, map_word, parse_word,
                                    reduce_word, two_bridge_presentation,
                                    wirtinger, word_exponent_sum)
from knotforge.reps import (RepSearchConfig, Representation, enumerate_sl2,
                            evaluate_word, identity_matrix, mat_mul,
                            verify_representation)
from knotforge.twisted import classical_alexander

from support import grid_cells, pd_faces, presentation_alexander

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
        rho = Representation(p=7, d=2,
                             matrices=(((0, 1), (6, 4)), ((0, 2), (3, 4))))
        assert verify_representation(pres, rho)

    def test_same_pair_fails_other_presentations(self):
        mats = (((0, 1), (6, 4)), ((0, 2), (3, 4)))
        for q in (1, 2, 7):
            pres = two_bridge_presentation(9, q)
            rho = Representation(p=7, d=2, matrices=mats)
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


# sha256 of repr((union relators, union longitude, partial relators, phi
# images)) for each cell of the acceptance grid, union twists 2m: the
# template's words pinned exactly, the longitude included, which
# format_presentation leaves out of the golden reports
GRID_TEMPLATE_DIGESTS = {
    ("3_1", (-2,)):
        "3096d0d8330712a83211d2c60fc1702016b74d3bfb8a9f2123d91b9348d59b7b",
    ("3_1", (-1,)):
        "5b15b7a2864bfb481241d9fb07fbf584fd4ceecd7ad1591d19aa160e93b7afbd",
    ("3_1", (0,)):
        "c1228539e19faa06671af98cc8e6af368df35b588a7e761d86f148776f46cf66",
    ("3_1", (1,)):
        "4eba747ea84234927d6cb87daae961fa2b0411e348328b74dec76467232926ec",
    ("3_1", (2,)):
        "99de50abcb7d0c4088dec2c5f2122175ab20414d99b539eb9ca0c763bcbe9c8d",
    ("3_1", (1, 1)):
        "82d513bd5d29610db967bd0e4cc23a42bbb0cc2e0f2b2bdc0743e0afe26e94c9",
    ("3_1", (-1, 2)):
        "6f8e03ba3e8f429171acefeec7d0c6e72fd7b29fe18b46b61b5364636500da9e",
    ("3_1", (2, -2)):
        "7cd76c1f5dd37184e797960d05675723fbbcdda730a9d64dae678c7c0d15e7b1",
    ("3_1", (0, -1)):
        "c54a1e874e489f7de43f9da5918942d3a271a9fedb85b1dd9e578ec5893904e6",
    ("3_1", (1, -1, 2)):
        "bea29c5caf049aad044a8e612b6c596aa88ec71f180085851eb622ee4af1ce06",
    ("3_1", (-2, 0, 1)):
        "83f56a31dfd28e73d544a384359b34a9192e5c8283e0c3eaf8ba933facfd5b5d",
    ("3_1", (2, 2, -2)):
        "8c6f8a3323e43490e09233aa468ca1cc1bb59eabdebfc956d982d881c778f78d",
    ("4_1", (-2,)):
        "11bb44e005ecefdff59a44f0fdb2269abbc8ed5db174a22333ca1e69879093e7",
    ("4_1", (-1,)):
        "5b292547375153fcad36a6b9191dad7959d57d6b8723f83219e09618d3fbc03e",
    ("4_1", (0,)):
        "c553eb02841b92fa525e7f02cdc565deb5e3925b30e487edceb9af3d55b7262d",
    ("4_1", (1,)):
        "a056e06a9dd83ae40c6452e2c5187f3fcb8addc0d231e706eb6a298b5ac538b0",
    ("4_1", (2,)):
        "a6eb4fbee9524b414ea0e1f6ffb173770c473cb24e8d00f69591f1f9a422a1dd",
    ("4_1", (1, 1)):
        "d24837718b4056ef273ce58cdfbe6932ad8e5b1277d67dbf2fc3f828e6c387e6",
    ("4_1", (-1, 2)):
        "e150265838827fc976e1f12c05f6e268055d143858a26df416acf69c0f16bf2c",
    ("4_1", (2, -2)):
        "197f26e7a1f93e6490e0eec08a68add3e4d116948925d3424650d7335ae8a65b",
    ("4_1", (0, -1)):
        "03f779be6245c5bee8e9dfd68dd3601cfe366160e829f69935470fbb990c3717",
    ("4_1", (1, -1, 2)):
        "6a94f179cde0574af985b94a9bac96aef4b1b57d13e30714683f2360b8182d68",
    ("4_1", (-2, 0, 1)):
        "36e97f2dfb7a7e8c107937a4205de3dca7caa582b83dc2472458f1dd7e8afd60",
    ("4_1", (2, 2, -2)):
        "d5bf0b024e7de406a7b056c2f0b75ec84c1f536870c5c2a42ea817645272f758",
    ("6_1", (-2,)):
        "96bbb2412f634dd58665c4b481cce7cfc1e99917a7ca8efa7e7898cd566d9ef4",
    ("6_1", (-1,)):
        "04ef6190e237a8281976029be2112751ff007153eb6e0067b3d5c4da4961712d",
    ("6_1", (0,)):
        "a3511ded681d5a64cca124c23dfac0a6369b784e58e74eed75ba04960366145b",
    ("6_1", (1,)):
        "ced82fbeb50e0cca7d9f96fd8eca1890439a07a4768508855082adc7a28a41df",
    ("6_1", (2,)):
        "dc1f3f59455d7b5a239e3378a17f1642d838de1209fadceaff08f80dd942eb14",
    ("6_1", (1, 1)):
        "c76dbbfe594835ff7fdc70e445581f94f23dbed8ceb597c4f4f42c1ec5d04e14",
    ("6_1", (-1, 2)):
        "9ab2b477fa90fa6a7ae45203c9355a2ff1007c3f10edf264da50b7dcce617e58",
    ("6_1", (2, -2)):
        "40657e7a5c41dce88026ccc3fe6b488d0b12a44f8603129b99513b295b02b98c",
    ("6_1", (0, -1)):
        "bbd5b1dfa2748b7227135c0f5253d5ac965efa7674de7be7c5a11a4a9f6f1294",
    ("6_1", (1, -1, 2)):
        "1b4cd91592f4e53b67e6c52d08e3ddeeb159c3e9f36f1488a28ac99cbd48a8b6",
    ("6_1", (-2, 0, 1)):
        "f035d569f4097bc265ce87185cdb324f78398957e683cfd769010474c27b87ac",
    ("6_1", (2, 2, -2)):
        "c43da7cc71828bcdac03ca6bb0f1c5cec8a7ee6663db2418d0ed2f9fe5393b07",
}


def test_grid_templates_are_pinned():
    got = {}
    for name, pd, marks, ms in grid_cells():
        spec = SymUnionSpec(MarkedDiagram(pd, marks), tuple(2 * m for m in ms))
        union, partial, phi = build_symun_presentation(spec)
        words = (union.relators, union.longitude, partial.relators,
                 phi.images)
        got[name, ms] = hashlib.sha256(repr(words).encode()).hexdigest()
    assert got == GRID_TEMPLATE_DIGESTS


class TestTemplateAgainstUnionPD:
    """Where the union PD is a planar diagram, it and the template present
    the same knot group: both give the same Delta and the same number of
    nonabelian SL(2, F_5) classes, and the template's longitude commutes
    with its meridian under every class."""

    # (partial, marks, twists); 6 of the 14 with two twist regions
    PLANAR = [("3_1", (2, 4), (2,)), ("3_1", (2, 4), (-2,)),
              ("3_1", (2, 5), (2,)), ("3_1", (2, 5), (-2,)),
              ("4_1", (1, 3), (2,)), ("4_1", (1, 3), (-2,)),
              ("4_1", (1, 4), (2,)), ("4_1", (1, 4), (-2,)),
              ("3_1", (2, 4, 5), (2, -2)), ("3_1", (2, 4, 5), (2, 2)),
              ("3_1", (2, 4, 6), (-2, 2)),
              ("4_1", (1, 3, 4), (-2, 2)), ("4_1", (1, 3, 4), (-2, -2)),
              ("4_1", (1, 4, 3), (2, -2))]

    def test_face_count(self):
        assert pd_faces(parse_pd(TREFOIL)) == 3 + 2
        assert pd_faces(parse_pd(FIG8)) == 4 + 2
        # a union whose marks do not let it close up in the plane: genus 2
        spec = SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3, 5)),
                            (2, -2))
        union = symmetric_union_pd(spec)
        assert pd_faces(union) == union.n - 2

    @pytest.mark.parametrize("name, marks, twists", PLANAR)
    def test_planar_unions_agree(self, name, marks, twists):
        pd = parse_pd({"3_1": TREFOIL, "4_1": FIG8}[name])
        spec = SymUnionSpec(MarkedDiagram(pd, marks), twists)
        union_pd = symmetric_union_pd(spec)
        assert pd_faces(union_pd) == union_pd.n + 2
        union = build_symun_presentation(spec)[0]
        delta = presentation_alexander(union)
        assert delta == classical_alexander(union_pd)
        assert delta == presentation_alexander(wirtinger(union_pd))
        cfg = RepSearchConfig(p=5)
        reps = enumerate_sl2(union, cfg)
        assert len(reps) == len(enumerate_sl2(wirtinger(union_pd), cfg))
        for rho in reps:
            lam = evaluate_word(union.longitude, rho.matrices, 5)
            mu = rho.matrices[union.meridian]
            assert mat_mul(lam, mu, 5) == mat_mul(mu, lam, 5)


class TestEliminateIdentifications:
    """The Tietze pass, identifications x_a x_b^-1 being its two-letter
    case."""

    def test_eliminates_in_scan_order(self):
        # x3 x1^-1 gives b = d (d is the meridian and stays), then
        # a d a^-1 e^-1 gives e = a d a^-1, then c^-1 a d a^-1 drops c: the
        # kept generator a and the meridian are left, with no relator
        pres = GroupPresentation(
            ("a", "b", "c", "d", "e"),
            (((3, 1), (1, -1)), ((0, 1), (1, 1), (0, -1), (4, -1)),
             ((2, -1), (4, 1))),
            meridian=3, longitude=((3, 1), (4, -1)))
        reduced, kept = eliminate_generators(pres, 0)
        assert kept == (0, 3)
        assert reduced.names == ("a", "d") and reduced.relators == ()
        assert reduced.meridian == 1 and reduced.longitude is None
        assert reduced.deficiency == pres.deficiency
        # with b kept, the identification of b and the meridian d stays
        reduced, kept = eliminate_generators(pres, 1)
        assert kept == (0, 1, 3) and reduced.meridian == 2
        assert reduced.relators == (((2, 1), (1, -1)),)

    def test_nothing_to_eliminate(self):
        # each elimination would give a relator whose Fox row spans three
        # powers of t
        pres = deficiency_one(wirtinger(parse_pd(TREFOIL)))
        reduced, kept = eliminate_generators(pres, 0)
        assert kept == (0, 1, 2)
        assert reduced.relators == pres.relators

    def test_cycle_falls_back(self):
        # x1 = x2, x2 = x3, x3 = x1: x2 goes, then the cycle x1 = x3 said
        # twice stays, as eliminating x3 would empty the other relator
        pres = GroupPresentation(
            ("x1", "x2", "x3", "x4"),
            (((0, 1), (1, -1)), ((1, 1), (2, -1)), ((2, 1), (0, -1))))
        reduced, kept = eliminate_generators(pres, 0)
        assert kept == (0, 2, 3)
        assert reduced.relators == (((0, 1), (1, -1)), ((1, 1), (0, -1)))
        assert reduced.deficiency == 1

    def test_empty_relator_is_kept(self):
        # a relator that reduces to 1 stays a (zero) Fox row: dropping it
        # would change the deficiency
        pres = GroupPresentation(("x1", "x2"), (((0, 1), (0, -1)),))
        reduced, kept = eliminate_generators(pres, 0)
        assert kept == (0, 1) and reduced.relators == ((),)

    def test_symmetric_unions_shrink_to_their_arcs(self):
        # the template's cut points, v1 and the chain ends go, and so do
        # crossing generators: a union keeps at most as many generators as
        # its diagram has arcs, and the partial knot as many as its own
        pd = parse_pd(TREFOIL)
        sizes = []
        for marks, twists in (((1, 3), (2,)), ((1, 3, 5), (2, -2)),
                              ((1, 2, 4, 5), (0, 2, -4))):
            spec = SymUnionSpec(MarkedDiagram(pd, marks), twists)
            union, partial, _ = build_symun_presentation(spec)
            for pres, arcs in ((union, wirtinger(symmetric_union_pd(spec))
                                .num_generators), (partial, pd.n)):
                reduced, kept = eliminate_generators(pres, 0)
                sizes.append((reduced.num_generators, arcs))
                assert reduced.deficiency == pres.deficiency == 1
                assert kept[0] == 0 and reduced.is_wirtinger
        assert sizes == [(8, 8), (3, 3), (10, 10), (3, 3), (9, 12), (3, 3)]
