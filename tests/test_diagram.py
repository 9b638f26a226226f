import random

import pytest

from knotforge import diagram
from knotforge.algebra import unit_equal
from knotforge.diagram import (InvalidDiagram, MarkedDiagram, PDCode,
                               SymUnionSpec, format_pd, parse_pd, pd_from_json,
                               symmetric_union_pd)
from knotforge.twisted import classical_alexander, knot_determinant

from support import (BUNDLED, pd_to_json, reference_crossing_roles,
                     reference_subarcs, reference_walk, seed7_grid_specs)

TREFOIL = "X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]"
FIG8 = "X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] X[2,5,3,6]"


def trefoil():
    return parse_pd(TREFOIL)


def fig8():
    return parse_pd(FIG8)


class TestParsing:
    def test_round_trip(self):
        pd = trefoil()
        assert parse_pd(format_pd(pd)) == pd

    def test_json_round_trip(self):
        pd = fig8()
        assert pd_from_json(pd_to_json(pd)) == pd

    def test_empty_is_unknot(self):
        pd = PDCode([])
        assert len(pd.crossings) == 0
        assert pd.writhe == 0

    def test_bad_tuple_length(self):
        with pytest.raises(InvalidDiagram):
            PDCode([(1, 2, 3)])

    def test_bad_edge_multiplicity(self):
        # edge 1 appears three times
        with pytest.raises(InvalidDiagram):
            PDCode([(1, 2, 1, 4), (2, 1, 4, 3)])

    def test_garbage_text(self):
        with pytest.raises(InvalidDiagram):
            parse_pd("X[1,2,3]")


class TestNormalization:
    def test_under_in_first(self):
        # rotating each tuple by two positions still normalizes to a valid
        # diagram of the same knot (the strand is walked in reverse)
        pd = trefoil()
        rotated = PDCode([(c[2], c[3], c[0], c[1]) for c in pd.crossings])
        assert rotated.writhe == pd.writhe
        assert unit_equal(classical_alexander(rotated),
                          classical_alexander(pd))

    def test_arbitrary_labels_relabel(self):
        pd = trefoil()
        shifted = PDCode([tuple(100 * e + 7 for e in c) for c in pd.crossings])
        assert shifted.relabeled() == pd.relabeled()

    def test_relabeled_idempotent(self):
        pd = fig8().relabeled()
        assert pd.relabeled() == pd


def walk_of(crossings):
    """PDCode's normalized crossings, circuit, slots, over-entries and
    writhe, or the text of its InvalidDiagram."""
    try:
        pd = PDCode(crossings)
    except InvalidDiagram as exc:
        return str(exc)
    return pd.crossings, pd._edge_order, pd._slots, pd._over_entry, pd.writhe


def reference_of(crossings):
    """The same, from the two-pass reference walk."""
    try:
        normalized, order, slots, over_entry = reference_walk(crossings)
    except InvalidDiagram as exc:
        return str(exc)
    writhe = sum(1 if o == 3 else -1 for o in over_entry)
    return normalized, order, slots, over_entry, writhe


def random_pairings(rng, count, max_n=8):
    """count PD inputs of 1..max_n crossings: the labels 1..2n, each twice,
    dealt at random into the 4n slots."""
    for _ in range(count):
        n = rng.randint(1, max_n)
        labels = [e for e in range(1, 2 * n + 1) for _ in (0, 1)]
        rng.shuffle(labels)
        yield [tuple(labels[i:i + 4]) for i in range(0, 4 * n, 4)]


class TestSingleWalk:
    """PDCode walks each circuit once and shifts the slots of the tuples it
    rotates; the two-pass reference walk re-walks the rotated tuples."""

    def test_random_pairings_match_the_reference_walk(self):
        texts = []
        for crossings in random_pairings(random.Random(20261020), 10000):
            got = walk_of(crossings)
            assert got == reference_of(crossings), crossings
            if isinstance(got, str):
                texts.append(got)
        # 3573 are knots, and a walk fails only on a link
        assert len(texts) == 10000 - 3573
        assert set(texts) == {"diagram is not a single-component knot"}

    def test_bundled_knots_match_the_reference_walk(self):
        rng = random.Random(27)
        for name in sorted(BUNDLED.entries):
            crossings = BUNDLED[name].crossings
            mirrored = [c[1:] + c[:1] for c in crossings]
            rotated = [c[2:] + c[:2] if rng.random() < 0.5 else c
                       for c in crossings]
            for variant in crossings, mirrored, rotated:
                assert walk_of(variant) == reference_of(variant), name

    def test_grid_unions_match_the_reference_walk(self, monkeypatch):
        built = []  # the tuples symmetric_union_pd hands to PDCode

        def record(tuples):
            built.append(tuples)
            return PDCode(tuples)

        monkeypatch.setattr(diagram, "PDCode", record)
        for spec in seed7_grid_specs():
            symmetric_union_pd(spec)
        rotated = []  # per union, the tuples the walk rotates
        for tuples in built:
            got = walk_of(tuples)
            assert got == reference_of(tuples)
            rotated.append(sum(a != b for a, b in zip(got[0], tuples)))
        # every union rotates some tuples: 156 of the 486 crossings
        assert len(built) == 36 and sum(map(len, built)) == 486
        assert sum(rotated) == 156 and min(rotated) == 3

    def test_two_component_code_is_refused(self):
        with pytest.raises(InvalidDiagram) as info:
            PDCode([(1, 3, 2, 4), (3, 1, 4, 2)])
        assert str(info.value) == "diagram is not a single-component knot"


class TestSignsAndWrithe:
    def test_trefoil_writhe(self):
        assert trefoil().writhe == -3
        assert all(trefoil().sign(i) == -1 for i in range(3))

    def test_fig8_writhe_zero(self):
        assert fig8().writhe == 0

    def test_mirror_negates_writhe(self):
        for pd in (trefoil(), fig8()):
            assert pd.mirror().writhe == -pd.writhe

    def test_mirror_involution(self):
        # mirror twice recovers the same knot (labels may walk the strand in
        # the opposite direction, so compare invariants)
        for pd in (trefoil(), fig8()):
            twice = pd.mirror().mirror()
            assert twice.writhe == pd.writhe
            assert sorted(twice.sign(i) for i in range(twice.n)) == \
                sorted(pd.sign(i) for i in range(pd.n))
            assert unit_equal(classical_alexander(twice),
                              classical_alexander(pd))

    def test_reflect_involution(self):
        for pd in (trefoil(), fig8()):
            twice = pd.reflect().reflect().relabeled()
            assert sorted(twice.crossings) == sorted(pd.relabeled().crossings)

    def test_mirror_preserves_alexander(self):
        pd = trefoil()
        assert unit_equal(classical_alexander(pd),
                          classical_alexander(pd.mirror()))


class TestSubarcs:
    def test_no_cuts_gives_wirtinger_arcs(self):
        pd = trefoil()
        roles, events = pd.subarcs()
        assert len(events) == 3
        assert all(kind == "under" for kind, _ in events)
        assert sorted(ci for _, ci in events) == list(range(pd.n))

    def test_cut_increases_arc_count(self):
        pd = trefoil()
        _, events0 = pd.subarcs()
        _, events1 = pd.subarcs((1, 3))
        assert len(events1) == len(events0) + 2
        assert sum(1 for kind, _ in events1 if kind == "cut") == 2
        # sub-arc 0 begins just after the first cut, so the last ends there
        assert events1[-1] == ("cut", 1)

    def test_crossing_roles_consistent(self):
        pd = fig8()
        roles, events = pd.subarcs()
        assert len(roles) == len(pd.crossings)
        for in_arc, out_arc, over_arc, sign in roles:
            assert sign in (-1, 1)
            assert 0 <= in_arc < len(events)
            assert 0 <= out_arc < len(events)
            assert 0 <= over_arc < len(events)

    def test_matches_the_reference(self):
        # roles, breaks and sub-arc count against the half-edge walk with
        # start_cut and crossing_roles, uncut and cut at seeded edges
        def check(pd, cuts):
            arcs, arc_of, events = reference_subarcs(
                pd, cuts, cuts[0] if cuts else None)
            want = reference_crossing_roles(pd, arc_of), events
            assert pd.subarcs(cuts) == want, (pd, cuts)
            assert len(want[1]) == len(arcs)

        rng = random.Random(29)
        knots = 0
        for crossings in random_pairings(random.Random(20261020), 10000):
            try:
                pd = PDCode(crossings)
            except InvalidDiagram:
                continue
            knots += 1
            check(pd, ())
            size = rng.randint(1, min(4, 2 * pd.n))
            check(pd, tuple(rng.sample(pd.edges, size)))
        assert knots == 3573
        for name in sorted(BUNDLED.entries):
            pd = BUNDLED[name]
            check(pd, ())
            for size in (1, 2, 3, 5):
                check(pd, tuple(rng.sample(pd.edges, size)))
        for marks in ((1,), (2, 1), (1, 3, 2)):
            check(PDCode([]), marks)


class TestMarkedDiagram:
    def test_k_counts_twist_regions(self):
        md = MarkedDiagram(trefoil(), (1, 3))
        assert md.k == 1

    def test_unknown_edge_rejected(self):
        with pytest.raises(InvalidDiagram):
            MarkedDiagram(trefoil(), (1, 99))

    def test_twist_count_must_match(self):
        with pytest.raises(InvalidDiagram):
            SymUnionSpec(MarkedDiagram(trefoil(), (1, 3)), (2, 2))

    def test_parity(self):
        assert SymUnionSpec(MarkedDiagram(trefoil(), (1, 3)), (2,)).is_even
        assert not SymUnionSpec(MarkedDiagram(trefoil(), (1, 3)), (3,)).is_even


class TestSymmetricUnion:
    def test_partial_knot_is_base(self):
        spec = SymUnionSpec(MarkedDiagram(trefoil(), (1, 3)), (0,))
        assert spec.partial.base == trefoil().relabeled()

    def test_crossing_count(self):
        # two copies of the base diagram plus the twist crossings
        pd = trefoil()
        for twists in ((0,), (2,), (-4,)):
            spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), twists)
            union = symmetric_union_pd(spec)
            assert len(union.crossings) == 2 * 3 + sum(abs(n) for n in twists)

    def test_zero_twists_connected_sum_alexander(self):
        # with no twist crossings the union is K # K*, so the Alexander
        # polynomial is the square of the partial's
        for pd in (trefoil(), fig8()):
            spec = SymUnionSpec(MarkedDiagram(pd, (1, 3)), (0,))
            union = symmetric_union_pd(spec)
            dp = classical_alexander(pd)
            assert unit_equal(classical_alexander(union), dp * dp)

    def test_determinant_square_property(self):
        # det of any symmetric union is the square of the partial knot's det
        rng = random.Random(20260824)
        pds = [trefoil(), fig8()]
        for _ in range(12):
            pd = rng.choice(pds)
            edges = list(pd.edges)
            k = rng.choice([1, 2])
            marks = tuple(sorted(rng.sample(edges, k + 1)))
            twists = tuple(rng.randrange(-3, 4) for _ in range(k))
            spec = SymUnionSpec(MarkedDiagram(pd, marks), twists)
            union = symmetric_union_pd(spec)
            assert knot_determinant(union) == knot_determinant(pd) ** 2

    def test_even_union_alexander_square(self):
        spec = SymUnionSpec(MarkedDiagram(fig8(), (1, 3, 5)), (2, -2))
        union = symmetric_union_pd(spec)
        dp = classical_alexander(fig8())
        assert unit_equal(classical_alexander(union), dp * dp)

    def test_union_is_valid_pd(self):
        spec = SymUnionSpec(MarkedDiagram(trefoil(), (1, 3)), (2,))
        union = symmetric_union_pd(spec)
        # a valid single-component PD: relabeling succeeds and each edge
        # appears exactly twice
        union.relabeled()
        seen = {}
        for c in union.crossings:
            for e in c:
                seen[e] = seen.get(e, 0) + 1
        assert set(seen.values()) == {2}
