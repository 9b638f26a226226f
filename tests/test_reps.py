import json
import random
import re

import pytest

import knotforge.reps
from knotforge.cli import KnotTable
from knotforge.diagram import MarkedDiagram, SymUnionSpec, parse_pd
from knotforge.presentation import (build_symun_presentation,
                                    deficiency_one, wirtinger)
from knotforge.reps import (RepSearchConfig, Representation,
                            SearchBudgetExceeded, _abelian_class_reps,
                            _commute_with_first, _compile_plans,
                            _pinned_class_reps, _trace_tables, enumerate_sl2,
                            evaluate_word, identity_matrix, inverses,
                            is_scalar, mat_det2, mat_inv, mat_mul,
                            rep_from_json, rep_to_json,
                            verify_representation, word_prefixes)
from knotforge.twisted import _rep_polynomials, twisted_alexander

from support import (bundled_classes, bundled_table_path,
                     two_bridge_presentation)

BUNDLED = KnotTable.load(bundled_table_path())
TREFOIL = "X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]"
FIG8 = "X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] X[2,5,3,6]"
KNOT_6_1 = ("X[12,6,1,5] X[6,12,7,11] X[10,1,11,2] X[2,9,3,10] X[8,3,9,4] "
            "X[4,7,5,8]")
KNOT_8_20 = ("X[16,10,1,9] X[10,2,11,1] X[13,8,14,9] X[7,12,8,13] "
             "X[11,6,12,7] X[3,15,4,14] X[15,5,16,4] X[5,3,6,2]")


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


def reference_enumerate(pres, cfg):
    """The search without orbit pruning, as a reference for enumerate_sl2's
    output: every branch ranges over the whole trace slice, relators are
    solved with evaluate_word, and each conjugacy class keeps the last
    member the search visits."""
    p = cfg.p
    ng = pres.num_generators
    ident = identity_matrix(2)
    group = all_sl2(p)
    reps = []

    def propagate(work, s):
        changed = True
        while changed:
            changed = False
            for r in pres.relators:
                at = [i for i, (g, _) in enumerate(r) if work[g] is None]
                if not at:
                    if evaluate_word(r, work, p) != ident:
                        return False
                    continue
                if len(at) != 1:
                    continue
                i = at[0]
                g, e = r[i]
                # u X^e v = 1, so X^e = u^-1 v^-1
                u = evaluate_word(r[:i], work, p)
                v = evaluate_word(r[i + 1:], work, p)
                rhs = mat_mul(mat_inv(u, p), mat_inv(v, p), p)
                X = rhs if e == 1 else mat_inv(rhs, p)
                if mat_det2(X, p) != 1:
                    return False
                if (X[0][0] + X[1][1]) % p != s or is_scalar(X, p):
                    return False
                work[g] = X
                changed = True
        return True

    def next_gen(work):
        best = None
        for ri, r in enumerate(pres.relators):
            missing = sorted({g for g, _ in r if work[g] is None})
            if missing and (best is None or (len(missing), ri) < best[0]):
                best = ((len(missing), ri), missing[0])
        if best is not None:
            return best[1]
        return work.index(None) if None in work else None

    def branch(work, s, cands, sink):
        if not propagate(work, s):
            return
        g = next_gen(work)
        if g is None:
            sink(tuple(work))
            return
        for M in cands:
            work2 = list(work)
            work2[g] = M
            branch(work2, s, cands, sink)

    def commuting(mats):
        return all(mat_mul(A, B, p) == mat_mul(B, A, p)
                   for A in mats for B in mats)

    if not cfg.nonabelian_only:
        reps += [(M,) * ng for M in _abelian_class_reps(p)]
    for s in range(p):
        trace_slice = [M for M in group
                       if (M[0][0] + M[1][1]) % p == s and not is_scalar(M, p)]
        found = {}
        for M0, zs in _pinned_class_reps(s, p):

            def sink(mats, zs=zs):
                if commuting(mats):
                    return
                canon = min(tuple(mat_mul(mat_mul(z, M, p), mat_inv(z, p), p)
                                  for M in mats) for z in zs)
                found[canon] = mats

            branch([M0] + [None] * (ng - 1), s, trace_slice, sink)
        reps += [found[c] for c in sorted(found)]
    return reps


def cut_partial_presentation():
    """The cut partial presentation of 4_1 with marks 1, 3, 5, as the
    symmetric-union grid enumerates it."""
    spec = SymUnionSpec(MarkedDiagram(parse_pd(FIG8), (1, 3, 5)), (0, 0))
    return build_symun_presentation(spec)[1]


REFERENCE_PRESENTATIONS = {
    "3_1": lambda: wirtinger(parse_pd(TREFOIL)),
    "4_1": lambda: wirtinger(parse_pd(FIG8)),
    "6_1": lambda: wirtinger(parse_pd(KNOT_6_1)),
    "8_20": lambda: wirtinger(parse_pd(KNOT_8_20)),
    "b(5,3)": lambda: two_bridge_presentation(5, 3),
    "4_1 cut at 1,3,5": cut_partial_presentation,
    # two and three branch depths
    "11a_201": lambda: wirtinger(BUNDLED["11a_201"]),
    "10_137": lambda: wirtinger(BUNDLED["10_137"]),
}


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

    def test_empty_word_is_the_identity(self):
        for d, mats in ((2, (((0, 1), (6, 4)),)), (2, ()),
                        (3, (((1, 1, 0), (0, 1, 0), (0, 0, 1)),))):
            assert evaluate_word((), mats, 7) == identity_matrix(d)
        assert identity_matrix(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        # one identity per dimension, shared by every call
        assert identity_matrix(2) is identity_matrix(2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 7])
    def test_word_prefixes_match_products(self, d, p):
        # every prefix product of random words against a fold of mat_mul
        # with mat_inv, over random invertible matrices that need not have
        # det 1 and with entries not reduced mod p
        rng = random.Random(100 * d + p)
        mats = []
        while len(mats) < 3:
            M = tuple(tuple(rng.randrange(-2 * p, 2 * p) for _ in range(d))
                      for _ in range(d))
            try:
                mat_inv(M, p)
            except ZeroDivisionError:
                continue
            mats.append(M)
        invs = inverses(mats, p)
        for _ in range(40):
            w = tuple((rng.randrange(3), rng.choice((1, -1)))
                      for _ in range(rng.randrange(7)))
            want = [identity_matrix(d)]
            for g, e in w:
                M = mats[g] if e > 0 else mat_inv(mats[g], p)
                want.append(mat_mul(want[-1], M, p))
            assert word_prefixes(w, mats, p) == want
            assert word_prefixes(w, mats, p, invs) == want
            assert evaluate_word(w, mats, p) == want[-1]

    def test_inverse_of_det_other_than_one_is_not_the_adjugate(self):
        M = ((2, 0), (0, 1))  # det 2 over F_7: the inverse is diag(4, 1)
        assert inverses((M,), 7) == (((4, 0), (0, 1)),)
        assert evaluate_word(((0, -1),), (M,), 7) == ((4, 0), (0, 1))
        with pytest.raises(ZeroDivisionError):
            inverses((((1, 2), (2, 4)),), 7)

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

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_abelian_class_reps_are_the_classes(self, p):
        # one matrix per conjugacy class of SL2(F_p), every class once; at
        # p = 2 the scalars I and -I coincide and were listed twice
        G = all_sl2(p)
        reps = _abelian_class_reps(p)
        classes = {frozenset(mat_mul(mat_mul(g, M, p), mat_inv(g, p), p)
                             for g in G) for M in reps}
        assert len(classes) == len(reps)
        assert set().union(*classes) == set(G)

    def test_trivial_class_listed_once_over_f2(self):
        reps = enumerate_sl2(wirtinger(parse_pd(TREFOIL)),
                             RepSearchConfig(p=2, nonabelian_only=False))
        assert len(reps) == 3 + 1
        assert reps[0].matrices == (identity_matrix(2),) * 3
        assert len({r.matrices for r in reps}) == len(reps)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_pinned_centralizers_list_each_element_once(self, p):
        # each pinned matrix's centralizer in SL2(F_p), every element
        # listed once
        G = all_sl2(p)
        for s in range(p):
            for M0, zs in _pinned_class_reps(s, p):
                assert len(set(zs)) == len(zs), (s, zs)
                assert sorted(zs) == [z for z in G if mat_mul(z, M0, p) ==
                                      mat_mul(M0, z, p)]


class TestReferenceSearch:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("name", sorted(REFERENCE_PRESENTATIONS))
    def test_same_list_as_unpruned_search(self, name, p):
        # byte identity: the same classes, the same representative of each
        # and the same order, with and without the abelian classes
        pres = REFERENCE_PRESENTATIONS[name]()
        for nonabelian_only in (True, False):
            cfg = RepSearchConfig(p=p, nonabelian_only=nonabelian_only)
            got = [r.matrices for r in enumerate_sl2(pres, cfg)]
            assert got == reference_enumerate(pres, cfg), cfg


def plan_words(plans, ng):
    """The relator words the plans use, each as its least cyclic rotation:
    a force step (x, e, first, rest) uses x^e followed by its letters, a
    check step its letters.  Slot h < ng is x_h, ng + h is x_h^-1 and 2 ng is
    the empty product."""
    def letter(h):
        return (h, 1) if h < ng else (h - ng, -1)
    out = []
    for plan in plans:
        for g, e, first, rest in plan:
            word = [letter(h) for h in (first,) + rest if h != 2 * ng]
            if g is not None:
                word.insert(0, (g, e))
            out.append(least_rotation(word))
    return out


def least_rotation(word):
    word = tuple(word)
    return min((word[i:] + word[:i] for i in range(len(word))), default=())


class TestCompiledPlan:
    def test_generator_twice_is_not_forced(self):
        # x1 x0 x1^-1 x0^-1 has one unassigned generator, x1, but twice:
        # nothing is forced, x1 is branched on and the relator checked
        rels = (((1, 1), (0, 1), (1, -1), (0, -1)),)
        plans, gens, crossings = _compile_plans(rels, 2)
        assert plans[0] == () and gens == (1, None)
        assert plans[1] == ((None, 0, 1, (0, 3, 2)),)
        # x1 x0 x1^-1 x0^-1 is no crossing over x1: x1 is not its 2nd letter
        assert crossings == ((),)

    def test_relator_complete_at_the_root_is_checked_there(self):
        # x0 x0^-1 is complete once x0 is pinned; x0 x1 x0^-1 then forces x1
        rels = (((0, 1), (1, 1), (0, -1)), ((0, 1), (0, -1)))
        plans, gens, crossings = _compile_plans(rels, 2)
        assert gens == (None,) and crossings == ()
        assert plans == (((1, 1, 2, (0,)), (None, 0, 0, (2,))),)

    def test_forced_and_checked_in_the_rescan_order(self):
        # r0 waits for x2; r1 forces x1 = x0, which lets r0 force x2
        rels = (((2, 1), (1, -1), (0, -1)), ((1, 1), (0, -1)))
        plans, gens, _ = _compile_plans(rels, 3)
        assert gens == (None,)
        assert [(g, e) for g, e, _, _ in plans[0]] == [(1, 1), (2, 1)]

    @pytest.mark.parametrize("name", sorted(REFERENCE_PRESENTATIONS))
    def test_every_relator_used_once_on_every_path(self, name):
        # every node of a depth runs the same plan, so a path from the root
        # to a leaf runs all of them, one after another
        pres = REFERENCE_PRESENTATIONS[name]()
        plans, gens, _ = _compile_plans(pres.relators, pres.num_generators)
        assert sorted(plan_words(plans, pres.num_generators)) == sorted(
            least_rotation(r) for r in pres.relators)
        assert gens[-1] is None and None not in gens[:-1]
        assert len(set(gens[:-1])) == len(gens) - 1

    @pytest.mark.parametrize("name, depths", [
        # 8_20 branches on x2 at depth 1, the over-arc of x6 x2^-1 x7^-1 x2
        # (generators counted from 0)
        ("8_20", {1: ((6, 7, -1),)}), ("10_137", {1, 2}), ("10_99", {1, 3}),
        ("3_1", set()), ("4_1", set()), ("6_1", set()), ("11a_201", set()),
        ("10_140", set())])
    def test_crossings_over_the_branched_generator(self, name, depths):
        # a crossing x_i x_g^e x_o^-1 x_g^-e over the generator g branched
        # on at depth k, with x_i and x_o assigned there, is recorded at k,
        # and is still checked by a check step of depth k + 1
        pres = wirtinger(BUNDLED[name])
        ng = pres.num_generators
        plans, gens, crossings = _compile_plans(pres.relators, ng)
        assert len(crossings) == len(gens) - 1
        recorded = {k: c for k, c in enumerate(crossings) if c}
        if isinstance(depths, dict):
            assert recorded == depths and gens[1] == 2
        else:
            assert set(recorded) == depths
        for k, records in recorded.items():
            g = gens[k]
            checks = plan_words([[step for step in plans[k + 1]
                                  if step[0] is None]], ng)
            for i, o, e in records:
                word = ((i, 1), (g, e), (o, -1), (g, -e))
                assert word in pres.relators
                assert least_rotation(word) in checks

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_commute_with_first_matches_products(self, p):
        G = all_sl2(p)
        for A in G:
            for B in G:
                flat = [sum(A, ()), sum(B, ())]
                assert _commute_with_first(flat, p) == (
                    mat_mul(A, B, p) == mat_mul(B, A, p)), (A, B)

    def test_compiled_once_per_enumeration(self, monkeypatch):
        calls = []

        def counted(relators, ng):
            calls.append(ng)
            return _compile_plans(relators, ng)
        monkeypatch.setattr(knotforge.reps, "_compile_plans", counted)
        pres = wirtinger(parse_pd(FIG8))
        reps = enumerate_sl2(pres, RepSearchConfig(p=7))
        assert reps and calls == [4]


def without_crossing_tests(relators, ng):
    """_compile_plans with no crossing recorded: every candidate is left to
    the next depth's check step."""
    plans, gens, crossings = _compile_plans(relators, ng)
    return plans, gens, ((),) * len(crossings)


class TestCrossingTests:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("name", sorted(BUNDLED.entries))
    def test_same_search_without_crossing_tests(self, name, p, monkeypatch):
        # the crossing test is the relator its check step tests, so the
        # lists, sign twins and node totals are those of the search that
        # leaves every candidate to the check step
        knot = wirtinger(BUNDLED[name])
        cfgs = [RepSearchConfig(p=p, nonabelian_only=flag)
                for flag in (True, False)]

        def run():
            return [(tuple(r.matrices for r in reps), reps.twins, reps.nodes)
                    for pres in (knot, deficiency_one(knot))
                    for reps in (enumerate_sl2(pres, cfg) for cfg in cfgs)]
        tested = run()
        monkeypatch.setattr(knotforge.reps, "_compile_plans",
                            without_crossing_tests)
        assert run() == tested


class TestTraceTables:
    def test_memo_is_bounded(self):
        maxsize = _trace_tables.cache_parameters()["maxsize"]
        assert maxsize == knotforge.reps._TABLE_MEMO
        # the F_5 and F_7 tables that the benchmark workloads use fit
        assert maxsize is not None and 5 + 7 <= maxsize <= 256

    def test_entries_are_immutable(self):
        def frozen(v):
            return isinstance(v, int) or (isinstance(v, tuple)
                                          and all(frozen(x) for x in v))
        for p in (2, 3, 5, 7):
            for s in range(p):
                assert frozen(_trace_tables(s, p)), (s, p)

    def test_warm_tables_give_the_cold_lists(self):
        pres = wirtinger(BUNDLED["8_20"])

        def listed(p):
            cfg = RepSearchConfig(p=p, nonabelian_only=False)
            return [r.matrices for r in enumerate_sl2(pres, cfg)]
        cold = {}
        for p in (5, 7):
            _trace_tables.cache_clear()
            cold[p] = listed(p)
        for p in (5, 7, 5):
            assert listed(p) == cold[p], p
        # one table per searched trace s <= -s mod p (4 of F_7, 3 of F_5)
        # and call; the F_5 tables were cleared before the cold F_7 run,
        # the F_7 and second F_5 runs find theirs
        info = _trace_tables.cache_info()
        assert (info.hits, info.misses) == (4 + 3, 4 + 3)


def sign_twin_by_definition(mats, p):
    """D (-M) D^-1 for each nested matrix M, D = diag(1, -1) = D^-1, from
    the definition of the product."""
    D = ((1, 0), (0, p - 1))
    return tuple(sum_product(sum_product(D, tuple(tuple(-v % p for v in row)
                                                  for row in M), p), D, p)
                 for M in mats)


def conjugate_in_group(A, B, group, p):
    """Whether z A z^-1 = B, generator by generator, for some z of group:
    z A = B z, products from the definition."""
    return any(all(sum_product(z, X, p) == sum_product(Y, z, p)
                   for X, Y in zip(A, B)) for z in group)


class TestSignTwins:
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("name", sorted(BUNDLED.entries))
    def test_twins_against_the_definition(self, name, p):
        # sign twins pair trace s with -s, the map is an involution, the
        # twin of rho is SL(2, F_p)-conjugate to D(-rho)D^-1, and its
        # derived polynomial is twisted_alexander's
        pres = deficiency_one(wirtinger(BUNDLED[name]))
        reps = bundled_classes(name, p)
        twins = reps.twins
        assert len(twins) == len(reps)
        group = all_sl2(p)
        for i, (rho, j) in enumerate(zip(reps, twins)):
            if rho.is_abelian:
                assert j is None
                continue
            assert twins[j] == i
            assert reps[j].trace() == -rho.trace() % p
            assert conjugate_in_group(sign_twin_by_definition(
                rho.matrices, p), reps[j].matrices, group, p), (i, j)
        polys = _rep_polynomials(pres, reps)
        for i, j in enumerate(twins):
            if j is not None and j < i:
                assert polys[i].value == twisted_alexander(
                    pres, reps[i]).value, i

    def test_no_twins_over_f2(self):
        pres = wirtinger(BUNDLED["4_1"])
        reps = enumerate_sl2(pres, RepSearchConfig(p=2,
                                                   nonabelian_only=False))
        assert reps and reps.twins == (None,) * len(reps)


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

    @pytest.mark.parametrize("name,p,nodes", [
        ("4_1", 7, 73), ("11a_201", 7, 3353), ("10_137", 5, 2152),
        # the crossing test rejects candidates at one and two depths
        ("8_20", 7, 3353), ("10_99", 5, 30768)])
    def test_exact_node_count(self, name, p, nodes):
        # the search visits exactly these nodes: N suffices, N - 1 does not.
        # Only the traces s <= -s mod p are searched; the others are sign
        # twins and visit none.  A candidate the crossing test rejects
        # counts as a node, as it did when the check step rejected it
        pres = wirtinger(BUNDLED[name])
        reps = enumerate_sl2(pres, RepSearchConfig(p=p, max_nodes=nodes))
        assert reps and reps.nodes == nodes
        with pytest.raises(SearchBudgetExceeded):
            enumerate_sl2(pres, RepSearchConfig(p=p, max_nodes=nodes - 1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RepSearchConfig(p=6)
        with pytest.raises(ValueError):
            RepSearchConfig(p=5, max_nodes=0)

    @pytest.mark.parametrize("budget", [True, 2.5, "100", None, 100.0])
    def test_budget_must_be_an_integer(self, budget):
        # True was read as 1 and 2.5 ran, reporting "2 nodes used"; "100"
        # and None ended in a TypeError from <
        with pytest.raises(ValueError, match="^budget %s is not an integer$"
                           % re.escape(repr(budget))):
            RepSearchConfig(p=5, max_nodes=budget)

    @pytest.mark.parametrize("flag", ["no", 1, 0, None, 1.0])
    def test_nonabelian_only_must_be_a_bool(self, flag):
        # "no" searched the nonabelian classes only, yet compared unequal
        # to the default; 1 hashed like True
        with pytest.raises(ValueError, match="^nonabelian_only %s is not a "
                           "bool$" % re.escape(repr(flag))):
            RepSearchConfig(5, nonabelian_only=flag)
        for ok in (True, False):
            assert RepSearchConfig(5, nonabelian_only=ok).nonabelian_only is ok

    def test_non_wirtinger_rejected(self):
        from knotforge.presentation import GroupPresentation
        pres = GroupPresentation(("a",), (((0, 1),),), is_wirtinger=False)
        with pytest.raises(ValueError):
            enumerate_sl2(pres, RepSearchConfig(p=5))


class TestSerialization:
    def test_round_trip(self):
        rho = Representation(p=7, d=2,
                             matrices=(((0, 1), (6, 4)), ((0, 2), (3, 4))))
        back = rep_from_json(rep_to_json(rho))
        assert back.matrices == rho.matrices
        assert back.p == rho.p and back.d == rho.d

    def test_bad_json(self):
        with pytest.raises(ValueError):
            rep_from_json(json.dumps({"p": 5}))
        with pytest.raises(ValueError):
            rep_from_json(json.dumps({"p": 5, "generators": []}))

    @pytest.mark.parametrize("p, entry", [
        (7.9, 1), ("7", 1), (True, 1), (7, 0.5), (7, False), (7, "1"),
        (7, 1.0)], ids=["p-float", "p-string", "p-bool", "entry-float",
                        "entry-bool", "entry-string", "entry-float-1.0"])
    def test_values_must_be_json_integers(self, p, entry):
        # int() truncated 7.9 to 7 and 0.5 to 0, and read true as 1
        text = json.dumps({"p": p, "generators": [[[entry]]] * 3})
        bad = json.dumps(entry if p == 7 else p)
        with pytest.raises(ValueError, match="^(p =|entry) %s is not an "
                           "integer$" % re.escape(bad)):
            rep_from_json(text)

    def test_composite_modulus_rejected(self):
        # over Z/9 the entry 3 has no inverse for verify_representation
        with pytest.raises(ValueError, match="9 is not prime"):
            rep_from_json(json.dumps({"p": 9, "generators": [[[3]], [[3]]]}))

    @pytest.mark.parametrize("p", [4, None, 7.0])
    def test_modulus_must_be_prime(self, p):
        # p = 4 was accepted, and p = None failed with a bare TypeError
        with pytest.raises(ValueError, match="p must be prime"):
            Representation(p=p, d=1, matrices=(((1,),),) * 2)

    @pytest.mark.parametrize("p", [4, None, 7.0])
    def test_search_modulus_must_be_prime(self, p):
        # p = 7.0 was accepted and enumerate_sl2 then failed with a
        # TypeError; p = None failed with a bare TypeError
        with pytest.raises(ValueError, match="p must be prime"):
            RepSearchConfig(p=p)

    def test_dimension_below_one_rejected(self):
        # empty matrices used to pass as a d = 0 representation whose every
        # relator evaluates to the empty identity
        with pytest.raises(ValueError, match="at least 1"):
            Representation(p=7, d=0, matrices=((), ()))
        with pytest.raises(ValueError, match="at least 1"):
            rep_from_json(json.dumps({"p": 7, "generators": [[], []]}))

    @pytest.mark.parametrize("d, M", [
        (1, ((0,),)),
        (2, ((1, 2), (2, 4))),
        (3, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))])
    def test_singular_matrices_fail_verification(self, d, M):
        # mat_inv raised ZeroDivisionError out of verify_representation
        pres = wirtinger(parse_pd(TREFOIL))
        rho = Representation(p=5, d=d, matrices=(M,) * pres.num_generators)
        assert not verify_representation(pres, rho)

    def test_public_constructor_reduces_and_checks_shapes(self):
        rho = Representation(p=7, d=2,
                             matrices=[[[7, 8], [-1, 4]], [[0, 9], [3, 11]]])
        assert rho.matrices == (((0, 1), (6, 4)), ((0, 2), (3, 4)))
        assert rho == Representation(
            p=7, d=2, matrices=(((0, 1), (6, 4)), ((0, 2), (3, 4))))
        for d, mats in ((2, (((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0)))),
                        (2, (((1, 0), (0, 1)), ((1,), (0, 1)))),
                        (3, (((1, 0), (0, 1)),) * 2)):
            with pytest.raises(ValueError, match="does not match d="):
                Representation(p=7, d=d, matrices=mats)

    def test_matrix_count_enforced(self):
        # a representation stores no presentation; the count is checked
        # where the two meet
        pres = two_bridge_presentation(3, 1)
        rho = Representation(p=5, d=2, matrices=(identity_matrix(2),))
        with pytest.raises(ValueError, match="^matrix count 1 does not "
                           "match the generator count 2$"):
            verify_representation(pres, rho)
