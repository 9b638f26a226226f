"""The package's value records (RepSearchConfig, Representation,
GroupPresentation, GeneratorMap, MarkedDiagram, SymUnionSpec, RunReport,
PDCode):
the constructors, equality, hashing, immutability, pickling, copying, reprs
and error texts of frozen dataclasses; the cache of derived values that a
record keeps, which none of these see; and a CLI import that
loads neither dataclasses nor importlib.resources."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import knotforge.cli
from knotforge.cli import RunReport
from knotforge.diagram import (InvalidDiagram, MarkedDiagram, PDCode,
                               SymUnionSpec, parse_pd)
from knotforge.presentation import (GeneratorMap, GroupPresentation,
                                    build_symun_presentation, wirtinger)
from knotforge.reps import Representation, RepSearchConfig, enumerate_sl2
from knotforge.twisted import classical_alexander, verify_theorem

TREFOIL = "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"
FIG8 = "X[8,4,1,3] X[4,8,5,7] X[6,1,7,2] X[2,5,3,6]"
MATRICES = (((1, 1), (0, 1)), ((1, 0), (4, 1)))


def trefoil_union():
    """The union, partial and generator map of the trefoil's symmetric
    union with one twist region of two crossings."""
    spec = SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3)), (2,))
    return build_symun_presentation(spec)


# name -> a function building one record; two calls give equal records
# that are distinct objects
RECORDS = {
    "RepSearchConfig": lambda: RepSearchConfig(7, max_nodes=50),
    "Representation": lambda: Representation(
        p=5, d=2, matrices=[[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]),
    "GroupPresentation": lambda: wirtinger(parse_pd(TREFOIL)),
    "GeneratorMap": lambda: trefoil_union()[2],
    "MarkedDiagram": lambda: MarkedDiagram(parse_pd(TREFOIL), [1, 3]),
    "PDCode": lambda: parse_pd(TREFOIL),
    "SymUnionSpec": lambda: SymUnionSpec(
        MarkedDiagram(parse_pd(TREFOIL), (1, 3)), ["2"]),
    "RunReport": lambda: RunReport(["knotforge", "alex", "3_1"],
                                   {"knot": "3_1"}, {"degree": [2]}, 1.5),
}
FIELDS = {
    "RepSearchConfig": ("p", "nonabelian_only", "max_nodes"),
    "Representation": ("p", "d", "matrices"),
    "GroupPresentation": ("names", "relators", "meridian", "longitude",
                          "is_wirtinger"),
    "GeneratorMap": ("source", "target", "images"),
    "MarkedDiagram": ("base", "marked_edges"),
    "PDCode": ("crossings",),
    "SymUnionSpec": ("partial", "twists"),
    "RunReport": ("command", "inputs", "results", "timing_ms"),
}
PD_REPR = "PDCode(X[1,5,2,4] X[3,1,4,6] X[5,3,6,2])"
REPRS = {
    "RepSearchConfig":
        "RepSearchConfig(p=7, nonabelian_only=True, max_nodes=50)",
    "Representation": "Representation(d=2, p=5, 2 generators)",
    "GroupPresentation": "GroupPresentation(<3 gens | 3 relators>)",
    "GeneratorMap":
        "GeneratorMap(source=GroupPresentation(<16 gens | 15 relators>), "
        "target=GroupPresentation(<5 gens | 4 relators>), images=("
        + "((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),), ((4, 1),), " * 2
        + "((4, 1),), ((0, 1),), " + "((1, 1),), " * 3 + "((1, 1),)))",
    "MarkedDiagram":
        "MarkedDiagram(base=%s, marked_edges=(1, 3))" % PD_REPR,
    "PDCode": PD_REPR,
    "SymUnionSpec": "SymUnionSpec(partial=MarkedDiagram(base=%s, "
                    "marked_edges=(1, 3)), twists=(2,))" % PD_REPR,
    "RunReport": "RunReport(command=['knotforge', 'alex', '3_1'], "
                 "inputs={'knot': '3_1'}, results={'degree': [2]}, "
                 "timing_ms=1.5)",
}
NAMES = sorted(RECORDS)
FROZEN = [name for name in NAMES if name != "RunReport"]


def astuple(record, name):
    return tuple(getattr(record, field) for field in FIELDS[name])


class TestRecordSemantics:
    @pytest.mark.parametrize("name", NAMES)
    def test_equality_is_that_of_the_field_tuple(self, name):
        a, b = RECORDS[name](), RECORDS[name]()
        assert a is not b and a == b and not a != b
        assert astuple(a, name) == astuple(b, name)
        assert a.__eq__(astuple(a, name)) is NotImplemented
        assert a != astuple(a, name)

    @pytest.mark.parametrize("name", FROZEN)
    def test_hash_is_that_of_the_field_tuple(self, name):
        a, b = RECORDS[name](), RECORDS[name]()
        assert hash(a) == hash(b) == hash(astuple(a, name))
        assert len({a, b}) == 1

    def test_different_fields_differ(self):
        base = parse_pd(TREFOIL)
        assert RepSearchConfig(7) != RepSearchConfig(7, max_nodes=50)
        assert (Representation(5, 2, MATRICES)
                != Representation(7, 2, MATRICES))
        assert MarkedDiagram(base, (1, 3)) != MarkedDiagram(base, (3, 1))
        pres = wirtinger(base)
        assert pres != GroupPresentation(pres.names, pres.relators,
                                         meridian=1,
                                         longitude=pres.longitude)

    def test_constructors_take_positional_and_keyword_fields(self):
        assert (RepSearchConfig(7, False, 50)
                == RepSearchConfig(p=7, nonabelian_only=False, max_nodes=50))
        assert RepSearchConfig(7).max_nodes == 2_000_000
        assert RepSearchConfig(7).nonabelian_only is True
        pres = GroupPresentation(("a", "b"), [[(0, 1), (1, -1)]])
        assert (pres.meridian, pres.longitude, pres.is_wirtinger) == (
            0, None, True)
        assert pres.relators == (((0, 1), (1, -1)),)
        assert pres == GroupPresentation(
            names=["a", "b"], relators=(((0, 1), (1, -1)),), meridian=0,
            longitude=None, is_wirtinger=True)
        union, partial, phi = trefoil_union()
        assert GeneratorMap(union, partial, list(phi.images)) == phi
        assert Representation(5, 2, MATRICES) == Representation(
            matrices=MATRICES, d=2, p=5)

    @pytest.mark.parametrize("name", FROZEN)
    def test_fields_are_read_only(self, name):
        record = RECORDS[name]()
        for field in FIELDS[name]:
            before = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is before
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_no_pd_code_attribute_can_be_assigned(self):
        # assigning crossings and n once gave a PDCode that printed as the
        # figure-eight but kept the trefoil's walk and cached invariants
        pd, fig8 = parse_pd(TREFOIL), parse_pd(FIG8)
        before = classical_alexander(pd)
        for name in (*PDCode.__slots__, "_cache"):
            for value in (getattr(fig8, name, None), None):
                with pytest.raises(AttributeError):
                    setattr(pd, name, value)
        assert pd == parse_pd(TREFOIL) and pd.n == 3
        assert classical_alexander(pd) == before

    def test_run_report_is_mutable_and_unhashable(self):
        report = RECORDS["RunReport"]()
        report.timing_ms = 2.5
        assert report.timing_ms == 2.5 and report != RECORDS["RunReport"]()
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)

    @pytest.mark.parametrize("name", NAMES)
    def test_pickle_and_copy_round_trip(self, name):
        record = RECORDS[name]()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and back == record
        for back in copy.copy(record), copy.deepcopy(record):
            assert type(back) is type(record) and back == record
        if name != "RunReport":
            assert hash(copy.deepcopy(record)) == hash(record)

    @pytest.mark.parametrize("name", NAMES)
    def test_repr_is_unchanged(self, name):
        assert repr(RECORDS[name]()) == REPRS[name]

    def test_group_presentation_hash_is_the_field_tuple_hash(self):
        for pres in (*trefoil_union()[:2], wirtinger(parse_pd(TREFOIL))):
            assert hash(pres) == hash(astuple(pres, "GroupPresentation"))


def warm_copies():
    """(warm, cold) pairs of equal objects: the warm one keeps derived
    values (a PDCode its Alexander determinant, a spec its template, the
    presentations of its verify), the cold one was built afresh."""
    warm = SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3)), (2,))
    union, partial, _ = build_symun_presentation(warm)
    verify_theorem(warm, enumerate_sl2(partial, RepSearchConfig(5))[0])
    classical_alexander(warm.partial.base)
    cold = SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3)), (2,))
    return [(warm, cold), (warm.partial, cold.partial),
            (warm.partial.base, cold.partial.base),
            (warm._cache["symun"][0], union)]


class TestDerivedCache:
    def test_cache_is_left_out_of_eq_hash_and_repr(self):
        for warm, cold in warm_copies():
            assert warm._cache and not hasattr(cold, "_cache")
            assert warm == cold and hash(warm) == hash(cold)
            assert repr(warm) == repr(cold)

    def test_no_pickle_or_copy_carries_the_cache(self):
        for warm, _ in warm_copies():
            backs = [pickle.loads(pickle.dumps(warm, protocol))
                     for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            backs += [copy.copy(warm), copy.deepcopy(warm)]
            for back in backs:
                assert type(back) is type(warm) and back == warm
                assert not hasattr(back, "_cache")

    def test_pd_code_is_rebuilt_through_its_constructor(self):
        pd = parse_pd(TREFOIL)
        assert pd.__reduce__() == (PDCode, (pd.crossings,))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(pd, protocol))
            assert back.crossings == pd.crossings
            assert back.edges == pd.edges


BAD_ARGUMENTS = [
    (lambda: RepSearchConfig(8), ValueError, "p must be prime"),
    (lambda: RepSearchConfig(7, max_nodes=0), ValueError,
     "budget must be at least 1"),
    (lambda: Representation(4, 2, MATRICES), ValueError, "p must be prime"),
    (lambda: Representation(5, 0, MATRICES), ValueError,
     "representation dimension must be at least 1, got d=0"),
    (lambda: Representation(5, 3, MATRICES), ValueError,
     "matrix size does not match d=3"),
    (lambda: GroupPresentation(("a",), (), meridian=1), ValueError,
     "meridian index out of range"),
    (lambda: GroupPresentation(("a", "b"), (((0, 1), (1, 1)),)),
     ValueError, "relator a b has nonzero exponent sum"),
    (lambda: GeneratorMap(*trefoil_union()[:2], ()), ValueError,
     "need one image per source generator"),
    (lambda: GeneratorMap(*trefoil_union()[:2],
                          (((0, 1), (1, 1)),) + trefoil_union()[2].images[1:]),
     ValueError, "relator image z2 y1_1 u1^-1 y1_1^-1 u1 is neither trivial "
                 "nor a target relator"),
    (lambda: MarkedDiagram(parse_pd(TREFOIL), ()), InvalidDiagram,
     "need at least the infinity-tangle mark e_0"),
    (lambda: MarkedDiagram(parse_pd(TREFOIL), (1, 1)), InvalidDiagram,
     "marked edges must be distinct"),
    (lambda: MarkedDiagram(parse_pd(TREFOIL), (1, 7, 9)), InvalidDiagram,
     "marked edges [7, 9] not in diagram"),
    (lambda: SymUnionSpec(MarkedDiagram(parse_pd(TREFOIL), (1, 3)), (2, 2)),
     InvalidDiagram, "got 2 twist counts for 1 twist regions"),
]


class TestBadArguments:
    @pytest.mark.parametrize("build, error, text", BAD_ARGUMENTS)
    def test_error_text_is_unchanged(self, build, error, text):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == text


class TestImports:
    def test_cli_import_loads_no_dataclasses_or_resources(self):
        # `python -S`: no site hooks, only what importing the CLI loads
        src = os.path.dirname(os.path.dirname(knotforge.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, knotforge.cli; print(' '.join(sorted(m for m "
                "in ('dataclasses', 'inspect', 'importlib.resources') "
                "if m in sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []
