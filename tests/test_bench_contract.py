"""The entry points that the benchmark's tracer (perfbench/tracer.py) wraps.

A traced benchmark run looks each one up by module and name and reads
`.rows` off what some of them take or return, so a rename or a changed
return type is caught here instead of in `--trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import knotforge.cli  # noqa: F401  (imports every module the tracer wraps)
from knotforge import _fastdet, twisted
from knotforge.diagram import parse_pd
from knotforge.presentation import deficiency_one, wirtinger
from knotforge.reps import RepSearchConfig, enumerate_sl2

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
TREFOIL = "X[6,3,1,4] X[2,5,3,6] X[4,1,5,2]"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
TARGETS = ({name: target[:2] for name, target in tracer.SPANS.items()}
           | dict(tracer.COUNTED))


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_every_traced_target_exists(name):
    module, fn = TARGETS[name]
    assert callable(getattr(importlib.import_module("knotforge." + module),
                            fn))


def test_traced_invariants_record_fox_and_pencil_spans():
    pd = parse_pd(TREFOIL)
    pres = deficiency_one(wirtinger(pd))
    rho = enumerate_sl2(pres, RepSearchConfig(p=5))[0]
    want = (twisted.classical_alexander(pd), twisted.knot_determinant(pd),
            twisted.twisted_alexander(pres, rho).value)
    originals = (twisted.fox_matrix, _fastdet.pencil_det)
    t = tracer.Tracer()
    t.install()
    try:
        got = (twisted.classical_alexander(pd), twisted.knot_determinant(pd),
               twisted.twisted_alexander(pres, rho).value)
    finally:
        t.uninstall()
    assert got == want
    assert (twisted.fox_matrix, _fastdet.pencil_det) == originals
    spans = t.summary(t.phase)
    for name in ("twisted.classical_alexander", "twisted.knot_determinant",
                 "twisted.twisted_alexander"):
        assert spans[name]["calls"] == 1
    # one 4 x 4 Fox matrix (two relators, two columns, 2 x 2 blocks); its
    # determinant and the 2 x 2 denominator det(rho(x_0)t - I) are pencils
    assert spans["twisted.fox_matrix"]["calls"] == 1
    assert spans["twisted.fox_matrix"]["max"] == 4
    assert spans["fastdet.pencil_det"]["calls"] == 2
    assert spans["fastdet.pencil_det"]["sum"] == 4 + 2
    assert spans["fastdet.pencil_det.fallbacks"]["calls"] == 0
