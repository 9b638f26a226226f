"""knotforge: exact twisted Alexander polynomials, symmetric unions and
SL(2, F_p) representations of knot groups."""

__version__ = "0.1.0"

from .algebra import (ZZ, QQ, GF, LaurentPoly, RationalFn, canonicalize,
                      reduce_fraction, format_poly, unit_equal)
from .diagram import (InvalidDiagram, PDCode, MarkedDiagram, SymUnionSpec,
                      parse_pd, format_pd, symmetric_union_pd)
from .presentation import (GroupPresentation, GeneratorMap, wirtinger,
                           deficiency_one, build_symun_presentation,
                           lamm_pullback)
from .reps import (Representation, RepSearchConfig, SearchBudgetExceeded,
                   enumerate_sl2, verify_representation, rep_to_json,
                   rep_from_json)
from .twisted import (TwistedPolynomial, twisted_alexander,
                      classical_alexander, higher_alexander,
                      knot_determinant, trivial_rep, verify_theorem,
                      even_symun_quick_obstructions, even_symun_obstruction)

__all__ = [
    "ZZ", "QQ", "GF", "LaurentPoly", "RationalFn", "canonicalize",
    "reduce_fraction", "format_poly", "unit_equal",
    "InvalidDiagram", "PDCode", "MarkedDiagram", "SymUnionSpec",
    "parse_pd", "format_pd", "symmetric_union_pd",
    "GroupPresentation", "GeneratorMap", "wirtinger", "deficiency_one",
    "build_symun_presentation", "lamm_pullback",
    "Representation", "RepSearchConfig", "SearchBudgetExceeded",
    "enumerate_sl2", "verify_representation", "rep_to_json", "rep_from_json",
    "TwistedPolynomial", "twisted_alexander", "classical_alexander",
    "higher_alexander", "knot_determinant", "trivial_rep", "verify_theorem",
    "even_symun_quick_obstructions", "even_symun_obstruction", "__version__",
]
