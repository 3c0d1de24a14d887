"""descentlab: exact-arithmetic homological algebra for cover descent.

Cochain complexes over Q or a truncated Novikov ring, Cech and totalization
machinery for presheaves on finite covers, polynomial differential forms with
integration and Whitney sections, BV/Schouten calculus on polyvector fields,
and involutivity checks for exact cover functions.
"""

from .scalars import QQ, NovikovRing, NovikovElem
from .complexes import (Complex, ChainMap, shift, cone, cocone, direct_sum,
                        tensor, telescope, homology, betti_numbers,
                        is_quasi_iso, homology_map, HomologySpace,
                        complex_to_json, complex_from_json,
                        chain_map_to_json, chain_map_from_json)
from .presheaf import (CoverPresheaf, cech, tot, tw, tw_to_tot,
                       whitney_section, inclusion_exclusion,
                       induction_pipeline, verify_descent,
                       presheaf_to_json, presheaf_from_json)
from .errors import (DescentlabError, RingMismatch, NotAComplex, ShapeMismatch,
                     UnsupportedRing, FunctorialityFailure,
                     CosimplicialIdentityFailure, CutoffTooSmall, AxiomFailure,
                     HypothesisFailure, LemmaViolation, BadSequence,
                     UnknownFixture, InputError)

__version__ = "0.1.0"

__all__ = [
    "QQ", "NovikovRing", "NovikovElem",
    "Complex", "ChainMap", "shift", "cone", "cocone", "direct_sum", "tensor",
    "telescope", "homology", "betti_numbers", "is_quasi_iso",
    "homology_map", "HomologySpace", "complex_to_json", "complex_from_json",
    "chain_map_to_json", "chain_map_from_json",
    "CoverPresheaf", "cech", "tot", "tw", "tw_to_tot", "whitney_section",
    "inclusion_exclusion", "induction_pipeline", "verify_descent",
    "presheaf_to_json", "presheaf_from_json",
    "DescentlabError", "RingMismatch", "NotAComplex", "ShapeMismatch",
    "UnsupportedRing", "FunctorialityFailure", "CosimplicialIdentityFailure",
    "CutoffTooSmall", "AxiomFailure", "HypothesisFailure", "LemmaViolation",
    "BadSequence", "UnknownFixture", "InputError",
]
