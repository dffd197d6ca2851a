"""Exact lattice-point counting and dilation congruence checks for
simplicial complexes with vertices in Z^d.

All arithmetic is exact (int and fractions.Fraction); floating point is
never used anywhere in the package.
"""

from .errors import (SimplatError, InputError, ParseError, ValidationError,
                     ResourceLimitError, IntegrityError)
from .geometry import (LatticePoint, RationalPoint, Simplex,
                       barycentric_coordinates, contains_point, dilate,
                       bounding_box, intersection_is_common_face)
from .complexes import (SimplicialComplex, ComplexSummary, ValidationReport,
                        close_under_faces, euler_characteristic, summarize,
                        validate, generate_complex)
from .counting import (CountReport, DEFAULT_ENUMERATION_LIMIT, box_points,
                       count_simplex, count_relative_interior, count_complex,
                       count_complex_additive, count_method, enumeration_estimate,
                       Census, census, HStarVector, hstar)
from .ehrhart import (EhrhartPolynomial, SimplexCongruenceReport,
                      ehrhart_polynomial, verify_simplex_congruence)
from .numtheory import (Factorization, PrimeTerm, DilationPlan,
                        BinomialCongruenceReport, factorize, dilation_plan,
                        binomial, padic_valuation, kummer_carries,
                        congruence_shift_check, verify_binomial_congruences,
                        crt_combine, floor_log, is_prime)
from .documents import (ComplexDocument, parse_document, load_complex,
                        read_document, complex_to_document, document_to_json)
from .verify import (VerificationReport, FuzzSummary, ProbeReport,
                     run_verify, run_fuzz, probe_dilations)

__all__ = [
    "SimplatError", "InputError", "ParseError", "ValidationError",
    "ResourceLimitError", "IntegrityError",
    "LatticePoint", "RationalPoint", "Simplex", "barycentric_coordinates",
    "contains_point", "dilate", "bounding_box", "intersection_is_common_face",
    "SimplicialComplex", "ComplexSummary", "ValidationReport",
    "close_under_faces", "euler_characteristic", "summarize", "validate",
    "generate_complex",
    "CountReport", "DEFAULT_ENUMERATION_LIMIT", "box_points", "count_simplex",
    "count_relative_interior", "count_complex", "count_complex_additive",
    "count_method", "enumeration_estimate", "Census", "census",
    "EhrhartPolynomial", "HStarVector", "SimplexCongruenceReport",
    "ehrhart_polynomial", "hstar",
    "verify_simplex_congruence",
    "Factorization", "PrimeTerm", "DilationPlan", "BinomialCongruenceReport",
    "factorize", "dilation_plan", "binomial", "padic_valuation",
    "kummer_carries", "congruence_shift_check", "verify_binomial_congruences",
    "crt_combine", "floor_log", "is_prime",
    "ComplexDocument", "parse_document", "load_complex", "read_document",
    "complex_to_document", "document_to_json",
    "VerificationReport", "FuzzSummary", "ProbeReport", "run_verify",
    "run_fuzz", "probe_dilations",
]

__version__ = "0.1.0"
