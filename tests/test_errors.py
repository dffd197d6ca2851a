"""The one integer argument check: errors.check_int, and every public entry
point that refuses a bad int argument through it."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from simplat import (Simplex, SimplicialComplex, box_points, census,
                     close_under_faces, count_complex, count_complex_additive,
                     count_method, count_relative_interior, count_simplex,
                     dilate, enumeration_estimate, generate_complex, hstar,
                     probe_dilations, run_fuzz)
from simplat.documents import load_complex, parse_document
from simplat.ehrhart import EhrhartPolynomial, verify_simplex_congruence
from simplat.errors import InputError, ParseError, check_int
from simplat.geometry import as_lattice_point, barycentric_coordinates
from simplat.numtheory import (FACTORIZE_BOUND, binomial,
                               congruence_shift_check, crt_combine,
                               dilation_plan, factorize, floor_log, is_prime,
                               kummer_carries, padic_valuation,
                               verify_binomial_congruences)

from helpers import UNIT_SQUARE_DOC

TRIANGLE = Simplex(((0, 0), (1, 0), (0, 1)))
SQUARE = load_complex(UNIT_SQUARE_DOC)

# (entry point with one argument left open, the argument's name in the
# message, a value below its range or None when it has no lower bound)
ENTRY_POINTS = {
    "is_prime.n": (is_prime, "n", None),
    "floor_log.base": (lambda v: floor_log(v, 10), "base", 1),
    "floor_log.x": (lambda v: floor_log(2, v), "x", 0),
    "factorize.n": (factorize, "n", 1),
    "dilation_plan.dim": (lambda v: dilation_plan(v, 6), "dim", 0),
    "dilation_plan.modulus": (lambda v: dilation_plan(3, v), "modulus", 1),
    "binomial.a": (lambda v: binomial(v, 2), "a", None),
    "binomial.b": (lambda v: binomial(5, v), "b", -1),
    "padic_valuation.m": (lambda v: padic_valuation(v, 2), "m", None),
    "padic_valuation.p": (lambda v: padic_valuation(12, v), "p", 1),
    "kummer_carries.a": (lambda v: kummer_carries(v, 3, 2), "a", -1),
    "kummer_carries.b": (lambda v: kummer_carries(3, v, 2), "b", -1),
    "kummer_carries.p": (lambda v: kummer_carries(3, 3, v), "p", 1),
    "congruence_shift_check.m": (lambda v: congruence_shift_check(v, 2, 3, 4), "m", 0),
    "congruence_shift_check.p": (lambda v: congruence_shift_check(1, v, 3, 4), "p", 1),
    "congruence_shift_check.k": (lambda v: congruence_shift_check(1, 2, v, 4), "k", 2),
    "congruence_shift_check.d": (lambda v: congruence_shift_check(1, 2, 3, v), "d", None),
    "verify_binomial_congruences.d": (lambda v: verify_binomial_congruences(v, 2, 3), "d", 0),
    "verify_binomial_congruences.p": (lambda v: verify_binomial_congruences(2, v, 3), "p", 1),
    "verify_binomial_congruences.k": (lambda v: verify_binomial_congruences(2, 2, v), "k", 1),
    "crt_combine.residue": (lambda v: crt_combine([(v, 3)]), "residue", -1),
    "crt_combine.modulus": (lambda v: crt_combine([(0, v)]), "modulus", 0),
    "dilate.t": (lambda v: dilate(TRIANGLE, v), "dilation factor", 0),
    "box_points.t": (lambda v: box_points(TRIANGLE, v), "dilation factor", 0),
    "enumeration_estimate.t": (lambda v: enumeration_estimate(SQUARE, v),
                               "dilation factor", 0),
    "count_method.t": (lambda v: count_method(SQUARE, v), "dilation factor", 0),
    "HStarVector.count.t": (lambda v: hstar(TRIANGLE).count(v), "dilation factor", -1),
    "HStarVector.interior.t": (lambda v: hstar(TRIANGLE).interior(v),
                               "dilation factor", 0),
    "count_simplex.t": (lambda v: count_simplex(TRIANGLE, v), "dilation factor", 0),
    "count_relative_interior.t": (lambda v: count_relative_interior(TRIANGLE, v),
                                  "dilation factor", 0),
    "count_complex.t": (lambda v: count_complex(SQUARE, v), "dilation factor", 0),
    "count_complex_additive.t": (lambda v: count_complex_additive(SQUARE, v),
                                 "dilation factor", 0),
    "Census.count.t": (lambda v: census(SQUARE).count(v), "dilation factor", 0),
    "evaluate.t": (lambda v: EhrhartPolynomial((1, 2, 1)).evaluate(v),
                   "evaluation point", None),
    "verify_simplex_congruence.p": (lambda v: verify_simplex_congruence(TRIANGLE, v, 2),
                                    "p", 1),
    "verify_simplex_congruence.k": (lambda v: verify_simplex_congruence(TRIANGLE, 2, v),
                                    "k", 0),
    "run_fuzz.trials": (lambda v: run_fuzz(2, 1, 2, v, 0), "trials", 0),
    "probe_dilations.t_max": (lambda v: probe_dilations(SQUARE, 2, v), "t_max", 0),
    "generate_complex.dim": (lambda v: generate_complex(v, 1, 1, 0), "dim", 0),
    "generate_complex.grid": (lambda v: generate_complex(2, v, 1, 0), "grid", 0),
    "generate_complex.seed": (lambda v: generate_complex(2, 1, 1, v), "seed", None),
}

CASES = [pytest.param(call, name, bad, id=f"{key}={bad!r}")
         for key, (call, name, least) in ENTRY_POINTS.items()
         for bad in (True, 2.0, "2") + (() if least is None else (least,))]


@pytest.mark.parametrize("call, name, bad", CASES)
def test_bad_argument_is_named(call, name, bad):
    with pytest.raises(InputError) as info:
        call(bad)
    assert re.search(rf"(?<!\w){re.escape(name)}(?!\w)", str(info.value))


def test_modulus_over_the_bound_is_named():
    # the bound comes from factorize, whose own argument is called n
    with pytest.raises(InputError) as info:
        dilation_plan(3, FACTORIZE_BOUND + 1)
    assert str(info.value) == "modulus exceeds the supported bound 1000000000000"
    assert dilation_plan(3, FACTORIZE_BOUND).modulus == FACTORIZE_BOUND


def _doc(**changes):
    return {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
            "maximal_simplices": [[0, 1, 2]], **changes}


# (call, the error it raises, its exact message) for each refusal path of
# a document, a complex, a polynomial, a point or a simplex
REFUSALS = {
    "parse_document.array": (lambda: parse_document("[]"), ParseError,
                             "document must be a JSON object"),
    "parse_document.faces_not_a_list": (
        lambda: parse_document(_doc(maximal_simplices={"0": [0, 1, 2]})), ParseError,
        "maximal_simplices must be a list of index lists"),
    "parse_document.repeated_index": (
        lambda: parse_document(_doc(maximal_simplices=[[0, 0, 1]])), ParseError,
        "maximal simplex 0 repeats a vertex index"),
    "parse_document.repeated_key": (
        lambda: parse_document('{"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], '
                               '"maximal_simplices": [[0, 1, 2]], "maximal_simplices": [[0, 1]]}'),
        ParseError, "document repeats the key 'maximal_simplices'"),
    "close_under_faces.no_vertices": (
        lambda: close_under_faces([], []), InputError,
        "ambient_dim is required when the vertex list is empty"),
    "SimplicialComplex.empty_face": (
        lambda: SimplicialComplex(2, [(0, 0)], [()]), InputError,
        "empty face in the face list"),
    "SimplicialComplex.face_not_iterable": (
        lambda: SimplicialComplex(2, TRIANGLE.vertices, [5]), InputError,
        "face must be an iterable of vertex indices, got 5"),
    "SimplicialComplex.faces_not_iterable": (
        lambda: SimplicialComplex(2, TRIANGLE.vertices, 5), InputError,
        "faces must be an iterable of faces, got 5"),
    "simplex.int": (lambda: SQUARE.simplex(5), InputError,
                    "5 is not a face of the complex"),
    "simplex.none": (lambda: SQUARE.simplex(None), InputError,
                     "None is not a face of the complex"),
    "EhrhartPolynomial.no_coefficients": (
        lambda: EhrhartPolynomial(()), InputError,
        "a counting polynomial needs at least one coefficient"),
    "EhrhartPolynomial.float_coefficient": (
        lambda: EhrhartPolynomial((1, 0.5)), InputError,
        "coefficient must be an int or a Fraction, got 0.5"),
    "EhrhartPolynomial.str_coefficient": (
        lambda: EhrhartPolynomial((1, "3/2")), InputError,
        "coefficient must be an int or a Fraction, got '3/2'"),
    "EhrhartPolynomial.bool_coefficient": (
        lambda: EhrhartPolynomial((True, 1)), InputError,
        "coefficient must be an int or a Fraction, got True"),
    "as_lattice_point.not_a_sequence": (
        lambda: as_lattice_point(5), InputError, "lattice point must be a sequence, got int"),
    "as_lattice_point.empty": (
        lambda: as_lattice_point(()), InputError,
        "lattice point must have at least one coordinate"),
    "barycentric_coordinates.not_a_sequence": (
        lambda: barycentric_coordinates(TRIANGLE, 5), InputError,
        "point must be a sequence, got int"),
    "barycentric_coordinates.empty": (
        lambda: barycentric_coordinates(TRIANGLE, ()), InputError,
        "point must have at least one coordinate"),
    "barycentric_coordinates.wrong_dimension": (
        lambda: barycentric_coordinates(TRIANGLE, (1, 2, 3)), InputError,
        "expected a point in dimension 2, got 3 coordinates"),
    "Simplex.no_vertices": (lambda: Simplex(()), InputError,
                            "a simplex needs a nonempty tuple of vertices"),
}


@pytest.mark.parametrize("key", REFUSALS)
def test_refusal_message(key):
    call, error, message = REFUSALS[key]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


class TestCheckInt:
    def test_returns_the_int(self):
        assert check_int(7, "x") == 7
        assert check_int(-3, "x", -3) == -3
        assert check_int(2 ** 80, "x", 1) == 2 ** 80

    @pytest.mark.parametrize("bad", [True, False, 2.0, "2", None, Fraction(2)])
    def test_refuses_non_ints(self, bad):
        with pytest.raises(InputError) as info:
            check_int(bad, "grid")
        assert str(info.value) == f"grid must be an integer, got {bad!r}"

    def test_huge_int_is_named_by_its_digits(self):
        # an int past sys.get_int_max_str_digits has no repr
        with pytest.raises(InputError) as info:
            check_int(-10**5000, "t", 1)
        assert str(info.value) == "t must be an integer >= 1, got a negative integer of 5001 digits"
        with pytest.raises(InputError) as info:
            check_int(-(10**5000 - 1), "t", 1)
        assert str(info.value) == "t must be an integer >= 1, got a negative integer of 5000 digits"
        with pytest.raises(InputError) as info:
            check_int([10**5000], "grid")
        assert str(info.value) == "grid must be an integer, got a list holding an integer too long to print"

    def test_lower_bound_in_the_message(self):
        with pytest.raises(InputError) as info:
            check_int(0, "dilation factor", 1)
        assert str(info.value) == "dilation factor must be an integer >= 1, got 0"
        with pytest.raises(InputError) as info:
            check_int(2.0, "dim", 1)
        assert str(info.value) == "dim must be an integer >= 1, got 2.0"
