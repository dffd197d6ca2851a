"""Dilation-count polynomials, h*-vectors, per-simplex congruences."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplat import (EhrhartPolynomial, Simplex, count_relative_interior,
                     count_simplex, ehrhart_polynomial, hstar,
                     verify_simplex_congruence)
from simplat.counting import _class_hstar
from simplat.errors import InputError, IntegrityError, ValidationError
from simplat.geometry import _certificate, lattice_class

from helpers import lagrange_coefficients, normalized_volume, random_simplex

F = Fraction
UNIT_TRIANGLE = Simplex(((0, 0), (1, 0), (0, 1)))
BIG_TRIANGLE = Simplex(((0, 0), (2, 0), (0, 2)))
# conv{0, e1, e2, (1,1,4)}: volume 4/6, counts 4, 13, 32, 65 at t=1..4
REEVE_4 = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 4)))
# Largest coordinate spread per ambient dimension 1..5 that keeps the box of
# 4*s small enough for the enumeration oracle
SPREAD = (2000, 40, 6, 2, 2)
NEAR_ORIGIN_OR_MILLION = st.one_of(st.just(0), st.integers(-10**6 - 9, -10**6 + 9),
                                   st.integers(10**6 - 9, 10**6 + 9))


@st.composite
def lattice_simplices(draw, max_ambient=4):
    """Simplices of every intrinsic dimension 0..min(d, 4) in ambient
    dimension d = 1..max_ambient, in a box of spread SPREAD[d-1] moved near
    0 or near +-10^6."""
    d = draw(st.integers(1, max_ambient))
    m = draw(st.integers(0, min(d, 4)))
    coordinate = st.integers(0, SPREAD[d - 1])
    points = draw(st.lists(st.tuples(*[coordinate] * d),
                           min_size=m + 1, max_size=m + 1, unique=True))
    shift = draw(st.tuples(*[NEAR_ORIGIN_OR_MILLION] * d))
    try:
        return Simplex(tuple(tuple(a + b for a, b in zip(p, shift)) for p in points))
    except ValidationError:
        assume(False)


class TestPolynomial:
    def test_unit_triangle(self):
        # (t+1)(t+2)/2 expanded
        p = ehrhart_polynomial(UNIT_TRIANGLE)
        assert p.coefficients == (1, F(3, 2), F(1, 2))
        assert p.degree == 2

    def test_big_triangle(self):
        # (2t+1)(t+1) expanded
        p = ehrhart_polynomial(BIG_TRIANGLE)
        assert p.coefficients == (1, 3, 2)

    def test_segments(self):
        assert ehrhart_polynomial(Simplex(((0,), (1,)))).coefficients == (1, 1)
        # two lattice steps along (2, 6)
        assert ehrhart_polynomial(Simplex(((1, -2), (3, 4)))).coefficients == (1, 2)

    def test_point(self):
        p = ehrhart_polynomial(Simplex(((5, 5),)))
        assert p.coefficients == (1,)
        assert p.degree == 0

    def test_standard_tetrahedron(self):
        # C(t+3, 3) expanded
        p = ehrhart_polynomial(Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))))
        assert p.coefficients == (1, F(11, 6), 1, F(1, 6))

    def test_reeve_tetrahedron(self):
        p = ehrhart_polynomial(REEVE_4)
        assert p.coefficients == (1, F(4, 3), 1, F(2, 3))
        assert [p.evaluate(t) for t in (1, 2, 3, 4)] == [4, 13, 32, 65]

    def test_embedding_does_not_change_polynomial(self):
        flat = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0)))
        assert ehrhart_polynomial(flat).coefficients == (1, F(3, 2), F(1, 2))

    def test_degree_is_intrinsic_dimension(self):
        rng = random.Random(55)
        for _ in range(15):
            s = random_simplex(rng, rng.randint(1, 3), coord_max=2)
            assert ehrhart_polynomial(s).degree == s.intrinsic_dim

    def test_matches_direct_counts(self):
        rng = random.Random(56)
        for _ in range(10):
            s = random_simplex(rng, rng.randint(1, 3), coord_max=2)
            p = ehrhart_polynomial(s)
            for t in range(1, 6):
                assert p.evaluate(t) == count_simplex(s, t)

    def test_repeat_calls_hit_cache(self):
        assert hstar(UNIT_TRIANGLE) is hstar(Simplex(((0, 0), (1, 0), (0, 1))))

    def test_vertex_orders_share_one_class(self):
        # the class is read off the sorted vertices, so every order of one
        # triangle, and a translate, takes one walk, though the lattice
        # classes read in the listed orders differ
        points = ((0, 0), (2, 0), (0, 3))
        orders = list(permutations(points))
        orders.append(tuple((x + 10**6, y - 7) for x, y in points[::-1]))
        assert len({lattice_class(Simplex(o)) for o in orders}) > 1
        _class_hstar.cache_clear()
        assert {hstar(Simplex(o)).entries for o in orders} == {(1, 4, 1)}
        assert _class_hstar.cache_info().misses == 1

    def test_caches_are_bounded(self):
        # conv(0, e1, e2, (a, b, c)) with 0 <= a, b < c is already in Hermite
        # normal form: 4324 distinct lattice classes of volume c, more than
        # either cache may hold
        for c in range(1, 24):
            for a in range(c):
                for b in range(c):
                    s = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (a, b, c)))
                    assert ehrhart_polynomial(s).coefficients[-1] == F(c, 6)
        assert _certificate.cache_info().currsize <= 4096
        assert _class_hstar.cache_info().currsize <= 4096

    @given(lattice_simplices())
    @example(Simplex(((0, 0), (1, 2), (2, 1))))  # class box 3 x 4, own box 3 x 3
    @example(Simplex(((0, 0, 5), (1, 2, 5), (2, 1, 5))))
    @example(Simplex(((0, 0), (1, 0), (40, 1))))  # thin
    @example(Simplex(((10**6, -10**6), (10**6 + 40, 1 - 10**6))))
    @settings(max_examples=100, deadline=None)
    def test_parallelepiped_matches_enumeration(self, s):
        p = ehrhart_polynomial(s)
        h = hstar(s)
        assert p.degree == s.intrinsic_dim
        for t in (1, 2, 3):
            assert p.evaluate(t) == h.count(t) == count_simplex(s, t)
            assert h.interior(t) == count_relative_interior(s, t)

    @given(lattice_simplices(max_ambient=5))
    @example(Simplex(((5, 5),)))
    @example(Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0))))  # (1, 3/2, 1/2)
    @example(REEVE_4)
    @example(Simplex(((0, 0, 0, 0, 0), (1, 0, 0, 0, 1), (0, 1, 0, 0, 0),
                      (0, 0, 1, 0, 0), (1, 1, 1, 3, 0))))
    @settings(max_examples=300, deadline=None)
    def test_change_of_basis_matches_interpolated_counts(self, s):
        # the counts come from enumeration, not from h*; 0*s is one point
        m = s.intrinsic_dim
        counts = [1] + [count_simplex(s, t) for t in range(1, m + 1)]
        assert ehrhart_polynomial(s).coefficients == lagrange_coefficients(counts)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_lattice_class_is_unimodular_invariant(self, data):
        s = data.draw(lattice_simplices())
        dim = s.ambient_dim
        # a unit lower-triangular matrix with entries in {-1, 0, 1}, its rows
        # permuted and signed, is in GL_d(Z)
        unit = st.sampled_from((-1, 0, 1))
        lower = [[1 if j == i else data.draw(unit) if j < i else 0
                  for j in range(dim)] for i in range(dim)]
        order = data.draw(st.permutations(range(dim)))
        signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=dim, max_size=dim))
        shift = data.draw(st.lists(st.integers(-50, 50), min_size=dim, max_size=dim))
        matrix = [[signs[i] * x for x in lower[order[i]]] for i in range(dim)]
        moved = Simplex(tuple(
            tuple(sum(a * x for a, x in zip(row, v)) + b for row, b in zip(matrix, shift))
            for v in s.vertices))
        key = lattice_class(s)
        assert lattice_class(moved) == key
        if key:  # the canonical simplex conv(0, key) is its own class
            assert lattice_class(Simplex(((0,) * len(key),) + key)) == key

    def test_as_dict_stringifies_fractions(self):
        d = ehrhart_polynomial(UNIT_TRIANGLE).as_dict()
        assert d == {"degree": 2, "coefficients": ["1", "3/2", "1/2"]}

    def test_constant_term_must_be_one(self):
        with pytest.raises(IntegrityError):
            EhrhartPolynomial((F(2), F(1)))

    def test_leading_zero_rejected(self):
        with pytest.raises(IntegrityError):
            EhrhartPolynomial((F(1), F(0)))


class TestReciprocity:
    def test_unit_triangle_negative_arguments(self):
        p = ehrhart_polynomial(UNIT_TRIANGLE)
        assert [p.evaluate(-t) for t in (1, 2, 3, 4)] == [0, 0, 1, 3]

    def test_sign_rule_matches_interior_counts(self):
        rng = random.Random(57)
        for _ in range(10):
            s = random_simplex(rng, rng.randint(1, 3), coord_max=2)
            p = ehrhart_polynomial(s)
            m = s.intrinsic_dim
            for t in range(1, 5):
                assert (-1) ** m * p.evaluate(-t) == count_relative_interior(s, t)


class TestHStar:
    def test_unimodular_triangle(self):
        assert hstar(UNIT_TRIANGLE).entries == (1, 0, 0)

    def test_big_triangle(self):
        assert hstar(BIG_TRIANGLE).entries == (1, 3, 0)

    def test_area_one_triangle(self):
        s = Simplex(((0, 0), (1, 0), (0, 2)))
        assert ehrhart_polynomial(s).coefficients == (1, 2, 1)
        assert hstar(s).entries == (1, 1, 0)

    def test_reeve_tetrahedron(self):
        assert hstar(REEVE_4).entries == (1, 0, 3, 0)

    def test_leading_entry_and_sum(self):
        rng = random.Random(58)
        for _ in range(12):
            ambient = rng.randint(1, 3)
            s = random_simplex(rng, ambient, coord_max=2, intrinsic=ambient)
            h = hstar(s).entries
            assert h[0] == 1
            assert all(x >= 0 for x in h)
            assert sum(h) == normalized_volume(s)

    def test_as_dict(self):
        h = hstar(BIG_TRIANGLE)
        assert h.as_dict() == {"entries": [1, 3, 0]}


class TestSimplexCongruence:
    def test_unit_triangle_mod_two(self):
        r = verify_simplex_congruence(UNIT_TRIANGLE, 2, 2)
        assert (r.intrinsic_dim, r.log_floor, r.modulus) == (2, 1, 2)
        assert (r.count, r.residue, r.passed) == (15, 1, True)

    def test_reeve_mod_four(self):
        r = verify_simplex_congruence(REEVE_4, 2, 3)
        assert r.modulus == 4
        assert (r.count, r.residue, r.passed) == (417, 1, True)

    def test_methods_agree(self):
        # 5^2 = 25 box points at t = 4 fit the sub-check budget; REEVE_4's
        # 9 * 9 * 33 = 2673 at t = 8 do not
        small = verify_simplex_congruence(UNIT_TRIANGLE, 2, 2)
        large = verify_simplex_congruence(REEVE_4, 2, 3)
        assert small.method == "enumeration"
        assert large.method == "ehrhart"
        assert small.count == ehrhart_polynomial(UNIT_TRIANGLE).evaluate(4)
        assert large.count == count_simplex(REEVE_4, 8)
        assert small.passed and large.passed

    def test_point_simplex(self):
        r = verify_simplex_congruence(Simplex(((3, 1),)), 5, 1)
        assert (r.count, r.modulus, r.passed) == (1, 5, True)

    def test_exponent_must_clear_log_floor(self):
        # intrinsic dim 3 at p=3 forces k >= 2
        with pytest.raises(InputError):
            verify_simplex_congruence(REEVE_4, 3, 1)

    def test_prime_required(self):
        with pytest.raises(InputError):
            verify_simplex_congruence(UNIT_TRIANGLE, 4, 3)

    def test_random_simplices_pass(self):
        rng = random.Random(59)
        for _ in range(12):
            s = random_simplex(rng, rng.randint(1, 3), coord_max=2)
            for p in (2, 3):
                # k=4 exceeds floor(log_p(m)) for every m <= 3
                r = verify_simplex_congruence(s, p, 4)
                assert r.passed, (s.vertices, p, r)
