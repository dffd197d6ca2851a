"""Geometry: barycentric coordinates, membership, dilation, common faces."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplat import (Simplex, barycentric_coordinates, bounding_box,
                     contains_point, dilate, exactlp, intersection_is_common_face)
from simplat.errors import InputError, ValidationError
from simplat.geometry import _certificate, _common_face_lp, hermite_normal_form

from helpers import (euclid_hnf, fraction_certificate, random_simplex,
                     sympy_barycentric, sympy_contains, triangle_contains)

UNIT_TRIANGLE = Simplex(((0, 0), (1, 0), (0, 1)))


@st.composite
def simplex_pairs(draw):
    """Two simplices of intrinsic dimension 0..d in ambient dimension 1..4
    whose vertices come from one pool of d+1 to d+3 points in [-1, 1]^d, so
    that shared faces, overlaps, touching and coplanar pairs are common."""
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d),
                         min_size=d + 1, max_size=d + 3, unique=True))
    pair = []
    for _ in range(2):
        m = draw(st.integers(0, d))
        vertices = draw(st.lists(st.sampled_from(pool), min_size=m + 1,
                                 max_size=m + 1, unique=True))
        try:
            pair.append(Simplex(tuple(vertices)))
        except ValidationError:
            assume(False)
    return tuple(pair)


@st.composite
def vertex_tuples(draw):
    """Tuples of m+1 points, m = 0..d, in ambient dimension d = 1..6, near 0
    or shifted near +-10^6.  Half of those with m >= 1 are made affinely
    dependent on purpose: the last vertex becomes an integer affine
    combination of the earlier ones (a repeat when the factor is 0)."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(0, d))
    vertices = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                             min_size=m + 1, max_size=m + 1))
    if m and draw(st.booleans()):
        a = vertices[draw(st.integers(0, m - 1))]
        b = vertices[draw(st.integers(0, m - 1))]
        c = draw(st.integers(-2, 2))
        vertices[m] = tuple(x + c * (y - x) for x, y in zip(a, b))
    base = draw(st.sampled_from((0, 10**6, -10**6)))
    shift = draw(st.tuples(*[st.integers(base - 5, base + 5)] * d))
    return tuple(tuple(x + s for x, s in zip(v, shift)) for v in vertices)


class TestCertificate:
    @given(vertex_tuples())
    @example(((0, 0), (0, 1)))  # leading zero coordinate: rows swap
    @example(((4, 0, 0), (4, 1, 0), (4, 0, -3)))  # two swaps
    @example(((5, 2), (1, 7), (4, -3)))  # negative pivots
    @example(((-1, 4, 0), (-3, 1, 2)))  # negative pivot and hull rows
    @example(((7, -2, 3),))  # point simplex
    @example(((10**6, 3, -10**6), (10**6 + 1, 3, -10**6),
              (10**6, 4, -10**6), (10**6, 3, 1 - 10**6)))  # unimodular
    @example(((0, 0, 0), (97, 1, 0), (0, 89, 3), (5, 0, 101)))  # large det
    @example(((0, 0), (1, 1), (2, 2)))  # affinely dependent
    @settings(max_examples=300, deadline=None)
    def test_integer_rows_match_fraction_elimination(self, vertices):
        assert _certificate.__wrapped__(vertices) == fraction_certificate(vertices)


@st.composite
def integer_matrices(draw):
    """An m x n integer matrix, n = 1..4 and m = n..n+2, of full column
    rank: entries in [-3, 3], in [-40, 40] or near +-10^6, with the
    rank-deficient draws rejected."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, n + 2))
    entry = draw(st.sampled_from((st.integers(-3, 3), st.integers(-40, 40),
                                  st.integers(10**6 - 9, 10**6 + 9),
                                  st.integers(-10**6 - 9, -10**6 + 9))))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    assume(sympy.Matrix(rows).rank() == n)
    return rows


class TestHermiteNormalForm:
    @given(integer_matrices())
    @example([[0], [6], [-4]])  # pivot below a zero, negative remainders
    @example([[2, 4], [4, 7], [6, 13]])
    @example([[10**6, 1], [10**6 + 1, 1]])  # unimodular, large entries
    @settings(max_examples=300, deadline=None)
    def test_matches_euclid_oracle(self, rows):
        assert hermite_normal_form(rows) == euclid_hnf(rows)

    @pytest.mark.parametrize("rows", [[[0], [0]], [[1, 2], [2, 4], [3, 6]],
                                      [[0, 1], [0, 5]]])
    def test_rank_deficient_is_an_input_error(self, rows):
        for hnf in (hermite_normal_form, euclid_hnf):
            with pytest.raises(InputError, match="full column rank"):
                hnf(rows)


class TestSimplexConstruction:
    def test_accepts_affinely_independent(self):
        s = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0)))
        assert s.ambient_dim == 3
        assert s.intrinsic_dim == 2

    def test_rejects_duplicate_vertex(self):
        with pytest.raises(ValidationError):
            Simplex(((0, 0), (1, 1), (0, 0)))

    def test_rejects_collinear(self):
        with pytest.raises(ValidationError):
            Simplex(((0, 0), (1, 1), (2, 2)))

    def test_rejects_too_many_vertices(self):
        with pytest.raises(ValidationError):
            Simplex(((0,), (1,), (2,)))

    def test_rejects_non_integer_coordinates(self):
        with pytest.raises(InputError):
            Simplex(((0, 0), (1, 0.5)))
        with pytest.raises(InputError):
            Simplex(((0, True), (1, 0)))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(InputError):
            Simplex(((0, 0), (1,)))


class TestBarycentric:
    def test_known_exterior_point(self):
        # (1,1) against the unit triangle: affine solve gives (-1, 1, 1)
        assert barycentric_coordinates(UNIT_TRIANGLE, (1, 1)) == (-1, 1, 1)
        assert not contains_point(UNIT_TRIANGLE, (1, 1))

    def test_vertices_are_unit_vectors(self):
        for j, v in enumerate(UNIT_TRIANGLE.vertices):
            coords = barycentric_coordinates(UNIT_TRIANGLE, v)
            assert coords[j] == 1
            assert sum(coords) == 1

    def test_off_hull_returns_none(self):
        seg = Simplex(((0, 0), (1, 0)))
        assert barycentric_coordinates(seg, (0, 1)) is None
        assert not contains_point(seg, (0, 1))

    def test_rational_point_inside(self):
        p = (Fraction(1, 4), Fraction(1, 4))
        assert contains_point(UNIT_TRIANGLE, p)
        coords = barycentric_coordinates(UNIT_TRIANGLE, p)
        assert coords == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            contains_point(UNIT_TRIANGLE, (0.25, 0.25))

    def test_matches_independent_solver(self):
        rng = random.Random(20260819)
        for _ in range(40):
            ambient = rng.randint(1, 3)
            s = random_simplex(rng, ambient)
            pt = tuple(Fraction(rng.randint(-6, 12), rng.randint(1, 4))
                       for _ in range(ambient))
            expected = sympy_barycentric(s.vertices, pt)
            got = barycentric_coordinates(s, pt)
            assert got == expected
            if expected is not None:
                assert contains_point(s, pt) == sympy_contains(s.vertices, pt)

    def test_reconstructs_point(self):
        rng = random.Random(7)
        for _ in range(40):
            ambient = rng.randint(1, 3)
            s = random_simplex(rng, ambient)
            coords = barycentric_coordinates(s, s.vertices[0])
            assert sum(coords) == 1
            for i in range(ambient):
                assert sum(c * v[i] for c, v in zip(coords, s.vertices)) == s.vertices[0][i]


class TestDilate:
    def test_scales_vertices(self):
        assert dilate(UNIT_TRIANGLE, 3).vertices == ((0, 0), (3, 0), (0, 3))

    def test_identity(self):
        assert dilate(UNIT_TRIANGLE, 1) == UNIT_TRIANGLE

    def test_composes(self):
        rng = random.Random(11)
        for _ in range(20):
            s = random_simplex(rng, rng.randint(1, 3))
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            assert dilate(dilate(s, a), b) == dilate(s, a * b)

    def test_rejects_zero_and_negative(self):
        for bad in (0, -1, 2.0, True):
            with pytest.raises(InputError):
                dilate(UNIT_TRIANGLE, bad)

    def test_bounding_box(self):
        s = Simplex(((1, -2), (3, 4)))
        assert bounding_box(s) == ((1, -2), (3, 4))


class TestCommonFace:
    def test_shared_edge(self):
        s1 = Simplex(((0, 0), (1, 0), (0, 1)))
        s2 = Simplex(((1, 0), (0, 1), (1, 1)))
        assert intersection_is_common_face(s1, s2)

    def test_overlapping_interiors(self):
        s1 = Simplex(((0, 0), (2, 0), (0, 2)))
        s2 = Simplex(((0, 0), (2, 0), (1, 1)))
        assert not intersection_is_common_face(s1, s2)
        # witness (1, 1/2) lies in both but outside the shared segment
        assert contains_point(s1, (1, Fraction(1, 2)))
        assert contains_point(s2, (1, Fraction(1, 2)))

    def test_vertex_touching_edge_interior(self):
        s1 = Simplex(((0, 0), (2, 0), (0, 2)))
        s2 = Simplex(((1, 1), (2, 2), (0, 3)))
        assert not intersection_is_common_face(s1, s2)

    def test_disjoint(self):
        s1 = Simplex(((0, 0), (1, 0)))
        s2 = Simplex(((5, 5), (6, 5)))
        assert intersection_is_common_face(s1, s2)

    def test_self(self):
        assert intersection_is_common_face(UNIT_TRIANGLE, UNIT_TRIANGLE)

    def test_shared_vertex_only(self):
        s1 = Simplex(((0, 0), (1, 0), (0, 1)))
        s2 = Simplex(((1, 0), (2, 0), (1, 1)))
        assert intersection_is_common_face(s1, s2)

    def test_collinear_overlapping_segments(self):
        s1 = Simplex(((0,), (2,)))
        s2 = Simplex(((1,), (3,)))
        assert not intersection_is_common_face(s1, s2)

    def test_nested_segment(self):
        s1 = Simplex(((0,), (3,)))
        s2 = Simplex(((1,), (2,)))
        assert not intersection_is_common_face(s1, s2)

    def test_symmetry(self):
        rng = random.Random(23)
        for _ in range(30):
            ambient = rng.randint(1, 3)
            a = random_simplex(rng, ambient, coord_max=2)
            b = random_simplex(rng, ambient, coord_max=2)
            assert intersection_is_common_face(a, b) == intersection_is_common_face(b, a)

    @given(simplex_pairs())
    @example((Simplex(((0, 0), (2, 0), (0, 2))), Simplex(((1, 0), (2, 0)))))
    @example((Simplex(((0, 0), (2, 0), (0, 2))), Simplex(((0, 0), (2, 0), (1, 1)))))
    @example((Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0))),
              Simplex(((0, 0, 0), (1, 1, 0), (0, 0, 1)))))
    @settings(max_examples=300, deadline=None)
    def test_certificate_agrees_with_lp(self, pair):
        # the certificate may only settle pairs the LP alone decides the same
        a, b = pair
        shared = set(a.vertices) & set(b.vertices)
        lp = _common_face_lp(a, b, shared) and _common_face_lp(b, a, shared)
        # barycentric coordinates are unique, so either LP alone decides
        assert _common_face_lp(a, b, shared) == _common_face_lp(b, a, shared)
        assert intersection_is_common_face(a, b) == lp
        assert intersection_is_common_face(b, a) == lp

    @given(simplex_pairs(), st.sampled_from((10**6, -10**6)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_joint_translation_needs_the_same_lps(self, pair, base, data):
        # a joint lattice translation changes no verdict, and each
        # simplex's rows, read off its class's certificate, move with it,
        # so the same candidates settle the pair wherever it lies
        shift = data.draw(st.tuples(*[st.integers(base - 5, base + 5)] * pair[0].ambient_dim))
        moved = [Simplex(tuple([tuple(map(add, v, shift)) for v in s.vertices]))
                 for s in pair]
        calls = []
        for a, b in (pair, moved, pair[::-1], moved[::-1]):
            with mock.patch.object(exactlp, "maximize", wraps=exactlp.maximize) as lp:
                verdict = intersection_is_common_face(a, b)
            calls.append((verdict, lp.call_count))
        assert calls[0] == calls[1] and calls[2] == calls[3]

    @pytest.mark.parametrize("pair", [
        (((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1))),  # a shared edge
        (((0, 0), (1, 0), (0, 1)), ((1, 0), (2, 0), (1, 1))),  # a shared vertex
        (((0, 0), (2, 0), (0, 2)), ((2, 0), (0, 2), (2, 2))),  # a longer edge
        (((0, 0), (2, 0), (0, 2)), ((2, 1), (1, 2), (2, 2))),  # boxes meet
        (((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
         ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),  # a shared triangle
    ])
    @pytest.mark.parametrize("shift", [(10**6, -10**6, 7), (-10**6 + 3, 10**6, -10**6)])
    def test_proper_pair_far_from_the_origin_needs_no_lp(self, pair, shift):
        def refuse(*args):
            raise AssertionError("the certificate should settle this pair")

        # a 2-D pair moves by the first two coordinates of the shift
        a, b = (Simplex(tuple([tuple(map(add, v, shift)) for v in vs])) for vs in pair)
        with mock.patch.object(exactlp, "maximize", refuse):
            assert intersection_is_common_face(a, b)
            assert intersection_is_common_face(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            intersection_is_common_face(UNIT_TRIANGLE, Simplex(((0,), (1,))))

    def test_matches_grid_sampling_oracle(self):
        # quarter-integer grid scan over the joint bounding box, membership
        # by orientation predicates only
        cases = [
            (((0, 0), (2, 0), (0, 2)), ((0, 0), (2, 0), (1, 1))),
            (((0, 0), (2, 0), (0, 2)), ((1, 1), (2, 2), (0, 3))),
            (((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1))),
            (((0, 0), (2, 0), (0, 2)), ((2, 0), (0, 2), (2, 2))),
        ]
        for va, vb in cases:
            sa, sb = Simplex(va), Simplex(vb)
            shared = set(va) & set(vb)
            stuck_out = False
            for ix in range(-1, 17):
                for iy in range(-1, 17):
                    p = (Fraction(ix, 4), Fraction(iy, 4))
                    if not (triangle_contains(va, p) and triangle_contains(vb, p)):
                        continue
                    ca = sympy_barycentric(va, p)
                    if any(c > 0 for c, v in zip(ca, va) if v not in shared):
                        stuck_out = True
                    cb = sympy_barycentric(vb, p)
                    if any(c > 0 for c, v in zip(cb, vb) if v not in shared):
                        stuck_out = True
            assert intersection_is_common_face(sa, sb) == (not stuck_out)
