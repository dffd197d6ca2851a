"""Lattice-point enumeration for simplices and complexes."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import prod
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplat import (Census, Simplex, box_points, census, close_under_faces,
                     count_complex, count_complex_additive,
                     count_relative_interior, count_simplex, counting, dilate,
                     enumeration_estimate, generate_complex, geometry, hstar,
                     probe_dilations, verify)
from simplat.errors import InputError, ResourceLimitError, ValidationError
from simplat.geometry import translation_key
from simplat.numtheory import dilation_plan

from helpers import (HOLLOW_TRIANGLE_DOC, L_SHAPE_DOC, MIXED_DOC, UNIT_SQUARE_DOC,
                     facewise_additive, facewise_estimate, facewise_union_count,
                     hollow_triangle_count, l_shape_count, mixed_complexes,
                     moved_complex, random_simplex, relative_volume,
                     scan_points, square_count,
                     sympy_barycentric, translation_class_count, union_count)

UNIT_TRIANGLE = Simplex(((0, 0), (1, 0), (0, 1)))
# Largest coordinate spread per ambient dimension 1..4 that keeps the box of
# 4*s small enough for the point-scan oracle
SPREAD = (60, 12, 4, 2)
NEAR_ORIGIN_OR_MILLION = st.one_of(st.just(0), st.integers(-10**6 - 9, -10**6 + 9),
                                   st.integers(10**6 - 9, 10**6 + 9))


def from_doc(doc):
    return close_under_faces(doc["maximal_simplices"], doc["vertices"],
                             ambient_dim=doc["ambient_dim"])


class TestCountSimplex:
    def test_unit_segment(self):
        seg = Simplex(((0,), (1,)))
        assert count_simplex(seg, 1) == 2
        assert count_simplex(seg, 2) == 3
        assert count_simplex(seg, 10) == 11

    def test_unit_triangle_triangular_numbers(self):
        for t in range(1, 7):
            assert count_simplex(UNIT_TRIANGLE, t) == (t + 1) * (t + 2) // 2

    def test_point_simplex(self):
        pt = Simplex(((2, 3),))
        assert count_simplex(pt, 1) == 1
        assert count_simplex(pt, 9) == 1

    def test_skew_segment_counts_gcd_points(self):
        # (1,-2)..(3,4) has direction (2,6); gcd 2 interior steps
        seg = Simplex(((1, -2), (3, 4)))
        assert count_simplex(seg, 1) == 3
        assert count_simplex(seg, 2) == 5

    def test_embedded_triangle_matches_planar(self):
        flat = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0)))
        for t in range(1, 5):
            assert count_simplex(flat, t) == count_simplex(UNIT_TRIANGLE, t)

    def test_dilation_composes(self):
        rng = random.Random(3)
        for _ in range(10):
            s = random_simplex(rng, rng.randint(1, 3), coord_max=2)
            assert count_simplex(s, 6) == count_simplex(dilate(s, 2), 3)

    def test_rejects_bad_dilation(self):
        for bad in (0, -2, 1.5, True):
            with pytest.raises(InputError):
                count_simplex(UNIT_TRIANGLE, bad)

    def test_budget_exceeded(self):
        # 10001^2 box points, over the 10^7 envelope
        with pytest.raises(ResourceLimitError):
            count_simplex(UNIT_TRIANGLE, 10_000)

    def test_budget_measures_box_not_result(self):
        # primitive segments (gcd of the edge is 1) hold just their two
        # endpoints; this one's box has 4001 * 4002 = 16,012,002 points
        with pytest.raises(ResourceLimitError):
            count_simplex(Simplex(((0, 0), (4000, 4001))), 1)
        assert count_simplex(Simplex(((0, 0), (30, 31))), 1) == 2


class TestInterior:
    def test_unit_triangle(self):
        assert count_relative_interior(UNIT_TRIANGLE, 1) == 0
        assert count_relative_interior(UNIT_TRIANGLE, 2) == 0
        assert count_relative_interior(UNIT_TRIANGLE, 3) == 1  # just (1,1)
        assert count_relative_interior(UNIT_TRIANGLE, 4) == 3

    def test_segment(self):
        seg = Simplex(((0,), (1,)))
        assert count_relative_interior(seg, 2) == 1
        assert count_relative_interior(seg, 5) == 4

    def test_point_is_its_own_interior(self):
        assert count_relative_interior(Simplex(((7,),)), 3) == 1

    def test_interior_bounded_by_closure(self):
        rng = random.Random(44)
        for _ in range(15):
            s = random_simplex(rng, rng.randint(1, 3), coord_max=2)
            t = rng.randint(1, 4)
            assert count_relative_interior(s, t) <= count_simplex(s, t)


class TestRescaledCertificate:
    """count_simplex and count_relative_interior scan t*s with the rows of
    s; this oracle scans the same box with sympy's solver on the vertices
    of t*s, so neither the rows nor their rescaling is trusted."""

    @staticmethod
    def oracle(s, t):
        verts = [tuple(t * c for c in v) for v in s.vertices]
        lo = [min(v[i] for v in verts) for i in range(s.ambient_dim)]
        hi = [max(v[i] for v in verts) for i in range(s.ambient_dim)]
        closed = interior = 0
        for x in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            coords = sympy_barycentric(verts, x)
            if coords is None:
                continue
            closed += all(c >= 0 for c in coords)
            interior += all(c > 0 for c in coords)
        return closed, interior

    def test_matches_sympy_scan_of_dilated_box(self):
        rng = random.Random(71)
        for ambient in (1, 2, 3):
            for m in range(ambient + 1):
                s = random_simplex(rng, ambient, coord_max=2, intrinsic=m)
                shift = tuple(rng.randint(-4, -1) for _ in range(ambient))
                s = Simplex(tuple(tuple(c + d for c, d in zip(v, shift))
                                  for v in s.vertices))
                for t in (1, 2, 3):
                    closed, interior = self.oracle(s, t)
                    assert count_simplex(s, t) == closed, (s.vertices, t)
                    assert count_relative_interior(s, t) == interior, (s.vertices, t)
                    if m == 0:
                        assert closed == interior == 1


class TestBoxes:
    def test_box_points(self):
        assert box_points(UNIT_TRIANGLE) == 4
        assert box_points(UNIT_TRIANGLE, 4) == 25
        assert box_points(Simplex(((1, -2), (3, 4))), 2) == 5 * 13

    def test_estimate_sums_maximal_boxes(self):
        c = from_doc(UNIT_SQUARE_DOC)
        assert enumeration_estimate(c, 4) == 50
        assert enumeration_estimate(c, 1) == 8


class TestCountComplex:
    def test_square(self):
        c = from_doc(UNIT_SQUARE_DOC)
        for t in range(1, 5):
            assert count_complex(c, t) == square_count(t)

    def test_l_shape(self):
        c = from_doc(L_SHAPE_DOC)
        for t in range(1, 4):
            assert count_complex(c, t) == l_shape_count(t)

    def test_hollow_triangle(self):
        c = from_doc(HOLLOW_TRIANGLE_DOC)
        for t in range(1, 5):
            assert count_complex(c, t) == hollow_triangle_count(t)

    def test_empty_complex(self):
        c = close_under_faces([], [], ambient_dim=2)
        assert count_complex(c, 3) == 0
        assert count_complex_additive(c, 3) == 0

    def test_full_grid_is_a_cube_count(self):
        # keep=1 triangulations tile [0, g]^d exactly
        for dim, grid in ((1, 3), (2, 2), (3, 1)):
            c = generate_complex(dim, grid, 1, seed=0)
            for t in (1, 2, 3):
                assert count_complex(c, t) == (grid * t + 1) ** dim

    def test_budget_exceeded(self):
        c = from_doc(UNIT_SQUARE_DOC)
        with pytest.raises(ResourceLimitError):
            count_complex(c, 10_000)


class TestAdditiveCount:
    def test_matches_direct_on_fixtures(self):
        for doc in (UNIT_SQUARE_DOC, L_SHAPE_DOC, HOLLOW_TRIANGLE_DOC):
            c = from_doc(doc)
            for t in (1, 2, 3, 4):
                assert count_complex_additive(c, t) == count_complex(c, t)

    def test_interior_modes_agree(self):
        c = from_doc(L_SHAPE_DOC)
        for t in (2, 5, 9):
            assert count_complex_additive(c, t) == count_complex(c, t) == l_shape_count(t)

    def test_random_complexes_agree(self):
        rng = random.Random(2026)
        for trial in range(12):
            keep = 1 if trial % 3 == 0 else Fraction(1, 2)
            c = generate_complex(rng.randint(1, 3), rng.randint(1, 2),
                                 keep, seed=trial)
            t = rng.randint(1, 4)
            assert count_complex_additive(c, t) == count_complex(c, t)


@st.composite
def simplex_lists(draw):
    """One to three simplices of intrinsic dimension 0..d in one ambient
    dimension d = 1..4, in a box of spread SPREAD[d-1] moved near 0 or near
    +-10^6, and a dilation t = 1..4.  Nothing keeps them from overlapping."""
    d = draw(st.integers(1, 4))
    coordinate = st.integers(0, SPREAD[d - 1])
    shift = draw(st.tuples(*[NEAR_ORIGIN_OR_MILLION] * d))
    simplices = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(0, d))
        points = draw(st.lists(st.tuples(*[coordinate] * d),
                               min_size=m + 1, max_size=m + 1, unique=True))
        try:
            simplices.append(Simplex(tuple(
                tuple(a + b for a, b in zip(p, shift)) for p in points)))
        except ValidationError:
            assume(False)
    return simplices, draw(st.integers(1, 4))


def complex_of(simplices):
    """The closure of the simplices as maximal faces, each on its own
    vertex indices, so overlaps are kept as given."""
    vertices = [v for s in simplices for v in s.vertices]
    faces, start = [], 0
    for s in simplices:
        faces.append(range(start, start + len(s.vertices)))
        start += len(s.vertices)
    return close_under_faces(faces, vertices)


def simplex(*vertices):
    return Simplex(tuple(vertices))


@st.composite
def additive_cases(draw):
    """A complex and a dilation t = 1..10^6.  Half are subcomplexes of a
    grid triangulation in dimension 1-3, whole or random, under a unimodular
    map and a shift near 0 or +-10^6, vertex indices shuffled: a whole grid
    holds many translates of few faces.  The others are improper complexes:
    random simplices and translated copies of them, each copy's vertices in
    a drawn order, overlapping as drawn, so overlaps count twice."""
    t = draw(st.one_of(st.integers(1, 4), st.integers(1, 10**6)))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        grid = draw(st.integers(1, (6, 4, 2)[dim - 1]))
        keep = draw(st.sampled_from((1, Fraction(1, 2), Fraction(1, 4))))
        c = generate_complex(dim, grid, keep, seed=draw(st.integers(0, 2**16)))
        shift = draw(st.tuples(*[NEAR_ORIGIN_OR_MILLION] * dim))
        return moved_complex(c, random.Random(draw(st.integers(0, 2**16))), shift), t
    simplices, _ = draw(simplex_lists())
    d = simplices[0].ambient_dim
    copies = []
    for s in simplices:
        for _ in range(draw(st.integers(0, 2))):
            v = draw(st.tuples(*[st.integers(-2, 2)] * d))
            order = draw(st.permutations(s.vertices))
            copies.append(Simplex(tuple(tuple(map(sum, zip(p, v))) for p in order)))
    return complex_of(simplices + copies), t


def grid_case(dim, grid, seed, shift, t):
    c = generate_complex(dim, grid, 1, seed=0)
    return moved_complex(c, random.Random(seed), shift), t


class TestGroupedAdditiveCount:
    """count_complex_additive, which reads one h*-vector per translation
    class, against the sum over every face on its own."""

    @given(additive_cases())
    @example(grid_case(2, 6, 1, (10**6, -10**6), 10**6))
    @example(grid_case(3, 2, 2, (-10**6, 10**6 + 3, 10**6), 10**6))
    @example(grid_case(3, 2, 3, (0, 0, 0), 1))
    @example((complex_of([simplex((0,), (2,)), simplex((1,), (3,)),
                          simplex((2,), (0,))]), 2))
    # two translates of a triangle of normalized volume 5, listed in index
    # orders that differ from each other and from their keys' point order
    @example((complex_of([simplex((0, 0), (3, 1), (1, 2)),
                          simplex((13, 11), (10, 10), (11, 12))]), 7))
    @settings(max_examples=150, deadline=None)
    def test_matches_facewise_sum(self, case):
        c, t = case
        assert count_complex_additive(c, t) == facewise_additive(c, t)
        # a key that joins two faces that are not translates can give a
        # wrong sum; one that splits translates shares no work
        assert (len({translation_key([c.vertices[i] for i in f]) for f in c.faces})
                == translation_class_count(c))


class TestEstimateByLeader:
    """enumeration_estimate, which reads each maximal face's box off the
    leader of its translation class, against every face's own box."""

    @given(additive_cases())
    @example(grid_case(2, 5, 1, (10**6, -10**6), 60))
    @example((complex_of([simplex((0, 0), (3, 0), (0, 2)), simplex((4, 1), (1, 1), (1, 3)),
                          simplex((1, 1), (4, 1), (1, 3))]), 7))
    @settings(max_examples=150, deadline=None)
    def test_matches_facewise_estimate(self, case):
        c, t = case
        assert enumeration_estimate(c, t) == facewise_estimate(c, t)


class TestLinesMatchPointScan:
    """The line counters against the point-scan oracle, which tests every
    point of the dilated box against every row and takes a set union."""

    @given(simplex_lists())
    # edges and triangles parallel to the free axis
    @example(([simplex((0, 0), (5, 0))], 3))
    @example(([simplex((0, 0), (6, 0), (2, 3))], 2))
    @example(([simplex((0, 0), (0, 6), (3, 2))], 2))
    @example(([simplex((1, 2, 0), (1, 2, 7))], 4))
    @example(([simplex((0, 0, 0), (4, 0, 0), (0, 0, 1))], 3))
    # thin primitive segments
    @example(([simplex((0, 0), (30, 31))], 1))
    @example(([simplex((0, 0), (30, 31))], 2))
    @example(([simplex((0, 0, 0), (7, 11, 13))], 3))
    @example(([simplex((0, 0, 0, 0), (1, 2, 2, 2))], 4))
    # shifts near +-10^6
    @example(([simplex((10**6, -10**6), (10**6 + 3, -10**6 + 1), (10**6 + 1, -10**6 + 4))], 4))
    @example(([simplex((-10**6 - 9, 10**6 + 9, 0), (-10**6 - 7, 10**6 + 8, 3))], 3))
    # improper complexes: overlapping maximal faces
    @example(([simplex((0,), (2,)), simplex((1,), (3,))], 2))
    @example(([simplex((0, 0), (4, 0), (0, 4)), simplex((1, 1), (5, 1), (1, 5))], 2))
    @example(([simplex((0, 0), (6, 0), (0, 6)), simplex((1, 1), (2, 1), (1, 2))], 1))
    @example(([simplex((0, 0), (6, 0)), simplex((3, -2), (3, 2))], 1))
    @example(([simplex((0, 0), (4, 4)), simplex((0, 4), (4, 0)), simplex((2, 0), (2, 4))], 3))
    @settings(max_examples=300, deadline=None)
    def test_counts_match_point_scan(self, case):
        simplices, t = case
        for s in simplices:
            assert count_simplex(s, t) == sum(1 for _ in scan_points(s, t)), (s, t)
            assert (count_relative_interior(s, t)
                    == sum(1 for _ in scan_points(s, t, strict=True))), (s, t)
        c = complex_of(simplices)
        assert count_complex(c, t) == union_count(c, t), (simplices, t)

    def test_crossing_segments_count_their_shared_point_once(self):
        # the crossing point (3, 0) is a vertex of neither segment
        c = complex_of([simplex((0, 0), (6, 0)), simplex((3, -2), (3, 2))])
        assert count_complex(c, 1) == 7 + 5 - 1


# Largest coordinate spread per ambient dimension 1..4 that keeps the box of
# 6*s small enough for the point-scan oracle
SHIFTED_SPREAD = (40, 8, 3, 1)


@st.composite
def translated_copies(draw):
    """Random simplices in one ambient dimension d = 1..4, moved near 0 or
    near +-10^6, each with one to three translated copies, each copy's
    vertices in a drawn order, the whole list shuffled so that any copy may
    lead its class; copies overlap their original as drawn.  Also a
    dilation t = 1..6."""
    d = draw(st.integers(1, 4))
    coordinate = st.integers(0, SHIFTED_SPREAD[d - 1])
    shift = draw(st.tuples(*[NEAR_ORIGIN_OR_MILLION] * d))
    simplices = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(0, d))
        points = draw(st.lists(st.tuples(*[coordinate] * d),
                               min_size=m + 1, max_size=m + 1, unique=True))
        points = [tuple(map(sum, zip(p, shift))) for p in points]
        try:
            simplices.append(Simplex(tuple(points)))
        except ValidationError:
            assume(False)
        for _ in range(draw(st.integers(1, 3))):
            v = draw(st.tuples(*[st.integers(-3, 3)] * d))
            order = draw(st.permutations(points))
            simplices.append(Simplex(tuple(tuple(map(sum, zip(p, v))) for p in order)))
    return draw(st.permutations(simplices)), draw(st.integers(1, 6))


class TestShiftedUnionCount:
    """count_complex, which cuts the lines of each translation class once
    and shifts them for every other face of the class, against the
    per-face cut and the point-scan union."""

    @given(translated_copies())
    # a translate along the free axis only, and one off it only
    @example(([simplex((0, 0), (3, 0), (0, 1)), simplex((2, 0), (5, 0), (2, 1))], 2))
    @example(([simplex((0, 0), (3, 0), (0, 1)), simplex((0, 2), (3, 2), (0, 3))], 3))
    # a translate whose least point is not its first vertex
    @example(([simplex((0, 0), (2, 1), (1, 3)), simplex((2, 4), (1, 1), (3, 2))], 2))
    # a translate by (1, -3, 2) near 10^6
    @example(([simplex((10**6, -10**6, 0), (10**6 + 1, -10**6, 2)),
               simplex((10**6 + 1, -10**6 - 3, 2), (10**6 + 2, -10**6 - 3, 4))], 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_facewise_and_point_scan(self, case):
        simplices, t = case
        c = complex_of(simplices)
        assert count_complex(c, t) == facewise_union_count(c, t) == union_count(c, t)

    @pytest.mark.parametrize("dim, grid, n, seed, shift", [
        (2, 6, 6, 1, (10**6, -10**6)),
        (2, 6, 4, 2, (0, 0)),
        (3, 2, 2, 3, (-10**6, 10**6 + 3, 10**6)),
        (3, 2, 3, 4, (0, 0, 0)),
    ], ids=["2d-grid6-n6", "2d-grid6-n4", "3d-grid2-n2", "3d-grid2-n3"])
    def test_whole_grids_at_planned_dilations(self, dim, grid, n, seed, shift):
        c, t = grid_case(dim, grid, seed, shift, dilation_plan(dim, n).dilation)
        assert count_complex(c, t) == (grid * t + 1) ** dim == facewise_union_count(c, t)

    @pytest.mark.parametrize("dim, grid, t", [(1, 6, 5), (2, 4, 3), (3, 2, 2)])
    def test_warm_line_cache_moves_lines_onto_each_face(self, dim, grid, t):
        # the second grid is a translate of the first, so it reads every
        # class's lines from the cache, and each face must still get them
        # moved by its own least vertex point
        c = generate_complex(dim, grid, 1, seed=0)
        moved = translated_complex(c, (10**6, -10**6 + 3, 7)[:dim])
        counting._cached_lines.cache_clear()
        assert count_complex(c, t) == (grid * t + 1) ** dim
        misses = counting._cached_lines.cache_info().misses
        assert count_complex(moved, t) == (grid * t + 1) ** dim == facewise_union_count(moved, t)
        assert counting._cached_lines.cache_info().misses == misses


def translated_complex(c, shift):
    """c moved by shift, its vertex list reversed: every class is kept."""
    n = len(c.vertices)
    vertices = [tuple(map(sum, zip(v, shift))) for v in reversed(c.vertices)]
    return close_under_faces([[n - 1 - i for i in f] for f in c.maximal_faces], vertices,
                             ambient_dim=c.ambient_dim)


def tetrahedron(a, b, c):
    """conv(0, a e1, b e2, c e3): with c >= b >= a, (a+1)(b+1) lines along
    the free axis of its own box."""
    return close_under_faces([[0, 1, 2, 3]], [(0, 0, 0), (a, 0, 0), (0, b, 0), (0, 0, c)])


def segment(*end):
    return close_under_faces([[0, 1]], [(0,) * len(end), end])


class TestLineCache:
    """count_complex keeps the lines of a class across calls, keyed by its
    canonical translate, t and the free axis, for a class whose box at t
    is at most VERIFY_ENUMERATION_BUDGET points with at most
    LINE_CACHE_LINES lines along the axis, in at most LINE_CACHE_ENTRIES
    entries."""

    @staticmethod
    def kept():
        return counting._cached_lines.cache_info().currsize

    def test_worst_case_is_2_to_the_17_lines(self):
        assert counting.LINE_CACHE_ENTRIES == 256
        assert counting.LINE_CACHE_LINES == 512
        assert counting.LINE_CACHE_ENTRIES * counting.LINE_CACHE_LINES == 2 ** 17
        assert counting._cached_lines.cache_info().maxsize == counting.LINE_CACHE_ENTRIES

    def test_class_at_the_line_cap_is_kept_and_one_past_it_is_not(self):
        # boxes of 16 * 32 * 32 and 19 * 27 * 27 points, both under the
        # budget, cut into 16 * 32 = 512 and 19 * 27 = 513 lines
        at, past = tetrahedron(15, 31, 31), tetrahedron(18, 26, 26)
        for c, lines in ((at, 512), (past, 513)):
            (s, _), = c.classes
            assert enumeration_estimate(c, 1) <= counting.VERIFY_ENUMERATION_BUDGET
            assert counting._free_axis([(1, geometry.bounding_box(s))], 1) == 1
            assert box_points(s) // (geometry.bounding_box(s)[1][1] + 1) == lines
        counting._cached_lines.cache_clear()
        assert count_complex(at, 1) == union_count(at, 1)
        assert self.kept() == 1
        assert count_complex(at, 1) == union_count(at, 1)
        assert counting._cached_lines.cache_info().hits == 1
        assert count_complex(past, 1) == union_count(past, 1)
        assert self.kept() == 1
        assert counting._cached_lines.cache_info().misses == 1

    def test_box_past_the_budget_is_not_kept(self):
        # primitive segments cut into 2 lines along e1, whose boxes have
        # 10^4 * 2 points, then 10001 * 2 and 5 * 10^6 * 2 = 10^7; then the
        # unit segment on e1, 1 line, dilated to boxes of 2 * 10^4 points,
        # then 20001 and 10^7
        counting._cached_lines.cache_clear()
        assert count_complex(segment(9999, 1), 1) == 2
        assert self.kept() == 1
        for end in ((10000, 1), (4999999, 1)):
            assert count_complex(segment(*end), 1) == 2
            assert self.kept() == 1
        unit = segment(1, 0)
        assert count_complex(unit, 19999) == 20000
        assert self.kept() == 2
        for t in (20000, 9999999):
            assert enumeration_estimate(unit, t) == t + 1
            assert count_complex(unit, t) == t + 1
            assert self.kept() == 2

    def test_entries_are_bounded(self):
        counting._cached_lines.cache_clear()
        for k in range(1, counting.LINE_CACHE_ENTRIES + 45):
            assert count_complex(segment(k, 1), 1) == 2
        assert self.kept() == counting.LINE_CACHE_ENTRIES

    def test_shared_classes_hit_the_cache(self):
        c = generate_complex(2, 3, Fraction(1, 2), seed=4)
        counting._cached_lines.cache_clear()
        assert count_complex(c, 3) == facewise_union_count(c, 3)
        misses = counting._cached_lines.cache_info().misses
        assert misses == self.kept() == len(c.classes)
        # another seed keeps other cells of the same grid: a translate of
        # the classes the first complex cut, each read from the cache
        other = translated_complex(generate_complex(2, 3, Fraction(1, 2), seed=5), (-9, 10**6))
        assert {s for s, _ in other.classes} <= {s for s, _ in c.classes}
        assert count_complex(other, 3) == facewise_union_count(other, 3)
        info = counting._cached_lines.cache_info()
        assert (info.misses, info.hits) == (misses, len(other.classes))

    def test_one_class_under_two_free_axes(self):
        # the triangle conv(0, 3e1, e2) beside a long segment along e1, then
        # along e2: its lines are cut along e1, then along e2, in two
        # entries; read along the wrong axis, they would cover the
        # reflected triangle
        triangle = [(0, 0), (3, 0), (0, 1)]
        along = [complex_of([Simplex(tuple(triangle)), simplex((0, 0), end)])
                 for end in ((20, 0), (0, 20))]
        counting._cached_lines.cache_clear()
        for c in along:
            assert count_complex(c, 2) == facewise_union_count(c, 2) == union_count(c, 2)
        assert count_complex(along[1], 2) == 41 + 9
        assert self.kept() == 4


# what the census of a unimodular complex must not call
REFUSED_ON_UNIMODULAR = ("translation_key", "_key_hstar", "_class_hstar")


class TestCensusRows:
    """The census rows A_m[k], the sum of h*_k over the m-faces, which
    key the faces of dimension >= 1 of the non-unimodular maximal faces, on
    complexes whose unimodular and non-unimodular maximal faces share
    faces."""

    @given(mixed_complexes(), st.one_of(st.integers(1, 10), st.integers(1, 10**6)))
    @example(from_doc(MIXED_DOC), 10**6)
    @example(from_doc(MIXED_DOC), 1)
    @settings(max_examples=150, deadline=None)
    def test_rows_match_facewise_sum(self, c, t):
        rows = census(c).rows
        assert [row[0] for row in rows] == list(c.f_vector())
        assert [len(row) for row in rows] == list(range(1, len(rows) + 1))
        assert census(c).count(t) == facewise_additive(c, t)
        assert count_complex_additive(c, t) == facewise_additive(c, t)

    @given(mixed_complexes(), st.integers(0, 2**16),
           st.tuples(*[st.integers(-10**6, 10**6)] * 3))
    @example(from_doc(MIXED_DOC), 0, (10**6, -10**6, 0))
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_unimodular_maps_and_translations(self, c, seed, shift):
        moved = moved_complex(c, random.Random(seed), shift[:c.ambient_dim])
        assert census(moved) == census(c)

    def test_mixed_document_counts_by_pick(self, monkeypatch):
        c = from_doc(MIXED_DOC)
        keyed = []

        def key(points):
            keyed.append(sorted(points))
            return translation_key(points)

        monkeypatch.setattr(counting, "translation_key", key)
        # the faces of dimension >= 1 of the non-unimodular triangle are
        # keyed: the volume-5 triangle, whose h* is (1, 2, 2), and its three
        # primitive edges, among them the one the unimodular triangle also
        # holds, each of which adds zero
        assert census(c) == Census(((4,), (5, 0), (2, 2, 2)))
        assert sorted(keyed) == [[(0, 0), (1, 2)], [(0, 0), (1, 2), (3, 1)],
                                 [(0, 0), (3, 1)], [(1, 2), (3, 1)]]
        for t in (1, 2, 3, 10**6):
            assert count_complex_additive(c, t) == 3 * t * t + 2 * t + 1
        assert count_complex_additive(c, 10**6) == 3000002000001
        for t in (1, 2, 3, 4):
            assert count_complex(c, t) == 3 * t * t + 2 * t + 1

    def test_bad_dilation_is_refused_before_the_census(self):
        # this triangle's h* is over the volume budget, so building the
        # census fails; a bad t is an input error all the same
        c = close_under_faces([[0, 1, 2]], [(0, 0), (10000, 0), (0, 1001)])
        with pytest.raises(InputError, match="dilation factor"):
            count_complex_additive(c, -1)
        with pytest.raises(ResourceLimitError, match="normalized volume"):
            count_complex_additive(c, 1)

    @given(mixed_complexes(moved=False))
    @example(from_doc(MIXED_DOC))
    @settings(max_examples=40, deadline=None)
    def test_union_count_and_probe_rows(self, c):
        for t in (1, 2, 3):
            assert count_complex_additive(c, t) == count_complex(c, t)
        # every probe row is read off the census, at any t_max, so
        # enumeration is refused while the rows are counted; each row is
        # count_complex_additive, which on a proper complex is the union count
        with mock.patch.object(verify, "count_complex", side_effect=AssertionError):
            rows = probe_dilations(c, 6, 12).rows
        assert [r.count for r in rows] == [count_complex_additive(c, t) for t in range(1, 13)]
        assert [r.count for r in rows] == [count_complex(c, t) for t in range(1, 13)]

    @given(mixed_complexes())
    @example(from_doc(MIXED_DOC))
    @settings(max_examples=60, deadline=None)
    def test_faces_of_unimodular_faces_are_unimodular(self, c):
        # the lemma the rows rest on, with unimodularity read off the minors
        # of the edge matrix (sympy), not the library's lattice class
        for face in c.maximal_faces:
            points = [c.vertices[i] for i in face]
            lattice = geometry.lattice_class(c.simplex(face))
            assert prod(h[j] for j, h in enumerate(lattice)) == relative_volume(points)
            if relative_volume(points) != 1:
                continue
            for r in range(1, len(face) + 1):
                for sub in combinations(face, r):
                    assert relative_volume([c.vertices[i] for i in sub]) == 1
                    assert hstar(c.simplex(sub)).entries == (1,) + (0,) * (r - 1)

    @pytest.mark.parametrize("dim, grid, k", [
        (1, 6, 3), (2, 5, 3), (3, 2, 2), (4, 1, 2), (5, 1, 2)])
    def test_scaled_whole_grid_keys_every_face(self, dim, grid, k):
        # every vertex of a whole grid scaled by k: each maximal face has
        # normalized volume k^dim and shares its faces with its neighbours,
        # all of them keyed, and the union is the box [0, k*grid]^dim
        c = generate_complex(dim, grid, 1, seed=0)
        c = close_under_faces(c.maximal_faces, [tuple(k * x for x in v) for v in c.vertices],
                              ambient_dim=dim)
        assert {prod(h[j] for j, h in enumerate(geometry.lattice_class(s)))
                for s, _ in c.classes} == {k ** dim}
        whole = census(c)
        for t in (1, 2, 7, 10**6):
            assert whole.count(t) == (k * grid * t + 1) ** dim
        if dim <= 3:
            for t in (1, 2):
                assert count_complex(c, t) == (k * grid * t + 1) ** dim
        moved = moved_complex(c, random.Random(dim), (10**6, -10**6, 3, 0, -7)[:dim])
        assert census(moved) == whole

    @pytest.mark.parametrize("name", REFUSED_ON_UNIMODULAR)
    def test_mixed_complex_reads_each_refused_name(self, monkeypatch, name):
        # the control of the test below: each name it refuses is one the
        # census calls, so a patch of a stale name cannot pass unseen
        monkeypatch.setattr(counting, name, mock.Mock(side_effect=AssertionError(name)))
        with pytest.raises(AssertionError, match=name):
            census(from_doc(MIXED_DOC))

    @pytest.mark.parametrize("dim, grid, seed, shift", [
        (1, 6, 1, (10**6,)), (2, 5, 2, (-10**6, 10**6)), (3, 2, 3, (0, 0, 0))])
    def test_unimodular_complex_reads_no_key_and_no_hstar(self, monkeypatch, dim,
                                                           grid, seed, shift):
        c, _ = grid_case(dim, grid, seed, shift, 1)

        def refused(*args):
            raise AssertionError("read on a unimodular complex")

        for name in REFUSED_ON_UNIMODULAR:
            monkeypatch.setattr(counting, name, refused)
        rows = census(c).rows
        assert rows == tuple((f,) + (0,) * m for m, f in enumerate(c.f_vector()))
        for t in (1, 7, 10**6):
            assert count_complex_additive(c, t) == (grid * t + 1) ** dim
