"""Complexes: closure, f-vectors, Euler characteristic, validation, generator."""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction
from itertools import combinations
from math import factorial
from operator import add, sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplat import (SimplicialComplex, close_under_faces, complexes,
                     count_complex, count_complex_additive,
                     euler_characteristic, exactlp, generate_complex, geometry,
                     summarize, validate)
from simplat.errors import InputError, ResourceLimitError, ValidationError
from simplat.geometry import translation_key

from simplat.verify import FUZZ_KEEP_CYCLE

from helpers import (HOLLOW_TRIANGLE_DOC, L_SHAPE_DOC, UNIT_SQUARE_DOC,
                     chain_generated_complex, closure_maximal_faces,
                     facewise_f_vector, frozenset_closure, mixed_complexes,
                     moved_complex, moved_generated_complexes)


def from_doc(doc):
    return close_under_faces(doc["maximal_simplices"], doc["vertices"],
                             ambient_dim=doc["ambient_dim"])


class TestClosure:
    def test_square_f_vector(self):
        c = from_doc(UNIT_SQUARE_DOC)
        assert c.f_vector() == (4, 5, 2)
        assert euler_characteristic(c) == 1
        assert c.dim == 1 + 1  # two triangles glued along an edge

    def test_square_maximal_faces(self):
        c = from_doc(UNIT_SQUARE_DOC)
        assert c.maximal_faces == ((0, 1, 2), (1, 2, 3))

    def test_l_shape(self):
        # 6 triangles tiling an L: 13 distinct edges by direct count
        c = from_doc(L_SHAPE_DOC)
        assert c.f_vector() == (8, 13, 6)
        assert euler_characteristic(c) == 1

    def test_hollow_triangle(self):
        c = from_doc(HOLLOW_TRIANGLE_DOC)
        assert c.f_vector() == (3, 3)
        assert euler_characteristic(c) == 0

    def test_summary_dict(self):
        d = summarize(from_doc(UNIT_SQUARE_DOC)).as_dict()
        assert d == {"f_vector": [4, 5, 2], "euler_characteristic": 1}

    def test_nested_input_faces_deduplicate(self):
        c = close_under_faces([[0, 1], [0], [0, 1]], [(0,), (1,)])
        assert c.maximal_faces == ((0, 1),)
        assert c.f_vector() == (2, 1)

    def test_isolated_vertex_stays_maximal(self):
        c = close_under_faces([[0, 1], [2]], [(0, 0), (1, 0), (5, 5)])
        assert c.maximal_faces == ((0, 1), (2,))
        assert c.f_vector() == (3, 1)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_maximal_faces_match_the_drop_one_vertex_pass(self, data):
        # the vertices are 0 and the first n - 1 unit vectors of Z^k, so
        # every set of them is affinely independent
        n = data.draw(st.integers(1, 7))
        k = max(n - 1, 1)
        vertices = [tuple(int(i == j + 1) for j in range(k)) for i in range(n)]
        face = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        faces = data.draw(st.lists(face, max_size=6))
        # given faces nested in given faces, repeats in any order, lone vertices
        for f in list(faces):
            if data.draw(st.booleans()):
                faces.append(data.draw(st.lists(st.sampled_from(f), min_size=1,
                                                max_size=len(f), unique=True)))
            if data.draw(st.booleans()):
                faces.append(data.draw(st.permutations(f)))
        faces += [[i] for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3))]
        faces = data.draw(st.permutations(faces))
        c = close_under_faces(faces, vertices)
        assert c.maximal_faces == closure_maximal_faces(c)
        assert c.faces == {frozenset(sub) for f in faces
                           for r in range(1, len(f) + 1) for sub in combinations(f, r)}

    @given(st.one_of(mixed_complexes(), moved_generated_complexes(),
                     st.just(close_under_faces([], [], ambient_dim=2))))
    @settings(max_examples=60, deadline=None)
    def test_kept_structure_matches_the_face_walk(self, c):
        f = facewise_f_vector(c)
        assert c.f_vector() == f and c.dim == len(f) - 1
        assert euler_characteristic(c) == sum((-1) ** (len(face) - 1) for face in c.faces)
        # classes partition the maximal faces, each ascending, ordered by
        # their first faces, and each simplex is every face's translation key
        listed = [face for _, faces in c.classes for face in faces]
        assert sorted(listed) == list(c.maximal_faces)
        assert all(list(faces) == sorted(faces) for _, faces in c.classes)
        firsts = [faces[0] for _, faces in c.classes]
        assert firsts == sorted(firsts)
        assert all(s.vertices == geometry.translation_key([c.vertices[i] for i in face])
                   for s, faces in c.classes for face in faces)

    def test_empty(self):
        c = close_under_faces([], [], ambient_dim=2)
        assert c.f_vector() == ()
        assert euler_characteristic(c) == 0
        assert c.dim == -1

    def test_out_of_range_index(self):
        with pytest.raises(InputError):
            close_under_faces([[0, 7]], [(0, 0), (1, 0)])

    def test_negative_index(self):
        with pytest.raises(InputError):
            close_under_faces([[0, -1]], [(0, 0), (1, 0)])

    def test_degenerate_face(self):
        with pytest.raises(ValidationError):
            close_under_faces([[0, 1, 2]], [(0, 0), (1, 1), (2, 2)])

    def test_simplex_accessor(self):
        c = from_doc(UNIT_SQUARE_DOC)
        s = c.simplex((2, 1, 0))
        assert s.vertices == ((0, 0), (1, 0), (0, 1))


class TestConstruction:
    """A directly built SimplicialComplex checks its own vertices and
    faces, closes the faces under subsets and certifies the maximal ones,
    so no path past the constructor sees a float, a point of the wrong
    dimension, a bad index or a degenerate face."""

    SEGMENT = frozenset({frozenset({0}), frozenset({1}), frozenset({0, 1})})
    POINTS = frozenset({frozenset({0}), frozenset({1})})

    @pytest.mark.parametrize("vertices", [((0, 0), (5.0, 5)), ((5.0, 5), (0, 0))])
    def test_float_coordinate(self, vertices):
        # the two points share a translation class, so a count that builds
        # only the first face of each class would see the 5.0 in one order
        for faces in (self.POINTS, self.SEGMENT):
            with pytest.raises(InputError, match="lattice coordinates must be integers"):
                SimplicialComplex(2, vertices, faces)

    def test_wrong_dimension(self):
        with pytest.raises(InputError, match="expected a point in dimension 2"):
            SimplicialComplex(2, ((0, 0), (1, 0, 0)), self.SEGMENT)
        with pytest.raises(InputError, match="expected a point in dimension 3"):
            close_under_faces([[0, 1]], [(0, 0, 0), (1, 0)])

    def test_vertices_become_int_tuples(self):
        c = SimplicialComplex(2, [[0, 0], [1, 0]], self.SEGMENT)
        assert c.vertices == ((0, 0), (1, 0))
        assert c == close_under_faces([[0, 1]], [[0, 0], [1, 0]])

    TRIANGLE = ((0, 0), (1, 0), (0, 1))
    INDEX_CHECKS = {
        "SimplicialComplex": lambda v, bad: SimplicialComplex(2, v, [(0, bad)]),
        "close_under_faces": lambda v, bad: close_under_faces([[0, bad]], v),
        "simplex": lambda v, bad: close_under_faces([[0, 1, 2]], v).simplex((0, bad)),
        # (0, 1.0, 2) and (0, True, 2) equal the maximal face's index tuple
        "simplex_table_hit": lambda v, bad: close_under_faces(
            [[0, 1, 2]], v).simplex((0, bad, 2)),
    }

    @pytest.mark.parametrize("entry", INDEX_CHECKS)
    @pytest.mark.parametrize("bad", ["a", None, 1.0, True, -1, len(TRIANGLE)])
    def test_bad_index_is_an_input_error(self, entry, bad):
        # never a TypeError from sorting or indexing, never a wrapped -1
        with pytest.raises(InputError):
            self.INDEX_CHECKS[entry](self.TRIANGLE, bad)

    @pytest.mark.parametrize("entry", INDEX_CHECKS)
    def test_huge_index_is_named_by_its_digits(self, entry):
        # an int past sys.get_int_max_str_digits has no repr
        with pytest.raises(InputError, match="integer (of 5001 digits|too long to print)"):
            self.INDEX_CHECKS[entry](self.TRIANGLE, 10**5000)

    def test_repeated_index_is_refused(self):
        # as a set, [0, 0, 1] would be the edge {0, 1}, with f-vector (2, 1)
        for build in (lambda: SimplicialComplex(2, self.TRIANGLE, [(0, 0, 1)]),
                      lambda: close_under_faces([[0, 0, 1]], self.TRIANGLE)):
            with pytest.raises(InputError) as info:
                build()
            assert str(info.value) == "repeated vertex index in face [0, 0, 1]"
        c = close_under_faces([[0, 1, 2]], self.TRIANGLE)
        for face in ((0, 0, 1), [1, 0, 1, 2], (2, 2)):
            with pytest.raises(InputError, match=re.escape(f"{list(face)} is not a face")):
                c.simplex(face)

    def test_face_is_read_once(self):
        c = SimplicialComplex(2, self.TRIANGLE, [iter((0, 1)), (x for x in (2,))])
        assert c == close_under_faces([[0, 1], [2]], self.TRIANGLE)
        assert c.simplex(iter((1, 0))).vertices == ((0, 0), (1, 0))

    # the vertices of the unit tetrahedron, whose every subset is affinely
    # independent, so a face list is refused for its indices or not at all
    TETRAHEDRON = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    ENTRY = st.one_of(st.integers(-2, len(TETRAHEDRON)), st.booleans(),
                      st.sampled_from([0.0, 1.0, 2.5]))

    @given(st.lists(st.lists(ENTRY, max_size=5), max_size=4),
           st.sampled_from([list, tuple, iter]))
    @example([[0, 0, 1]], list)
    @example([[2, 1], [3, 3]], tuple)
    @settings(max_examples=300, deadline=None)
    def test_construction_and_closure_agree(self, faces, container):
        # every face of a directly built complex is checked as
        # close_under_faces checks it: the same complex or the same message
        def outcome(build):
            try:
                return build()
            except InputError as exc:
                return str(exc)

        direct = outcome(lambda: SimplicialComplex(
            3, self.TETRAHEDRON, [container(f) for f in faces]))
        assert direct == outcome(lambda: close_under_faces(faces, self.TETRAHEDRON))

    @given(st.one_of(mixed_complexes(), moved_generated_complexes()), st.data())
    @settings(max_examples=60, deadline=None)
    def test_simplex_refuses_a_repeated_index(self, c, data):
        assume(c.faces)
        face = list(data.draw(st.sampled_from(sorted(map(sorted, c.faces)))))
        face.insert(data.draw(st.integers(0, len(face))), data.draw(st.sampled_from(face)))
        with pytest.raises(InputError, match=re.escape(f"{face} is not a face")):
            c.simplex(face)
        assert c.simplex(sorted(set(face))).vertices == tuple(
            c.vertices[i] for i in sorted(set(face)))

    @given(moved_generated_complexes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_generating_set_gives_the_complex(self, c, data):
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        generators = {frozenset(f) for f in c.maximal_faces}
        generators |= {f for f in c.faces if rng.random() < 0.5}
        assert SimplicialComplex(c.ambient_dim, c.vertices, generators) == c
        # a third point on the line through vertices 0 and 1
        a, b = c.vertices[0], c.vertices[1]
        vertices = c.vertices + (tuple(2 * y - x for x, y in zip(a, b)),)
        face = [0, 1, len(c.vertices)]
        with pytest.raises(ValidationError, match=re.escape(f"face {face} is degenerate")):
            SimplicialComplex(c.ambient_dim, vertices, generators | {frozenset(face)})


# bad faces, each refused with its own message
BAD_FACES = [5, None, [], "01", [0, 0], [0, True], [0, 1.0], [-1], [7], [10**5000]]
# a triangle, a dangling edge, an isolated vertex and an edge the triangle
# holds
NON_PURE = [[0, 1, 2], [1, 3], [4], [0, 1]]


class TestTupleClosure:
    """Construction closes the given faces on sorted index tuples and
    builds faces, the frozenset form, only when it is read; the closure as
    it was built before, a frozenset per subset, is the oracle
    (helpers.frozenset_closure)."""

    @staticmethod
    def check(dim, vertices, given, container=list):
        # given is a face list, or a value given in place of one; each
        # face in it that is a list is handed over in the container
        def build():
            if not isinstance(given, list):
                return SimplicialComplex(dim, vertices, given)
            return SimplicialComplex(dim, vertices, [
                container(f) if isinstance(f, list) else f for f in given])

        try:
            faces, maximal, f_vector, classes = frozenset_closure(vertices, given)
        except InputError as exc:
            with pytest.raises(InputError) as info:
                build()
            assert str(info.value) == str(exc)
            return
        read, hashed, printed, compared = (build() for _ in range(4))
        assert not any("faces" in vars(c) for c in (read, hashed, printed, compared))
        assert read.faces == faces and read.faces is read.faces
        assert type(read.faces) is frozenset
        assert all(type(face) is frozenset for face in read.faces)
        assert read.maximal_faces == maximal
        assert read.f_vector() == f_vector
        assert tuple((s.vertices, fs) for s, fs in read.classes) == classes
        # ==, hash and repr read faces as they read any field, so a
        # complex whose faces were never read gives the same answers
        assert hash(hashed) == hash(read) == hash((dim, read.vertices, faces))
        assert repr(printed) == repr(read) == (
            f"SimplicialComplex(ambient_dim={dim!r}, vertices={read.vertices!r}, "
            f"faces={read.faces!r})")
        assert compared == read == SimplicialComplex(dim, vertices, faces)

    @given(st.one_of(mixed_complexes(), moved_generated_complexes()), st.data())
    @settings(max_examples=80, deadline=None)
    def test_generated_complexes_match_the_oracle(self, c, data):
        # the maximal faces, some of their faces, some repeated, and some
        # lone vertices, each face and the list in a drawn order
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        closure = frozenset_closure(c.vertices, c.maximal_faces)[0]
        given = [list(f) for f in c.maximal_faces]
        given += [list(f) for f in closure if rng.random() < 0.3]
        given += [[rng.randrange(len(c.vertices))] for _ in range(rng.randrange(3))]
        given += rng.sample(given, min(len(given), rng.randrange(4)))
        for face in given:
            rng.shuffle(face)
        rng.shuffle(given)
        self.check(c.ambient_dim, c.vertices, given,
                   data.draw(st.sampled_from([list, tuple, iter])))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_given_lists_match_the_oracle(self, data):
        # the vertices are 0 and the first n - 1 unit vectors of Z^k, so
        # every set of them is affinely independent
        n = data.draw(st.integers(1, 6))
        k = max(n - 1, 1)
        vertices = [tuple(int(i == j + 1) for j in range(k)) for i in range(n)]
        face = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        given = data.draw(st.lists(face, max_size=6))
        # given faces nested in given faces, repeats in any order, lone vertices
        for f in list(given):
            if data.draw(st.booleans()):
                given.append(data.draw(st.lists(st.sampled_from(f), min_size=1,
                                                 max_size=len(f), unique=True)))
            if data.draw(st.booleans()):
                given.append(data.draw(st.permutations(f)))
        given += [[i] for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3))]
        given = data.draw(st.permutations(given))
        if data.draw(st.integers(0, 3)) == 3:
            bad = BAD_FACES[data.draw(st.integers(0, len(BAD_FACES) - 1))]
            given.insert(data.draw(st.integers(0, len(given))), bad)
        elif data.draw(st.integers(0, 7)) == 7:
            given = data.draw(st.sampled_from([5, None]))
        self.check(k, vertices, given, data.draw(st.sampled_from([list, tuple, iter])))

    @pytest.mark.parametrize("given", [NON_PURE, [], *[
        NON_PURE[:2] + [bad] + NON_PURE[2:] for bad in BAD_FACES], 5, None])
    def test_fixed_lists_match_the_oracle(self, given):
        # the non-pure list, with each bad face among its faces, and bad
        # face lists
        self.check(2, [(0, 0), (1, 0), (0, 1), (3, 0), (5, 5)], given)


@st.composite
def translated_shapes(draw):
    """(d, vertices, given faces) in Z^d, d in 1-6: translated copies of up
    to three simplex shapes of any dimension up to d, with coordinates near
    0 or up to +-10^30.  Equal points share one vertex index, so copies
    that meet share faces.  Each copy is given, with some of its faces
    given on their own and some faces given twice, beside unreferenced
    vertices, with the vertex list, the face list and each face in a drawn
    order."""
    d = draw(st.integers(1, 6))
    coordinate = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
    copies = []
    for _ in range(draw(st.integers(1, 3))):
        # edge j is zero on the first j axes of a drawn order and nonzero on
        # the next, so the edges are independent
        axes = draw(st.permutations(range(d)))
        shape = [(0,) * d]
        for j in range(draw(st.integers(0, d))):
            edge = [0] * d
            edge[axes[j]] = draw(coordinate.filter(bool))
            for axis in axes[j + 1:]:
                edge[axis] = draw(coordinate)
            shape.append(tuple(edge))
        for shift in draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=4)):
            copies.append([tuple(map(add, p, shift)) for p in shape])
    points = {p: None for copy in copies for p in copy}
    points.update((p, None) for p in draw(st.lists(st.tuples(*[coordinate] * d), max_size=3)))
    vertices = draw(st.permutations(list(points)))
    index = {p: i for i, p in enumerate(vertices)}
    given = [[index[p] for p in copy] for copy in copies]
    for face in list(given):
        given += draw(st.lists(st.lists(st.sampled_from(face), min_size=1, unique=True),
                               max_size=2))
    given += draw(st.lists(st.sampled_from(given), max_size=3))
    given = [draw(st.permutations(face)) for face in draw(st.permutations(given))]
    return d, vertices, given


class TestPackedClasses:
    """Construction closes the faces size by size and groups the maximal
    faces into translation classes by the differences of one int per
    vertex (complexes._packed); the frozenset closure, whose classes are
    keyed by geometry.translation_key on every face, is the oracle."""

    @given(translated_shapes(), st.sampled_from([list, tuple, iter]))
    @settings(max_examples=200, deadline=None)
    def test_translated_shapes_match_the_oracle(self, shapes, container):
        TestTupleClosure.check(*shapes, container)

    @pytest.mark.parametrize("shift", [(0, 0), (-7, 3), (10**30, -10**30)])
    def test_offsets_that_a_base_of_w_plus_1_merges(self, shift):
        # the span is w = 1, and the segments differ by (0, 1) and by
        # (1, -1): a base of w + 1 = 2 packs both as 1, a base of 2w + 1 = 3
        # as 1 and 2
        vertices = [tuple(map(add, p, shift)) for p in ((0, 0), (0, 1), (1, 0))]
        TestTupleClosure.check(2, vertices, [[0, 1], [1, 2]])
        assert len(close_under_faces([[0, 1], [1, 2]], vertices).classes) == 2

    @given(st.integers(1, 6).flatmap(lambda d: st.lists(st.tuples(*[st.one_of(
        st.integers(-3, 3), st.integers(-10**30, 10**30))] * d), min_size=1, max_size=6)))
    @example([(0, 1), (1, 0), (0, 0), (-1, 5)])  # lexicographic, not by the last axis
    @example([(0, -1), (0, 1), (1, -1), (-1, 1)])  # differences of every sign
    @settings(max_examples=200, deadline=None)
    def test_ints_sort_and_differ_as_the_points_do(self, points):
        packed = complexes._packed(points)
        assert sorted(range(len(points)), key=packed.__getitem__) == sorted(
            range(len(points)), key=points.__getitem__)
        for (a, b), (c, d) in combinations(combinations(range(len(points)), 2), 2):
            same = [x - y for x, y in zip(points[a], points[b])] == [
                x - y for x, y in zip(points[c], points[d])]
            assert (packed[a] - packed[b] == packed[c] - packed[d]) == same

    def test_translated_copies_share_the_canonical_simplex(self):
        base = generate_complex(3, 1, 1, seed=0)
        c = moved_complex(base, random.Random(1), (10**6, -10**6, 5))
        copy = moved_complex(base, random.Random(1), (-4, 10**30, 0))
        assert len(c.classes) == len(copy.classes) == 6
        assert all(a.simplex is b.simplex and a.simplex.vertices == translation_key(
            [c.vertices[i] for i in a.faces[0]]) for a, b in zip(c.classes, copy.classes))
        assert geometry.canonical_simplex.cache_info().maxsize == geometry.CACHE_SIZE


class TestLeaders:
    """Construction builds and certifies one Simplex per translation class
    of maximal faces, its canonical translate, and a degenerate class is
    named by its first face in sorted order, with that face's vertices."""

    # three collinear triples: [0, 1, 2] and its translate [6, 7, 8], listed
    # first, and [3, 4, 5], of another class; [9, 10, 11] is a triangle
    VERTICES = [(0, 0), (1, 1), (2, 2), (0, 5), (1, 5), (2, 5),
                (7, 3), (8, 4), (9, 5), (0, 9), (1, 9), (0, 10)]

    @pytest.mark.parametrize("listing", [
        [[6, 7, 8], [3, 4, 5], [0, 1, 2], [9, 10, 11]],
        [[9, 10, 11], [6, 7, 8], [0, 1, 2], [3, 4, 5]],
        [[3, 4, 5], [8, 7, 6], [2, 1, 0]],
    ])
    def test_error_names_the_least_degenerate_face(self, listing):
        with pytest.raises(ValidationError, match=re.escape(
                "face [0, 1, 2] is degenerate: vertices are affinely dependent: "
                "((0, 0), (1, 1), (2, 2))")):
            close_under_faces(listing, self.VERTICES)

    @pytest.mark.parametrize("listing", [[[3, 4, 5], [0, 1, 2]], [[0, 1, 2], [3, 4, 5]]])
    def test_least_degenerate_face_across_two_classes(self, listing):
        # two collinear triples of different shapes: the first in sorted
        # face order is named, whichever is listed first
        vertices = [(0, 0), (1, 1), (2, 2), (5, 5), (7, 5), (9, 5)]
        with pytest.raises(ValidationError, match=re.escape("face [0, 1, 2] is degenerate")):
            close_under_faces(listing, vertices)

    def test_moved_grid_certifies_one_face_per_class(self):
        # the 50 triangles of the whole grid-5 are translates of 2 shapes,
        # each built and certified once on its canonical translate; a copy
        # under the same map with another shift has the same shapes and
        # builds and certifies none, and neither do validation or each
        # face's own Simplex, which certify the face's class
        base = generate_complex(2, 5, 1, seed=0)
        for seed, shift in ((1, (10**6, -10**6)), (2, (-10**6 + 3, 10**6))):
            geometry._certificate.cache_clear()
            geometry.canonical_simplex.cache_clear()
            c = moved_complex(base, random.Random(seed), shift)
            assert geometry._certificate.cache_info().misses == 2
            assert geometry.canonical_simplex.cache_info().misses == 2
            copy = moved_complex(base, random.Random(seed), (-shift[1], shift[0] + 7))
            assert geometry._certificate.cache_info().misses == 2
            assert geometry.canonical_simplex.cache_info().misses == 2
            for x in (c, copy):
                assert len(x.maximal_faces) == 50
                assert len(x.classes) == 2
                assert all(s.vertices == geometry.translation_key([x.vertices[i] for i in f])
                           for s, faces in x.classes for f in faces)
                assert validate(x).passed
            assert {s for s, _ in c.classes} == {s for s, _ in copy.classes}
            for face in c.maximal_faces:  # each face's own, on request
                assert c.simplex(face).vertices == tuple(c.vertices[i] for i in face)
            assert geometry._certificate.cache_info().misses == 2
            assert geometry.canonical_simplex.cache_info().misses == 2

    @pytest.mark.parametrize("listing", [[[0, 1, 2]], [[3, 4, 5], [2, 1, 0]]])
    def test_degenerate_face_far_from_the_origin(self, listing):
        # the error names the face's own vertices in index order, not the
        # canonical translate that construction certifies
        vertices = [(10**6 + 2, -10**6 + 4), (10**6, -10**6), (10**6 + 1, -10**6 + 2),
                    (5, 5), (6, 5), (5, 6)]
        with pytest.raises(ValidationError, match=re.escape(
                "face [0, 1, 2] is degenerate: vertices are affinely dependent: "
                "((1000002, -999996), (1000000, -1000000), (1000001, -999998))")):
            close_under_faces(listing, vertices)
        with pytest.raises(ValidationError, match=re.escape(
                "face [0, 1, 2, 3] is degenerate: "
                "4 vertices cannot be affinely independent in Z^2")):
            close_under_faces([[3, 2, 1, 0]], vertices)


class TestFaceTable:
    """SimplicialComplex.simplex builds a face's Simplex on each request
    and keeps none."""

    def test_repeated_calls_return_one_object(self):
        c = from_doc(L_SHAPE_DOC)
        for face in c.faces:
            s = c.simplex(face)
            assert s.vertices == tuple(c.vertices[i] for i in sorted(face))
            assert c.simplex(face) == s
            assert c.simplex(tuple(sorted(face, reverse=True))) == s
            assert c.simplex(sorted(face)) == s
        assert c.simplex((0, 1, 4)) == c.simplex(frozenset({4, 1, 0}))

    def test_out_of_range_index_still_raises(self):
        c = from_doc(UNIT_SQUARE_DOC)
        c.simplex((0, 1, 2))
        for bad in ((0, 4), (0, -1), (9,)):
            with pytest.raises(InputError):
                c.simplex(bad)
            with pytest.raises(InputError, match=re.escape(f"{list(bad)} is not a face")):
                c.simplex(bad)  # a failed build leaves no entry behind; -1 would wrap

    def test_equality_and_hash_ignore_the_table(self):
        a, b = from_doc(L_SHAPE_DOC), from_doc(L_SHAPE_DOC)
        count_complex(a, 3)
        count_complex_additive(a, 3)
        assert validate(a).passed
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestValidate:
    def test_valid_complex_passes(self):
        report = validate(from_doc(L_SHAPE_DOC))
        assert report.passed
        assert report.describe() == "valid simplicial complex"

    def test_missing_subset(self):
        faces = frozenset({frozenset({0, 1, 2}), frozenset({0, 1}),
                           frozenset({0, 2}), frozenset({0}), frozenset({1}),
                           frozenset({2})})  # {1, 2} left out
        c = SimplicialComplex(2, ((0, 0), (1, 0), (0, 1)), faces)
        assert frozenset({1, 2}) in c.faces
        assert c == close_under_faces([[0, 1, 2]], ((0, 0), (1, 0), (0, 1)))
        assert validate(c).passed

    def test_duplicate_vertices(self):
        c = close_under_faces([[0], [1]], [(0, 0), (0, 0)])
        report = validate(c)
        assert report.duplicate_vertices == ((0, 1),)
        assert not report.passed

    def test_degenerate_face_reported(self):
        faces = frozenset({frozenset({0, 1, 2}), frozenset({0, 1}),
                           frozenset({0, 2}), frozenset({1, 2}), frozenset({0}),
                           frozenset({1}), frozenset({2})})
        with pytest.raises(ValidationError, match=re.escape("face [0, 1, 2] is degenerate")):
            SimplicialComplex(2, ((0, 0), (1, 1), (2, 2)), faces)

    def test_improper_overlap(self):
        c = close_under_faces([[0, 1, 2], [0, 1, 3]],
                              [(0, 0), (2, 0), (0, 2), (1, 1)])
        report = validate(c)
        assert report.overlap_failures == (((0, 1, 2), (0, 1, 3)),)
        assert not report.passed
        assert report.as_dict()["overlap_failures"] == [[[0, 1, 2], [0, 1, 3]]]

    def test_proper_gluing_has_no_overlap_failures(self):
        report = validate(from_doc(UNIT_SQUARE_DOC))
        assert report.overlap_failures == ()

    @pytest.mark.parametrize("dim, grid", [(2, 6), (3, 3)])
    def test_whole_grid_needs_lp_only_for_vertex_disjoint_pairs(self, dim, grid, monkeypatch):
        solves, fallbacks = [], []
        maximize, common_face_lp = exactlp.maximize, geometry._common_face_lp

        def counted_maximize(*args):
            solves.append(1)
            return maximize(*args)

        def recorded_lp(a, b, shared):
            fallbacks.append(shared)
            return common_face_lp(a, b, shared)

        monkeypatch.setattr(exactlp, "maximize", counted_maximize)
        monkeypatch.setattr(geometry, "_common_face_lp", recorded_lp)
        assert validate(generate_complex(dim, grid, 1, seed=0)).passed
        assert len(solves) == len(fallbacks)
        assert all(not shared for shared in fallbacks)

    @pytest.mark.parametrize("dim, grid, keys", [(2, 6, 2), (3, 3, 6)])
    def test_validation_certifies_one_simplex_per_class(self, dim, grid, keys):
        # every simplex is certified on its class's canonical translate, so
        # validation computes one certificate per translation key of the
        # maximal faces, not one per face
        c = generate_complex(dim, grid, 1, seed=0)
        assert len({geometry.translation_key([c.vertices[i] for i in f])
                    for f in c.maximal_faces}) == keys
        geometry._certificate.cache_clear()
        assert validate(c).passed
        assert geometry._certificate.cache_info().misses == keys

    @pytest.mark.parametrize("dim, grid, extra", [
        (2, 3, ((1, 1), (2, 1), (1, 2))),  # across the diagonal of one cell
        (3, 1, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))),
    ])
    def test_extra_overlapping_simplex_is_reported(self, dim, grid, extra):
        c = generate_complex(dim, grid, 1, seed=0)
        face = tuple(sorted(c.vertices.index(v) for v in extra))
        bad = close_under_faces(c.maximal_faces + (face,), c.vertices)
        # LP-only oracle over every pair, in the order of combinations
        expected = []
        for fa, fb in combinations(bad.maximal_faces, 2):
            a, b = bad.simplex(fa), bad.simplex(fb)
            shared = set(a.vertices) & set(b.vertices)
            if not (geometry._common_face_lp(a, b, shared)
                    and geometry._common_face_lp(b, a, shared)):
                expected.append((fa, fb))
        failures = validate(bad).overlap_failures
        assert failures == tuple(expected)
        assert failures and all(face in pair for pair in failures)


def unmemoized_failures(c):
    """validate's overlap_failures without the memo: every pair that
    _overlapping_boxes finds, each tested through
    intersection_is_common_face on the faces' own simplices."""
    faces = c.maximal_faces
    simplices = [geometry.Simplex(tuple([c.vertices[i] for i in f])) for f in faces]
    pairs = complexes._overlapping_boxes([geometry.bounding_box(s) for s in simplices])
    return tuple((faces[i], faces[j]) for i, j in pairs
                 if not geometry.intersection_is_common_face(simplices[i], simplices[j]))


@st.composite
def grids_with_extras(draw):
    """A moved subcomplex of a 2-D or 3-D grid, with 0-3 extra lattice
    simplices whose vertices lie at most one step from its vertices, so
    their boxes meet its faces' boxes; a point already listed keeps its
    index, and a degenerate extra is left out."""
    dim = draw(st.sampled_from((2, 3)))
    grid = draw(st.integers(1, 4 if dim == 2 else 2))
    keep = draw(st.sampled_from((Fraction(1, 2), Fraction(3, 4), 1)))
    base = generate_complex(dim, grid, keep, seed=draw(st.integers(0, 2**16)))
    shift = draw(st.tuples(*[st.integers(-10**6, 10**6)] * dim))
    c = moved_complex(base, random.Random(draw(st.integers(0, 2**16))), shift)
    vertices = list(c.vertices)
    faces = [list(f) for f in c.maximal_faces]
    for _ in range(draw(st.integers(0, 3))):
        points = [tuple(map(add, draw(st.sampled_from(c.vertices)),
                            draw(st.tuples(*[st.integers(-1, 1)] * dim))))
                  for _ in range(draw(st.integers(2, dim + 1)))]
        try:
            geometry.Simplex(tuple(points))
        except ValidationError:
            continue
        for p in points:
            if p not in vertices:
                vertices.append(p)
        faces.append([vertices.index(p) for p in points])
    return close_under_faces(faces, vertices, ambient_dim=dim)


def whole_grid_box_pairs(dim, grid):
    """Pairs of maximal faces of the whole grid whose boxes meet: two
    simplices meet in their boxes when their cells' corners differ by at
    most 1 on every axis, which 3 * grid - 2 corner pairs per axis do."""
    cells = factorial(dim)
    return (cells ** 2 * (3 * grid - 2) ** dim - cells * grid ** dim) // 2


class TestValidationMemo:
    """validate tests each pair of faces up to a common lattice translation
    once, and refuses more than VALIDATE_PAIR_LIMIT pairs before testing
    any."""

    @given(grids_with_extras())
    @settings(max_examples=60, deadline=None)
    def test_failures_match_the_unmemoized_oracle(self, c):
        assert validate(c).overlap_failures == unmemoized_failures(c)

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (2, 3, 0, 1)])
    def test_equal_shapes_at_another_offset_get_their_own_verdict(self, order):
        # [0, 2] and [1, 3] overlap in [1, 2]; [10, 12] and [12, 14] share
        # the point 12.  All four faces have the one shape, so the pairs
        # differ only in the offset between their faces' least points (1
        # and 2), and a key without it gives both the first verdict
        points = [(0,), (2,), (1,), (3,), (10,), (12,), (14,)]
        segments = [[0, 1], [2, 3], [4, 5], [5, 6]]
        c = close_under_faces([segments[k] for k in order], points)
        assert unmemoized_failures(c) == validate(c).overlap_failures == (((0, 1), (2, 3)),)

    def test_each_pair_shape_is_tested_once(self, monkeypatch):
        c = moved_complex(generate_complex(3, 4, 1, seed=0), random.Random(5),
                          (10**6, -10**6, 7))
        points = [[c.vertices[i] for i in f] for f in c.maximal_faces]
        boxes = [geometry.bounding_box(geometry.Simplex(tuple(p))) for p in points]
        pairs = list(complexes._overlapping_boxes(boxes))
        shapes = {(translation_key(points[i]), translation_key(points[j]),
                   tuple(map(sub, min(points[j]), min(points[i])))) for i, j in pairs}
        test, calls = complexes.intersection_is_common_face, []

        def counted(a, b):
            calls.append((a, b))
            return test(a, b)

        monkeypatch.setattr(complexes, "intersection_is_common_face", counted)
        assert validate(c).passed
        assert len(calls) == len(shapes)
        assert len(pairs) > 10 * len(shapes)

    @pytest.mark.parametrize("dim, grid", [(1, 5), (2, 3), (3, 2), (4, 1)])
    def test_box_pairs_of_whole_grids(self, dim, grid):
        c = generate_complex(dim, grid, 1, seed=0)
        boxes = [geometry.bounding_box(c.simplex(f)) for f in c.maximal_faces]
        assert len(list(complexes._overlapping_boxes(boxes))) == whole_grid_box_pairs(dim, grid)

    def test_the_limit_lies_between_the_4d_grid_4_and_the_5d_grid_2(self):
        assert whole_grid_box_pairs(4, 4) == 2_876_928
        assert whole_grid_box_pairs(5, 2) == 7_370_880
        assert whole_grid_box_pairs(6, 2) == 1_061_660_160
        assert 2_876_928 < complexes.VALIDATE_PAIR_LIMIT == 4_000_000 < 7_370_880

    def test_one_pair_over_the_limit_is_refused_before_any_test(self, monkeypatch):
        c = generate_complex(2, 2, 1, seed=0)
        pairs = whole_grid_box_pairs(2, 2)
        monkeypatch.setattr(complexes, "VALIDATE_PAIR_LIMIT", pairs)
        assert validate(c).passed

        def refused(a, b):
            raise AssertionError("a pair was tested")

        monkeypatch.setattr(complexes, "intersection_is_common_face", refused)
        monkeypatch.setattr(complexes, "VALIDATE_PAIR_LIMIT", pairs - 1)
        with pytest.raises(ResourceLimitError, match=re.escape(
                f"more than {pairs - 1} pairs of maximal faces have meeting "
                f"bounding boxes, over the validation cap of {pairs - 1}")):
            validate(c)


class TestGenerator:
    def test_square_full_keep(self):
        c = generate_complex(2, 1, 1, seed=0)
        assert c.f_vector() == (4, 5, 2)
        assert euler_characteristic(c) == 1
        assert c.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_cube_full_keep(self):
        # 12 cube edges + 6 face diagonals + 1 body diagonal = 19 edges
        c = generate_complex(3, 1, 1, seed=0)
        assert c.f_vector() == (8, 19, 18, 6)
        assert euler_characteristic(c) == 1

    def test_path_full_keep(self):
        c = generate_complex(1, 2, 1, seed=0)
        assert c.f_vector() == (3, 2)
        assert c.maximal_faces == ((0, 1), (1, 2))

    def test_grid_two(self):
        c = generate_complex(2, 2, 1, seed=0)
        assert c.f_vector()[0] == 9
        assert c.f_vector()[2] == 8  # 4 cells, 2 triangles each
        assert euler_characteristic(c) == 1

    def test_full_keep_ignores_seed(self):
        assert generate_complex(2, 2, 1, seed=1) == generate_complex(2, 2, 1, seed=99)

    def test_deterministic_per_seed(self):
        a = generate_complex(3, 2, Fraction(1, 2), seed=42)
        b = generate_complex(3, 2, Fraction(1, 2), seed=42)
        assert a == b

    def test_seed_varies_output(self):
        outputs = {generate_complex(3, 2, Fraction(1, 2), seed=s).faces
                   for s in range(6)}
        assert len(outputs) > 1

    def test_keep_zero_is_empty(self):
        c = generate_complex(2, 2, 0, seed=9)
        assert c.f_vector() == ()

    def test_generated_complexes_validate(self):
        for seed in range(8):
            for dim, grid in ((1, 2), (2, 2), (3, 1)):
                c = generate_complex(dim, grid, Fraction(3, 4), seed=seed)
                assert validate(c).passed, (dim, seed)

    def test_closure_invariant(self):
        c = generate_complex(2, 2, Fraction(1, 2), seed=17)
        rebuilt = close_under_faces(c.maximal_faces, c.vertices,
                                    ambient_dim=c.ambient_dim)
        assert rebuilt.faces == c.faces

    def test_rejects_bad_arguments(self):
        for args in [(0, 1, 1, 0), (7, 1, 1, 0), (2, 0, 1, 0),
                     (2, 1, 2, 0), (2, 1, -1, 0), (2, 1, Fraction(5, 4), 0)]:
            with pytest.raises(InputError):
                generate_complex(*args)

    def test_rejects_float_keep(self):
        with pytest.raises(InputError):
            generate_complex(2, 1, 0.5, seed=0)

    def test_grid_at_the_simplex_cap(self):
        # in 1-D a grid has one maximal simplex per unit, so the cap itself
        # is a grid; keeping none of it builds only the vertices
        cap = complexes.GENERATE_SIMPLEX_LIMIT
        assert cap == 10**5
        assert len(generate_complex(1, cap, 0, seed=0).vertices) == cap + 1
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError,
                           match=f"has {cap + 1} maximal simplices, over the cap of {cap}"):
            generate_complex(1, cap + 1, 1, seed=0)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("dim, grid", [(2, 224), (3, 26), (4, 9), (4, 10**6),
                                           (4, 10**400)])
    def test_oversized_grid_is_refused_before_any_vertex(self, monkeypatch, dim, grid):
        def refused(*args, **kwargs):
            raise AssertionError("a vertex or cell was enumerated")

        monkeypatch.setattr(complexes, "product", refused)
        with pytest.raises(ResourceLimitError, match="over the cap of 100000"):
            generate_complex(dim, grid, 1, seed=0)

    def test_argument_errors_come_before_the_cap(self):
        with pytest.raises(InputError, match="keep fraction"):
            generate_complex(4, 10**6, 2, seed=0)
        with pytest.raises(InputError, match="seed"):
            generate_complex(4, 10**6, 1, seed=0.5)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_strides_match_the_chain_walk(self, dim):
        for grid in (1, 2, 3):
            for keep in FUZZ_KEEP_CYCLE:
                for seed in (0, 7, 2**40 + 3):
                    got = generate_complex(dim, grid, keep, seed)
                    want = chain_generated_complex(dim, grid, keep, seed)
                    assert got.vertices == want.vertices
                    assert got.maximal_faces == want.maximal_faces, (dim, grid, keep, seed)
