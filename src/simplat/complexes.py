"""Simplicial complexes over Z^d: face closure, f-vectors, Euler
characteristic, structural validation, and a deterministic seeded generator
built on the standard permutation triangulation of a cube grid."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, combinations, permutations, product, repeat
from math import factorial
from operator import mul, sub
from typing import NamedTuple

from .errors import (InputError, ResourceLimitError, ValidationError, check_int,
                     is_int, shown)
from .geometry import (LatticePoint, Simplex, as_lattice_point, bounding_box,
                       canonical_simplex, intersection_is_common_face, translation_key)
from .report import Report

# Largest ambient dimension of a document or a generated grid
MAX_AMBIENT_DIM = 6
# Most maximal simplices generate_complex builds, dim! * grid^dim.  With
# Python 3.11 on one Xeon core the 2-D grid-200 (80,000) takes 0.55 s at a
# 65 MB peak, the 4-D grid-8 (98,304) 1.35 s at 145 MB and the 6-D grid-2
# (46,080) 1.7 s at 135 MB; time and memory grow with the count
GENERATE_SIMPLEX_LIMIT = 100_000


class FaceClass(NamedTuple):
    """One translation class of a complex's maximal faces: its canonical
    translate, the Simplex on its translation key, and its faces, sorted."""

    simplex: Simplex
    faces: tuple[tuple[int, ...], ...]


class _Faces:
    """The faces field of SimplicialComplex: built from maximal_faces on
    first read, as the frozenset of their nonempty subsets, and kept on
    the instance, whose __dict__ entry then answers every later read.
    Construction stores the given faces there, and __post_init__ takes
    them out again."""

    def __get__(self, c, owner=None):
        if c is None:
            raise AttributeError("faces")  # so the field has no default
        faces = c.__dict__["faces"] = frozenset([
            frozenset(sub) for face in c.maximal_faces
            for r in range(1, len(face) + 1) for sub in combinations(face, r)])
        return faces


def _iterable(value, message: str):
    """iter(value), or InputError(message naming value) if value is not
    iterable."""
    try:
        return iter(value)
    except TypeError:
        raise InputError(message.format(shown(value))) from None


def _packed(points) -> list[int]:
    """One int per point of a nonempty list of points in Z^d:
    sum((x_i - lo_i) * B^(d-1-i)), lo the least coordinates and B = 2w + 1,
    w the widest coordinate span.  Each digit x_i - lo_i lies in [0, w], so
    the ints sort as the points do, lexicographically.  The difference of
    two ints has the digits x_i - y_i in [-w, w], which a base of 2w + 1
    writes in only one way (balanced digits), so two sets of points have
    the same int differences exactly when one is a lattice translate of
    the other.  B = w + 1 would not do: with w = 1, (1, -1) and (0, 1)
    both differ by 1."""
    columns = list(zip(*points))
    lo = list(map(min, columns))
    base = 2 * max(map(sub, map(max, columns), lo)) + 1
    weights = [base ** i for i in reversed(range(len(lo)))]
    offset = sum(map(mul, lo, weights))
    return [sum(map(mul, p, weights)) - offset for p in points]


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex in Z^ambient_dim: an indexed vertex list
    and the faces, nonempty frozensets of vertex indices.

    Construction checks each face on its own: every vertex is a point of
    Z^ambient_dim, the face list and every given face are iterable, every
    given face a nonempty list of indices into the vertex list that names
    no index twice (InputError naming the value or face otherwise), and
    every maximal face is affinely independent (ValidationError naming the
    least degenerate one).  Each given face is read once and sorted once,
    so an iterator serves too.  The faces are then closed one size at a
    time, from the largest, as sorted index tuples: the r-faces are the
    given r-sets and the r-subsets of the maximal faces found so far, the
    f-vector counts them, and the given r-sets among them that are no
    subset are the maximal r-faces.  maximal_faces holds those of every
    size, sorted; the subsets are not kept.  faces, the closure as a
    frozenset of frozensets, is built from maximal_faces on first read
    and kept (see _Faces), so construction builds no frozenset and the
    library's own paths never read it.  validate() checks the conditions
    between faces.

    classes groups the maximal faces by translation class
    (geometry.translation_key), ordered by their first faces.  The faces
    are grouped by the differences of one int per vertex (see _packed), and
    the key is computed once per class.  Each class holds its canonical
    translate, the Simplex on its key, from geometry.canonical_simplex, so
    complexes that share a class share that Simplex: a translate has a
    bounding box of the same size and the same lattice-point counts at
    every dilation, so the library reads those off it.  No face's own
    Simplex is kept; simplex() and validate() build one on request,
    certified as its class (see Simplex).
    """

    ambient_dim: int
    vertices: tuple[LatticePoint, ...]
    faces: frozenset[frozenset[int]] = _Faces()
    # the faces not strictly contained in another face, sorted
    maximal_faces: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)
    # one entry per class, holding the faces of maximal_faces (a Simplex
    # per face would keep a few tuples per face alive with the complex,
    # which the garbage collector then scans)
    classes: tuple[FaceClass, ...] = field(init=False, repr=False, compare=False)
    _f_vector: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_int(self.ambient_dim, "ambient_dim", 1)
        verts = tuple(as_lattice_point(v, self.ambient_dim) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        n = len(verts)
        given: dict[int, set[tuple[int, ...]]] = {}  # the given faces by size
        faces = self.__dict__.pop("faces")  # as given; _Faces builds the closure's
        for indices in _iterable(faces, "faces must be an iterable of faces, got {}"):
            # read once, so an iterator is a face too
            indices = tuple(_iterable(
                indices, "face must be an iterable of vertex indices, got {}"))
            if not indices:
                raise InputError("empty face in the face list")
            for i in indices:
                if not (type(i) is int or is_int(i)) or not 0 <= i < n:
                    raise InputError(
                        f"vertex index {shown(i)} out of range in face {shown(list(indices))}")
            face = tuple(sorted(indices))
            size = len(face)
            if len(set(face)) < size:
                raise InputError(f"repeated vertex index in face {list(indices)}")
            given.setdefault(size, set()).add(face)
        # close size by size, from the largest: the r-faces are the given
        # r-sets and the r-subsets of larger faces, and every larger face
        # lies in a larger maximal one, so those subsets are the r-subsets
        # of the maximal faces found so far (of a sorted tuple, sorted)
        maximal: list[tuple[int, ...]] = []
        f_vector: list[int] = []
        for r in range(max(given, default=0), 0, -1):
            below = set(chain.from_iterable(map(combinations, maximal, repeat(r))))
            top = given.get(r, set()) - below  # the maximal r-faces
            maximal += top
            f_vector.append(len(below) + len(top))
        maximal.sort()
        f_vector.reverse()
        object.__setattr__(self, "maximal_faces", tuple(maximal))
        object.__setattr__(self, "_f_vector", tuple(f_vector))
        by_key: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        packed = _packed(verts) if maximal else []
        for face in maximal:  # one class per offset tuple, in first-face order
            points = sorted([packed[i] for i in face])
            least = points[0]
            by_key.setdefault(tuple([p - least for p in points]), []).append(face)
        classes = []
        for faces in by_key.values():  # the least degenerate face fails first
            key = translation_key([verts[i] for i in faces[0]])
            try:
                s = canonical_simplex(key)
            except ValidationError:
                try:  # the face's own Simplex fails too, naming its vertices
                    Simplex(tuple([verts[i] for i in faces[0]]))
                except ValidationError as exc:
                    raise ValidationError(
                        f"face {list(faces[0])} is degenerate: {exc}") from exc
                raise
            classes.append(FaceClass(s, tuple(faces)))
        object.__setattr__(self, "classes", tuple(classes))

    def simplex(self, face) -> Simplex:
        """The geometric simplex of a face of the complex, vertices in
        index order, built on each request.  face is read once; InputError
        unless it is iterable and its indices are ints, none repeated,
        whose set is one of faces."""
        indices = tuple(_iterable(face, "{} is not a face of the complex"))
        if (not all(map(is_int, indices)) or len(set(indices)) < len(indices)
                or frozenset(indices) not in self.faces):
            raise InputError(f"{shown(list(indices))} is not a face of the complex")
        return Simplex(tuple([self.vertices[i] for i in sorted(indices)]))

    def f_vector(self) -> tuple[int, ...]:
        """Counts of i-dimensional faces, i = 0 .. dim of the complex."""
        return self._f_vector

    @property
    def dim(self) -> int:
        return len(self._f_vector) - 1


@dataclass(frozen=True)
class ComplexSummary(Report):
    f_vector: tuple[int, ...]
    euler_characteristic: int


def close_under_faces(maximal, vertices, ambient_dim: int | None = None) -> SimplicialComplex:
    """The complex generated by the given index lists, which SimplicialComplex
    checks and closes under subsets.  ambient_dim defaults to the length of
    the first vertex."""
    verts = tuple(vertices)
    if ambient_dim is None:
        if not verts:
            raise InputError("ambient_dim is required when the vertex list is empty")
        ambient_dim = len(as_lattice_point(verts[0]))
    return SimplicialComplex(ambient_dim, verts, maximal)


def euler_characteristic(c: SimplicialComplex) -> int:
    """Non-reduced Euler characteristic: alternating sum of face counts."""
    f = c.f_vector()
    return sum(f[::2]) - sum(f[1::2])


def summarize(c: SimplicialComplex) -> ComplexSummary:
    return ComplexSummary(c.f_vector(), euler_characteristic(c))


@dataclass(frozen=True)
class ValidationReport(Report):
    """Outcome of validate(); failures are data, not exceptions."""

    duplicate_vertices: tuple[tuple[int, int], ...] = ()
    overlap_failures: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    @property
    def passed(self) -> bool:
        return not (self.duplicate_vertices or self.overlap_failures)

    def describe(self) -> str:
        if self.passed:
            return "valid simplicial complex"
        lines = []
        for i, j in self.duplicate_vertices:
            lines.append(f"vertices {i} and {j} have identical coordinates")
        for a, b in self.overlap_failures:
            lines.append(f"faces {list(a)} and {list(b)} do not intersect in a common face")
        return "; ".join(lines)

    def _form(self) -> dict:
        return {**super()._form(), "passed": self.passed}


def _overlapping_boxes(boxes) -> list[tuple[int, int]]:
    """Index pairs i < j, in lexicographic order, of the (lo, hi) boxes that
    meet, found by a sweep over the boxes sorted by their low corner."""
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0])
    pairs = []
    for k, i in enumerate(order):
        lo1, hi1 = boxes[i]
        for j in order[k + 1:]:
            lo2, hi2 = boxes[j]
            if lo2[0] > hi1[0]:
                break  # every later box starts further along the first axis
            if all(a <= d and c <= b for a, b, c, d in zip(lo1, hi1, lo2, hi2)):
                pairs.append((i, j) if i < j else (j, i))
    return sorted(pairs)


def validate(c: SimplicialComplex) -> ValidationReport:
    """Check what construction cannot, since it compares faces: distinct
    coordinates of the referenced vertices, and that maximal faces whose
    bounding boxes meet (the others are disjoint) meet in a common face,
    read off the class certificates that construction computed."""
    duplicate_vertices = []
    seen: dict[LatticePoint, int] = {}
    for i in sorted(set().union(*c.maximal_faces)):
        pt = c.vertices[i]
        if pt in seen:
            duplicate_vertices.append((seen[pt], i))
        else:
            seen[pt] = i

    faces = c.maximal_faces
    simplices = [Simplex(tuple([c.vertices[i] for i in f])) for f in faces]
    overlap_failures = []
    for i, j in _overlapping_boxes([bounding_box(s) for s in simplices]):
        if not intersection_is_common_face(simplices[i], simplices[j]):
            overlap_failures.append((faces[i], faces[j]))

    return ValidationReport(duplicate_vertices=tuple(duplicate_vertices),
                            overlap_failures=tuple(overlap_failures))


def _as_keep_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        keep = value
    elif is_int(value):
        keep = Fraction(value)
    else:
        raise InputError(f"keep fraction must be int or Fraction, got {type(value).__name__}")
    if not 0 <= keep <= 1:
        raise InputError(f"keep fraction must lie in [0, 1], got {keep}")
    return keep


def generate_complex(dim: int, grid: int, keep_fraction, seed: int) -> SimplicialComplex:
    """Deterministic random subcomplex of the permutation triangulation of
    the cube grid [0, grid]^dim.

    Every unit cell is cut into dim! simplices along coordinate-order chains
    (cell corner z, then +e_axis steps in permutation order); each maximal
    simplex is kept with exact probability keep_fraction, drawn as
    randrange(q) < p from random.Random(seed).  The result is a subcomplex
    of a triangulation, hence always a valid complex.

    Vertices are listed in product order, so the point z has index
    z . strides with strides[i] = (grid+1)^(dim-1-i), and a chain is its
    cell corner's index plus the partial sums of the strides of its steps,
    one offset path per permutation.  ResourceLimitError refuses, before
    any vertex is built, a grid of more than GENERATE_SIMPLEX_LIMIT
    maximal simplices.
    """
    if not is_int(dim) or not 1 <= dim <= MAX_AMBIENT_DIM:
        raise InputError(f"dim must be an integer in [1, {MAX_AMBIENT_DIM}], got {shown(dim)}")
    check_int(grid, "grid", 1)
    keep = _as_keep_fraction(keep_fraction)
    check_int(seed, "seed")
    simplices = factorial(dim) * grid ** dim
    if simplices > GENERATE_SIMPLEX_LIMIT:
        raise ResourceLimitError(
            f"the grid [0, {shown(grid)}]^{dim} has {shown(simplices)} maximal "
            f"simplices, over the cap of {GENERATE_SIMPLEX_LIMIT}")

    verts = list(product(range(grid + 1), repeat=dim))
    strides = [(grid + 1) ** (dim - 1 - i) for i in range(dim)]
    paths = [tuple(accumulate([strides[axis] for axis in perm], initial=0))
             for perm in permutations(range(dim))]
    rng = random.Random(seed)
    p, q = keep.numerator, keep.denominator
    maximal = []
    for cell in product(range(grid), repeat=dim):
        base = sum(map(mul, cell, strides))
        for path in paths:
            if rng.randrange(q) < p:
                maximal.append(tuple([base + offset for offset in path]))
    return close_under_faces(maximal, verts, ambient_dim=dim)
