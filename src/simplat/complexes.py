"""Simplicial complexes over Z^d: face closure, f-vectors, Euler
characteristic, structural validation, and a deterministic seeded generator
built on the standard permutation triangulation of a cube grid."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from operator import sub

from .errors import InputError, ValidationError, check_int, is_int
from .geometry import (LatticePoint, Simplex, as_lattice_point, bounding_box,
                       intersection_is_common_face)


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex given by an indexed vertex list and a set
    of faces (nonempty frozensets of vertex indices).

    Construction checks every vertex to be a point of Z^ambient_dim.
    Instances built through close_under_faces are closed under taking
    nonempty subsets; validate() checks the full geometric invariants.
    """

    ambient_dim: int
    vertices: tuple[LatticePoint, ...]
    faces: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        check_int(self.ambient_dim, "ambient_dim", 1)
        object.__setattr__(self, "vertices", tuple(
            as_lattice_point(v, self.ambient_dim) for v in self.vertices))

    def simplex(self, face) -> Simplex:
        """The geometric simplex of a face, vertices in index order, built
        on first request and kept in the face table."""
        idx = tuple(sorted(face))
        s = self._simplices.get(idx)
        if s is None:
            self._check_indices(idx)
            s = self._simplices[idx] = Simplex(
                tuple(self.vertices[i] for i in idx))
        return s

    def translation_class(self, face) -> tuple[LatticePoint, ...]:
        """The face's vertex points, sorted, each minus the least one.

        Two faces share it exactly when one is a lattice translate of the
        other, which changes none of the lattice-point counts of its
        dilations, so counts can be shared per class.  It costs a few
        subtractions, where the lattice class (geometry.lattice_class)
        needs the face's Simplex and its certificate.
        """
        self._check_indices(face)
        points = sorted([self.vertices[i] for i in face])
        return tuple([tuple(map(sub, p, points[0])) for p in points])

    def _check_indices(self, face) -> None:
        """Raise InputError naming the least index of face outside the
        vertex list; a negative one would otherwise wrap."""
        bad = [i for i in face if not 0 <= i < len(self.vertices)]
        if bad:
            raise InputError(f"vertex index {min(bad)} out of range")

    @cached_property
    def _simplices(self) -> dict[tuple[int, ...], Simplex]:
        """The face table: each face's Simplex by sorted index tuple."""
        return {}

    @cached_property
    def maximal_faces(self) -> tuple[tuple[int, ...], ...]:
        """Faces not strictly contained in another face, sorted."""
        non_maximal = set()
        for face in self.faces:
            if len(face) > 1:
                for drop in face:
                    non_maximal.add(face - {drop})
        out = [tuple(sorted(f)) for f in self.faces if f not in non_maximal]
        return tuple(sorted(out))

    def f_vector(self) -> tuple[int, ...]:
        """Counts of i-dimensional faces, i = 0 .. dim of the complex."""
        if not self.faces:
            return ()
        top = max(len(f) for f in self.faces)
        counts = [0] * top
        for face in self.faces:
            counts[len(face) - 1] += 1
        return tuple(counts)

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.faces), default=0) - 1


@dataclass(frozen=True)
class ComplexSummary:
    f_vector: tuple[int, ...]
    euler_characteristic: int

    def as_dict(self) -> dict:
        return {"f_vector": list(self.f_vector),
                "euler_characteristic": self.euler_characteristic}


def close_under_faces(maximal, vertices, ambient_dim: int | None = None) -> SimplicialComplex:
    """Build a complex containing exactly all nonempty subsets of the given
    index sets.  Idempotent; affine independence of every set is enforced,
    and SimplicialComplex checks the vertices."""
    verts = tuple(vertices)
    if ambient_dim is None:
        if not verts:
            raise InputError("ambient_dim is required when the vertex list is empty")
        ambient_dim = len(as_lattice_point(verts[0]))
    faces: set[frozenset[int]] = set()
    simplices: dict[tuple[int, ...], Simplex] = {}
    for face in maximal:
        idx = tuple(face)
        if not idx:
            raise InputError("empty face in maximal list")
        if len(set(idx)) != len(idx):
            raise InputError(f"repeated vertex index in face {sorted(idx)}")
        for i in idx:
            if not is_int(i) or not 0 <= i < len(verts):
                raise InputError(f"vertex index {i!r} out of range in face {sorted(idx)}")
        idx = tuple(sorted(idx))
        try:
            simplices[idx] = Simplex(tuple(verts[i] for i in idx))
        except ValidationError as exc:
            raise ValidationError(f"face {list(idx)} is degenerate: {exc}") from exc
        for r in range(1, len(idx) + 1):
            for sub in combinations(idx, r):
                faces.add(frozenset(sub))
    c = SimplicialComplex(ambient_dim, verts, frozenset(faces))
    c._simplices.update(simplices)  # the face table starts with these
    return c


def euler_characteristic(c: SimplicialComplex) -> int:
    """Non-reduced Euler characteristic: alternating sum of face counts."""
    return sum((-1) ** (len(face) - 1) for face in c.faces)


def summarize(c: SimplicialComplex) -> ComplexSummary:
    return ComplexSummary(c.f_vector(), euler_characteristic(c))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate(); failures are data, not exceptions."""

    index_failures: tuple[tuple[int, ...], ...] = ()
    closure_failures: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    affine_failures: tuple[tuple[int, ...], ...] = ()
    duplicate_vertices: tuple[tuple[int, int], ...] = ()
    overlap_failures: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    @property
    def passed(self) -> bool:
        return not (self.index_failures or self.closure_failures
                    or self.affine_failures or self.duplicate_vertices
                    or self.overlap_failures)

    def describe(self) -> str:
        if self.passed:
            return "valid simplicial complex"
        lines = []
        for face in self.index_failures:
            lines.append(f"face {list(face)} references a vertex index out of range")
        for face, missing in self.closure_failures:
            lines.append(f"face {list(face)} is present but its subset {list(missing)} is not")
        for face in self.affine_failures:
            lines.append(f"face {list(face)} has affinely dependent vertices")
        for i, j in self.duplicate_vertices:
            lines.append(f"vertices {i} and {j} have identical coordinates")
        for a, b in self.overlap_failures:
            lines.append(f"faces {list(a)} and {list(b)} do not intersect in a common face")
        return "; ".join(lines)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "index_failures": [list(f) for f in self.index_failures],
            "closure_failures": [[list(a), list(b)] for a, b in self.closure_failures],
            "affine_failures": [list(f) for f in self.affine_failures],
            "duplicate_vertices": [list(p) for p in self.duplicate_vertices],
            "overlap_failures": [[list(a), list(b)] for a, b in self.overlap_failures],
        }


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
    """Check closure, affine independence, distinct vertex coordinates, and
    pairwise intersection-in-a-common-face of maximal faces (tested only
    for pairs whose bounding boxes meet; the others are disjoint)."""
    index_failures = []
    nverts = len(c.vertices)
    for face in sorted(map(tuple, map(sorted, c.faces))):
        if any(not 0 <= i < nverts for i in face):
            index_failures.append(face)
    bad_index = set(map(frozenset, index_failures))

    closure_failures = []
    for face in c.faces:
        if face in bad_index or len(face) == 1:
            continue
        for drop in sorted(face):
            sub = face - {drop}
            if sub not in c.faces:
                closure_failures.append((tuple(sorted(face)), tuple(sorted(sub))))

    referenced = sorted({i for f in c.faces for i in f if 0 <= i < nverts})
    duplicate_vertices = []
    seen: dict[LatticePoint, int] = {}
    for i in referenced:
        pt = c.vertices[i]
        if pt in seen:
            duplicate_vertices.append((seen[pt], i))
        else:
            seen[pt] = i

    affine_failures = []
    simplices: dict[tuple[int, ...], Simplex] = {}
    for face in c.maximal_faces:
        if frozenset(face) in bad_index:
            continue
        try:
            simplices[face] = c.simplex(face)
        except ValidationError:
            affine_failures.append(face)

    overlap_failures = []
    usable = [f for f in c.maximal_faces if f in simplices]
    for i, j in _overlapping_boxes([bounding_box(simplices[f]) for f in usable]):
        fa, fb = usable[i], usable[j]
        if not intersection_is_common_face(simplices[fa], simplices[fb]):
            overlap_failures.append((fa, fb))

    return ValidationReport(
        index_failures=tuple(index_failures),
        closure_failures=tuple(sorted(closure_failures)),
        affine_failures=tuple(affine_failures),
        duplicate_vertices=tuple(duplicate_vertices),
        overlap_failures=tuple(overlap_failures),
    )


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
    """
    if not is_int(dim) or not 1 <= dim <= 4:
        raise InputError(f"dim must be an integer in [1, 4], got {dim!r}")
    check_int(grid, "grid", 1)
    keep = _as_keep_fraction(keep_fraction)
    check_int(seed, "seed")

    verts = [tuple(p) for p in product(range(grid + 1), repeat=dim)]
    index = {v: i for i, v in enumerate(verts)}
    rng = random.Random(seed)
    p, q = keep.numerator, keep.denominator
    maximal = []
    for cell in product(range(grid), repeat=dim):
        for perm in permutations(range(dim)):
            cur = cell
            chain = [index[cur]]
            for axis in perm:
                cur = tuple(c + (1 if i == axis else 0) for i, c in enumerate(cur))
                chain.append(index[cur])
            if rng.randrange(q) < p:
                maximal.append(tuple(chain))
    return close_under_faces(maximal, verts, ambient_dim=dim)
