"""Exact geometry of lattice simplices.

Vertices live in Z^d, membership questions are answered through integer
barycentric rows computed by fraction-free Gauss-Jordan elimination, and
pairwise intersection structure is decided by an integer separating
functional drawn from those same rows when one exists, and otherwise by exact
rational linear programming. No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul, sub

from . import exactlp
from .errors import InputError, ValidationError, check_int, is_int

LatticePoint = tuple[int, ...]
RationalPoint = tuple[Fraction, ...]


def as_lattice_point(value: object, dim: int | None = None) -> LatticePoint:
    """Coerce a sequence of true ints into a LatticePoint tuple."""
    if not isinstance(value, (tuple, list)):
        raise InputError(f"lattice point must be a sequence, got {type(value).__name__}")
    pt = tuple(value)
    if not pt:
        raise InputError("lattice point must have at least one coordinate")
    for c in pt:
        if not (type(c) is int or is_int(c)):
            raise InputError(f"lattice coordinates must be integers, got {c!r}")
    if dim is not None and len(pt) != dim:
        raise InputError(f"expected a point in dimension {dim}, got {len(pt)} coordinates")
    return pt


def as_rational_point(value: object, dim: int | None = None) -> RationalPoint:
    """Coerce a sequence of ints/Fractions into exact rational coordinates.

    Floats are rejected: all arithmetic in this package is exact.
    """
    if not isinstance(value, (tuple, list)):
        raise InputError(f"point must be a sequence, got {type(value).__name__}")
    out = []
    for c in value:
        if isinstance(c, Fraction):
            out.append(c)
        elif is_int(c):
            out.append(Fraction(c))
        else:
            raise InputError(f"coordinates must be int or Fraction, got {type(c).__name__}")
    if not out:
        raise InputError("point must have at least one coordinate")
    if dim is not None and len(out) != dim:
        raise InputError(f"expected a point in dimension {dim}, got {len(out)} coordinates")
    return tuple(out)


def hermite_normal_form(rows) -> tuple[tuple[int, ...], ...]:
    """Top block of the row Hermite normal form of an integer matrix with n
    columns and full column rank: the n x n upper-triangular H with positive
    pivots, every entry above a pivot in [0, pivot), and U * rows = [H; 0]
    for some U in GL(Z).

    Only elementary row operations are used (swap, negate, add an integer
    multiple of one row to another), so U is unimodular by construction,
    and H is the same for rows and for U' * rows with any U' in GL(Z).
    """
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    for j in range(n):
        # Euclid on column j over rows j..: the row of least nonzero |entry|
        # goes to row j and reduces the rows below it, whose remainders are
        # all smaller, so the next pivot is found in the same pass
        best, least = j, 0
        for r in range(j, len(a)):
            x = abs(a[r][j])
            if x and (not least or x < least):
                best, least = r, x
        if not least:
            raise InputError("matrix does not have full column rank")
        while least:
            a[j], a[best] = a[best], a[j]
            piv = a[j]
            p = piv[j]
            best, least = j, 0
            for r in range(j + 1, len(a)):
                row = a[r]
                if row[j]:
                    q = row[j] // p
                    if q:
                        row = a[r] = [x - q * y for x, y in zip(row, piv)]
                    x = abs(row[j])
                    if x and (not least or x < least):
                        best, least = r, x
        if a[j][j] < 0:
            a[j] = [-x for x in a[j]]
        piv = a[j]
        for r in range(j):
            q = a[r][j] // piv[j]
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], piv)]
    return tuple(tuple(r) for r in a[:n])


def translation_key(points) -> tuple[LatticePoint, ...]:
    """The points, sorted, each minus the least one: shared by two vertex
    tuples exactly when one is a lattice translate of the other, it is the
    vertex tuple of their canonical translate, whose key is itself."""
    points = sorted(points)
    if any(points[0]):  # a canonical translate's points are its key
        points = [tuple(map(sub, p, points[0])) for p in points]
    return tuple(points)


# Entries kept by each per-simplex cache (certificates and canonical
# translates here, h*-vectors per lattice class in counting); least
# recently used ones are dropped beyond it.
CACHE_SIZE = 4096


@lru_cache(maxsize=CACHE_SIZE)
def _certificate(vertices: tuple[LatticePoint, ...]):
    """Row-reduce the affine system of a vertex tuple into integer rows.

    Returns (bary_rows, hull_rows, bary_denoms, lattice_class); each row is
    (c0, coeffs) such that for a point x

        lambda_j       = (c0 + coeffs . x) / bary_denoms[j]  for bary_rows[j]
        x in aff hull  iff  c0 + coeffs . x == 0 for every hull row

    or None when the vertices are affinely dependent.  Works by fraction-free
    (Bareiss) Gauss-Jordan elimination of [A | I], where A maps barycentric
    weights to (1, x): each update row <- (piv * row - f * prow) // prev_piv
    divides exactly, so every entry stays an int, and each final row is a
    nonzero multiple of the row rational elimination gives.  The pivot is
    the first nonzero entry at or below the pivot row.

    Each row is then reduced to the primitive integer vector with a fixed
    sign, which is what the rational rows cleared of their denominators are:
    the rational barycentric row j reads [e_j | r] with r A = e_j, and the
    rational hull row has a 1 in the identity column of the original row it
    came from, so in both cases the least positive multiple that is integral
    is primitive.  A barycentric row is signed so that its diagonal entry
    D_j is positive and divided by gcd(D_j, *row), and D_j over that gcd is
    its denominator; a hull row is signed so that its own identity entry is
    positive and divided by its gcd.  The lattice class (see lattice_class)
    is kept here so that it is computed once per vertex tuple.  Simplex and
    the pair test ask it only for translation keys: one entry per class.
    """
    k = len(vertices)
    d = len(vertices[0])
    rows = d + 1
    mat = [[1] * k + [1] + [0] * d]
    mat += [[v[i] for v in vertices] + [0] * (i + 1) + [1] + [0] * (d - 1 - i)
            for i in range(d)]
    origin = list(range(rows))  # original row of each position, for hull signs
    prev = 1
    for col in range(k):
        for pr in range(col, rows):
            if mat[pr][col]:
                break
        else:
            return None
        if pr != col:
            mat[col], mat[pr] = mat[pr], mat[col]
            origin[col], origin[pr] = origin[pr], origin[col]
        prow = mat[col]
        piv = prow[col]
        for r in range(rows):
            if r != col:
                f = mat[r][col]
                if f or piv != prev:  # otherwise the update leaves the row as is
                    mat[r] = [(piv * a - f * b) // prev for a, b in zip(mat[r], prow)]
        prev = piv
    # every diagonal entry D_j of the left block now equals the last pivot
    bary, denoms, hull = [], [], []
    for j in range(k):
        right = mat[j][k:]
        g = gcd(prev, *right) if prev > 0 else -gcd(prev, *right)
        denoms.append(prev // g)
        bary.append((right[0] // g, tuple([c // g for c in right[1:]])))
    for r in range(k, rows):
        right = mat[r][k:]
        g = gcd(*right) if right[origin[r]] > 0 else -gcd(*right)
        hull.append((right[0] // g, tuple([c // g for c in right[1:]])))
    v0 = vertices[0]
    edges = [[v[i] - v0[i] for v in vertices[1:]] for i in range(d)]
    key = tuple(zip(*hermite_normal_form(edges)))
    return tuple(bary), tuple(hull), tuple(denoms), key


@dataclass(frozen=True)
class Simplex:
    """A geometric simplex: an ordered tuple of affinely independent lattice
    vertices in Z^d, of intrinsic dimension m = len(vertices) - 1 <= d,
    certified on its canonical translate (translation_key), as its translates are."""

    vertices: tuple[LatticePoint, ...]
    # (min, max) corners, read by bounding_box; set once here
    _box: tuple[LatticePoint, LatticePoint] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.vertices, tuple) or not self.vertices:
            raise InputError("a simplex needs a nonempty tuple of vertices")
        dim = None
        cleaned = []
        for v in self.vertices:
            pt = as_lattice_point(v, dim)
            dim = len(pt)
            cleaned.append(pt)
        object.__setattr__(self, "vertices", tuple(cleaned))
        columns = tuple(zip(*cleaned))
        object.__setattr__(self, "_box", (tuple(map(min, columns)),
                                          tuple(map(max, columns))))
        if len(self.vertices) > dim + 1:
            raise ValidationError(
                f"{len(self.vertices)} vertices cannot be affinely independent in Z^{dim}")
        if _certificate(translation_key(self.vertices)) is None:
            raise ValidationError(f"vertices are affinely dependent: {self.vertices}")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def _separators(self) -> tuple[list[LatticePoint], list, tuple[int, ...]]:
        """(points, rows, denominators): the vertices sorted, and the
        barycentric rows of the canonical translate's certificate with their
        denominators, in that order, moved onto this simplex by its least
        vertex v: a row (c0, cs) there is (c0 - cs . v, cs) here.  Computed
        on first read and kept on the instance, so a simplex moves its rows
        once for every pair test it takes part in."""
        points = sorted(self.vertices)
        bary, _, denoms, _ = _certificate(translation_key(points))
        least = points[0]
        return points, [(c0 - sum(map(mul, cs, least)), cs) for c0, cs in bary], denoms

    @property
    def intrinsic_dim(self) -> int:
        return len(self.vertices) - 1


@lru_cache(maxsize=CACHE_SIZE)
def canonical_simplex(key: tuple[LatticePoint, ...]) -> Simplex:
    """Simplex(key) for a translation key: built once while it stays in
    the cache, so the complexes that hold a class share its canonical
    translate, and a key seen before is not checked or certified again."""
    return Simplex(key)


def bounding_box(s: Simplex) -> tuple[LatticePoint, LatticePoint]:
    """Inclusive coordinate-wise (min, max) corners of the simplex."""
    return s._box


def barycentric_coordinates(s: Simplex, x) -> tuple[Fraction, ...] | None:
    """Exact barycentric coordinates of x with respect to s, or None when x
    lies outside the affine hull of s."""
    pt = as_rational_point(x, s.ambient_dim)
    bary, hull, denoms, _ = _certificate(s.vertices)
    for c0, cs in hull:
        if c0 + sum(c * v for c, v in zip(cs, pt)):
            return None
    return tuple((c0 + sum(c * v for c, v in zip(cs, pt))) / m
                 for (c0, cs), m in zip(bary, denoms))


def contains_point(s: Simplex, x) -> bool:
    """Whether x lies in the closed simplex s."""
    coords = barycentric_coordinates(s, x)
    return coords is not None and all(c >= 0 for c in coords)


def dilate(s: Simplex, t: int) -> Simplex:
    """The dilated simplex t*s (every vertex scaled by the integer t >= 1)."""
    check_int(t, "dilation factor", 1)
    return Simplex(tuple(tuple(c * t for c in v) for v in s.vertices))


def membership_certificate(s: Simplex):
    """Integer-scaled membership rows for fast exact point tests.

    Returns (bary_rows, hull_rows); each row is (c0, coeffs) representing
    y = c0 + coeffs . x.  A lattice point x lies in s iff every hull row
    evaluates to 0 and every barycentric row evaluates >= 0; it lies in the
    relative interior iff the barycentric rows are all > 0.

    The same rows serve every dilation t*s once each c0 is scaled by t:
    x lies in t*s iff x/t lies in s, and t*c0 + coeffs . x has the sign
    of c0 + coeffs . (x/t).
    """
    bary, hull, _, _ = _certificate(s.vertices)
    return bary, hull


def lattice_class(s: Simplex) -> tuple[LatticePoint, ...]:
    """The columns h_1..h_m of the row Hermite normal form of the edge
    matrix [v_i - v_0] of s.

    The affine lattice isomorphism x -> U(x - v_0) of Z^d that brings the
    edge matrix to that form maps s onto conv(0, h_1, ..., h_m) in
    Z^m x {0}.  So simplices that differ by a lattice translation and a
    unimodular map that keeps the vertex order share a class, and every
    lattice-point count of a dilation t*s depends on the class alone.  The
    class is read in the given vertex order: the same simplex listed in
    another order may get another class, of the same counts.
    """
    return _certificate(s.vertices)[3]


def key_lattice_class(key: tuple[LatticePoint, ...]) -> tuple[LatticePoint, ...]:
    """lattice_class of the canonical translate whose vertex tuple is key,
    a translation_key of affinely independent points, read off the
    certificate cached for key, so no Simplex is built.  Every vertex order
    of a simplex, and every translate of it, has the key and so the class."""
    return _certificate(key)[3]


def _common_face_lp(a: Simplex, b: Simplex, shared: set[LatticePoint]) -> bool:
    """True when no point of a∩b puts positive barycentric weight (w.r.t. a)
    on a vertex of a outside the shared set."""
    ka, kb = len(a.vertices), len(b.vertices)
    d = a.ambient_dim
    free = [j for j, v in enumerate(a.vertices) if v not in shared]
    if not free:
        return True
    rows = [[1] * ka + [0] * kb, [0] * ka + [1] * kb]
    rhs = [1, 1]
    for c in range(d):
        rows.append([av[c] for av in a.vertices] + [-bv[c] for bv in b.vertices])
        rhs.append(0)
    # One LP suffices: with lambda >= 0, max of the sum over non-shared
    # vertices is positive iff max of some single coordinate is.
    objective = [0] * (ka + kb)
    for j in free:
        objective[j] = 1
    result = exactlp.maximize(objective, rows, rhs)
    if result is None:
        return True  # empty intersection, and then no shared vertices either
    return result[0] == 0


def _separates(row, p, q, nshared: int) -> bool:
    """Whether the integer functional f = c0 + cs . x of row is >= 0 on every
    vertex in p and <= 0 on every vertex in q (or the reverse), and vanishes
    on exactly nshared vertices of p or of q."""
    c0, cs = row
    fp = [c0 + sum(map(mul, cs, v)) for v in p]
    fq = [c0 + sum(map(mul, cs, v)) for v in q]
    if not (min(fp) >= 0 >= max(fq) or max(fp) <= 0 <= min(fq)):
        return False
    return fp.count(0) == nshared or fq.count(0) == nshared


def _separating_rows(s: Simplex, shared: set[LatticePoint]):
    """Candidate functionals from the barycentric rows of s, already moved
    onto s (see Simplex._separators): first the sum of the rows of its
    non-shared vertices over a common denominator, then every row on its
    own.  With no vertex shared, the sum is over every row, which on a
    full-dimensional s is the constant lcm of the denominators (the
    barycentric weights sum to 1 on its affine hull, all of R^d), so it
    separates nothing and is skipped.  On a lower-dimensional s the weights
    sum to 1 only on its hull, and whether the sum is constant off the hull
    depends on the rows _certificate chose, so the sum is kept there."""
    points, bary, denoms = s._separators
    free = [j for j, p in enumerate(points) if p not in shared]
    if free and (shared or len(points) <= s.ambient_dim):
        m = lcm(*(denoms[j] for j in free))
        scaled = [(m // denoms[j], bary[j]) for j in free]
        yield (sum(k * c0 for k, (c0, _) in scaled),
               tuple(sum(k * cs[i] for k, (_, cs) in scaled)
                     for i in range(s.ambient_dim)))
    yield from bary


def intersection_is_common_face(s1: Simplex, s2: Simplex) -> bool:
    """Whether s1 ∩ s2 equals the convex hull of the shared vertex points
    (the empty set counts as a common face).

    Most pairs are settled by an integer certificate: an affine functional
    f that is >= 0 on the vertices of s1, <= 0 on those of s2, and vanishes
    on no vertex of s1 (or of s2) beyond the shared ones.  Then s1 ∩ s2 lies
    in conv(Z1) ∩ conv(Z2), Zi the zero set of f on si, and one of those is
    the shared hull, which lies in s1 ∩ s2 anyway.  The candidates, each
    with either sign, are the barycentric rows of either simplex and their
    sum over its non-shared vertices, except that sum where it is a
    constant (see _separating_rows).  Each simplex's rows are moved onto
    it from its class's certificate once and kept on the Simplex, so a
    simplex tested in many pairs moves them once.  A pair no candidate
    settles goes to the exact LP.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise InputError("simplices live in different ambient dimensions")
    lo1, hi1 = bounding_box(s1)
    lo2, hi2 = bounding_box(s2)
    if any(hi1[i] < lo2[i] or hi2[i] < lo1[i] for i in range(s1.ambient_dim)):
        return True  # disjoint boxes: empty intersection, empty shared set
    shared = set(s1.vertices) & set(s2.vertices)
    if any(_separates(row, s1.vertices, s2.vertices, len(shared))
           for s in (s1, s2) for row in _separating_rows(s, shared)):
        return True
    # One LP decides it: barycentric coordinates w.r.t. s1 are unique, so
    # s1 ∩ s2 lies in conv(shared), itself in both simplices, iff no point
    # of it weighs a non-shared vertex of s1.
    return _common_face_lp(s1, s2, shared)
