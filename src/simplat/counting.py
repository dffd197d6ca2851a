"""Exact lattice-point counting in dilated simplices and complex unions.

Counts of t*s are enumerated line by line over the box of s scaled by t:
every coordinate but one free axis is fixed, and each membership row of s
cuts the line to an integer interval by floor division (floor-sum counting,
Beck & Robins, Computing the Continuous Discretely, ch. 1-2).  The cost is
about box / extent of the free axis x rows, but the budget is still
measured in box points: a box of over DEFAULT_ENUMERATION_LIMIT points
raises ResourceLimitError.  Every per-class figure of a complex's maximal
faces is read off the class's canonical translate, from
SimplicialComplex.classes, so no face's own Simplex is built.  The lines of
a class depend only on its canonical translate, t and the free axis, so
count_complex keeps them across calls in the line cache, keyed by those
three: complexes that share classes, as the trials of a fuzz sweep do,
cut each class once.  A class is kept only when its box at t is at most
VERIFY_ENUMERATION_BUDGET points and it scans at most LINE_CACHE_LINES
lines, and at most LINE_CACHE_ENTRIES classes are kept, so the cache holds
at most 256 * 512 = 2^17 lines; a larger class is cut afresh.

The count of t*s is L(t) = sum h_k C(t+m-k, m) (m = intrinsic dimension)
for the integer h*-vector h of s, which depends only on the lattice class
of s.  It is computed once per class, read off the lattice points of the
fundamental parallelepiped of the cone over the simplex (Beck & Robins,
ch. 3), at a cost that follows the normalized volume, not the bounding
box, and every count, closed or relative-interior (by Ehrhart-Macdonald
reciprocity), is an int taken from it.  The additive counter, the fast
path for large dilations, sums the interior counts sum h_k C(t+k-1, m)
over all faces, read off the complex's Census, which no dilation
changes: the rows A_m[k], the sum of h_k over the m-faces.  count_method
is the one cost model: it picks enumeration or the additive count of
t*|c| at one t; a table of dilations reads every row off one census.
Every public entry point checks its dilation with check_int, never once
per face.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, lcm, prod
from operator import add, mul

from .complexes import SimplicialComplex
from .errors import IntegrityError, ResourceLimitError, check_int
from .geometry import (CACHE_SIZE, LatticePoint, Simplex, bounding_box,
                       hermite_normal_form, key_lattice_class, lattice_class,
                       membership_certificate, translation_key)
from .report import Report

DEFAULT_ENUMERATION_LIMIT = 10_000_000
VERIFY_ENUMERATION_BUDGET = 20_000
# Bounds of the line cache of count_complex: classes kept, and lines scanned
# by one kept class.  The lines kept number at most 256 * 512 = 2^17.
LINE_CACHE_ENTRIES = 256
LINE_CACHE_LINES = 512


@dataclass(frozen=True)
class CountReport(Report):
    object_id: str
    dilation: int
    count: int
    method: str  # "enumeration" or "additive"


def box_points(s: Simplex, t: int = 1) -> int:
    """Number of lattice points in the bounding box of the dilated simplex."""
    return _box_points(s, check_int(t, "dilation factor", 1))


def _box_points(s: Simplex, t: int) -> int:
    lo, hi = bounding_box(s)
    return prod((h - l) * t + 1 for l, h in zip(lo, hi))


def _free_axis(boxes, t: int) -> int:
    """The axis along which the boxes, given as (n, (lo, hi)) pairs for a
    box held n times and dilated by t, hold the fewest lines; for one box,
    its longest axis."""
    def lines(axis):
        return sum(n * prod((h - l) * t + 1
                            for i, (l, h) in enumerate(zip(lo, hi)) if i != axis)
                   for n, (lo, hi) in boxes)
    return min(range(len(boxes[0][1][0])), key=lines)


def _lines(s: Simplex, t: int, axis: int, strict: bool):
    """Yield (fixed, first, last) for every line of the box of t*s along
    axis that meets t*s (its relative interior when strict): fixed holds
    the other coordinates, first..last the integer values on the axis.

    The membership rows of s serve t*s once each c0 is scaled by t, and the
    box of t*s is the box of s scaled by t, so no dilated simplex is built.
    On a line, a row is c + a*x.  A barycentric row with a != 0 bounds x by
    floor division, and one with a == 0 keeps or drops the whole line; a
    hull row with a != 0 pins x to the one integer root, if any.  Strict
    rows ask c + a*x >= 1 in place of >= 0.
    """
    lo, hi = bounding_box(s)
    bary, hull = membership_certificate(s)
    others = [i for i in range(len(lo)) if i != axis]
    gap = 1 if strict else 0
    eqs = [(t * c0, [cs[i] for i in others], cs[axis]) for c0, cs in hull]
    ineqs = [(t * c0 - gap, [cs[i] for i in others], cs[axis])
             for c0, cs in bary]
    start, stop = t * lo[axis], t * hi[axis]
    for fixed in product(*(range(t * lo[i], t * hi[i] + 1) for i in others)):
        first, last = start, stop
        for c0, cs, a in eqs:
            c = c0 + sum(map(mul, cs, fixed))
            if a:
                x, r = divmod(-c, a)
                if r or not first <= x <= last:
                    break
                first = last = x
            elif c:
                break
        else:
            for c0, cs, a in ineqs:
                c = c0 + sum(map(mul, cs, fixed))
                if a > 0:
                    first = max(first, -(c // a))
                elif a < 0:
                    last = min(last, c // -a)
                elif c < 0:
                    break
                if first > last:
                    break
            else:
                yield fixed, first, last


@lru_cache(maxsize=LINE_CACHE_ENTRIES)
def _cached_lines(s: Simplex, t: int, axis: int) -> tuple:
    return tuple(_lines(s, t, axis, strict=False))


def _class_lines(s: Simplex, t: int, axis: int):
    """The closed lines of t*s along axis, (fixed, first, last) as _lines
    gives them, for the canonical translate s of a class: read from the
    line cache when the box of t*s has at most VERIFY_ENUMERATION_BUDGET
    points and at most LINE_CACHE_LINES lines along axis, otherwise cut
    afresh and not kept."""
    lo, hi = bounding_box(s)
    box = _box_points(s, t)
    if (box <= VERIFY_ENUMERATION_BUDGET
            and box // ((hi[axis] - lo[axis]) * t + 1) <= LINE_CACHE_LINES):
        return _cached_lines(s, t, axis)
    return list(_lines(s, t, axis, strict=False))


def _check_budget(points: int) -> None:
    if points > DEFAULT_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"enumeration would scan {points} box points, over the budget of "
            f"{DEFAULT_ENUMERATION_LIMIT}")


def _count(s: Simplex, t: int, strict: bool) -> int:
    _check_budget(box_points(s, t))
    axis = _free_axis([(1, bounding_box(s))], t)
    return sum(last - first + 1
               for _, first, last in _lines(s, t, axis, strict))


def count_simplex(s: Simplex, t: int) -> int:
    """|t*s ∩ Z^d|, enumerated line by line along the longest box axis
    with exact membership."""
    return _count(s, t, strict=False)


def count_relative_interior(s: Simplex, t: int) -> int:
    """Lattice points in the relative interior of t*s (all barycentric
    coordinates strictly positive; a point simplex is its own interior)."""
    return _count(s, t, strict=True)


def enumeration_estimate(c: SimplicialComplex, t: int) -> int:
    """Total box points count_complex would scan at dilation t: the sum of
    every maximal face's box points, read per class off its canonical
    translate (see SimplicialComplex.classes), whose box has the size of
    every face's of the class."""
    check_int(t, "dilation factor", 1)
    return sum([len(faces) * _box_points(s, t) for s, faces in c.classes])


def count_method(c: SimplicialComplex, t: int) -> str:
    """How t*|c| is counted: "enumeration" (count_complex) while
    enumeration_estimate(c, t) is at most VERIFY_ENUMERATION_BUDGET, beyond
    it "additive" (count_complex_additive), which is exact at any dilation."""
    return ("enumeration" if enumeration_estimate(c, t) <= VERIFY_ENUMERATION_BUDGET
            else "additive")


def count_complex(c: SimplicialComplex, t: int) -> int:
    """|t*|c| ∩ Z^d|: the lattice points of the union of the dilated
    maximal faces, each counted once even where faces overlap.

    Every face is cut into integer intervals on the lines of one free axis,
    the one with the fewest lines over all face boxes (each class's box
    weighted by its faces); the intervals on each line are merged and their
    lengths summed.  The lines are cut once per class of
    SimplicialComplex.classes, on its canonical translate, whose least
    vertex is the origin: a face whose least vertex point is v gets them
    moved by t*v.  The lines of a class are kept across calls in an LRU
    cache keyed by (canonical translate, t, axis), whose entries hold no
    face: a class whose box at t is at most VERIFY_ENUMERATION_BUDGET
    points with at most LINE_CACHE_LINES lines along the axis, at most
    LINE_CACHE_ENTRIES classes, so at most 2^17 lines in all.  Other
    classes, such as one whose box nears DEFAULT_ENUMERATION_LIMIT, are cut
    afresh and not kept.  An empty complex, one with no maximal face,
    counts 0; the frozenset form SimplicialComplex.faces is never read.
    """
    _check_budget(enumeration_estimate(c, t))
    if not c.maximal_faces:
        return 0
    axis = _free_axis([(len(faces), bounding_box(s)) for s, faces in c.classes], t)
    verts = c.vertices
    lines: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for s, faces in c.classes:
        class_lines = _class_lines(s, t, axis)
        for face in faces:
            shift = [t * a for a in min([verts[i] for i in face])]
            step = shift.pop(axis)
            for fixed, first, last in class_lines:
                lines.setdefault(tuple(map(add, fixed, shift)), []).append(
                    (first + step, last + step))
    total = 0
    for spans in lines.values():
        spans.sort()
        end = spans[0][0] - 1
        for first, last in spans:
            if last > end:
                total += last - max(first, end + 1) + 1
                end = last
    return total


@dataclass(frozen=True)
class HStarVector(Report):
    """Coefficients h_0..h_m of the counting polynomial of an m-simplex in
    the binomial basis C(t+m-k, m): nonnegative integers with h_0 = 1 whose
    sum is the normalized volume of the simplex in its own affine lattice,
    for every m."""

    entries: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.entries) - 1

    def count(self, t: int) -> int:
        """|t*s ∩ Z^d| = sum h_k C(t+m-k, m) for t >= 0."""
        check_int(t, "dilation factor", 0)
        m = self.degree
        return sum(h * comb(t + m - k, m) for k, h in enumerate(self.entries))

    def interior(self, t: int) -> int:
        """Lattice points in the relative interior of t*s for t >= 1:
        sum h_k C(t+k-1, m), by Ehrhart-Macdonald reciprocity."""
        check_int(t, "dilation factor", 1)
        m = self.degree
        return sum(h * comb(t + k - 1, m) for k, h in enumerate(self.entries))


@lru_cache(maxsize=CACHE_SIZE)
def _class_hstar(key: tuple[LatticePoint, ...]) -> HStarVector:
    """The h*-vector shared by every simplex of lattice class key, read off
    the canonical simplex conv(0, key) in Z^m; a point's is (1,).

    The lattice points of the fundamental parallelepiped of the cone over
    the simplex stand for the group Z^(m+1) / W Z^(m+1), W having columns
    (w, 1) for the vertices w; coset representatives 0 <= x_i < diag_i come
    from the Hermite normal form of W^T.  A representative x = (x', h) has
    cone coordinates mu_j = (h c0_j + a_j . x') / D_j, read from the
    simplex's barycentric rows, D_j being row j at vertex j, where mu_j is
    1, and its parallelepiped point sits at height sum frac(mu_j), which
    is the entry of h* it adds to.
    """
    m = len(key)
    if not m:
        return HStarVector((1,))
    volume = prod(key[j][j] for j in range(m))
    if volume > DEFAULT_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"normalized volume {volume} of lattice class {key} is over the "
            f"budget of {DEFAULT_ENUMERATION_LIMIT}")
    # sorted, the vertices are their own translation key, so Simplex and
    # the rows read one certificate
    canonical = tuple(sorted(((0,) * m,) + key))
    bary, _ = membership_certificate(Simplex(canonical))
    denoms = [c0 + sum(map(mul, cs, w)) for (c0, cs), w in zip(bary, canonical)]
    common = lcm(*denoms)
    # mu_j * common = forms[j] . x, with x = (x', h)
    forms = [tuple(c * (common // dj) for c in cs + (c0,))
             for (c0, cs), dj in zip(bary, denoms)]
    cone = hermite_normal_form([w + (1,) for w in canonical])
    entries = [0] * (m + 1)
    for x in product(*(range(row[i]) for i, row in enumerate(cone))):
        entries[sum(sum(a * xi for a, xi in zip(f, x)) % common
                    for f in forms) // common] += 1
    if entries[0] != 1 or sum(entries) != volume:
        raise IntegrityError(
            f"h* = {entries} of lattice class {key} needs h*_0 = 1 and sum {volume}")
    return HStarVector(tuple(entries))


def _key_hstar(key: tuple[LatticePoint, ...]) -> HStarVector:
    """The h*-vector of the simplices of translation key key, read off the
    lattice class of their canonical translate; no Simplex is built."""
    return _class_hstar(key_lattice_class(key))


def hstar(s: Simplex) -> HStarVector:
    """The h*-vector of s.

    It depends only on the lattice class of s and is kept in an LRU cache
    of CACHE_SIZE classes.  The class is read off the translation key of
    s, its vertices sorted, so s in any vertex order, and any translate of
    it, shares the entry, and so does an image of the key under a
    unimodular map that keeps its order.  Raises ResourceLimitError when
    the normalized volume of s is over DEFAULT_ENUMERATION_LIMIT.
    """
    return _key_hstar(translation_key(s.vertices))


@dataclass(frozen=True)
class Census(Report):
    """The census of a complex, which no dilation changes: the rows
    A_0..A_dim, where A_m[k] sums h*_k over the m-faces, so that the
    additive count at t is sum A_m[k] C(t+k-1, m)."""

    rows: tuple[tuple[int, ...], ...]

    def count(self, t: int) -> int:
        """The additive count at dilation t >= 1, over the nonzero entries."""
        check_int(t, "dilation factor", 1)
        return sum([a * comb(t + k - 1, m)
                    for m, row in enumerate(self.rows) for k, a in enumerate(row) if a])


def census(c: SimplicialComplex) -> Census:
    """The census of c.  Every h* has h*_0 = 1, so A_m[0] is f_m.  A face
    of a unimodular simplex is unimodular in its own affine lattice (part
    of a lattice basis spans a saturated sublattice), so its h* is
    (1, 0, ...) and adds nothing past A_m[0], keyed or not.  So the faces
    keyed are those of dimension >= 1 of the non-unimodular classes of
    SimplicialComplex.classes, a class being unimodular when the diagonal
    of its lattice class has product 1; one such face that a unimodular
    maximal face also holds adds zero.  They are counted per translation
    key, whose h* serves every translate; on a unimodular complex no face
    is keyed and no h* is read.
    """
    rows = [[n] + [0] * m for m, n in enumerate(c.f_vector())]
    keyed = {sub for s, faces in c.classes  # sorted index tuples
             if prod([h[j] for j, h in enumerate(lattice_class(s))]) != 1
             for face in faces for r in range(2, len(face) + 1)
             for sub in combinations(face, r)}
    if keyed:  # empty on a unimodular complex, which builds no Counter
        keys = Counter([translation_key([c.vertices[i] for i in face]) for face in keyed])
        for key, n in keys.items():
            h = _key_hstar(key).entries
            row = rows[len(h) - 1]
            for k in range(1, len(h)):
                row[k] += n * h[k]
    return Census(tuple(map(tuple, rows)))


def count_complex_additive(c: SimplicialComplex, t: int) -> int:
    """Same count as count_complex on a valid complex, via the disjoint
    partition of the union into relative interiors of faces (overlapping
    faces of an improper complex are counted twice).

    The interior of t*F counts as sum h_k C(t+k-1, m) for the h*-vector h
    of each m-face F (Ehrhart-Macdonald reciprocity), an int whose cost does
    not grow with t, summed over the faces by census(c).count(t).
    """
    check_int(t, "dilation factor", 1)  # before any h* of the census
    return census(c).count(t)
