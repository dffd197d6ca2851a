"""Exact lattice-point counting in dilated simplices and complex unions.

Counts of t*s come from integer enumeration of the box of s scaled by t,
tested against the exact membership certificate of s itself; a scan over
DEFAULT_ENUMERATION_LIMIT box points raises ResourceLimitError instead of
running slowly.
The additive counter sums relative-interior counts over all faces, which is
the designated fast path for large dilations: each interior count is the
int sum h_k C(t+k-1, m) over the face's integer h*-vector h, by
Ehrhart-Macdonald reciprocity, and h is computed once per lattice class
(ehrhart.hstar), at a cost that follows the normalized volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .complexes import SimplicialComplex
from .errors import ResourceLimitError
from .geometry import Simplex, bounding_box, check_dilation, membership_certificate

DEFAULT_ENUMERATION_LIMIT = 10_000_000


@dataclass(frozen=True)
class CountReport:
    object_id: str
    dilation: int
    count: int
    method: str  # "enumeration" or "additive"

    def as_dict(self) -> dict:
        return {"object_id": self.object_id, "dilation": self.dilation,
                "count": self.count, "method": self.method}


def box_points(s: Simplex, t: int = 1) -> int:
    """Number of lattice points in the bounding box of the dilated simplex."""
    lo, hi = bounding_box(s)
    return prod((h - l) * t + 1 for l, h in zip(lo, hi))


def _scan(s: Simplex, t: int, strict: bool):
    """Yield the lattice points of t*s (relative interior only when strict).

    The membership rows of s serve t*s once each c0 is scaled by t, and the
    box of t*s is the box of s scaled by t, so no dilated simplex is built.
    """
    lo, hi = bounding_box(s)
    bary, hull = membership_certificate(s)
    bary = [(t * c0, cs) for c0, cs in bary]
    hull = [(t * c0, cs) for c0, cs in hull]
    for x in product(*(range(t * l, t * h + 1) for l, h in zip(lo, hi))):
        ok = True
        for c0, cs in hull:
            acc = c0
            for c, xi in zip(cs, x):
                acc += c * xi
            if acc:
                ok = False
                break
        if not ok:
            continue
        for c0, cs in bary:
            acc = c0
            for c, xi in zip(cs, x):
                acc += c * xi
            if (acc <= 0) if strict else (acc < 0):
                ok = False
                break
        if ok:
            yield x


def _check_budget(points: int) -> None:
    if points > DEFAULT_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"enumeration would scan {points} box points, over the budget of "
            f"{DEFAULT_ENUMERATION_LIMIT}")


def count_simplex(s: Simplex, t: int) -> int:
    """|t*s ∩ Z^d| by bounding-box enumeration with exact membership."""
    check_dilation(t)
    _check_budget(box_points(s, t))
    return sum(1 for _ in _scan(s, t, strict=False))


def count_relative_interior(s: Simplex, t: int) -> int:
    """Lattice points in the relative interior of t*s (all barycentric
    coordinates strictly positive; a point simplex is its own interior)."""
    check_dilation(t)
    _check_budget(box_points(s, t))
    return sum(1 for _ in _scan(s, t, strict=True))


def enumeration_estimate(c: SimplicialComplex, t: int) -> int:
    """Total box points count_complex would scan at dilation t."""
    return sum(box_points(c.simplex(f), t) for f in c.maximal_faces)


def count_complex(c: SimplicialComplex, t: int) -> int:
    """|t*|c| ∩ Z^d| for a valid complex: the union over maximal faces of
    per-face bounding-box enumerations, deduplicated exactly."""
    check_dilation(t)
    if not c.faces:
        return 0
    _check_budget(enumeration_estimate(c, t))
    points: set[tuple[int, ...]] = set()
    for face in c.maximal_faces:
        points.update(_scan(c.simplex(face), t, strict=False))
    return len(points)


def count_complex_additive(c: SimplicialComplex, t: int) -> int:
    """Same count as count_complex, via the disjoint partition of the union
    into relative interiors of faces.

    The interior of t*F counts as sum h_k C(t+k-1, m) for the h*-vector h
    of each m-face F (Ehrhart-Macdonald reciprocity), an int whose cost does
    not grow with t; h comes from the face's lattice class, computed once
    per class.
    """
    check_dilation(t)
    from .ehrhart import hstar
    return sum(hstar(c.simplex(f)).interior(t) for f in c.faces)
