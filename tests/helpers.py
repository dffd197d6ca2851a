"""Independent oracles and fixtures shared by the test modules.

The oracles here deliberately avoid the library's own code paths: membership
comes from orientation predicates or sympy's solver, volumes from sympy
determinants, counts from handwritten inequality scans or, for the
point-scan oracle, from every point of the box tested against the
library's membership rows.  The others are the library's own earlier and
simpler paths, kept as oracles for the faster ones that replaced them.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations, product
from math import gcd, lcm, prod

import sympy
from hypothesis import assume
from hypothesis import strategies as st

from simplat import Simplex, close_under_faces, generate_complex, validate, verify
from simplat.counting import _check_budget, _free_axis, _lines, enumeration_estimate
from simplat.ehrhart import SimplexCongruenceReport, hstar
from simplat.numtheory import dilation_plan
from simplat.geometry import (bounding_box, hermite_normal_form, membership_certificate,
                              translation_key)
from simplat.errors import InputError, SimplatError, check_int, is_int, shown

# ---------------------------------------------------------------------------
# document fixtures

UNIT_SEGMENT_DOC = {
    "ambient_dim": 1,
    "vertices": [[0], [1]],
    "maximal_simplices": [[0, 1]],
}

UNIT_SQUARE_DOC = {
    "ambient_dim": 2,
    "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
    "maximal_simplices": [[0, 1, 2], [1, 2, 3]],
}

# Three unit squares in an L, each cut along its main diagonal: 6 triangles,
# outline a hexagon with corners (0,0),(2,0),(2,1),(1,1),(1,2),(0,2).
L_SHAPE_DOC = {
    "ambient_dim": 2,
    "vertices": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [0, 2], [1, 2]],
    "maximal_simplices": [
        [0, 1, 4], [0, 3, 4],
        [1, 2, 5], [1, 4, 5],
        [3, 4, 7], [3, 6, 7],
    ],
}

# A triangle of normalized volume 5 and a unimodular one sharing an edge:
# by Pick, t times their union holds 3t^2 + 2t + 1 lattice points
MIXED_DOC = {
    "ambient_dim": 2,
    "vertices": [[0, 0], [3, 1], [1, 2], [0, 1]],
    "maximal_simplices": [[0, 1, 2], [0, 2, 3]],
}

HOLLOW_TRIANGLE_DOC = {
    "ambient_dim": 2,
    "vertices": [[0, 0], [1, 0], [0, 1]],
    "maximal_simplices": [[0, 1], [1, 2], [0, 2]],
}


# Document files json cannot read, and a phrase of the reason each names:
# text that is not UTF-8, an int literal longer than int() converts, and
# nesting past the recursion limit.
UNREADABLE = {
    "not_utf8": ('{"ambient_dim": 1, "vertices": [[0]], "maximal_simplices": [[0]], '
                 '"caf\xe9": 0}'.encode("latin-1"), "codec can't decode byte 0xe9"),
    "long_int": (b'{"ambient_dim": 1, "vertices": [[' + b"7" * 5000
                 + b']], "maximal_simplices": [[0]]}', "(4300 digits)"),
    "deep": (b'{"ambient_dim": 1, "vertices": [[0]], "maximal_simplices": '
             + b"[" * 100_000 + b"]" * 100_000 + b"}", "maximum recursion depth"),
}


# The square document in encodings other than UTF-8, which a document file
# is: each is refused with one message, whether read from a file or parsed
# from its bytes, though the text it encodes is a valid document.
_SQUARE_TEXT = '{"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]], ' \
    '"maximal_simplices": [[0, 1, 2], [1, 2, 3]]}'
NOT_UTF8 = {name: (_SQUARE_TEXT.encode(codec), codec, message) for name, codec, message in (
    ("utf8_bom", "utf-8-sig", "invalid JSON: Unexpected UTF-8 BOM"),
    ("utf16", "utf-16", "unreadable JSON: document is not UTF-8 text"),
    ("utf16_le", "utf-16-le", "invalid JSON: Expecting property name"),
    ("utf32", "utf-32", "unreadable JSON: document is not UTF-8 text"))}


# ---------------------------------------------------------------------------
# membership oracles

def orient(a, b, c) -> Fraction:
    """Signed area predicate (exact cross product)."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    return ((Fraction(b[0]) - ax) * (Fraction(c[1]) - ay)
            - (Fraction(b[1]) - ay) * (Fraction(c[0]) - ax))


def triangle_contains(tri, p) -> bool:
    """Point-in-closed-triangle by orientation signs; 2D only."""
    d1 = orient(tri[0], tri[1], p)
    d2 = orient(tri[1], tri[2], p)
    d3 = orient(tri[2], tri[0], p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def sympy_barycentric(vertices, point):
    """Barycentric coordinates via sympy's solver, or None off the hull."""
    k = len(vertices)
    d = len(vertices[0])
    rows = [[sympy.Integer(1)] * k]
    for c in range(d):
        rows.append([sympy.Rational(v[c]) for v in vertices])
    rhs = [sympy.Integer(1)]
    for x in point:
        f = Fraction(x) if not isinstance(x, Fraction) else x
        rhs.append(sympy.Rational(f.numerator, f.denominator))
    A = sympy.Matrix(rows)
    b = sympy.Matrix(rhs)
    try:
        sol, params = A.gauss_jordan_solve(b)
    except ValueError:
        return None
    assert not params, "affinely independent vertices give a unique solution"
    return tuple(Fraction(int(v.p), int(v.q)) for v in sol)


def sympy_contains(vertices, point) -> bool:
    coords = sympy_barycentric(vertices, point)
    return coords is not None and all(c >= 0 for c in coords)


def normalized_volume(s: Simplex) -> int:
    """|det| of the edge matrix of a full-dimensional simplex (sympy)."""
    v0 = s.vertices[0]
    rows = [[v[i] - v0[i] for i in range(s.ambient_dim)] for v in s.vertices[1:]]
    return abs(int(sympy.Matrix(rows).det()))


# ---------------------------------------------------------------------------
# region-count oracles (inequality scans, no library code)

def l_shape_count(t: int) -> int:
    """Lattice points of the dilated L: [0,2t]x[0,t] ∪ [0,t]x[t,2t]."""
    count = 0
    for x in range(0, 2 * t + 1):
        for y in range(0, 2 * t + 1):
            if (y <= t and x <= 2 * t) or (x <= t and t <= y <= 2 * t):
                count += 1
    return count


def square_count(t: int) -> int:
    return (t + 1) ** 2


def hollow_triangle_count(t: int) -> int:
    """Boundary points of the dilated unit right triangle."""
    count = 0
    for x in range(0, t + 1):
        for y in range(0, t + 1):
            if x + y <= t and (x == 0 or y == 0 or x + y == t):
                count += 1
    return count


# ---------------------------------------------------------------------------
# point-scan oracle (criterion 7): the library's counters before they counted
# by lines, testing every point of the dilated box against every row

def scan_points(s: Simplex, t: int, strict: bool = False):
    """Yield the lattice points of t*s (relative interior only when strict).

    The membership rows of s serve t*s once each c0 is scaled by t, and the
    box of t*s is the box of s scaled by t, so no dilated simplex is built.
    """
    lo = [min(v[i] for v in s.vertices) for i in range(s.ambient_dim)]
    hi = [max(v[i] for v in s.vertices) for i in range(s.ambient_dim)]
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


def union_count(c, t: int) -> int:
    """|t*|c| ∩ Z^d| as the size of the set union of the points of every
    dilated maximal face, valid complex or not."""
    points: set[tuple[int, ...]] = set()
    for face in c.maximal_faces:
        points.update(scan_points(c.simplex(face), t))
    return len(points)


# ---------------------------------------------------------------------------
# union-count oracle: the library's union count before it cut lines once per
# translation class

def facewise_union_count(c, t: int) -> int:
    """|t*|c| ∩ Z^d| with every maximal face cut on the lines of the free
    axis from its own Simplex, and the intervals on each line merged."""
    check_int(t, "dilation factor", 1)
    if not c.faces:
        return 0
    _check_budget(enumeration_estimate(c, t))
    simplices = [c.simplex(face) for face in c.maximal_faces]
    axis = _free_axis([(1, bounding_box(s)) for s in simplices], t)
    lines: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for s in simplices:
        for fixed, first, last in _lines(s, t, axis, strict=False):
            lines.setdefault(fixed, []).append((first, last))
    total = 0
    for spans in lines.values():
        spans.sort()
        end = spans[0][0] - 1
        for first, last in spans:
            if last > end:
                total += last - max(first, end + 1) + 1
                end = last
    return total


# ---------------------------------------------------------------------------
# construction oracle: SimplicialComplex's face closure as it was before it
# held sorted index tuples, one frozenset per generated subset

def frozenset_closure(vertices, faces):
    """(faces, maximal_faces, f-vector, classes) of the complex that the
    given faces generate over the vertex list, as SimplicialComplex closed
    them with a frozenset per subset: classes as (translation key, faces)
    pairs in the order of their first faces.  A face list or face that
    SimplicialComplex refuses raises InputError with its message; the
    vertices are not checked."""
    if not hasattr(faces, "__iter__"):
        raise InputError(f"faces must be an iterable of faces, got {shown(faces)}")
    given: set[frozenset[int]] = set()
    below: set[frozenset[int]] = set()
    for indices in faces:
        try:
            indices = tuple(indices)
        except TypeError:
            raise InputError(
                f"face must be an iterable of vertex indices, got {shown(indices)}") from None
        if not indices:
            raise InputError("empty face in the face list")
        for i in indices:
            if not is_int(i) or not 0 <= i < len(vertices):
                raise InputError(
                    f"vertex index {shown(i)} out of range in face {shown(list(indices))}")
        face = frozenset(indices)
        if len(face) < len(indices):
            raise InputError(f"repeated vertex index in face {list(indices)}")
        if face not in given:
            given.add(face)
            for r in range(1, len(face)):
                below.update(map(frozenset, combinations(face, r)))
    closure = frozenset(below | given)
    maximal = tuple(sorted(tuple(sorted(f)) for f in given - below))
    sizes = Counter(map(len, closure))
    classes: dict[tuple, list] = {}
    for face in maximal:
        classes.setdefault(translation_key([vertices[i] for i in face]), []).append(face)
    return (closure, maximal, tuple(sizes[k] for k in range(1, len(sizes) + 1)),
            tuple((key, tuple(fs)) for key, fs in classes.items()))


# ---------------------------------------------------------------------------
# closure oracles: maximal faces as the library found them before it read
# them off the closure pass, by dropping one vertex from every face, and
# the f-vector as it counted it before the complex kept it

def closure_maximal_faces(c) -> tuple[tuple[int, ...], ...]:
    """Faces of c not strictly contained in another face, sorted."""
    non_maximal = set()
    for face in c.faces:
        if len(face) > 1:
            for drop in face:
                non_maximal.add(face - {drop})
    return tuple(sorted(tuple(sorted(f)) for f in c.faces if f not in non_maximal))


def facewise_f_vector(c) -> tuple[int, ...]:
    """Counts of i-dimensional faces of c, i = 0 .. dim, by a walk over
    every face, as f_vector() counted them before the complex kept them."""
    if not c.faces:
        return ()
    counts = [0] * max(len(f) for f in c.faces)
    for face in c.faces:
        counts[len(face) - 1] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# generator oracle: generate_complex as it was before it built chains from
# index strides, walking each chain point by point and looking every point
# up in a vertex index

def chain_generated_complex(dim: int, grid: int, keep_fraction, seed: int):
    """The permutation-triangulation subcomplex generate_complex makes for
    valid arguments, with one randrange draw per simplex in the same order."""
    verts = [tuple(p) for p in product(range(grid + 1), repeat=dim)]
    index = {v: i for i, v in enumerate(verts)}
    rng = random.Random(seed)
    keep = Fraction(keep_fraction)
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


# ---------------------------------------------------------------------------
# additive-count oracles: the library's additive count before it grouped
# faces by translation class, and the translation classes found by trying
# every translation

def facewise_additive(c, t: int) -> int:
    """Sum over all faces of the interior count of the dilated face, each
    face's h*-vector read on its own (overlapping faces of an improper
    complex are counted twice)."""
    check_int(t, "dilation factor", 1)
    return sum(hstar(c.simplex(f)).interior(t) for f in c.faces)


def relative_volume(points) -> int:
    """Normalized volume of the simplex on the points in its own affine
    lattice: the gcd of the m x m minors of its edge matrix (sympy), which
    is the index of the lattice its edges span in the lattice points of
    their span, so 1 exactly for a unimodular simplex."""
    v0 = points[0]
    edges = sympy.Matrix([[a - b for a, b in zip(v, v0)] for v in points[1:]])
    m = len(points) - 1
    if not m:
        return 1
    return abs(int(sympy.gcd([edges.extract(list(range(m)), list(cols)).det()
                          for cols in combinations(range(len(v0)), m)])))


def facewise_estimate(c, t: int) -> int:
    """The box points count_complex would scan at dilation t, summed over
    every maximal face with its box read off its own vertex points."""
    total = 0
    for face in c.maximal_faces:
        columns = list(zip(*(c.vertices[i] for i in face)))
        total += prod((max(x) - min(x)) * t + 1 for x in columns)
    return total


def translation_class_count(c) -> int:
    """Number of classes of the faces of c under lattice translation.

    A face joins a representative's class when some translation taking one
    fixed vertex of the representative to a vertex of the face maps all of
    the representative's vertices onto the face's; no ordering of points is
    used.
    """
    reps: list[list[tuple[int, ...]]] = []
    for face in c.faces:
        points = {c.vertices[i] for i in face}
        for rep in reps:
            if len(rep) != len(points):
                continue
            if any({tuple(x + b - a for x, a, b in zip(p, rep[0], q))
                    for p in rep} == points for q in points):
                break
        else:
            reps.append(list(points))
    return len(reps)


# ---------------------------------------------------------------------------
# sub-check oracle: run_verify's sub-checks as it built them before its
# report held one report per class, a new report per face and plan term

def facewise_subchecks(c, n: int) -> tuple[SimplexCongruenceReport, ...]:
    """One report per maximal face and plan term, in face index order: its
    class's report from verify._class_subcheck, built again with the
    face's own vertices."""
    terms = [(term.prime, term.dilation_exponent)
             for term in dilation_plan(c.ambient_dim, n).terms]
    class_of = {face: s for s, faces in c.classes for face in faces}
    subchecks = []
    for face in c.maximal_faces:
        vertices = tuple([c.vertices[i] for i in face])
        for p, k in terms:
            r = verify._class_subcheck(class_of[face], p, k)
            subchecks.append(SimplexCongruenceReport(
                vertices=vertices, intrinsic_dim=r.intrinsic_dim, prime=p,
                exponent=k, log_floor=r.log_floor, modulus=r.modulus,
                count=r.count, residue=r.residue, method=r.method,
                passed=r.passed))
    return tuple(subchecks)


# ---------------------------------------------------------------------------
# certificate oracle: the library's certificate rows before they were
# computed in integers, by Gauss-Jordan elimination over Fraction

def fraction_certificate(vertices):
    """(bary_rows, hull_rows, bary_denoms, lattice_class) of a vertex tuple,
    or None when the vertices are affinely dependent.

    Reduces [A | I], A mapping barycentric weights to (1, x), over Fraction
    and clears each row's denominators.  The lattice class is taken from
    the library's hermite_normal_form, so this oracle checks the rows and
    denominators only.
    """
    k = len(vertices)
    d = len(vertices[0])
    rows = d + 1
    mat: list[list[Fraction]] = []
    for r in range(rows):
        if r == 0:
            left = [Fraction(1)] * k
        else:
            left = [Fraction(v[r - 1]) for v in vertices]
        right = [Fraction(0)] * rows
        right[r] = Fraction(1)
        mat.append(left + right)
    pivot_row = 0
    for col in range(k):
        pr = next((r for r in range(pivot_row, rows) if mat[r][col]), None)
        if pr is None:
            return None
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        piv = mat[pivot_row][col]
        mat[pivot_row] = [v / piv for v in mat[pivot_row]]
        for r in range(rows):
            if r != pivot_row and mat[r][col]:
                f = mat[r][col]
                prow = mat[pivot_row]
                mat[r] = [a - f * b for a, b in zip(mat[r], prow)]
        pivot_row += 1
    denoms = [lcm(*(f.denominator for f in row[k:])) for row in mat]
    ints = [[f.numerator * (m // f.denominator) for f in row[k:]]
            for row, m in zip(mat, denoms)]
    cert = tuple((r[0], tuple(r[1:])) for r in ints)
    v0 = vertices[0]
    edges = [[v[i] - v0[i] for v in vertices[1:]] for i in range(d)]
    key = tuple(zip(*hermite_normal_form(edges)))
    return cert[:k], cert[k:], tuple(denoms[:k]), key


# ---------------------------------------------------------------------------
# Hermite normal form oracle: the library's loop before each Euclid round
# found its next pivot while reducing, rebuilding the nonzero rows and
# taking their min instead

def euclid_hnf(rows) -> tuple[tuple[int, ...], ...]:
    """Top block of the row Hermite normal form of an integer matrix of
    full column rank (InputError otherwise), as hermite_normal_form."""
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    for j in range(n):
        while True:  # Euclid on column j over rows j.., ending with one nonzero
            nonzero = [r for r in range(j, len(a)) if a[r][j]]
            if not nonzero:
                raise InputError("matrix does not have full column rank")
            r = min(nonzero, key=lambda r: abs(a[r][j]))
            a[j], a[r] = a[r], a[j]
            if len(nonzero) == 1:
                break
            piv = a[j]
            for r in range(j + 1, len(a)):
                q = a[r][j] // piv[j]
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], piv)]
        if a[j][j] < 0:
            a[j] = [-x for x in a[j]]
        piv = a[j]
        for r in range(j):
            q = a[r][j] // piv[j]
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], piv)]
    return tuple(tuple(r) for r in a[:n])


# ---------------------------------------------------------------------------
# polynomial oracle: the library's Ehrhart polynomial before it was read off
# the h*-vector, by Lagrange interpolation over Fraction

def lagrange_coefficients(values):
    """Coefficients c_0..c_m of the exact polynomial through (0, values[0]),
    ..., (m, values[m]), trailing zero coefficients stripped so the degree
    is the true degree."""
    vals = [Fraction(v) for v in values]
    if not vals:
        raise InputError("need at least one count to interpolate")
    m = len(vals) - 1
    coeffs = [Fraction(0)] * (m + 1)
    for i, y in enumerate(vals):
        basis = [Fraction(1)]
        denom = 1
        for j in range(m + 1):
            if j == i:
                continue
            # multiply the running basis polynomial by (t - j)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] += c * (-j)
                nxt[k + 1] += c
            basis = nxt
            denom *= i - j
        scale = y / denom
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# random generation

def random_unimodular(rng: random.Random, dim: int) -> list[list[int]]:
    """A unit lower-triangular matrix with entries in {-1, 0, 1}, its rows
    permuted and signed: an element of GL_d(Z)."""
    lower = [[1 if j == i else rng.choice((-1, 0, 1)) if j < i else 0
              for j in range(dim)] for i in range(dim)]
    order = rng.sample(range(dim), dim)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    return [[sign * x for x in lower[r]] for r, sign in zip(order, signs)]


def moved_complex(c, rng: random.Random, shift):
    """The image of c under a random unimodular map plus shift, its vertex
    indices shuffled, so that index order says nothing about point order."""
    matrix = random_unimodular(rng, c.ambient_dim)
    new_index = list(range(len(c.vertices)))
    rng.shuffle(new_index)
    vertices = [None] * len(c.vertices)
    for i, v in enumerate(c.vertices):
        vertices[new_index[i]] = tuple(sum(a * x for a, x in zip(row, v)) + b
                                       for row, b in zip(matrix, shift))
    return close_under_faces([[new_index[i] for i in f] for f in c.maximal_faces],
                             vertices, ambient_dim=c.ambient_dim)


@st.composite
def moved_generated_complexes(draw):
    """A generated complex in dimension 1-4 under a random unimodular map
    and shift, its vertex indices shuffled."""
    dim = draw(st.integers(1, 4))
    grid = draw(st.integers(1, (4, 3, 2, 1)[dim - 1]))
    keep = draw(st.sampled_from((0, Fraction(1, 4), Fraction(1, 2), 1)))
    c = generate_complex(dim, grid, keep, seed=draw(st.integers(0, 2**16)))
    shift = draw(st.tuples(*[st.integers(-10**6, 10**6)] * dim))
    return moved_complex(c, random.Random(draw(st.integers(0, 2**16))), shift)


def _by_angle(a, b) -> int:
    """Order nonzero plane vectors by angle in [0, 2 pi), exactly."""
    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1
    if half(a) != half(b):
        return half(a) - half(b)
    cross = a[0] * b[1] - a[1] * b[0]
    return (cross < 0) - (cross > 0)


def star_triangles(spokes):
    """Triangles (0, q_i, q_j) of consecutive spokes q_i, q_j by angle
    that turn by less than pi, as index triples with the origin at index
    0 and spoke i at index i + 1: the cones over them meet only in shared
    spokes, so they form a valid complex.  Spokes must point in distinct
    directions."""
    order = sorted(range(len(spokes)), key=cmp_to_key(
        lambda i, j: _by_angle(spokes[i], spokes[j])))
    triangles = []
    for i, j in zip(order, order[1:] + order[:1]):
        a, b = spokes[i], spokes[j]
        if i != j and a[0] * b[1] - a[1] * b[0] > 0:
            triangles.append((0, i + 1, j + 1))
    return triangles


@st.composite
def mixed_complexes(draw, moved: bool = True):
    """A valid complex in dimension 1-3 whose maximal faces are unimodular
    or not as drawn, sharing faces across the two kinds: consecutive
    segments of a line in 1-D, a star of triangles around the origin in
    2-D, and in 3-D the cones over such a star from an apex above it and
    one below, which share the star's triangles.  It is shifted near 0 or
    +-10^6, its vertex indices are shuffled, and when moved it is mapped by
    a random unimodular map as well."""
    dim = draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    unit = st.integers(-1, 1)
    if dim == 1:
        stops = draw(st.lists(st.integers(0, 6), min_size=2, max_size=5, unique=True))
        points = [(x,) for x in sorted(stops)]
        maximal = [(i, i + 1) for i in range(len(points) - 1)]
    else:
        # mostly neighbours among the 8 unit directions, which span
        # unimodular triangles, and spokes of length 1
        coordinate = draw(st.sampled_from((unit, unit, small)))
        directions = draw(st.lists(st.tuples(coordinate, coordinate).filter(
            lambda v: gcd(*v) == 1), min_size=2, max_size=5, unique=True))
        lengths = draw(st.lists(st.sampled_from((1, 1, 2)), min_size=len(directions),
                                max_size=len(directions)))
        spokes = [(k * x, k * y) for k, (x, y) in zip(lengths, directions)]
        triangles = star_triangles(spokes)
        assume(triangles)
        points = [(0, 0)] + spokes
        maximal = triangles
        if dim == 3:
            points = [p + (0,) for p in points]
            n = len(points)
            points += [(draw(small), draw(small), 1), (draw(small), draw(small), -1)]
            maximal = [f + (apex,) for f in triangles for apex in (n, n + 1)]
    shift = draw(st.tuples(*[st.sampled_from((0, -10**6, 10**6 - 3))] * dim))
    order = draw(st.permutations(range(len(points))))
    vertices = [None] * len(points)
    for i, p in enumerate(points):
        vertices[order[i]] = tuple(a + b for a, b in zip(p, shift))
    c = close_under_faces([[order[i] for i in f] for f in maximal], vertices,
                          ambient_dim=dim)
    assert validate(c).passed, "a mixed complex must be valid"
    if moved:
        c = moved_complex(c, random.Random(draw(st.integers(0, 2**16))), (0,) * dim)
    return c


def random_simplex(rng: random.Random, ambient: int, coord_max: int = 3,
                   intrinsic: int | None = None) -> Simplex:
    """Seeded random lattice simplex with coordinates in [0, coord_max]."""
    m = rng.randint(0, ambient) if intrinsic is None else intrinsic
    while True:
        pts = tuple(tuple(rng.randint(0, coord_max) for _ in range(ambient))
                    for _ in range(m + 1))
        try:
            return Simplex(pts)
        except SimplatError:
            continue
