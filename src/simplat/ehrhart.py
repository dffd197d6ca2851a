"""h*-vectors of lattice simplices, the Ehrhart polynomials they define,
and the prime-power dilation congruence check for a single simplex.

The lattice-point count of t*s is L(t) = sum h_k C(t+m-k, m) (m = intrinsic
dimension) for the integer h*-vector h of s, which depends only on the
lattice class of s.  It is computed once per class, read off the lattice
points of the fundamental parallelepiped of the cone over the simplex (Beck
& Robins, Computing the Continuous Discretely, ch. 3), at a cost that
follows the normalized volume, not the bounding box, and every count, closed
or relative-interior (by Ehrhart-Macdonald reciprocity), is an int taken
from it.  The rational polynomial, for display only, is the same sum
expanded in the monomial basis: m! C(t+m-k, m) is an integer polynomial in
t, so the coefficients take one division by m! each.
Enumeration stays the independent check: the per-simplex congruence
enumerates small boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm, prod

from .counting import DEFAULT_ENUMERATION_LIMIT, box_points, count_simplex
from .errors import InputError, IntegrityError, ResourceLimitError, check_int
from .geometry import (CACHE_SIZE, LatticePoint, Simplex, _certificate,
                       hermite_normal_form, lattice_class)
from .numtheory import binomial, check_prime, exponent_log_floor
from .report import Report

SUBCHECK_ENUMERATION_BUDGET = 512


@dataclass(frozen=True)
class EhrhartPolynomial(Report):
    """Counting polynomial with exact rational coefficients, constant term
    1, and nonzero leading coefficient (degree equals intrinsic dimension
    for simplices)."""

    coefficients: tuple[Fraction, ...]  # c_0 + c_1 t + ... + c_m t^m

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if not coeffs:
            raise InputError("a counting polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs[0] != 1:
            raise IntegrityError(f"constant term must be 1, got {coeffs[0]}")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise IntegrityError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, t: int) -> Fraction:
        check_int(t, "evaluation point")
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def _form(self) -> dict:
        return {**super()._form(), "degree": self.degree}


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
        m = self.degree
        return sum(h * binomial(t + m - k, m) for k, h in enumerate(self.entries))

    def interior(self, t: int) -> int:
        """Lattice points in the relative interior of t*s for t >= 1:
        sum h_k C(t+k-1, m), by Ehrhart-Macdonald reciprocity."""
        m = self.degree
        return sum(h * binomial(t + k - 1, m) for k, h in enumerate(self.entries))


@lru_cache(maxsize=CACHE_SIZE)
def _class_hstar(key: tuple[LatticePoint, ...]) -> HStarVector:
    """The h*-vector shared by every simplex of lattice class key, read off
    the canonical simplex conv(0, key) in Z^m.

    The lattice points of the fundamental parallelepiped of the cone over
    the simplex stand for the group Z^(m+1) / W Z^(m+1), W having columns
    (w, 1) for the vertices w; coset representatives 0 <= x_i < diag_i come
    from the Hermite normal form of W^T.  A representative x = (x', h) has
    cone coordinates mu_j = (h c0_j + a_j . x') / D_j, read from the
    simplex's barycentric rows, and its parallelepiped point sits at height
    sum frac(mu_j), which is the entry of h* it adds to.
    """
    m = len(key)
    volume = prod(key[j][j] for j in range(m))
    if volume > DEFAULT_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"normalized volume {volume} of lattice class {key} is over the "
            f"budget of {DEFAULT_ENUMERATION_LIMIT}")
    canonical = ((0,) * m,) + key
    bary, _, denoms, _ = _certificate(canonical)
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


def hstar(s: Simplex) -> HStarVector:
    """The h*-vector of s.

    It depends only on the lattice class of s (geometry.lattice_class) and
    is kept in an LRU cache of CACHE_SIZE classes, so every translated or
    unimodularly mapped copy of s shares it.  Raises ResourceLimitError
    when the normalized volume of s is over DEFAULT_ENUMERATION_LIMIT.
    """
    return _class_hstar(lattice_class(s))


def ehrhart_polynomial(s: Simplex) -> EhrhartPolynomial:
    """The counting polynomial t -> |t*s ∩ Z^d| of s, by a change of basis
    from h = hstar(s): m! L(t) = sum h_k prod_{j<m} (t + m - k - j) is an
    integer polynomial, built with int multiply-adds, and each of its
    coefficients is divided by m! once."""
    h = hstar(s)
    m = h.degree
    scaled = [0] * (m + 1)
    for k, hk in enumerate(h.entries):
        term = [hk]  # hk * prod_{j<m} (t + m - k - j), low degree first
        for j in range(m):
            a = m - k - j
            term = [a * c + lower for c, lower in zip(term + [0], [0] + term)]
        scaled = [x + y for x, y in zip(scaled, term)]
    return EhrhartPolynomial(tuple(Fraction(c, factorial(m)) for c in scaled))


@dataclass(frozen=True)
class SimplexCongruenceReport(Report):
    """Outcome of the per-simplex prime-power check: the count of lattice
    points in p^k * s must be ≡ 1 (mod p^(k - floor(log_p m)))."""

    vertices: tuple[LatticePoint, ...]
    intrinsic_dim: int
    prime: int
    exponent: int
    log_floor: int
    modulus: int
    count: int
    residue: int
    method: str  # "enumeration" or "ehrhart"
    passed: bool


def verify_simplex_congruence(s: Simplex, p: int, k: int) -> SimplexCongruenceReport:
    """Check |p^k * s ∩ Z^d| ≡ 1 (mod p^(k-l)) with l = floor(log_p m) in
    the intrinsic dimension m of s (l = 0 for points).

    The count comes from enumeration when the dilated bounding box has at
    most SUBCHECK_ENUMERATION_BUDGET points and from the h*-vector
    otherwise, as L(t) = sum h_j C(t+m-j, m).  That form is the paper's
    reason the check passes: h_0 = 1, and C(t+m, m) ≡ 1 while
    C(t+m-j, m) ≡ 0 for j = 1..m (mod p^(k-l)), as
    numtheory.verify_binomial_congruences checks.
    """
    check_prime(p)
    check_int(k, "k", 1)
    m = s.intrinsic_dim
    l = exponent_log_floor(p, m, k)
    t = p ** k
    if box_points(s, t) <= SUBCHECK_ENUMERATION_BUDGET:
        count = count_simplex(s, t)
        method = "enumeration"
    else:
        count = hstar(s).count(t)
        method = "ehrhart"
    modulus = p ** (k - l)
    residue = count % modulus
    return SimplexCongruenceReport(
        vertices=s.vertices, intrinsic_dim=m, prime=p, exponent=k,
        log_floor=l, modulus=modulus, count=count, residue=residue,
        method=method, passed=residue == 1 % modulus)
