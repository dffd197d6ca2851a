"""Ehrhart polynomials of lattice simplices, h*-vectors in the binomial
basis, and the prime-power dilation congruence check for a single simplex.

The lattice-point count of t*s is a degree-m polynomial in t (m = intrinsic
dimension); it is recovered here by exact Lagrange interpolation through
t = 0..m and then verified against brute-force counts at t = m+1..2m+2, so
every polynomial handed out has survived an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .counting import box_points, count_simplex
from .errors import InputError, IntegrityError, is_int
from .geometry import CACHE_SIZE, LatticePoint, Simplex
from .numtheory import binomial, floor_log, is_prime

SUBCHECK_ENUMERATION_BUDGET = 512


@dataclass(frozen=True)
class EhrhartPolynomial:
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
        if not is_int(t):
            raise InputError(f"evaluation point must be an integer, got {t!r}")
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def as_dict(self) -> dict:
        return {"degree": self.degree,
                "coefficients": [str(c) for c in self.coefficients]}


def interpolate_counts(values) -> EhrhartPolynomial:
    """Exact polynomial through (0, values[0]), ..., (m, values[m]).

    Intended for count sequences of lattice polytopes (a single simplex or
    a complex that is itself a polytope), so values[0] must be 1.  Trailing
    zero coefficients are stripped so the degree is the true degree.
    """
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
    return EhrhartPolynomial(tuple(coeffs))


@lru_cache(maxsize=CACHE_SIZE)
def ehrhart_polynomial(s: Simplex) -> EhrhartPolynomial:
    """The counting polynomial of s: interpolated through enumerated counts
    at t = 0..m and verified against enumeration at t = m+1..2m+2.

    Results are kept in an LRU cache of CACHE_SIZE simplices; the
    verification makes each cached polynomial its own cross-check.
    """
    m = s.intrinsic_dim
    values = [1] + [count_simplex(s, t) for t in range(1, m + 1)]
    poly = interpolate_counts(values)
    if poly.degree != m:
        raise IntegrityError(
            f"interpolated degree {poly.degree} != intrinsic dimension {m} for {s.vertices}")
    for t in range(m + 1, 2 * m + 3):
        expect = count_simplex(s, t)
        got = poly.evaluate(t)
        if got != expect:
            raise IntegrityError(
                f"polynomial check failed at t={t}: {got} != {expect} for {s.vertices}")
    return poly


@dataclass(frozen=True)
class HStarVector:
    """Coefficients h_0..h_m of the counting polynomial in the binomial
    basis C(t+m-i, m); always nonnegative integers with h_0 = 1 for lattice
    simplices, summing to the normalized volume in the full-dimensional
    case."""

    entries: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.entries) - 1

    def as_dict(self) -> dict:
        return {"entries": list(self.entries)}


def hstar_vector(poly: EhrhartPolynomial) -> HStarVector:
    """Expand the counting polynomial in the basis C(t+m-i, m), i = 0..m.

    Raises IntegrityError when the polynomial is not integer-valued at
    t = 0..m or when any coefficient comes out negative; both indicate the
    polynomial did not come from a lattice simplex or polytope.
    """
    m = poly.degree
    values = []
    for t in range(m + 1):
        v = poly.evaluate(t)
        if v.denominator != 1:
            raise IntegrityError(f"polynomial is not integer-valued at t={t}: {v}")
        values.append(int(v))
    entries: list[int] = []
    for i in range(m + 1):
        acc = values[i]
        for j in range(i):
            acc -= entries[j] * binomial(i + m - j, m)
        if acc < 0:
            raise IntegrityError(f"negative h* entry h_{i} = {acc}")
        entries.append(acc)
    return HStarVector(tuple(entries))


@dataclass(frozen=True)
class SimplexCongruenceReport:
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

    def as_dict(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices],
                "intrinsic_dim": self.intrinsic_dim,
                "prime": self.prime, "exponent": self.exponent,
                "log_floor": self.log_floor, "modulus": self.modulus,
                "count": self.count, "residue": self.residue,
                "method": self.method, "passed": self.passed}


def verify_simplex_congruence(s: Simplex, p: int, k: int) -> SimplexCongruenceReport:
    """Check |p^k * s ∩ Z^d| ≡ 1 (mod p^(k-l)) with l = floor(log_p m) in
    the intrinsic dimension m of s (l = 0 for points).

    The count comes from enumeration when the dilated bounding box has at
    most SUBCHECK_ENUMERATION_BUDGET points and from the verified counting
    polynomial otherwise.
    """
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p!r}")
    if not is_int(k) or k < 1:
        raise InputError(f"k must be an integer >= 1, got {k!r}")
    m = s.intrinsic_dim
    l = floor_log(p, m) if m >= 1 else 0
    if k <= l:
        raise InputError(f"k must exceed floor(log_{p}({m})) = {l}, got {k}")
    t = p ** k
    if box_points(s, t) <= SUBCHECK_ENUMERATION_BUDGET:
        count = count_simplex(s, t)
        method = "enumeration"
    else:
        value = ehrhart_polynomial(s).evaluate(t)
        if value.denominator != 1:
            raise IntegrityError(f"non-integer count {value} at t={t}")
        count = int(value)
        method = "ehrhart"
    modulus = p ** (k - l)
    residue = count % modulus
    return SimplexCongruenceReport(
        vertices=s.vertices, intrinsic_dim=m, prime=p, exponent=k,
        log_floor=l, modulus=modulus, count=count, residue=residue,
        method=method, passed=residue == 1 % modulus)
