"""The Ehrhart polynomials of lattice simplices and the prime-power
dilation congruence check for a single simplex.

The lattice-point count of t*s is sum h_k C(t+m-k, m) for the h*-vector
h of s (counting.hstar).  The rational polynomial, for display only, is
the same sum expanded in the monomial basis: m! C(t+m-k, m) is an integer
polynomial in t, so the coefficients take one division by m! each.
Enumeration stays the independent check: the per-simplex congruence
enumerates small boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .counting import HStarVector, box_points, count_simplex, hstar
from .errors import InputError, IntegrityError, check_int, is_int, shown
from .geometry import LatticePoint, Simplex
from .numtheory import check_prime, exponent_log_floor
from .report import Report

SUBCHECK_ENUMERATION_BUDGET = 512


@dataclass(frozen=True)
class EhrhartPolynomial(Report):
    """Counting polynomial with exact coefficients, each an int or a
    Fraction, constant term 1, and nonzero leading coefficient (degree
    equals intrinsic dimension for simplices)."""

    coefficients: tuple[Fraction, ...]  # c_0 + c_1 t + ... + c_m t^m

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        for c in coeffs:
            if not (is_int(c) or isinstance(c, Fraction)):
                raise InputError(f"coefficient must be an int or a Fraction, got {shown(c)}")
        coeffs = tuple(map(Fraction, coeffs))
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
