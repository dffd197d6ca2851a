"""Exact integer number theory: factorization, dilation plans, binomials
with negative upper argument, p-adic valuations, base-p carry counts,
binomial congruence checks, and CRT combination.  The prime-power checks
refuse an exponent k <= floor(log_p d) through exponent_log_floor.

Everything is arbitrary-precision int; logarithms are computed by repeated
multiplication, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, isqrt

from .errors import InputError, check_int
from .report import Report

FACTORIZE_BOUND = 10 ** 12


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    check_int(n, "n")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    root = isqrt(n)
    f = 3
    while f <= root:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p) -> int:
    """Return p if it is a prime int; otherwise raise InputError naming p."""
    if not is_prime(check_int(p, "p")):
        raise InputError(f"p must be prime, got {p}")
    return p


def floor_log(base: int, x: int) -> int:
    """Largest e >= 0 with base**e <= x, by exact multiplication."""
    check_int(base, "base", 2)
    check_int(x, "x", 1)
    e = 0
    power = base
    while power <= x:
        e += 1
        power *= base
    return e


def exponent_log_floor(p: int, d: int, k: int) -> int:
    """l = floor(log_p d), with l = 0 for d = 0 (a point simplex), once
    the exponent k of the dilation p^k exceeds it; InputError otherwise."""
    l = floor_log(p, d) if d else 0
    if k <= l:
        raise InputError(f"k must exceed floor(log_{p}({d})) = {l}, got {k}")
    return l


@dataclass(frozen=True)
class Factorization(Report):
    """Prime factorization as ((p, exponent), ...) with ascending primes."""

    factors: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        n = 1
        for p, a in self.factors:
            n *= p ** a
        return n

    def _form(self) -> dict:
        return {**super()._form(), "value": self.value}


def factorize(n: int) -> Factorization:
    """Trial-division factorization of n (2 <= n <= 10^12)."""
    check_int(n, "n", 2)
    if n > FACTORIZE_BOUND:
        raise InputError(f"n exceeds the supported bound {FACTORIZE_BOUND}")
    factors = []
    rest = n
    a = 0
    while rest % 2 == 0:
        rest //= 2
        a += 1
    if a:
        factors.append((2, a))
    f = 3
    while f * f <= rest:
        if rest % f == 0:
            a = 0
            while rest % f == 0:
                rest //= f
                a += 1
            factors.append((f, a))
        f += 2
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(tuple(factors))


@dataclass(frozen=True)
class PrimeTerm(Report):
    """Per-prime ingredients of a dilation plan."""

    prime: int
    modulus_exponent: int   # exponent of this prime in the target modulus
    log_floor: int          # floor(log_prime(dim))
    dilation_exponent: int  # modulus_exponent + log_floor


@dataclass(frozen=True)
class DilationPlan(Report):
    """The dilation factor guaranteeing count ≡ χ (mod modulus) in Z^dim:
    t = prod(p ** (a_p + floor(log_p dim))) over the primes p^a_p of the
    modulus."""

    dim: int
    modulus: int
    terms: tuple[PrimeTerm, ...]
    dilation: int


def dilation_plan(dim: int, modulus: int) -> DilationPlan:
    """Build the per-prime dilation plan for a given ambient dimension and
    target modulus.  Both are checked before the plan cache is read: True
    and 2.0 hash as 1 and 2 do, so a cached plan would answer them."""
    check_int(dim, "dim", 1)
    if check_int(modulus, "modulus", 2) > FACTORIZE_BOUND:
        raise InputError(f"modulus exceeds the supported bound {FACTORIZE_BOUND}")
    return _plan(dim, modulus)


# a sweep asks for one plan per trial, and a run for a few (dim, modulus)
# pairs; typed, so an int subclass gets a plan that holds its own values
@lru_cache(maxsize=256, typed=True)
def _plan(dim: int, modulus: int) -> DilationPlan:
    """dilation_plan for checked arguments."""
    fact = factorize(modulus)
    terms = []
    t = 1
    for p, a in fact.factors:
        l = floor_log(p, dim)
        beta = a + l
        terms.append(PrimeTerm(prime=p, modulus_exponent=a,
                               log_floor=l, dilation_exponent=beta))
        t *= p ** beta
    return DilationPlan(dim=dim, modulus=modulus, terms=tuple(terms), dilation=t)


def binomial(a: int, b: int) -> int:
    """C(a, b) for any integer a and b >= 0, via the falling factorial
    a(a-1)...(a-b+1)/b! (reflection identity for negative a)."""
    check_int(a, "a")
    check_int(b, "b", 0)
    if a >= 0:
        return comb(a, b)
    return (-1) ** b * comb(b - a - 1, b)


def padic_valuation(m: int, p: int) -> int:
    """Exponent of the prime p in m (m != 0)."""
    check_int(m, "m")
    check_prime(p)
    if m == 0:
        raise InputError("p-adic valuation of 0 is undefined")
    m = abs(m)
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def kummer_carries(a: int, b: int, p: int) -> int:
    """Number of carries when adding a and b in base p; equals the p-adic
    valuation of C(a+b, a)."""
    check_int(a, "a", 0)
    check_int(b, "b", 0)
    check_prime(p)
    carries = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def congruence_shift_check(m: int, p: int, k: int, d: int) -> bool:
    """Whether (m + p^k)/p^v ≡ m/p^v (mod p^(k-l)) where v is the p-adic
    valuation of m and l = floor(log_p d); requires 1 <= m <= d and k > l."""
    check_int(m, "m")
    check_prime(p)
    check_int(k, "k")
    check_int(d, "d")
    if not 1 <= m <= d:
        raise InputError(f"m must satisfy 1 <= m <= d, got m={m}, d={d}")
    l = exponent_log_floor(p, d, k)
    v = padic_valuation(m, p)
    scale = p ** v
    lhs = (m + p ** k) // scale
    rhs = m // scale
    return (lhs - rhs) % p ** (k - l) == 0


@dataclass(frozen=True)
class CongruenceCheck(Report):
    offset: int      # i in C(t + d - i, d)
    upper: int       # t + d - i
    value: int
    residue: int
    expected: int
    passed: bool


@dataclass(frozen=True)
class BinomialCongruenceReport(Report):
    """C(t+d, d) ≡ 1 and C(t+d-i, d) ≡ 0 (mod p^(k-l)) for t = p^k,
    i = 1..d, l = floor(log_p d)."""

    d: int
    p: int
    k: int
    log_floor: int
    modulus: int
    checks: tuple[CongruenceCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def _form(self) -> dict:
        return {**super()._form(), "passed": self.passed}


def verify_binomial_congruences(d: int, p: int, k: int) -> BinomialCongruenceReport:
    """Check the binomial congruences behind the dilation plan for one prime
    power: each check compares C(p^k + d - i, d) mod p^(k-l) against 1 for
    i=0 and 0 for i=1..d."""
    check_int(d, "d", 1)
    check_prime(p)
    check_int(k, "k")
    l = exponent_log_floor(p, d, k)
    t = p ** k
    modulus = p ** (k - l)
    checks = []
    for i in range(d + 1):
        value = binomial(t + d - i, d)
        residue = value % modulus
        expected = 1 if i == 0 else 0
        checks.append(CongruenceCheck(offset=i, upper=t + d - i, value=value,
                                      residue=residue, expected=expected,
                                      passed=residue == expected))
    return BinomialCongruenceReport(d=d, p=p, k=k, log_floor=l,
                                    modulus=modulus, checks=tuple(checks))


def crt_combine(residues) -> tuple[int, int]:
    """Combine ((r_i, m_i), ...) with pairwise coprime moduli into the
    unique (r, prod m_i) with r ≡ r_i (mod m_i) for every i."""
    pairs = list(residues)
    if not pairs:
        raise InputError("need at least one (residue, modulus) pair")
    r_acc, m_acc = 0, 1
    for r, m in pairs:
        check_int(r, "residue")
        check_int(m, "modulus", 1)
        if not 0 <= r < m:
            raise InputError(f"residue {r} out of range for modulus {m}")
        if gcd(m_acc, m) != 1:
            raise InputError(f"moduli are not pairwise coprime: gcd({m_acc}, {m}) > 1")
        if m > 1:
            inv = pow(m_acc % m, -1, m)
            step = (r - r_acc) % m
            r_acc = r_acc + m_acc * ((step * inv) % m)
        m_acc *= m
    return r_acc % m_acc, m_acc
