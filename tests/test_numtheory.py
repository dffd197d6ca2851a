"""Number theory: factorization, dilation plans, binomial congruences, CRT."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplat import (binomial, congruence_shift_check, crt_combine,
                     dilation_plan, factorize, floor_log, is_prime,
                     kummer_carries, padic_valuation,
                     verify_binomial_congruences)
from simplat.ehrhart import verify_simplex_congruence
from simplat.errors import InputError
from simplat.geometry import Simplex
from simplat.numtheory import _plan

PRIMES = st.sampled_from((2, 3, 5, 7, 11, 13))


class TestPrimitives:
    def test_is_prime_table(self):
        primes = [n for n in range(2, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                          47, 53, 59]
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(10**9 + 7)

    def test_floor_log(self):
        assert floor_log(2, 1) == 0
        assert floor_log(2, 8) == 3
        assert floor_log(3, 8) == 1
        assert floor_log(10, 999) == 2
        assert floor_log(10, 1000) == 3

    def test_floor_log_rejects(self):
        with pytest.raises(InputError):
            floor_log(1, 5)
        with pytest.raises(InputError):
            floor_log(2, 0)

    @given(st.integers(2, 50), st.integers(1, 10**12))
    def test_floor_log_brackets(self, base, x):
        e = floor_log(base, x)
        assert base**e <= x < base**(e + 1)

    def test_padic_valuation(self):
        assert padic_valuation(12, 2) == 2
        assert padic_valuation(12, 3) == 1
        assert padic_valuation(12, 5) == 0
        assert padic_valuation(-8, 2) == 3

    def test_padic_valuation_rejects_zero(self):
        with pytest.raises(InputError):
            padic_valuation(0, 2)

    @given(st.integers(-10**6, 10**6).filter(bool), PRIMES)
    def test_valuation_divides_exactly(self, m, p):
        v = padic_valuation(m, p)
        assert m % p**v == 0
        assert m % p**(v + 1) != 0


class TestFactorize:
    def test_examples(self):
        assert factorize(12).factors == ((2, 2), (3, 1))
        assert factorize(997).factors == ((997, 1),)
        assert factorize(2**39).factors == ((2, 39),)
        assert factorize(2 * 3 * 5 * 7 * 11).factors == (
            (2, 1), (3, 1), (5, 1), (7, 1), (11, 1))

    def test_rejects_out_of_range(self):
        for bad in (1, 0, -6, 10**12 + 1):
            with pytest.raises(InputError):
                factorize(bad)

    @given(st.integers(2, 10**6))
    @settings(max_examples=60)
    def test_roundtrip(self, n):
        f = factorize(n)
        assert f.value == n
        assert math.prod(p**a for p, a in f.factors) == n
        for p, a in f.factors:
            assert is_prime(p)
            assert a >= 1


class TestBinomial:
    def test_negative_upper_index(self):
        assert binomial(-1, 2) == 1
        assert binomial(-1, 3) == -1
        assert binomial(-4, 2) == 10

    def test_ordinary_values(self):
        assert binomial(5, 2) == 10
        assert binomial(2, 5) == 0
        assert binomial(7, 0) == 1
        assert binomial(0, 0) == 1

    @given(st.integers(-30, 30), st.integers(0, 12))
    def test_falling_factorial_oracle(self, a, b):
        expected = math.prod(a - i for i in range(b)) // math.factorial(b)
        assert binomial(a, b) == expected

    @given(st.integers(-30, 30), st.integers(1, 12))
    def test_pascal_recurrence(self, a, b):
        assert binomial(a, b) == binomial(a - 1, b) + binomial(a - 1, b - 1)


class TestKummer:
    def test_base_two_example(self):
        # 10 + 11 in base 2 carries once; v2(C(5,2)) = v2(10) = 1
        assert kummer_carries(2, 3, 2) == 1

    def test_no_carries(self):
        assert kummer_carries(1, 2, 2) == 0
        assert kummer_carries(4, 3, 2) == 0

    @given(st.integers(0, 400), st.integers(0, 400), PRIMES)
    def test_equals_valuation_of_binomial(self, a, b, p):
        assert kummer_carries(a, b, p) == padic_valuation(math.comb(a + b, a), p)

    @given(st.integers(0, 300), st.integers(0, 300), PRIMES)
    def test_carry_count_via_digit_addition(self, a, b, p):
        carries = 0
        carry = 0
        x, y = a, b
        while x or y or carry:
            s = x % p + y % p + carry
            carry = 1 if s >= p else 0
            carries += carry
            x //= p
            y //= p
        assert kummer_carries(a, b, p) == carries


class TestDilationPlan:
    def test_paper_style_examples(self):
        assert dilation_plan(1, 2).dilation == 2
        assert dilation_plan(2, 2).dilation == 4
        assert dilation_plan(2, 6).dilation == 12
        assert dilation_plan(4, 5).dilation == 5

    def test_three_dimensional_twelve(self):
        plan = dilation_plan(3, 12)
        assert plan.dilation == 72
        assert [(t.prime, t.modulus_exponent, t.log_floor, t.dilation_exponent)
                for t in plan.terms] == [(2, 2, 1, 3), (3, 1, 1, 2)]

    def test_exponent_rule(self):
        # beta = alpha + floor(log_p(dim)), multiplied across prime powers
        for dim in range(1, 5):
            for n in (2, 3, 4, 5, 6, 12, 60):
                plan = dilation_plan(dim, n)
                expected = 1
                for term in plan.terms:
                    assert term.log_floor == floor_log(term.prime, dim)
                    assert term.dilation_exponent == (term.modulus_exponent
                                                      + term.log_floor)
                    expected *= term.prime**term.dilation_exponent
                assert plan.dilation == expected

    def test_plan_as_dict_roundtrips_integers(self):
        d = dilation_plan(2, 6).as_dict()
        assert d["dilation"] == 12
        assert d["modulus"] == 6

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            dilation_plan(0, 2)
        with pytest.raises(InputError):
            dilation_plan(2, 1)

    @pytest.mark.parametrize("dim, modulus, name", [
        (True, 6, "dim"), (1.0, 6, "dim"), (2.0, 6, "dim"),
        (3, True, "modulus"), (3, 2.0, "modulus"), (3, 6.0, "modulus")])
    def test_bad_arguments_after_good_ones(self, dim, modulus, name):
        # the plans of 1, 2 and 3 with 2 and 6 are cached first; True and
        # 2.0 hash as 1 and 2 do, so they must be refused before the cache
        # is read
        for good in ((1, 6), (2, 6), (3, 2), (3, 6)):
            assert dilation_plan(*good).dilation == _plan(*good).dilation
        with pytest.raises(InputError, match=rf"^{name} must be an integer"):
            dilation_plan(dim, modulus)

    def test_plans_are_cached_by_dim_and_modulus(self):
        _plan.cache_clear()
        first = dilation_plan(3, 60)
        assert dilation_plan(3, 60) is first
        assert dilation_plan(2, 60) is not first
        assert _plan.cache_info().misses == 2


class TestShiftCongruence:
    def test_reference_case(self):
        assert congruence_shift_check(1, 2, 2, 2)
        assert congruence_shift_check(2, 2, 2, 2)

    def test_direct_computation_agrees(self):
        for p in (2, 3, 5):
            for d in range(1, 8):
                l = floor_log(p, d)
                for k in range(l + 1, l + 4):
                    for m in range(1, d + 1):
                        v = padic_valuation(m, p)
                        lhs = (m + p**k) // p**v
                        rhs = m // p**v
                        direct = (lhs - rhs) % p**(k - l) == 0
                        assert congruence_shift_check(m, p, k, d) == direct
                        assert direct  # the statement itself holds

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            congruence_shift_check(3, 2, 3, 2)  # m > d
        with pytest.raises(InputError):
            congruence_shift_check(1, 2, 1, 2)  # k <= floor(log_2(2))


# the three entry points that need k > l = floor(log_p d), each with
# (p, d, k) in the message; the tetrahedron has intrinsic dimension 3
EXPONENT_CHECKS = {
    "congruence_shift_check": (lambda k: congruence_shift_check(1, 2, k, 2), 2, 2),
    "verify_binomial_congruences": (lambda k: verify_binomial_congruences(4, 2, k), 2, 4),
    "verify_simplex_congruence": (lambda k: verify_simplex_congruence(
        Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))), 3, k), 3, 3),
}


@pytest.mark.parametrize("entry", EXPONENT_CHECKS)
def test_exponent_must_exceed_log_floor(entry):
    call, p, d = EXPONENT_CHECKS[entry]
    l = floor_log(p, d)
    for k in range(1, l + 1):
        with pytest.raises(InputError, match=re.escape(
                f"k must exceed floor(log_{p}({d})) = {l}, got {k}")):
            call(k)
    call(l + 1)


class TestBinomialCongruences:
    def test_d2_p2_k2(self):
        report = verify_binomial_congruences(2, 2, 2)
        assert report.modulus == 2
        assert [(c.value, c.residue, c.expected, c.passed)
                for c in report.checks] == [
            (15, 1, 1, True), (10, 0, 0, True), (6, 0, 0, True)]
        assert report.passed

    def test_holds_over_small_grid(self):
        for p in (2, 3, 5):
            for d in range(1, 7):
                l = floor_log(p, d)
                for k in range(l + 1, l + 4):
                    assert verify_binomial_congruences(d, p, k).passed

    def test_check_values_match_binomials(self):
        report = verify_binomial_congruences(3, 2, 3)
        for check in report.checks:
            assert check.value == math.comb(check.upper, 3)
            assert check.residue == check.value % report.modulus


class TestCrt:
    def test_pair(self):
        assert crt_combine([(2, 3), (3, 5)]) == (8, 15)

    def test_single(self):
        assert crt_combine([(2, 5)]) == (2, 5)

    def test_rejects_unreduced_residue(self):
        with pytest.raises(InputError):
            crt_combine([(7, 5)])

    def test_rejects_non_coprime(self):
        with pytest.raises(InputError):
            crt_combine([(1, 4), (1, 6)])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            crt_combine([])

    @given(st.integers(0, 10**6),
           st.permutations((3, 4, 5, 7, 11)))
    @settings(max_examples=40)
    def test_recovers_value(self, x, moduli):
        residues = [(x % m, m) for m in moduli]
        value, modulus = crt_combine(residues)
        assert modulus == math.prod(moduli)
        assert value == x % modulus
