"""Acceptance suite: ten end-to-end criteria, each a single pass/fail line.

Every check here is exact (integer/rational arithmetic); the timed criteria
assert their own wall-clock budgets.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from time import perf_counter

from simplat import (cli, count_complex, count_complex_additive,
                     count_relative_interior, count_simplex,
                     ehrhart_polynomial, floor_log, generate_complex,
                     hstar, kummer_carries, run_fuzz, run_verify,
                     verify_binomial_congruences, verify_simplex_congruence)
from simplat.documents import load_complex

from helpers import (L_SHAPE_DOC, UNIT_SEGMENT_DOC, UNIT_SQUARE_DOC,
                     l_shape_count, normalized_volume, random_simplex,
                     union_count)

# the 5-D configs need n a multiple of 5: the p = 5 term of the plan,
# 5^(alpha + floor(log_5 d)), reaches its log-floor term only from d = 5
SWEEP_CONFIGS = [(dim, grid, n)
                 for dim in (1, 2, 3)
                 for grid in (1, 2)
                 for n in (2, 3, 4, 5, 6, 12)] + [(5, 1, n) for n in (5, 10, 30)]

_SIMPLEX_POOL: list = []


def simplex_pool():
    """100 seeded random simplices shared by criteria 8 and 9."""
    if not _SIMPLEX_POOL:
        rng = random.Random(900)
        while len(_SIMPLEX_POOL) < 100:
            _SIMPLEX_POOL.append(random_simplex(rng, rng.randint(1, 3)))
    return _SIMPLEX_POOL


def test_criterion_01_segment_parity():
    """Unit segment, modulus 2: plan dilation 2, count 3, verdict pass; <1s."""
    start = perf_counter()
    report = run_verify(load_complex(UNIT_SEGMENT_DOC), 2)
    assert report.dilation == 2
    assert report.count == 3
    assert report.verdict == "pass"
    assert perf_counter() - start < 1


def test_criterion_02_polygon_dilation():
    """Square and L-shaped hexomino, modulus 2: dilation 4, pass; <1s.

    The L-shape's count at dilation 4 is pinned to 65 by the independent
    inequality-scan oracle before the library result is trusted.
    """
    start = perf_counter()
    assert l_shape_count(4) == 65

    square = run_verify(load_complex(UNIT_SQUARE_DOC), 2)
    assert square.dilation == 4
    assert (square.count, square.euler) == (25, 1)
    assert square.verdict == "pass"

    l_shape = run_verify(load_complex(L_SHAPE_DOC), 2)
    assert l_shape.dilation == 4
    assert (l_shape.count, l_shape.euler) == (65, 1)
    assert l_shape.count_residue == l_shape.euler_residue == 1
    assert l_shape.verdict == "pass"
    assert perf_counter() - start < 1


def test_criterion_03_random_complex_congruence_sweep():
    """200 random complexes per (dim, grid, modulus) config all verify; <=10min."""
    start = perf_counter()
    for dim, grid, n in SWEEP_CONFIGS:
        summary = run_fuzz(dim, grid, n, trials=200,
                           seed=1000 * dim + 100 * grid + n)
        assert summary.failures == 0, summary.failed
        assert summary.passes == 200
    assert perf_counter() - start <= 600


def test_criterion_04_simplex_prime_power_congruences():
    """count(p^k * face) = 1 mod p^(k-l) for every face the sweep can produce.

    Each fuzz trial keeps a subset of the full grid triangulation's cells,
    and trial 0 of every configuration keeps them all, so the faces of the
    full triangulations of the sweep's (dim, grid) pairs, the 5-D unit cube
    among them, cover every simplex criterion 3 touched, and p runs over
    every prime of the sweep's moduli.
    """
    start = perf_counter()
    seen = {}
    for dim, grid in sorted({(dim, grid) for dim, grid, _ in SWEEP_CONFIGS}):
        c = generate_complex(dim, grid, 1, seed=0)
        for face in c.faces:
            s = c.simplex(tuple(sorted(face)))
            seen[tuple(sorted(s.vertices))] = s
    assert len(seen) > 2163  # the 5-D unit cube alone has 2163 faces
    checked = 0
    for s in seen.values():
        m = s.intrinsic_dim
        for p in (2, 3, 5):
            low = floor_log(p, m) if m >= 1 else 0
            for k in (low + 1, low + 2):
                report = verify_simplex_congruence(s, p, k)
                assert report.modulus == p ** (k - low)
                assert report.passed, (s.vertices, p, k, report)
                checked += 1
    assert checked == 6 * len(seen)
    assert perf_counter() - start <= 300


def test_criterion_05_binomial_congruences():
    """C(p^k + d - i, d) residues for d<=6, p in {2,3,5}, l<k<=l+3; <10s."""
    start = perf_counter()
    worked = verify_binomial_congruences(2, 2, 2)
    assert worked.modulus == 2
    assert [(c.value, c.residue) for c in worked.checks] == [
        (15, 1), (10, 0), (6, 0)]
    for d in range(1, 7):
        for p in (2, 3, 5):
            low = floor_log(p, d)
            for k in range(low + 1, low + 4):
                report = verify_binomial_congruences(d, p, k)
                assert report.passed, (d, p, k, report)
    assert perf_counter() - start < 10


def test_criterion_06_kummer_carry_equivalence():
    """carries(a,b,p) = v_p(C(a+b,a)), exhaustive for a,b <= 200; <30s."""
    start = perf_counter()

    def vp(m: int, p: int) -> int:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    for p in (2, 3, 5):
        for a in range(201):
            for b in range(201):
                assert kummer_carries(a, b, p) == vp(math.comb(a + b, a), p)
    assert perf_counter() - start < 30


def test_criterion_07_counting_methods_cross_check():
    """The line-counted union, the face-interior sum and the point-scan
    union oracle agree on 100 complexes."""
    rng = random.Random(801)
    keeps = (1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
    for trial in range(100):
        dim = rng.randint(1, 3)
        grid = rng.randint(1, 2)
        c = generate_complex(dim, grid, keeps[trial % 4], seed=trial)
        t = rng.randint(1, 12)
        expected = union_count(c, t)
        assert count_complex(c, t) == expected, (trial, t)
        assert count_complex_additive(c, t) == expected, (trial, t)


def test_criterion_08_dilation_polynomial_integrity():
    """Interpolated polynomials match enumeration beyond the fit window."""
    for s in simplex_pool():
        m = s.intrinsic_dim
        poly = ehrhart_polynomial(s)
        assert poly.degree == m
        for t in range(m + 1, 2 * m + 3):
            assert poly.evaluate(t) == count_simplex(s, t), (s.vertices, t)
        entries = hstar(s).entries
        assert entries[0] == 1
        assert all(isinstance(x, int) and x >= 0 for x in entries)
        if m == s.ambient_dim and m >= 1:
            assert sum(entries) == normalized_volume(s), s.vertices


def test_criterion_09_reciprocity():
    """(-1)^m L(-t) equals enumerated relative-interior counts, t = 1..4."""
    for s in simplex_pool():
        m = s.intrinsic_dim
        poly = ehrhart_polynomial(s)
        for t in range(1, 5):
            expected = count_relative_interior(s, t)
            assert (-1) ** m * poly.evaluate(-t) == expected, (s.vertices, t)


def test_criterion_10_fuzz_determinism(capsys):
    """Same fuzz seed twice emits byte-identical JSON reports."""
    argv = ["fuzz", "--dim", "3", "--grid", "2", "--modulus", "12",
            "--trials", "8", "--seed", "20260819"]
    assert cli.main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli.main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["failures"] == 0
