"""End-to-end congruence verification, fuzzing, and dilation probes."""

from __future__ import annotations

import dataclasses
import io
import json
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplat import (Simplex, SimplicialComplex, VerificationReport, cli,
                     close_under_faces, complex_to_document, count_complex,
                     count_complex_additive, counting, generate_complex, geometry,
                     probe_dilations, run_fuzz, run_verify, verify)
from simplat.documents import load_complex
from simplat.counting import _class_hstar
from simplat.ehrhart import SimplexCongruenceReport, verify_simplex_congruence
from simplat.errors import InputError, ResourceLimitError
from simplat.numtheory import dilation_plan
from simplat.report import to_json
from simplat.verify import FuzzFailure

from helpers import (HOLLOW_TRIANGLE_DOC, L_SHAPE_DOC, UNIT_SQUARE_DOC,
                     facewise_subchecks, frozenset_closure, l_shape_count,
                     mixed_complexes, moved_complex, moved_generated_complexes)


class TestRunVerify:
    def test_square_mod_two(self):
        r = run_verify(load_complex(UNIT_SQUARE_DOC), 2)
        assert r.dilation == 4
        assert (r.count, r.euler) == (25, 1)
        assert (r.count_residue, r.euler_residue) == (1, 1)
        assert r.verdict == "pass"
        assert r.passed and r.all_passed
        assert r.method == "enumeration"

    def test_square_mod_six_subchecks(self):
        r = run_verify(load_complex(UNIT_SQUARE_DOC), 6)
        assert r.dilation == 12
        assert r.count == 13 * 13
        # one congruence subcheck per maximal face per prime term
        assert len(r.subchecks) == 2 * 2
        assert all(s.passed for s in r.subchecks)
        assert {s.prime for s in r.subchecks} == {2, 3}

    def test_l_shape_mod_six(self):
        r = run_verify(load_complex(L_SHAPE_DOC), 6)
        assert r.dilation == 12
        assert r.count == l_shape_count(12)
        assert r.passed

    def test_hollow_triangle_even_euler(self):
        r = run_verify(load_complex(HOLLOW_TRIANGLE_DOC), 2)
        assert r.euler == 0
        assert r.count == 12
        assert (r.count_residue, r.euler_residue) == (0, 0)
        assert r.passed

    def test_empty_complex(self):
        c = close_under_faces([], [], ambient_dim=2)
        r = run_verify(c, 5)
        assert (r.count, r.euler) == (0, 0)
        assert r.method == "enumeration"
        assert r.passed

    def test_large_dilation_switches_to_additive(self):
        c = generate_complex(3, 2, 1, seed=0)
        r = run_verify(c, 12)
        assert r.dilation == 72
        assert r.method == "additive"
        # independent check: the full triangulation tiles [0, 2]^3
        assert r.count == (2 * 72 + 1) ** 3
        assert r.passed and r.all_passed

    def test_methods_agree_when_forced(self):
        c = load_complex(L_SHAPE_DOC)
        small = run_verify(c, 4)
        large = run_verify(c, 60)
        assert (small.dilation, small.method) == (8, "enumeration")
        assert (large.dilation, large.method) == (120, "additive")
        assert small.count == l_shape_count(8)
        assert large.count == l_shape_count(120)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_unimodular_map_and_translation_change_nothing(self, data):
        dim = data.draw(st.integers(2, 3))
        c = generate_complex(dim, data.draw(st.integers(1, 2)),
                             data.draw(st.sampled_from((1, Fraction(1, 2)))),
                             data.draw(st.integers(0, 2**16)))
        # a unit lower-triangular matrix with entries in {-1, 0, 1}, its rows
        # permuted and signed, is in GL_d(Z)
        unit = st.sampled_from((-1, 0, 1))
        lower = [[1 if j == i else data.draw(unit) if j < i else 0
                  for j in range(dim)] for i in range(dim)]
        order = data.draw(st.permutations(range(dim)))
        signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=dim, max_size=dim))
        shift = data.draw(st.lists(st.integers(-50, 50), min_size=dim, max_size=dim))
        matrix = [[signs[i] * x for x in lower[order[i]]] for i in range(dim)]
        moved = close_under_faces(
            c.maximal_faces,
            [tuple(sum(a * x for a, x in zip(row, v)) + b
                   for row, b in zip(matrix, shift)) for v in c.vertices],
            ambient_dim=dim)
        for n in (2, 3, 4, 6):
            before, after = run_verify(c, n), run_verify(moved, n)
            assert ((after.count, after.euler, after.verdict)
                    == (before.count, before.euler, before.verdict))
            assert ([r.count for r in after.subchecks]
                    == [r.count for r in before.subchecks])

    def test_subchecks_match_one_per_face(self):
        # run_verify checks one face of each translation class; every
        # report must equal the one its own face gives, vertices included
        methods = set()
        for dim, grid, seed, shift in ((2, 6, 1, (10**6, -10**6)),
                                       (2, 4, 2, (0, 0)),
                                       (3, 2, 3, (-10**6, 10**6, 10**6 - 5)),
                                       (3, 1, 4, (0, 0, 0))):
            c = moved_complex(generate_complex(dim, grid, 1, seed=0),
                              random.Random(seed), shift)
            for n in (6, 30, 60):
                plan = dilation_plan(dim, n)
                want = [verify_simplex_congruence(c.simplex(f), p.prime,
                                                  p.dilation_exponent)
                        for f in c.maximal_faces for p in plan.terms]
                got = run_verify(c, n).subchecks
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a == b
                methods.update(r.method for r in got)
        assert methods == {"enumeration", "ehrhart"}

    def test_moved_grid_builds_one_simplex_per_class(self):
        # construction builds and certifies the canonical translates of the
        # 2 triangle shapes of the whole grid-5; both are unimodular, so the
        # additive count reads the f-vector and certifies nothing more (no
        # lower face is keyed, no h* read), and the sub-checks, all
        # enumerated at n = 60, reuse the triangles' certificates
        base = generate_complex(2, 5, 1, seed=0)
        for seed, shift in ((1, (10**6, -10**6)), (3, (10**6 + 3, 10**6))):
            geometry._certificate.cache_clear()
            geometry.canonical_simplex.cache_clear()
            _class_hstar.cache_clear()
            verify._class_subcheck.cache_clear()
            c = moved_complex(base, random.Random(seed), shift)
            assert geometry._certificate.cache_info().misses == 2
            assert geometry.canonical_simplex.cache_info().misses == 2
            r = run_verify(c, 60)
            assert (r.count, r.method, len(r.subchecks)) == (601 ** 2, "additive", 150)
            assert geometry._certificate.cache_info().misses == 2
            assert geometry.canonical_simplex.cache_info().misses == 2
            assert verify._class_subcheck.cache_info().misses == 2 * 3
            # a copy under the same map with another shift has the same
            # keys and lattice classes: nothing of it is built or certified
            # again, and its sub-checks are all read from the cache
            copy = moved_complex(base, random.Random(seed), (-shift[1], shift[0] + 7))
            assert geometry._certificate.cache_info().misses == 2
            assert geometry.canonical_simplex.cache_info().misses == 2
            r = run_verify(copy, 60)
            assert (r.count, r.method, len(r.subchecks)) == (601 ** 2, "additive", 150)
            assert geometry._certificate.cache_info().misses == 2
            assert geometry.canonical_simplex.cache_info().misses == 2
            assert verify._class_subcheck.cache_info().misses == 2 * 3

    @pytest.mark.parametrize("dim, grid, n", [(2, 4, 60), (3, 1, 30), (2, 2, 6)])
    def test_subchecks_shared_across_complexes(self, dim, grid, n):
        # copies moved differently share the sub-check cache; every report
        # must still equal the one its own face gives, vertices included,
        # whether the cache starts empty or holds the other copies' classes
        base = generate_complex(dim, grid, 1, seed=0)
        copies = [moved_complex(base, random.Random(seed), shift)
                  for seed, shift in ((1, (10**6,) * dim), (1, (-10**6 + 5,) * dim),
                                      (2, (3,) * dim))]
        plan = dilation_plan(dim, n)
        wants = [tuple(verify_simplex_congruence(c.simplex(f), p.prime,
                                                 p.dilation_exponent)
                       for f in c.maximal_faces for p in plan.terms)
                 for c in copies]
        verify._class_subcheck.cache_clear()
        for _ in range(2):  # cold, then warm
            for c, want in zip(copies, wants):
                assert run_verify(c, n).subchecks == want
        info = verify._class_subcheck.cache_info()
        assert info.hits > info.misses

    def test_improper_complex_can_fail(self):
        # segments [0,2] and [1,3] overlap but share no face, so the
        # count/Euler congruence has no reason to hold: 7 vs 2 mod 2
        bad = close_under_faces([[0, 1], [2, 3]], [(0,), (2,), (1,), (3,)])
        r = run_verify(bad, 2)
        assert (r.count, r.euler) == (7, 2)
        assert r.verdict == "fail"
        assert not r.passed and not r.all_passed

    def test_rejects_bad_modulus(self):
        c = load_complex(UNIT_SQUARE_DOC)
        for bad in (1, 0, -2):
            with pytest.raises(InputError):
                run_verify(c, bad)

    def test_report_dict_is_json_ready(self):
        d = run_verify(load_complex(UNIT_SQUARE_DOC), 2).as_dict()
        assert d["verdict"] == "pass"
        assert d["count"] == 25
        assert d["plan"]["dilation"] == 4
        assert isinstance(d["subchecks"], list)


def direct_complex(maximal, vertices):
    """A SimplicialComplex built from the maximal sets without
    close_under_faces: the constructor checks, closes and certifies them
    as it does any face set."""
    return SimplicialComplex(2, tuple(vertices), frozenset(map(frozenset, maximal)))


class TestErrorPaths:
    """Errors from a directly constructed complex: a bad index at
    construction, a class over the volume budget on the additive count
    and on run_verify."""

    # two unit triangles far apart: translates of each other
    VERTICES = ((0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6))

    @pytest.mark.parametrize("extra", [((0, 7), (3, 9)), ((0, -1),),
                                       ((-1, 2), (4, 8)), ((1, 6, -2),)])
    def test_index_out_of_range(self, extra):
        # -1 would silently wrap to the last vertex under plain indexing
        with pytest.raises(InputError, match="out of range in face") as info:
            direct_complex(((0, 1, 2), (3, 4, 5)) + extra, self.VERTICES)
        index, face = re.fullmatch(r"vertex index (-?\d+) out of range in face (\[.*\])",
                                   str(info.value)).groups()
        assert frozenset(json.loads(face)) in map(frozenset, extra)
        assert int(index) in json.loads(face)
        assert not 0 <= int(index) < len(self.VERTICES)

    def test_class_over_the_volume_budget(self):
        # normalized volumes 16e6 and 25e6, the second class twice
        vertices = ((0, 0), (4000, 0), (0, 4000),
                    (10000, 0), (15000, 0), (10000, 5000),
                    (20000, 0), (25000, 0), (20000, 5000))
        c = direct_complex(((0, 1, 2), (3, 4, 5), (6, 7, 8)), vertices)
        first = next(f for f in c.faces if len(f) == 3)
        volume = 16_000_000 if 0 in first else 25_000_000
        want = f"normalized volume {volume} of lattice class"
        for _ in range(2):  # an error is not cached
            with pytest.raises(ResourceLimitError, match=want):
                count_complex_additive(c, 5)
            with pytest.raises(ResourceLimitError, match=want):
                run_verify(c, 2)

    def test_subcheck_errors_are_not_cached(self):
        # a sub-check past its box budget reads h*, whose class is over the
        # volume budget; the second call must raise again
        s = Simplex(((0, 0), (4000, 0), (0, 4000)))
        verify._class_subcheck.cache_clear()
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="normalized volume 16000000"):
                verify._class_subcheck(s, 2, 2)
        assert verify._class_subcheck.cache_info().currsize == 0


class TestFuzz:
    def test_deterministic(self):
        a = run_fuzz(2, 2, 6, trials=6, seed=11)
        b = run_fuzz(2, 2, 6, trials=6, seed=11)
        assert a == b

    def test_seed_changes_outcomes(self):
        a = run_fuzz(2, 2, 6, trials=6, seed=1)
        b = run_fuzz(2, 2, 6, trials=6, seed=2)
        assert a != b or a.passes == b.passes  # complexes differ; summary may tie

    def test_all_trials_pass(self):
        s = run_fuzz(3, 1, 12, trials=10, seed=7)
        assert (s.trials, s.passes, s.failures) == (10, 10, 0)
        assert s.failed == ()
        assert s.dilation == 72

    def test_summary_dict(self):
        d = run_fuzz(1, 2, 2, trials=3, seed=0).as_dict()
        assert d["passes"] == 3
        assert d["failed"] == []

    def test_rejects_bad_trials(self):
        with pytest.raises(InputError):
            run_fuzz(2, 1, 2, trials=0, seed=0)


class TestFiveAndSixDimensions:
    """The whole 5-D and 6-D unit cubes, where floor(log_5 d) = 1 adds a
    term to the plan's power of 5: the count is checked against the
    whole-grid oracle (g*t + 1)^d.  Generated grids are valid by
    construction, so no 6-D grid is validated."""

    @pytest.mark.parametrize("dim, n, t", [(5, 5, 25), (5, 30, 1800),
                                           (6, 5, 25), (6, 30, 1800)])
    def test_whole_unit_cube(self, dim, n, t):
        r = run_verify(generate_complex(dim, 1, 1, seed=0), n)
        # 5^(1 + floor(log_5 d)) = 25 divides the plan
        assert {term.prime: term.dilation_exponent for term in r.plan.terms}[5] == 2
        assert (r.dilation, r.count) == (t, (t + 1) ** dim)
        assert r.all_passed
        assert r.subcheck_tally() == (0, factorial(dim) * len(r.plan.terms))

    @pytest.mark.parametrize("dim, n", [(5, 5), (5, 30), (6, 5), (6, 30)])
    def test_fuzz(self, dim, n):
        s = run_fuzz(dim, 1, n, trials=4, seed=0)
        assert s.passed and s.passes == 4
        assert s.dilation == dilation_plan(dim, n).dilation


class TestFacesAreNotBuilt:
    """Verification, counting and probing read the closure's index tuples,
    never faces, so a complex they run on never builds its frozenset form;
    read afterwards, it is still the closure."""

    @staticmethod
    def assert_unbuilt(c):
        assert "faces" not in vars(c)
        assert c.faces == frozenset_closure(c.vertices, c.maximal_faces)[0]

    def test_moved_whole_grid_at_n_60(self):
        c = moved_complex(generate_complex(2, 5, 1, seed=0), random.Random(3),
                          (10**6, -10**6))
        r = run_verify(c, 60)
        assert (r.method, r.count) == ("additive", 601**2) and r.all_passed
        self.assert_unbuilt(c)

    def test_fuzz_trials(self, monkeypatch):
        built = []

        def generate(*args):
            built.append(generate_complex(*args))
            return built[-1]

        monkeypatch.setattr(verify, "generate_complex", generate)
        assert run_fuzz(2, 2, 6, trials=4, seed=1).passed  # enumeration
        assert run_fuzz(3, 1, 6, trials=2, seed=1).passed  # additive
        assert len(built) == 6
        for c in built:
            self.assert_unbuilt(c)

    def test_census_and_probe_of_a_mixed_complex(self):
        # a triangle of normalized volume 5 beside a unimodular one: the
        # census keys the faces of dimension >= 1 of the first triangle
        c = close_under_faces([[0, 1, 2], [0, 2, 3]], [(0, 0), (3, 1), (1, 2), (0, 1)])
        r = run_verify(c, 60)
        assert (r.method, r.count) == ("additive", 3 * 120**2 + 2 * 120 + 1)
        assert [row.count for row in probe_dilations(c, 6, 3).rows] == [6, 17, 34]
        self.assert_unbuilt(c)


class TestProbe:
    def test_square_mod_two(self):
        report = probe_dilations(load_complex(UNIT_SQUARE_DOC), 2, 4)
        rows = [(r.dilation, r.count, r.congruent) for r in report.rows]
        assert rows == [(1, 4, False), (2, 9, True), (3, 16, False), (4, 25, True)]
        assert report.planned_dilation == 4
        assert report.euler == 1

    def test_planned_dilation_always_matches(self):
        c = load_complex(L_SHAPE_DOC)
        for n in (2, 3, 4, 6):
            report = probe_dilations(c, n, probe_dilations(c, n, 1).planned_dilation)
            assert report.rows[-1].dilation == report.planned_dilation
            assert report.rows[-1].congruent

    def test_counts_additively_past_the_budget(self):
        # enumerating the whole [0,2]^3 grid at t = 60 would scan over 10^7
        # box points; the additive count answers in O(1) per class
        c = generate_complex(3, 2, 1, 0)
        report = probe_dilations(c, 6, 60)
        assert [(r.dilation, r.count) for r in report.rows] == [
            (t, (2 * t + 1) ** 3) for t in range(1, 61)]

    def test_one_method_for_every_row(self):
        # an improper complex, where the additive count counts the overlap
        # of the two triangles twice: every row is read off the census, so
        # every row is count_complex_additive, at t_max 3 as at 60, though
        # the box estimate passes the enumeration budget only from t = 58 on
        c = close_under_faces([[0, 1, 2], [0, 1, 3]], [(0, 0), (2, 0), (0, 2), (1, 1)])
        additive = [count_complex_additive(c, t) for t in range(1, 61)]
        assert additive[:3] == [7, 19, 37]
        assert [r.count for r in probe_dilations(c, 6, 60).rows] == additive
        assert [r.count for r in probe_dilations(c, 6, 3).rows] == additive[:3]

    def test_additive_rows_read_one_census(self, monkeypatch):
        # a moved whole 3-D grid-2 past the budget: the census is taken
        # once, and every row equals the additive count at its dilation
        c = moved_complex(generate_complex(3, 2, 1, 0), random.Random(4),
                          (10**6, -10**6, 7))
        taken = []

        def census(complex_):
            taken.append(complex_)
            return counting.census(complex_)

        monkeypatch.setattr(verify, "census", census)
        report = probe_dilations(c, 6, 60)
        assert taken == [c]
        assert [r.count for r in report.rows] == [
            count_complex_additive(c, t) for t in range(1, 61)]

    def test_rejects_bad_tmax(self):
        with pytest.raises(InputError):
            probe_dilations(load_complex(UNIT_SQUARE_DOC), 2, 0)

    @given(st.one_of(mixed_complexes(), moved_generated_complexes()),
           st.sampled_from((2, 6, 30)), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_rows_do_not_depend_on_tmax(self, c, n, t_max, k):
        # a row is the same whatever table it is in, and the first rows
        # match enumeration, the independent oracle
        k = min(k, t_max)
        rows = probe_dilations(c, n, t_max).rows
        assert rows[:k] == probe_dilations(c, n, k).rows
        assert [r.count for r in rows[:3]] == [count_complex(c, t)
                                               for t in range(1, min(t_max, 3) + 1)]


class TestProbeEnvelope:
    """probe_dilations refuses, before counting, a table of more than
    PROBE_ROW_LIMIT rows; below the cap, every row is read off one census,
    so the number of faces does not bound the table."""

    def refused_quickly(self, c, t_max, match):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=match):
            probe_dilations(c, 6, t_max)
        assert time.perf_counter() - start < 1

    def test_just_past_the_row_cap(self):
        assert verify.PROBE_ROW_LIMIT == 10**5
        square = load_complex(UNIT_SQUARE_DOC)
        self.refused_quickly(square, 10**5 + 1, "over the cap of 100000")
        self.refused_quickly(square, 10**11, "over the cap of 100000")

    def test_just_past_the_face_budget(self):
        # 34130 rows x 293 faces = 10,000,090 face counts, over the box
        # budget, but the rows read the census once and do not pass over
        # the faces, so the table is served
        c = generate_complex(3, 2, 1, 0)
        assert len(c.faces) == 293 and 34129 * 293 <= 10**7 < 34130 * 293
        rows = probe_dilations(c, 6, 34130).rows
        assert len(rows) == 34130
        for t in (1, 2, 7, 360, 34129, 34130):
            assert rows[t - 1].dilation == t and rows[t - 1].count == (2 * t + 1) ** 3

    def test_enumeration_just_past_the_face_budget(self, tmp_path):
        # 10,001 isolated vertices: the estimate at t = 1000 is 10,001 box
        # points, within the enumeration budget, and 1000 rows x 10,001
        # faces is over 10^7 face counts, but every row reads the one census
        doc = {"ambient_dim": 1, "vertices": [[i] for i in range(10_001)],
               "maximal_simplices": [[i] for i in range(10_001)]}
        assert counting.count_method(load_complex(doc), 1000) == "enumeration"
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = cli.main(["probe", str(path), "--modulus", "6", "--tmax", "1000"])
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_PASS == 0
        assert err.getvalue().startswith("congruent dilations up to 1000: ")
        rows = json.loads(out.getvalue())["rows"]
        assert [r["dilation"] for r in rows] == list(range(1, 1001))
        assert {r["count"] for r in rows} == {10_001}

    def test_at_the_row_cap(self, monkeypatch):
        monkeypatch.setattr(verify, "PROBE_ROW_LIMIT", 4)
        square = load_complex(UNIT_SQUARE_DOC)
        assert [r.count for r in probe_dilations(square, 2, 4).rows] == [4, 9, 16, 25]
        self.refused_quickly(square, 5, "probe would count 5 rows, over the cap of 4")


class TestSharedSubcheckReports:
    """run_verify's report holds each face's vertices and its class's
    reports, and expands them on read; the oracle builds a new report per
    face and term, as run_verify did before."""

    CASES = [(dim, grid, seed, shift, n)
             for dim, grid, seed, shift in ((2, 5, 1, (10**6, -10**6)),
                                            (3, 2, 3, (-10**6, 10**6, 7)),
                                            (1, 4, 2, (5,)))
             for n in (6, 60)]

    @pytest.mark.parametrize("dim, grid, seed, shift, n", CASES)
    def test_subchecks_equal_the_facewise_reports(self, dim, grid, seed, shift, n):
        c = moved_complex(generate_complex(dim, grid, 1, seed=0), random.Random(seed), shift)
        self.check(c, n)

    @given(mixed_complexes(), st.sampled_from((2, 6, 12, 60)))
    @settings(max_examples=40, deadline=None)
    def test_mixed_complexes(self, c, n):
        self.check(c, n)

    def check(self, c, n):
        r = run_verify(c, n)
        want = facewise_subchecks(c, n)
        got = r.subchecks
        assert type(got) is tuple and len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b and a.vertices == b.vertices
        assert got == want and got is not r.subchecks  # expanded per read
        assert r.subcheck_tally() == (sum(not w.passed for w in want), len(want))
        assert r.all_passed == (r.passed and all(w.passed for w in want))
        # the same report with the sub-checks given as a tuple, as before
        built = VerificationReport(**{**{f.name: getattr(r, f.name) for f in fields(r)},
                                      "subchecks": want})
        assert built == r and built.subchecks == want
        assert r.as_dict() == built.as_dict()
        assert r.as_dict()["subchecks"] == [w.as_dict() for w in want]
        document = complex_to_document(c).as_dict()
        assert (to_json(FuzzFailure(trial=0, sub_seed=1, keep="1", document=document, report=r))
                == to_json(FuzzFailure(trial=0, sub_seed=1, keep="1", document=document,
                                       report=built)))

    def test_report_keeps_one_report_per_class_and_term(self):
        # the moved whole grid-5: 50 triangles of 2 classes, 3 plan terms
        c = moved_complex(generate_complex(2, 5, 1, seed=0), random.Random(1), (3, 4))
        r = run_verify(c, 60)
        held = vars(r)["_subchecks"]
        assert len(held.faces) == len(held.reports) == 50
        assert len({id(x) for rs in held.reports for x in rs}) == 2 * 3
        assert all(type(x) is SimplexCongruenceReport for rs in held.reports for x in rs)
        assert r.subcheck_tally() == (0, 150)

    @pytest.fixture
    def failing_prime_three(self, monkeypatch):
        """Make every class report for p = 3 fail."""
        real = verify._class_subcheck

        def subcheck(key, p, k):
            report = real(key, p, k)
            return dataclasses.replace(report, passed=False) if p == 3 else report

        monkeypatch.setattr(verify, "_class_subcheck", subcheck)

    def test_failed_class_report(self, failing_prime_three, tmp_path):
        c = load_complex(L_SHAPE_DOC)
        r = run_verify(c, 6)
        want = facewise_subchecks(c, 6)
        assert r.passed and not r.all_passed
        assert r.subcheck_tally() == (6, 12) == (sum(not w.passed for w in want), len(want))
        assert r.subchecks == want
        path = tmp_path / "lshape.json"
        path.write_text(json.dumps(L_SHAPE_DOC))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
            code = cli.main(["verify", str(path), "--modulus", "6"])
        assert code == cli.EXIT_VERDICT_FAIL
        assert "6 of 12 per-simplex sub-checks failed" in err.getvalue()
        assert json.loads(out.getvalue())["subchecks"] == [w.as_dict() for w in want]

    def test_failed_fuzz_trial(self, failing_prime_three):
        summary = run_fuzz(2, 1, 6, trials=2, seed=3)
        assert (summary.passes, summary.failures) == (0, 2)
        for failure in summary.failed:
            c = close_under_faces(failure.document["maximal_simplices"],
                                  failure.document["vertices"], ambient_dim=2)
            assert failure.report.subchecks == facewise_subchecks(c, 6)
            assert failure.report.as_dict()["subchecks"] == [
                w.as_dict() for w in facewise_subchecks(c, 6)]
