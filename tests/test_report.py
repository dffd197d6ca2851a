"""The one JSON form of a report: every dataclass field by name, plus the
one derived key of the four classes that print one, and as_dict() equal
to the printed JSON decoded."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from simplat import (CountReport, Simplex, ValidationReport, census,
                     complex_to_document, dilation_plan, ehrhart_polynomial,
                     factorize, hstar, load_complex, probe_dilations,
                     run_verify, summarize, verify_binomial_congruences,
                     verify_simplex_congruence)
from simplat.report import Report, to_json
from simplat.verify import FuzzFailure, FuzzSummary

from helpers import UNIT_SQUARE_DOC

SQUARE = load_complex(UNIT_SQUARE_DOC)
TRIANGLE = Simplex(((0, 0), (2, 0), (0, 2)))
# a plan with two prime terms, so sub-checks come in pairs
VERIFIED = run_verify(SQUARE, 6, input_id="square")
FAILURE = FuzzFailure(trial=0, sub_seed=7, keep="1/2",
                      document=complex_to_document(SQUARE).as_dict(),
                      report=VERIFIED)
BINOMIAL = verify_binomial_congruences(2, 2, 2)
PROBE = probe_dilations(SQUARE, 2, 3, input_id="square")
FUZZ = FuzzSummary(dim=2, grid=1, modulus=6, trials=2, seed=7,
                   dilation=VERIFIED.dilation, passes=1, failures=1,
                   failed=(FAILURE,))

REPORTS = [
    summarize(SQUARE),
    ValidationReport(duplicate_vertices=((0, 3),),
                     overlap_failures=(((0, 1, 2), (0, 1, 3)),)),
    CountReport(object_id="square", dilation=2, count=9, method="enumeration"),
    census(SQUARE),
    ehrhart_polynomial(Simplex(((0, 0), (1, 0), (0, 1)))),  # 1 + 3/2 t + 1/2 t^2
    hstar(TRIANGLE),
    verify_simplex_congruence(TRIANGLE, 3, 2),
    factorize(360),
    dilation_plan(2, 6).terms[0],
    dilation_plan(2, 6),
    BINOMIAL.checks[1],
    BINOMIAL,
    VERIFIED,
    FAILURE,
    FUZZ,
    PROBE.rows[0],
    PROBE,
]

DERIVED_KEYS = {"ValidationReport": {"passed"},
                "BinomialCongruenceReport": {"passed"},
                "EhrhartPolynomial": {"degree"},
                "Factorization": {"value"}}


def report_types(cls=Report):
    for sub in cls.__subclasses__():
        yield sub
        yield from report_types(sub)


def test_every_report_type_is_covered():
    assert {type(r) for r in REPORTS} == set(report_types())
    assert len(REPORTS) == 17


@pytest.mark.parametrize("report", REPORTS, ids=lambda r: type(r).__name__)
class TestJsonForm:
    def test_keys_are_the_fields_and_the_derived_key(self, report):
        derived = DERIVED_KEYS.get(type(report).__name__, set())
        assert set(report.as_dict()) == {f.name for f in fields(report)} | derived

    def test_as_dict_is_the_printed_json(self, report):
        assert json.loads(to_json(report)) == report.as_dict()


def test_nested_reports_are_objects():
    report = FUZZ.as_dict()["failed"][0]["report"]
    assert report["plan"]["terms"][1] == {"prime": 3, "modulus_exponent": 1,
                                          "log_floor": 0, "dilation_exponent": 1}
    assert len(report["subchecks"]) == 4  # 2 triangles x 2 prime terms
    assert report["subchecks"][0]["vertices"] == [[0, 0], [1, 0], [0, 1]]


def test_printed_with_sorted_keys_and_two_space_indent():
    text = to_json(dilation_plan(1, 2))
    assert text == ('{\n  "dilation": 2,\n  "dim": 1,\n  "modulus": 2,\n'
                    '  "terms": [\n    {\n      "dilation_exponent": 1,\n'
                    '      "log_floor": 0,\n      "modulus_exponent": 1,\n'
                    '      "prime": 2\n    }\n  ]\n}')
