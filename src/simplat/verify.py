"""End-to-end checks: the dilation congruence count ≡ χ (mod n) on whole
complexes, per-simplex prime-power sub-checks, deterministic fuzzing over
generated complexes, and per-dilation probing, whose rows are read off one
census, each a report.Report."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .complexes import SimplicialComplex, euler_characteristic, generate_complex
from .counting import census, count_complex, count_complex_additive, count_method
from .documents import complex_to_document
from .ehrhart import SimplexCongruenceReport, verify_simplex_congruence
from .errors import ResourceLimitError, check_int
from .geometry import CACHE_SIZE, LatticePoint, Simplex
from .numtheory import DilationPlan, dilation_plan
from .report import Report

# Most rows one probe counts: 55 times the largest plan for d <= 6 and
# n <= 30 (1800), so dilations up to a few times a plan stay in reach
PROBE_ROW_LIMIT = 100_000
FUZZ_KEEP_CYCLE = (Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))


class _FaceReports(NamedTuple):
    """The sub-checks of a run in compact form: each maximal face's vertex
    tuple, in index order, and its class's reports, one per plan term, in
    one tuple that every face of the class shares."""

    faces: tuple[tuple[LatticePoint, ...], ...]
    reports: tuple[tuple[SimplexCongruenceReport, ...], ...]


class _Subchecks:
    """The subchecks field of VerificationReport, held as _FaceReports and
    expanded on every read: one SimplexCongruenceReport per face and term,
    its class's report with the face's vertices.  The expansion is not
    kept.  A tuple of reports given to the constructor is held as one face
    per report."""

    def __get__(self, report, owner=None):
        if report is None:
            raise AttributeError("subchecks")  # so the field has no default
        held = report.__dict__["_subchecks"]
        return tuple([_with_vertices(r, vertices)
                      for vertices, reports in zip(*held) for r in reports])

    def __set__(self, report, value):
        if type(value) is not _FaceReports:
            value = _FaceReports(tuple([r.vertices for r in value]),
                                 tuple([(r,) for r in value]))
        report.__dict__["_subchecks"] = value


def _with_vertices(r: SimplexCongruenceReport, vertices) -> SimplexCongruenceReport:
    """A copy of r with the given vertices, its fields set directly, as
    the constructor would leave them."""
    copy = object.__new__(SimplexCongruenceReport)
    copy.__dict__.update(r.__dict__, vertices=vertices)
    return copy


@dataclass(frozen=True)
class VerificationReport(Report):
    """One run of the main congruence on one complex.

    subchecks reads as a tuple of one report per maximal face and plan
    term, in face index order, but the report holds only each face's vertex
    tuple and its translation class's reports (see _Subchecks), and expands
    them on each read or print.  So no expanded tuple and no per-face
    report is kept alive with the report, and all_passed and
    subcheck_tally() read the class reports without expanding them.
    """

    input_id: str
    modulus: int
    plan: DilationPlan
    euler: int
    dilation: int
    count: int
    method: str
    count_residue: int
    euler_residue: int
    verdict: str  # "pass" or "fail"
    subchecks: tuple[SimplexCongruenceReport, ...] = _Subchecks()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def all_passed(self) -> bool:
        return self.passed and not self.subcheck_tally()[0]

    def subcheck_tally(self) -> tuple[int, int]:
        """(failed, total) over the sub-checks, read off the class reports."""
        reports = self.__dict__["_subchecks"].reports
        return (sum([not r.passed for rs in reports for r in rs]),
                sum(map(len, reports)))


@lru_cache(maxsize=CACHE_SIZE)
def _class_subcheck(s: Simplex, p: int, k: int) -> SimplexCongruenceReport:
    """verify_simplex_congruence(s, p, k) on the canonical translate s of a
    class of SimplicialComplex.classes, kept for every complex with a face
    of the class.  An error is not kept."""
    return verify_simplex_congruence(s, p, k)


def run_verify(c: SimplicialComplex, n: int, *,
               input_id: str = "complex") -> VerificationReport:
    """Count lattice points of the complex dilated by the planned factor and
    compare the residue with the Euler characteristic mod n; also run the
    prime-power congruence sub-check on every maximal simplex.  The count
    is enumerated or additive as counting.count_method chooses.

    Sub-checks run once per class of SimplicialComplex.classes, on its
    canonical translate, and their reports are kept in an LRU cache of
    CACHE_SIZE entries keyed by that Simplex, p and k, which every complex
    shares: a lattice translate of s shifts p^k*s by a lattice vector,
    which changes neither its count nor the box that picks the method.
    The report holds each face's vertices and its class's reports, which
    stand for the face's own reports with its vertices (see
    VerificationReport); no face's own Simplex or report is built.
    Grouping by lattice class instead would need every face's certificate
    just to read the key.
    """
    plan = dilation_plan(c.ambient_dim, n)
    t = plan.dilation
    euler = euler_characteristic(c)
    method = count_method(c, t)
    count = count_complex(c, t) if method == "enumeration" else count_complex_additive(c, t)
    terms = [(term.prime, term.dilation_exponent) for term in plan.terms]
    reports_of = {}  # maximal face -> its class's reports
    for s, faces in c.classes:
        reports_of.update(dict.fromkeys(
            faces, tuple([_class_subcheck(s, p, k) for p, k in terms])))
    verts = c.vertices
    faces = c.maximal_faces
    count_residue = count % n
    euler_residue = euler % n
    return VerificationReport(
        input_id=input_id, modulus=n, plan=plan, euler=euler, dilation=t,
        count=count, method=method, count_residue=count_residue,
        euler_residue=euler_residue,
        verdict="pass" if count_residue == euler_residue else "fail",
        subchecks=_FaceReports(tuple([tuple([verts[i] for i in face]) for face in faces]),
                               tuple([reports_of[face] for face in faces])))


@dataclass(frozen=True)
class FuzzFailure(Report):
    trial: int
    sub_seed: int
    keep: str
    document: dict
    report: VerificationReport


@dataclass(frozen=True)
class FuzzSummary(Report):
    dim: int
    grid: int
    modulus: int
    trials: int
    seed: int
    dilation: int
    passes: int
    failures: int
    failed: tuple[FuzzFailure, ...]

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _trial_seed(seed: int, trial: int) -> int:
    # Fixed integer mix so sub-streams are reproducible and documented.
    return (seed * 6364136223846793005 + (trial + 1) * 1442695040888963407) % (2 ** 63)


def run_fuzz(dim: int, grid: int, n: int, trials: int, seed: int) -> FuzzSummary:
    """Generate `trials` complexes and run the full verification on each.

    Trial i uses keep fraction FUZZ_KEEP_CYCLE[i % 4] and the sub-seed
    _trial_seed(seed, i), so a summary is byte-for-byte reproducible from
    (dim, grid, n, trials, seed).  Any failing trial is serialized in full
    for replay.
    """
    check_int(trials, "trials", 1)
    plan = dilation_plan(dim, n)
    passes = 0
    failed = []
    for trial in range(trials):
        keep = FUZZ_KEEP_CYCLE[trial % len(FUZZ_KEEP_CYCLE)]
        sub_seed = _trial_seed(seed, trial)
        complex_ = generate_complex(dim, grid, keep, sub_seed)
        report = run_verify(complex_, n, input_id=f"trial-{trial}")
        if report.all_passed:
            passes += 1
        else:
            failed.append(FuzzFailure(
                trial=trial, sub_seed=sub_seed, keep=str(keep),
                document=complex_to_document(complex_).as_dict(),
                report=report))
    return FuzzSummary(dim=dim, grid=grid, modulus=n, trials=trials,
                       seed=seed, dilation=plan.dilation, passes=passes,
                       failures=len(failed), failed=tuple(failed))


@dataclass(frozen=True)
class ProbeRow(Report):
    dilation: int
    count: int
    count_residue: int
    congruent: bool


@dataclass(frozen=True)
class ProbeReport(Report):
    """Per-dilation truth table of the congruence for t = 1..t_max."""

    input_id: str
    modulus: int
    euler: int
    euler_residue: int
    planned_dilation: int
    rows: tuple[ProbeRow, ...]


def probe_dilations(c: SimplicialComplex, n: int, t_max: int, *,
                    input_id: str = "complex") -> ProbeReport:
    """Count at every dilation 1..t_max and flag which satisfy the
    congruence; exploratory, since the planned dilation is sufficient but
    not always minimal.  The complex's census (counting.census) is taken
    once and each row is its Census.count, O(d^2) binomials, so a row does
    not depend on t_max; on a proper complex it is the exact count, and on
    an improper one the additive count, which counts overlaps twice.

    Before counting, ResourceLimitError refuses a table of more than
    PROBE_ROW_LIMIT rows; the census refuses a lattice class over its
    volume budget.
    """
    check_int(t_max, "t_max", 1)
    plan = dilation_plan(c.ambient_dim, n)
    if t_max > PROBE_ROW_LIMIT:
        raise ResourceLimitError(
            f"probe would count {t_max} rows, over the cap of {PROBE_ROW_LIMIT}")
    euler = euler_characteristic(c)
    euler_residue = euler % n
    count_at = census(c).count
    rows = []
    for t in range(1, t_max + 1):
        count = count_at(t)
        rows.append(ProbeRow(dilation=t, count=count,
                             count_residue=count % n,
                             congruent=count % n == euler_residue))
    return ProbeReport(input_id=input_id, modulus=n, euler=euler,
                       euler_residue=euler_residue,
                       planned_dilation=plan.dilation, rows=tuple(rows))
