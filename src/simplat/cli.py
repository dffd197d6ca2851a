"""Command-line interface.

JSON reports go to stdout, printed by report.to_json, and human-readable
summaries to stderr.  Exit codes:
0 = all verdicts pass, 1 = a mathematical verdict failed, 2 = input or
validation error, 3 = resource envelope exceeded, 4 = internal error (an
internal cross-check failed, which signals a bug), 5 = stdout was closed
before the report was written out (as by `| head -1`).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from .counting import CountReport, count_complex, count_complex_additive, count_method
from .documents import complex_to_document, document_to_json, load_complex, read_document
from .ehrhart import ehrhart_polynomial, hstar
from .errors import InputError, IntegrityError, ResourceLimitError, ValidationError
from .geometry import Simplex
from .complexes import generate_complex
from .numtheory import dilation_plan
from .report import to_json
from .verify import probe_dilations, run_fuzz, run_verify

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_STDOUT_CLOSED = 5


def _emit(payload) -> None:
    print(to_json(payload))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _load(path: str):
    return load_complex(read_document(path))


def _document_simplex(args) -> tuple[Simplex, dict]:
    """The --simplex I-th maximal simplex of the document, and the payload
    keys that name it."""
    doc = read_document(args.file)
    if not 0 <= args.simplex < len(doc.maximal_simplices):
        raise InputError(
            f"--simplex {args.simplex} out of range; document has "
            f"{len(doc.maximal_simplices)} maximal simplices")
    face = sorted(doc.maximal_simplices[args.simplex])
    s = Simplex(tuple(doc.vertices[i] for i in face))
    return s, {"object_id": Path(args.file).stem, "simplex": args.simplex,
               "vertices": s.vertices, "intrinsic_dim": s.intrinsic_dim}


def _cmd_count(args) -> int:
    c, t = _load(args.file), args.dilate
    method = count_method(c, t)
    count = count_complex(c, t) if method == "enumeration" else count_complex_additive(c, t)
    report = CountReport(object_id=Path(args.file).stem, dilation=args.dilate,
                         count=count, method=method)
    _emit(report)
    _note(f"{count} lattice points at dilation {args.dilate} ({method})")
    return EXIT_PASS


def _cmd_ehrhart(args) -> int:
    s, payload = _document_simplex(args)
    poly = ehrhart_polynomial(s)
    _emit({**payload, **poly.as_dict()})
    _note(f"degree {poly.degree} polynomial, coefficients "
          + ", ".join(str(c) for c in poly.coefficients))
    return EXIT_PASS


def _cmd_hstar(args) -> int:
    s, payload = _document_simplex(args)
    entries = list(hstar(s).entries)
    _emit({**payload, "hstar": entries,
           "coefficients": [str(c) for c in ehrhart_polynomial(s).coefficients]})
    _note(f"h* = {entries} (sum {sum(entries)})")
    return EXIT_PASS


def _cmd_tmin(args) -> int:
    plan = dilation_plan(args.dim, args.modulus)
    _emit(plan)
    _note(f"dilation {plan.dilation} guarantees the congruence mod "
          f"{plan.modulus} in dimension {plan.dim}")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    complex_ = _load(args.file)
    report = run_verify(complex_, args.modulus, input_id=Path(args.file).stem)
    _emit(report)
    sub_failures, subchecks = report.subcheck_tally()
    _note(f"count {report.count} ≡ {report.count_residue}, euler {report.euler} "
          f"≡ {report.euler_residue} (mod {report.modulus}) at dilation "
          f"{report.dilation}: {report.verdict}")
    if sub_failures:
        _note(f"{sub_failures} of {subchecks} per-simplex sub-checks failed")
    return EXIT_PASS if report.all_passed else EXIT_VERDICT_FAIL


def _cmd_fuzz(args) -> int:
    summary = run_fuzz(args.dim, args.grid, args.modulus, args.trials, args.seed)
    _emit(summary)
    _note(f"{summary.passes}/{summary.trials} trials passed at dilation "
          f"{summary.dilation} (mod {summary.modulus})")
    return EXIT_PASS if summary.passed else EXIT_VERDICT_FAIL


def _parse_keep(text: str) -> Fraction:
    try:
        keep = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--keep must be a fraction like 2/3, got {text!r}") from exc
    return keep


def _cmd_gen(args) -> int:
    complex_ = generate_complex(args.dim, args.grid, _parse_keep(args.keep), args.seed)
    doc = complex_to_document(complex_)
    sys.stdout.write(document_to_json(doc))
    _note(f"{len(doc.maximal_simplices)} maximal simplices on the "
          f"[0,{args.grid}]^{args.dim} grid (seed {args.seed}, keep {args.keep})")
    return EXIT_PASS


def _cmd_probe(args) -> int:
    complex_ = _load(args.file)
    report = probe_dilations(complex_, args.modulus, args.tmax,
                             input_id=Path(args.file).stem)
    _emit(report)
    good = [row.dilation for row in report.rows if row.congruent]
    _note(f"congruent dilations up to {args.tmax}: {good} "
          f"(planned dilation {report.planned_dilation})")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplat",
        description="Exact lattice-point counts and dilation congruence "
                    "checks on lattice simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count lattice points of the dilated complex")
    p.add_argument("file")
    p.add_argument("--dilate", type=int, required=True, metavar="T")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("ehrhart", help="counting polynomial of one maximal simplex")
    p.add_argument("file")
    p.add_argument("--simplex", type=int, required=True, metavar="I")
    p.set_defaults(func=_cmd_ehrhart)

    p = sub.add_parser("hstar", help="h*-vector of one maximal simplex")
    p.add_argument("file")
    p.add_argument("--simplex", type=int, required=True, metavar="I")
    p.set_defaults(func=_cmd_hstar)

    p = sub.add_parser("tmin", help="dilation plan for a dimension and modulus")
    p.add_argument("--dim", type=int, required=True, metavar="D")
    p.add_argument("--modulus", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_tmin)

    p = sub.add_parser("verify", help="check count ≡ euler characteristic (mod N)")
    p.add_argument("file")
    p.add_argument("--modulus", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuzz", help="verify many generated complexes")
    p.add_argument("--dim", type=int, required=True, metavar="D")
    p.add_argument("--grid", type=int, required=True, metavar="G")
    p.add_argument("--modulus", type=int, required=True, metavar="N")
    p.add_argument("--trials", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("gen", help="emit a generated complex document")
    p.add_argument("--dim", type=int, required=True, metavar="D")
    p.add_argument("--grid", type=int, required=True, metavar="G")
    p.add_argument("--keep", required=True, metavar="P/Q")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("probe", help="tabulate the congruence for t = 1..T")
    p.add_argument("file")
    p.add_argument("--modulus", type=int, required=True, metavar="N")
    p.add_argument("--tmax", type=int, required=True, metavar="T")
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the shutdown flush would fail again on what is still buffered
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    except (InputError, ValidationError) as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT
    except ResourceLimitError as exc:
        _note(f"resource limit: {exc}")
        return EXIT_RESOURCE
    except IntegrityError as exc:
        _note(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
