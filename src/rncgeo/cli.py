"""Command-line interface.

Commands read one JSON document from a file (or "-" for stdin) and write a
single document to stdout, either as canonical JSON (`--format structured`,
the default) or as a human-readable rendering (`--format text`).  Exit
codes separate the outcome classes:

    0   success / affirmative answer
    10  negative result: obstruction, failed verification, not equivalent
    11  genericity failure (NotGeneric and friends)
    12  unsupported shape or open case
    13  malformed input
"""

from __future__ import annotations

import argparse
import json
import sys

from .construct import (
    CountAnalysis,
    ExistenceCertificate,
    construct,
    expected_count,
)
from .curves import DetRnc, curve_equals, det_to_param, verify_datum
from .equivalence import signature
from .errors import (
    BadDimension,
    BadShape,
    DimensionMismatch,
    GeometryError,
    NotGeneric,
    ParseError,
    UnsupportedCaseError,
)
from .generate import random_datum, rng_from_seed
from .obstruct import ObstructionCertificate, nonexistence_certificate
from .postulation import ah_exceptions_suite, defect_explanation, hilbert_function
from .serialize import (
    VERSION,
    certificate_in,
    certificate_out,
    count_analysis_out,
    datum_in,
    datum_out,
    defect_witness_out,
    from_doc,
    interpolation_suite_out,
    obstruction_in,
    obstruction_out,
    postulation_report_out,
    report_out,
    scheme_spec_in,
    signature_out,
    to_doc,
    unsupported_out,
)

EXIT_OK = 0
EXIT_NEGATIVE = 10
EXIT_NOT_GENERIC = 11
EXIT_UNSUPPORTED = 12
EXIT_PARSE = 13


def _read_document(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}", location=path) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", location=path) from exc


def _emit(doc: dict, text: str, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(text)


def _vec_text(values) -> str:
    return "(" + " : ".join(str(v) for v in values) + ")"


def _certificate_text(cert: ExistenceCertificate) -> str:
    lines = [
        f"curve exists (method: {cert.method}), n = {cert.curve.n}",
        "parametrization (coefficients of s^k u^(n-k), ascending k):",
    ]
    for f in cert.curve.forms:
        lines.append("  [" + ", ".join(str(c) for c in f.coeffs) + "]")
    lines.append("verification:")
    for pc in cert.report.points:
        tag = "on curve" if pc.on_curve else "NOT on curve"
        at = f" at parameter {_vec_text(pc.param.coords)}" if pc.param else ""
        lines.append(f"  point {_vec_text(pc.point.coords)}: {tag}{at}")
    for sc in cert.report.spaces:
        s = sc.secancy
        lines.append(
            f"  space: intersection degree {s.degree}, smooth={s.smooth}, "
            f"secant={s.is_n_minus_1_secant}"
        )
    lines.append(f"overall: {'PASS' if cert.report.passed else 'FAIL'}")
    return "\n".join(lines)


def _obstruction_text(cert: ObstructionCertificate) -> str:
    lines = [
        f"no curve exists, n = {cert.n}",
        "witness quadric through both spaces and three points "
        "(grevlex coefficient vector):",
        "  [" + ", ".join(str(c) for c in cert.quadric) + "]",
        f"excluded point {_vec_text(cert.excluded_point.coords)} evaluates to "
        f"{cert.excluded_value} (nonzero)",
        f"degree ledger: any satisfying curve meets the quadric in degree >= "
        f"{cert.ledger.intersection_lower_bound} > {cert.ledger.bezout_bound} = 2n,",
        "so it would lie inside the quadric and hit the excluded point: "
        "contradiction.",
    ]
    return "\n".join(lines)


def _analysis_text(a: CountAnalysis) -> str:
    count = "" if a.curve_count is None else f", curve count {a.curve_count}"
    return (
        f"n={a.n} p={a.p} l={a.l}: family dimension {a.dim_h}, "
        f"conditions {a.conditions}; verdict {a.verdict}; "
        f"classification {a.classification}{count}"
    )


def _postulation_text(report) -> str:
    lines = [
        f"degree {report.degree} forms on P^{report.n}: {report.total_monomials} monomials",
        f"conditions: {report.point_conditions} from double points + "
        f"{report.space_conditions} from double spaces = {report.conditions_sum}",
        f"expected Hilbert function {report.expected}, actual {report.actual_hf}, "
        f"deficit {report.deficit}",
    ]
    if report.h_formula_value is not None:
        lines.append(f"closed-form expected count: {report.h_formula_value}")
    if report.note:
        lines.append(report.note)
    return "\n".join(lines)


def cmd_construct(args) -> int:
    datum = datum_in(_read_document(args.input))
    result = construct(datum)
    if isinstance(result, ExistenceCertificate):
        _emit(certificate_out(result), _certificate_text(result), args.format)
        return EXIT_OK
    if isinstance(result, ObstructionCertificate):
        _emit(obstruction_out(result), _obstruction_text(result), args.format)
        return EXIT_NEGATIVE
    _emit(
        unsupported_out(result),
        f"unsupported: {result.reason}\n{_analysis_text(result.analysis)}",
        args.format,
    )
    return EXIT_UNSUPPORTED


def _verify_obstruction(doc: dict, fmt: str) -> int:
    """Recompute every claim of a non-existence certificate."""
    passed = bool(obstruction_in(doc).verify())
    out = {
        "version": VERSION,
        "kind": "verification",
        "certificate": "obstruction_certificate",
        "passed": passed,
    }
    _emit(out, f"verification: {'PASS' if passed else 'FAIL'}", fmt)
    return EXIT_OK if passed else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    doc = _read_document(args.input)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "obstruction_certificate":
        return _verify_obstruction(doc, args.format)
    if kind == "existence_certificate":
        cert = certificate_in(doc)
        report = verify_datum(cert.curve, cert.datum)
        consistent = report.passed and curve_equals(cert.curve, cert.det)
    elif kind == "verify_request":
        curve, datum = from_doc(doc)
        if isinstance(curve, DetRnc):
            curve = det_to_param(curve)
        report = verify_datum(curve, datum)
        consistent = report.passed
    else:
        raise ParseError(
            "verify expects a verify_request, existence_certificate or "
            "obstruction_certificate document"
        )
    out = {"version": VERSION, "kind": "verification", **report_out(report)}
    out["passed"] = bool(consistent)
    lines = [f"verification: {'PASS' if consistent else 'FAIL'}"]
    for pc in report.points:
        lines.append(
            f"  point {_vec_text(pc.point.coords)}: "
            + ("on curve" if pc.on_curve else "NOT on curve")
        )
    for sc in report.spaces:
        s = sc.secancy
        lines.append(
            f"  space: degree {s.degree}, smooth={s.smooth}, secant={s.is_n_minus_1_secant}"
        )
    _emit(out, "\n".join(lines), args.format)
    return EXIT_OK if consistent else EXIT_NEGATIVE


def cmd_obstruct(args) -> int:
    datum = datum_in(_read_document(args.input))
    cert = nonexistence_certificate(datum)
    _emit(obstruction_out(cert), _obstruction_text(cert), args.format)
    return EXIT_NEGATIVE


def cmd_expect(args) -> int:
    analysis = expected_count(args.n, args.p, args.l)
    _emit(count_analysis_out(analysis), _analysis_text(analysis), args.format)
    return EXIT_OK


def cmd_hilbert(args) -> int:
    spec = scheme_spec_in(_read_document(args.input))
    report = hilbert_function(spec)
    doc = postulation_report_out(report)
    text = _postulation_text(report)
    if args.explain:
        witness = defect_explanation(spec)
        doc = {**doc, "explanation": defect_witness_out(witness)}
        text += "\nwitness curve ledger: " + (
            f"{witness.ledger.intersection_lower_bound} > {witness.ledger.bezout_bound}; "
            + witness.description
        )
    _emit(doc, text, args.format)
    return EXIT_OK


def cmd_ah_suite(args) -> int:
    cases = ah_exceptions_suite(seed=args.seed)
    doc = interpolation_suite_out(cases)
    lines = ["expected vs. actual Hilbert function (seeded generic double points):"]
    for c in cases:
        tag = "exceptional" if c.exceptional else "control"
        lines.append(
            f"  n={c.n} p={c.p} d={c.degree} [{tag}]: expected {c.report.expected}, "
            f"actual {c.report.actual_hf}, deficit {c.report.deficit}"
        )
    _emit(doc, "\n".join(lines), args.format)
    return EXIT_OK


def cmd_equivalent(args) -> int:
    a = datum_in(_read_document(args.left), "left")
    b = datum_in(_read_document(args.right), "right")
    if (a.n, a.p, a.l) != (b.n, b.p, b.l):
        raise DimensionMismatch("configurations have different shapes")
    sig_a = signature(a)
    sig_b = signature(b)
    same = sig_a == sig_b
    doc = {
        "version": VERSION,
        "kind": "equivalence_result",
        "equivalent": same,
        "left": signature_out(sig_a),
        "right": signature_out(sig_b),
    }
    text = "equivalent" if same else "not equivalent"
    _emit(doc, text, args.format)
    return EXIT_OK if same else EXIT_NEGATIVE


def cmd_random_datum(args) -> int:
    rng = rng_from_seed(args.seed)
    forward = args.forward or args.oracle
    datum, curve = random_datum(args.n, args.p, args.l, rng, forward=forward)
    doc = {
        "version": VERSION,
        "kind": "random_datum",
        "seed": args.seed,
        "forward": forward,
        "datum": datum_out(datum),
    }
    if args.oracle:
        doc["oracle_curve"] = to_doc(curve)
    text = (
        f"seeded datum: n={args.n}, p={args.p}, l={args.l}, seed={args.seed}, "
        f"forward={forward}"
    )
    _emit(doc, text, args.format)
    return EXIT_OK


def _error_doc(exc: GeometryError) -> dict:
    doc = {
        "version": VERSION,
        "kind": "error",
        "error_class": exc.code,
        "message": str(exc),
    }
    stage = getattr(exc, "stage", None)
    if stage:
        doc["stage"] = stage
    witness = getattr(exc, "witness", None)
    if witness is not None:
        doc["witness"] = repr(witness)
    location = getattr(exc, "location", None)
    if location:
        doc["location"] = location
    analysis = getattr(exc, "analysis", None)
    if analysis is not None:
        doc["analysis"] = count_analysis_out(analysis)
    return doc


def _exit_code_for(exc: GeometryError) -> int:
    if isinstance(exc, (ParseError, DimensionMismatch, BadDimension)):
        return EXIT_PARSE
    if isinstance(exc, (BadShape, UnsupportedCaseError)):
        return EXIT_UNSUPPORTED
    if isinstance(exc, NotGeneric):
        return EXIT_NOT_GENERIC
    return EXIT_NOT_GENERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rncgeo",
        description=(
            "exact construction, verification and obstruction of rational "
            "normal curves under point and secancy constraints"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("structured", "text"),
        default="structured",
        help="output as canonical JSON (default) or human-readable text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="construct the curve for a datum")
    p.add_argument("input", help="datum document path, or - for stdin")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-verify a certificate or curve+datum")
    p.add_argument(
        "input",
        help="verify_request, existence_certificate or obstruction_certificate document",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("obstruct", help="produce a non-existence certificate")
    p.add_argument("input", help="datum document with p >= 4, l >= 2")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("expect", help="condition count and classification")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("hilbert", help="exact Hilbert function of a scheme spec")
    p.add_argument("input", help="scheme_spec document")
    p.add_argument(
        "--explain", action="store_true", help="include the witness curve"
    )
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("ah-suite", help="classical interpolation exceptions table")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ah_suite)

    p = sub.add_parser("equivalent", help="ordered projective equivalence")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("random-datum", help="seeded generic datum generator")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--forward",
        action="store_true",
        help="sample the datum from a random curve satisfying it",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also emit the generating curve (implies --forward)",
    )
    p.set_defaults(func=cmd_random_datum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        doc = _error_doc(exc)
        if args.format == "structured":
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            print(f"error [{exc.code}]: {exc}")
        return _exit_code_for(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
