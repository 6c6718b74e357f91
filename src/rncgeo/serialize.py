"""Lossless JSON-shaped documents for every value the CLI consumes or
emits.

Rationals are rendered exactly: integers as JSON integers, everything else
as "p/q" strings; floats are never produced and never accepted.  Every
top-level document carries `version: 1` and a `kind` tag that drives
parsing.
"""

from __future__ import annotations

from typing import Any

from .binforms import BinaryForm
from .construct import (
    CountAnalysis,
    Datum,
    ExistenceCertificate,
    UnsupportedCase,
)
from .curves import (
    DetRnc,
    ParamRnc,
    PointCheck,
    SecancyResult,
    SpaceCheck,
    VerificationReport,
)
from .equivalence import Signature
from .errors import ParseError
from .obstruct import DegreeLedger, ObstructionCertificate
from .postulation import DefectWitness, InterpolationCase, PostulationReport, SchemeSpec
from .projective import LinForm, Pencil, ProjPoint, pencil_from_points
from .quadrics import monomials
from .scalars import QQ, as_qq, format_rational, parse_rational

VERSION = 1


# -- scalars and low-level pieces ---------------------------------------------


def _scalar_out(q: QQ):
    return format_rational(q)


def _scalar_in(value, where: str) -> QQ:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"expected an exact rational, got {value!r}", location=where)
    if isinstance(value, int):
        return QQ(value)
    if isinstance(value, str):
        return parse_rational(value, location=where)
    raise ParseError(f"expected an exact rational, got {value!r}", location=where)


def _vector_out(vec) -> list:
    return [_scalar_out(as_qq(x)) for x in vec]


def _vector_in(value, where: str) -> list[QQ]:
    if not isinstance(value, list) or not value:
        raise ParseError("expected a nonempty array of rationals", location=where)
    return [_scalar_in(x, f"{where}[{i}]") for i, x in enumerate(value)]


def _point_in(value, where: str) -> ProjPoint:
    try:
        return ProjPoint(_vector_in(value, where))
    except ValueError as exc:
        raise ParseError(str(exc), location=where) from exc


def _pencil_out(p: Pencil) -> dict:
    return {"forms": [_vector_out(p.f.coeffs), _vector_out(p.g.coeffs)]}


def _pencil_in(value, where: str) -> Pencil:
    if not isinstance(value, dict):
        raise ParseError("expected a pencil object", location=where)
    if "forms" in value:
        forms = value["forms"]
        if not isinstance(forms, list) or len(forms) != 2:
            raise ParseError("pencil needs exactly two forms", location=f"{where}/forms")
        try:
            return Pencil(
                LinForm(_vector_in(forms[0], f"{where}/forms[0]")),
                LinForm(_vector_in(forms[1], f"{where}/forms[1]")),
            )
        except Exception as exc:
            raise ParseError(f"bad pencil: {exc}", location=where) from exc
    if "span_points" in value:
        pts = value["span_points"]
        if not isinstance(pts, list):
            raise ParseError("span_points must be an array", location=where)
        try:
            return pencil_from_points(
                [_point_in(p, f"{where}/span_points[{i}]") for i, p in enumerate(pts)]
            )
        except Exception as exc:
            raise ParseError(f"bad span: {exc}", location=where) from exc
    raise ParseError("pencil needs 'forms' or 'span_points'", location=where)


def _binform_out(f: BinaryForm) -> dict:
    return {"degree": f.degree, "coeffs": _vector_out(f.coeffs)}


def _binform_in(value, where: str) -> BinaryForm:
    if not isinstance(value, dict) or "degree" not in value or "coeffs" not in value:
        raise ParseError("expected {degree, coeffs}", location=where)
    try:
        return BinaryForm(
            _int_in(value["degree"], f"{where}/degree"),
            _vector_in(value["coeffs"], f"{where}/coeffs"),
        )
    except ValueError as exc:
        raise ParseError(str(exc), location=where) from exc


def _int_in(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", location=where)
    return value


def _bool_in(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"expected true or false, got {value!r}", location=where)
    return value


def _obj_in(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError("expected a JSON object", location=where)
    return value


def _list_in(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError("expected an array", location=where)
    return value


# -- curves --------------------------------------------------------------------


def _param_rnc_out(c: ParamRnc) -> dict:
    return {
        "kind": "param_rnc",
        "n": c.n,
        "forms": [_vector_out(f.coeffs) for f in c.forms],
    }


def _param_rnc_in(doc, where: str) -> ParamRnc:
    doc = _obj_in(doc, where)
    n = _int_in(doc.get("n"), f"{where}/n")
    forms = doc.get("forms")
    if not isinstance(forms, list) or len(forms) != n + 1:
        raise ParseError(f"need {n + 1} coordinate forms", location=f"{where}/forms")
    try:
        return ParamRnc(
            [
                BinaryForm(n, _vector_in(f, f"{where}/forms[{i}]"))
                for i, f in enumerate(forms)
            ]
        )
    except Exception as exc:
        raise ParseError(f"bad parametrization: {exc}", location=where) from exc


def _det_rnc_out(c: DetRnc) -> dict:
    return {
        "kind": "det_rnc",
        "n": c.n,
        "rows": [[_vector_out(f.coeffs) for f in row] for row in c.m],
    }


def _det_rnc_in(doc, where: str) -> DetRnc:
    doc = _obj_in(doc, where)
    n = _int_in(doc.get("n"), f"{where}/n")
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != 2:
        raise ParseError("need exactly two rows", location=f"{where}/rows")
    try:
        return DetRnc(
            [
                [LinForm(_vector_in(f, f"{where}/rows[{r}][{j}]")) for j, f in enumerate(row)]
                for r, row in enumerate(rows)
            ]
        )
    except Exception as exc:
        raise ParseError(f"bad matrix: {exc}", location=where) from exc


def _curve_in(doc, where: str):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "param_rnc":
        return _param_rnc_in(doc, where)
    if kind == "det_rnc":
        return _det_rnc_in(doc, where)
    raise ParseError("expected a param_rnc or det_rnc document", location=where)


# -- datum and scheme spec -------------------------------------------------------


def datum_out(d: Datum) -> dict:
    return {
        "version": VERSION,
        "kind": "datum",
        "n": d.n,
        "spaces": [_pencil_out(s) for s in d.spaces],
        "points": [_vector_out(p.coords) for p in d.points],
    }


def datum_in(doc, where: str = "datum") -> Datum:
    doc = _obj_in(doc, where)
    if doc.get("kind") != "datum":
        raise ParseError(
            f"expected a datum document, got kind {doc.get('kind')!r}", location=where
        )
    n = _int_in(doc.get("n"), f"{where}/n")
    spaces = doc.get("spaces", [])
    points = doc.get("points", [])
    if not isinstance(spaces, list) or not isinstance(points, list):
        raise ParseError("spaces and points must be arrays", location=where)
    try:
        return Datum(
            n=n,
            spaces=[_pencil_in(s, f"{where}/spaces[{i}]") for i, s in enumerate(spaces)],
            points=[_point_in(p, f"{where}/points[{i}]") for i, p in enumerate(points)],
        )
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad datum: {exc}", location=where) from exc


def scheme_spec_out(spec: SchemeSpec) -> dict:
    return {
        "version": VERSION,
        "kind": "scheme_spec",
        "n": spec.n,
        "degree": spec.degree,
        "double_points": [_vector_out(p.coords) for p in spec.double_points],
        "double_spaces": [_pencil_out(s) for s in spec.double_spaces],
    }


def scheme_spec_in(doc, where: str = "scheme_spec") -> SchemeSpec:
    doc = _obj_in(doc, where)
    if doc.get("kind") != "scheme_spec":
        raise ParseError(
            f"expected a scheme_spec document, got kind {doc.get('kind')!r}",
            location=where,
        )
    n = _int_in(doc.get("n"), f"{where}/n")
    degree = _int_in(doc.get("degree"), f"{where}/degree")
    try:
        return SchemeSpec(
            n=n,
            degree=degree,
            double_points=tuple(
                _point_in(p, f"{where}/double_points[{i}]")
                for i, p in enumerate(_list_in(doc.get("double_points", []), f"{where}/double_points"))
            ),
            double_spaces=tuple(
                _pencil_in(s, f"{where}/double_spaces[{i}]")
                for i, s in enumerate(_list_in(doc.get("double_spaces", []), f"{where}/double_spaces"))
            ),
        )
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad scheme spec: {exc}", location=where) from exc


# -- reports and certificates ----------------------------------------------------


def _secancy_out(r: SecancyResult) -> dict:
    return {
        "degree": r.degree,
        "d_form": _binform_out(r.d_form),
        "smooth": r.smooth,
        "is_n_minus_1_secant": r.is_n_minus_1_secant,
    }


def _secancy_in(doc, where: str) -> SecancyResult:
    doc = _obj_in(doc, where)
    return SecancyResult(
        degree=_int_in(doc.get("degree"), f"{where}/degree"),
        d_form=_binform_in(doc.get("d_form"), f"{where}/d_form"),
        smooth=_bool_in(doc.get("smooth"), f"{where}/smooth"),
        is_n_minus_1_secant=_bool_in(
            doc.get("is_n_minus_1_secant"), f"{where}/is_n_minus_1_secant"
        ),
    )


def report_out(r: VerificationReport) -> dict:
    return {
        "points": [
            {
                "point": _vector_out(pc.point.coords),
                "on_curve": pc.on_curve,
                "param": None if pc.param is None else _vector_out(pc.param.coords),
            }
            for pc in r.points
        ],
        "spaces": [
            {"pencil": _pencil_out(sc.pencil), "secancy": _secancy_out(sc.secancy)}
            for sc in r.spaces
        ],
        "passed": r.passed,
    }


def report_in(doc, where: str = "report") -> VerificationReport:
    doc = _obj_in(doc, where)
    points = tuple(
        PointCheck(
            point=_point_in(_obj_in(p, f"{where}/points[{i}]").get("point"), f"{where}/points[{i}]/point"),
            on_curve=_bool_in(p.get("on_curve"), f"{where}/points[{i}]/on_curve"),
            param=(
                None
                if p.get("param") is None
                else _point_in(p.get("param"), f"{where}/points[{i}]/param")
            ),
        )
        for i, p in enumerate(_list_in(doc.get("points", []), f"{where}/points"))
    )
    spaces = tuple(
        SpaceCheck(
            pencil=_pencil_in(_obj_in(s, f"{where}/spaces[{i}]").get("pencil"), f"{where}/spaces[{i}]/pencil"),
            secancy=_secancy_in(s.get("secancy"), f"{where}/spaces[{i}]/secancy"),
        )
        for i, s in enumerate(_list_in(doc.get("spaces", []), f"{where}/spaces"))
    )
    return VerificationReport(
        points=points, spaces=spaces, passed=_bool_in(doc.get("passed"), f"{where}/passed")
    )


def certificate_out(cert: ExistenceCertificate) -> dict:
    return {
        "version": VERSION,
        "kind": "existence_certificate",
        "method": cert.method,
        "n": cert.curve.n,
        "datum": datum_out(cert.datum),
        "curve": _param_rnc_out(cert.curve),
        "det": _det_rnc_out(cert.det),
        "report": report_out(cert.report),
    }


def certificate_in(doc, where: str = "certificate") -> ExistenceCertificate:
    doc = _obj_in(doc, where)
    return ExistenceCertificate(
        method=str(doc.get("method")),
        curve=_param_rnc_in(doc.get("curve"), f"{where}/curve"),
        det=_det_rnc_in(doc.get("det"), f"{where}/det"),
        datum=datum_in(doc.get("datum"), f"{where}/datum"),
        report=report_in(doc.get("report"), f"{where}/report"),
    )


def obstruction_out(cert: ObstructionCertificate) -> dict:
    return {
        "version": VERSION,
        "kind": "obstruction_certificate",
        "n": cert.n,
        "monomials": [list(e) for e in monomials(cert.n, 2)],
        "quadric": _vector_out(cert.quadric),
        "spaces": [_pencil_out(s) for s in cert.spaces],
        "points": [_vector_out(p.coords) for p in cert.points],
        "excluded_point": _vector_out(cert.excluded_point.coords),
        "excluded_value": _scalar_out(cert.excluded_value),
        "contains": cert.contains_flags(),
        "ledger": {
            "intersection_lower_bound": cert.ledger.intersection_lower_bound,
            "bezout_bound": cert.ledger.bezout_bound,
        },
    }


def obstruction_in(doc, where: str = "obstruction") -> ObstructionCertificate:
    doc = _obj_in(doc, where)
    n = _int_in(doc.get("n"), f"{where}/n")
    ledger_doc = _obj_in(doc.get("ledger", {}), f"{where}/ledger")
    return ObstructionCertificate(
        n=n,
        quadric=tuple(_vector_in(doc.get("quadric"), f"{where}/quadric")),
        spaces=tuple(
            _pencil_in(s, f"{where}/spaces[{i}]")
            for i, s in enumerate(_list_in(doc.get("spaces", []), f"{where}/spaces"))
        ),
        points=tuple(
            _point_in(p, f"{where}/points[{i}]")
            for i, p in enumerate(_list_in(doc.get("points", []), f"{where}/points"))
        ),
        excluded_point=_point_in(doc.get("excluded_point"), f"{where}/excluded_point"),
        excluded_value=_scalar_in(doc.get("excluded_value"), f"{where}/excluded_value"),
        ledger=DegreeLedger(
            n=n,
            intersection_lower_bound=_int_in(
                ledger_doc.get("intersection_lower_bound"), f"{where}/ledger"
            ),
            bezout_bound=_int_in(ledger_doc.get("bezout_bound"), f"{where}/ledger"),
        ),
    )


def count_analysis_out(a: CountAnalysis) -> dict:
    return {
        "version": VERSION,
        "kind": "count_analysis",
        "n": a.n,
        "p": a.p,
        "l": a.l,
        "dim_h": a.dim_h,
        "conditions": a.conditions,
        "verdict": a.verdict,
        "classification": a.classification,
        "curve_count": a.curve_count,
    }


def postulation_report_out(r: PostulationReport) -> dict:
    return {
        "version": VERSION,
        "kind": "postulation_report",
        "n": r.n,
        "degree": r.degree,
        "total_monomials": r.total_monomials,
        "point_conditions": r.point_conditions,
        "space_conditions": r.space_conditions,
        "conditions_sum": r.conditions_sum,
        "expected": r.expected,
        "actual_hf": r.actual_hf,
        "deficit": r.deficit,
        "h_formula_value": r.h_formula_value,
        "note": r.note,
    }


def interpolation_suite_out(cases: list[InterpolationCase]) -> dict:
    return {
        "version": VERSION,
        "kind": "interpolation_suite",
        "cases": [
            {
                "n": c.n,
                "p": c.p,
                "degree": c.degree,
                "exceptional": c.exceptional,
                "report": postulation_report_out(c.report),
            }
            for c in cases
        ],
    }


def defect_witness_out(w: DefectWitness) -> dict:
    return {
        "version": VERSION,
        "kind": "defect_witness",
        "curve": _param_rnc_out(w.curve),
        "certificate": certificate_out(w.certificate),
        "ledger": {
            "intersection_lower_bound": w.ledger.intersection_lower_bound,
            "bezout_bound": w.ledger.bezout_bound,
        },
        "description": w.description,
    }


def signature_out(s: Signature) -> dict:
    return {
        "version": VERSION,
        "kind": "signature",
        "n": s.n,
        "p": s.p,
        "l": s.l,
        "point_params": [_vector_out(t.coords) for t in s.point_params],
        "space_forms": [_binform_out(f) for f in s.space_forms],
    }


def unsupported_out(u: UnsupportedCase) -> dict:
    return {
        "version": VERSION,
        "kind": "unsupported",
        "reason": u.reason,
        "analysis": count_analysis_out(u.analysis),
    }


def to_doc(obj) -> dict:
    """Serialize any public value to its document."""
    if isinstance(obj, Datum):
        return datum_out(obj)
    if isinstance(obj, SchemeSpec):
        return scheme_spec_out(obj)
    if isinstance(obj, ParamRnc):
        return {"version": VERSION, **_param_rnc_out(obj)}
    if isinstance(obj, DetRnc):
        return {"version": VERSION, **_det_rnc_out(obj)}
    if isinstance(obj, ExistenceCertificate):
        return certificate_out(obj)
    if isinstance(obj, ObstructionCertificate):
        return obstruction_out(obj)
    if isinstance(obj, CountAnalysis):
        return count_analysis_out(obj)
    if isinstance(obj, PostulationReport):
        return postulation_report_out(obj)
    if isinstance(obj, Signature):
        return signature_out(obj)
    if isinstance(obj, UnsupportedCase):
        return unsupported_out(obj)
    if isinstance(obj, DefectWitness):
        return defect_witness_out(obj)
    raise TypeError(f"no document form for {type(obj).__name__}")


def from_doc(doc: Any, where: str = ""):
    """Parse a document by its `kind` tag."""
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object", location=where or "/")
    kind = doc.get("kind")
    root = where or kind or "document"
    if kind == "datum":
        return datum_in(doc, root)
    if kind == "scheme_spec":
        return scheme_spec_in(doc, root)
    if kind == "param_rnc":
        return _param_rnc_in(doc, root)
    if kind == "det_rnc":
        return _det_rnc_in(doc, root)
    if kind == "existence_certificate":
        return certificate_in(doc, root)
    if kind == "obstruction_certificate":
        return obstruction_in(doc, root)
    if kind == "verify_request":
        return (
            _curve_in(doc.get("curve"), f"{root}/curve"),
            datum_in(doc.get("datum"), f"{root}/datum"),
        )
    raise ParseError(f"unknown document kind {kind!r}", location=root)
