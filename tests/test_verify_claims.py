"""`rncgeo verify` checks an existence certificate's claims by evaluation.

Every document, genuine or tampered, must get the exit code and the bytes
of the route that recomputes every claim (`reference.py`); genuine
certificates must get them without an elimination, an inverse or a gcd.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from rncgeo import binforms, curves, linalg
from rncgeo.binforms import form_from_roots
from rncgeo.cli import main
from rncgeo.construct import Datum, construct
from rncgeo.curves import (
    chord_space,
    param_of_point,
    parameter,
    point_at_param,
    verify_claims,
    verify_datum,
)
from rncgeo.errors import NotGeneric
from rncgeo.generate import distinct_parameters, random_rnc, rng_from_seed
from rncgeo.linalg import Matrix
from rncgeo.scalars import format_rational
from rncgeo.serialize import certificate_out

from reference import verify_output_by_recomputation
from test_golden import GOLDEN, GOLDEN_LARGE, SHAPES, golden_datum


def chord_datum(n, p, l, seed):
    """The certificate of a forward datum, and the parameters on its curve
    of each space's n-1 chord points; the first datum from a fixed seed
    that `construct` certifies."""
    for attempt in range(20):
        rng = rng_from_seed(("claims", n, p, l, seed, attempt))
        curve = random_rnc(n, rng)
        count = p + l * (n - 1)
        params = distinct_parameters(count, rng, bound=max(30, count))
        roots = [params[p + k * (n - 1): p + (k + 1) * (n - 1)] for k in range(l)]
        datum = Datum(
            n=n,
            spaces=[chord_space(curve, r) for r in roots],
            points=[point_at_param(curve, t) for t in params[:p]],
        )
        try:
            cert = construct(datum)
        except NotGeneric:
            continue
        on_cert = [
            [param_of_point(cert.curve, point_at_param(curve, t)) for t in r] for r in roots
        ]
        return cert, on_cert
    raise AssertionError(f"no certified datum for {(n, p, l)}")


def verify_output(doc, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path)])
    return code, out.getvalue()


def golden_certificates():
    """The certificates whose bytes `test_golden.py` pins."""
    for key in [*GOLDEN, *GOLDEN_LARGE]:
        yield key, construct(golden_datum(key))


def test_golden_certificates_verify_with_the_recomputed_bytes(tmp_path):
    for key, cert in golden_certificates():
        doc = certificate_out(cert)
        output = verify_output(doc, tmp_path)
        assert output == verify_output_by_recomputation(doc), key
        assert output[0] == 0, key


def _edited(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc["report"])
    return doc


def _vector(values):
    return [format_rational(Fraction(v)) for v in values]


def tampered_documents(doc, roots):
    """Documents whose report differs from the genuine one in one claim."""
    n = doc["n"]
    points, spaces = doc["report"]["points"], doc["report"]["spaces"]
    s, u = (Fraction(str(x)) for x in points[0]["param"])
    out = {
        "param moved": lambda r: r["points"][0].update(
            param=_vector((s + u, u) if u else (0, 1))
        ),
        "param dropped": lambda r: r["points"][0].update(on_curve=False, param=None),
    }
    if len(points) >= 2:
        out["params swapped"] = lambda r: (
            r["points"][0].update(param=points[1]["param"]),
            r["points"][1].update(param=points[0]["param"]),
        )
        out["points reordered"] = lambda r: r["points"].reverse()
    if spaces:
        d_form = spaces[0]["secancy"]["d_form"]
        moved = form_from_roots([t.coords for t in roots[0][1:]] + [(1000, 1)])

        def secancy(**fields):
            return lambda r: r["spaces"][0]["secancy"].update(fields)

        doubled = _vector(2 * Fraction(str(c)) for c in d_form["coeffs"])
        out["d-form scaled"] = secancy(d_form={"degree": n - 1, "coeffs": doubled})
        out["d-form root moved"] = secancy(
            d_form={"degree": n - 1, "coeffs": _vector(moved.coeffs)}
        )
        out["degree claimed n"] = secancy(degree=n)
        out["d-form of degree n"] = secancy(
            degree=n, d_form={"degree": n, "coeffs": [0] + d_form["coeffs"]}
        )
        out["smooth flipped"] = secancy(smooth=False)
        out["secant flipped"] = secancy(is_n_minus_1_secant=False)
    if len(spaces) >= 2:
        out["spaces reordered"] = lambda r: r["spaces"].reverse()
    return {name: _edited(doc, edit) for name, edit in out.items()}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_tampered_claims_get_the_recomputed_bytes(shape, tmp_path):
    for n in range(3, 10):
        p, l = SHAPES[shape](n)
        cert, roots = chord_datum(n, p, l, 0)
        for sc, r in zip(cert.report.spaces, roots):
            assert sc.secancy.d_form == form_from_roots(t.coords for t in r)
        doc = certificate_out(cert)
        assert verify_output(doc, tmp_path) == verify_output_by_recomputation(doc)
        tampered = tampered_documents(doc, roots)
        assert len(tampered) >= 2 + 7 * (l > 0)
        for name, bad in tampered.items():
            result = verify_output(bad, tmp_path)
            assert result == verify_output_by_recomputation(bad), (n, name)
            assert result[0] == 10, (n, name)


def test_claims_at_the_ends_of_the_parameter_line():
    # parameters (0:1) and (1:0): d-forms without their constant or their
    # top coefficient, and points at the two ends
    curve = random_rnc(4, rng_from_seed("claims-ends"))
    roots = [
        [(0, 1), (2, 1), (4, 1)],
        [(1, 0), (-1, 1), (3, 1)],
        [(5, 1), (9, 1), (13, 1)],
    ]
    points = [point_at_param(curve, parameter(*t)) for t in ((0, 1), (1, 0), (7, 2))]
    datum = Datum(n=4, spaces=[chord_space(curve, r) for r in roots], points=points)
    report = verify_datum(curve, datum)
    assert report.passed
    first, second = (sc.secancy.d_form for sc in report.spaces[:2])
    assert first.coeffs[0] == 0 and second.coeffs[-1] == 0
    assert verify_claims(curve, datum, report) == report


def test_verify_claims_needs_a_passing_report():
    cert, _ = chord_datum(4, 3, 4, 0)
    failed = type(cert.report)(cert.report.points, cert.report.spaces, passed=False)
    assert verify_claims(cert.curve, cert.datum, failed) is None
    assert verify_claims(cert.curve, cert.datum, cert.report) == cert.report


def test_genuine_certificates_invert_nothing_and_take_no_secancy_gcd(monkeypatch, tmp_path):
    docs = [
        certificate_out(chord_datum(n, *SHAPES[shape](n), 1)[0])
        for n in range(3, 10)
        for shape in SHAPES
    ]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
    monkeypatch.setattr(curves, "secancy", counted("secancy", curves.secancy))
    for doc in docs:
        assert verify_output(doc, tmp_path)[0] == 0
    assert calls == []
    # the counters do count: a tampered claim takes the recomputing route
    tampered = _edited(docs[-1], lambda r: r["spaces"][0]["secancy"].update(smooth=False))
    assert verify_output(tampered, tmp_path)[0] == 10
    assert set(calls) == {"inverse", "secancy"}


def test_genuine_verify_takes_no_elimination_and_no_gcd(monkeypatch, tmp_path):
    # pencils take their stack in closed form and the curve-equality test
    # runs on integer products, so a genuine certificate of any shape meets
    # no reduced row echelon form, no inverse and no gcd
    docs = [
        certificate_out(chord_datum(n, *SHAPES[shape](n), 2)[0])
        for n in range(3, 8)
        for shape in SHAPES
    ]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(linalg, "_rref", counted("_rref", linalg._rref))
    monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
    gcd = counted("binary_gcd", binforms.binary_gcd)
    for module in (binforms, curves):
        monkeypatch.setattr(module, "binary_gcd", gcd)
    for doc in docs:
        assert verify_output(doc, tmp_path)[0] == 0
    assert calls == []
    # the counters do count: a tampered claim takes the recomputing route
    tampered = _edited(docs[-1], lambda r: r["spaces"][0]["secancy"].update(smooth=False))
    assert verify_output(tampered, tmp_path)[0] == 10
    assert set(calls) == {"_rref", "inverse", "binary_gcd"}
