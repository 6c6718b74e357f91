import io
import json
from fractions import Fraction

import pytest

from rncgeo.cli import main
from rncgeo.construct import construct
from rncgeo.curves import curve_equals, det_to_param, moment_curve, verify_datum
from rncgeo.errors import ParseError
from rncgeo.generate import forward_datum, random_datum, random_transform, rng_from_seed
from rncgeo.obstruct import nonexistence_certificate
from rncgeo.postulation import quartic_shape_spec
from rncgeo.projective import LinForm, Pencil, apply_transform
from rncgeo.serialize import (
    certificate_in,
    certificate_out,
    datum_in,
    datum_out,
    from_doc,
    obstruction_in,
    obstruction_out,
    scheme_spec_in,
    scheme_spec_out,
    to_doc,
)


def steiner_datum_doc():
    rng = rng_from_seed(77)
    datum, _ = forward_datum(3, 3, 3, rng)
    return datum_out(datum)


def test_datum_roundtrip():
    rng = rng_from_seed(1)
    datum, _ = forward_datum(3, 5, 1, rng)
    doc = datum_out(datum)
    assert datum_in(json.loads(json.dumps(doc))) == datum


def test_datum_span_points_input():
    doc = {
        "version": 1,
        "kind": "datum",
        "n": 3,
        "spaces": [{"span_points": [[1, 0, 0, 0], [1, 1, 1, 1]]}],
        "points": [[1, 2, 4, 8]],
    }
    datum = datum_in(doc)
    assert datum.spaces[0] == Pencil(LinForm([0, 1, -1, 0]), LinForm([0, 0, 1, -1]))


def test_rationals_exact():
    doc = {
        "version": 1,
        "kind": "datum",
        "n": 3,
        "spaces": [],
        "points": [["1/2", "-3/4", 1, 0]],
    }
    datum = datum_in(doc)
    out = datum_out(datum)
    # canonicalized: first nonzero coordinate 1
    assert out["points"][0] == [1, "-3/2", 2, 0]


def test_zero_denominator_rejected():
    doc = {
        "version": 1,
        "kind": "datum",
        "n": 3,
        "spaces": [],
        "points": [["1/0", 1, 1, 1]],
    }
    with pytest.raises(ParseError):
        datum_in(doc)


def test_float_rejected():
    doc = {"version": 1, "kind": "datum", "n": 3, "spaces": [], "points": [[0.5, 1, 1, 1]]}
    with pytest.raises(ParseError):
        datum_in(doc)


def test_certificate_roundtrip():
    rng = rng_from_seed(3)
    datum, _ = forward_datum(3, 6, 0, rng)
    cert = construct(datum)
    doc = json.loads(json.dumps(certificate_out(cert)))
    back = certificate_in(doc)
    assert back.method == cert.method
    assert back.curve == cert.curve
    assert back.det == cert.det
    assert back.datum == cert.datum
    assert back.report == cert.report
    # re-verification from the parsed form
    assert verify_datum(back.curve, back.datum).passed
    assert curve_equals(back.curve, back.det)


def test_obstruction_roundtrip_reverifies():
    rng = rng_from_seed(5)
    datum, _ = random_datum(3, 4, 2, rng)
    cert = nonexistence_certificate(datum)
    back = obstruction_in(json.loads(json.dumps(obstruction_out(cert))))
    assert back.verify()
    assert back.quadric == cert.quadric


def test_scheme_spec_roundtrip():
    spec = quartic_shape_spec(3, seed=9)
    doc = json.loads(json.dumps(scheme_spec_out(spec)))
    assert scheme_spec_in(doc) == spec


def test_curve_doc_roundtrip_cross_representation():
    from rncgeo.curves import param_to_det

    c = moment_curve(3)
    assert from_doc(to_doc(c)) == c
    det_doc = to_doc(param_to_det(c))
    parsed = from_doc(det_doc)  # a DetRnc again
    assert parsed == param_to_det(c)
    assert curve_equals(det_to_param(parsed), c)


def test_unknown_kind():
    with pytest.raises(ParseError):
        from_doc({"kind": "mystery"})


# -- CLI ------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_expect(capsys):
    code, out = run_cli(capsys, "expect", "3", "4", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "finite_expected"
    assert doc["classification"] == "not_exists"


def test_cli_expect_text(capsys):
    code, out = run_cli(capsys, "--format", "text", "expect", "3", "6", "0")
    assert code == 0
    assert "exists_unique" in out


def test_cli_construct_roundtrip(tmp_path, capsys):
    doc = steiner_datum_doc()
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 0
    cert_doc = json.loads(out)
    assert cert_doc["kind"] == "existence_certificate"
    assert cert_doc["report"]["passed"] is True

    # verify the emitted certificate
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out = run_cli(capsys, "verify", str(cert_path))
    assert code == 0


def test_cli_verify_rejects_duplicated_det_column(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(steiner_datum_doc()))
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 0
    cert_doc = json.loads(out)
    for row in cert_doc["det"]["rows"]:
        row[1] = row[0]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert_doc))
    code, out = run_cli(capsys, "verify", str(cert_path))
    assert code == 10
    assert json.loads(out)["passed"] is False


def test_cli_construct_obstruction_exit(tmp_path, capsys):
    rng = rng_from_seed(11)
    datum, _ = random_datum(3, 4, 2, rng)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_out(datum)))
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 10
    assert json.loads(out)["kind"] == "obstruction_certificate"
    code, _ = run_cli(capsys, "obstruct", str(path))
    assert code == 10


def test_cli_construct_unsupported(tmp_path, capsys):
    rng = rng_from_seed(13)
    datum, _ = forward_datum(4, 0, 7, rng)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_out(datum)))
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 12
    assert json.loads(out)["kind"] == "unsupported"


def test_cli_bad_shape_reports_analysis(tmp_path, capsys):
    rng = rng_from_seed(17)
    datum, _ = forward_datum(3, 2, 1, rng)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_out(datum)))
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 12
    doc = json.loads(out)
    assert doc["kind"] == "error"
    assert doc["analysis"]["verdict"] == "positive_dimensional"


def test_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 13
    assert json.loads(out)["error_class"] == "parse_error"


def _feed(tmp_path, monkeypatch, source, data):
    if source == "file":
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        return str(path)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    return "-"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_cli_non_utf8_document_is_a_parse_error(tmp_path, capsys, monkeypatch, source):
    path = _feed(tmp_path, monkeypatch, source, bytes([0xFF, 0xFE, 0x7B, 0x7D]))
    code, out = run_cli(capsys, "construct", path)
    assert code == 13
    assert json.loads(out)["error_class"] == "parse_error"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_cli_overlong_integer_is_a_parse_error(tmp_path, capsys, monkeypatch, source):
    # past Python's 4300-digit limit on integer string conversion
    data = b'{"kind": "datum", "n": ' + b"7" * 5000 + b"}"
    code, out = run_cli(capsys, "construct", _feed(tmp_path, monkeypatch, source, data))
    assert code == 13
    assert json.loads(out)["error_class"] == "parse_error"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_cli_deeply_nested_document_is_a_parse_error(tmp_path, capsys, monkeypatch, source):
    data = b"[" * 100_000
    code, out = run_cli(capsys, "construct", _feed(tmp_path, monkeypatch, source, data))
    assert code == 13
    assert json.loads(out)["error_class"] == "parse_error"


def test_cli_hilbert(tmp_path, capsys):
    spec = quartic_shape_spec(3, seed=1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(scheme_spec_out(spec)))
    code, out = run_cli(capsys, "hilbert", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["actual_hf"] == 32 and doc["deficit"] == 1

    code, out = run_cli(capsys, "hilbert", "--explain", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["explanation"]["ledger"]["intersection_lower_bound"] == 13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cli_hilbert_explain_embeds_a_certificate_that_verifies(tmp_path, capsys, n):
    # the quartic-shape witness is an (n+2, 1) existence certificate
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(scheme_spec_out(quartic_shape_spec(n, seed=1))))
    code, out = run_cli(capsys, "hilbert", "--explain", str(path))
    assert code == 0
    cert = json.loads(out)["explanation"]["certificate"]
    assert cert["method"] == "np2_one_space"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out = run_cli(capsys, "verify", str(cert_path))
    assert code == 0
    assert json.loads(out)["passed"] is True


def write_spec(tmp_path, n, degree):
    path = tmp_path / f"spec-{n}-{degree}.json"
    doc = {"version": 1, "kind": "scheme_spec", "n": n, "degree": degree}
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "n, degree",
    # C(14, 5) = 2002 monomials, just above the cap; n and d huge together;
    # P^1 and below, where the space condition count is undefined
    [(9, 5), (10, 4000), (10**9, 10**9), (1, 2), (0, 3), (-10, 2)],
)
def test_cli_hilbert_rejects_oversized_specs(tmp_path, capsys, n, degree):
    code, out = run_cli(capsys, "hilbert", str(write_spec(tmp_path, n, degree)))
    assert code == 13
    assert json.loads(out)["error_class"] == "bad_dimension"


@pytest.mark.parametrize(
    "entries",
    [
        {"double_points": [[1, 2, 3, 4], [2, 4, 6, 8]]},
        {"double_spaces": [{"forms": [[1, 1, 0, 3], [0, 1, -1, 2]]},
                           {"forms": [[1, 2, -1, 5], [0, 2, -2, 4]]}]},
    ],
)
def test_cli_hilbert_rejects_repeated_entries(tmp_path, capsys, entries):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"version": 1, "kind": "scheme_spec", "n": 3, "degree": 4,
                                **entries}))
    code, out = run_cli(capsys, "hilbert", str(path))
    assert code == 13
    doc = json.loads(out)
    assert doc["error_class"] == "parse_error"
    assert "repeated" in doc["message"]


def test_cli_hilbert_below_the_cap(tmp_path, capsys):
    code, out = run_cli(capsys, "hilbert", str(write_spec(tmp_path, 4, 12)))
    assert code == 0
    assert json.loads(out)["total_monomials"] == 1820


def construct_doc(tmp_path, capsys, datum):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_out(datum)))
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 0
    return json.loads(out)


def verify_doc(tmp_path, capsys, doc):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", str(path))
    assert json.loads(out)["passed"] is (code == 0)
    return code


def test_cli_verify_checks_the_embedded_report_and_method(tmp_path, capsys):
    for n, p, l in ((3, 6, 0), (3, 5, 1), (3, 3, 3), (3, 2, 4), (3, 1, 5)):
        datum, _ = forward_datum(n, p, l, rng_from_seed(("verify-report", p, l)))
        doc = construct_doc(tmp_path, capsys, datum)
        assert verify_doc(tmp_path, capsys, doc) == 0, (p, l)
    failed = json.loads(json.dumps(doc))
    failed["report"]["passed"] = False
    moved = json.loads(json.dumps(doc))
    param = moved["report"]["points"][0]["param"]
    moved["report"]["points"][0]["param"] = [1, 0] if param != [1, 0] else [0, 1]
    made_up = json.loads(json.dumps(doc))
    made_up["method"] = "made_up"
    for name, tampered in (("passed", failed), ("param", moved), ("method", made_up)):
        assert verify_doc(tmp_path, capsys, tampered) == 10, name


BOOLEAN_CLAIMS = {
    "passed": lambda report: report,
    "on_curve": lambda report: report["points"][0],
    "smooth": lambda report: report["spaces"][0]["secancy"],
    "is_n_minus_1_secant": lambda report: report["spaces"][0]["secancy"],
}


@pytest.mark.parametrize("field", BOOLEAN_CLAIMS)
def test_cli_verify_boolean_claims_are_json_booleans(tmp_path, capsys, field):
    # each flag was once read with bool(): "no", "false" and [0] passed as
    # true, and a missing on_curve failed verification instead of parsing
    datum, _ = random_datum(4, 3, 4, rng_from_seed(1), forward=True)
    doc = construct_doc(tmp_path, capsys, datum)
    assert verify_doc(tmp_path, capsys, doc) == 0
    for value in ("no", "false", "true", [0], [], 1, 0, None, "missing"):
        bad = json.loads(json.dumps(doc))
        holder = BOOLEAN_CLAIMS[field](bad["report"])
        if value == "missing":
            del holder[field]
        else:
            holder[field] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(bad))
        code, out = run_cli(capsys, "verify", str(path))
        assert code == 13, (field, value)
        assert json.loads(out)["error_class"] == "parse_error", (field, value)


def test_cli_verify_accepts_other_matrices_of_the_same_curve(tmp_path, capsys):
    # verify locates points through the document's curve, not its matrix:
    # a genuine certificate with its det rows swapped, or its columns
    # rescaled, defines the same curve and still passes
    def scaled(x, k):
        v = Fraction(str(x)) * k
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    for n, p, l in ((3, 5, 1), (4, 3, 4), (4, 2, 5), (4, 1, 6), (4, 7, 0)):
        datum, _ = forward_datum(n, p, l, rng_from_seed(("verify-matrix", p, l)))
        doc = construct_doc(tmp_path, capsys, datum)
        swapped = json.loads(json.dumps(doc))
        swapped["det"]["rows"].reverse()
        rescaled = json.loads(json.dumps(doc))
        for row in rescaled["det"]["rows"]:
            for j, column in enumerate(row):
                k = Fraction(-(j + 2), 3) if j % 2 else Fraction(j + 1, 5)
                row[j] = [scaled(x, k) for x in column]
        for name, tampered in (("swapped", swapped), ("rescaled", rescaled)):
            assert tampered["det"] != doc["det"]
            assert verify_doc(tmp_path, capsys, tampered) == 0, (p, l, name)


def test_cli_ah_suite(capsys):
    code, out = run_cli(capsys, "ah-suite", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    deficits = {
        (c["n"], c["p"], c["degree"]): c["report"]["deficit"] for c in doc["cases"]
    }
    assert deficits[(4, 7, 3)] == 1
    assert deficits[(2, 5, 3)] == 0


def test_cli_equivalent(tmp_path, capsys):
    rng = rng_from_seed(19)
    datum, _ = forward_datum(3, 6, 0, rng)
    moved = apply_transform(random_transform(3, rng), datum)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(datum_out(datum)))
    b.write_text(json.dumps(datum_out(moved)))
    code, out = run_cli(capsys, "equivalent", str(a), str(b))
    assert code == 0
    assert json.loads(out)["equivalent"] is True

    other, _ = forward_datum(3, 6, 0, rng)
    b.write_text(json.dumps(datum_out(other)))
    code, out = run_cli(capsys, "equivalent", str(a), str(b))
    assert code == 10
    assert json.loads(out)["equivalent"] is False


def test_cli_random_datum_deterministic_and_oracle(tmp_path, capsys):
    code, out1 = run_cli(
        capsys, "random-datum", "3", "5", "1", "--seed", "42", "--oracle"
    )
    assert code == 0
    code, out2 = run_cli(
        capsys, "random-datum", "3", "5", "1", "--seed", "42", "--oracle"
    )
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    datum = datum_in(doc["datum"])
    curve = from_doc(doc["oracle_curve"])
    assert verify_datum(curve, datum).passed
    # reconstruction against the oracle
    assert curve_equals(construct(datum).curve, curve)


def _random_datum_file(tmp_path, capsys, n, p, l):
    code, out = run_cli(capsys, "random-datum", str(n), str(p), str(l), "--seed", "1")
    assert code == 0
    path = tmp_path / f"datum-{n}-{p}-{l}.json"
    path.write_text(json.dumps(json.loads(out)["datum"]))
    return path


@pytest.mark.parametrize("n, p, l", [(4, 4, 2), (6, 4, 2), (3, 6, 3), (5, 9, 4), (4, 6, 2)])
def test_cli_obstruct_at_any_total(tmp_path, capsys, n, p, l):
    # four points and two spaces carry the obstruction, on or off the
    # p + l = n + 3 line; `construct` routes these shapes the same way
    path = _random_datum_file(tmp_path, capsys, n, p, l)
    code, out = run_cli(capsys, "obstruct", str(path))
    assert code == 10
    assert json.loads(out)["kind"] == "obstruction_certificate"
    cert_path = tmp_path / "obstruction.json"
    cert_path.write_text(out)
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 10
    assert out == cert_path.read_text()
    code, out = run_cli(capsys, "verify", str(cert_path))
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("n, p, l", [(3, 3, 1), (3, 7, 0), (4, 3, 5)])
def test_cli_off_line_shapes_without_the_obstruction_stay_unsupported(tmp_path, capsys, n, p, l):
    path = _random_datum_file(tmp_path, capsys, n, p, l)
    code, out = run_cli(capsys, "obstruct", str(path))
    assert code == 12
    assert json.loads(out)["error_class"] == "bad_shape"
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 12
    doc = json.loads(out)
    assert doc["error_class"] == "bad_shape"
    assert doc["analysis"] == json.loads(run_cli(capsys, "expect", str(n), str(p), str(l))[1])


@pytest.mark.parametrize("n, p, l", [(3, 3, 1), (3, 7, 0), (4, 3, 5), (2, 4, 2), (2, 3, 1)])
def test_cli_obstruct_error_documents_match_construct(tmp_path, capsys, n, p, l):
    # `obstruct` takes the count first, as `construct` and `expect` do: a
    # shape it cannot answer carries the analysis, and n < 3 is a bad
    # dimension for all three commands
    path = _random_datum_file(tmp_path, capsys, n, p, l)
    code, out = run_cli(capsys, "obstruct", str(path))
    obstruct_doc = json.loads(out)
    construct_code, out = run_cli(capsys, "construct", str(path))
    construct_doc = json.loads(out)
    expect_code, out = run_cli(capsys, "expect", str(n), str(p), str(l))
    if n < 3:
        assert code == construct_code == expect_code == 13
        for doc in (obstruct_doc, construct_doc, json.loads(out)):
            assert doc["error_class"] == "bad_dimension"
    else:
        assert code == construct_code == 12
        assert obstruct_doc["error_class"] == construct_doc["error_class"] == "bad_shape"
        assert obstruct_doc["analysis"] == construct_doc["analysis"] == json.loads(out)


def test_cli_random_datum_stdin_construct(tmp_path, capsys, monkeypatch):
    import io

    code, out = run_cli(capsys, "random-datum", "3", "6", "0", "--seed", "7", "--forward")
    doc = json.loads(out)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc["datum"])))
    code, out = run_cli(capsys, "construct", "-")
    assert code == 0


def test_cli_verify_request_paths(tmp_path, capsys):
    c = moment_curve(3)
    datum_doc = {
        "version": 1,
        "kind": "datum",
        "n": 3,
        "spaces": [],
        "points": [[1, 2, 4, 8], [1, 1, 1, 1]],
    }
    req = {"version": 1, "kind": "verify_request", "curve": to_doc(c), "datum": datum_doc}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(req))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["passed"] is True

    # a determinantal curve document works too
    from rncgeo.curves import param_to_det

    req["curve"] = to_doc(param_to_det(c))
    path.write_text(json.dumps(req))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0

    # failing verification exits with the negative-result code
    datum_doc["points"].append([1, 1, 2, 3])
    req["curve"] = to_doc(c)
    path.write_text(json.dumps(req))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 10 and json.loads(out)["passed"] is False


def test_cli_equivalent_unsupported_shape(tmp_path, capsys):
    rng = rng_from_seed(23)
    datum, _ = forward_datum(3, 2, 4, rng)
    a = tmp_path / "a.json"
    a.write_text(json.dumps(datum_out(datum)))
    code, out = run_cli(capsys, "equivalent", str(a), str(a))
    assert code == 12
    assert json.loads(out)["error_class"] == "unsupported"


def test_cli_hilbert_explain_bad_shape(tmp_path, capsys):
    doc = {
        "version": 1,
        "kind": "scheme_spec",
        "n": 3,
        "degree": 3,
        "double_points": [[1, 2, 3, 4]],
        "double_spaces": [],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "hilbert", str(path))
    assert code == 0  # plain report is fine
    code, out = run_cli(capsys, "hilbert", "--explain", str(path))
    assert code == 12  # no witness for this shape


def test_cli_malformed_documents_never_crash(tmp_path, capsys):
    # every structurally broken document must exit 13 with an error doc
    broken = [
        "[1, 2, 3]",
        '{"kind": "datum"}',
        '{"kind": "datum", "n": "three", "points": [], "spaces": []}',
        '{"kind": "datum", "n": 3, "points": 7, "spaces": []}',
        '{"kind": "datum", "n": 3, "points": [[1, 2]], "spaces": []}',
        '{"kind": "datum", "n": 3, "points": [[0, 0, 0, 0]], "spaces": []}',
        '{"kind": "datum", "n": 3, "points": [], "spaces": [{"forms": [[1,0,0,0]]}]}',
        '{"kind": "datum", "n": 3, "points": [], "spaces": [[1, 2]]}',
        '{"kind": "existence_certificate", "curve": 5}',
        '{"kind": "existence_certificate", "curve": {"kind": "param_rnc", "n": 3}}',
        '{"kind": "verify_request", "curve": null, "datum": null}',
        '{"kind": "obstruction_certificate", "n": 3, "ledger": "x"}',
        '{"kind": "scheme_spec", "n": 3, "degree": 4, "double_points": 1}',
        '"just a string"',
        "null",
    ]
    path = tmp_path / "broken.json"
    for i, text in enumerate(broken):
        path.write_text(text)
        for command in (["construct"], ["verify"], ["obstruct"], ["hilbert"]):
            code = main(command + [str(path)])
            out = capsys.readouterr().out
            assert code == 13, (i, command, text, out)
            assert json.loads(out)["error_class"] == "parse_error"


def test_cli_not_generic_exit(tmp_path, capsys):
    # degenerate: five coplanar points among the n+3
    doc = {
        "version": 1,
        "kind": "datum",
        "n": 3,
        "spaces": [],
        "points": [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 1, 1, 0],
            [1, 1, 1, 1],
            [1, 2, 3, 4],
        ],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "construct", str(path))
    assert code == 11
    parsed = json.loads(out)
    assert parsed["error_class"] == "not_generic"
    assert "witness" in parsed


def obstruction_doc():
    datum, _ = random_datum(3, 4, 2, rng_from_seed(11))
    return obstruction_out(nonexistence_certificate(datum))


def test_cli_verify_obstruction_certificate(tmp_path, capsys):
    path = tmp_path / "obstruction.json"
    path.write_text(json.dumps(obstruction_doc()))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "verification"
    assert doc["passed"] is True
    code, out = run_cli(capsys, "--format", "text", "verify", str(path))
    assert code == 0 and "PASS" in out


def test_cli_verify_rejects_tampered_obstructions(tmp_path, capsys):
    ledger = obstruction_doc()
    ledger["ledger"] = {"intersection_lower_bound": 1, "bezout_bound": 0}
    quadric = obstruction_doc()
    k = next(i for i, c in enumerate(quadric["quadric"]) if c != 0)
    quadric["quadric"][k] = "7/3" if quadric["quadric"][k] != "7/3" else 2
    for name, doc in (("ledger", ledger), ("quadric", quadric)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "verify", str(path))
        assert code == 10, name
        assert json.loads(out)["passed"] is False
