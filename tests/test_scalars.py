"""Exact scalars: `Fraction`s are shared, not copied; floats are refused,
by the constructors and by every function that takes a parameter or a
scalar; document rationals are an optional sign and ASCII digits, "p" or "p/q"."""

import json
from fractions import Fraction

import pytest

from rncgeo.binforms import BinaryForm, form_from_roots
from rncgeo.cli import main
from rncgeo.curves import moment_curve, point_at, reparametrize
from rncgeo.errors import ParseError
from rncgeo.linalg import Matrix
from rncgeo.projective import LinForm, ProjPoint
from rncgeo.scalars import as_qq, parse_rational


def test_as_qq_shares_fractions_and_converts_the_rest():
    q = Fraction(-3, 7)
    assert as_qq(q) is q
    assert as_qq(5) == Fraction(5) and type(as_qq(5)) is Fraction
    assert as_qq("-2/6") == Fraction(-1, 3)
    with pytest.raises(TypeError):
        as_qq(0.5)


def test_constructors_keep_fraction_objects():
    a, b, c = Fraction(1), Fraction(-2, 3), Fraction(5, 7)
    form = LinForm([a, b, c])
    assert all(x is y for x, y in zip(form.coeffs, (a, b, c)))
    point = ProjPoint([a, b, c])  # already canonical: leading coordinate 1
    assert all(x is y for x, y in zip(point.coords, (a, b, c)))
    binary = BinaryForm(2, [a, b, c])
    assert all(x is y for x, y in zip(binary.coeffs, (a, b, c)))
    matrix = Matrix([[a, b], [c, a]])
    assert all(
        x is y
        for row, want in zip(matrix.entries, ((a, b), (c, a)))
        for x, y in zip(row, want)
    )


def test_constructors_still_convert_ints_and_strings():
    half = Fraction(1, 2)
    assert LinForm([1, "1/2"]).coeffs == (Fraction(1), half)
    assert ProjPoint([2, "1"]).coords == (Fraction(1), half)
    assert BinaryForm(1, ["-1/2", 3]).coeffs == (-half, Fraction(3))
    assert Matrix([[1, "1/2"]]).entries == ((Fraction(1), half),)
    for value in LinForm([1, "1/2"]).coeffs + Matrix([[1, "1/2"]]).entries[0]:
        assert type(value) is Fraction


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProjPoint([0.5, 1]),
        lambda: LinForm([0.1, 1]),
        lambda: BinaryForm(1, [1, 0.25]),
        lambda: Matrix([[1, 2.0]]),
    ],
    ids=["ProjPoint", "LinForm", "BinaryForm", "Matrix"],
)
def test_constructors_refuse_floats(build):
    with pytest.raises(TypeError):
        build()


CUBIC = moment_curve(3)
LINE = BinaryForm(1, [1, 1])  # u + s

# each scalar site as (call with x, its value at x = 1/2)
SCALAR_SITES = {
    "point_at": (lambda x: point_at(CUBIC, x, 1), ProjPoint([8, 4, 2, 1])),
    "reparametrize": (
        lambda x: reparametrize(CUBIC, x, 1, 0, 1), reparametrize(CUBIC, 1, 2, 0, 2)
    ),
    "BinaryForm.__mul__": (lambda x: LINE * x, BinaryForm(1, ["1/2", "1/2"])),
    "BinaryForm.evaluate": (lambda x: LINE.evaluate(x, 1), Fraction(3, 2)),
    "BinaryForm.substitute": (
        lambda x: LINE.substitute(x, 1, 0, 1), BinaryForm(1, [2, "1/2"])
    ),
    "form_from_roots": (lambda x: form_from_roots([(x, 1)]), BinaryForm(1, ["-1/2", 1])),
}


@pytest.mark.parametrize("site", SCALAR_SITES)
def test_scalar_sites_refuse_floats(site):
    call, _ = SCALAR_SITES[site]
    with pytest.raises(TypeError):
        call(0.5)


@pytest.mark.parametrize("site", SCALAR_SITES)
def test_scalar_sites_take_ints_fractions_and_strings(site):
    call, half = SCALAR_SITES[site]
    assert call(Fraction(1, 2)) == call("1/2") == call("2/4") == half
    assert call(3) == call(Fraction(3)) == call("3") != half


@pytest.mark.parametrize(
    "text, value",
    [("7", Fraction(7)), (" -3/6 ", Fraction(-1, 2)), ("+4/2", Fraction(2)), ("0/5", 0)],
)
def test_parse_rational_accepts_sign_and_ascii_digits(text, value):
    assert parse_rational(text) == value


BAD_RATIONALS = ["1_000", "١٢", "1/ 2", "1/-2", "1 /2", "1/+2", "", "/2", "1/", "0x10"]


@pytest.mark.parametrize("text", BAD_RATIONALS)
def test_parse_rational_refuses_other_spellings(text):
    with pytest.raises(ParseError):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1_000", "١٢", "1/ 2", "1/-2"])
def test_cli_refuses_other_spellings(tmp_path, capsys, text):
    doc = {"version": 1, "kind": "datum", "n": 3, "spaces": [], "points": [[text, 1, 1, 1]]}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    assert main(["construct", str(path)]) == 13
    assert json.loads(capsys.readouterr().out)["error_class"] == "parse_error"
