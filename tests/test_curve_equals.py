"""Curve equality by restriction, checked against the quadric-space route.

`quadric_space(a) == quadric_space(b)` decides equality by elimination and
is the reference here; `curve_equals` must agree with it on every pair and
must not eliminate at all when a parametrization meets a matrix.
"""

import random
from fractions import Fraction as QQ

import pytest

import rncgeo.curves as curves_module
import rncgeo.linalg as linalg_module
from rncgeo.binforms import BinaryForm
from rncgeo.curves import (
    DetRnc,
    curve_equals,
    det_to_param,
    param_to_det,
    reparametrize,
)
from rncgeo.errors import NotGenericMatrix
from rncgeo.generate import random_invertible_matrix, random_rnc
from rncgeo.projective import LinForm, ProjTransform, apply_transform
from reference import quadric_space

SEEDS = range(3)


def combine(forms, weights):
    """sum_k weights[k] * forms[k] as a LinForm."""
    n = forms[0].n
    return LinForm(
        [sum(w * f.coeffs[i] for w, f in zip(weights, forms)) for i in range(n + 1)]
    )


def row_op(det, a, b, c, d):
    top, bottom = det.m
    return DetRnc(
        [
            [combine([t, u], [a, b]) for t, u in zip(top, bottom)],
            [combine([t, u], [c, d]) for t, u in zip(top, bottom)],
        ]
    )


def column_op(det, matrix):
    n = det.n
    return DetRnc(
        [
            [combine(row, [matrix.entries[j][k] for j in range(n)]) for k in range(n)]
            for row in det.m
        ]
    )


def duplicate_column(det):
    top, bottom = det.m
    return DetRnc([[top[0], top[0], *top[2:]], [bottom[0], bottom[0], *bottom[2:]]])


def tamper(det, rng):
    top, bottom = det.m
    j, i = rng.randrange(det.n), rng.randrange(det.n + 1)
    coeffs = list(top[j].coeffs)
    coeffs[i] += 1 if coeffs[i] != -1 else 2  # never the zero form
    new_top = list(top)
    new_top[j] = LinForm(coeffs)
    return DetRnc([new_top, list(bottom)])


def invertible_2x2(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c:
            return a, b, c, d


def reference(a, b):
    return quadric_space(a) == quadric_space(b)


def cases(n, seed):
    """(label, param, det, expected) for one seeded curve."""
    rng = random.Random(f"curve-equals-{n}-{seed}")
    curve = random_rnc(n, rng)
    det = param_to_det(curve)
    a, b, c, d = invertible_2x2(rng)
    k = rng.choice([2, -3, 5])
    yield "row_op", curve, row_op(det, a, b, c, d), True
    yield "row_swap", curve, row_op(det, 0, 1, 1, 0), True
    yield "column_op", curve, column_op(det, random_invertible_matrix(n, rng, 3)), True
    yield "reparametrized", curve, param_to_det(reparametrize(curve, a, b, c, d)), True
    yield "singular_row_op", curve, row_op(det, a, b, k * a, k * b), False
    yield "duplicated_column", curve, duplicate_column(det), False
    yield "tampered", curve, tamper(det, rng), False
    yield "other_curve", curve, param_to_det(random_rnc(n, rng)), False


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_param_det_agrees_with_quadric_spaces(n):
    for seed in SEEDS:
        for label, curve, det, expected in cases(n, seed):
            assert reference(curve, det) == expected, (n, seed, label)
            assert curve_equals(curve, det) == expected, (n, seed, label)
            assert curve_equals(det, curve) == expected, (n, seed, label)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_param_param_agrees_with_quadric_spaces(n):
    for seed in SEEDS:
        rng = random.Random(f"param-param-{n}-{seed}")
        curve = random_rnc(n, rng)
        a, b, c, d = invertible_2x2(rng)
        moved = apply_transform(ProjTransform(random_invertible_matrix(n + 1, rng)), curve)
        pairs = [
            (reparametrize(curve, a, b, c, d), True),
            (random_rnc(n, rng), False),
            (moved, False),
        ]
        for other, expected in pairs:
            assert reference(curve, other) == expected, (n, seed)
            assert curve_equals(curve, other) == expected, (n, seed)
            assert curve_equals(other, curve) == expected, (n, seed)


def test_det_det_uses_quadric_spaces():
    rng = random.Random("det-det")
    curve = random_rnc(4, rng)
    det = param_to_det(curve)
    assert curve_equals(det, row_op(det, 1, 1, 0, 1))
    assert not curve_equals(det, duplicate_column(det))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_det_det_agrees_with_quadric_spaces(n):
    for seed in SEEDS:
        rng = random.Random(f"det-det-{n}-{seed}")
        curve = random_rnc(n, rng)
        det = param_to_det(curve)
        a, b, c, d = invertible_2x2(rng)
        same = column_op(row_op(det, a, b, c, d), random_invertible_matrix(n, rng, 3))
        pairs = [
            (same, True),
            (param_to_det(random_rnc(n, rng)), False),
            (duplicate_column(same), False),  # only one of the two is a rnc
        ]
        for other, expected in pairs:
            assert reference(det, other) == expected, (n, seed)
            assert curve_equals(det, other) == expected, (n, seed)
            assert curve_equals(other, det) == expected, (n, seed)
        # neither matrix defines a rnc: no answer, although their quadric
        # spaces agree
        left = duplicate_column(det)
        right = row_op(left, a, b, c, d)
        assert reference(left, right)
        for pair in ((left, right), (right, left)):
            with pytest.raises(NotGenericMatrix):
                det_to_param(pair[1])
            with pytest.raises(NotGenericMatrix):
                curve_equals(*pair)


def test_param_det_does_not_eliminate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("curve_equals must not eliminate")

    rng = random.Random("no-elimination")
    curve = random_rnc(9, rng)
    det = param_to_det(curve)
    other = column_op(det, random_invertible_matrix(9, rng, 3))
    different = param_to_det(random_rnc(9, rng))
    monkeypatch.setattr(curves_module, "nullspace", forbidden)
    # every RREF (`nullspace`, `Matrix.inverse`)
    monkeypatch.setattr(linalg_module, "_rref", forbidden)
    # and no gcd, division or `Fraction` form: integer products only
    for name in ("binary_gcd", "BinaryForm"):
        monkeypatch.setattr(curves_module, name, forbidden)
    assert curve_equals(curve, other)
    assert not curve_equals(curve, duplicate_column(other))
    assert not curve_equals(curve, different)


# -- the cases each clause of the restriction criterion catches --------------------


def form_restricting_to(curve, target):
    """The linear form whose restriction to the curve is d * target, for
    the fixed d > 0 of `_scaled_inverse`; linear normality makes it unique."""
    return LinForm(curves_module._combine_rows(target, curves_module._scaled_inverse(curve)))


def zero_form(n):
    """The zero linear form, which `LinForm` refuses to build."""
    form = object.__new__(LinForm)
    form.n, form.coeffs = n, (0,) * (n + 1)
    return form


def matrix_from_restrictions(curve, columns):
    """The matrix whose column j restricts to the curve as d * columns[j]."""
    return DetRnc(
        [
            [form_restricting_to(curve, col[r].coeffs) for col in columns]
            for r in (0, 1)
        ]
    )


def clause_cases(curve, rng):
    """(label, matrix, expected) for the matrices that each clause of the
    restriction criterion refuses, and two that define the curve."""
    n = curve.n
    u, s = BinaryForm(1, [0, 1]), BinaryForm(1, [1, 0])
    monomials = [BinaryForm(n - 1, [int(k == j) for k in range(n)]) for j in range(n)]
    hankel = [(u * h, s * h) for h in monomials]
    genuine = matrix_from_restrictions(curve, hankel)
    top, bottom = genuine.m
    lam = rng.choice([2, -3, QQ(5, 7)])
    phi = BinaryForm(2, [rng.randint(-3, 3), 1, rng.randint(1, 4)])
    psi = BinaryForm(2, [1, rng.randint(-3, 3), 0])
    quadratic = [BinaryForm(n - 2, [int(k == j) for k in range(n - 1)]) for j in range(n - 1)]
    quadratic.append(quadratic[0] + quadratic[-1])
    dependent = list(monomials)
    dependent[-1] = monomials[0] - 3 * monomials[1]
    zero = zero_form(n)
    return [
        ("genuine", genuine, True),
        ("column op", column_op(genuine, random_invertible_matrix(n, rng, 3)), True),
        ("proportional rows", DetRnc([top, [combine([f], [lam]) for f in top]]), False),
        (
            "quadratic factor",
            matrix_from_restrictions(curve, [(phi * h, psi * h) for h in quadratic]),
            False,
        ),
        (
            "dependent columns",
            matrix_from_restrictions(curve, [(u * h, s * h) for h in dependent]),
            False,
        ),
        ("identity fails", DetRnc([[bottom[0], *top[1:]], [top[0], *bottom[1:]]]), False),
        ("zero first column", DetRnc([[zero, *top[1:]], [zero, *bottom[1:]]]), False),
        ("zero top entry", DetRnc([[zero, *top[1:]], list(bottom)]), False),
        ("zero bottom entry", DetRnc([list(top), [zero, *bottom[1:]]]), False),
    ]


@pytest.mark.parametrize("n", range(3, 8))
def test_matrix_defines_clauses_agree_with_quadric_spaces(n, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the restriction criterion takes no gcd")

    rng = random.Random(f"clauses-{n}")
    curve = random_rnc(n, rng)
    cases = clause_cases(curve, rng)
    expected = [(label, quadric_space(det) == quadric_space(curve)) for label, det, _ in cases]
    assert expected == [(label, want) for label, _, want in cases]
    monkeypatch.setattr(curves_module, "binary_gcd", forbidden)
    got = [(label, curves_module._matrix_defines(curve, det)) for label, det, _ in cases]
    assert got == expected
