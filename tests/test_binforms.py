from fractions import Fraction as QQ

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeo.binforms import (
    BinaryForm,
    binary_gcd,
    form_from_roots,
    is_squarefree,
)
from rncgeo.curves import ParamRnc, reparametrize
from rncgeo.errors import BothZero, ZeroForm
from rncgeo.generate import random_rnc, rng_from_seed

from reference import divide_exact, substitute_by_fractions

# fixtures: s*u^2 - s^2*u = su(u-s) and s^2*u - s^3 = s^2(u-s)
F_SU = BinaryForm(3, [0, 1, -1, 0])
G_SS = BinaryForm(3, [0, 0, 1, -1])


def test_gcd_shared_factors():
    # common factor s(u-s); monic normal form is s^2 - su
    assert binary_gcd(F_SU, G_SS) == form_from_roots([(0, 1), (1, 1)])


def test_gcd_of_equal_forms_is_monic_self():
    f = BinaryForm(2, [2, 4, 6])
    assert binary_gcd(f, f) == f.monic()


def test_gcd_coprime():
    s = BinaryForm(1, [0, 1])
    u = BinaryForm(1, [1, 0])
    assert binary_gcd(s, u) == BinaryForm.constant_one()


def test_gcd_both_zero():
    with pytest.raises(BothZero):
        binary_gcd(BinaryForm.zero(2), BinaryForm.zero(1))


def test_gcd_counts_roots_at_infinity():
    # u^2 * (s - u) and u^3 share u^2
    f = form_from_roots([(1, 0), (1, 0), (1, 1)])
    g = BinaryForm(3, [1, 0, 0, 0])
    assert binary_gcd(f, g) == BinaryForm(2, [1, 0, 0])


def test_squarefree_examples():
    assert is_squarefree(BinaryForm(2, [0, 1, -1]))  # s(u-s)
    assert not is_squarefree(G_SS)  # s^2(u-s)
    assert is_squarefree(BinaryForm(3, [0, -1, 0, 1]))  # s^3 - su^2: roots 0, 1, -1
    assert not is_squarefree(BinaryForm(2, [1, 0, 0]))  # u^2: double root at (1:0)
    assert is_squarefree(BinaryForm(1, [1, 0]))


def test_squarefree_rejects_zero():
    with pytest.raises(ZeroForm):
        is_squarefree(BinaryForm.zero(3))


def test_divide_exact():
    prod = F_SU * G_SS
    assert divide_exact(prod, F_SU) == G_SS
    assert divide_exact(prod, G_SS) == F_SU
    with pytest.raises(ValueError):
        divide_exact(F_SU, BinaryForm(1, [1, 1]))


def test_evaluate():
    assert F_SU.evaluate(2, 1) == 2 - 4  # su^2 - s^2 u at (2,1)
    assert F_SU.evaluate(1, 0) == 0


roots_strategy = st.lists(
    st.one_of(st.tuples(st.integers(-5, 5), st.just(1)), st.just((1, 0))),
    min_size=0,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(roots_strategy, roots_strategy, roots_strategy)
def test_gcd_of_factored_products(shared, only_f, only_g):
    # oracle: build f and g from explicit root multisets; the gcd must be
    # exactly the product over the shared multiset
    shared_form = form_from_roots(shared) if shared else BinaryForm.constant_one()
    f = shared_form * form_from_roots(only_f)
    g = shared_form * form_from_roots(only_g)
    d = binary_gcd(f, g)
    expected = binary_gcd(shared_form * form_from_roots([]), shared_form)
    # shared divides the gcd and the gcd divides both inputs
    divide_exact(d, expected)
    divide_exact(f, d)
    divide_exact(g, d)
    # extra factors from accidental root collisions only: degree check by sympy
    t = sympy.symbols("t")
    pf = sympy.Poly([sympy.Rational(c) for c in reversed(f.coeffs)], t)
    pg = sympy.Poly([sympy.Rational(c) for c in reversed(g.coeffs)], t)
    core_deg = sympy.gcd(pf, pg).degree() if not pf.is_zero and not pg.is_zero else 0
    inf_mult = min(f.degree - pf.degree(), g.degree - pg.degree())
    assert d.degree == core_deg + inf_mult


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda p: p != (0, 0)),
)
def test_substitute_agrees_with_evaluation(mat, param):
    a, b, c, d = mat
    if a * d - b * c == 0:
        return
    f = BinaryForm(3, [1, -2, 0, 5])
    s, u = param
    assert f.substitute(a, b, c, d).evaluate(s, u) == f.evaluate(
        QQ(a) * s + QQ(b) * u, QQ(c) * s + QQ(d) * u
    )


rationals = st.builds(QQ, st.integers(-49, 49), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=1, max_size=7),
)
def test_substitute_matches_the_fraction_expansion(entries, coeffs):
    # any entries, singular and zero maps included: the expansion is the
    # same polynomial identity
    f = BinaryForm(len(coeffs) - 1, coeffs)
    assert f.substitute(*entries) == substitute_by_fractions(f, *entries)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(rationals, min_size=4, max_size=4).filter(lambda m: m[0] * m[3] != m[1] * m[2]),
    st.integers(1, 6),
    st.integers(0, 2**32),
)
def test_reparametrize_matches_the_fraction_expansion(entries, n, seed):
    curve = random_rnc(n, rng_from_seed(seed))
    expected = ParamRnc([substitute_by_fractions(f, *entries) for f in curve.forms])
    assert reparametrize(curve, *entries) == expected
