import pytest
import sympy

from rncgeo.curves import curve_equals, param_of_point, secancy
from rncgeo.errors import BadShape
from rncgeo.generate import random_transform, rng_from_seed
from rncgeo.postulation import (
    SchemeSpec,
    ah_exceptions_suite,
    conditions_rows,
    defect_explanation,
    double_point_report,
    expected_quartic_conditions,
    hilbert_function,
    quartic_shape_spec,
    space_condition_count,
)
from rncgeo.projective import LinForm, Pencil, ProjPoint, apply_transform


def test_single_double_point_rows():
    spec = SchemeSpec(n=3, degree=4, double_points=(ProjPoint([1, 2, 3, 4]),))
    rows = conditions_rows(spec)
    assert len(rows) == 4
    report = hilbert_function(spec)
    assert report.actual_hf == 4 and report.deficit == 0


def test_single_double_line_rows():
    pencil = Pencil(LinForm([1, 1, 0, 3]), LinForm([0, 1, -1, 2]))
    spec = SchemeSpec(n=3, degree=4, double_spaces=(pencil,))
    rows = conditions_rows(spec)
    assert len(rows) == 13 == space_condition_count(3, 4)
    assert hilbert_function(spec).actual_hf == 13


def test_scheme_spec_refuses_repeated_entries():
    # proportional coordinates are the same point
    with pytest.raises(ValueError, match="double point is repeated"):
        SchemeSpec(
            n=3, degree=4, double_points=(ProjPoint([1, 2, 3, 4]), ProjPoint([2, 4, 6, 8]))
        )
    # the same span given by other forms is the same space
    first = Pencil(LinForm([1, 1, 0, 3]), LinForm([0, 1, -1, 2]))
    again = Pencil(LinForm([1, 2, -1, 5]), LinForm([0, 2, -2, 4]))
    with pytest.raises(ValueError, match="double space is repeated"):
        SchemeSpec(n=3, degree=4, double_spaces=(first, again))
    SchemeSpec(n=3, degree=4, double_points=(ProjPoint([1, 2, 3, 4]), ProjPoint([1, 2, 3, 5])))


def test_quartic_shape_row_count_n3():
    spec = quartic_shape_spec(3, seed=1)
    assert len(conditions_rows(spec)) == 33
    assert expected_quartic_conditions(3) == 33  # 20 + 5 + 8


def test_quartic_shape_values_n3():
    report = hilbert_function(quartic_shape_spec(3, seed=1))
    assert report.h_formula_value == 33
    assert report.total_monomials == 35
    assert report.expected == 33
    assert report.actual_hf == 32
    assert report.deficit == 1
    assert report.note is not None and "4-defective" in report.note


def test_quartic_shape_values_n4():
    report = hilbert_function(quartic_shape_spec(4, seed=3))
    assert report.h_formula_value == 65
    assert report.total_monomials == 70
    assert report.actual_hf <= 64
    assert report.deficit >= 1


def test_seeded_quartic_instance_can_be_special():
    # a seeded instance of the benchmark's labels with deficit 4, not 1:
    # the modular rank and the Bareiss rank agree on it
    from rncgeo.linalg import _bareiss_forward
    from rncgeo.scalars import integerize

    spec = quartic_shape_spec(3, "3-hilbert-ranks-r5.3-3")
    report = hilbert_function(spec)
    assert report.expected == 33 and report.actual_hf == 29 and report.deficit == 4
    rows = [integerize(r) for r in conditions_rows(spec)]
    assert report.expected - len(_bareiss_forward(rows, len(rows[0]))[0]) == 4


def test_quartic_shape_deficit_n5():
    report = hilbert_function(quartic_shape_spec(5, seed=5))
    assert report.h_formula_value == expected_quartic_conditions(5)
    assert report.deficit >= 1


def test_seven_double_points_p4_cubics():
    report = double_point_report(4, 7, 3, rng_from_seed(11))
    assert report.total_monomials == 35
    assert report.conditions_sum == 35
    assert report.expected == 35
    assert report.actual_hf == 34
    assert report.deficit == 1


def test_five_double_points_p2_quartics():
    report = double_point_report(2, 5, 4, rng_from_seed(13))
    assert report.expected == 15
    assert report.actual_hf == 14
    assert report.deficit == 1


def test_rank_cross_check_sympy():
    # independent oracle on a small mixed instance
    spec = SchemeSpec(
        n=3,
        degree=3,
        double_points=(ProjPoint([1, 2, 3, 4]), ProjPoint([1, -1, 2, 1])),
        double_spaces=(Pencil(LinForm([1, 1, 0, 3]), LinForm([0, 1, -1, 2])),),
    )
    rows = conditions_rows(spec)
    assert hilbert_function(spec).actual_hf == sympy.Matrix(
        [[sympy.Rational(x) for x in row] for row in rows]
    ).rank()


def test_ah_suite():
    table = {
        (case.n, case.p, case.degree): case for case in ah_exceptions_suite(seed=0)
    }
    assert table[(2, 5, 4)].report.expected == 15
    assert table[(2, 5, 4)].report.actual_hf == 14
    assert table[(3, 9, 4)].report.expected == 35
    assert table[(3, 9, 4)].report.actual_hf == 34
    assert table[(4, 14, 4)].report.expected == 70
    assert table[(4, 14, 4)].report.actual_hf == 69
    assert table[(4, 7, 3)].report.actual_hf == 34
    control = table[(2, 5, 3)]
    assert not control.exceptional
    assert control.report.expected == 10  # min(C(5,3), 15)
    assert control.report.actual_hf == 10 and control.report.deficit == 0
    for key, case in table.items():
        assert case.report.deficit == (1 if case.exceptional else 0)


def test_defect_explanation_quartic_shape():
    spec = quartic_shape_spec(3, seed=21)
    witness = defect_explanation(spec)
    assert witness.ledger.intersection_lower_bound == 13  # 1 + 8 + 4
    assert witness.ledger.bezout_bound == 12
    assert witness.ledger.contradiction
    for p in spec.double_points:
        assert param_of_point(witness.curve, p) is not None
    assert secancy(witness.curve, spec.double_spaces[0]).is_n_minus_1_secant


def test_defect_explanation_n4_ledger():
    spec = quartic_shape_spec(4, seed=23)
    witness = defect_explanation(spec)
    assert witness.ledger.intersection_lower_bound == 17  # 1 + 10 + 6
    assert witness.ledger.bezout_bound == 16


def test_defect_explanation_seven_points():
    rng = rng_from_seed(25)
    from rncgeo.postulation import _seeded_points

    points = _seeded_points(4, 7, rng)
    spec = SchemeSpec(n=4, degree=3, double_points=tuple(points))
    witness = defect_explanation(spec)
    assert witness.ledger.intersection_lower_bound == 14
    assert witness.ledger.bezout_bound == 12
    for p in points:
        assert param_of_point(witness.curve, p) is not None
    assert curve_equals(witness.curve, witness.certificate.curve)


def test_defect_explanation_bad_shape():
    spec = SchemeSpec(n=3, degree=3, double_points=(ProjPoint([1, 2, 3, 4]),))
    with pytest.raises(BadShape):
        defect_explanation(spec)


def test_rank_invariant_under_transform():
    rng = rng_from_seed(31)
    spec = SchemeSpec(
        n=3,
        degree=3,
        double_points=(ProjPoint([1, 2, 3, 4]), ProjPoint([1, -1, 1, 2])),
        double_spaces=(Pencil(LinForm([1, 0, 1, 0]), LinForm([0, 1, 0, 2])),),
    )
    base = hilbert_function(spec).actual_hf
    for _ in range(100):
        moved = apply_transform(random_transform(3, rng), spec)
        assert hilbert_function(moved).actual_hf == base


def test_generic_single_conditions_independent():
    rng = rng_from_seed(37)
    from rncgeo.postulation import _seeded_points

    points = _seeded_points(3, 4, rng)
    spec = SchemeSpec(n=3, degree=3, double_points=tuple(points))
    report = hilbert_function(spec)
    assert report.actual_hf == report.conditions_sum == 16
