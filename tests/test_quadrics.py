import random
from fractions import Fraction as QQ

from rncgeo.errors import DegenerateSpan
from rncgeo.generate import random_pencil, rng_from_seed
from rncgeo.linalg import ff_rank, nullspace
from rncgeo.projective import LinForm, Pencil, ProjPoint
from rncgeo.quadrics import (
    containment_rows,
    double_space_rows,
    evaluate_poly,
    linform_product_vector,
    monomial_count,
    monomial_index,
    monomials,
    point_derivative_rows,
    point_value_row,
)
from rncgeo.scalars import integerize
from reference import canonical_rowspace, space_rows_by_inverse


def test_quadric_monomial_order_p3():
    # grevlex descending on 4 variables
    assert monomials(3, 2) == [
        (2, 0, 0, 0),
        (1, 1, 0, 0),
        (0, 2, 0, 0),
        (1, 0, 1, 0),
        (0, 1, 1, 0),
        (0, 0, 2, 0),
        (1, 0, 0, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 2),
    ]


def test_monomial_count():
    for n, d in [(2, 3), (3, 4), (4, 4), (6, 2)]:
        assert len(monomials(n, d)) == monomial_count(n, d)


def test_containment_rows_kernel_is_ideal_slice():
    # quadrics containing {x0 = x1 = 0} in P^3 are exactly x0*S1 + x1*S1
    pencil = Pencil(LinForm([1, 0, 0, 0]), LinForm([0, 1, 0, 0]))
    rows = containment_rows(pencil, 2)
    assert len(rows) == 3  # C(n, 2) conditions for n = 3
    kernel = nullspace(rows)
    assert len(kernel) == 7  # 2(n+1) - 1
    monos = monomials(3, 2)
    idx = monomial_index(monos)
    span = []
    for lead in ([1, 0, 0, 0], [0, 1, 0, 0]):
        for j in range(4):
            other = [0] * 4
            other[j] = 1
            span.append(linform_product_vector(lead, other, idx))
    assert canonical_rowspace(kernel) == canonical_rowspace(span)


def test_containment_rows_random_space():
    pencil = Pencil(LinForm([1, 2, 3, 4]), LinForm([0, 1, -1, 2]))
    rows = containment_rows(pencil, 2)
    monos = monomials(3, 2)
    idx = monomial_index(monos)
    f, g = pencil.canonical_forms()
    inside = linform_product_vector(f.coeffs, [1, 1, 1, 1], idx)
    outside = linform_product_vector([1, 0, 0, 1], [0, 0, 1, 1], idx)
    assert all(sum((r * v for r, v in zip(row, inside)), QQ(0)) == 0 for row in rows)
    assert any(sum((r * v for r, v in zip(row, outside)), QQ(0)) != 0 for row in rows)


def test_double_point_rows():
    monos = monomials(3, 4)
    rows = point_derivative_rows(ProjPoint([1, 2, 3, 4]), monos)
    assert len(rows) == 4
    assert ff_rank(rows) == 4


def test_double_line_rows_p3_degree4():
    pencil = Pencil(LinForm([1, 0, 0, 0]), LinForm([0, 1, 0, 0]))
    rows = double_space_rows(pencil, 4)
    # C(d+n-2, n-2) + 2 C(d+n-3, n-2) = 5 + 2*4 = 13 for n=3, d=4
    assert len(rows) == 13
    assert ff_rank(rows) == 13


def test_value_row_and_poly_eval():
    monos = monomials(3, 2)
    p = ProjPoint([1, 1, 2, 3])
    row = point_value_row(p, monos)
    # the quadric x1*x2 - x0*x3 evaluated at (1:1:2:3) is 2 - 3 = -1
    coeffs = [QQ(0)] * len(monos)
    idx = monomial_index(monos)
    coeffs[idx[(0, 1, 1, 0)]] = QQ(1)
    coeffs[idx[(1, 0, 0, 1)]] = QQ(-1)
    assert evaluate_poly(coeffs, monos, p) == QQ(-1)
    assert sum((c * v for c, v in zip(coeffs, row)), QQ(0)) == QQ(-1)


def fraction_gradient_rows(point, monos):
    """d/dx_i of every monomial at the point, in Fraction arithmetic."""
    rows = []
    for i in range(point.n + 1):
        row = []
        for m in monos:
            val = QQ(m[i])
            if m[i]:
                for j, (x, k) in enumerate(zip(point.coords, m)):
                    val *= x ** (k - (j == i))
            row.append(val)
        rows.append(row)
    return rows


def test_point_derivative_rows_are_integerized_fraction_rows():
    rng = random.Random("gradient-rows")
    for n, d in [(2, 1), (2, 3), (3, 4), (4, 4), (5, 2)]:
        monos = monomials(n, d)
        for _ in range(4):
            coords = [QQ(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1)]
            coords[rng.randrange(n + 1)] = QQ(rng.randint(1, 5), rng.randint(1, 3))
            point = ProjPoint(coords)
            rows = point_derivative_rows(point, monos)
            assert all(type(x) is int for row in rows for x in row)
            assert rows == [integerize(r) for r in fraction_gradient_rows(point, monos)]


def test_space_rows_are_primitive_integers():
    rng = rng_from_seed(41)
    cases = [(3, 2, containment_rows), (4, 3, double_space_rows), (5, 4, double_space_rows)]
    for n, d, make in cases:
        rows = make(random_pencil(n, rng), d)
        assert all(type(x) is int for row in rows for x in row)
        assert all(integerize(row) == row for row in rows)
        assert ff_rank(rows) == len(rows)


# (n, d, order): containment at d = 2 and doubled spaces up to quartics
ROW_GRID = [(3, 2, 1), (3, 4, 2), (4, 4, 2), (5, 4, 2), (6, 3, 2), (7, 2, 1), (9, 2, 1)]


def unit(n, *terms):
    """The linear form sum c x_j on P^n for the given (j, c) pairs."""
    coeffs = [0] * (n + 1)
    for j, c in terms:
        coeffs[j] = c
    return LinForm(coeffs)


def sparse_pencils(n, rng):
    """Pencils whose canonical stacks are sparse: a unit first row, zero
    trailing columns, pivots away from columns 0 and 1, and random stacks
    with two thirds of the coefficients zero."""
    pencils = [
        Pencil(unit(n, (0, 1)), unit(n, (1, 1))),  # {x0 = x1 = 0}
        Pencil(unit(n, (1, 1)), unit(n, (2, 3), (n, -2))),  # unit first row
        Pencil(unit(n, (0, 2), (1, 1)), unit(n, (1, 1), (2, -1))),  # m1 = 2 < n
        Pencil(unit(n, (n - 1, 1)), unit(n, (n, 1))),  # pivots n-1, n
        # column n-1 is proportional to m1 = n, so m0 = 1
        Pencil(unit(n, (0, 1), (n - 1, 3), (n, 6)), unit(n, (1, 1))),
        Pencil(unit(n, (0, 1), (1, 2), (2, 5)), unit(n, (0, 2), (1, 4), (3, 1))),  # pivots 0, 2
    ]
    while len(pencils) < 14:
        forms = [
            [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n + 1)] for _ in range(2)
        ]
        try:
            pencils.append(Pencil(LinForm(forms[0]), LinForm(forms[1])))
        except (ValueError, DegenerateSpan):  # a zero form, or dependent forms
            continue
    return pencils


def test_space_rows_equal_the_inverse_route():
    rng = rng_from_seed(47)
    seen = {"unit first row": 0, "trailing zero columns": 0, "pivots off 0, 1": 0}
    for n, d, order in ROW_GRID:
        pencils = [random_pencil(n, rng) for _ in range(6)] + sparse_pencils(n, rng)
        make = containment_rows if order == 1 else double_space_rows
        for pencil in pencils:
            assert make(pencil, d) == space_rows_by_inverse(pencil, d, order), pencil
            z0, z1 = pencil.canonical
            pivots = [next(j for j, x in enumerate(z) if x) for z in (z0, z1)]
            seen["unit first row"] += sum(map(bool, z0)) == 1
            seen["trailing zero columns"] += not (z0[n] or z1[n])
            seen["pivots off 0, 1"] += pivots != [0, 1]
    assert min(seen.values()) >= 3 * len(ROW_GRID), seen
