import random
from fractions import Fraction as QQ

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeo.linalg import (
    Matrix,
    canonical_rowspace,
    ff_rank,
    linsolve,
    nullspace,
    signed_maximal_minors,
)
from rncgeo.scalars import integerize


def test_rank_identity():
    assert ff_rank(Matrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert ff_rank(Matrix([[0] * 4 for _ in range(3)])) == 0


def test_rank_vandermonde():
    # det = prod_{i<j} (t_j - t_i) != 0 for distinct nodes, so full rank
    rows = [[t**k for k in range(4)] for t in (0, 1, 2, 3)]
    assert ff_rank(Matrix(rows)) == 4


def test_nullspace_single_row():
    assert nullspace(Matrix([[1, -1]])) == [[QQ(1), QQ(1)]]


def test_nullspace_full_rank_square():
    assert nullspace(Matrix([[2, 1], [1, 1]])) == []


def test_nullspace_two_conditions():
    # a + 2b + 4c + 8d = 0 and a + 3b + 9c + 27d = 0, solved by hand:
    # free c: (6, -5, 1, 0); free d: (30, -19, 0, 1)
    m = Matrix([[1, 2, 4, 8], [1, 3, 9, 27]])
    basis = nullspace(m)
    assert basis == [
        [QQ(6), QQ(-5), QQ(1), QQ(0)],
        [QQ(30), QQ(-19), QQ(0), QQ(1)],
    ]


def test_linsolve_identity():
    b = [QQ(3), QQ(-1, 2)]
    assert linsolve(Matrix.identity(2), b) == b


def test_linsolve_inconsistent():
    assert linsolve(Matrix([[1, 1], [1, 1]]), [0, 1]) is None


def test_linsolve_diagonal():
    assert linsolve(Matrix([[2, 0], [0, 4]]), [1, 1]) == [QQ(1, 2), QQ(1, 4)]


def test_det_and_inverse():
    m = Matrix([[1, 2], [3, 4]])
    assert m.det() == QQ(-2)
    assert m.inverse() * m == Matrix.identity(2)


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_matches_sympy_and_transpose(rows):
    m = Matrix(rows)
    r = ff_rank(m)
    assert r == sympy.Matrix(rows).rank()
    assert r == ff_rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity(rows):
    m = Matrix(rows)
    basis = nullspace(m)
    assert ff_rank(m) + len(basis) == m.cols
    for vec in basis:
        assert all(v == 0 for v in m.apply(vec))


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.data())
def test_linsolve_solves_or_detects(rows, data):
    m = Matrix(rows)
    b = data.draw(
        st.lists(st.integers(-9, 9), min_size=m.rows, max_size=m.rows)
    )
    sol = linsolve(m, b)
    if sol is None:
        aug = Matrix([list(r) + [x] for r, x in zip(rows, b)])
        assert ff_rank(aug) == ff_rank(m) + 1
    else:
        assert m.apply(sol) == [QQ(x) for x in b]


def test_canonical_rowspace_invariance():
    rows = [[1, 2, 3, 4], [0, 1, 1, 1]]
    mixed = [
        [r1 * 3 + r2 * 5 for r1, r2 in zip(*rows)],
        [r1 * 2 + r2 * 7 for r1, r2 in zip(*rows)],
    ]
    assert canonical_rowspace(rows) == canonical_rowspace(mixed)
    assert canonical_rowspace(rows) != canonical_rowspace([[1, 2, 3, 5], [0, 1, 1, 1]])


# -- signed maximal minors ------------------------------------------------------


def cofactor_minors(rows):
    """(-1)^k det of the matrix without column k, one determinant each."""
    ncols = len(rows[0])
    out = []
    for k in range(ncols):
        d = Matrix([row[:k] + row[k + 1:] for row in rows]).det()
        out.append(int(-d if k % 2 else d))
    return out


def special_matrices(n, rng):
    """Shapes that exercise every branch of the back substitution."""
    def rand_rows():
        return [[rng.randint(-6, 6) for _ in range(n + 1)] for _ in range(n)]

    cases = []
    rows = rand_rows()  # rank < n: a repeated row (or a zero row at n = 1)
    rows[-1] = rows[0][:] if n > 1 else [0, 0]
    cases.append(rows)
    if n > 1:
        rows = rand_rows()  # proportional rows
        rows[1] = [-3 * x for x in rows[0]]
        cases.append(rows)
        rows = rand_rows()  # singular leading n x n block: free column 1
        for row in rows:
            row[1] = 2 * row[0]
        cases.append(rows)
    rows = rand_rows()  # zero first column: free column 0
    for row in rows:
        row[0] = 0
    cases.append(rows)
    cases.append([[0] * (n + 1) for _ in range(n)])
    return cases


@pytest.mark.parametrize("n", range(1, 9))
def test_signed_maximal_minors_match_cofactors(n):
    rng = random.Random(f"minors-{n}")
    matrices = [
        [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)]
        for _ in range(12)
    ]
    matrices += special_matrices(n, rng)
    for rows in matrices:
        expected = cofactor_minors(rows)
        assert signed_maximal_minors([row[:] for row in rows]) == expected, rows


def test_signed_maximal_minors_span_the_kernel():
    rows = [[1, 2, 3, 4], [0, 1, 1, 2], [2, 0, 1, 5]]
    minors = signed_maximal_minors([row[:] for row in rows])
    assert any(minors)
    assert all(sum(a * x for a, x in zip(row, minors)) == 0 for row in rows)


def rational_matrices(size, rng):
    """Seeded size x size rational matrices with mixed denominators: a
    generic one, one with a repeated row and one with a zero row."""
    def entry():
        return QQ(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))

    generic = [[entry() for _ in range(size)] for _ in range(size)]
    out = [generic]
    if size >= 2:
        repeated = [row[:] for row in generic]
        repeated[-1] = [QQ(3, 2) * x for x in repeated[0]]
        zero = [row[:] for row in generic]
        zero[0] = [QQ(0)] * size
        out += [repeated, zero]
    return out


@pytest.mark.parametrize("size", range(1, 7))
def test_det_matches_sympy_on_rational_matrices(size):
    rng = random.Random(f"det-{size}")
    for _ in range(4):
        for rows in rational_matrices(size, rng):
            expected = sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
            ).det()
            got = Matrix(rows).det()
            assert isinstance(got, QQ)
            assert got == QQ(int(expected.p), int(expected.q)), rows


def test_det_of_empty_and_singular_matrices():
    assert Matrix([]).det() == 1
    assert Matrix([[QQ(-5, 3)]]).det() == QQ(-5, 3)
    assert Matrix([[QQ(1, 2), QQ(1, 3)], [QQ(3, 2), 1]]).det() == 0
    assert Matrix([[0, 0], [0, 0]]).det() == 0


def test_integerize_fast_path_matches_fraction_path():
    rng = random.Random("integerize")
    vectors = [[], [0, 0, 0], [6, -4, 10], [-3], [0, 7, 0, -14]]
    vectors += [[rng.randint(-50, 50) for _ in range(rng.randint(1, 8))] for _ in range(40)]
    for ints in vectors:
        fractions = [QQ(x) for x in ints]
        out = integerize(ints)
        assert out == integerize(fractions), ints
        assert all(type(x) is int for x in out)
        assert out is not ints  # callers eliminate on the result in place
    assert integerize([QQ(1, 2), QQ(-1, 3), 2]) == [3, -2, 12]
