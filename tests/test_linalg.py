import random
from fractions import Fraction as QQ

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from rncgeo import linalg
from rncgeo.generate import rng_from_seed
from rncgeo.linalg import (
    RANK_PRIMES,
    Matrix,
    _bareiss_forward,
    _certified_rank,
    ff_rank,
    nullspace,
    signed_maximal_minors,
)
from rncgeo.postulation import (
    AH_EXCEPTIONS,
    CONTROL_CASE,
    SchemeSpec,
    _seeded_points,
    conditions_rows,
    quartic_shape_spec,
)
from rncgeo.scalars import integerize

from reference import canonical_rowspace, linsolve


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


# -- certified modular rank -----------------------------------------------------


def bareiss_rank(rows):
    ints = [integerize(r) for r in rows]
    if not ints or not ints[0]:
        return 0
    return len(_bareiss_forward(ints, len(ints[0]))[0])


def sympy_rank(rows):
    """Rank over ZZ by sympy's DomainMatrix, an independent elimination."""
    ints = [integerize(r) for r in rows]
    if not ints or not ints[0]:
        return 0
    return DomainMatrix(
        [[sympy.ZZ(x) for x in r] for r in ints], (len(ints), len(ints[0])), sympy.ZZ
    ).rank()


def no_bareiss(monkeypatch):
    """Make the Bareiss fallback fail loudly: the rank must be certified."""

    def refuse(rows, ncols):
        raise AssertionError("ff_rank fell back to Bareiss")

    monkeypatch.setattr(linalg, "_bareiss_forward", refuse)


def condition_specs():
    specs = [quartic_shape_spec(n, seed=1) for n in (3, 4, 5)]
    rng = rng_from_seed(0)
    for n, p, d in (*AH_EXCEPTIONS, CONTROL_CASE):
        points = tuple(_seeded_points(n, p, rng))
        specs.append(SchemeSpec(n=n, degree=d, double_points=points))
    return specs


@pytest.mark.parametrize("index", range(3 + len(AH_EXCEPTIONS) + 1))
def test_modular_rank_matches_bareiss_and_sympy_on_condition_rows(index, monkeypatch):
    rows = conditions_rows(condition_specs()[index])
    expected = bareiss_rank(rows)
    assert sympy_rank(rows) == expected
    no_bareiss(monkeypatch)
    assert ff_rank(rows) == expected
    assert ff_rank(Matrix(rows).transpose()) == expected


def shape_cases():
    rng = random.Random("rank-shapes")

    def rand(m, k, lo=-9, hi=9):
        return [[rng.randint(lo, hi) for _ in range(k)] for _ in range(m)]

    wide = rand(3, 7)
    tall = rand(7, 3)
    factor = rand(2, 6)
    low = [[sum(a * b for a, b in zip(x, col)) for col in zip(*factor)] for x in rand(8, 2)]
    duplicated = rand(4, 5)
    duplicated += [duplicated[0][:], [2 * x for x in duplicated[1]], duplicated[0][:]]
    huge = [[rng.randint(-(10**40), 10**40) for _ in range(5)] for _ in range(4)]
    huge.append([a - 3 * b for a, b in zip(huge[0], huge[1])])
    return {
        "zero": [[0] * 4 for _ in range(3)],
        "zero_rows": [],
        "one_by_k": [[0, 3, -1, 4]],
        "one_by_one_zero": [[0]],
        "k_by_one": [[2], [0], [-5]],
        "wide": wide,
        "tall": tall,
        "low_rank_tall": low,
        "low_rank_wide": [list(c) for c in zip(*low)],
        "duplicated_rows": duplicated,
        "huge_entries": huge,
        "fractions": [[QQ(1, 2), QQ(1, 3)], [QQ(3, 2), 1], [QQ(-1, 7), 0]],
    }


@pytest.mark.parametrize("name", sorted(shape_cases()))
def test_modular_rank_on_shapes(name, monkeypatch):
    rows = shape_cases()[name]
    expected = bareiss_rank(rows)
    assert sympy_rank(rows) == expected
    no_bareiss(monkeypatch)
    assert ff_rank(rows) == expected


def test_modular_rank_known_values():
    cases = shape_cases()
    assert ff_rank(cases["zero"]) == 0
    assert ff_rank(cases["zero_rows"]) == 0
    assert ff_rank(cases["low_rank_tall"]) == 2
    assert ff_rank(cases["huge_entries"]) == 4
    assert ff_rank(cases["fractions"]) == 2


def product(x, y):
    """The 6-column rows of X Y; rank <= len(y), so the rows are dependent."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] or [0] * 6 for row in x]


low_rank_matrices = st.integers(0, 4).flatmap(
    lambda r: st.builds(
        product,
        st.lists(
            st.lists(st.integers(-5, 5), min_size=r, max_size=r), min_size=1, max_size=6
        ),
        st.lists(
            st.lists(st.integers(-5, 5), min_size=6, max_size=6), min_size=r, max_size=r
        ),
    )
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_matrices, low_rank_matrices))
def test_modular_rank_matches_bareiss_and_sympy(rows):
    assert ff_rank(rows) == bareiss_rank(rows) == sympy_rank(rows)


BAD = RANK_PRIMES[0]


def test_bad_prime_still_gives_the_rank():
    # [P, 0] is made primitive ([1, 0]) before any reduction
    assert ff_rank([[BAD, 0], [0, 1]]) == 2
    # rank 1 mod P: the lifted dependency row0 = row1 fails the exact check
    rows = [[BAD, 1], [0, 1]]
    assert _certified_rank(rows, BAD) is None
    assert _certified_rank(rows, RANK_PRIMES[1]) == 2
    assert ff_rank(rows) == 2
    # two dependencies modulo P, one of them real
    rows = [[1, 2, 3], [1 + BAD, 2, 3], [2, 4, 6]]
    assert _certified_rank(rows, BAD) is None
    assert ff_rank(rows) == 2 == bareiss_rank(rows)


def test_fallback_to_bareiss_when_primes_run_out(monkeypatch):
    calls = []
    real = linalg._bareiss_forward

    def counting(rows, ncols):
        calls.append(len(rows))
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_bareiss_forward", counting)
    rows = [[BAD, 1], [0, 1]]
    monkeypatch.setattr(linalg, "RANK_PRIMES", (BAD,))
    assert ff_rank(rows) == 2
    assert calls == [2]
    monkeypatch.setattr(linalg, "RANK_PRIMES", ())
    assert ff_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert calls == [2, 2]  # the 3 x 2 matrix is transposed first
    assert ff_rank(Matrix.identity(3)) == 3
