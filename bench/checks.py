"""Answer checks in the benchmark's own exact arithmetic.

Nothing here calls into `rncgeo`: a check that reused the library's
`curve_equals` or `quadric_space` would trust the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Refused(Exception):
    """The program declined an op as not generic instead of answering.
    Counted as a failed op, but not as a wrong answer."""


def frac(value) -> Fraction:
    """A JSON scalar as the library emits it: an int or a "p/q" string."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    num, _, den = str(value).partition("/")
    return Fraction(int(num), int(den) if den else 1)


def bits(value) -> int:
    """Bit size of an exact scalar: the larger of numerator and denominator."""
    if isinstance(value, int):
        return abs(value).bit_length()
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def integer_rows(rows) -> list[list[int]]:
    """Rows scaled by one common positive factor so that all entries are
    integers (a common factor does not change a projective object)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    scale = 1
    for row in rows:
        for x in row:
            scale = lcm(scale, x.denominator)
    return [[int(x * scale) for x in row] for row in rows]


def scaled_inverse(matrix) -> list[list[int]]:
    """An integer multiple of the inverse of an integer matrix, by
    fraction-free Gauss-Jordan; raises ValueError when singular."""
    size = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(matrix)]
    for c in range(size):
        piv = next((r for r in range(c, size) if aug[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        prow = aug[c]
        pv = prow[c]
        for r in range(size):
            x = aug[r][c]
            if r != c and x:
                row = [a * pv - x * b for a, b in zip(aug[r], prow)]
                g = 0
                for v in row:
                    g = gcd(g, v)
                aug[r] = [v // g for v in row]
    common = 1
    for i in range(size):
        common = lcm(common, aug[i][i])
    return [[v * (common // aug[i][i]) for v in aug[i][size:]] for i in range(size)]


def on_normal_curve(inv, point) -> bool:
    """Whether the point lies on the curve whose coefficient matrix has
    (a multiple of) inverse `inv`: the pulled-back point must be on the
    moment curve, i.e. every 2 x 2 minor of its Hankel matrix vanishes."""
    y = [sum(a * x for a, x in zip(row, point)) for row in inv]
    n = len(y) - 1
    return all(
        y[i] * y[j + 1] == y[i + 1] * y[j] for i in range(n) for j in range(i + 1, n)
    )


def same_curve(forms, generator_inv) -> bool:
    """Whether the parametrization `forms` traces the generating curve.

    The forms must have an invertible coefficient matrix (a rational normal
    curve of degree n) and 2n+1 of its points must lie on the generator.
    Every quadric through the generator then meets the curve in more than
    2n points, so by Bezout contains it; the generator is cut out by its
    quadrics, so both curves coincide.
    """
    forms = integer_rows(forms)
    try:
        scaled_inverse(forms)
    except ValueError:
        return False
    n = len(forms) - 1
    for t in range(2 * n + 1):
        point = [sum(c * t**k for k, c in enumerate(f)) for f in forms]
        if not on_normal_curve(generator_inv, point):
            return False
    return True


def quadric_value(coeffs, monomials, point) -> Fraction:
    total = Fraction(0)
    for c, expo in zip(coeffs, monomials):
        if c:
            term = Fraction(c)
            for x, k in zip(point, expo):
                term *= Fraction(x) ** k
            total += term
    return total


def kernel_basis(rows) -> list[list[Fraction]]:
    """A basis of the vectors that every row annihilates, by Gauss-Jordan
    elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    size = len(rows[0])
    pivots = []
    r = 0
    for c in range(size):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(size) if c not in pivots):
        vector = [Fraction(0)] * size
        vector[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vector[c] = -rows[i][free]
        basis.append(vector)
    return basis


def quadric_contains_space(coeffs, monomials, forms) -> bool:
    """Whether the quadric vanishes on the linear space cut out by `forms`:
    its symmetric bilinear form B must vanish on every pair of basis
    vectors of the space, tested through Q(u) = Q(v) = Q(u + v) = 0
    (Q(u + v) = Q(u) + Q(v) + 2 B(u, v))."""
    basis = kernel_basis(forms)
    for i, u in enumerate(basis):
        for v in basis[i:]:
            w = u if v is u else [a + b for a, b in zip(u, v)]
            if quadric_value(coeffs, monomials, w):
                return False
    return True
