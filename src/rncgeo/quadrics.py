"""Monomial bases and linear conditions on degree-d hypersurfaces.

Monomials of a fixed degree are always listed in descending graded reverse
lexicographic order; every coefficient vector in the package refers to that
ordering.  Containment and double-vanishing conditions along a
codimension-two space are generated in adapted coordinates (the space moved
to {y0 = y1 = 0}) and pulled back through the substitution, which keeps the
row generation purely combinatorial.

The adapted coordinates are read off the pencil's canonical stack Z (its
RREF rows, denominators cleared) with no rank and no inverse: y0, y1 are
the rows of Z and y_2, ..., y_n the x_j for j other than m1, the last
nonzero column, and m0, the last column before m1 whose 2 x 2 block B with
it is invertible; `space_condition_rows` shows why these match the greedy
completion of Z by e_0, e_1, ....
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, prod
from typing import Sequence

from .projective import Pencil, ProjPoint
from .scalars import QQ, integerize

Expt = tuple  # exponent tuple, length n+1


def _grevlex_key(e: Expt):
    return tuple(-x for x in reversed(e))


def monomials(n: int, d: int) -> list[Expt]:
    """All degree-d exponent tuples on n+1 variables, grevlex descending."""
    out = []
    for combo in combinations_with_replacement(range(n + 1), d):
        e = [0] * (n + 1)
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    out.sort(key=_grevlex_key, reverse=True)
    return out


def monomial_count(n: int, d: int) -> int:
    return comb(n + d, d)


def monomial_index(monos: list[Expt]) -> dict[Expt, int]:
    return {m: i for i, m in enumerate(monos)}


def evaluate_monomial(e: Expt, coords) -> QQ:
    val = QQ(1)
    for x, k in zip(coords, e):
        for _ in range(k):
            val *= x
    return val


def evaluate_poly(coeffs, monos: list[Expt], point: ProjPoint) -> QQ:
    total = QQ(0)
    for c, m in zip(coeffs, monos):
        if c:
            total += c * evaluate_monomial(m, point.coords)
    return total


def point_value_row(point: ProjPoint, monos: list[Expt]) -> list[QQ]:
    return [evaluate_monomial(m, point.coords) for m in monos]


def point_derivative_rows(point: ProjPoint, monos: list[Expt]) -> list[list[int]]:
    """One row per variable: the gradient of the monomial basis at the
    point, as a primitive integer row.

    The gradient at a positive multiple c of the point scales every row by
    a positive power of that multiple, so the rows are computed at the
    primitive integer coordinates c, from the values of the degree d-1
    monomials there: d/dx_i x^m = m_i x^(m - e_i).  The value row is
    omitted by callers that need double points: it is a combination of
    these by the Euler relation d*F = sum x_i dF/dx_i.
    """
    nvars = point.n + 1
    coords = integerize(point.coords)
    top = max(sum(monos[0]) - 1, 0) if monos else 0  # degree of the derivatives
    pows = [[c**e for e in range(top + 1)] for c in coords]
    values = {e: prod(p[x] for p, x in zip(pows, e)) for e in monomials(point.n, top)}
    rows = []
    for i in range(nvars):
        row = []
        for m in monos:
            k = m[i]
            row.append(k * values[m[:i] + (k - 1,) + m[i + 1:]] if k else 0)
        rows.append(integerize(row))
    return rows


def _mul_linear(poly: dict, lin, nvars: int, order: int) -> dict:
    """poly * lin, keeping only monomials of y0-y1 degree < order: the
    product never lowers that degree, so dropped terms stay irrelevant."""
    out: dict = {}
    for mono, c in poly.items():
        for b in range(nvars):
            coeff = lin[b]
            if coeff and (b > 1 or mono[0] + mono[1] + 1 < order):
                key = mono[:b] + (mono[b] + 1,) + mono[b + 1:]
                out[key] = out.get(key, 0) + c * coeff
    return out


def _expand_monomial(e: Expt, subst_rows, nvars: int, order: int) -> dict:
    """The terms of y0-y1 degree < order in the expansion of the monomial
    after substituting x_a = sum subst_rows[a][b] y_b."""
    poly = {(0,) * nvars: 1}
    for a, k in enumerate(e):
        for _ in range(k):
            poly = _mul_linear(poly, subst_rows[a], nvars, order)
    return poly


def space_condition_rows(pencil: Pencil, d: int, order: int) -> list[list[int]]:
    """Primitive integer rows forcing a degree-d form to vanish on the
    pencil's space to the given order (1 = containment, 2 = double space).

    In adapted coordinates the condition is that every coefficient on a
    monomial with y0-y1 degree < order vanishes; rows are those adapted
    coefficients expressed on the ambient monomial basis.  m0 and m1 are
    the two columns the greedy completion of Z by e_0, e_1, ... leaves out,
    as it accepts e_j iff Z keeps rank 2 on the columns not yet taken.
    Every scale is positive (clearing denominators scales whole rows, and
    |det B| each degree-d monomial by |det B|^d), so row contents cancel it.
    """
    n = pencil.n
    nvars = n + 1
    z0, z1 = (integerize(row) for row in pencil.canonical)
    m1 = max(c for c in range(nvars) if z0[c] or z1[c])
    m0 = max(c for c in range(m1) if z0[c] * z1[m1] != z0[m1] * z1[c])
    det = z0[m0] * z1[m1] - z0[m1] * z1[m0]
    sign = 1 if det > 0 else -1
    rest = [c for c in range(nvars) if c != m0 and c != m1]
    # x = subst y / |det B|: x_j = y_(2+k) for j = rest[k], and
    # x_(m0, m1) = adj(B) ((y0, y1) - Z_rest y_rest) / det B
    subst = [[0, 0] + [abs(det) * (j == c) for j in rest] for c in range(nvars)]
    for c, u, v in ((m0, z1[m1], -z0[m1]), (m1, -z1[m0], z0[m0])):
        subst[c] = [sign * u, sign * v] + [-sign * (u * z0[j] + v * z1[j]) for j in rest]
    monos = monomials(n, d)
    targets = [m for m in monos if m[0] + m[1] < order]
    target_pos = {m: i for i, m in enumerate(targets)}
    rows = [[0] * len(monos) for _ in targets]
    for col, e in enumerate(monos):
        for mono, coeff in _expand_monomial(e, subst, nvars, order).items():
            rows[target_pos[mono]][col] = coeff
    return [integerize(r) for r in rows]


def containment_rows(pencil: Pencil, d: int) -> list[list[int]]:
    return space_condition_rows(pencil, d, order=1)


def double_space_rows(pencil: Pencil, d: int) -> list[list[int]]:
    return space_condition_rows(pencil, d, order=2)


def linform_product_vector(a: Sequence, b: Sequence, index: dict[Expt, int]) -> list[QQ]:
    """Coefficient vector of the quadric a*b on the degree-2 monomial basis,
    for linear forms a, b given by their coefficient vectors."""
    nvars = len(a)
    out = [0] * len(index)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            key = tuple(
                (1 if k == i else 0) + (1 if k == j else 0) for k in range(nvars)
            )
            out[index[key]] += ai * bj
    return out
