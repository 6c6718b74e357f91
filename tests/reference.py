"""Elimination-based references that tests compare the library against.

`quadric_space` decides equality by comparing the canonical bases of the
quadrics through two curves.  The library decides it by restriction
(`curves._matrix_defines`) without elimination; tests compare the two.

`np2_matrix_by_linsolve` splits each quadric of the (n+2, 1) system with
its own `linsolve`; the library splits them all with one kernel.
"""

from rncgeo.curves import DetRnc, ParamRnc
from rncgeo.linalg import canonical_rowspace, linsolve, nullspace
from rncgeo.projective import LinForm
from rncgeo.quadrics import (
    containment_rows,
    linform_product_vector,
    monomial_index,
    monomials,
    point_value_row,
)
from rncgeo.scalars import integerize


def quadric_space(curve) -> tuple:
    """Canonical basis (RREF rows) of the quadrics vanishing on the curve.

    Parametrized curves impose 2n+1 coefficient conditions on the monomial
    vector; determinantal curves contribute their 2 x 2 minors, which span
    the same C(n, 2)-dimensional space.  Comparing the canonical bases
    decides equality of curves, since a rnc is cut out by its quadrics.
    """
    if isinstance(curve, ParamRnc):
        n = curve.n
        monos = monomials(n, 2)
        int_forms = curve.ints
        products = []
        for e in monos:
            i = next(k for k, v in enumerate(e) if v)
            j = i if e[i] == 2 else next(k for k in range(i + 1, n + 1) if e[k])
            a, b = int_forms[i], int_forms[j]
            conv = [0] * (2 * n + 1)
            for ka, ca in enumerate(a):
                if ca:
                    for kb, cb in enumerate(b):
                        if cb:
                            conv[ka + kb] += ca * cb
            products.append(conv)
        rows = [[prod[a] for prod in products] for a in range(2 * n + 1)]
        return canonical_rowspace(nullspace(rows))
    if isinstance(curve, DetRnc):
        n = curve.n
        idx = monomial_index(monomials(n, 2))
        top, bottom = curve.m
        # one joint integer scale per column keeps every minor scaled alike
        columns = []
        for j in range(n):
            ints = integerize(top[j].coeffs + bottom[j].coeffs)
            columns.append((ints[: n + 1], ints[n + 1:]))
        vectors = []
        for j in range(n):
            for k in range(j + 1, n):
                minor = [0] * len(idx)
                for (fa, fb) in ((0, 1), (1, 0)):
                    sign = 1 if fa == 0 else -1
                    left, right = columns[j][fa], columns[k][fb]
                    for i1 in range(n + 1):
                        ci = left[i1]
                        if not ci:
                            continue
                        for i2 in range(n + 1):
                            cj = right[i2]
                            if cj:
                                key = tuple(
                                    (1 if t == i1 else 0) + (1 if t == i2 else 0)
                                    for t in range(n + 1)
                                )
                                minor[idx[key]] += sign * ci * cj
                vectors.append(minor)
        return canonical_rowspace(vectors)
    raise TypeError(f"not a curve: {type(curve).__name__}")


def np2_matrix_by_linsolve(points, space) -> DetRnc:
    """The matrix of `construct_np2_one_space` for the datum: column 1 is
    the pencil (f, g), and every other column (-B, A) comes from a basis
    quadric written as f A + g B by `linsolve` (free variables zero)."""
    n = space.n
    monos = monomials(n, 2)
    rows = containment_rows(space, 2)
    rows += [point_value_row(p, monos) for p in points]
    f, g = space.canonical_forms()
    idx = monomial_index(monos)
    products = [
        linform_product_vector(lead, LinForm([int(k == j) for k in range(n + 1)]), idx)
        for lead in (f, g)
        for j in range(n + 1)
    ]
    matrix = [list(row) for row in zip(*products)]
    top, bottom = [f], [g]
    for quad in nullspace(rows):
        w = linsolve(matrix, quad)
        top.append(LinForm([-c for c in w[n + 1:]]))
        bottom.append(LinForm(w[: n + 1]))
    return DetRnc([top, bottom])
