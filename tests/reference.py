"""Elimination-based reference for curve equality.

`quadric_space` decides equality by comparing the canonical bases of the
quadrics through two curves.  The library decides it by restriction
(`curves._matrix_defines`) without elimination; tests compare the two.
"""

from rncgeo.curves import DetRnc, ParamRnc
from rncgeo.linalg import canonical_rowspace, nullspace
from rncgeo.quadrics import monomial_index, monomials
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
