"""Elimination-based references that tests compare the library against.

`quadric_space` decides equality by comparing the canonical bases of the
quadrics through two curves.  The library decides it by restriction
(`curves._matrix_defines`) without elimination; tests compare the two.

`np2_matrix_by_linsolve` takes the (n+2, 1) quadric system as a kernel on
all quadric monomials and splits each quadric with its own `linsolve`;
the library solves for the splits directly with one small kernel.

`canonical_rowspace` is the reduced row echelon form of any row space, by
elimination; the library takes the stack of a pencil in closed form
(`projective.canonical_stack`).  `divide_exact` divides binary forms over
`Fraction`s; the library's equality test divides nothing.

`span_membership_kernel` and `generalized_column_kernel` take the kernels
of the conditions "a combination lies in a pencil" from dot products with
`nullspace(pencil.canonical)`; `spans_by_rowspace` compares row spaces.
The library reads all of these off the canonical stack.

`space_rows_by_inverse` builds the condition rows along a codimension-two
space by completing the canonical stack to an invertible matrix with rank
tests, inverting it and expanding every monomial in full; the library
reads the substitution off the stack in closed form.

`frame_map_by_two_inverses` inverts the matrix of the frame's head and then
the rescaled matrix; the library divides the rows of the one inverse.

`transform_param_rnc_by_fractions` transports a parametrization by summing
`Fraction` multiples of its forms; the library multiplies the transform,
denominators cleared once, into the curve's integer coefficients.

`point_at_by_fractions` evaluates the `Fraction` forms at a `Fraction`
parameter, and `chord_space_by_points` takes the kernel of the curve points
(`pencil_from_points`); the library evaluates the integer coefficients at
the integerized parameter and reads chord spaces off the curve's cached
integer inverse.

`substitute_by_fractions` composes a binary form with a Moebius map by
multiplying `Fraction` forms; the library expands the map in integers and
divides by the common denominator once.

`verify_output_by_recomputation` is `rncgeo verify` on an existence
certificate with every claim recomputed: `verify_datum` on the document's
curve (one inverse, one gcd per space), compared with the claimed report.
The library checks the claims by evaluation and recomputes only when one
fails.
"""

import json

from rncgeo.binforms import BinaryForm, _deg
from rncgeo.cli import _error_doc, _exit_code_for
from rncgeo.construct import METHODS
from rncgeo.curves import DetRnc, ParamRnc, curve_equals, parameter, verify_datum
from rncgeo.errors import GeometryError, RepeatedParameter, ZeroForm, ZeroParameter
from rncgeo.linalg import Matrix, _int_rows, _rref, ff_rank, nullspace
from rncgeo.projective import LinForm, ProjPoint, pencil_from_points
from rncgeo.quadrics import (
    containment_rows,
    linform_product_vector,
    monomial_index,
    monomials,
    point_value_row,
)
from rncgeo.scalars import QQ, integerize
from rncgeo.serialize import VERSION, certificate_in, report_out


def canonical_rowspace(rows) -> tuple:
    """Unique RREF representation of the row space, for exact subspace
    equality tests.  Returns a tuple of tuples of scalars."""
    ints = _int_rows(rows)
    if not ints:
        return ()
    rref_rows, _ = _rref(ints, len(ints[0]))
    return tuple(tuple(r) for r in rref_rows)


def divide_exact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """f / g when g divides f exactly; raises ValueError otherwise."""
    if g.is_zero:
        raise ZeroForm("division by the zero form")
    if f.is_zero:
        return BinaryForm.zero(f.degree - g.degree)
    gd = _deg([1 if c else 0 for c in g.coeffs])
    fd = _deg([1 if c else 0 for c in f.coeffs])
    u_quot = (f.degree - fd) - (g.degree - gd)
    if u_quot < 0 or fd < gd:
        raise ValueError("not an exact divisor")
    num = list(f.coeffs[: fd + 1])
    den = list(g.coeffs[: gd + 1])
    out = [QQ(0)] * (fd - gd + 1)
    for k in range(fd - gd, -1, -1):
        c = num[gd + k] / den[gd]
        out[k] = c
        if c:
            for i in range(gd + 1):
                num[k + i] -= c * den[i]
    if any(num):
        raise ValueError("not an exact divisor")
    deg = (fd - gd) + u_quot
    return BinaryForm(deg, out + [0] * u_quot)


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


def linsolve(m, b) -> list | None:
    """One exact solution of m x = b, or None if inconsistent.

    Free variables are set to zero, making the answer deterministic.
    """
    raw = list(getattr(m, "entries", m))
    bvec = [QQ(x) for x in b]
    if len(raw) != len(bvec):
        raise ValueError("shape mismatch")
    if not raw:
        return []
    ncols = len(raw[0])
    aug = _int_rows([*row, rhs] for row, rhs in zip(raw, bvec))
    rref_rows, pivots = _rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    sol = [QQ(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = rref_rows[r][ncols]
    return sol


def span_membership_kernel(forms, pencil) -> list:
    """Kernel of 'sum_i k_i forms[i] lies in the pencil' (LinForms), with
    one condition row per vector of `nullspace(pencil.canonical)`."""
    rows = []
    for w in nullspace(list(pencil.canonical)):
        rows.append(
            [sum((wi * ci for wi, ci in zip(w, form.coeffs)), QQ(0)) for form in forms]
        )
    return nullspace(rows)


def generalized_column_kernel(det, pencil) -> list:
    """Kernel of 'both rows of det combined by lambda lie in the pencil',
    interleaving the two rows' conditions per complement vector."""
    rows = []
    for w in nullspace(list(pencil.canonical)):
        for matrix_row in det.m:
            rows.append(
                [
                    sum((wi * ci for wi, ci in zip(w, form.coeffs)), QQ(0))
                    for form in matrix_row
                ]
            )
    return nullspace(rows)


def spans_by_rowspace(pencil, a, b) -> bool:
    """Whether two coefficient vectors span exactly the pencil."""
    return any(a) and any(b) and canonical_rowspace([a, b]) == pencil.canonical


def quadric_kernel(points, space) -> list:
    """The canonical kernel of the quadric conditions of the (n+2, 1)
    datum: containment of the space and vanishing at the points."""
    monos = monomials(space.n, 2)
    rows = containment_rows(space, 2)
    rows += [point_value_row(p, monos) for p in points]
    return nullspace(rows)


def np2_matrix_by_linsolve(points, space) -> DetRnc:
    """A matrix of the curve `construct_np2_one_space` builds: column 1 is
    the pencil (f, g), and every other column (-B, A) comes from a basis
    quadric of `quadric_kernel` written as f A + g B by `linsolve` (free
    variables zero).  The constructor takes its columns from another basis
    of the same quadric system, so the two differ by a column operation."""
    n = space.n
    f, g = space.canonical_forms()
    idx = monomial_index(monomials(n, 2))
    products = [
        linform_product_vector(lead.coeffs, [int(k == j) for k in range(n + 1)], idx)
        for lead in (f, g)
        for j in range(n + 1)
    ]
    matrix = [list(row) for row in zip(*products)]
    top, bottom = [f], [g]
    for quad in quadric_kernel(points, space):
        w = linsolve(matrix, quad)
        top.append(LinForm([-c for c in w[n + 1:]]))
        bottom.append(LinForm(w[: n + 1]))
    return DetRnc([top, bottom])


def adapted_matrix(pencil) -> Matrix:
    """Invertible matrix R whose first two rows are the pencil's canonical
    forms; y = R x moves the space to {y0 = y1 = 0}.  The completion by
    standard basis vectors is greedy, hence deterministic."""
    n = pencil.n
    rows = [list(r) for r in pencil.canonical]
    for j in range(n + 1):
        candidate = [QQ(int(k == j)) for k in range(n + 1)]
        if ff_rank(rows + [candidate]) > len(rows):
            rows.append(candidate)
        if len(rows) == n + 1:
            break
    return Matrix(rows)


def space_rows_by_inverse(pencil, d: int, order: int) -> list[list[int]]:
    """The rows of `quadrics.space_condition_rows`: substitute x = R^-1 y
    for R = `adapted_matrix(pencil)`, expand each degree-d monomial in full
    and keep the coefficients on the y monomials of y0-y1 degree < order,
    one primitive integer row per such monomial."""
    nvars = pencil.n + 1
    monos = monomials(pencil.n, d)
    back = adapted_matrix(pencil).inverse().entries
    targets = {m: i for i, m in enumerate(m for m in monos if m[0] + m[1] < order)}
    rows = [[QQ(0)] * len(monos) for _ in targets]
    for col, e in enumerate(monos):
        poly = {(0,) * nvars: QQ(1)}
        for a, k in enumerate(e):
            for _ in range(k):
                product = {}
                for mono, c in poly.items():
                    for b, coeff in enumerate(back[a]):
                        if coeff:
                            key = mono[:b] + (mono[b] + 1,) + mono[b + 1:]
                            product[key] = product.get(key, 0) + c * coeff
                poly = product
        for mono, c in poly.items():
            if mono in targets:
                rows[targets[mono]][col] = c
    return [integerize(r) for r in rows]


def frame_map_by_two_inverses(points) -> Matrix:
    """(B diag(w))^-1 for B the first n+1 points as columns and w = B^-1
    of the last point, with both inverses computed."""
    n = points[0].n
    base = Matrix(list(zip(*(p.coords for p in points[: n + 1]))))
    weights = base.inverse().apply(list(points[n + 1].coords))
    scaled = [[base.entries[r][c] * weights[c] for c in range(n + 1)] for r in range(n + 1)]
    return Matrix(scaled).inverse()


def transform_param_rnc_by_fractions(t, curve) -> ParamRnc:
    """Form i of the transported curve as sum_j t[i][j] * form j."""
    n = curve.n
    new_forms = []
    for i in range(n + 1):
        acc = BinaryForm.zero(n)
        for j in range(n + 1):
            coeff = t.matrix.entries[i][j]
            if coeff:
                acc = acc + coeff * curve.forms[j]
        new_forms.append(acc)
    return ParamRnc(new_forms)


def point_at_by_fractions(curve, s, u) -> ProjPoint:
    """Sum of c s^k u^(n-k) over the `Fraction` coefficients of each form."""
    s, u = QQ(s), QQ(u)
    if not s and not u:
        raise ZeroParameter("(0, 0) is not a parameter")
    n = curve.n
    coords = []
    for f in curve.forms:
        total = QQ(0)
        for k, c in enumerate(f.coeffs):
            if c:
                total += c * s**k * u ** (n - k)
        coords.append(total)
    return ProjPoint(coords)


def chord_space_by_points(curve, params):
    """The kernel of the n-1 curve points at the given parameters."""
    pts = []
    seen = set()
    for p in params:
        t = p if isinstance(p, ProjPoint) else parameter(*p)
        if t in seen:
            raise RepeatedParameter(f"parameter {t} repeated")
        seen.add(t)
        pts.append(point_at_by_fractions(curve, *t.coords))
    return pencil_from_points(pts)


def substitute_by_fractions(form, a, b, c, d) -> BinaryForm:
    """sum_k c_k (a s + b u)^k (c s + d u)^(deg - k) over `Fraction` forms."""
    deg = form.degree
    first = BinaryForm(1, [b, a])
    second = BinaryForm(1, [d, c])
    fp = [BinaryForm.constant_one()]
    sp = [BinaryForm.constant_one()]
    for _ in range(deg):
        fp.append(fp[-1] * first)
        sp.append(sp[-1] * second)
    out = BinaryForm.zero(deg)
    for k, coeff in enumerate(form.coeffs):
        if coeff:
            out = out + coeff * (fp[k] * sp[deg - k])
    return out


def verify_output_by_recomputation(doc) -> tuple[int, str]:
    """The exit code and stdout of `rncgeo verify` on an existence
    certificate document: the report of its datum on its curve, recomputed,
    passes when the claimed report, the method and the matrix all agree
    with it."""
    try:
        cert = certificate_in(doc)
        report = verify_datum(cert.curve, cert.datum)
        passed = (
            report.passed
            and report == cert.report
            and cert.method in METHODS
            and curve_equals(cert.curve, cert.det)
        )
    except GeometryError as exc:
        return _exit_code_for(exc), _dumped(_error_doc(exc))
    out = {"version": VERSION, "kind": "verification", **report_out(report), "passed": passed}
    return (0 if passed else 10), _dumped(out)


def _dumped(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
