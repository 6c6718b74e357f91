"""The two faces of a rational normal curve and the secancy calculus.

A `ParamRnc` is a degree-n parametrization of P^1 into P^n whose
coefficient matrix is invertible (equivalently, the image is a rational
normal curve).  A `DetRnc` is a 2 x n matrix of linear forms whose rank-one
locus is the curve.  Conversions go both ways:

* param -> det transports the Hankel matrix of the normal-form curve
  (u^n, s u^(n-1), ..., s^n) through the inverse coefficient matrix, so on
  the curve the column j evaluates to a multiple of (u, s); that is what
  lets `param_of_point` read a parameter off any nonzero column.
* det -> param solves the n x (n+1) linear system expressing row
  proportionality at the parameter (s : u); the solution is the vector of
  signed maximal minors.  At each of the n+1 nodes s/u = 0..n one
  fraction-free elimination yields all of them, and a cached integer
  inverse Vandermonde matrix interpolates the minor forms exactly.

Restriction of a linear form and evaluation at a point run on integers:
the curve keeps its primitive integer coefficients, and the transported
Hankel matrix has primitive integer columns.

Equality of a parametrization and a matrix is decided by restricting the
matrix to the curve (`_matrix_defines`), with no elimination.

Intersections with codimension-two spaces are never split into points: the
scheme is carried as the monic gcd of the two restricted pencil generators,
which keeps all data rational even when the intersection points are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .binforms import BinaryForm, binary_gcd, divide_exact, is_squarefree
from .errors import (
    DimensionMismatch,
    NotGenericMatrix,
    RepeatedParameter,
    ZeroParameter,
)
from .linalg import (
    Matrix,
    canonical_rowspace,
    joint_integerize,
    nullspace,
    signed_maximal_minors,
)
from .projective import (
    LinForm,
    Pencil,
    ProjPoint,
    ProjTransform,
    pencil_from_points,
    register_transform,
)
from .quadrics import monomial_index, monomials
from .scalars import QQ, integerize


def parameter(s, u) -> ProjPoint:
    """A point of the parameter line P^1, canonicalized."""
    return ProjPoint([s, u])


class ParamRnc:
    """A rational normal curve given by n+1 degree-n binary forms.

    Forms are stored jointly rescaled to a primitive integer coefficient
    vector with positive leading entry; a common rescaling does not change
    the map.  `ints` keeps those coefficients as Python integers, one row
    per form.
    """

    __slots__ = ("n", "forms", "ints", "_det")

    def __init__(self, forms: Sequence[BinaryForm]):
        n = len(forms) - 1
        if n < 1:
            raise ValueError("need at least two coordinate forms")
        if any(f.degree != n for f in forms):
            raise DimensionMismatch("coordinate forms must all have degree n")
        flat = [c for f in forms for c in f.coeffs]
        ints = integerize(flat)
        lead = next((x for x in ints if x), 0)
        if lead < 0:
            ints = [-x for x in ints]
        self.ints = tuple(
            tuple(ints[i * (n + 1): (i + 1) * (n + 1)]) for i in range(n + 1)
        )
        self.forms = tuple(BinaryForm(n, row) for row in self.ints)
        self.n = n
        coeff_matrix = Matrix([f.coeffs for f in self.forms])
        if coeff_matrix.det() == 0:
            raise NotGenericMatrix(
                "coefficient matrix is singular: not a linearly normal degree-n map",
                stage="param_rnc",
            )
        self._det = None

    def coefficient_matrix(self) -> Matrix:
        return Matrix([f.coeffs for f in self.forms])

    def __eq__(self, other):
        return isinstance(other, ParamRnc) and self.forms == other.forms

    def __hash__(self):
        return hash(self.forms)

    def __repr__(self):
        return f"ParamRnc(n={self.n})"


class DetRnc:
    """A 2 x n matrix of linear forms; the curve is its rank-one locus.

    Validation is lazy: `det_to_param` certifies genericity (coprime
    maximal minors, invertible coefficient matrix) and caches the result.
    """

    __slots__ = ("n", "m", "_param")

    def __init__(self, rows: Sequence[Sequence[LinForm]]):
        if len(rows) != 2:
            raise DimensionMismatch("a determinantal curve needs exactly 2 rows")
        top, bottom = list(rows[0]), list(rows[1])
        if len(top) != len(bottom) or not top:
            raise DimensionMismatch("rows must have equal positive length")
        n = len(top)
        if any(f.n != n for f in top + bottom):
            raise DimensionMismatch("a 2 x n matrix needs forms on P^n")
        self.n = n
        self.m = (tuple(top), tuple(bottom))
        self._param = None

    def __eq__(self, other):
        return isinstance(other, DetRnc) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"DetRnc(n={self.n})"


@dataclass(frozen=True)
class SecancyResult:
    """Intersection scheme of a curve and a codimension-two space."""

    degree: int
    d_form: BinaryForm
    smooth: bool
    is_n_minus_1_secant: bool


@dataclass(frozen=True)
class PointCheck:
    point: ProjPoint
    on_curve: bool
    param: ProjPoint | None


@dataclass(frozen=True)
class SpaceCheck:
    pencil: Pencil
    secancy: SecancyResult


@dataclass(frozen=True)
class VerificationReport:
    points: tuple[PointCheck, ...]
    spaces: tuple[SpaceCheck, ...]
    passed: bool


def moment_curve(n: int) -> ParamRnc:
    """(u^n, s u^(n-1), ..., s^n): the rank-one locus of the Hankel matrix."""
    return ParamRnc(
        [BinaryForm(n, [int(k == i) for k in range(n + 1)]) for i in range(n + 1)]
    )


def point_at(curve: ParamRnc, s, u) -> ProjPoint:
    s, u = QQ(s), QQ(u)
    if not s and not u:
        raise ZeroParameter("(0, 0) is not a parameter")
    n = curve.n
    spow = [QQ(1)]
    upow = [QQ(1)]
    for _ in range(n):
        spow.append(spow[-1] * s)
        upow.append(upow[-1] * u)
    coords = []
    for f in curve.forms:
        total = QQ(0)
        for k, c in enumerate(f.coeffs):
            if c:
                total += c * spow[k] * upow[n - k]
        coords.append(total)
    return ProjPoint(coords)


def point_at_param(curve: ParamRnc, t: ProjPoint) -> ProjPoint:
    return point_at(curve, t.coords[0], t.coords[1])


def param_to_det(curve: ParamRnc) -> DetRnc:
    """The transported Hankel matrix; columns scaled to primitive integers
    (a per-column scale keeps the (u, s) column ratio intact)."""
    if curve._det is not None:
        return curve._det
    n = curve.n
    back = curve.coefficient_matrix().inverse()
    top, bottom = [], []
    for j in range(n):
        stacked = list(back.entries[j]) + list(back.entries[j + 1])
        ints = integerize(stacked)
        top.append(LinForm(ints[: n + 1]))
        bottom.append(LinForm(ints[n + 1:]))
    det = DetRnc([top, bottom])
    curve._det = det
    return det


_INTERPOLATION: dict[int, tuple[int, tuple]] = {}


def _interpolation(n: int) -> tuple[int, tuple]:
    """(D, D V^-1) for the Vandermonde matrix V[t][k] = t^k of the nodes
    t = 0..n, D being the lcm of the denominators of V^-1: integer rows
    that take the values of a degree-n polynomial at the nodes to D times
    its coefficients."""
    cached = _INTERPOLATION.get(n)
    if cached is None:
        v = Matrix([[QQ(t) ** k for k in range(n + 1)] for t in range(n + 1)])
        inv = v.inverse().entries
        scale = lcm(*(x.denominator for row in inv for x in row))
        rows = tuple(
            tuple(x.numerator * (scale // x.denominator) for x in row) for row in inv
        )
        cached = (scale, rows)
        _INTERPOLATION[n] = cached
    return cached


def det_to_param(det: DetRnc) -> ParamRnc:
    """Parametrize the rank-one locus by signed maximal minors.

    A point with parameter (s : u) satisfies s*M1j - u*M2j = 0 for every
    column j; the k-th coordinate of the solution of that n x (n+1) system
    is (-1)^k times the k-th maximal minor, a binary form of degree n with
    integer coefficients.  One elimination per node s/u = 0..n gives all
    n+1 minors there; the integer interpolation rows give D times the
    coefficients, and D divides out exactly.
    """
    if det._param is not None:
        return det._param
    n = det.n
    top, bottom = det.m
    # one joint integer scale per column keeps all minors consistently scaled
    columns = [
        joint_integerize([top[j].coeffs, bottom[j].coeffs]) for j in range(n)
    ]
    values = [  # values[r][k]: minor k at the node r
        signed_maximal_minors(
            [[r * a - b for a, b in zip(*columns[j])] for j in range(n)]
        )
        for r in range(n + 1)
    ]
    scale, interp = _interpolation(n)
    forms = []
    for k in range(n + 1):
        coeffs = []
        for weights in interp:
            c, rem = divmod(sum(w * val[k] for w, val in zip(weights, values)), scale)
            if rem:
                raise ArithmeticError("minor values do not interpolate to integers")
            coeffs.append(c)
        forms.append(BinaryForm(n, coeffs))
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        raise NotGenericMatrix(
            "all maximal minors vanish identically", stage="det_to_param"
        )
    common = nonzero[0]
    for f in nonzero[1:]:
        if common.degree == 0:
            break
        common = binary_gcd(common, f)
    if len(nonzero) < n + 1 or common.degree > 0:
        raise NotGenericMatrix(
            "maximal minors share a common factor: rank-one locus is not a rnc",
            stage="det_to_param", witness=common if common.degree else None,
        )
    try:
        param = ParamRnc(forms)
    except NotGenericMatrix as exc:
        raise NotGenericMatrix(
            "minor parametrization is degenerate", stage="det_to_param"
        ) from exc
    det._param = param
    return param


def param_of_point(curve: ParamRnc, point: ProjPoint) -> ProjPoint | None:
    """The unique parameter mapping to the point, or None off the curve.

    Membership is equivalent to rank one of the transported Hankel matrix
    at the point (its rank-one locus is exactly the curve), and then any
    nonzero column is proportional to (u, s)."""
    if point.n != curve.n:
        raise DimensionMismatch("point and curve dimensions differ")
    det = param_to_det(curve)
    top, bottom = det.m
    # both the columns and the integerized point are integer vectors; the
    # rank-one test and the ratio b : a do not depend on the point's scale
    x = integerize(point.coords)
    cols = [
        (
            sum(c.numerator * xi for c, xi in zip(f.coeffs, x) if xi),
            sum(c.numerator * xi for c, xi in zip(g.coeffs, x) if xi),
        )
        for f, g in zip(top, bottom)
    ]
    first = next(((a, b) for a, b in cols if a or b), None)
    if first is None:
        return None
    a, b = first
    for x, y in cols:
        if a * y != b * x:
            return None
    return parameter(b, a)


def restrict(curve: ParamRnc, form: LinForm) -> BinaryForm:
    """The hyperplane pulled back to the parameter line (degree n)."""
    if form.n != curve.n:
        raise DimensionMismatch("form and curve dimensions differ")
    n = curve.n
    # scale the form to integers by the lcm of its denominators
    scale = lcm(*(a.denominator for a in form.coeffs))
    out = [0] * (n + 1)
    for a, row in zip(form.coeffs, curve.ints):
        if a:
            a = a.numerator * (scale // a.denominator)
            for k, c in enumerate(row):
                if c:
                    out[k] += a * c
    if scale == 1:
        return BinaryForm(n, out)
    return BinaryForm(n, [QQ(x, scale) for x in out])


def secancy(curve: ParamRnc, pencil: Pencil) -> SecancyResult:
    """Scheme degree and smoothness of the intersection with the space."""
    if pencil.n != curve.n:
        raise DimensionMismatch("pencil and curve dimensions differ")
    f, g = pencil.canonical_forms()
    d_form = binary_gcd(restrict(curve, f), restrict(curve, g))
    smooth = is_squarefree(d_form)
    degree = d_form.degree
    return SecancyResult(
        degree=degree,
        d_form=d_form,
        smooth=smooth,
        is_n_minus_1_secant=(degree == curve.n - 1 and smooth),
    )


def generalized_column_for(det: DetRnc, pencil: Pencil) -> list[QQ] | None:
    """Coefficients expressing the pencil as a generalized column, or None.

    lambda must combine the matrix columns into two forms spanning exactly
    the pencil; membership of both combinations is linear in lambda, the
    spanning condition is checked on each kernel candidate.
    """
    if pencil.n != det.n:
        raise DimensionMismatch("pencil and matrix dimensions differ")
    n = det.n
    conditions = pencil.span_conditions()
    rows = []
    for w in conditions:
        for matrix_row in det.m:
            rows.append(
                [
                    sum((wi * ci for wi, ci in zip(w, matrix_row[j].coeffs)), QQ(0))
                    for j in range(n)
                ]
            )
    kernel = nullspace(rows)
    if not kernel:
        return None
    candidates = list(kernel)
    for i in range(len(kernel)):
        for j in range(i + 1, len(kernel)):
            candidates.append([a + b for a, b in zip(kernel[i], kernel[j])])
            candidates.append([a - b for a, b in zip(kernel[i], kernel[j])])
            candidates.append([a + 2 * b for a, b in zip(kernel[i], kernel[j])])
    if len(kernel) > 2:
        candidates.append([sum(col, QQ(0)) for col in zip(*kernel)])
    top, bottom = det.m
    for lam in candidates:
        combo_top = [
            sum((lam[j] * top[j].coeffs[i] for j in range(n)), QQ(0))
            for i in range(n + 1)
        ]
        combo_bottom = [
            sum((lam[j] * bottom[j].coeffs[i] for j in range(n)), QQ(0))
            for i in range(n + 1)
        ]
        if not any(combo_top) or not any(combo_bottom):
            continue
        if canonical_rowspace([combo_top, combo_bottom]) == pencil.canonical:
            return lam
    return None


def chord_space(curve: ParamRnc, params: Sequence) -> Pencil:
    """The span of n-1 distinct curve points given by their parameters."""
    pts = []
    seen = set()
    for p in params:
        t = p if isinstance(p, ProjPoint) else parameter(*p)
        if t in seen:
            raise RepeatedParameter(f"parameter {t} repeated")
        seen.add(t)
        pts.append(point_at_param(curve, t))
    return pencil_from_points(pts)


def quadric_space(curve) -> tuple:
    """Canonical basis (RREF rows) of the quadrics vanishing on the curve.

    Parametrized curves impose 2n+1 coefficient conditions on the monomial
    vector; determinantal curves contribute their 2 x 2 minors, which span
    the same C(n, 2)-dimensional space.  Comparing the canonical bases
    decides equality of curves, since a rnc is cut out by its quadrics.
    `curve_equals` uses this only for two determinantal curves; it is the
    elimination-based reference for the restriction check.
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
        columns = [
            joint_integerize([top[j].coeffs, bottom[j].coeffs]) for j in range(n)
        ]
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


def _matrix_defines(curve: ParamRnc, det: DetRnc) -> bool:
    """True iff the rank-one locus of `det` is the image of `curve`.

    Restrict every column (T_j, B_j) to the curve: t_j = T_j(x),
    b_j = B_j(x), binary forms of degree n.  Let (phi, psi) be the first
    nonzero restricted column divided by its gcd.  The curves are equal iff
    deg phi = 1, t_j psi = b_j phi for all j, and the quotients
    h_j = t_j / phi (degree n-1) are linearly independent.

    (<=) A constant row operation takes (phi, psi) to (u, s) and a constant
    column operation takes the h_j to s^(j-1) u^(n-j); linear forms are
    determined by their restrictions (x is linearly normal), so the two
    operations turn the matrix into the transported Hankel matrix.  They
    only recombine the 2 x 2 minors invertibly, so the minors span I_2(C),
    the C(n, 2)-dimensional space of quadrics through the curve.
    (=>) If t_j psi != b_j phi, the minor of column j with the first
    nonzero column does not vanish on the curve.  Otherwise, if phi or psi
    is 0 or deg phi = 0, a row operation yields a row vanishing on the
    curve, hence a zero row; if deg phi >= 2 or the h_j are dependent, a
    column operation yields a zero column.  Either way the minors are
    dependent and cannot span I_2(C).
    """
    top, bottom = det.m
    t = [restrict(curve, f) for f in top]
    b = [restrict(curve, f) for f in bottom]
    first = next(
        ((tj, bj) for tj, bj in zip(t, b) if not (tj.is_zero and bj.is_zero)), None
    )
    if first is None or first[0].is_zero or first[1].is_zero:
        return False
    g = binary_gcd(*first)
    phi, psi = divide_exact(first[0], g), divide_exact(first[1], g)
    if phi.degree != 1:
        return False
    if any(tj * psi != bj * phi for tj, bj in zip(t, b)):
        return False
    # phi and psi are coprime, so phi divides every t_j
    return Matrix([divide_exact(tj, phi).coeffs for tj in t]).det() != 0


def curve_equals(a, b) -> bool:
    """Exact image equality of two curves.

    A parametrization against a matrix is decided by restricting the matrix
    to the curve (`_matrix_defines`), with no elimination.  Two
    parametrizations compare one against the other's transported Hankel
    matrix; two matrices compare their canonical quadric spaces.
    """
    n_a = a.n if isinstance(a, (ParamRnc, DetRnc)) else None
    n_b = b.n if isinstance(b, (ParamRnc, DetRnc)) else None
    if n_a is None or n_b is None:
        raise TypeError("curve_equals compares curves")
    if n_a != n_b:
        raise DimensionMismatch("curves live in different spaces")
    if isinstance(a, DetRnc):
        if isinstance(b, DetRnc):
            return quadric_space(a) == quadric_space(b)
        a, b = b, a
    if isinstance(b, ParamRnc):
        b = param_to_det(b)
    return _matrix_defines(a, b)


def reparametrize(curve: ParamRnc, a, b, c, d) -> ParamRnc:
    """Precompose the parametrization with an invertible Moebius map."""
    if QQ(a) * QQ(d) - QQ(b) * QQ(c) == 0:
        raise ValueError("Moebius substitution must be invertible")
    return ParamRnc([f.substitute(a, b, c, d) for f in curve.forms])


def verify_datum(curve: ParamRnc, datum) -> VerificationReport:
    """Check every incidence condition of a datum exactly.

    Points must lie on the curve; each codimension-two space must cut a
    degree n-1 smooth (squarefree) scheme.  The report keeps each point's
    parameter and each space's gcd form for downstream consumers.
    """
    if datum.n != curve.n:
        raise DimensionMismatch("datum and curve dimensions differ")
    point_checks = []
    for p in datum.points:
        t = param_of_point(curve, p)
        point_checks.append(PointCheck(point=p, on_curve=t is not None, param=t))
    space_checks = [
        SpaceCheck(pencil=lam, secancy=secancy(curve, lam)) for lam in datum.spaces
    ]
    passed = all(pc.on_curve for pc in point_checks) and all(
        sc.secancy.is_n_minus_1_secant for sc in space_checks
    )
    return VerificationReport(
        points=tuple(point_checks), spaces=tuple(space_checks), passed=passed
    )


@register_transform(ParamRnc)
def _transform_param_rnc(t: ProjTransform, curve: ParamRnc) -> ParamRnc:
    if t.n != curve.n:
        raise DimensionMismatch("transform and curve dimensions differ")
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


@register_transform(DetRnc)
def _transform_det_rnc(t: ProjTransform, det: DetRnc) -> DetRnc:
    from .projective import transform

    return DetRnc([[transform(t, f) for f in row] for row in det.m])
