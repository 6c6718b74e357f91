"""The two faces of a rational normal curve and the secancy calculus.

A `ParamRnc` is a degree-n parametrization of P^1 into P^n whose
coefficient matrix is invertible (equivalently, the image is a rational
normal curve).  A `DetRnc` is a 2 x n matrix of linear forms whose rank-one
locus is the curve.  Conversions go both ways:

* param -> det transports the Hankel matrix of the normal-form curve
  (u^n, s u^(n-1), ..., s^n) through the inverse coefficient matrix, so on
  the curve the column j evaluates to a multiple of (u, s); that is what
  lets `param_of_point` read a parameter off any nonzero column.  Any
  matrix whose rank-one locus is the curve and whose columns restrict to
  (u h_j, s h_j) locates points the same way, which is how constructors
  verify through the matrix they built (`_verify_on_columns`).
* det -> param solves the n x (n+1) linear system expressing row
  proportionality at the parameter (s : u); the solution is the vector of
  signed maximal minors.  At each of the n+1 nodes s/u = 0..n one
  fraction-free elimination yields all of them, and a cached integer
  inverse Vandermonde matrix interpolates the minor forms exactly.

Restriction of a linear form, evaluation at a point and chord spaces run
on integers: the curve keeps its primitive integer coefficients and, once
computed, an integer multiple of their inverse, which gives both the
transported Hankel matrix (with primitive integer columns) and the forms
through any n-1 curve points.  The invertibility check of
a `ParamRnc` is a certified modular rank of those coefficients (one
elimination mod p when, as for every curve, the rank is full).

Equality has one algorithm: restricting a matrix to a parametrized curve
(`_matrix_defines`), with no elimination and no gcd: integer products of
the restricted columns and one certified rank.  A parametrization meets
the other's transported Hankel matrix, and of two matrices the first is
parametrized by `det_to_param`.  Chord spaces take their canonical stack
in closed form (`projective.canonical_stack`).

Intersections with codimension-two spaces are never split into points: the
scheme is carried as the monic gcd of the two restricted pencil generators,
which keeps all data rational even when the intersection points are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .binforms import BinaryForm, _int_mul, binary_gcd, is_squarefree
from .errors import (
    DimensionMismatch,
    NotGenericMatrix,
    RepeatedParameter,
    ZeroParameter,
)
from .linalg import (
    Matrix,
    ff_rank,
    nullspace,
    signed_maximal_minors,
)
from .projective import (
    LinForm,
    Pencil,
    ProjPoint,
    ProjTransform,
    canonical_stack,
    register_transform,
    transform,
)
from .scalars import QQ, as_qq, clear_denominators, integerize


def parameter(s, u) -> ProjPoint:
    """A point of the parameter line P^1, canonicalized."""
    return ProjPoint([s, u])


class ParamRnc:
    """A rational normal curve given by n+1 degree-n binary forms.

    Forms are stored jointly rescaled to a primitive integer coefficient
    vector with positive leading entry; a common rescaling does not change
    the map.  `ints` keeps those coefficients as Python integers, one row
    per form.  `param_to_det` and `chord_space` share one integer inverse
    of that matrix, computed on first use (`_scaled_inverse`).
    """

    __slots__ = ("n", "forms", "ints", "_det", "_inv")

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
        if ff_rank(self.ints) != n + 1:
            raise NotGenericMatrix(
                "coefficient matrix is singular: not a linearly normal degree-n map",
                stage="param_rnc",
            )
        self._det = None
        self._inv = None

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
    """The curve point at the parameter (s : u), evaluated on the integer
    coefficients at the integerized parameter: a rescaled parameter only
    rescales the coordinates, and a projective point does not see that."""
    s, u = as_qq(s), as_qq(u)
    if not s and not u:
        raise ZeroParameter("(0, 0) is not a parameter")
    s, u = integerize((s, u))
    n = curve.n
    spow, upow = [1], [1]
    for _ in range(n):
        spow.append(spow[-1] * s)
        upow.append(upow[-1] * u)
    mono = [a * b for a, b in zip(spow, reversed(upow))]
    return ProjPoint([sum(c * m for c, m in zip(row, mono) if c) for row in curve.ints])


def _combine_rows(coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
    """sum_i coeffs[i] rows[i], in integers.  With `rows` = `curve.ints`
    this restricts the form of coefficients `coeffs` to the curve."""
    out = [0] * len(rows[0])
    for a, row in zip(coeffs, rows):
        if a:
            for k, c in enumerate(row):
                if c:
                    out[k] += a * c
    return out


def point_at_param(curve: ParamRnc, t: ProjPoint) -> ProjPoint:
    return point_at(curve, t.coords[0], t.coords[1])


def _scaled_inverse(curve: ParamRnc) -> tuple[tuple[int, ...], ...]:
    """The rows R_k of d C^-1, for C = `curve.ints` and d > 0 the lcm of
    the inverse's denominators.  A form restricts to the curve as its
    coefficient vector times C, so sum_k r_k R_k restricts to d r.  The
    one `Matrix.inverse` of a curve, cached on it."""
    if curve._inv is None:
        n1 = curve.n + 1
        flat, _ = clear_denominators(
            x for row in Matrix(curve.ints).inverse().entries for x in row
        )
        curve._inv = tuple(tuple(flat[i * n1: (i + 1) * n1]) for i in range(n1))
    return curve._inv


def param_to_det(curve: ParamRnc) -> DetRnc:
    """The transported Hankel matrix; columns scaled to primitive integers
    (a per-column scale keeps the (u, s) column ratio intact)."""
    if curve._det is not None:
        return curve._det
    n = curve.n
    back = _scaled_inverse(curve)
    top, bottom = [], []
    for j in range(n):
        ints = integerize(back[j] + back[j + 1])
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
        flat, scale = clear_denominators(x for row in v.inverse().entries for x in row)
        rows = tuple(tuple(flat[i * (n + 1): (i + 1) * (n + 1)]) for i in range(n + 1))
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
    # one joint integer scale per column keeps all minors consistently scaled
    columns = _integer_columns(det)
    values = [  # values[r][k]: minor k at the node r
        signed_maximal_minors(
            [[r * a - b for a, b in zip(col[: n + 1], col[n + 1:])] for col in columns]
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


def _integer_columns(det: DetRnc) -> list[list[int]]:
    """Each column (T_j, B_j) as one primitive integer vector T_j + B_j.
    Top and bottom are scaled jointly, which keeps T_j(x) : B_j(x) at every
    point; scaling them apart (or taking numerators) would not."""
    top, bottom = det.m
    return [integerize(f.coeffs + g.coeffs) for f, g in zip(top, bottom)]


def _locate(columns: Sequence[Sequence[int]], point: ProjPoint) -> ProjPoint | None:
    """The parameter (s : u) of a point on the rank-one locus of a matrix
    given by `_integer_columns`, or None off it.  The matrix must restrict
    to the curve as columns (u h_j, s h_j) with the h_j independent: then
    its rank-one locus is the curve and, at a curve point, any nonzero
    column is proportional to (u, s)."""
    n1 = point.n + 1
    # the rank-one test and the ratio b : a do not depend on the point's scale
    x = integerize(point.coords)
    first = None
    for col in columns:
        a = sum(c * xi for c, xi in zip(col[:n1], x) if xi)
        b = sum(c * xi for c, xi in zip(col[n1:], x) if xi)
        if first is None:
            if a or b:
                first = (a, b)
        elif first[0] * b != first[1] * a:
            return None
    if first is None:
        return None
    return parameter(first[1], first[0])


def param_of_point(curve: ParamRnc, point: ProjPoint) -> ProjPoint | None:
    """The unique parameter mapping to the point, or None off the curve.

    Membership is equivalent to rank one of the transported Hankel matrix
    at the point (its rank-one locus is exactly the curve), and then any
    nonzero column is proportional to (u, s)."""
    if point.n != curve.n:
        raise DimensionMismatch("point and curve dimensions differ")
    return _locate(_integer_columns(param_to_det(curve)), point)


def restrict(curve: ParamRnc, form: LinForm) -> BinaryForm:
    """The hyperplane pulled back to the parameter line (degree n)."""
    if form.n != curve.n:
        raise DimensionMismatch("form and curve dimensions differ")
    coeffs, scale = clear_denominators(form.coeffs)
    out = _combine_rows(coeffs, curve.ints)
    if scale == 1:
        return BinaryForm(curve.n, out)
    return BinaryForm(curve.n, [QQ(x, scale) for x in out])


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
    rows = [[form.coeffs for form in row] for row in det.m]
    kernel = nullspace(pencil.membership_rows(rows[0]) + pencil.membership_rows(rows[1]))
    # Both combinations lie in the pencil, so lambda works exactly when
    # Q(lambda) != 0, Q being the determinant of their coordinates in the
    # pencil basis (`Pencil.spanned_by`): a quadratic form on the kernel.
    # If Q vanishes at every k_i and every k_i + k_j, polarization gives
    # B(k_i, k_j) = 0 for all i, j, so Q vanishes identically and no
    # lambda works.
    candidates = list(kernel)
    for i in range(len(kernel)):
        for j in range(i + 1, len(kernel)):
            candidates.append([a + b for a, b in zip(kernel[i], kernel[j])])
    for lam in candidates:
        top, bottom = (
            [sum((x * h[i] for x, h in zip(lam, row)), QQ(0)) for i in range(det.n + 1)]
            for row in rows
        )
        if pencil.spanned_by(top, bottom):
            return lam
    return None


def chord_space(curve: ParamRnc, params: Sequence) -> Pencil:
    """The span of n-1 distinct curve points given by their parameters.

    A form vanishes at the points iff its restriction is a multiple of
    D = prod (u_i s - s_i u), of degree n-1, so the span is cut out by the
    forms restricting to D s and D u: (D s) R and (D u) R for R the
    curve's `_scaled_inverse`.  The pencil's f and g are the canonical
    `nullspace` basis of the points: its free columns are the lex-last
    columns on which the two forms are independent, so that basis is the
    `canonical_stack` of the two forms with their coordinates reversed,
    read back in reverse.
    """
    n = curve.n
    seen = set()
    d_form = [1]  # coefficients of D, ascending in s
    for p in params:
        t = p if isinstance(p, ProjPoint) else parameter(*p)
        if t in seen:
            raise RepeatedParameter(f"parameter {t} repeated")
        seen.add(t)
        s, u = integerize(t.coords)
        d_form = [u * a - s * b for a, b in zip([0] + d_form, d_form + [0])]
    if n < 3:
        raise DimensionMismatch("pencils from point spans need n >= 3")
    if len(seen) != n - 1:
        raise DimensionMismatch(f"expected {n - 1} points spanning a P^{n - 2}")
    back = _scaled_inverse(curve)
    (last, first), _ = canonical_stack(  # of D s and D u, reversed
        *(_combine_rows(r, back)[::-1] for r in ([0] + d_form, d_form + [0]))
    )
    return Pencil(LinForm(first[::-1]), LinForm(last[::-1]))


def _matrix_defines(curve: ParamRnc, det: DetRnc) -> bool:
    """True iff the rank-one locus of `det` is the image of `curve`.

    Restrict every column (T_j, B_j) to the curve: t_j = T_j(x),
    b_j = B_j(x), integer binary forms of degree n (each column jointly
    scaled, which changes nothing below).  Let (t_1, b_1) be the first
    nonzero restricted column.  The curves are equal iff
    (a) t_1 and b_1 are not proportional,
    (b) t_j b_1 = b_j t_1 for every j, and
    (c) the t_j are linearly independent.

    First, (a)-(c) say the same as the restriction criterion: with
    g = gcd(t_1, b_1), phi = t_1 / g, psi = b_1 / g and k = deg phi,
    k = 1, t_j psi = b_j phi for all j, and the quotients h_j = t_j / phi
    are independent.  Given (a)-(c): k = 0 would make t_1 and b_1 both
    multiples of g, so (a) gives k >= 1; (b) divided by g gives
    t_j psi = b_j phi, so phi divides t_j, phi and psi being coprime; the
    n forms h_j of degree n - k are independent by (c), so n <= n - k + 1
    and k = 1.  Conversely, coprime linear phi and psi are not
    proportional, multiplying by g gives (b), and t_j = phi h_j carries the
    independence of the h_j over to the t_j.

    That restriction criterion decides equality.
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

    Only integer products and one certified rank run: no gcd, no division
    and no `BinaryForm`.
    """
    n1 = curve.n + 1
    rows = curve.ints
    t, b = [], []
    for col in _integer_columns(det):
        t.append(_combine_rows(col[:n1], rows))
        b.append(_combine_rows(col[n1:], rows))
    first = next(((tj, bj) for tj, bj in zip(t, b) if any(tj) or any(bj)), None)
    if first is None:
        return False
    t1, b1 = first
    i = next(k for k in range(n1) if t1[k] or b1[k])
    if all(t1[i] * y == b1[i] * x for x, y in zip(t1, b1)):
        return False
    if any(_int_mul(tj, b1) != _int_mul(bj, t1) for tj, bj in zip(t, b)):
        return False
    return ff_rank(t) == det.n


def curve_equals(a, b) -> bool:
    """Exact image equality of two curves.

    A parametrization against a matrix is decided by restricting the matrix
    to the curve (`_matrix_defines`), with no elimination.  Two
    parametrizations compare one against the other's transported Hankel
    matrix; of two matrices the first is parametrized by `det_to_param`.
    A matrix whose rank-one locus is not a rnc equals no rnc; when neither
    matrix is one, NotGenericMatrix is raised.
    """
    n_a = a.n if isinstance(a, (ParamRnc, DetRnc)) else None
    n_b = b.n if isinstance(b, (ParamRnc, DetRnc)) else None
    if n_a is None or n_b is None:
        raise TypeError("curve_equals compares curves")
    if n_a != n_b:
        raise DimensionMismatch("curves live in different spaces")
    if isinstance(a, DetRnc):
        if isinstance(b, DetRnc):
            try:
                a = det_to_param(a)
            except NotGenericMatrix:
                det_to_param(b)  # raises too when neither matrix is a rnc
                return False
        else:
            a, b = b, a
    if isinstance(b, ParamRnc):
        b = param_to_det(b)
    return _matrix_defines(a, b)


def reparametrize(curve: ParamRnc, a, b, c, d) -> ParamRnc:
    """Precompose the parametrization with an invertible Moebius map."""
    if as_qq(a) * as_qq(d) - as_qq(b) * as_qq(c) == 0:
        raise ValueError("Moebius substitution must be invertible")
    return ParamRnc([f.substitute(a, b, c, d) for f in curve.forms])


def verify_datum(curve: ParamRnc, datum) -> VerificationReport:
    """Check every incidence condition of a datum exactly.

    Points must lie on the curve; each codimension-two space must cut a
    degree n-1 smooth (squarefree) scheme.  The report keeps each point's
    parameter and each space's gcd form for downstream consumers.
    """
    return _verify_on_columns(curve, datum, _integer_columns(param_to_det(curve)))


def verify_claims(
    curve: ParamRnc, datum, claimed: VerificationReport
) -> VerificationReport | None:
    """The report `verify_datum(curve, datum)` returns, found by checking
    the claims of a passing report instead of recomputing them; None when
    a claim fails or the report does not say that it passes.

    A point's claim holds when the curve's integer coefficients,
    evaluated at its claimed parameter t, give the point (`point_at`):
    the parametrization is injective, so t is the parameter
    `verify_datum` reads.  A space's claimed d-form D must have degree n-1, be monic and
    squarefree, and divide the restrictions F and G of both canonical
    forms with linear quotients that are not proportional.  Then the
    quotients are coprime, so gcd(F, G) = D up to a scalar, and both are
    monic: `secancy` would return D, smooth and (n-1)-secant.  D is made
    primitive, so it divides an integer form over Q only with an integer
    quotient (Gauss's lemma), and exact integer long division decides
    each quotient.  No matrix is inverted and no gcd of degree n is taken.

    The report is built from the datum's own points and spaces, whose
    forms are the ones `verify_datum` emits; a claimed space only has to
    be equal to its datum space.
    """
    n = curve.n
    if not (
        claimed.passed
        and datum.n == n
        and len(claimed.points) == datum.p
        and len(claimed.spaces) == datum.l
    ):
        return None
    point_checks = []
    for point, pc in zip(datum.points, claimed.points):
        t = pc.param
        if not (pc.on_curve and pc.point == point and t is not None and t.n == 1):
            return None
        if point_at_param(curve, t) != point:
            return None
        point_checks.append(PointCheck(point=point, on_curve=True, param=t))
    space_checks = []
    for pencil, sc in zip(datum.spaces, claimed.spaces):
        r = sc.secancy
        d_form = r.d_form
        if not (
            sc.pencil == pencil
            and r.smooth
            and r.is_n_minus_1_secant
            and r.degree == d_form.degree == n - 1
            and next((c for c in reversed(d_form.coeffs) if c), 0) == 1
            and is_squarefree(d_form)
        ):
            return None
        d_ints = integerize(d_form.coeffs)
        quotients = [
            _linear_quotient(_combine_rows(clear_denominators(row)[0], curve.ints), d_ints)
            for row in pencil.canonical
        ]
        if None in quotients:
            return None
        (a0, a1), (b0, b1) = quotients
        if a0 * b1 == a1 * b0:
            return None
        secancy = SecancyResult(
            degree=n - 1, d_form=d_form, smooth=True, is_n_minus_1_secant=True
        )
        space_checks.append(SpaceCheck(pencil=pencil, secancy=secancy))
    return VerificationReport(
        points=tuple(point_checks), spaces=tuple(space_checks), passed=True
    )


def _linear_quotient(f: Sequence[int], d: Sequence[int]) -> tuple[int, int] | None:
    """(q0, q1) with f = d (q0 u + q1 s) for integer forms f of degree m
    and d != 0 of degree m-1 (ascending coefficients of s), or None when
    there is no such integer pair.  With a the lowest index where d is
    nonzero, f_a = d_a q0 and f_(a+1) = d_(a+1) q0 + d_a q1 fix the pair;
    every coefficient is then compared."""
    a = next(k for k, c in enumerate(d) if c)
    lower, upper = [0, *d], [*d, 0]  # d shifted by s, and padded
    q0, r0 = divmod(f[a], d[a])
    q1, r1 = divmod(f[a + 1] - upper[a + 1] * q0, d[a])
    if r0 or r1 or any(fk != x * q0 + y * q1 for fk, x, y in zip(f, upper, lower)):
        return None
    return q0, q1


def _verify_on_columns(curve: ParamRnc, datum, columns) -> VerificationReport:
    """`verify_datum`, locating points through `columns` (see `_locate`);
    the caller vouches that their matrix restricts to the curve as
    (u h_j, s h_j) with independent h_j."""
    if datum.n != curve.n:
        raise DimensionMismatch("datum and curve dimensions differ")
    point_checks = []
    for p in datum.points:
        t = _locate(columns, p)
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
    """The forms t * curve.forms, computed as (D t) * curve.ints for D the
    common denominator of t: `ParamRnc` scales away the factor D > 0."""
    if t.n != curve.n:
        raise DimensionMismatch("transform and curve dimensions differ")
    n1 = curve.n + 1
    flat, _ = clear_denominators(x for row in t.matrix.entries for x in row)
    return ParamRnc(
        [
            BinaryForm(curve.n, _combine_rows(flat[i * n1: (i + 1) * n1], curve.ints))
            for i in range(n1)
        ]
    )


@register_transform(DetRnc)
def _transform_det_rnc(t: ProjTransform, det: DetRnc) -> DetRnc:
    return DetRnc([[transform(t, f) for f in row] for row in det.m])
