"""Constructors for every existence case of the classification.

Each constructor assembles a 2 x n matrix of linear forms anchored on the
input data so that the incidence conditions hold by construction, converts
it to a parametrization and verifies the datum exactly:

* n+3 points: closed-form frame fit (normalize n+2 points to the standard
  frame; the curve through the frame and (q_0 : ... : q_n) has coordinate
  forms q_i * prod_{j != i} (q_j s + u)); a degree-n Cremona pullback gives
  an independent second route.
* n+2 points + one space: the quadrics through the space are f A + g B
  for the pencil (f, g), so the (n-1)-dimensional system through the
  points is one kernel in the unknowns (A, B), and each solution gives a
  matrix column (-B, A).
* 3 points + n spaces: column i is the pair of pencil-i members through
  the first resp. second point, scaled to agree at the third.
* 2 points + n+1 spaces: columns anchored as above on the first n spaces;
  the last space determines the two scale vectors through one-dimensional
  kernels.
* 1 point + n+2 spaces: the top row is anchored through the point; the two
  extra spaces impose 2(n-1) linear conditions on the bottom row, whose
  solution space is 2-dimensional and contains the (useless) copy of the
  top row; a canonical complement completes the matrix.

Every genericity assumption is an explicit rank check; failures raise
NotGeneric with the stage and a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .curves import (
    DetRnc,
    ParamRnc,
    VerificationReport,
    _integer_columns,
    _verify_on_columns,
    det_to_param,
    param_to_det,
    point_at_param,
)
from .errors import (
    BadDimension,
    BadShape,
    DimensionMismatch,
    FundamentalLocus,
    NotGeneric,
    NotGenericMatrix,
)
from .generate import distinct_parameters, retrying, rng_from_seed
from .linalg import ff_rank, nullspace
from .obstruct import nonexistence_certificate
from .projective import (
    LinForm,
    Pencil,
    ProjPoint,
    ProjTransform,
    frame_map,
    register_transform,
    transform,
    unit_point,
)
from .binforms import BinaryForm, binary_gcd
from .scalars import QQ, integerize


class Datum:
    """An ordered configuration of l codimension-two spaces and p points."""

    __slots__ = ("n", "spaces", "points")

    def __init__(self, n: int, spaces: Sequence[Pencil] = (), points: Sequence[ProjPoint] = ()):
        if any(s.n != n for s in spaces) or any(p.n != n for p in points):
            raise DimensionMismatch("datum entries have mixed ambient dimensions")
        self.n = n
        self.spaces = tuple(spaces)
        self.points = tuple(points)

    @property
    def p(self) -> int:
        return len(self.points)

    @property
    def l(self) -> int:
        return len(self.spaces)

    def __eq__(self, other):
        return (
            isinstance(other, Datum)
            and (self.n, self.spaces, self.points) == (other.n, other.spaces, other.points)
        )

    def __hash__(self):
        return hash((self.n, self.spaces, self.points))

    def __repr__(self):
        return f"Datum(n={self.n}, l={self.l}, p={self.p})"


@register_transform(Datum)
def _transform_datum(t: ProjTransform, d: Datum) -> Datum:
    return Datum(
        n=d.n,
        spaces=[transform(t, s) for s in d.spaces],
        points=[transform(t, p) for p in d.points],
    )


VERDICT_OVER = "overdetermined"
VERDICT_FINITE = "finite_expected"
VERDICT_POSITIVE = "positive_dimensional"

EXISTS_UNIQUE = "exists_unique"
EXISTS_NONUNIQUE = "exists_nonunique"
NOT_EXISTS = "not_exists"
OPEN = "open"
TRIVIAL = "trivial"


@dataclass(frozen=True)
class CountAnalysis:
    """Dimension count and classification verdict for a (n, p, l) shape."""

    n: int
    p: int
    l: int
    dim_h: int
    conditions: int
    verdict: str
    classification: str
    curve_count: int | None = None


# every method an ExistenceCertificate can name
METHODS = ("frame_fit", "cremona", "np2_one_space", "three_points", "two_points", "one_point")


@dataclass(frozen=True)
class ExistenceCertificate:
    """A constructed curve with its verified incidence report."""

    method: str
    curve: ParamRnc
    det: DetRnc
    datum: Datum
    report: VerificationReport

    @staticmethod
    def make(method: str, datum: Datum, source: ParamRnc | DetRnc):
        """Derive the other representation from the source and verify the
        datum, locating points through the matrix.

        A matrix source is parametrized by `det_to_param` (a cached lookup
        after `_certify`), and the two need no equality check.  The curve x
        is the vector of signed maximal minors of N(s, u), whose rows are
        s T_j - u B_j, so s T_j(x) = u B_j(x) and each restricted column is
        (u h_j, s h_j).  The first nonzero column divided by its gcd is
        (u, s) up to a constant.  If the h_j were dependent, a nonzero
        column combination would restrict to 0 on the linearly normal x,
        so it would be the zero column; then the rows of N would be
        dependent and every minor 0, which `det_to_param` rejects.  So
        `curves._matrix_defines(x, det)` always holds: the minors span
        I_2(C) and the rank-one locus is exactly the curve.

        The same facts locate points.  A point off the curve gives the
        matrix rank two; at the curve point of parameter (s : u) not every
        h_j vanishes, as the n independent h_j span the forms of degree
        n - 1, and each nonzero column is proportional to (u, s).  So the
        parameters are read off the source matrix itself, as
        `param_of_point` reads them off the transported Hankel matrix
        `param_to_det`, which is the matrix of a parametrization source.
        No matrix is inverted for a matrix source.
        """
        if isinstance(source, DetRnc):
            det, curve = source, det_to_param(source)
        else:
            det, curve = param_to_det(source), source
        report = _verify_on_columns(curve, datum, _integer_columns(det))
        if not report.passed:
            raise NotGeneric(
                f"{method}: constructed curve fails verification",
                stage=f"{method}:verify",
                witness=report,
            )
        return ExistenceCertificate(
            method=method, curve=curve, det=det, datum=datum, report=report
        )


def _certify(method: str, stage: str, rows, datum: Datum) -> ExistenceCertificate:
    """Certify an assembled 2 x n matrix: parametrize it (a matrix whose
    rank-one locus is not a rnc raises NotGeneric at `stage`) and verify
    the datum."""
    det = DetRnc(rows)
    try:
        det_to_param(det)
    except NotGenericMatrix as exc:
        raise NotGeneric("assembled matrix is not generic", stage=stage) from exc
    return ExistenceCertificate.make(method, datum, det)


def _all_but_one(factors: Sequence, one) -> list:
    """prod_{j != i} factors[j] for every i, from prefix and suffix products
    (no division, so it works for forms as well as scalars)."""
    prefix = [one]
    for f in factors:
        prefix.append(prefix[-1] * f)
    suffix = [one]
    for f in reversed(factors):
        suffix.append(suffix[-1] * f)
    last = len(factors) - 1
    return [prefix[i] * suffix[last - i] for i in range(len(factors))]


@dataclass(frozen=True)
class UnsupportedCase:
    """A shape the classification leaves open; no constructor exists."""

    reason: str
    analysis: CountAnalysis


def expected_count(n: int, p: int, l: int) -> CountAnalysis:
    """Condition count against the dimension of the family of curves.

    The moduli of degree-n rational normal curves has dimension
    (n-1)(n+3); a point, like an (n-1)-secancy condition, costs n-1.  The
    classification refines the naive count: for p + l = n + 3 a unique
    curve exists exactly for the five listed shapes, never for p >= 4 and
    l >= 2, six curves exist for (p, l) = (0, 6) in P^3, and the all-spaces
    case is open for n > 3.
    """
    if n < 3:
        raise BadDimension(f"need ambient dimension >= 3, got {n}")
    if p < 0 or l < 0:
        raise BadDimension("negative counts")
    dim_h = (n - 1) * (n + 3)
    conditions = (p + l) * (n - 1)
    total = p + l
    if total > n + 3:
        verdict = VERDICT_OVER
    elif total == n + 3:
        verdict = VERDICT_FINITE
    else:
        verdict = VERDICT_POSITIVE

    curve_count: int | None = None
    if _existence_constructor(n, p, l) is not None:
        classification, curve_count = EXISTS_UNIQUE, 1
    elif (p >= 4 and l >= 2) or total > n + 3:
        # the quadric obstruction needs only four points and two spaces
        classification, curve_count = NOT_EXISTS, 0
    elif total < n + 3:
        classification = TRIVIAL
    elif n == 3:  # p == 0: n + 3 spaces
        classification, curve_count = EXISTS_NONUNIQUE, 6
    else:
        classification = OPEN
    return CountAnalysis(
        n=n,
        p=p,
        l=l,
        dim_h=dim_h,
        conditions=conditions,
        verdict=verdict,
        classification=classification,
        curve_count=curve_count,
    )


# -- (n+3, 0): curve through n+3 points --------------------------------------


def _frame_and_last(points: Sequence[ProjPoint]):
    n = points[0].n
    if len(points) != n + 3:
        raise DimensionMismatch(f"need {n + 3} points in P^{n}, got {len(points)}")
    t = frame_map(points[: n + 2])
    q = transform(t, points[n + 2]).coords
    for i, qi in enumerate(q):
        if not qi:
            witness = tuple(points[j] for j in range(n + 1) if j != i) + (points[n + 2],)
            raise NotGeneric(
                "last point lies on a coordinate hyperplane of the frame",
                stage="through_points:genericity",
                witness=witness,
            )
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if q[i] == q[j]:
                witness = tuple(
                    points[k] for k in range(n + 1) if k not in (i, j)
                ) + (points[n + 1], points[n + 2])
                raise NotGeneric(
                    "last point is dependent on the unit point and n-1 frame points",
                    stage="through_points:genericity",
                    witness=witness,
                )
    return t, q


def construct_through_points(points: Sequence[ProjPoint]) -> ExistenceCertificate:
    """The unique curve through n+3 points in linearly general position.

    In frame coordinates the last point is (q_0 : ... : q_n) and the curve
    is x_i(t) = q_i/(q_i t + 1): clearing denominators gives the coordinate
    forms q_i * prod_{j != i} (q_j s + u)."""
    t, q = _frame_and_last(points)
    n = points[0].n
    others = _all_but_one([BinaryForm(1, [1, qi]) for qi in q], BinaryForm.constant_one())
    normalized = ParamRnc([qi * f for qi, f in zip(q, others)])
    curve = transform(t.inverse(), normalized)
    return ExistenceCertificate.make("frame_fit", Datum(n=n, points=tuple(points)), curve)


def cremona_apply(x: ProjPoint) -> ProjPoint:
    """The standard degree-n involution x_i -> prod_{j != i} x_j."""
    coords = x.coords
    zeros = [i for i, c in enumerate(coords) if not c]
    if len(zeros) >= 2:
        raise FundamentalLocus(
            "point has two zero coordinates: image undefined",
            stage="cremona_apply",
            witness=x,
        )
    return ProjPoint(_all_but_one(coords, QQ(1)))


def cremona_pullback_line(a: ProjPoint, b: ProjPoint) -> ParamRnc:
    """Preimage of the line through a and b under the standard Cremona.

    Substituting the line u*a + s*b into the Cremona gives n+1 products of
    linear binary forms; a common factor means the line meets the
    fundamental locus and the preimage degenerates."""
    if a.n != b.n:
        raise DimensionMismatch("line endpoints in different spaces")
    if a == b:
        raise FundamentalLocus("line endpoints coincide", stage="cremona_pullback")
    factors = []
    for ai, bi in zip(a.coords, b.coords):
        if not ai and not bi:
            raise FundamentalLocus(
                "line lies inside a coordinate hyperplane",
                stage="cremona_pullback",
                witness=(a, b),
            )
        factors.append(BinaryForm(1, [ai, bi]))
    forms = _all_but_one(factors, BinaryForm.constant_one())
    common = forms[0]
    for f in forms[1:]:
        if common.degree == 0:
            break
        common = binary_gcd(common, f)
    if common.degree > 0:
        raise FundamentalLocus(
            "pullback coordinates share a factor: line meets the fundamental locus",
            stage="cremona_pullback",
            witness=common,
        )
    try:
        return ParamRnc(forms)
    except NotGenericMatrix as exc:
        raise FundamentalLocus(
            "pullback parametrization is degenerate", stage="cremona_pullback"
        ) from exc


def construct_through_points_cremona(points: Sequence[ProjPoint]) -> ExistenceCertificate:
    """Second route to the curve through n+3 points: normalize a frame,
    push the remaining two points through the Cremona and pull their line
    back."""
    t, q = _frame_and_last(points)
    n = points[0].n
    image_a = unit_point(n)  # the Cremona fixes the unit point
    image_b = cremona_apply(ProjPoint(q))
    if image_a == image_b:
        raise NotGeneric(
            "Cremona images coincide", stage="cremona:genericity", witness=points[-2:]
        )
    normalized = cremona_pullback_line(image_a, image_b)
    curve = transform(t.inverse(), normalized)
    return ExistenceCertificate.make("cremona", Datum(n=n, points=tuple(points)), curve)


# -- (n+2, 1) -----------------------------------------------------------------


def construct_np2_one_space(
    points: Sequence[ProjPoint], space: Pencil
) -> ExistenceCertificate:
    """Unique curve through n+2 points and (n-1)-secant to one space.

    The quadrics through the space are f A + g B for its canonical forms
    (f, g), with (A, B) unique once B_m = 0 (m the last nonzero column of
    f).  Those through the points, the kernel of one row f(p) p | g(p) p
    per point, form an (n-1)-dimensional system whose base locus is the
    space plus the curve, so any basis of it gives the curve: each vector
    (A, B) of the `nullspace` basis gives a column (-B, A) of a 2 x n
    matrix with first column (f, g).  The `np2:decomposition` check does
    not depend on the basis wherever a curve exists: every member meets
    the curve in degree n-1 + n+2 = 2n+1 > 2n and so contains it, and a
    member f A or g B would put the curve in a hyperplane.
    """
    n = space.n
    if len(points) != n + 2:
        raise DimensionMismatch(f"need {n + 2} points, got {len(points)}")
    datum = Datum(n=n, spaces=(space,), points=tuple(points))
    for p in points:
        if space.contains_point(p):
            raise NotGeneric(
                "a datum point lies on the space", stage="np2:datum", witness=p
            )
    f, g = space.canonical_forms()
    m = max(j for j, c in enumerate(f.coeffs) if c)
    rows = []
    for p in points:
        x = integerize(p.coords)
        fx, gx = (sum(map(mul, form.coeffs, x)) for form in (f, g))
        rows.append([fx * c for c in x] + [gx * c for j, c in enumerate(x) if j != m])
    kernel = nullspace(rows)
    if len(kernel) != n - 1:
        raise NotGeneric(
            f"quadric system through the datum has dimension {len(kernel)}, expected {n - 1}",
            stage="np2:quadric_dimension",
            witness=len(kernel),
        )
    top: list[LinForm] = [f]
    bottom: list[LinForm] = [g]
    for w in kernel:
        a_coeffs, b_coeffs = w[: n + 1], w[n + 1: n + 1 + m] + [QQ(0)] + w[n + 1 + m:]
        if not any(a_coeffs) or not any(b_coeffs):
            raise NotGeneric(
                "degenerate quadric decomposition", stage="np2:decomposition"
            )
        top.append(LinForm([-c for c in b_coeffs]))
        bottom.append(LinForm(a_coeffs))
    return _certify("np2_one_space", "np2:conversion", [top, bottom], datum)


# -- (3, n) -------------------------------------------------------------------


def construct_three_points(
    points: Sequence[ProjPoint], spaces: Sequence[Pencil]
) -> ExistenceCertificate:
    """Unique curve through 3 points, secant to n spaces (determinantal
    Steiner construction): column i pairs the pencil-i members through the
    first and second point, scaled so the rows agree at the third."""
    n = spaces[0].n if spaces else 0
    if len(points) != 3 or len(spaces) != n:
        raise DimensionMismatch("need exactly 3 points and n spaces")
    p1, p2, p3 = points
    datum = Datum(n=n, spaces=tuple(spaces), points=tuple(points))
    top: list[LinForm] = []
    bottom: list[LinForm] = []
    for i, pencil in enumerate(spaces):
        h1, _ = pencil.member_through(p1)
        h2, _ = pencil.member_through(p2)
        c_num = h1.at(p3)
        c_den = h2.at(p3)
        if not c_num or not c_den:
            raise NotGeneric(
                "third point is incident to an anchored member",
                stage="three_points:anchor",
                witness=(i, p3),
            )
        # scale the whole column by c_den: rows still agree at p3
        top.append(LinForm([c_den * c for c in h1.coeffs]))
        bottom.append(LinForm([c_num * c for c in h2.coeffs]))
    return _certify("three_points", "three_points:conversion", [top, bottom], datum)


# -- (2, n+1) -----------------------------------------------------------------


def construct_two_points(
    points: Sequence[ProjPoint], spaces: Sequence[Pencil]
) -> ExistenceCertificate:
    """Unique curve through 2 points, secant to n+1 spaces.

    Columns 1..n anchor the first n spaces through the two points; the last
    space must be a generalized column with coefficients (1, ..., 1), which
    pins the two scale vectors via one-dimensional kernels."""
    n = spaces[0].n if spaces else 0
    if len(points) != 2 or len(spaces) != n + 1:
        raise DimensionMismatch("need exactly 2 points and n+1 spaces")
    p1, p2 = points
    datum = Datum(n=n, spaces=tuple(spaces), points=tuple(points))
    anchored, extra = spaces[:n], spaces[n]
    h_first = []
    h_second = []
    for pencil in anchored:
        h1, _ = pencil.member_through(p1)
        h2, _ = pencil.member_through(p2)
        h_first.append(h1)
        h_second.append(h2)
    k_kernel = nullspace(extra.membership_rows([h.coeffs for h in h_first]))
    if len(k_kernel) != 1:
        raise NotGeneric(
            f"first-row kernel has dimension {len(k_kernel)}, expected 1",
            stage="two_points:kernel",
            witness=len(k_kernel),
        )
    m_kernel = nullspace(extra.membership_rows([h.coeffs for h in h_second]))
    if len(m_kernel) != 1:
        raise NotGeneric(
            f"second-row kernel has dimension {len(m_kernel)}, expected 1",
            stage="two_points:kernel",
            witness=len(m_kernel),
        )
    k_vec, m_vec = k_kernel[0], m_kernel[0]
    if any(not x for x in k_vec) or any(not x for x in m_vec):
        raise NotGeneric(
            "a column scale vanishes", stage="two_points:scales", witness=(k_vec, m_vec)
        )
    top = [LinForm([k * c for c in h.coeffs]) for k, h in zip(k_vec, h_first)]
    bottom = [LinForm([m * c for c in h.coeffs]) for m, h in zip(m_vec, h_second)]
    combo_top = [sum(col, QQ(0)) for col in zip(*(f.coeffs for f in top))]
    combo_bottom = [sum(col, QQ(0)) for col in zip(*(f.coeffs for f in bottom))]
    if not extra.spanned_by(combo_top, combo_bottom):
        raise NotGeneric(
            "recovered combinations do not span the last space",
            stage="two_points:span",
        )
    return _certify("two_points", "two_points:conversion", [top, bottom], datum)


# -- (1, n+2) -----------------------------------------------------------------


def construct_one_point(
    point: ProjPoint, spaces: Sequence[Pencil]
) -> ExistenceCertificate:
    """Unique curve through one point, secant to n+2 spaces.

    The anchored top row is forced by the point; each extra space first
    determines (via a 1-dimensional kernel) the combination of top-row
    entries lying in it, then contributes n-1 linear conditions on the
    unknown bottom row.  The joint solution space is 2-dimensional and
    contains the copy of the top row; any solution outside that line gives
    the curve, and a canonical complement makes the choice deterministic."""
    n = spaces[0].n if spaces else 0
    if len(spaces) != n + 2:
        raise DimensionMismatch("need exactly n+2 spaces")
    datum = Datum(n=n, spaces=tuple(spaces), points=(point,))
    anchored, extras = spaces[:n], spaces[n:]
    tops = []
    row1_coords = []
    pencil_bases = []
    for pencil in anchored:
        h, (a, b) = pencil.member_through(point)
        tops.append(h)
        row1_coords.extend([a, b])
        pencil_bases.append(pencil.canonical_forms())
    condition_rows = []
    for extra in extras:
        e_kernel = nullspace(extra.membership_rows([h.coeffs for h in tops]))
        if len(e_kernel) != 1:
            raise NotGeneric(
                f"top-row kernel has dimension {len(e_kernel)}, expected 1",
                stage="one_point:row_kernel",
                witness=len(e_kernel),
            )
        scales = [e for e in e_kernel[0] for _ in range(2)]
        for row in extra.membership_rows([h.coeffs for pair in pencil_bases for h in pair]):
            condition_rows.append(list(map(mul, scales, row)))
    solutions = nullspace(condition_rows)
    if len(solutions) != 2:
        raise NotGeneric(
            f"bottom-row solution space has dimension {len(solutions)}, expected 2",
            stage="one_point:solution_space",
            witness=len(solutions),
        )
    # row1 = (a_i, b_i) with h_i = a_i f_i + b_i g_i always solves the
    # conditions: each condition row dotted with row1 is w . sum_i e_i h_i,
    # which is 0 because sum_i e_i h_i lies in the extra space and w is one
    # of its span conditions.  So only the pick below needs a rank test.
    pick = solutions[0] if ff_rank([row1_coords, solutions[0]]) == 2 else solutions[1]
    bottom = []
    for i, (f_i, g_i) in enumerate(pencil_bases):
        gamma, delta = pick[2 * i], pick[2 * i + 1]
        coeffs = [gamma * a + delta * b for a, b in zip(f_i.coeffs, g_i.coeffs)]
        if not any(coeffs):
            raise NotGeneric(
                "bottom-row entry vanishes", stage="one_point:bottom_entry", witness=i
            )
        bottom.append(LinForm(coeffs))
    return _certify("one_point", "one_point:conversion", [tops, bottom], datum)


# -- dispatcher ----------------------------------------------------------------


def _existence_constructor(n: int, p: int, l: int):
    """The constructor of the existence shape (p, l) in P^n, or None; the
    one table of the five shapes for `expected_count` and `construct`."""
    return {
        (n + 3, 0): lambda d: construct_through_points(d.points),
        (n + 2, 1): lambda d: construct_np2_one_space(d.points, d.spaces[0]),
        (3, n): lambda d: construct_three_points(d.points, d.spaces),
        (2, n + 1): lambda d: construct_two_points(d.points, d.spaces),
        (1, n + 2): lambda d: construct_one_point(d.points[0], d.spaces),
    }.get((p, l))


def construct(datum: Datum):
    """Resolve a datum: a certificate, an obstruction, or an open case.

    p >= 4, l >= 2 delegates to the obstruction module at any total p + l;
    other shapes off the p + l = n + 3 line raise BadShape carrying the
    count analysis."""
    n, p, l = datum.n, datum.p, datum.l
    analysis = expected_count(n, p, l)
    if p >= 4 and l >= 2:
        return nonexistence_certificate(datum)
    if p + l != n + 3:
        raise BadShape(
            f"(p, l) = ({p}, {l}) is not a finite-count shape for n = {n}",
            analysis=analysis,
        )
    build = _existence_constructor(n, p, l)
    if build is not None:
        return build(datum)
    return UnsupportedCase(
        reason=(
            "no constructor for n+3 codimension-two spaces: open for n > 3, "
            "and the six P^3 curves are out of scope"
        ),
        analysis=analysis,
    )


# -- special data mirroring the existence proofs -------------------------------

SPECIAL_CASES = ("through_points", "one_space", "three_points", "two_points", "one_point")


def _zero_locus_point(forms: Sequence[LinForm]) -> ProjPoint:
    kernel = nullspace([list(f.coeffs) for f in forms])
    if len(kernel) != 1:
        raise NotGeneric(
            "row system does not cut a single point",
            stage="special_datum",
            witness=len(kernel),
        )
    return ProjPoint(kernel[0])


def _combine(forms: Sequence[LinForm], weights) -> LinForm:
    coeffs = [QQ(0)] * (forms[0].n + 1)
    for w, f in zip(weights, forms):
        if w:
            coeffs = [c + w * x for c, x in zip(coeffs, f.coeffs)]
    return LinForm(coeffs)


def special_datum(n: int, case: str, seed) -> tuple[Datum, ParamRnc]:
    """A seeded datum assembled exactly as the corresponding existence
    proof prescribes, together with the curve that satisfies it."""
    if case not in SPECIAL_CASES:
        raise ValueError(f"unknown case {case!r}; choose from {SPECIAL_CASES}")
    if n < 3:
        raise BadDimension("need n >= 3")
    rng = rng_from_seed(seed)

    def attempt():
        top = [
            LinForm([rng.randint(-5, 5) for _ in range(n + 1)]) for _ in range(n)
        ]
        bottom = [
            LinForm([rng.randint(-5, 5) for _ in range(n + 1)]) for _ in range(n)
        ]
        det = DetRnc([top, bottom])
        curve = det_to_param(det)  # NotGenericMatrix -> retry
        if case == "through_points":
            params = distinct_parameters(n + 3, rng)
            datum = Datum(n=n, points=[point_at_param(curve, t) for t in params])
        elif case == "one_space":
            space = Pencil(top[0], bottom[0])
            points = []
            pairs = set()
            while len(points) < n + 2:
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                if (a, b) == (0, 0):
                    continue
                key = tuple(QQ(x) for x in ProjPoint([a, b]).coords)
                if key in pairs:
                    continue
                pairs.add(key)
                rows = [_combine((f, g), (a, b)) for f, g in zip(top, bottom)]
                points.append(_zero_locus_point(rows))
            datum = Datum(n=n, spaces=(space,), points=points)
        elif case == "three_points":
            p1 = _zero_locus_point(top)
            p2 = _zero_locus_point(bottom)
            p3 = _zero_locus_point(
                [_combine((f, g), (1, 1)) for f, g in zip(top, bottom)]
            )
            spaces = [Pencil(f, g) for f, g in zip(top, bottom)]
            datum = Datum(n=n, spaces=spaces, points=(p1, p2, p3))
        elif case == "two_points":
            p1 = _zero_locus_point(top)
            p2 = _zero_locus_point(bottom)
            spaces = [Pencil(f, g) for f, g in zip(top, bottom)]
            spaces.append(
                Pencil(_combine(top, [1] * n), _combine(bottom, [1] * n))
            )
            datum = Datum(n=n, spaces=spaces, points=(p1, p2))
        else:  # one_point
            p = _zero_locus_point(top)
            spaces = [Pencil(f, g) for f, g in zip(top, bottom)]
            if n % 2:  # n = 2m - 1
                m = (n + 1) // 2
                w1 = [1 if i < m else 0 for i in range(n)]
                w2 = [1 if i >= m - 1 else 0 for i in range(n)]
            else:  # n = 2m - 2
                m = (n + 2) // 2
                w1 = [1 if i < m else 0 for i in range(n)]
                w2 = [1 if (i == 0 or i >= m - 1) else 0 for i in range(n)]
            spaces.append(Pencil(_combine(top, w1), _combine(bottom, w1)))
            spaces.append(Pencil(_combine(top, w2), _combine(bottom, w2)))
            datum = Datum(n=n, spaces=spaces, points=(p,))
        # the minor parametrization of `det`: locate points through it
        if not _verify_on_columns(curve, datum, _integer_columns(det)).passed:
            return None
        return datum, curve

    return retrying(40, attempt, f"no generic special datum for case {case!r}")
