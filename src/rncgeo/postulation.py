"""Exact Hilbert functions of double points and doubled codimension-two
linear spaces.

The conditions a scheme imposes on degree-d forms are generated as rows of
an exact matrix: a double point contributes the n+1 first partial
derivative rows (the value row is dependent by Euler's relation and is
omitted), a doubled space contributes the adapted-coordinate rows that
kill every coefficient of y0-y1 degree <= 1.  The Hilbert function is the
rank, the deficit is measured against min(monomials, condition count).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .construct import (
    ExistenceCertificate,
    construct_np2_one_space,
    construct_through_points,
)
from .curves import ParamRnc
from .errors import BadDimension, BadShape, DimensionMismatch
from .generate import random_pencil, random_point, rng_from_seed
from .linalg import ff_rank
from .obstruct import DegreeLedger
from .projective import Pencil, ProjPoint, ProjTransform, register_transform, transform
from .quadrics import double_space_rows, monomial_count, monomials, point_derivative_rows


@dataclass(frozen=True)
class SchemeSpec:
    """Double points and doubled codimension-two spaces, each listed once
    (a repeat, even with rescaled coordinates, only adds dependent rows),
    with a degree."""

    n: int
    degree: int
    double_points: tuple[ProjPoint, ...] = ()
    double_spaces: tuple[Pencil, ...] = ()

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if any(p.n != self.n for p in self.double_points) or any(
            s.n != self.n for s in self.double_spaces
        ):
            raise DimensionMismatch("scheme entries have mixed ambient dimensions")
        for name, items in (("point", self.double_points), ("space", self.double_spaces)):
            if len(set(items)) < len(items):
                raise ValueError(f"a double {name} is repeated")


@register_transform(SchemeSpec)
def _transform_scheme(t: ProjTransform, spec: SchemeSpec) -> SchemeSpec:
    return SchemeSpec(
        n=spec.n,
        degree=spec.degree,
        double_points=tuple(transform(t, p) for p in spec.double_points),
        double_spaces=tuple(transform(t, s) for s in spec.double_spaces),
    )


# the most degree-d monomials on P^n, C(n+d, d), that `hilbert_function`
# builds condition rows for (the quartic shape at n = 7 has 330)
MAX_MONOMIALS = 2000


def point_condition_count(n: int) -> int:
    return n + 1


def space_condition_count(n: int, d: int) -> int:
    return comb(d + n - 2, n - 2) + 2 * comb(d + n - 3, n - 2)


@dataclass(frozen=True)
class PostulationReport:
    n: int
    degree: int
    total_monomials: int
    point_conditions: int
    space_conditions: int
    conditions_sum: int
    expected: int
    actual_hf: int
    deficit: int
    h_formula_value: int | None
    note: str | None


def conditions_rows(spec: SchemeSpec) -> list[list]:
    monos = monomials(spec.n, spec.degree)
    rows: list[list] = []
    for p in spec.double_points:
        rows.extend(point_derivative_rows(p, monos))
    for s in spec.double_spaces:
        rows.extend(double_space_rows(s, spec.degree))
    return rows


def _is_formula_shape(spec: SchemeSpec) -> bool:
    return (
        spec.degree == 4
        and len(spec.double_spaces) == 1
        and len(spec.double_points) == spec.n + 2
    )


def expected_quartic_conditions(n: int) -> int:
    """(n+2)(n+1) + C(n+2, 4) + 2 C(n+1, 3): the condition count of n+2
    double points and one doubled codimension-two space on quartics."""
    return (n + 2) * (n + 1) + comb(n + 2, 4) + 2 * comb(n + 1, 3)


def _check_size(n: int, d: int) -> None:
    """BadDimension unless n >= 2 and C(n+d, d) <= MAX_MONOMIALS.

    C(n+d, k) grows with k up to k = min(n, d), so the running product
    passes the cap after a few steps however large n and d are."""
    if n < 2:
        raise BadDimension(f"Hilbert functions need n >= 2, got {n}")
    count = 1
    for k in range(1, min(n, d) + 1):
        count = count * (n + d + 1 - k) // k  # C(n+d, k)
        if count > MAX_MONOMIALS:
            raise BadDimension(
                f"degree {d} forms on P^{n} have more than {MAX_MONOMIALS} monomials"
            )


def hilbert_function(spec: SchemeSpec) -> PostulationReport:
    n, d = spec.n, spec.degree
    _check_size(n, d)
    total = monomial_count(n, d)
    p_count = len(spec.double_points) * point_condition_count(n)
    s_count = len(spec.double_spaces) * space_condition_count(n, d)
    conditions_sum = p_count + s_count
    actual = ff_rank(conditions_rows(spec))
    expected = min(total, conditions_sum)
    deficit = expected - actual
    formula = expected_quartic_conditions(n) if _is_formula_shape(spec) else None
    note = None
    if formula is not None and deficit >= 1:
        note = (
            f"conditions drop below the count: the Segre-Veronese surface "
            f"P^1 x P^{n} embedded with bidegree (2,2) is {n + 1}-defective"
        )
    return PostulationReport(
        n=n,
        degree=d,
        total_monomials=total,
        point_conditions=p_count,
        space_conditions=s_count,
        conditions_sum=conditions_sum,
        expected=expected,
        actual_hf=actual,
        deficit=deficit,
        h_formula_value=formula,
        note=note,
    )


@dataclass(frozen=True)
class DefectWitness:
    """The curve forcing the conditions to drop, with its degree ledger:
    every form of the linear system meets the curve in degree at least the
    lower bound, which exceeds the Bezout bound, so the curve is inside
    every member of the system."""

    curve: ParamRnc
    certificate: ExistenceCertificate
    ledger: DegreeLedger
    description: str


def defect_explanation(spec: SchemeSpec) -> DefectWitness:
    """The rnc witnessing the deficit of the two supported shapes.

    Quartic shape (n+2 double points + one double space): the curve through
    the points with the space as secant space; meeting degrees
    1 + 2(n+1) + 2(n-1) > 4n.  Cubic shape (7 double points in P^4): the
    curve through the seven points; 2*7 > 3*4."""
    n, d = spec.n, spec.degree
    if _is_formula_shape(spec):
        cert = construct_np2_one_space(list(spec.double_points), spec.double_spaces[0])
        ledger = DegreeLedger(
            n=n,
            intersection_lower_bound=1 + 2 * (n + 1) + 2 * (n - 1),
            bezout_bound=4 * n,
        )
        description = (
            "quartics through one simple point, n+1 double points and the "
            "doubled secant space contain the curve, forcing a fixed "
            "tangent direction at the remaining point"
        )
    elif n == 4 and d == 3 and len(spec.double_points) == 7 and not spec.double_spaces:
        cert = construct_through_points(list(spec.double_points))
        ledger = DegreeLedger(
            n=n, intersection_lower_bound=2 * 7, bezout_bound=3 * n
        )
        description = (
            "cubics singular at the seven points contain the curve through "
            "them; the secant-line variety of that curve is such a cubic"
        )
    else:
        raise BadShape(
            "defect witnesses exist for the quartic double-space shape and "
            "for seven double points in P^4"
        )
    if not ledger.contradiction:
        raise BadShape("degree ledger fails to force containment")
    return DefectWitness(
        curve=cert.curve, certificate=cert, ledger=ledger, description=description
    )


@dataclass(frozen=True)
class InterpolationCase:
    n: int
    p: int
    degree: int
    exceptional: bool
    report: PostulationReport


AH_EXCEPTIONS = ((2, 5, 4), (3, 9, 4), (4, 14, 4), (4, 7, 3))
CONTROL_CASE = (2, 5, 3)


def _seeded_points(n: int, count: int, rng) -> list[ProjPoint]:
    points: list[ProjPoint] = []
    while len(points) < count:
        candidate = random_point(n, rng)
        if candidate not in points:
            points.append(candidate)
    return points


def double_point_report(n: int, p: int, d: int, rng) -> PostulationReport:
    points = _seeded_points(n, p, rng)
    return hilbert_function(SchemeSpec(n=n, degree=d, double_points=tuple(points)))


def ah_exceptions_suite(seed=0) -> list[InterpolationCase]:
    """Expected vs. actual Hilbert function for the classical exceptional
    double-point cases (deficit 1 each) plus one non-exceptional control."""
    rng = rng_from_seed(seed)
    out = []
    for n, p, d in AH_EXCEPTIONS:
        out.append(
            InterpolationCase(
                n=n, p=p, degree=d, exceptional=True,
                report=double_point_report(n, p, d, rng),
            )
        )
    n, p, d = CONTROL_CASE
    out.append(
        InterpolationCase(
            n=n, p=p, degree=d, exceptional=False,
            report=double_point_report(n, p, d, rng),
        )
    )
    return out


def quartic_shape_spec(n: int, seed=0) -> SchemeSpec:
    """Seeded instance of the quartic shape: n+2 double points and one
    doubled codimension-two space.

    The points and the space are drawn at random, not checked for
    genericity, so a seed can give a special instance whose deficit is
    larger than the generic 1: `quartic_shape_spec(3,
    "3-hilbert-ranks-r5.3-3")` has rank 29 of 33, deficit 4."""
    rng = rng_from_seed(seed)
    points = _seeded_points(n, n + 2, rng)
    space = random_pencil(n, rng)
    return SchemeSpec(
        n=n, degree=4, double_points=tuple(points), double_spaces=(space,)
    )
