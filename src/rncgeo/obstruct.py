"""Non-existence certificates for configurations with p >= 4 points and
l >= 2 codimension-two spaces.

A quadric through both spaces and three of the points always exists by a
condition count; if it misses the fourth point, no curve can satisfy the
datum: a curve through four of the points and secant to both spaces would
meet the quadric in degree at least 3 + 2(n-1-t) + 2t = 2n+1 > 2n (t being
the degree of the scheme cut on the intersection of the two spaces, along
which the quadric is singular), forcing the curve inside the quadric and
contradicting the missed point.  Only those four points and two spaces
enter, so the argument holds whatever the total p + l is.

The certificate stores what a machine can re-check exactly: the quadric,
its containments, the nonzero value at the excluded point and the integer
ledger; the final Bezout inference is arithmetic on that ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import BadShape, NotGeneric, ObstructionFails
from .linalg import nullspace
from .projective import Pencil, ProjPoint
from .quadrics import (
    containment_rows,
    evaluate_poly,
    monomials,
    point_value_row,
)
from .scalars import QQ, integerize


@dataclass(frozen=True)
class DegreeLedger:
    """Integer bookkeeping of the Bezout contradiction: any curve
    satisfying the datum meets the quadric in degree at least
    `intersection_lower_bound`, but a curve not inside a quadric meets it
    in degree at most `bezout_bound`."""

    n: int
    intersection_lower_bound: int
    bezout_bound: int

    @property
    def contradiction(self) -> bool:
        return self.intersection_lower_bound > self.bezout_bound


def obstruction_ledger(n: int) -> DegreeLedger:
    """The ledger every obstruction in P^n carries: 2n+1 > 2n."""
    return DegreeLedger(n=n, intersection_lower_bound=2 * n + 1, bezout_bound=2 * n)


@dataclass(frozen=True)
class ObstructionCertificate:
    n: int
    quadric: tuple  # coefficients on the degree-2 monomial basis
    spaces: tuple  # the two pencils the quadric contains
    points: tuple  # the three interpolated points
    excluded_point: ProjPoint
    excluded_value: QQ
    ledger: DegreeLedger

    def contains_flags(self) -> dict:
        """Exact re-verification of every checkable claim.  The quadric is
        integerized once (a positive rescaling, which keeps every zero), so
        the containments are integer dot products with the primitive
        containment rows."""
        monos = monomials(self.n, 2)
        quad = integerize(self.quadric)
        flags = {}
        for k, pencil in enumerate(self.spaces):
            flags[f"space_{k}"] = not any(
                sum(map(mul, row, quad)) for row in containment_rows(pencil, 2)
            )
        for k, point in enumerate(self.points):
            flags[f"point_{k}"] = evaluate_poly(self.quadric, monos, point) == 0
        return flags

    def verify(self) -> bool:
        """Recompute every claim; the ledger is rebuilt from n, never read."""
        monos = monomials(self.n, 2)
        return (
            len(self.quadric) == len(monos)
            and len(self.spaces) == 2
            and len(self.points) == 3
            and all(
                x.n == self.n
                for x in (*self.spaces, *self.points, self.excluded_point)
            )
            and self.ledger == obstruction_ledger(self.n)
            and all(self.contains_flags().values())
            and evaluate_poly(self.quadric, monos, self.excluded_point)
            == self.excluded_value
            and self.excluded_value != 0
        )


def obstruction_quadric(
    l1: Pencil, l2: Pencil, p1: ProjPoint, p2: ProjPoint, p3: ProjPoint
) -> list[QQ]:
    """The quadric through both spaces and the three points.

    The conditions kernel always has dimension >= 1 by the count
    C(n+2,2) - [2 C(n,2) - C(n-2,2)] - 3 = 1; generic data give exactly 1,
    anything else is flagged NotGeneric.  The result is normalized so its
    first nonzero coefficient (grevlex order) is 1."""
    n = l1.n
    if n < 3:
        raise BadShape("obstruction quadrics need n >= 3")
    monos = monomials(n, 2)
    rows = containment_rows(l1, 2) + containment_rows(l2, 2)
    for p in (p1, p2, p3):
        rows.append(point_value_row(p, monos))
    kernel = nullspace(rows)
    if len(kernel) != 1:
        raise NotGeneric(
            f"conditions cut a {len(kernel)}-dimensional quadric system, expected 1",
            stage="obstruction:conditions_rank",
            witness=len(kernel),
        )
    quad = kernel[0]
    lead = next(c for c in quad if c)
    return [c / lead for c in quad]


def nonexistence_certificate(datum) -> ObstructionCertificate:
    """Certify that no curve satisfies a generic p >= 4, l >= 2 datum, at
    any total p + l.

    Uses the first two spaces and the first four points, which is all the
    argument needs; if the quadric vanishes at the fourth point the datum
    is special and ObstructionFails reports it (without concluding
    existence).

    `ObstructionCertificate.verify` is not run: the quadric is an exact
    kernel vector of the very rows `verify` rebuilds, the fourth point's
    value is checked nonzero here, and the ledger is built from n."""
    n, p, l = datum.n, datum.p, datum.l
    if p < 4 or l < 2:
        raise BadShape(f"obstruction applies to p >= 4, l >= 2; got ({p}, {l})")
    l1, l2 = datum.spaces[0], datum.spaces[1]
    p1, p2, p3, p4 = datum.points[:4]
    quad = obstruction_quadric(l1, l2, p1, p2, p3)
    value = evaluate_poly(quad, monomials(n, 2), p4)
    if value == 0:
        raise ObstructionFails(
            "quadric vanishes at the fourth point: datum is special",
            stage="obstruction:excluded_point",
            witness=p4,
        )
    return ObstructionCertificate(
        n=n,
        quadric=tuple(quad),
        spaces=(l1, l2),
        points=(p1, p2, p3),
        excluded_point=p4,
        excluded_value=value,
        ledger=obstruction_ledger(n),
    )
