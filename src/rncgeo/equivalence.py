"""Projective equivalence of ordered configurations via the interpolating
curve.

A datum with p >= 3 points determines a unique curve; reading the points
as parameters and the spaces as degree-(n-1) forms on the parameter line
reduces equivalence in P^n to equivalence of the resulting configurations
on P^1.  Normalizing the first three point parameters to (0:1), (1:1),
(1:0) by the unique Moebius map kills the reparametrization freedom, so
two configurations are equivalent iff their normalized signatures are
componentwise equal.

The parameters come from the constructed curve's certificate, except for
n+3 points: there the frame of `construct._frame_and_last` gives them in
closed form, so no curve is built (`signature` states the proof).
"""

from __future__ import annotations

from dataclasses import dataclass

from .binforms import BinaryForm
from .construct import Datum, ExistenceCertificate, _frame_and_last, construct
from .curves import ParamRnc, VerificationReport, parameter, verify_datum
from .errors import DimensionMismatch, NotGeneric, UnsupportedCaseError
from .projective import ProjPoint, frame_map, transform


@dataclass(frozen=True)
class Signature:
    """Moebius-normalized parameter data of a configuration on its curve."""

    n: int
    p: int
    l: int
    point_params: tuple[ProjPoint, ...]
    space_forms: tuple[BinaryForm, ...]

    ANCHORS = (ProjPoint([0, 1]), ProjPoint([1, 1]), ProjPoint([1, 0]))


def _signature_from_report(datum: Datum, report: VerificationReport) -> Signature:
    return _normalized(
        datum,
        [pc.param for pc in report.points],
        [sc.secancy.d_form for sc in report.spaces],
    )


def _normalized(datum: Datum, params, d_forms) -> Signature:
    """The signature of a datum whose points sit at `params` on its curve
    and whose spaces cut it in the roots of `d_forms`."""
    t1, t2, t3 = params[0], params[1], params[2]
    try:
        # frame_map on P^1 sends its three inputs to (1:0), (0:1), (1:1)
        moebius = frame_map([t3, t1, t2])
    except NotGeneric as exc:
        raise NotGeneric(
            "anchor parameters are not distinct",
            stage="signature:anchor",
            witness=(t1, t2, t3),
        ) from exc
    normalized_params = tuple(transform(moebius, t) for t in params)
    assert normalized_params[:3] == Signature.ANCHORS
    inv = moebius.inverse_matrix()
    normalized_forms = tuple(
        d.substitute(
            inv.entries[0][0], inv.entries[0][1], inv.entries[1][0], inv.entries[1][1]
        ).monic()
        for d in d_forms
    )
    return Signature(
        n=datum.n,
        p=datum.p,
        l=datum.l,
        point_params=normalized_params,
        space_forms=normalized_forms,
    )


def signature_from_curve(curve: ParamRnc, datum: Datum) -> Signature:
    """Signature read off a given satisfying curve (any parametrization of
    the same curve yields the identical signature)."""
    if datum.p < 3:
        raise UnsupportedCaseError(
            "signatures need at least three points to anchor the parameter line"
        )
    report = verify_datum(curve, datum)
    if not report.passed:
        raise NotGeneric(
            "curve does not satisfy the datum", stage="signature:verify", witness=report
        )
    return _signature_from_report(datum, report)


def signature(datum: Datum) -> Signature:
    """Construct the unique interpolating curve and normalize the datum on
    it.  Defined for the existence shapes with p >= 3.

    For n+3 points (n >= 3) the parameters are read off the frame, with no
    curve built.  `construct` takes the frame t of the first n+2 points and
    the image q of the last one (`_frame_and_last`, which raises the same
    errors here), and parametrizes the curve as t^-1 applied to
    x_i = q_i prod_{j != i} (q_j s + u); a linear map and a common scale
    of the forms leave the parameters of its points unchanged.  At
    (1 : -q_i) every x_k with k != i has the factor q_i s + u = 0, and
    x_i = q_i prod_{j != i} (q_j - q_i) != 0, as the q_j are distinct: that
    is e_i, the image of point i <= n.  At (1 : 0) every x_i equals
    prod_j q_j, the unit point, image of point n+1; at (0 : 1), x = q, the
    image of the last point.  These are the parameters its certificate
    reports, so the signatures agree.
    """
    if datum.p < 3:
        raise UnsupportedCaseError(
            "signatures need at least three points to anchor the parameter line"
        )
    if (datum.p, datum.l) == (datum.n + 3, 0) and datum.n >= 3:
        _, q = _frame_and_last(datum.points)
        params = [parameter(1, -qi) for qi in q] + [parameter(1, 0), parameter(0, 1)]
        return _normalized(datum, params, ())
    result = construct(datum)
    if not isinstance(result, ExistenceCertificate):
        raise UnsupportedCaseError(
            f"shape (p, l) = ({datum.p}, {datum.l}) admits no interpolating curve"
        )
    return _signature_from_report(datum, result.report)


def are_equivalent(a: Datum, b: Datum) -> bool:
    """Ordered projective equivalence of two configurations."""
    if (a.n, a.p, a.l) != (b.n, b.p, b.l):
        raise DimensionMismatch("configurations have different shapes")
    return signature(a) == signature(b)
