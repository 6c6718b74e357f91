import contextlib
import io
import json
import sys

import pytest

from rncgeo import curves, equivalence
from rncgeo.binforms import form_from_roots
from rncgeo.cli import main
from rncgeo.construct import Datum, construct
from rncgeo.curves import (
    chord_space,
    moment_curve,
    parameter,
    point_at,
    reparametrize,
)
from rncgeo.equivalence import Signature, are_equivalent, signature, signature_from_curve
from rncgeo.errors import DimensionMismatch, NotGeneric, UnsupportedCaseError
from rncgeo.generate import forward_datum, random_transform, rng_from_seed
from rncgeo.projective import ProjPoint, apply_transform
from rncgeo.serialize import datum_out


def moment_datum_points(ts):
    c = moment_curve(3)
    pts = [point_at(c, 1, 0) if t == "inf" else point_at(c, t, 1) for t in ts]
    return Datum(n=3, points=pts)


def steiner_datum():
    c = moment_curve(3)
    pts = [point_at(c, 0, 1), point_at(c, 1, 0), point_at(c, 1, 1)]
    spaces = [
        chord_space(c, [(2, 1), (3, 1)]),
        chord_space(c, [(4, 1), (5, 1)]),
        chord_space(c, [(-1, 1), (6, 1)]),
    ]
    return Datum(n=3, spaces=spaces, points=pts)


def test_signature_already_normalized():
    datum = moment_datum_points([0, 1, "inf", 2, 3, 4])
    sig = signature(datum)
    assert sig.point_params == (
        parameter(0, 1),
        parameter(1, 1),
        parameter(1, 0),
        parameter(2, 1),
        parameter(3, 1),
        parameter(4, 1),
    )
    assert sig.space_forms == ()


def test_signature_steiner_case():
    # anchors (0, inf, 1) are sent to (0, 1, inf) by t -> t/(t-1); the
    # chord roots transport to their Moebius images
    sig = signature(steiner_datum())
    assert sig.point_params[:3] == Signature.ANCHORS
    assert sig.space_forms == (
        form_from_roots([(2, 1), (3, 2)]),
        form_from_roots([(4, 3), (5, 4)]),
        form_from_roots([(1, 2), (6, 5)]),
    )


def test_signature_unsupported_few_points():
    rng = rng_from_seed(3)
    datum, _ = forward_datum(3, 2, 4, rng)
    with pytest.raises(UnsupportedCaseError):
        signature(datum)


def test_equivalent_under_transform():
    rng = rng_from_seed(5)
    for shape in [(3, 6, 0), (3, 5, 1), (3, 3, 3), (4, 3, 4)]:
        n, p, l = shape
        datum, _ = forward_datum(n, p, l, rng)
        t = random_transform(n, rng)
        assert are_equivalent(datum, apply_transform(t, datum))


def test_inequivalent_perturbed():
    a = moment_datum_points([0, 1, "inf", 2, 3, 4])
    b = moment_datum_points([0, 1, "inf", 2, 3, 5])
    assert not are_equivalent(a, b)


def test_order_matters():
    a = moment_datum_points([0, 1, "inf", 2, 3, 4])
    b = moment_datum_points([0, 1, "inf", 2, 4, 3])
    assert not are_equivalent(a, b)


def test_signature_invariant_under_reparametrization():
    datum = steiner_datum()
    curve = construct(datum).curve
    sig = signature_from_curve(curve, datum)
    for sub in [(2, 1, 1, 1), (0, 1, -1, 0), (3, -2, 1, 4)]:
        again = signature_from_curve(reparametrize(curve, *sub), datum)
        assert again == sig
    assert sig == signature(datum)


def test_shape_mismatch():
    a = moment_datum_points([0, 1, "inf", 2, 3, 4])
    rng = rng_from_seed(9)
    b, _ = forward_datum(3, 5, 1, rng)
    with pytest.raises(DimensionMismatch):
        are_equivalent(a, b)


def test_discrimination_on_random_pairs():
    rng = rng_from_seed(11)
    for shape in [(3, 6, 0), (3, 3, 3)]:
        n, p, l = shape
        a, _ = forward_datum(n, p, l, rng)
        b, _ = forward_datum(n, p, l, rng)
        assert not are_equivalent(a, b)


def test_equivalent_of_n_plus_3_points_builds_no_curve(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("the frame gives the parameters")

    monkeypatch.setattr(equivalence, "construct", forbidden)
    # `import rncgeo.construct` yields the re-exported function
    monkeypatch.setattr(sys.modules["rncgeo.construct"], "param_to_det", forbidden)
    monkeypatch.setattr(curves, "param_to_det", forbidden)
    for n in (3, 5, 8):
        rng = rng_from_seed(("frame-equivalent", n))
        datum, _ = forward_datum(n, n + 3, 0, rng)
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        left.write_text(json.dumps(datum_out(datum)))
        right.write_text(json.dumps(datum_out(apply_transform(random_transform(n, rng), datum))))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["equivalent", str(left), str(left)]) == 0
            assert main(["equivalent", str(left), str(right)]) == 0


def _construct_signature(datum):
    return equivalence._signature_from_report(datum, construct(datum).report)


def test_frame_signatures_equal_the_constructed_ones():
    count = 0
    for n in range(3, 10):
        for seed in range(15):
            rng = rng_from_seed(("frame-signature", n, seed))
            datum, _ = forward_datum(n, n + 3, 0, rng)
            image = apply_transform(random_transform(n, rng), datum)
            for d in (datum, image):
                assert equivalence.signature(d) == _construct_signature(d), (n, seed)
                count += 1
    assert count >= 200


def _raised(call, datum):
    try:
        call(datum)
    except NotGeneric as exc:
        return type(exc), exc.stage, str(exc)
    return None


def test_frame_signatures_refuse_non_general_points_like_construct():
    rng = rng_from_seed("frame-special")
    n = 4
    datum, _ = forward_datum(n, n + 3, 0, rng)
    points = list(datum.points)
    e = [ProjPoint([int(i == j) for j in range(n + 1)]) for i in range(n + 1)]
    cases = {
        # n+1 dependent frame points, last frame point on a face, last point
        # on a coordinate hyperplane of the frame, last point dependent on
        # the unit point and n-1 frame points
        "frame_map": [points[0]] + points[:n] + points[n + 1:],
        "frame_map weights": e + [ProjPoint([1, 1, 1, 1, 0])] + points[-1:],
        "hyperplane": e + [ProjPoint([1] * (n + 1)), ProjPoint([0, 1, 2, 3, 4])],
        "dependent": e + [ProjPoint([1] * (n + 1)), ProjPoint([1, 1, 2, 3, 4])],
    }
    for name, pts in cases.items():
        special = Datum(n=n, points=pts)
        raised = _raised(equivalence.signature, special)
        assert raised is not None, name
        assert raised == _raised(_construct_signature, special), name
