import random
import sys

import pytest

from rncgeo.construct import (
    CountAnalysis,
    Datum,
    ExistenceCertificate,
    UnsupportedCase,
    construct,
    construct_np2_one_space,
    construct_one_point,
    construct_three_points,
    construct_through_points,
    construct_through_points_cremona,
    construct_two_points,
    cremona_apply,
    cremona_pullback_line,
    expected_count,
    special_datum,
)
import rncgeo.linalg as linalg_module
import rncgeo.quadrics as quadrics_module
from rncgeo.curves import (
    _integer_columns,
    _interpolation,
    _verify_on_columns,
    chord_space,
    curve_equals,
    generalized_column_for,
    moment_curve,
    point_at,
    verify_datum,
)
from rncgeo.errors import (
    BadDimension,
    BadShape,
    DimensionMismatch,
    FundamentalLocus,
    NotGeneric,
    NotGenericMatrix,
)
from rncgeo.generate import forward_datum, random_transform, rng_from_seed
from rncgeo.obstruct import ObstructionCertificate
from rncgeo.projective import (
    LinForm,
    Pencil,
    ProjPoint,
    apply_transform,
    coordinate_points,
    standard_frame,
)

from rncgeo.linalg import Matrix, nullspace
from reference import (
    generalized_column_kernel,
    np2_matrix_by_linsolve,
    quadric_kernel,
    span_membership_kernel,
)


def moment_points(n, ts):
    c = moment_curve(n)
    return [point_at(c, t, 1) if t != "inf" else point_at(c, 1, 0) for t in ts]


# -- expected_count ------------------------------------------------------------


def test_expected_count_p3_points_only():
    a = expected_count(3, 6, 0)
    assert a.dim_h == 12 and a.verdict == "finite_expected"
    assert a.classification == "exists_unique" and a.curve_count == 1


def test_expected_count_nonexistence():
    a = expected_count(4, 4, 3)
    assert a.classification == "not_exists" and a.curve_count == 0


def test_expected_count_six_curves():
    a = expected_count(3, 0, 6)
    assert a.classification == "exists_nonunique" and a.curve_count == 6


def test_expected_count_open_case():
    assert expected_count(4, 0, 7).classification == "open"
    assert expected_count(5, 0, 8).classification == "open"


def test_expected_count_full_table():
    for n in range(3, 7):
        for p in range(n + 4):
            l = n + 3 - p
            a = expected_count(n, p, l)
            assert a.verdict == "finite_expected"
            assert a.conditions == a.dim_h
            if p in (n + 3, n + 2, 3, 2, 1):
                assert a.classification == "exists_unique"
            elif p == 0:
                assert a.classification == ("exists_nonunique" if n == 3 else "open")
            else:
                assert p >= 4 and l >= 2
                assert a.classification == "not_exists"


def test_expected_count_off_line():
    assert expected_count(3, 2, 0).verdict == "positive_dimensional"
    assert expected_count(3, 2, 0).classification == "trivial"
    assert expected_count(3, 8, 0).verdict == "overdetermined"
    assert expected_count(3, 8, 0).classification == "not_exists"
    assert expected_count(5, 4, 2).classification == "not_exists"  # p+l < n+3
    with pytest.raises(BadDimension):
        expected_count(2, 5, 0)


# -- through points ------------------------------------------------------------


def test_through_points_p3_example():
    pts = standard_frame(3) + [ProjPoint([1, 2, 3, 4])]
    cert = construct_through_points(pts)
    assert cert.report.passed
    assert all(pc.on_curve for pc in cert.report.points)


def test_through_points_recovers_moment_curve():
    pts = moment_points(3, [0, 1, 2, 3, 4, "inf"])
    cert = construct_through_points(pts)
    assert curve_equals(cert.curve, moment_curve(3))


def test_through_points_not_generic():
    pts = [
        ProjPoint([1, 0, 0, 0]),
        ProjPoint([0, 1, 0, 0]),
        ProjPoint([0, 0, 1, 0]),
        ProjPoint([1, 1, 1, 0]),  # coplanar with the three above
        ProjPoint([1, 1, 1, 1]),
        ProjPoint([1, 2, 3, 4]),
    ]
    with pytest.raises(NotGeneric):
        construct_through_points(pts)


def test_through_points_last_point_degenerate():
    # last point on a hyperplane spanned by coordinate points: q has a zero
    pts = standard_frame(3) + [ProjPoint([0, 1, 2, 3])]
    with pytest.raises(NotGeneric):
        construct_through_points(pts)


def test_frame_fit_det_minors_vanish_on_points():
    pts = standard_frame(3) + [ProjPoint([1, 2, 3, 4])]
    cert = construct_through_points(pts)
    top, bottom = cert.det.m
    for p in pts:
        vals = [(f.at(p), g.at(p)) for f, g in zip(top, bottom)]
        for (a1, b1) in vals:
            for (a2, b2) in vals:
                assert a1 * b2 - a2 * b1 == 0


def test_cremona_apply_example():
    assert cremona_apply(ProjPoint([1, 2, 3, 4])) == ProjPoint([24, 12, 8, 6])


def test_cremona_involution():
    rng = random.Random(2)
    for _ in range(10):
        p = ProjPoint([rng.randint(1, 9) for _ in range(5)])
        assert cremona_apply(cremona_apply(p)) == p


def test_cremona_fundamental_locus():
    with pytest.raises(FundamentalLocus):
        cremona_apply(ProjPoint([0, 0, 1, 2]))


def test_cremona_pullback_cross_validates_frame_fit():
    pts = standard_frame(3) + [ProjPoint([1, 2, 3, 4])]
    a = construct_through_points(pts)
    b = construct_through_points_cremona(pts)
    assert curve_equals(a.curve, b.curve)


def test_cremona_pullback_passes_coordinate_points():
    curve = cremona_pullback_line(ProjPoint([1, 1, 1, 1]), ProjPoint([24, 12, 8, 6]))
    report = verify_datum(curve, Datum(n=3, points=coordinate_points(3)))
    assert report.passed


def test_agreement_on_random_inputs():
    rng = rng_from_seed(101)
    for n in (3, 4):
        for _ in range(5):
            datum, generator = forward_datum(n, n + 3, 0, rng)
            a = construct_through_points(datum.points)
            b = construct_through_points_cremona(datum.points)
            assert curve_equals(a.curve, b.curve)
            assert curve_equals(a.curve, generator)


# -- (n+2, 1) -------------------------------------------------------------------


def test_np2_one_space_moment_oracle():
    c = moment_curve(3)
    pts = moment_points(3, [0, 1, 2, 3, "inf"])
    space = chord_space(c, [(4, 1), (5, 1)])
    cert = construct_np2_one_space(pts, space)
    assert curve_equals(cert.curve, c)
    assert cert.method == "np2_one_space"


@pytest.mark.parametrize("n", [4, 5, 6])
def test_np2_one_space_higher_dimensions(n):
    c = moment_curve(n)
    pts = moment_points(n, list(range(n + 1)) + ["inf"])
    space = chord_space(c, [(n + 1 + k, 1) for k in range(n - 1)])
    cert = construct_np2_one_space(pts, space)
    assert curve_equals(cert.curve, c)


def test_np2_one_space_point_on_space():
    c = moment_curve(3)
    pts = moment_points(3, [0, 1, 2, 4, "inf"])
    space = chord_space(c, [(4, 1), (5, 1)])  # contains the point at t=4
    with pytest.raises(NotGeneric):
        construct_np2_one_space(pts, space)


# -- (3, n) ---------------------------------------------------------------------


def test_three_points_moment_oracle():
    c = moment_curve(3)
    pts = moment_points(3, [0, "inf", 1])
    spaces = [
        chord_space(c, [(2, 1), (3, 1)]),
        chord_space(c, [(4, 1), (5, 1)]),
        chord_space(c, [(-1, 1), (6, 1)]),
    ]
    cert = construct_three_points(pts, spaces)
    assert curve_equals(cert.curve, c)
    # each input pencil is a literal column of the assembled matrix
    top, bottom = cert.det.m
    for i, space in enumerate(spaces):
        assert Pencil(top[i], bottom[i]) == space


@pytest.mark.parametrize("n", [4, 5])
def test_three_points_higher_dimensions(n):
    c = moment_curve(n)
    pts = moment_points(n, [0, "inf", 1])
    spaces = [
        chord_space(c, [(2 + k * (n - 1) + j, 1) for j in range(n - 1)])
        for k in range(n)
    ]
    cert = construct_three_points(pts, spaces)
    assert curve_equals(cert.curve, c)


def test_three_points_point_on_space():
    c = moment_curve(3)
    pts = moment_points(3, [0, "inf", 2])  # third point lies on the first chord
    spaces = [
        chord_space(c, [(2, 1), (3, 1)]),
        chord_space(c, [(4, 1), (5, 1)]),
        chord_space(c, [(-1, 1), (6, 1)]),
    ]
    with pytest.raises(NotGeneric):
        construct_three_points(pts, spaces)


# -- (2, n+1) -------------------------------------------------------------------


def test_two_points_moment_oracle():
    c = moment_curve(3)
    pts = moment_points(3, [0, "inf"])
    spaces = [
        chord_space(c, [(1, 1), (2, 1)]),
        chord_space(c, [(3, 1), (4, 1)]),
        chord_space(c, [(5, 1), (6, 1)]),
        chord_space(c, [(7, 1), (8, 1)]),
    ]
    cert = construct_two_points(pts, spaces)
    assert curve_equals(cert.curve, c)


def test_two_points_n4_oracle():
    c = moment_curve(4)
    pts = moment_points(4, [0, "inf"])
    spaces = [
        chord_space(c, [(1, 1), (2, 1), (11, 1)]),
        chord_space(c, [(3, 1), (4, 1), (12, 1)]),
        chord_space(c, [(5, 1), (6, 1), (13, 1)]),
        chord_space(c, [(7, 1), (8, 1), (14, 1)]),
        chord_space(c, [(9, 1), (10, 1), (15, 1)]),
    ]
    cert = construct_two_points(pts, spaces)
    assert curve_equals(cert.curve, c)


def test_two_points_shared_member_kernel_fat():
    c = moment_curve(3)
    pts = moment_points(3, [0, "inf"])
    first = chord_space(c, [(1, 1), (2, 1)])
    shared_member, _ = first.member_through(pts[0])
    degenerate = Pencil(shared_member, LinForm([1, 1, 0, 0]))
    spaces = [
        first,
        degenerate,
        chord_space(c, [(5, 1), (6, 1)]),
        chord_space(c, [(7, 1), (8, 1)]),
    ]
    with pytest.raises(NotGeneric):
        construct_two_points(pts, spaces)


# -- (1, n+2) -------------------------------------------------------------------


def test_one_point_moment_oracle():
    c = moment_curve(3)
    point = moment_points(3, [0])[0]
    spaces = [
        chord_space(c, [(1, 1), (2, 1)]),
        chord_space(c, [(3, 1), (4, 1)]),
        chord_space(c, [(5, 1), (6, 1)]),
        chord_space(c, [(7, 1), (8, 1)]),
        chord_space(c, [(9, 1), (10, 1)]),
    ]
    cert = construct_one_point(point, spaces)
    assert curve_equals(cert.curve, c)


@pytest.mark.parametrize("n", [4, 5])
def test_one_point_higher_dimensions(n):
    c = moment_curve(n)
    point = moment_points(n, [0])[0]
    spaces = [
        chord_space(c, [(1 + k * (n - 1) + j, 1) for j in range(n - 1)])
        for k in range(n + 2)
    ]
    cert = construct_one_point(point, spaces)
    assert curve_equals(cert.curve, c)


# -- dispatcher and special data -------------------------------------------------


def test_construct_dispatch_shapes():
    rng = rng_from_seed(7)
    for n, p, l in [(3, 6, 0), (3, 5, 1), (3, 3, 3), (4, 2, 5), (4, 1, 6)]:
        datum, generator = forward_datum(n, p, l, rng)
        result = construct(datum)
        assert isinstance(result, ExistenceCertificate)
        assert curve_equals(result.curve, generator)


def test_construct_dispatch_obstruction():
    rng = rng_from_seed(11)
    from rncgeo.generate import random_datum

    datum, _ = random_datum(3, 4, 2, rng)
    assert isinstance(construct(datum), ObstructionCertificate)


def test_construct_dispatch_unsupported():
    rng = rng_from_seed(13)
    datum, _ = forward_datum(3, 0, 6, rng)
    result = construct(datum)
    assert isinstance(result, UnsupportedCase)
    assert result.analysis.curve_count == 6


def test_construct_bad_shape():
    rng = rng_from_seed(17)
    datum, _ = forward_datum(3, 2, 1, rng)
    with pytest.raises(BadShape) as err:
        construct(datum)
    assert isinstance(err.value.analysis, CountAnalysis)
    assert err.value.analysis.verdict == "positive_dimensional"


@pytest.mark.parametrize(
    "case", ["through_points", "one_space", "three_points", "two_points", "one_point"]
)
def test_special_datum_reconstruction(case):
    for n in (3, 4):
        datum, generator = special_datum(n, case, seed=5)
        assert verify_datum(generator, datum).passed
        result = construct(datum)
        assert isinstance(result, ExistenceCertificate)
        assert curve_equals(result.curve, generator)


def test_pgl_equivariance_of_construction():
    rng = rng_from_seed(23)
    shapes = [(3, 6, 0), (3, 5, 1), (3, 3, 3), (3, 2, 4), (3, 1, 5), (4, 3, 4)]
    for n, p, l in shapes:
        datum, _ = forward_datum(n, p, l, rng)
        t = random_transform(n, rng)
        direct = construct(apply_transform(t, datum)).curve
        moved = apply_transform(t, construct(datum).curve)
        assert curve_equals(direct, moved)


def test_constructors_on_raw_random_data():
    # no forward oracle here: for the existence shapes the unique curve
    # through random rational data is itself rational, so the constructor
    # must find it outright; small-coordinate draws may legitimately be
    # special, in which case a typed NotGeneric is the correct answer
    from rncgeo.generate import random_datum

    for n in (3, 4):
        for p, l in [(n + 3, 0), (n + 2, 1), (3, n), (2, n + 1), (1, n + 2)]:
            ok = 0
            for seed in range(8):
                rng = rng_from_seed(f"raw-data-{n}-{p}-{l}-{seed}")
                datum, _ = random_datum(n, p, l, rng)
                try:
                    cert = construct(datum)
                except NotGeneric as exc:
                    assert exc.stage is not None
                    continue
                assert cert.report.passed
                ok += 1
            assert ok >= 6, (n, p, l)


def test_certificate_roundtrip_verification():
    rng = rng_from_seed(29)
    datum, _ = forward_datum(3, 3, 3, rng)
    cert = construct(datum)
    assert verify_datum(cert.curve, cert.datum).passed
    assert curve_equals(cert.curve, cert.det)


def test_conversion_stage_strings(monkeypatch):
    # `import rncgeo.construct` yields the re-exported function
    module = sys.modules["rncgeo.construct"]

    def degenerate(det):
        raise NotGenericMatrix("patched", stage="det_to_param")

    monkeypatch.setattr(module, "det_to_param", degenerate)
    cases = {
        "np2:conversion": ((6, 1), lambda d: construct_np2_one_space(d.points, d.spaces[0])),
        "three_points:conversion": ((3, 4), lambda d: construct_three_points(d.points, d.spaces)),
        "two_points:conversion": ((2, 5), lambda d: construct_two_points(d.points, d.spaces)),
        "one_point:conversion": ((1, 6), lambda d: construct_one_point(d.points[0], d.spaces)),
    }
    for stage, ((p, l), build) in cases.items():
        datum, _ = forward_datum(4, p, l, rng_from_seed(("stage", stage)))
        with pytest.raises(NotGeneric) as info:
            build(datum)
        assert info.value.stage == stage
        assert isinstance(info.value.__cause__, NotGenericMatrix)


def test_constructors_reject_mixed_dimensions():
    # frame_map, transform and the Datum each constructor builds check
    # every ambient dimension
    stray = ProjPoint([1, 2, 3, 4])  # in P^3, the data in P^4
    cases = {
        (7, 0): lambda pts, sp: construct_through_points(pts),
        (7, 0, "cremona"): lambda pts, sp: construct_through_points_cremona(pts),
        (6, 1): lambda pts, sp: construct_np2_one_space(pts, sp[0]),
        (3, 4): construct_three_points,
        (2, 5): construct_two_points,
        (1, 6): lambda pts, sp: construct_one_point(pts[0], sp),
    }
    for (p, l, *_), build in cases.items():
        datum, _ = forward_datum(4, p, l, rng_from_seed(("mixed", p, l)))
        for k in (0, -1):
            points = list(datum.points)
            points[k] = stray
            with pytest.raises(DimensionMismatch):
                build(points, datum.spaces)


def test_np2_splits_every_quadric_with_one_kernel(monkeypatch):
    # one small kernel solves for the splits f A + g B directly: no
    # containment rows and no second elimination.  Columns 2..n are
    # (-B, A) of the `nullspace` basis; the per-quadric `linsolve` route
    # splits another basis of the same system, so its matrix defines the
    # same curve, with the same coefficients and report.  That kernel is
    # the only reduced row echelon form taken: pencils take their stack in
    # closed form, so `linalg._rref` runs once (besides the interpolation
    # matrix of degree n, inverted once per process and warmed here)
    module = sys.modules["rncgeo.construct"]
    original = module.nullspace
    original_rref = linalg_module._rref
    calls = []
    eliminations = []

    def counting(m):
        calls.append(1)
        return original(m)

    def counting_rref(rows, ncols):
        eliminations.append(1)
        return original_rref(rows, ncols)

    def forbidden(*args, **kwargs):
        raise AssertionError("the splits need no containment rows")

    assert not hasattr(module, "containment_rows")
    assert not hasattr(module, "canonical_rowspace")
    for n in range(3, 10):
        datum, _ = forward_datum(n, n + 2, 1, rng_from_seed(("np2-split", n)))
        expected = np2_matrix_by_linsolve(datum.points, datum.spaces[0])
        _interpolation(n)
        with monkeypatch.context() as patch:
            patch.setattr(module, "nullspace", counting)
            patch.setattr(linalg_module, "_rref", counting_rref)
            patch.setattr(quadrics_module, "containment_rows", forbidden)
            patch.setattr(quadrics_module, "space_condition_rows", forbidden)
            calls.clear()
            eliminations.clear()
            cert = construct_np2_one_space(datum.points, datum.spaces[0])
        assert len(calls) == 1, n
        assert len(eliminations) == 1, n
        reference = ExistenceCertificate.make("np2_one_space", datum, expected)
        assert cert.curve == reference.curve, n
        assert cert.report == reference.report, n
        assert curve_equals(cert.det, expected), n
        f, g = datum.spaces[0].canonical_forms()
        m = max(j for j, c in enumerate(f.coeffs) if c)
        rows = [
            [f.at(p) * c for c in p.coords]
            + [g.at(p) * c for j, c in enumerate(p.coords) if j != m]
            for p in datum.points
        ]
        kernel = nullspace(rows)
        top, bottom = cert.det.m
        assert len(kernel) == len(top) - 1 == n - 1, n
        assert (top[0], bottom[0]) == (f, g), n
        for k, w in enumerate(kernel, start=1):
            b = w[n + 1: n + 1 + m] + [0] + w[n + 1 + m:]
            assert top[k] == LinForm([-c for c in b]), (n, k)
            assert bottom[k] == LinForm(w[: n + 1]), (n, k)


def test_np2_special_quadric_system_keeps_its_witness():
    # the space and n+1 points in {x0 = 0}: the quadrics x0 L with L(p) = 0
    # at the last point give an n-dimensional system, by both routes
    rng = random.Random("np2-hyperplane")
    for n in range(3, 7):
        x0 = LinForm([1] + [0] * n)
        space = Pencil(x0, LinForm([0] + [rng.randint(1, 5) for _ in range(n)]))
        points = []
        while len(points) < n + 1:
            p = ProjPoint([0] + [rng.randint(-5, 5) for _ in range(n)])
            if not space.contains_point(p) and p not in points:
                points.append(p)
        points.append(ProjPoint([1] + [rng.randint(-5, 5) for _ in range(n)]))
        assert len(quadric_kernel(points, space)) == n
        with pytest.raises(NotGeneric) as info:
            construct_np2_one_space(points, space)
        assert info.value.stage == "np2:quadric_dimension"
        assert info.value.witness == n


def _point_in(forms, rng):
    """A random point of the common zero set of `forms`."""
    basis = nullspace([list(form.coeffs) for form in forms])
    while True:
        weights = [rng.randint(-4, 4) for _ in basis]
        coords = [sum(w * b[i] for w, b in zip(weights, basis)) for i in range(len(basis[0]))]
        if any(coords):
            return ProjPoint(coords)


def _np2_special_data(n, seed):
    """Data of the (n+2, 1) shape by kind, each with the stage the
    constructor refuses it at (None for a certificate)."""
    rng = random.Random(f"np2-stages-{n}-{seed}")
    datum, _ = special_datum(n, "one_space", seed)
    yield "special", None, datum.points, datum.spaces[0]
    datum, _ = forward_datum(n, n + 2, 1, rng_from_seed(("np2-stages", n, seed)))
    points, space = datum.points, datum.spaces[0]
    on_space = _point_in([space.f, space.g], rng)
    yield "on_space", "np2:datum", (on_space,) + points[1:], space
    yield "repeated", "np2:quadric_dimension", (points[0],) + points[:-1], space
    a, b = points[0].coords, points[1].coords
    collinear = ProjPoint([x + (seed + 2) * y for x, y in zip(a, b)])
    yield "collinear", "np2:conversion", points[:2] + (collinear,) + points[3:], space
    # two points on a member of the pencil, the others on a hyperplane h:
    # the quadric g h lies in the system, so no curve exists
    h = LinForm([rng.randint(-3, 3) for _ in range(n)] + [1])
    union = []
    while len(union) < n + 2:
        p = _point_in([space.g] if len(union) < 2 else [h], rng)
        if not space.contains_point(p) and p not in union:
            union.append(p)
    yield "union", "np2:conversion", union, space
    # the space and the unit points e_1..e_n in {x0 = 0}, two points off
    # it: every quadric of the system is x0 times a form, so each split
    # has B = 0
    x0 = LinForm([1] + [0] * n)
    plane = Pencil(x0, LinForm([0] + [rng.randint(1, 5) for _ in range(n)]))
    inside = list(coordinate_points(n)[1:])
    while len(inside) < n + 2:
        p = ProjPoint([1] + [rng.randint(-5, 5) for _ in range(n)])
        if p not in inside:
            inside.append(p)
    yield "hyperplane", "np2:decomposition", inside, plane


def test_np2_refusals_keep_their_stages():
    # each kind of special datum is refused at the same stage whichever
    # basis of the quadric system gives the columns
    for n in range(3, 7):
        for seed in range(2):
            for kind, stage, points, space in _np2_special_data(n, seed):
                try:
                    construct_np2_one_space(points, space)
                except NotGeneric as exc:
                    assert exc.stage == stage, (n, seed, kind)
                else:
                    assert stage is None, (n, seed, kind)


def test_spanning_tests_read_the_canonical_stack():
    # the (2, n+1) spanning check and `generalized_column_for` use
    # `Pencil.spanned_by`, a 2 x 2 determinant, so neither module has a
    # row space to take (no module of the library has one); their kernels
    # match the dot-product loops
    for name in ("rncgeo.construct", "rncgeo.curves", "rncgeo.projective", "rncgeo.linalg"):
        assert not hasattr(sys.modules[name], "canonical_rowspace"), name
    for n in range(3, 8):
        datum, _ = forward_datum(n, 2, n + 1, rng_from_seed(("spanning", n)))
        cert = construct_two_points(datum.points, datum.spaces)
        top, bottom = ([form.coeffs for form in row] for row in cert.det.m)
        for pencil in datum.spaces:
            kernel = nullspace(pencil.membership_rows(top) + pencil.membership_rows(bottom))
            assert kernel == generalized_column_kernel(cert.det, pencil), n
            assert generalized_column_for(cert.det, pencil) is not None, n
        extra = datum.spaces[n]
        first = [h for h, _ in (s.member_through(datum.points[0]) for s in datum.spaces[:n])]
        kernel = nullspace(extra.membership_rows([h.coeffs for h in first]))
        assert kernel == span_membership_kernel(first, extra), n


MATRIX_BUILT = {
    "n+2,1": lambda n: (n + 2, 1),
    "3,n": lambda n: (3, n),
    "2,n+1": lambda n: (2, n + 1),
    "1,n+2": lambda n: (1, n + 2),
}


def test_matrix_built_certificates_locate_points_through_their_matrix():
    # `make` reads each point's parameter off the constructor's matrix; the
    # report is the one `verify_datum` builds through `param_to_det`, and a
    # point moved off the curve is refused by both
    for n in range(3, 10):
        for tag, shape in MATRIX_BUILT.items():
            for seed in range(3):
                datum, _ = forward_datum(n, *shape(n), rng_from_seed(("locate", n, tag, seed)))
                cert = construct(datum)
                assert cert.report == verify_datum(cert.curve, cert.datum), (n, tag, seed)
                off = [1] + [0] * (n - 1) + [seed + 2]
                moved = Datum(n=n, spaces=datum.spaces, points=(ProjPoint(off),) + datum.points[1:])
                located = _verify_on_columns(cert.curve, moved, _integer_columns(cert.det))
                assert not located.points[0].on_curve, (n, tag, seed)
                assert located == verify_datum(cert.curve, moved), (n, tag, seed)


def test_constructors_invert_only_what_the_frame_needs(monkeypatch):
    # the four matrix-built shapes invert no matrix once the interpolation
    # rows are cached; (n+3, 0) inverts the frame's head and the curve's
    # coefficients (for the emitted matrix), not the frame map
    original = Matrix.inverse
    calls = []

    def counting(self):
        calls.append(self.rows)
        return original(self)

    for n in range(7, 10):
        for tag, shape in {**MATRIX_BUILT, "n+3,0": lambda n: (n + 3, 0)}.items():
            datum, _ = forward_datum(n, *shape(n), rng_from_seed(("inverses", n, tag)))
            construct(datum)
            with monkeypatch.context() as patch:
                patch.setattr(Matrix, "inverse", counting)
                calls.clear()
                construct(datum)
            assert len(calls) == (2 if tag == "n+3,0" else 0), (n, tag)
