import hashlib
import json
import random
from fractions import Fraction as QQ
from types import SimpleNamespace

import pytest

from rncgeo.binforms import BinaryForm, form_from_roots
from rncgeo.curves import (
    DetRnc,
    ParamRnc,
    chord_space,
    curve_equals,
    det_to_param,
    generalized_column_for,
    moment_curve,
    param_of_point,
    param_to_det,
    parameter,
    point_at,
    point_at_param,
    quadric_space,
    reparametrize,
    restrict,
    secancy,
    verify_datum,
)
from rncgeo.errors import NotGenericMatrix, RepeatedParameter
from rncgeo.linalg import Matrix
from rncgeo.projective import (
    LinForm,
    Pencil,
    ProjPoint,
    ProjTransform,
    apply_transform,
)


def hankel(n):
    rows = [[], []]
    for j in range(n):
        top = [0] * (n + 1)
        top[j] = 1
        bot = [0] * (n + 1)
        bot[j + 1] = 1
        rows[0].append(LinForm(top))
        rows[1].append(LinForm(bot))
    return DetRnc(rows)


def rand_curve(n, rng):
    while True:
        m = Matrix([[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(n + 1)])
        if m.det() != 0:
            return ParamRnc(
                [BinaryForm(n, row) for row in m.entries]
            )


def rand_transform(n, rng):
    while True:
        m = Matrix([[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(n + 1)])
        if m.det() != 0:
            return ProjTransform(m)


def datum_stub(n, points=(), spaces=()):
    return SimpleNamespace(n=n, points=list(points), spaces=list(spaces))


def test_point_at_moment():
    c = moment_curve(3)
    assert point_at(c, 2, 1) == ProjPoint([1, 2, 4, 8])
    assert point_at(c, 1, 0) == ProjPoint([0, 0, 0, 1])
    assert point_at(c, 0, 1) == ProjPoint([1, 0, 0, 0])


def test_det_to_param_hankel_is_moment():
    c = det_to_param(hankel(3))
    assert c == moment_curve(3)
    assert curve_equals(c, moment_curve(3))


def test_param_to_det_moment_is_hankel():
    det = param_to_det(moment_curve(3))
    assert det == hankel(3)


def test_round_trip_param_det_param():
    rng = random.Random(5)
    for n in (3, 4, 5):
        for _ in range(5):
            c = rand_curve(n, rng)
            assert det_to_param(DetRnc(param_to_det(c).m)) == c


def test_round_trip_from_random_det_rnc():
    # start from the matrix side: 100 seeded random 2 x n matrices
    rng = random.Random("det-roundtrip")
    for n in (3, 4, 5, 6):
        built = 0
        while built < 25:
            rows = [
                [
                    LinForm([rng.randint(-4, 4) for _ in range(n + 1)])
                    for _ in range(n)
                ]
                for _ in range(2)
            ]
            try:
                det = DetRnc(rows)
                curve = det_to_param(det)
            except (NotGenericMatrix, ValueError):
                continue
            built += 1
            assert curve_equals(param_to_det(curve), det)
            assert curve_equals(curve, det)


def test_det_to_param_rejects_proportional_columns():
    f = LinForm([1, 2, 0, 0])
    g = LinForm([0, 1, 1, 0])
    rows = [[f, f, LinForm([0, 0, 1, 0])], [g, g, LinForm([0, 0, 0, 1])]]
    with pytest.raises(NotGenericMatrix):
        det_to_param(DetRnc(rows))


def test_param_of_point_examples():
    c = moment_curve(3)
    assert param_of_point(c, ProjPoint([1, 2, 4, 8])) == parameter(2, 1)
    assert param_of_point(c, ProjPoint([1, 1, 1, 2])) is None
    assert param_of_point(c, ProjPoint([1, 0, 0, 0])) == parameter(0, 1)
    assert param_of_point(c, ProjPoint([0, 0, 0, 1])) == parameter(1, 0)


def test_param_point_inverse():
    rng = random.Random(9)
    for n in (3, 4):
        c = rand_curve(n, rng)
        for _ in range(100):
            t = parameter(QQ(rng.randint(-30, 30), rng.randint(1, 9)), 1)
            assert param_of_point(c, point_at_param(c, t)) == t
        assert param_of_point(c, point_at(c, 1, 0)) == parameter(1, 0)


def test_restrict_examples():
    c = moment_curve(3)
    assert restrict(c, LinForm([0, 1, -1, 0])) == BinaryForm(3, [0, 1, -1, 0])
    assert restrict(c, LinForm([1, 0, 0, 0])) == BinaryForm(3, [1, 0, 0, 0])
    assert restrict(c, LinForm([1, 0, 0, -1])) == BinaryForm(3, [1, 0, 0, -1])


def test_secancy_chord():
    c = moment_curve(3)
    chord = chord_space(c, [(0, 1), (1, 1)])
    res = secancy(c, chord)
    assert res.degree == 2
    assert res.smooth
    assert res.is_n_minus_1_secant
    assert res.d_form == form_from_roots([(0, 1), (1, 1)])


def test_secancy_non_smooth():
    c = moment_curve(3)
    pencil = Pencil(LinForm([0, 0, 1, 0]), LinForm([0, 0, 0, 1]))
    res = secancy(c, pencil)
    assert res.degree == 2
    assert res.d_form == BinaryForm(2, [0, 0, 1])  # s^2
    assert not res.smooth
    assert not res.is_n_minus_1_secant


def test_secancy_generic_pencil_degree_zero():
    c = moment_curve(3)
    pencil = Pencil(LinForm([1, 1, 0, 0]), LinForm([0, 3, 1, 7]))
    assert secancy(c, pencil).degree == 0


def test_generalized_column_chord():
    det = hankel(3)
    chord = chord_space(moment_curve(3), [(0, 1), (1, 1)])
    lam = generalized_column_for(det, chord)
    assert lam is not None
    lead = next(x for x in lam if x)
    assert [x / lead for x in lam] == [QQ(0), QQ(1), QQ(-1)]


def test_generalized_column_literal_column():
    det = hankel(3)
    pencil = Pencil(det.m[0][1], det.m[1][1])
    lam = generalized_column_for(det, pencil)
    lead = next(x for x in lam if x)
    assert [x / lead for x in lam] == [QQ(0), QQ(1), QQ(0)]


def test_generalized_column_generic_pencil_none():
    det = hankel(3)
    pencil = Pencil(LinForm([1, 1, 0, 0]), LinForm([0, 3, 1, 7]))
    assert generalized_column_for(det, pencil) is None


def test_generalized_column_scheme_nonsmooth():
    # span{x2, x3} meets the moment curve in a degree-2 scheme supported at
    # one point; the literal third Hankel column still witnesses it
    det = hankel(3)
    pencil = Pencil(LinForm([0, 0, 1, 0]), LinForm([0, 0, 0, 1]))
    assert generalized_column_for(det, pencil) is not None


def test_generalized_column_tangent_chord():
    # a space through the tangent line at one point plus n-3 further curve
    # points cuts a degree n-1 scheme with a double root; the column test
    # sees the scheme degree, not smoothness
    from rncgeo.linalg import nullspace
    from rncgeo.projective import LinForm as LF

    for n in (4, 5):
        c = moment_curve(n)
        det = param_to_det(c)
        # tangent at (0:1) is spanned by e0 and e1
        span_rows = [[1 if k == 0 else 0 for k in range(n + 1)],
                     [1 if k == 1 else 0 for k in range(n + 1)]]
        for t in range(1, n - 2):
            span_rows.append([QQ(t) ** k for k in range(n + 1)])
        forms = nullspace(span_rows)
        assert len(forms) == 2
        pencil = Pencil(LF(forms[0]), LF(forms[1]))
        res = secancy(c, pencil)
        assert res.degree == n - 1 and not res.smooth
        assert not res.is_n_minus_1_secant
        assert generalized_column_for(det, pencil) is not None


def test_chord_space_examples():
    c = moment_curve(3)
    chord = chord_space(c, [(2, 1), (3, 1)])
    assert chord == Pencil(LinForm([6, -5, 1, 0]), LinForm([0, 6, -5, 1]))
    assert secancy(c, chord).is_n_minus_1_secant
    with pytest.raises(RepeatedParameter):
        chord_space(c, [(0, 1), (0, 1)])


def test_chord_space_always_secant():
    rng = random.Random(21)
    for n in (3, 4, 5):
        c = rand_curve(n, rng)
        params = []
        while len(params) < n - 1:
            t = (rng.randint(-9, 9), 1)
            if t not in params:
                params.append(t)
        res = secancy(c, chord_space(c, params))
        assert res.degree == n - 1 and res.smooth


def test_curve_equals_reparametrization():
    c = moment_curve(4)
    assert curve_equals(c, reparametrize(c, 2, 1, 1, 1))
    assert curve_equals(c, reparametrize(c, 0, 1, -1, 0))


def test_curve_equals_distinguishes():
    c = moment_curve(3)
    t = ProjTransform(Matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert not curve_equals(c, apply_transform(t, c))


def test_quadric_space_dimensions_and_det_agreement():
    for n in (3, 4, 5):
        c = moment_curve(n)
        space = quadric_space(c)
        assert len(space) == n * (n - 1) // 2
        assert space == quadric_space(param_to_det(c))


def test_secancy_equivariance():
    rng = random.Random(33)
    c = moment_curve(3)
    chord = chord_space(c, [(1, 1), (4, 1)])
    for _ in range(5):
        t = rand_transform(3, rng)
        r1 = secancy(c, chord)
        r2 = secancy(apply_transform(t, c), apply_transform(t, chord))
        assert (r1.degree, r1.smooth) == (r2.degree, r2.smooth)


def test_transform_commutes_with_evaluation():
    rng = random.Random(41)
    c = rand_curve(3, rng)
    t = rand_transform(3, rng)
    moved = apply_transform(t, c)
    for s, u in [(0, 1), (1, 0), (2, 1), (-3, 2)]:
        assert point_at(moved, s, u) == apply_transform(t, point_at(c, s, u))


def test_transformed_det_tracks_parameters():
    rng = random.Random(43)
    c = rand_curve(3, rng)
    t = rand_transform(3, rng)
    det_moved = apply_transform(t, param_to_det(c))
    moved = apply_transform(t, c)
    # the transported matrix still reads off the original parameters
    p = point_at(moved, 5, 1)
    top, bottom = det_moved.m
    cols = [(f.at(p), g.at(p)) for f, g in zip(top, bottom)]
    a, b = next(((x, y) for x, y in cols if x or y))
    assert all(a * y == b * x for x, y in cols)
    assert parameter(b, a) == parameter(5, 1)


def test_verify_datum_stub():
    c = moment_curve(3)
    datum = datum_stub(
        3,
        points=[point_at(c, t, 1) for t in (0, 1, 2)],
        spaces=[chord_space(c, [(3, 1), (4, 1)])],
    )
    report = verify_datum(c, datum)
    assert report.passed
    assert [pc.param for pc in report.points] == [parameter(t, 1) for t in (0, 1, 2)]
    assert report.spaces[0].secancy.d_form == form_from_roots([(3, 1), (4, 1)])

    bad = datum_stub(3, points=[ProjPoint([1, 1, 1, 2])])
    rep2 = verify_datum(c, bad)
    assert not rep2.passed and not rep2.points[0].on_curve

    degenerate = datum_stub(
        3, spaces=[Pencil(LinForm([0, 0, 1, 0]), LinForm([0, 0, 0, 1]))]
    )
    rep3 = verify_datum(c, degenerate)
    assert not rep3.passed
    assert rep3.spaces[0].secancy.degree == 2 and not rep3.spaces[0].secancy.smooth


# -- integer kernel: det_to_param, restrict, param_of_point ---------------------


def rational(rng, bound=4):
    return QQ(rng.randint(-bound, bound), rng.randint(1, bound))


def row_operated(det, a, b, c, d):
    """Rows (a T + b B, c T + d B) of the matrix (T, B)."""
    top, bottom = det.m
    return DetRnc(
        [
            [
                LinForm([x * p + y * q for p, q in zip(f.coeffs, h.coeffs)])
                for f, h in zip(top, bottom)
            ]
            for x, y in ((a, b), (c, d))
        ]
    )


def column_operated(det, g):
    """Column j replaced by the sum over i of g[i][j] times column i."""
    n = det.n
    return DetRnc(
        [
            [
                LinForm(
                    [
                        sum((g[i][j] * row[i].coeffs[k] for i in range(n)), QQ(0))
                        for k in range(n + 1)
                    ]
                )
                for j in range(n)
            ]
            for row in det.m
        ]
    )


@pytest.mark.parametrize("n", range(1, 11))
def test_det_to_param_inverts_param_to_det(n):
    rng = random.Random(f"det-to-param-{n}")
    for _ in range(2):
        c = rand_curve(n, rng)
        det = param_to_det(c)
        assert det_to_param(DetRnc(det.m)) == c
        # a column operation keeps every minor up to one common factor
        while True:
            g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if Matrix(g).det():
                break
        assert det_to_param(column_operated(det, g)) == c
        # a row operation moves the parameter: the system at (s : u) is the
        # old one at (a s - c u : d u - b s)
        while True:
            a, b, cc, d = (rational(rng) for _ in range(4))
            if a * d - b * cc and a * b * cc * d:
                break
        moved = row_operated(det, a, b, cc, d)
        assert det_to_param(moved) == reparametrize(c, a, -cc, -b, d)
        assert curve_equals(det_to_param(moved), c)


def test_det_to_param_eliminates_once_per_node(monkeypatch):
    # the n+1 minors at a node come from one elimination, not from
    # (n+1) determinants; the only determinant left is the coefficient
    # check in ParamRnc
    from rncgeo import linalg

    calls = []
    real = linalg._bareiss_det

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "_bareiss_det", counting)
    c = rand_curve(9, random.Random("one-elimination"))
    det = DetRnc(param_to_det(c).m)
    calls.clear()
    assert det_to_param(det) == c
    assert len(calls) <= 1


def fraction_restrict(curve, form):
    out = [QQ(0)] * (curve.n + 1)
    for a, f in zip(form.coeffs, curve.forms):
        for k, c in enumerate(f.coeffs):
            out[k] += a * c
    return BinaryForm(curve.n, out)


def test_restrict_matches_fraction_reference():
    rng = random.Random("restrict-reference")
    for n in (1, 3, 5, 8):
        c = rand_curve(n, rng)
        for _ in range(40):
            coeffs = [rational(rng, 9) if rng.random() < 0.8 else 0 for _ in range(n + 1)]
            if not any(coeffs):
                continue
            form = LinForm(coeffs)
            assert restrict(c, form) == fraction_restrict(c, form)


def fraction_param_of_point(curve, point):
    """The evaluation on `Fraction` coordinates that integer evaluation
    replaced; it returns the same answers."""
    top, bottom = param_to_det(curve).m
    cols = [(f.at(point), g.at(point)) for f, g in zip(top, bottom)]
    first = next(((a, b) for a, b in cols if a or b), None)
    if first is None:
        return None
    a, b = first
    if any(a * y != b * x for x, y in cols):
        return None
    return parameter(b, a)


def rational_points(rng):
    """(curve, point) pairs: rational points on and off seeded curves."""
    pairs = []
    for n in (2, 3, 4, 6):
        c = rand_curve(n, rng)
        for _ in range(12):
            s, u = rational(rng, 7), rational(rng, 7)
            if not s and not u:
                continue
            p = point_at(c, s, u)
            pairs.append((c, p))
            coords = list(p.coords)
            coords[rng.randrange(n + 1)] += rational(rng, 5) or 1
            if any(coords):
                pairs.append((c, ProjPoint(coords)))
        pairs.append((c, point_at(c, 1, 0)))
        pairs.append((c, point_at(c, 0, 1)))
    return pairs


def test_param_of_point_on_rational_points():
    answers = []
    for c, p in rational_points(random.Random("param-of-point")):
        t = param_of_point(c, p)
        assert t == fraction_param_of_point(c, p)
        if t is not None:
            assert point_at_param(c, t) == p
        answers.append(None if t is None else [str(x) for x in t.coords])
    assert any(a is None for a in answers) and any(a is not None for a in answers)
    # the answers recorded before evaluation moved to integers
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == "82735aeb6b743193a97e4e345b09969e2912a67f90691d99468887b0c88d6c15"
