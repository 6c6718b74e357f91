import random
from fractions import Fraction as QQ

import pytest

import rncgeo.linalg as linalg_module
import rncgeo.projective as projective_module
from rncgeo.errors import DegenerateSpan, DimensionMismatch, NotGeneric
from rncgeo.linalg import Matrix, nullspace
from rncgeo.projective import (
    LinForm,
    Pencil,
    ProjPoint,
    ProjTransform,
    apply_transform,
    canonical_stack,
    coordinate_points,
    frame_map,
    pencil_from_points,
    standard_frame,
    unit_point,
)
from reference import (
    canonical_rowspace,
    frame_map_by_two_inverses,
    span_membership_kernel,
    spans_by_rowspace,
)


def rand_transform(n, rng):
    while True:
        m = Matrix([[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(n + 1)])
        if m.det() != 0:
            return ProjTransform(m)


def test_point_canonicalization():
    assert ProjPoint([24, 12, 8, 6]) == ProjPoint([1, QQ(1, 2), QQ(1, 3), QQ(1, 4)])
    assert ProjPoint([0, 0, 3, 6]).coords == (QQ(0), QQ(0), QQ(1), QQ(2))
    with pytest.raises(ValueError):
        ProjPoint([0, 0, 0, 0])


def test_frame_map_fixes_standard_frame():
    t = frame_map(standard_frame(3))
    assert t == ProjTransform.identity(3)


def test_frame_map_diagonal_case():
    pts = coordinate_points(3) + [ProjPoint([1, 2, 3, 4])]
    t = frame_map(pts)
    diag = Matrix(
        [[QQ(1), 0, 0, 0], [0, QQ(1, 2), 0, 0], [0, 0, QQ(1, 3), 0], [0, 0, 0, QQ(1, 4)]]
    )
    assert t == ProjTransform(diag)
    for p, target in zip(pts, standard_frame(3)):
        assert apply_transform(t, p) == target


def test_frame_map_reproduces_frame_generic():
    rng = random.Random(7)
    for _ in range(10):
        s = rand_transform(3, rng)
        pts = [apply_transform(s, p) for p in standard_frame(3)]
        t = frame_map(pts)
        assert [apply_transform(t, p) for p in pts] == standard_frame(3)


def test_frame_map_not_generic_dependent_head():
    pts = [
        ProjPoint([1, 0, 0, 0]),
        ProjPoint([0, 1, 0, 0]),
        ProjPoint([1, 1, 0, 0]),  # coplanar with the first two and any 4th
        ProjPoint([0, 0, 1, 0]),
        ProjPoint([1, 1, 1, 1]),
    ]
    with pytest.raises(NotGeneric) as err:
        frame_map(pts)
    assert err.value.stage == "frame_map"
    assert err.value.witness == tuple(pts[:4])


def test_frame_map_equals_the_two_inverse_construction():
    rng = random.Random("frame-rows")
    for n in range(1, 10):
        for _ in range(15):
            points = []
            while len(points) < n + 2:
                coords = [QQ(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
                if any(coords):
                    points.append(ProjPoint(coords))
            try:
                expected = frame_map_by_two_inverses(points)
            except ValueError:  # dependent head or a zero weight
                with pytest.raises(NotGeneric):
                    frame_map(points)
                continue
            assert frame_map(points).matrix == expected


def test_frame_map_carries_its_exact_inverse():
    # B diag(w) is the inverse the transform would otherwise eliminate for
    rng = random.Random(61)
    for n in range(1, 7):
        for _ in range(5):
            s = rand_transform(n, rng)
            points = [apply_transform(s, p) for p in standard_frame(n)]
            t = frame_map(points)
            assert t.inverse().matrix == t.matrix.inverse()
            assert t.inverse_matrix() == t.matrix.inverse()


def test_frame_map_not_generic_last_point():
    pts = coordinate_points(3) + [ProjPoint([1, 1, 0, 1])]
    with pytest.raises(NotGeneric) as err:
        frame_map(pts)
    # witness: the four dependent points including the last one
    assert pts[-1] in err.value.witness


def test_transform_roundtrip_and_incidence():
    rng = random.Random(11)
    for _ in range(10):
        t = rand_transform(3, rng)
        p = ProjPoint([rng.randint(-5, 5) for _ in range(3)] + [1])
        form = LinForm([rng.randint(-5, 5) for _ in range(3)] + [1])
        tp, tf = apply_transform(t, p), apply_transform(t, form)
        # incidence is preserved exactly
        assert (form.at(p) == 0) == (tf.at(tp) == 0)
        inv = t.inverse()
        assert apply_transform(inv, tp) == p
        assert apply_transform(inv, tf) == form


def test_identity_transform_fixes_pencil():
    pencil = Pencil(LinForm([1, 0, 0, 0]), LinForm([0, 1, 0, 0]))
    assert apply_transform(ProjTransform.identity(3), pencil) == pencil


def test_pencil_equality_under_basis_change():
    f, g = LinForm([1, 2, 3, 4]), LinForm([0, 1, 1, 1])
    p1 = Pencil(f, g)
    h1 = LinForm([a + b for a, b in zip(f.coeffs, g.coeffs)])
    h2 = LinForm([2 * a - b for a, b in zip(f.coeffs, g.coeffs)])
    assert p1 == Pencil(h1, h2)
    assert hash(p1) == hash(Pencil(h1, h2))
    with pytest.raises(DegenerateSpan):
        Pencil(f, LinForm([2, 4, 6, 8]))


def test_pencil_from_points_examples():
    p = pencil_from_points([ProjPoint([1, 0, 0, 0]), ProjPoint([1, 1, 1, 1])])
    assert p == Pencil(LinForm([0, 1, -1, 0]), LinForm([0, 0, 1, -1]))

    q = pencil_from_points([ProjPoint([1, 2, 4, 8]), ProjPoint([1, 3, 9, 27])])
    assert q == Pencil(LinForm([6, -5, 1, 0]), LinForm([30, -19, 0, 1]))


def test_pencil_from_points_vanishes_on_inputs():
    pts = [ProjPoint([1, 2, 4, 8]), ProjPoint([1, 3, 9, 27])]
    p = pencil_from_points(pts)
    for point in pts:
        assert p.contains_point(point)


def test_pencil_from_points_degenerate():
    with pytest.raises(DegenerateSpan):
        pencil_from_points([ProjPoint([1, 1, 1, 1]), ProjPoint([2, 2, 2, 2])])


def test_member_through():
    pencil = Pencil(LinForm([1, 0, 0, 0]), LinForm([0, 1, 0, 0]))
    point = ProjPoint([2, 3, 1, 1])
    member, (a, b) = pencil.member_through(point)
    assert member.at(point) == 0
    f, g = pencil.canonical_forms()
    assert [a * x + b * y for x, y in zip(f.coeffs, g.coeffs)] == list(member.coeffs)
    with pytest.raises(NotGeneric):
        pencil.member_through(ProjPoint([0, 0, 1, 5]))


def test_transformed_pencil_has_rank_two_stack():
    rng = random.Random(3)
    pencil = Pencil(LinForm([1, 0, 0, 0]), LinForm([0, 1, 0, 0]))
    for _ in range(5):
        t = rand_transform(3, rng)
        moved = apply_transform(t, pencil)
        assert len(moved.canonical) == 2
        # membership transported: a point of the pencil maps onto the image
        pt = ProjPoint([0, 0, rng.randint(1, 5), rng.randint(1, 5)])
        assert moved.contains_point(apply_transform(t, pt))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LinForm([1, 0, 0]).at(ProjPoint([1, 0, 0, 0]))
    with pytest.raises(DimensionMismatch):
        frame_map(coordinate_points(3))
    with pytest.raises(DimensionMismatch):
        pencil_from_points([ProjPoint([1, 0, 0]), ProjPoint([0, 1, 0])])


def test_unit_point():
    assert unit_point(3) == ProjPoint([1, 1, 1, 1])


# -- conditions read off the canonical stack ------------------------------------


def random_form(n, rng, zeros=()):
    while True:
        coeffs = [0 if j in zeros else rng.randint(-4, 4) for j in range(n + 1)]
        if any(coeffs):
            return LinForm(coeffs)


def stack_pencils(n, rng):
    """Random pencils, the pencils with pivots (0, 1) and (n-1, n), and
    some with pivots off the first columns."""
    unit = [LinForm([int(k == j) for k in range(n + 1)]) for j in range(n + 1)]
    pencils = [Pencil(unit[0], unit[1]), Pencil(unit[n - 1], unit[n])]
    pencils.append(Pencil(random_form(n, rng, zeros=(0,)), random_form(n, rng, zeros=(0, 1))))
    while len(pencils) < 8:
        try:
            pencils.append(Pencil(random_form(n, rng), random_form(n, rng)))
        except DegenerateSpan:
            continue
    return pencils


def unit_rows(n):
    return [[int(k == j) for j in range(n + 1)] for k in range(n + 1)]


def test_span_conditions_are_the_canonical_nullspace():
    # the membership rows of the unit vectors cut out the span: they are
    # the canonical `nullspace` basis of the stack
    rng = random.Random("span-conditions")
    for n in range(3, 9):
        pivots = set()
        for pencil in stack_pencils(n, rng):
            assert pencil.membership_rows(unit_rows(n)) == nullspace(list(pencil.canonical)), n
            pivots.add(pencil.pivots)
        assert {(0, 1), (n - 1, n)} <= pivots


def test_membership_kernels_match_the_dot_product_loops():
    rng = random.Random("membership")
    for n in range(3, 9):
        for pencil in stack_pencils(n, rng):
            f, g = pencil.canonical_forms()
            for size in (n - 1, n, n + 1):
                forms = [random_form(n, rng) for _ in range(size)]
                # a member of the span guarantees a nonzero kernel
                forms[-1] = LinForm([2 * a - 3 * b for a, b in zip(f.coeffs, g.coeffs)])
                kernel = nullspace(pencil.membership_rows([h.coeffs for h in forms]))
                assert kernel == span_membership_kernel(forms, pencil), (n, size)
                assert kernel


def test_spanning_determinant_matches_the_rowspace_test():
    rng = random.Random("spanning")
    for n in range(3, 9):
        for pencil in stack_pencils(n, rng):
            f, g = (form.coeffs for form in pencil.canonical_forms())
            for _ in range(6):
                a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                x = [a * u + b * v for u, v in zip(f, g)]
                y = [c * u + d * v for u, v in zip(f, g)]
                expected = spans_by_rowspace(pencil, x, y)
                assert pencil.spanned_by(x, y) == expected
                assert expected == (a * d != b * c)
            # a dependent pair, and a zero member
            x = [3 * u - v for u, v in zip(f, g)]
            y = [-6 * u + 2 * v for u, v in zip(f, g)]
            assert not pencil.spanned_by(x, y) and not spans_by_rowspace(pencil, x, y)
            assert not pencil.spanned_by(x, [0] * (n + 1))


def test_stack_readings_do_not_eliminate(monkeypatch):
    # pencils take their stack in closed form and read every condition off
    # it, so no reduced row echelon form (`linalg._rref`) runs at all
    def forbidden(*args, **kwargs):
        raise AssertionError("read off the canonical stack, no elimination")

    rng = random.Random("no-elimination")
    cases = []
    for pencil in stack_pencils(6, rng):
        f, g = (form.coeffs for form in pencil.canonical_forms())
        x = [u - 2 * v for u, v in zip(f, g)]
        expected = (
            canonical_rowspace([pencil.f.coeffs, pencil.g.coeffs]),
            nullspace(list(pencil.canonical)),
            spans_by_rowspace(pencil, f, x),
            spans_by_rowspace(pencil, x, [2 * c for c in x]),
        )
        cases.append((pencil.f, pencil.g, f, x, expected))
    for module in (projective_module, linalg_module):
        monkeypatch.setattr(module, "nullspace", forbidden)
    monkeypatch.setattr(linalg_module, "_rref", forbidden)
    for a, b, f, x, expected in cases:
        pencil = Pencil(a, b)
        assert (
            pencil.canonical,
            pencil.membership_rows(unit_rows(6)),
            pencil.spanned_by(f, x),
            pencil.spanned_by(x, [2 * c for c in x]),
        ) == expected


# -- the closed-form stack -------------------------------------------------------


def rational_form(n, rng, zeros=()):
    """Coefficients with negative and non-integer entries, zero at `zeros`."""
    while True:
        coeffs = [
            0 if j in zeros else QQ(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, -5, 7]))
            for j in range(n + 1)
        ]
        if any(coeffs):
            return coeffs


def stack_cases(n, rng):
    """Pairs of coefficient vectors: seeded random pairs, leading zero
    columns, pivots at (0, 1) and at (n-1, n), proportional leading
    columns, and rational and negative entries."""
    unit = unit_rows(n)
    cases = [(unit[0], unit[1]), (unit[n - 1], unit[n]), (unit[n], unit[n - 1])]
    cases.append(([0, 0, 0] + [-1] * (n - 2), [0, 0, 0, QQ(2, 3)] + [0] * (n - 3)))
    for _ in range(12):
        cases.append((rational_form(n, rng), rational_form(n, rng)))
    lead = rng.randint(1, n - 2)
    zeros = tuple(range(lead))
    cases.append((rational_form(n, rng, zeros), rational_form(n, rng, zeros)))
    for k in (1, 2, n - 1):
        # the first k columns proportional: c1 comes after them
        f = rational_form(n, rng, zeros=(0,))
        f[0] = QQ(-3, 2)
        g = [QQ(2, 5) * c for c in f[:k]] + rational_form(n, rng)[k:]
        cases.append((f, g))
    return cases


def test_canonical_stack_equals_the_rref():
    rng = random.Random("closed-form-stack")
    for n in range(3, 13):
        pivots = set()
        for f, g in stack_cases(n, rng):
            expected = canonical_rowspace([f, g])
            if len(expected) < 2:
                continue  # a random pair that happens to be dependent
            stack, (c0, c1) = canonical_stack(f, g)
            assert stack == expected, (n, f, g)
            assert all(type(x) is QQ for row in stack for x in row)
            assert (stack[0][c0], stack[0][c1], stack[1][c0], stack[1][c1]) == (1, 0, 0, 1)
            assert c0 == min(j for j in range(n + 1) if f[j] or g[j]), (n, f, g)
            pencil = Pencil(LinForm(f), LinForm(g))
            assert (pencil.canonical, pencil.pivots) == (stack, (c0, c1))
            pivots.add((c0, c1))
        assert {(0, 1), (n - 1, n)} <= pivots, n


def test_canonical_stack_refuses_dependent_forms():
    rng = random.Random("dependent-stack")
    for n in range(3, 13):
        f = rational_form(n, rng, zeros=(0,))
        for g in ([QQ(-7, 3) * c for c in f], list(f), [0] * (n + 1)):
            with pytest.raises(DegenerateSpan):
                canonical_stack(f, g)
            assert len(canonical_rowspace([f, g])) == 1
        with pytest.raises(DegenerateSpan):
            Pencil(LinForm(f), LinForm([5 * c for c in f]))
