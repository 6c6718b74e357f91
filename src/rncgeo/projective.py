"""Points, hyperplanes, pencils (codimension-two spaces) and automorphisms
of projective n-space.

Codimension-two spaces are stored as a pair of independent linear forms plus
the reduced row echelon form of their coefficient stack, which
`canonical_stack` gives in closed form (Cramer's rule on one 2 x 2 block,
no elimination).  The RREF stack is the identity of the pencil, so equality
of spans is decidable exactly and pencils are hashable.  Every linear
condition a pencil imposes (membership of combinations of forms, spanning
by two members) is read off that stack and its pivot columns.
Points are canonicalized so the first nonzero coordinate is 1.

Genericity is never assumed: anything that needs a rank condition checks it
and raises NotGeneric with the failing witness.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DegenerateSpan, DimensionMismatch, NotGeneric
from .linalg import Matrix, nullspace
from .scalars import QQ, as_qq, integerize


class ProjPoint:
    """A point of P^n; coords scaled so the first nonzero entry is 1."""

    __slots__ = ("n", "coords")

    def __init__(self, coords: Sequence):
        raw = [as_qq(c) for c in coords]
        if len(raw) < 2:
            raise ValueError("a projective point needs at least 2 coordinates")
        lead = next((c for c in raw if c), None)
        if lead is None:
            raise ValueError("all coordinates are zero")
        self.n = len(raw) - 1
        self.coords = tuple(raw) if lead == 1 else tuple(c / lead for c in raw)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


class LinForm:
    """A nonzero linear form on P^n (a hyperplane)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, coeffs: Sequence):
        raw = tuple(as_qq(c) for c in coeffs)
        if len(raw) < 2:
            raise ValueError("a linear form needs at least 2 coefficients")
        if not any(raw):
            raise ValueError("the zero form does not define a hyperplane")
        self.n = len(raw) - 1
        self.coeffs = raw

    def at(self, point: ProjPoint) -> QQ:
        if point.n != self.n:
            raise DimensionMismatch(f"form on P^{self.n} vs point in P^{point.n}")
        return sum((a * x for a, x in zip(self.coeffs, point.coords)), QQ(0))

    def __eq__(self, other):
        return isinstance(other, LinForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"LinForm({[str(c) for c in self.coeffs]})"


def canonical_stack(f: Sequence, g: Sequence) -> tuple[tuple, tuple[int, int]]:
    """The reduced row echelon form Z of the stack of two coefficient
    vectors, with its pivot columns (c0, c1), in closed form.

    c0 is the first column where f and g are not both zero, and c1 the
    first later column whose minor d = f[c0] g[c1] - f[c1] g[c0] is
    nonzero.  Cramer's rule on that block gives
    Z[0] = (g[c1] f - f[c1] g) / d and Z[1] = (f[c0] g - g[c0] f) / d:
    rows of the same span with the identity at (c0, c1), zero left of c0,
    and Z[1] zero between c0 and c1 because those minors vanish.  So Z is
    the RREF.  f and g are integerized first (a positive rescaling of
    either keeps the span), so only the output entries are fractions.
    Raises DegenerateSpan when f and g are dependent.
    """
    f, g = integerize(f), integerize(g)
    c0 = next((j for j, (a, b) in enumerate(zip(f, g)) if a or b), None)
    if c0 is not None:
        a0, b0 = f[c0], g[c0]
        for c1 in range(c0 + 1, len(f)):
            d = a0 * g[c1] - f[c1] * b0
            if d:
                a1, b1 = f[c1], g[c1]
                z0 = tuple(QQ(b1 * x - a1 * y, d) for x, y in zip(f, g))
                z1 = tuple(QQ(a0 * y - b0 * x, d) for x, y in zip(f, g))
                return (z0, z1), (c0, c1)
    raise DegenerateSpan("pencil forms are linearly dependent")


class Pencil:
    """A codimension-two linear space { f = g = 0 }, f, g independent.

    Two pencils are equal iff their coefficient stacks span the same row
    space, tested on the canonical RREF stack (`canonical_stack`), whose
    pivot columns c0 < c1 are kept as `pivots`: a member h of the pencil
    is h[c0] Z[0] + h[c1] Z[1].
    """

    __slots__ = ("n", "f", "g", "canonical", "pivots")

    def __init__(self, f: LinForm, g: LinForm):
        if f.n != g.n:
            raise DimensionMismatch("pencil forms live on different spaces")
        self.canonical, self.pivots = canonical_stack(f.coeffs, g.coeffs)
        self.n = f.n
        self.f = f
        self.g = g

    def __eq__(self, other):
        return isinstance(other, Pencil) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return f"Pencil({self.f!r}, {self.g!r})"

    def canonical_forms(self) -> tuple[LinForm, LinForm]:
        """The two RREF-stack rows; equal pencils give identical forms."""
        return LinForm(self.canonical[0]), LinForm(self.canonical[1])

    def contains_point(self, p: ProjPoint) -> bool:
        return not self.f.at(p) and not self.g.at(p)

    def member_through(self, p: ProjPoint) -> tuple[LinForm, tuple[QQ, QQ]]:
        """The member of the pencil vanishing at p, with its coordinates
        (a, b) in the canonical basis (f, g); p must be off the pencil."""
        f, g = self.canonical_forms()
        fv, gv = f.at(p), g.at(p)
        if not fv and not gv:
            raise NotGeneric(
                "point lies on the codimension-two space", stage="member_through", witness=p
            )
        a, b = gv, -fv
        coeffs = [a * x + b * y for x, y in zip(f.coeffs, g.coeffs)]
        return LinForm(coeffs), (a, b)

    def membership_rows(self, forms: Sequence[Sequence]) -> list[list[QQ]]:
        """The conditions 'sum_i k_i forms[i] lies in the span' on k, for
        forms given by coefficient vectors: one row per column j off the
        pivots, with entries h[j] - Z[0][j] h[c0] - Z[1][j] h[c1] for
        h = forms[i].  Each row is a functional of h vanishing on Z[0] and
        Z[1]; on the unit vectors off the pivots the rows are the identity,
        so they are independent and cut out exactly the span."""
        c0, c1 = self.pivots
        z0, z1 = self.canonical
        return [
            [h[j] - z0[j] * h[c0] - z1[j] * h[c1] for h in forms]
            for j in range(self.n + 1)
            if j != c0 and j != c1
        ]

    def spanned_by(self, a: Sequence, b: Sequence) -> bool:
        """Whether two members of the pencil (coefficient vectors) span it:
        their coordinates in the canonical basis are their entries at the
        pivots, so they span iff that 2 x 2 determinant is nonzero."""
        c0, c1 = self.pivots
        return a[c0] * b[c1] != a[c1] * b[c0]


class ProjTransform:
    """An automorphism of P^n given by an invertible matrix acting on
    coordinate columns; forms transform by the inverse on the right."""

    __slots__ = ("n", "matrix", "_inv")

    def __init__(self, matrix: Matrix):
        if matrix.rows != matrix.cols or matrix.rows < 2:
            raise ValueError("transform matrix must be square, size >= 2")
        if matrix.det() == 0:
            raise ValueError("transform matrix is singular")
        self.n = matrix.rows - 1
        self.matrix = matrix
        self._inv = None

    @staticmethod
    def identity(n: int) -> "ProjTransform":
        return ProjTransform(Matrix.identity(n + 1))

    def inverse_matrix(self) -> Matrix:
        if self._inv is None:
            self._inv = self.matrix.inverse()  # raises on singular input
        return self._inv

    def inverse(self) -> "ProjTransform":
        t = ProjTransform(self.inverse_matrix())
        t._inv = self.matrix
        return t

    def __eq__(self, other):
        # projective equality: matrices proportional
        if not isinstance(other, ProjTransform) or self.n != other.n:
            return False
        a, b = self.matrix.entries, other.matrix.entries
        ratio = None
        for ra, rb in zip(a, b):
            for x, y in zip(ra, rb):
                if bool(x) != bool(y):
                    return False
                if x:
                    if ratio is None:
                        ratio = x / y
                    elif x / y != ratio:
                        return False
        return True

    def __repr__(self):
        return f"ProjTransform({self.matrix!r})"


def coordinate_points(n: int) -> list[ProjPoint]:
    return [ProjPoint([int(i == j) for j in range(n + 1)]) for i in range(n + 1)]


def unit_point(n: int) -> ProjPoint:
    return ProjPoint([1] * (n + 1))


def standard_frame(n: int) -> list[ProjPoint]:
    return coordinate_points(n) + [unit_point(n)]


def frame_map(points: Sequence[ProjPoint]) -> ProjTransform:
    """The unique automorphism sending the n+2 given points (in linearly
    general position) to the standard frame e_0, ..., e_n, (1:...:1): for
    B the head points as columns and w = B^-1 p_(n+1), (B diag(w))^-1 is
    row i of B^-1 divided by w_i.  Its inverse B diag(w) comes with it, so
    inverting the transform eliminates nothing."""
    n = points[0].n
    if len(points) != n + 2:
        raise DimensionMismatch(f"frame of P^{n} needs {n + 2} points, got {len(points)}")
    if any(p.n != n for p in points):
        raise DimensionMismatch("frame points have mixed ambient dimensions")
    head = Matrix(list(zip(*(p.coords for p in points[: n + 1]))))
    try:
        inv = head.inverse()
    except ValueError:
        raise NotGeneric(
            "first n+1 frame points are dependent", stage="frame_map",
            witness=tuple(points[: n + 1]),
        ) from None
    weights = inv.apply(list(points[n + 1].coords))
    for i, w in enumerate(weights):
        if not w:
            subset = tuple(p for j, p in enumerate(points[: n + 1]) if j != i) + (points[n + 1],)
            raise NotGeneric(
                "last frame point is dependent on n of the others",
                stage="frame_map", witness=subset,
            )
    t = ProjTransform(Matrix([[x / w for x in row] for row, w in zip(inv.entries, weights)]))
    t._inv = Matrix([[x * w for x, w in zip(row, weights)] for row in head.entries])
    return t


def pencil_from_points(points: Sequence[ProjPoint]) -> Pencil:
    """The codimension-two space spanned by n-1 independent points."""
    n = points[0].n
    if n < 3:
        raise DimensionMismatch("pencils from point spans need n >= 3")
    if len(points) != n - 1:
        raise DimensionMismatch(f"expected {n - 1} points spanning a P^{n - 2}")
    if any(p.n != n for p in points):
        raise DimensionMismatch("span points have mixed ambient dimensions")
    kernel = nullspace([list(p.coords) for p in points])
    if len(kernel) != 2:
        raise DegenerateSpan(f"points span too little: {points}")
    return Pencil(LinForm(kernel[0]), LinForm(kernel[1]))


_HANDLERS: dict[type, object] = {}


def apply_transform(t: ProjTransform, obj):
    """Transport a geometric object by an automorphism.

    Handlers for curve, datum and scheme types register themselves in their
    defining modules via `register_transform`.
    """
    return _dispatch(obj.__class__)(t, obj)


# short internal alias
transform = apply_transform


def register_transform(cls):
    def wrap(fn):
        _HANDLERS[cls] = fn
        return fn

    return wrap


def _dispatch(cls):
    for klass in cls.__mro__:
        if klass in _HANDLERS:
            return _HANDLERS[klass]
    raise TypeError(f"cannot transform {cls.__name__}")


@register_transform(ProjPoint)
def _transform_point(t: ProjTransform, p: ProjPoint) -> ProjPoint:
    if t.n != p.n:
        raise DimensionMismatch("transform and point dimensions differ")
    return ProjPoint(t.matrix.apply(list(p.coords)))


@register_transform(LinForm)
def _transform_form(t: ProjTransform, form: LinForm) -> LinForm:
    if t.n != form.n:
        raise DimensionMismatch("transform and form dimensions differ")
    inv = t.inverse_matrix()
    coeffs = [
        sum((form.coeffs[i] * inv.entries[i][j] for i in range(t.n + 1)), QQ(0))
        for j in range(t.n + 1)
    ]
    return LinForm(coeffs)


@register_transform(Pencil)
def _transform_pencil(t: ProjTransform, pencil: Pencil) -> Pencil:
    return Pencil(transform(t, pencil.f), transform(t, pencil.g))
