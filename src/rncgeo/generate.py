"""Seeded pseudo-random geometric data with small integer coordinates.

Everything is driven by a `random.Random` instance so a seed reproduces the
exact same objects; degenerate draws are rejected and retried.
"""

from __future__ import annotations

import random

from .binforms import BinaryForm
from .curves import ParamRnc, chord_space, point_at_param, parameter
from .errors import DegenerateSpan, NotGeneric
from .linalg import Matrix
from .projective import LinForm, Pencil, ProjPoint, ProjTransform

DEFAULT_RANGE = 5


def rng_from_seed(seed) -> random.Random:
    """Deterministic RNG; tuples are flattened to a stable string seed
    (string seeding hashes with sha512, independent of PYTHONHASHSEED)."""
    if isinstance(seed, tuple):
        seed = "-".join(str(part) for part in seed)
    return random.Random(seed)


def random_invertible_matrix(size: int, rng: random.Random, bound: int = DEFAULT_RANGE) -> Matrix:
    while True:
        m = Matrix([[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)])
        if m.det() != 0:
            return m


def random_transform(n: int, rng: random.Random, bound: int = DEFAULT_RANGE) -> ProjTransform:
    return ProjTransform(random_invertible_matrix(n + 1, rng, bound))


def random_rnc(n: int, rng: random.Random, bound: int = DEFAULT_RANGE) -> ParamRnc:
    m = random_invertible_matrix(n + 1, rng, bound)
    return ParamRnc([BinaryForm(n, row) for row in m.entries])


def distinct_parameters(count: int, rng: random.Random, bound: int = 30) -> list:
    if count > 2 * bound:
        raise ValueError("parameter pool too small")
    values = rng.sample(range(-bound, bound + 1), count)
    return [parameter(v, 1) for v in values]


def random_point(n: int, rng: random.Random, bound: int = 9) -> ProjPoint:
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if any(coords):
            return ProjPoint(coords)


def random_linform(n: int, rng: random.Random, bound: int = 9) -> LinForm:
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if any(coeffs):
            return LinForm(coeffs)


def random_pencil(n: int, rng: random.Random, bound: int = 9) -> Pencil:
    while True:
        try:
            return Pencil(random_linform(n, rng, bound), random_linform(n, rng, bound))
        except DegenerateSpan:
            continue


def forward_datum(n: int, p: int, l: int, rng: random.Random):
    """A datum satisfied by a random curve: p points on it and l chords
    through n-1 distinct curve points each.  All parameters are distinct,
    so no accidental incidences are introduced.  Returns (datum, curve).

    The parameter pool widens past the default bound only when the count
    needs it (n >= 8 for the secant-heavy shapes), so smaller data keep
    their seeded values."""
    from .construct import Datum

    curve = random_rnc(n, rng)
    count = p + l * (n - 1)
    params = distinct_parameters(count, rng, bound=max(30, (count + 1) // 2))
    points = [point_at_param(curve, t) for t in params[:p]]
    spaces = []
    for k in range(l):
        chunk = params[p + k * (n - 1): p + (k + 1) * (n - 1)]
        spaces.append(chord_space(curve, chunk))
    return Datum(n=n, spaces=tuple(spaces), points=tuple(points)), curve


def random_datum(n: int, p: int, l: int, rng: random.Random, forward: bool = False):
    """A seeded datum; `forward` also returns the curve that satisfies it.

    Non-forward data are independent uniform points and pencils (the right
    input for the non-existence regime)."""
    from .construct import Datum

    if forward:
        return forward_datum(n, p, l, rng)
    points = []
    while len(points) < p:
        candidate = random_point(n, rng)
        if candidate not in points:
            points.append(candidate)
    spaces = []
    while len(spaces) < l:
        candidate = random_pencil(n, rng)
        if candidate not in spaces:
            spaces.append(candidate)
    return Datum(n=n, spaces=tuple(spaces), points=tuple(points)), None


def retrying(attempts: int, builder, failure_message: str):
    """Run a seeded builder with bounded retries on genericity failures."""
    last = None
    for _ in range(attempts):
        try:
            result = builder()
        except (NotGeneric, DegenerateSpan) as exc:
            last = exc
            continue
        if result is not None:
            return result
    raise NotGeneric(failure_message, stage="generate", witness=last)
