"""Exact rational scalars.

The whole library computes over Q.  `fractions.Fraction` already maintains
the invariants we need (coprime numerator/denominator, positive denominator,
zero stored as 0/1), so it *is* our scalar type; this module adds the
conversion and formatting helpers the rest of the package shares.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError

QQ = Fraction

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_qq(value) -> QQ:
    """`value` as an exact scalar.  A `Fraction` is returned as it is (it is
    immutable, so sharing it is safe); ints, "p/q" strings and other exact
    rationals are converted, and floats are refused."""
    if type(value) is QQ:
        return value
    if isinstance(value, float):
        raise TypeError(f"floats are not exact scalars: {value!r}")
    return QQ(value)


def parse_rational(text: str, *, location: str = "") -> QQ:
    """Parse "p" or "p/q" with q != 0, written with an optional sign and
    ASCII digits only; no floats ever."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ParseError(
            f"bad rational {text!r}: expected p or p/q in ASCII digits",
            location=location,
        )
    num, den = match.groups()
    try:
        if den is None:
            return QQ(int(num))
        d = int(den)
        if d == 0:
            raise ParseError(f"zero denominator in {text!r}", location=location)
        return QQ(int(num), d)
    except ValueError as exc:  # a literal past the int digit limit
        raise ParseError(f"bad rational {text!r}: {exc}", location=location) from exc


def format_rational(value: QQ):
    """Render exactly: ints as ints, everything else as "p/q"."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def clear_denominators(values) -> tuple[list[int], int]:
    """(D * values, D) for D the lcm of the denominators, as a new list of
    ints that callers may eliminate on in place."""
    ints = list(values)
    if all(type(v) is int for v in ints):
        return ints, 1
    scale = lcm(*(v.denominator for v in ints))
    return [v.numerator * (scale // v.denominator) for v in ints], scale


def integerize(values) -> list[int]:
    """Scale a rational vector by a positive rational so it becomes a
    primitive integer vector (content 1), as a new list.  The zero vector
    maps to zeros."""
    ints, _ = clear_denominators(values)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints

