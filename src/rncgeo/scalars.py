"""Exact rational scalars.

The whole library computes over Q.  `fractions.Fraction` already maintains
the invariants we need (coprime numerator/denominator, positive denominator,
zero stored as 0/1), so it *is* our scalar type; this module adds the
conversion and formatting helpers the rest of the package shares.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ParseError

QQ = Fraction

ZERO = QQ(0)
ONE = QQ(1)


def qq(value) -> QQ:
    """Coerce an int, string ("7", "-3/4") or Fraction to an exact scalar."""
    if isinstance(value, QQ):
        return value
    if isinstance(value, int):
        return QQ(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


def parse_rational(text: str, *, location: str = "") -> QQ:
    """Parse "p" or "p/q" with q != 0; no floats ever."""
    body = text.strip()
    num, sep, den = body.partition("/")
    try:
        if not sep:
            return QQ(int(num))
        d = int(den)
        if d == 0:
            raise ParseError(f"zero denominator in {text!r}", location=location)
        return QQ(int(num), d)
    except ValueError as exc:
        raise ParseError(f"bad rational {text!r}: {exc}", location=location) from exc


def format_rational(value: QQ):
    """Render exactly: ints as ints, everything else as "p/q"."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def integerize(values) -> list[int]:
    """Scale a rational vector by a positive rational so it becomes a
    primitive integer vector (content 1).  The zero vector maps to zeros."""
    values = list(values)
    lcm = 1
    for v in values:
        d = v.denominator
        lcm = lcm // gcd(lcm, d) * d
    ints = [v.numerator * (lcm // v.denominator) for v in values]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def primitive_vector(values) -> list[QQ]:
    """Like `integerize` but additionally fixes the sign so the first
    nonzero entry is positive; returned as scalars."""
    ints = integerize(values)
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return [QQ(x) for x in ints]
