"""Binary forms: homogeneous polynomials in (s, u) with exact coefficients.

coeffs[k] is the coefficient of s^k u^(d-k), so the coefficient list doubles
as the ascending coefficient list of the dehomogenization f(t, 1).  A root
at (0:1) shows up as a vanishing constant coefficient and a root at (1:0)
as vanishing top coefficients; the gcd and squarefreeness routines account
for both explicitly.

"Monic" throughout means: the last nonzero coefficient (highest power of s
present) equals 1.  With that convention the form with roots t_1..t_k is
exactly prod (s - t_i u), e.g. {2,3} gives s^2 - 5su + 6u^2.
"""

from __future__ import annotations

from math import gcd as int_gcd
from typing import Iterable, Sequence

from .errors import BothZero, ZeroForm, ZeroParameter
from .scalars import QQ, as_qq, clear_denominators, integerize


class BinaryForm:
    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Sequence):
        if degree < 0:
            raise ValueError("negative degree")
        coeffs = tuple(as_qq(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        self.degree = degree
        self.coeffs = coeffs

    @staticmethod
    def zero(degree: int) -> "BinaryForm":
        return BinaryForm(degree, [0] * (degree + 1))

    @staticmethod
    def constant_one() -> "BinaryForm":
        return BinaryForm(0, [1])

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return f"BinaryForm({self.degree}, {[str(c) for c in self.coeffs]})"

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(self.degree, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.degree, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            out = [QQ(0)] * (self.degree + other.degree + 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] += a * b
            return BinaryForm(self.degree + other.degree, out)
        q = as_qq(other)
        return BinaryForm(self.degree, [q * a for a in self.coeffs])

    __rmul__ = __mul__

    def evaluate(self, s, u) -> QQ:
        s, u = as_qq(s), as_qq(u)
        if not s and not u:
            raise ZeroParameter("(0, 0) is not a parameter")
        total = QQ(0)
        sp = QQ(1)
        upow = [QQ(1)]
        for _ in range(self.degree):
            upow.append(upow[-1] * u)
        for k, c in enumerate(self.coeffs):
            if c:
                total += c * sp * upow[self.degree - k]
            sp *= s
        return total

    def monic(self) -> "BinaryForm":
        lead = None
        for c in reversed(self.coeffs):
            if c:
                lead = c
                break
        if lead is None:
            raise ZeroForm("the zero form has no monic normalization")
        if lead == 1:
            return self
        return BinaryForm(self.degree, [c / lead for c in self.coeffs])

    def substitute(self, a, b, c, d) -> "BinaryForm":
        """The form composed with (s, u) -> (a s + b u, c s + d u).

        Expanded in integers: with L the common denominator of a, b, c, d
        and M that of the coefficients, the integer form M f composed with
        the integer map L (a, b, c, d) is M L^deg times the result, which
        is divided back once."""
        deg = self.degree
        (a, b, c, d), scale = clear_denominators(as_qq(x) for x in (a, b, c, d))
        coeffs, coeff_scale = clear_denominators(self.coeffs)
        first, second = [b, a], [d, c]  # a s + b u and c s + d u, ascending
        fp, sp = [[1]], [[1]]
        for _ in range(deg):
            fp.append(_int_mul(fp[-1], first))
            sp.append(_int_mul(sp[-1], second))
        out = [0] * (deg + 1)
        for k, coeff in enumerate(coeffs):
            if coeff:
                for i, x in enumerate(_int_mul(fp[k], sp[deg - k])):
                    out[i] += coeff * x
        den = coeff_scale * scale**deg
        return BinaryForm(deg, [QQ(x, den) for x in out])


def form_from_roots(params: Iterable) -> BinaryForm:
    """Monic form whose roots are the given parameter points.

    Each parameter is an (s, u) pair; (t, 1) contributes the factor
    (s - t u) and (1, 0) contributes u.
    """
    out = BinaryForm.constant_one()
    for s, u in params:
        s, u = as_qq(s), as_qq(u)
        if not s and not u:
            raise ZeroParameter("(0, 0) is not a parameter")
        out = out * BinaryForm(1, [-s, u])
    return out.monic()


# -- integer univariate helpers (ascending coefficient lists) ----------------


def _deg(p: list[int]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _int_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _primitive(p: list[int]) -> list[int]:
    d = _deg(p)
    if d < 0:
        return []
    g = 0
    for x in p[: d + 1]:
        g = int_gcd(g, x)
    sign = 1 if p[d] > 0 else -1
    g *= sign
    return [x // g for x in p[: d + 1]]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of primitive integer polynomials, deg a >= deg b."""
    r = a[:]
    db = _deg(b)
    lb = b[db]
    dr = _deg(r)
    while dr >= db:
        lr = r[dr]
        r = [lb * x for x in r]
        shift = dr - db
        for i in range(db + 1):
            r[shift + i] -= lr * b[i]
        r[dr] = 0
        dr = _deg(r)
        if dr < 0:
            break
    return r


def _poly_gcd_int(a: list[int], b: list[int]) -> list[int]:
    a, b = _primitive(a), _primitive(b)
    if _deg(a) < _deg(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r)
    return a


def binary_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic gcd of two binary forms, roots at (1:0) and (0:1) included.

    The u-multiplicity of a form is the number of vanishing top
    coefficients; the min of the two is carried over, everything else is a
    primitive integer Euclid on the dehomogenizations.
    """
    if f.is_zero and g.is_zero:
        raise BothZero("gcd of two zero forms")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    # integerize also divides by the content; that is harmless here because
    # _poly_gcd_int makes its inputs primitive anyway and the u-multiplicity
    # reads only degrees
    fi, gi = integerize(f.coeffs), integerize(g.coeffs)
    u_mult = min(f.degree - _deg(fi), g.degree - _deg(gi))
    core = _poly_gcd_int(fi, gi)
    deg = _deg(core) + u_mult
    coeffs = core + [0] * u_mult
    return BinaryForm(deg, coeffs).monic()


def is_squarefree(f: BinaryForm) -> bool:
    """True iff f has no repeated root on the projective line."""
    if f.is_zero:
        raise ZeroForm("squarefreeness of the zero form")
    fi = integerize(f.coeffs)  # squarefreeness reads only degrees and gcds
    d = _deg(fi)
    if f.degree - d >= 2:  # (1:0) is a root of multiplicity >= 2
        return False
    if d == 0:
        return True
    deriv = [i * fi[i] for i in range(1, d + 1)]
    return _deg(_poly_gcd_int(fi, deriv)) == 0
