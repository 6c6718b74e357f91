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
from .scalars import QQ


class BinaryForm:
    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Sequence):
        if degree < 0:
            raise ValueError("negative degree")
        coeffs = tuple(QQ(c) for c in coeffs)
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
        q = QQ(other)
        return BinaryForm(self.degree, [q * a for a in self.coeffs])

    __rmul__ = __mul__

    def evaluate(self, s, u) -> QQ:
        s, u = QQ(s), QQ(u)
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
        """The form composed with (s, u) -> (a s + b u, c s + d u)."""
        deg = self.degree
        first = BinaryForm(1, [QQ(b), QQ(a)])
        second = BinaryForm(1, [QQ(d), QQ(c)])
        fp = [BinaryForm.constant_one()]
        sp = [BinaryForm.constant_one()]
        for _ in range(deg):
            fp.append(fp[-1] * first)
            sp.append(sp[-1] * second)
        out = BinaryForm.zero(deg)
        for k, coeff in enumerate(self.coeffs):
            if coeff:
                out = out + coeff * (fp[k] * sp[deg - k])
        return out


def form_from_roots(params: Iterable) -> BinaryForm:
    """Monic form whose roots are the given parameter points.

    Each parameter is an (s, u) pair; (t, 1) contributes the factor
    (s - t u) and (1, 0) contributes u.
    """
    out = BinaryForm.constant_one()
    for s, u in params:
        s, u = QQ(s), QQ(u)
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


def _int_coeffs(form: BinaryForm) -> list[int]:
    lcm = 1
    for c in form.coeffs:
        d = c.denominator
        lcm = lcm // int_gcd(lcm, d) * d
    return [c.numerator * (lcm // c.denominator) for c in form.coeffs]


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
    fi, gi = _int_coeffs(f), _int_coeffs(g)
    u_mult = min(f.degree - _deg(fi), g.degree - _deg(gi))
    core = _poly_gcd_int(fi, gi)
    deg = _deg(core) + u_mult
    coeffs = core + [0] * u_mult
    return BinaryForm(deg, coeffs).monic()


def is_squarefree(f: BinaryForm) -> bool:
    """True iff f has no repeated root on the projective line."""
    if f.is_zero:
        raise ZeroForm("squarefreeness of the zero form")
    fi = _int_coeffs(f)
    d = _deg(fi)
    if f.degree - d >= 2:  # (1:0) is a root of multiplicity >= 2
        return False
    if d == 0:
        return True
    deriv = [i * fi[i] for i in range(1, d + 1)]
    return _deg(_poly_gcd_int(fi, deriv)) == 0


def divide_exact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """f / g when g divides f exactly; raises ValueError otherwise."""
    if g.is_zero:
        raise ZeroForm("division by the zero form")
    if f.is_zero:
        return BinaryForm.zero(f.degree - g.degree)
    gd = _deg([1 if c else 0 for c in g.coeffs])
    fd = _deg([1 if c else 0 for c in f.coeffs])
    u_quot = (f.degree - fd) - (g.degree - gd)
    if u_quot < 0 or fd < gd:
        raise ValueError("not an exact divisor")
    num = list(f.coeffs[: fd + 1])
    den = list(g.coeffs[: gd + 1])
    out = [QQ(0)] * (fd - gd + 1)
    for k in range(fd - gd, -1, -1):
        c = num[gd + k] / den[gd]
        out[k] = c
        if c:
            for i in range(gd + 1):
                num[k + i] -= c * den[i]
    if any(num):
        raise ValueError("not an exact divisor")
    deg = (fd - gd) + u_quot
    return BinaryForm(deg, out + [0] * u_quot)
