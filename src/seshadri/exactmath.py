"""Exact integer and rational arithmetic for square-root comparisons.

Every decision in this package reduces to integer arithmetic; floating
point is never consulted for anything but display.  Two rationals d1/m1
and d2/m2 are ordered by cross-multiplication, d1*m2 vs d2*m1, in the
callers.  The one square-root comparison shape supported here is the
one the threshold computations need:

    linear    p*sqrt(a*N)  vs  q*sqrt(b*N)+c  (sqrt_linear_cmp)

It is decided by squaring with exact sign handling, so boundary cases
(perfect squares, exact ties) are resolved by integer identities.
RadicalBound holds a value c*sqrt(n) for display only: it is a tuple that
refuses order, and comparisons against it go through its coefficient and
radicand.

Decimal rendering is display-only: round to nearest, ties away from zero,
at a fixed number of digits.  Values that are exactly representable in at
most that many decimal digits are printed minimally ("9.4", "3"); all
others keep the full digit count ("2.2780").  One integer core, _decimal,
rounds, trims and spells rationals and radicals alike.  Rendered strings
never feed back into any computation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "RadicalBound",
    "ceil_sqrt",
    "format_decimal",
    "sqrt_linear_cmp",
]


def ceil_sqrt(n: int) -> int:
    """Ceiling of sqrt(n): the smallest s >= 0 with s*s >= n."""
    if n < 0:
        raise ValueError(f"ceil_sqrt of negative integer {n}")
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def sqrt_linear_cmp(p: int, a: int, q: int, b: int, c: int, n: int) -> bool:
    """Decide exactly whether p*sqrt(a*n) >= q*sqrt(b*n) + c.

    All arguments positive.  Two-step squaring: with
    D = p^2*a*n - q^2*b*n - c^2, the inequality holds iff

        D >= 0   and   D^2 >= 4 q^2 c^2 b n.

    D < 0 decides "false" before the second squaring, which keeps the
    sign handling exact (both sides of the second squaring are then
    non-negative).
    """
    if min(p, a, q, b, c, n) < 1:
        raise ValueError("sqrt_linear_cmp requires positive arguments")
    d = p * p * a * n - q * q * b * n - c * c
    if d < 0:
        return False
    return d * d >= 4 * q * q * c * c * b * n


def _decimal(p: int, q: int, decimals: int, trim: bool, radicand: int = 1) -> str:
    """Render (p/q) * sqrt(radicand), rounded to nearest with ties away from zero;
    q > 0, radicand >= 0, p/q not necessarily in lowest terms.

    With a = |p| and S = 10^decimals, the rounded scaled value is
    t = (isqrt(4 * a^2 * S^2 * radicand) + q) // (2q): the half-offset is
    folded into the integer square root, so no approximation of
    sqrt(radicand) is ever taken.  For radicand = s^2 (a rational, s = 1)
    the isqrt is exact and t = (2*a*s*S + q) // (2q).  Only then can the
    value terminate, so only then does trim shorten the digits, when
    t*q == a*s*S.  The integer part and the decimals are converted apart,
    each below Python's int-to-str limit.  "-" is prefixed only when p < 0
    and t != 0.  This core is the one owner of the refusal of decimals < 0.
    """
    if decimals < 0:
        raise ValueError("decimals must be >= 0")
    a, scale = abs(p), 10**decimals
    s = math.isqrt(radicand) if radicand != 1 else 1
    if s * s == radicand:
        a *= s
        t = (2 * a * scale + q) // (2 * q)
        trim = trim and t * q == a * scale
    else:
        t = (math.isqrt(4 * a * a * scale * scale * radicand) + q) // (2 * q)
        trim = False
    if decimals == 0:
        text = str(t)
    else:
        whole, frac = divmod(t, scale)
        text = f"{whole}.{str(frac).rjust(decimals, '0')}"
        if trim:
            text = text.rstrip("0").rstrip(".")
    return "-" + text if p < 0 and t else text


def format_decimal(value: Fraction, decimals: int = 4, trim: bool = True) -> str:
    """Render an exact rational at a fixed digit count.

    Rounds to nearest with ties away from zero.  With trim=True a value
    that is exactly representable within `decimals` digits is printed
    minimally (47/5 -> "9.4", 3 -> "3"); non-terminating values keep all
    digits (4/3 -> "1.3333").  For value = p/q and t, |p|/q rounded, the
    value is exact iff t/10^decimals == |p|/q, tested as t*q == |p|*10^decimals
    in _decimal, the integer core RadicalBound.decimal shares; it refuses
    decimals < 0.
    """
    if type(value) is not Fraction:
        value = Fraction(value)
    return _decimal(value.numerator, value.denominator, decimals, trim)


class RadicalBound(NamedTuple("RadicalBound", [("coef", Fraction), ("radicand", int)])):
    """The real number coef * sqrt(radicand), held exactly for display.

    coef is a non-negative rational, coerced to Fraction, and radicand a
    non-negative integer.  A tuple that refuses order: equality and hashing
    are field-wise, and <, <=, > and >= raise TypeError, even against a tuple.
    """

    __slots__ = ()

    def __new__(cls, coef: Fraction, radicand: int) -> RadicalBound:
        self = super().__new__(cls, coef if type(coef) is Fraction else Fraction(coef), radicand)
        if self.coef.numerator < 0:
            raise ValueError(f"RadicalBound coefficient must be >= 0, got {self.coef}")
        if radicand < 0:
            raise ValueError(f"RadicalBound radicand must be >= 0, got {radicand}")
        return self

    def __lt__(self, other):  # raising, not NotImplemented: a plain tuple would order it
        raise TypeError("RadicalBound defines no order")

    __le__ = __gt__ = __ge__ = __lt__

    def decimal(self, decimals: int = 4, trim: bool = True) -> str:
        """Rounded rendering (nearest, ties away from zero), exactly computed by
        exactmath._decimal, the core that renders rationals and refuses decimals < 0."""
        return _decimal(self.coef.numerator, self.coef.denominator, decimals, trim, self.radicand)
