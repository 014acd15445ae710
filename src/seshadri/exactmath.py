"""Exact integer and rational arithmetic for square-root comparisons.

Every decision in this package reduces to integer arithmetic; floating
point is never consulted for anything but display.  Two rationals d1/m1
and d2/m2 are ordered by cross-multiplication, d1*m2 vs d2*m1, in the
callers.  The one square-root comparison shape supported here is the
one the threshold computations need:

    linear    p*sqrt(a*N)  vs  q*sqrt(b*N)+c  (sqrt_linear_cmp)

It is decided by squaring with exact sign handling, so boundary cases
(perfect squares, exact ties) are resolved by integer identities.
RadicalBound holds a value c*sqrt(n) for display only: it has no order,
and comparisons against it go through its coefficient and radicand.

Decimal rendering is display-only: round to nearest, ties away from zero,
at a fixed number of digits.  Values that are exactly representable in at
most that many decimal digits are printed minimally ("9.4", "3"); all
others keep the full digit count ("2.2780").  Rendered strings never feed
back into any computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def _round_half_away(num: int, den: int) -> int:
    """round(num/den) with ties away from zero, den > 0."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


def _digits_to_str(t: int, decimals: int) -> str:
    sign = "-" if t < 0 else ""
    s = str(abs(t)).rjust(decimals + 1, "0")
    if decimals == 0:
        return sign + s
    return f"{sign}{s[:-decimals]}.{s[-decimals:]}"


def _trim_exact(text: str) -> str:
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def format_decimal(value: Fraction, decimals: int = 4, trim: bool = True) -> str:
    """Render an exact rational at a fixed digit count.

    Rounds to nearest with ties away from zero.  With trim=True a value
    that is exactly representable within `decimals` digits is printed
    minimally (47/5 -> "9.4", 3 -> "3"); non-terminating values keep all
    digits (4/3 -> "1.3333").  For value = p/q and the rounded t, the value
    is exact iff t/10^decimals == p/q, tested as t*q == p*10^decimals.
    """
    if decimals < 0:
        raise ValueError("decimals must be >= 0")
    if type(value) is not Fraction:
        value = Fraction(value)
    p, q = value.numerator, value.denominator
    scale = 10**decimals
    t = _round_half_away(p * scale, q)
    text = _digits_to_str(t, decimals)
    if trim and t * q == p * scale:
        text = _trim_exact(text)
    return text


@dataclass(frozen=True)
class RadicalBound:
    """The real number coef * sqrt(radicand), held exactly for display.

    coef is a non-negative rational, radicand a non-negative integer.
    Equality is field-wise; the class defines no order.
    """

    coef: Fraction
    radicand: int

    def __post_init__(self) -> None:
        if type(self.coef) is not Fraction:
            object.__setattr__(self, "coef", Fraction(self.coef))
        if self.coef.numerator < 0:
            raise ValueError(f"RadicalBound coefficient must be >= 0, got {self.coef}")
        if self.radicand < 0:
            raise ValueError(f"RadicalBound radicand must be >= 0, got {self.radicand}")

    def decimal(self, decimals: int = 4, trim: bool = True) -> str:
        """Rounded rendering (nearest, ties away from zero), exactly computed.

        With v = (p/q) * sqrt(rad) and k digits, the scaled floor
        round(v * 10^k) equals (isqrt(4 * p^2 * 10^(2k) * rad) + q) // (2q):
        the half-offset is folded into the integer square root, so no
        approximation of sqrt(rad) is ever taken.  For rad = s^2 the isqrt
        is exact and this is floor(p*s*10^k/q + 1/2), the rounding that
        format_decimal applies to the non-negative rational p*s/q.  Only
        such a value can terminate, so only then does trim shorten the
        digits, and only when they are exact.
        """
        if decimals < 0:
            raise ValueError("decimals must be >= 0")
        p, q = self.coef.numerator, self.coef.denominator
        scale = 10**decimals
        t = (math.isqrt(4 * p * p * scale * scale * self.radicand) + q) // (2 * q)
        text = _digits_to_str(t, decimals)
        s = math.isqrt(self.radicand)
        if trim and s * s == self.radicand and t * q == p * s * scale:  # t/10^k == p*s/q
            text = _trim_exact(text)
        return text
