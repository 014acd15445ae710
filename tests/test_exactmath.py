"""Exact-arithmetic contracts: integer square roots, rational-vs-radical
comparison, two-step squaring, radical values, decimal rendering.

Randomized suites use hypothesis (derandomized) plus seeded random.Random
loops; SEED = 20200817 throughout the test tree.
"""

import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri import exactmath
from seshadri.exactmath import (
    RadicalBound,
    ceil_sqrt,
    format_decimal,
    sqrt_linear_cmp,
)
from test_reference_arithmetic import rat_cmp_sqrt

SEED = 20200817


class TestIntegerSqrt:
    def test_ceil_sqrt_examples(self):
        assert ceil_sqrt(16) == 4
        assert ceil_sqrt(1516) == 39
        assert ceil_sqrt(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ceil_sqrt(-5)

    @settings(derandomize=True, max_examples=1200)
    @given(st.integers(min_value=0, max_value=2**128))
    def test_contracts(self, n):
        s = isqrt(n)
        assert s * s <= n < (s + 1) * (s + 1)
        c = ceil_sqrt(n)
        assert c - s in (0, 1)
        assert c * c >= n and (c == 0 or (c - 1) * (c - 1) < n)
        assert (c == s) == (s * s == n)


class TestRatCmpSqrt:
    def test_examples(self):
        assert rat_cmp_sqrt(Fraction(4, 3), 2) < 0  # 16 < 2*9
        assert rat_cmp_sqrt(Fraction(2), 4) == 0
        assert rat_cmp_sqrt(Fraction(3, 2), 2) > 0  # 9 > 2*4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rat_cmp_sqrt(Fraction(-1, 2), 2)

    @settings(derandomize=True, max_examples=1000)
    @given(
        st.fractions(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**12),
    )
    def test_equal_iff_square_identity(self, r, n):
        cmp = rat_cmp_sqrt(r, n)
        assert (cmp == 0) == (n * r.denominator**2 == r.numerator**2)
        if cmp < 0:
            assert r.numerator**2 < n * r.denominator**2


def _random_radical(rng: random.Random) -> RadicalBound:
    return RadicalBound(
        Fraction(rng.randint(0, 100), rng.randint(1, 100)), rng.randint(0, 500)
    )


class TestRadicalBound:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            RadicalBound(Fraction(-1, 2), 3)
        with pytest.raises(ValueError):
            RadicalBound(-1, 3)
        with pytest.raises(ValueError):
            RadicalBound(Fraction(1, 2), -3)

    def test_coef_becomes_a_fraction_once(self):
        coerced = RadicalBound(3, 2).coef
        assert type(coerced) is Fraction and coerced == 3
        coef = Fraction(93, 100)
        assert RadicalBound(coef, 2).coef is coef

    def test_equality_is_fieldwise_and_unordered(self):
        assert RadicalBound(1, 2) == RadicalBound(Fraction(1), 2)
        assert hash(RadicalBound(1, 2)) == hash(RadicalBound(Fraction(1), 2))
        assert RadicalBound(Fraction(1, 2), 4) != RadicalBound(Fraction(1), 1)
        with pytest.raises(TypeError):
            RadicalBound(Fraction(1), 2) < RadicalBound(Fraction(1), 3)
        with pytest.raises(TypeError):
            RadicalBound(Fraction(1), 2) <= (Fraction(1), 3)
        with pytest.raises(TypeError):
            (Fraction(1), 3) > RadicalBound(Fraction(1), 2)


class TestSqrtLinearCmp:
    def test_threshold_inequality(self):
        # 7*sqrt(58N) >= 8*sqrt(44N) + 8: flips between 1071 and 1072
        assert sqrt_linear_cmp(7, 58, 8, 44, 8, 1072)
        assert not sqrt_linear_cmp(7, 58, 8, 44, 8, 1071)

    def test_reduction_polynomial_at_1071(self):
        # the same decision via 676 N^2 - 724224 N + 4096 >= 0 (after the
        # first squaring is known non-negative: 26 N - 64 >= 0)
        n = 1071
        assert 26 * n - 64 >= 0
        assert 676 * n * n - 724224 * n + 4096 < 0
        n = 1072
        assert 676 * n * n - 724224 * n + 4096 >= 0

    def test_trivial_false(self):
        assert not sqrt_linear_cmp(1, 4, 1, 4, 1, 100)  # x >= x + 1

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sqrt_linear_cmp(0, 1, 1, 1, 1, 1)

    def test_agrees_with_high_precision_floats(self):
        mpmath.mp.dps = 60
        rng = random.Random(SEED)
        checked = 0
        while checked < 1000:
            p, q = rng.randint(1, 50), rng.randint(1, 50)
            a, b = rng.randint(1, 80), rng.randint(1, 80)
            c = rng.randint(1, 40)
            n = rng.randint(1, 10**6)
            lhs = p * mpmath.sqrt(a * n)
            rhs = q * mpmath.sqrt(b * n) + c
            if abs(lhs - rhs) <= mpmath.mpf("1e-20") * max(lhs, rhs):
                continue  # boundary cases are decided only by the exact path
            assert sqrt_linear_cmp(p, a, q, b, c, n) == (lhs > rhs)
            checked += 1


class TestDecimalRendering:
    def test_rationals(self):
        assert format_decimal(Fraction(4, 3)) == "1.3333"
        assert format_decimal(Fraction(47, 5)) == "9.4"
        assert format_decimal(Fraction(3)) == "3"
        assert format_decimal(Fraction(265, 2)) == "132.5"
        assert format_decimal(Fraction(47, 5), trim=False) == "9.4000"
        assert format_decimal(Fraction(3), trim=False) == "3.0000"

    def test_ties_away_from_zero(self):
        assert format_decimal(Fraction(1, 2), 0) == "1"
        assert format_decimal(Fraction(-1, 2), 0) == "-1"
        assert format_decimal(Fraction(25, 1000), 2, trim=False) == "0.03"
        assert format_decimal(Fraction(-25, 1000), 2, trim=False) == "-0.03"

    def test_radical_rendering(self):
        assert RadicalBound(Fraction(1, 4), 28).decimal() == "1.3229"
        assert RadicalBound(Fraction(93, 100), 2).decimal() == "1.3152"
        assert RadicalBound(Fraction(93, 100), 100).decimal() == "9.3"
        assert RadicalBound(Fraction(93, 100), 6).decimal() == "2.2780"
        assert RadicalBound(Fraction(1, 2), 4).decimal() == "1"
        assert RadicalBound(Fraction(1, 2), 1, ).decimal(0) == "1"  # 0.5 -> up

    @pytest.mark.parametrize("render, text", [
        (lambda: format_decimal(Fraction(4, 3)), "1.3333"),
        (lambda: RadicalBound(Fraction(1, 4), 28).decimal(), "1.3229"),  # not a square
        (lambda: RadicalBound(Fraction(93, 100), 100).decimal(), "9.3"),  # a square, trimmed
    ], ids=["rational", "radical", "square_radical"])
    def test_one_core_rounds_every_value(self, monkeypatch, render, text):
        calls = []
        core = exactmath._decimal

        def counting(*args):
            calls.append(args)
            return core(*args)

        monkeypatch.setattr(exactmath, "_decimal", counting)
        assert render() == text
        assert len(calls) == 1

    def test_rendering_is_pure_and_idempotent(self):
        rng = random.Random(SEED)
        for _ in range(300):
            rb = _random_radical(rng)
            once = rb.decimal(4)
            again = RadicalBound(rb.coef, rb.radicand).decimal(4)
            assert once == again

    def test_radical_against_high_precision(self):
        mpmath.mp.dps = 60
        rng = random.Random(SEED + 1)
        for _ in range(500):
            rb = _random_radical(rng)
            text = rb.decimal(4, trim=False)
            approx = mpmath.mpf(rb.coef.numerator) / rb.coef.denominator * mpmath.sqrt(
                rb.radicand
            )
            assert abs(mpmath.mpf(text) - approx) <= mpmath.mpf("0.50000001") * 1e-4
