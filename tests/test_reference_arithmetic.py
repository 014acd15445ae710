"""The integer cross-multiplication code against Fraction-based references.

lower_bound_small, certified_min and dominance_check order ratios d/m and
squares of radicals by integer cross-multiplication.  The references
below are the earlier loops written with Fraction objects, kept here to
require equal results: value, argmins, scanned_to and tail witness.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri import comparison
from seshadri.bounds import (
    DEFAULT_SCAN_CAP,
    SMALL_MS,
    certified_min,
    d_min,
    lower_bound_small,
    tail_cutoff,
)
from seshadri.exactmath import RadicalBound


def lower_bound_small_reference(n: int) -> tuple[Fraction, frozenset[int]]:
    ratios = {m: Fraction(d_min(n, m), m) for m in SMALL_MS}
    value = min(ratios.values())
    return value, frozenset(m for m, v in ratios.items() if v == value)


def certified_min_reference(n: int, scan_cap: int = DEFAULT_SCAN_CAP):
    best = None
    argmins: set[int] = set()
    tail = None
    m = 2
    while m <= scan_cap:
        ratio = Fraction(d_min(n, m), m)
        if best is None or ratio < best:
            best, argmins = ratio, {m}
            tail = tail_cutoff(n, best)
        elif ratio == best:
            argmins.add(m)
        if tail is not None and tail.cutoff <= m + 1:
            return best, frozenset(argmins), m, tail
        m += 1
    return best, frozenset(argmins), scan_cap, None


def dominance_check_reference(n: int) -> bool:
    def square(name: str) -> Fraction:
        bound = comparison.prior_bound(name, n)
        return bound.coef * bound.coef * bound.radicand

    abelian, hr, ssz = square("abelian_7_8"), square("hr_093"), square("ssz_7_9")
    for m in SMALL_MS:
        g = Fraction(n * (m * (m - 1) + 2), m * m)
        if g > Fraction(d_min(n, m), m) ** 2:  # f >= g
            return False
        if g < abelian:  # g >= sqrt(14N)/4
            return False
    if abelian < hr:  # sqrt(14N)/4 >= 0.93 sqrt(N)
        return False
    return hr > ssz  # strict final link


def _certificate(n: int, scan_cap: int = DEFAULT_SCAN_CAP):
    cert = certified_min(n, scan_cap)
    return cert.value, cert.argmins, cert.scanned_to, cert.tail_witness


@settings(derandomize=True, max_examples=500)
@given(st.integers(min_value=2, max_value=10**40))
def test_lower_bound_small_matches_reference(n):
    small = lower_bound_small(n)
    assert (small.value, small.argmins) == lower_bound_small_reference(n)


def test_lower_bound_small_matches_reference_on_a_range():
    for n in range(2, 3001):
        small = lower_bound_small(n)
        assert (small.value, small.argmins) == lower_bound_small_reference(n)


def test_certified_min_matches_reference():
    for n in range(2, 3001):
        assert _certificate(n) == certified_min_reference(n)
        # a cap of 8 leaves some n uncertified (n = 3 certifies at m = 11)
        assert _certificate(n, 8) == certified_min_reference(n, 8)


@pytest.mark.parametrize("n", [10**30 - 1, 10**30, 10**30 + 1, 10**30 + 10**15,
                               2 * 10**30 + 1, 4 * 10**30, (10**15 + 1) ** 2])
def test_certified_min_matches_reference_near_1e30(n):
    assert _certificate(n) == certified_min_reference(n)


def test_dominance_check_matches_reference():
    for n in range(2, 2001):
        assert comparison.dominance_check(n) == dominance_check_reference(n)


@pytest.mark.parametrize("name, broken", [
    ("abelian_7_8", lambda n: RadicalBound(Fraction(1, 2), 14 * n)),  # above g(n,2)
    ("hr_093", lambda n: RadicalBound(Fraction(94, 100), n)),  # above sqrt(14N)/4
    ("ssz_7_9", lambda n: RadicalBound(Fraction(1, 3), 8 * n)),  # above 0.93 sqrt(N)
])
def test_dominance_check_matches_reference_on_broken_chains(monkeypatch, name, broken):
    original = comparison.prior_bound
    monkeypatch.setattr(comparison, "prior_bound",
                        lambda which, n: broken(n) if which == name else original(which, n))
    for n in range(2, 200):
        assert comparison.dominance_check(n) is dominance_check_reference(n) is False
