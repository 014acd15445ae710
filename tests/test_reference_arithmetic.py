"""The integer cross-multiplication code against Fraction-based references.

certified_min and dominance_check order ratios d/m and squares of
radicals by integer cross-multiplication.  The references below are the
earlier loops written with Fraction objects, kept here to require equal
results: value, argmins, scanned_to and tail witness.  lower_bound_small
(d_min numerators over 420) and the kernel bounds._small_columns (per m a
lazy column over a window of N, read off the runs on which d_min is
constant, with no square root per N) are both held equal to the Fraction
minimum of d_min(n, m)/m, the kernel on windows and at the ends of its
runs; census, its listing and ceiling_threshold read a sparse table of
the kernel's argmins, built in one pass over its rows and holding only
the n whose argmins are not {4}, and their references below call
lower_bound_small, which shares no arithmetic with the kernel.
certified_min and check_f7 take every witness polynomial and cutoff
from one integer core, bounds._tail_cutoff; the reference scan takes its
cutoffs from tail_cutoff_reference, so it shares none of it; the
witness check_f7 returns is held equal to that reference, and its
violation lists to a brute scan far past the cutoff.  certified_min
reads a one-N window of the integer scan bounds._certified_scans, and
verify's agreement sweep reads one window over [2, stop]; both are held equal to the reference scan.  A window
takes d_min the first time it reaches an m and walks each degree up
from its last value after that, so only windows over several N exercise
the walk; they are held equal to the reference one N at a time.  The
core stops where the witness of its minimum holds at m + 1.  For a fixed
minimum and m that test holds exactly from a first N on,
bounds._stop_from, which a window keeps per m with the minimum and
recomputes only from the first m whose degree moved.
stop_test_reference is the earlier test, a few integer products per
(N, m), and _stop_from is held to be its exact first N; every window is
held equal to its one-N windows, which keep no state from an earlier N.
certified_scan_reference is the earlier core, which took a TailWitness
from _tail_cutoff at every new minimum and compared its cutoff with
m + 1, and the core is held equal to it.
ceiling_threshold takes only the parity and reads the table; its
reference is the earlier direct scan of lower_bound_small.  census
bisects per m != 4 the tabulated n below the analytic threshold and
counts the rest under m = 4; its reference is the earlier census,
lower_bound_small at every n of the range.  A box oracle computes
the minimum over Omega(N) by walking degrees upward, with no ceil_sqrt.  m_max,
_tail_cutoff and sqrt_linear_threshold are closed forms; their references
are the earlier searches: a bisection on the defining inequality, a step
up to the witness polynomial's larger root and back down to its vertex,
and a gallop plus bisection on sqrt_linear_cmp.  RadicalBound.decimal
now renders through exactmath._decimal, the core that renders rationals;
the earlier two-path rendering still checks it: radical_decimal_reference
sends square radicands through format_decimal and rounds every other
radicand with its own isqrt formula and digit split.
candidate_values orders and deduplicates its values on one integer key
and lists them as lowest-terms pairs (p, q), building no Fraction;
candidate_values_reference is the earlier listing, a set of Fractions
sorted on (value, kind), and each Fraction's numerator and denominator
are held equal to the package's pair.  It stays the authority;
candidate_values_integer_reference, which reduces each pair by its gcd and
orders the values on their numerators over lcm(1..max_m), is held equal
to it and stands in for it on the long range of N.  format_decimal and
its integer core exactmath._decimal test the trim by cross-multiplication;
format_decimal_reference builds Fraction(t, 10^k) and compares.
dominance_check reads the prior bounds' squares from PRIOR_BOUNDS;
dominance_check_reference reads them from prior_bound.
rat_cmp_sqrt, the exact order of a rational against sqrt(n), has no
caller in the package; tail_cutoff_reference and tests/test_exactmath.py
use it from here.
"""

import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import count, takewhile
from math import gcd, isqrt, lcm
from operator import add

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from certcheck import check_sqrt_linear
from seshadri import bounds, comparison, verify
from seshadri.bounds import (
    DEFAULT_SCAN_CAP,
    FIBER_KIND,
    OMEGA_KIND,
    SMALL_MS,
    SMALL_MS_LCM,
    SmallBound,
    SqrtLinearThreshold,
    TailWitness,
    candidate_values,
    ceiling_threshold,
    census,
    certified_min,
    check_f7,
    d_min,
    lower_bound_small,
    m_max,
    sqrt_linear_threshold,
)
from seshadri.cli import cli
from seshadri.exactmath import RadicalBound, _decimal, ceil_sqrt, format_decimal, sqrt_linear_cmp


def rat_cmp_sqrt(r: Fraction, n: int) -> int:
    """Exact order of a non-negative rational r versus sqrt(n).

    Returns -1, 0 or +1.  Decided by comparing num^2 with n * den^2 in
    integers, so equality is detected exactly (iff n*den^2 == num^2).
    """
    if r.numerator < 0:
        raise ValueError(f"rat_cmp_sqrt requires r >= 0, got {r}")
    if n < 0:
        raise ValueError(f"rat_cmp_sqrt of negative radicand {n}")
    lhs = r.numerator * r.numerator
    rhs = n * r.denominator * r.denominator
    return (lhs > rhs) - (lhs < rhs)


def lower_bound_small_reference(n: int) -> SmallBound:
    ratios = {m: Fraction(d_min(n, m), m) for m in SMALL_MS}
    value = min(ratios.values())
    return SmallBound(n, value, frozenset(m for m, v in ratios.items() if v == value))


def kernel_bounds(start: int, stop: int) -> list[SmallBound]:
    """The kernel's columns over [start, stop] as one SmallBound per n: the
    minimum as a Fraction over SMALL_MS_LCM, the argmins the columns equal to it."""
    return [SmallBound(n, Fraction(min(scaled), SMALL_MS_LCM),
                       frozenset(m for m, v in zip(SMALL_MS, scaled) if v == min(scaled)))
            for n, scaled in enumerate(zip(*bounds._small_columns(start, stop)), start)]


def kernel_at(n: int) -> SmallBound:
    """The kernel's one-N window at n, as a SmallBound."""
    [bound] = kernel_bounds(n, n)
    return bound


def certified_min_reference(n: int, scan_cap: int = DEFAULT_SCAN_CAP):
    best = None
    argmins: set[int] = set()
    tail = None
    m = 2
    while m <= scan_cap:
        ratio = Fraction(d_min(n, m), m)
        if best is None or ratio < best:
            best, argmins = ratio, {m}
            tail = tail_cutoff_reference(n, best)
        elif ratio == best:
            argmins.add(m)
        if tail is not None and tail.cutoff <= m + 1:
            return best, frozenset(argmins), m, tail
        m += 1
    return best, frozenset(argmins), scan_cap, None


def certified_scan_reference(n: int, scan_cap: int = DEFAULT_SCAN_CAP):
    """The earlier integer core: (best_d, best_m, argmins, scanned_to, tail),
    with tail the TailWitness _tail_cutoff returns for the reduced minimum,
    taken at every new minimum, or None when no certificate starts by scan_cap."""
    best_d, best_m = 1, 0
    argmins: list[int] = []
    tail = None
    no_cutoff = scan_cap + 2  # past every m + 1 of the scan
    cutoff = no_cutoff
    for m in range(2, scan_cap + 1):
        d = d_min(n, m)
        if d * best_m < best_d * m:
            best_d, best_m, argmins = d, m, [m]
            tail = bounds._tail_cutoff(n, Fraction(d, m))
            cutoff = no_cutoff if tail is None else tail.cutoff
        elif d * best_m == best_d * m:
            argmins.append(m)
        if cutoff <= m + 1:
            return best_d, best_m, argmins, m, tail
    return best_d, best_m, argmins, scan_cap, None


def stop_test_reference(n: int, d: int, q: int, j: int) -> bool:
    """The earlier stop test of the scan core at m = j - 1 for the running minimum
    d/q at n: the scaled witness (a, b, c) set up at a new minimum, (0, -1) when there
    is none, the discriminant shortcut (0, 0), and 2*a*j + b >= 0 and poly(j) >= strict."""
    a, b, c, strict, nqq = 0, -1, 0, False, n * q * q
    if d * d <= nqq:
        a, strict = nqq - d * d, d % q == 0
        b, c = (2 * d * q - nqq, 2 * nqq - q * q) if strict else (-nqq, 2 * nqq)
        if strict and b * b < 4 * a * c:
            a, b = 0, 0
    return 2 * a * j + b >= 0 and (a * j + b) * j + c >= strict


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


def m_max_reference(n: int, d: int) -> int | None:
    """Bisection for the largest m >= 2 with n*(2 + m*(m-1)) <= d^2."""
    dd = d * d
    if 4 * n > dd:  # even m = 2 fails
        return None
    lo, hi = 2, d + 2  # at m = d+2: m(m-1)+2 > d^2 >= d^2/n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if n * (mid * (mid - 1) + 2) <= dd:
            lo = mid
        else:
            hi = mid - 1
    return lo


def tail_cutoff_reference(n: int, threshold: Fraction) -> TailWitness | None:
    """Search for the first m >= max(2, ceil(vertex)) where the witness
    polynomial holds: step up from two below its larger root, then down."""
    if rat_cmp_sqrt(threshold, n) > 0:
        return None
    p, q = threshold.numerator, threshold.denominator
    if q == 1:
        a, b, c, strict = n - p * p, 2 * p - n, 2 * n - 1, True
    else:
        a, b, c, strict = n * q * q - p * p, -n * q * q, 2 * n * q * q, False

    def ok(m: int) -> bool:
        v = (a * m + b) * m + c
        return v > 0 if strict else v >= 0

    if a == 0:
        if not (b > 0 or (b == 0 and ok(2))):
            return None
        m = 2
        while not ok(m):
            m += 1
        return TailWitness(threshold, m, (a, b, c), strict)
    disc = b * b - 4 * a * c
    if disc < 0 or (disc == 0 and not strict):
        return TailWitness(threshold, 2, (a, b, c), strict)
    vertex = max(2, -(b // (2 * a)))
    m = max(vertex, (-b + isqrt(disc)) // (2 * a) - 2)
    while not ok(m):
        m += 1
    while m > vertex and ok(m - 1):
        m -= 1
    return TailWitness(threshold, m, (a, b, c), strict)


def sqrt_linear_threshold_reference(p: int, a: int, q: int, b: int, c: int):
    """Gallop then bisect for the first n >= 1 where sqrt_linear_cmp holds."""
    alpha = p * p * a - q * q * b
    if alpha <= 0:
        return None
    e = 4 * q * q * c * c * b
    lo, hi = 1, 1
    while not sqrt_linear_cmp(p, a, q, b, c, hi):
        lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if sqrt_linear_cmp(p, a, q, b, c, mid):
            hi = mid
        else:
            lo = mid + 1
    return SqrtLinearThreshold(lo, (alpha * alpha, -(2 * alpha * c * c + e), c**4))


def radical_decimal_reference(rb: RadicalBound, decimals: int, trim: bool) -> str:
    s = isqrt(rb.radicand)
    if s * s == rb.radicand:
        return format_decimal(rb.coef * s, decimals, trim)
    p, q = rb.coef.numerator, rb.coef.denominator
    t = (isqrt(4 * p * p * 10 ** (2 * decimals) * rb.radicand) + q) // (2 * q)
    # irrational value: never exactly representable, keep all digits
    digits = str(t).rjust(decimals + 1, "0")
    return digits if decimals == 0 else f"{digits[:-decimals]}.{digits[-decimals:]}"


def candidate_values_reference(n: int, max_m: int) -> list[tuple[Fraction, str]]:
    omega_vals: set[Fraction] = set()
    for m in range(2, max_m + 1):
        for d in range(d_min(n, m), isqrt(m * m * n - 1) + 1):
            assert d * d < m * m * n  # d/m < sqrt(n)
            omega_vals.add(Fraction(d, m))
    merged = [(v, OMEGA_KIND) for v in omega_vals]
    merged.extend((Fraction(k), FIBER_KIND) for k in range(1, isqrt(n) + 1))
    merged.sort(key=lambda item: (item[0], item[1]))
    return merged


def candidate_values_integer_reference(n: int, max_m: int) -> list[tuple[int, int, str]]:
    """candidate_values_reference as lowest-terms (p, q, kind), with no Fraction.

    Each d/m is reduced by its gcd, so equal values are one pair, and the
    values are ordered on their exact numerators p*(L//q) over
    L = lcm(1..max_m), then on kind.
    """
    scale = lcm(*range(1, max_m + 1))
    omega = set()
    for m in range(2, max_m + 1):
        for d in range(d_min(n, m), isqrt(m * m * n - 1) + 1):
            assert d * d < m * m * n  # d/m < sqrt(n)
            g = gcd(d, m)
            omega.add((d // g, m // g))
    merged = [(p * (scale // q), OMEGA_KIND, p, q) for p, q in omega]
    merged.extend((k * scale, FIBER_KIND, k, 1) for k in range(1, isqrt(n) + 1))
    merged.sort()
    return [(p, q, kind) for _, kind, p, q in merged]


def format_decimal_reference(value: Fraction, decimals: int = 4, trim: bool = True) -> str:
    value = Fraction(value)
    scale = 10**decimals
    num, den = value.numerator * scale, value.denominator
    t = (2 * num + den) // (2 * den) if num >= 0 else -((-2 * num + den) // (2 * den))
    digits = str(abs(t)).rjust(decimals + 1, "0")
    text = ("-" if t < 0 else "") + (
        digits if decimals == 0 else f"{digits[:-decimals]}.{digits[-decimals:]}")
    if trim and Fraction(t, scale) == value and "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def _certificate(n: int, scan_cap: int = DEFAULT_SCAN_CAP):
    cert = certified_min(n, scan_cap)
    return cert.value, cert.argmins, cert.scanned_to, cert.tail_witness


def _scan(n: int, scan_cap: int = DEFAULT_SCAN_CAP):
    """A one-N window of the integer core bounds._certified_scans in _certificate's
    shape, with the witness _tail_cutoff returns for the reduced minimum when certified."""
    [(best_d, best_m, argmins, scanned_to, certified)] = bounds._certified_scans(n, n, scan_cap)
    assert argmins == sorted(set(argmins)) and argmins[0] == best_m
    value = Fraction(best_d, best_m)
    assert type(certified) is bool
    witness = bounds._tail_cutoff(n, value) if certified else None
    return value, frozenset(argmins), scanned_to, witness


@settings(derandomize=True, max_examples=500)
@given(st.integers(min_value=2, max_value=10**40))
def test_lower_bound_small_matches_reference(n):
    assert lower_bound_small(n) == kernel_at(n) == lower_bound_small_reference(n)


def test_lower_bound_small_matches_reference_on_a_range():
    window = kernel_bounds(2, 3000)
    assert [b.n for b in window] == list(range(2, 3001))
    for bound in window:
        n = bound.n
        assert lower_bound_small(n) == bound == kernel_at(n) == \
            lower_bound_small_reference(n)


def test_small_min_matches_reference_near_1e40_and_at_squares():
    # 500-N kernel windows at 10^40 and 10^30 + 7, and windows s^2 - 1 .. s^2 + 1
    windows = [(10**40, 10**40 + 499), (10**30 + 7, 10**30 + 506)]
    windows += [(s * s - 1, s * s + 1) for s in [*range(2, 301), 10**20 + 1]]
    for start, stop in windows:
        window = kernel_bounds(start, stop)
        assert [b.n for b in window] == list(range(start, stop + 1))
        for bound in window:
            assert lower_bound_small(bound.n) == bound == \
                lower_bound_small_reference(bound.n), bound.n


def test_kernel_holds_at_the_ends_of_its_runs():
    # d_min(n, m) steps from d to d + 1 between n = d^2 // k and d^2 // k + 1;
    # every column of a window over those two n, and of a window starting at
    # the second, holds d_min(n, m)*(SMALL_MS_LCM // m)
    for i, m in enumerate(SMALL_MS):
        k = m * m - m + 2
        for d in [*range(1, 400), 10**20, 10**20 + 1, 7 * 10**25 + 3]:
            last = d * d // k
            if last < 1:
                continue
            for start in (last, last + 1):
                column = bounds._small_columns(start, last + 1)[i]
                assert list(column) == [d_min(n, m) * (SMALL_MS_LCM // m)
                                        for n in range(start, last + 2)], (m, d, start)


@pytest.mark.parametrize("start, stop", [(2, 2), (2, 3), (2, 1000), (7, 500), (5, 4), (2, 1),
                                         (2, 0), (3, -5), (10**30, 10**30 + 100),
                                         (10**40, 10**40 + 499)])
def test_each_kernel_column_yields_one_value_per_n(start, stop):
    for column in bounds._small_columns(start, stop):
        assert sum(1 for _ in column) == max(0, stop - start + 1)


def test_the_kernel_is_lazy():
    # the first value of a window reaching 10^30 comes back at once, holding
    # no list whose length grows with the window
    tracemalloc.start()
    try:
        started = time.perf_counter()
        first = [next(column) for column in bounds._small_columns(2, 10**30)]
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == [d_min(2, m) * (SMALL_MS_LCM // m) for m in SMALL_MS]
    assert elapsed < 0.5
    assert peak < 2**20


def test_the_kernel_takes_two_isqrt_per_column_and_no_ceil_sqrt(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return isqrt(x)

    def refused(*args):
        raise AssertionError("the kernel called d_min or ceil_sqrt")

    expected = [lower_bound_small_reference(n) for n in range(2, 5001)]
    monkeypatch.setattr(bounds, "isqrt", counted)
    monkeypatch.setattr(bounds, "d_min", refused)
    monkeypatch.setattr(bounds, "ceil_sqrt", refused)
    assert kernel_bounds(2, 5000) == expected
    assert 0 < len(calls) <= 2 * len(SMALL_MS)


def test_agreement_sweep_takes_d_min_once_per_m_and_no_other_square_root(monkeypatch):
    # the scan side takes d_min the first time it reaches an m (m = 2..5 at
    # N = 2, m = 6..11 at N = 3) and walks every later degree with no square
    # root; the kernel side takes two isqrt per column and no ceil_sqrt: no
    # square root per (N, m) over [2, 10^5]
    d_min_calls, ceil_sqrt_calls, isqrt_calls = [], [], []

    def counted_d_min(n, m):
        d_min_calls.append((n, m))
        return d_min(n, m)

    def counted_ceil_sqrt(x):
        ceil_sqrt_calls.append(x)
        return ceil_sqrt(x)

    def counted_isqrt(x):
        isqrt_calls.append(x)
        return isqrt(x)

    monkeypatch.setattr(bounds, "d_min", counted_d_min)
    monkeypatch.setattr(bounds, "ceil_sqrt", counted_ceil_sqrt)
    monkeypatch.setattr(bounds, "isqrt", counted_isqrt)
    assert verify.agreement_sweep(10**5) == ([], [])
    assert d_min_calls == [(2, m) for m in range(2, 6)] + [(3, m) for m in range(6, 12)]
    assert ceil_sqrt_calls == [n * (m * m - m + 2) for n, m in d_min_calls]
    assert 0 < len(isqrt_calls) <= 2 * len(SMALL_MS)


def test_agreement_sweep_computes_a_stop_threshold_only_where_a_degree_moves(monkeypatch):
    # the scan side rebuilds the state after m, and its threshold, only from the
    # first m whose degree moved or came from d_min: 5,393 times over [2, 10^5]
    called, stop_from = [], bounds._stop_from

    def counted(d, q, j):
        called.append((d, q, j))
        return stop_from(d, q, j)

    monkeypatch.setattr(bounds, "_stop_from", counted)
    assert verify.agreement_sweep(10**5) == ([], [])
    assert 0 < len(called) <= 6000


def test_small_table_matches_reference():
    table = bounds._small_table()
    assert bounds.analytic_threshold(even_only=True).threshold == 8776
    for n in range(2, 8776):
        assert table.get(n, frozenset({4})) == lower_bound_small_reference(n).argmins, n
    assert frozenset({4}) not in table.values()
    assert all(2 <= n <= 8775 for n in table)
    assert len(table) == 1327
    assert len(set(table.values())) == len({id(argmins) for argmins in table.values()}) == 9


def test_small_table_build_peaks_under_150_kib(fresh_small_table):
    # one pass over the kernel's rows holds a row at a time, and sets only
    # for the 1,327 exceptions (about 87 KiB at its peak); a build that holds
    # blocks of the columns, as 1024 rows did at about 277 KiB, exceeds it
    bounds.analytic_threshold(even_only=True)
    tracemalloc.start()
    try:
        table = bounds._small_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 1327
    assert peak < 150 * 1024


@pytest.mark.parametrize("even_only, off_4", [
    (True, {m: c for m, c in verify.EXPECTED_CENSUS.items() if m != 4}),
    (False, {2: 1, 3: 111, 5: 541, 6: 21, 7: 6}),
])
def test_exception_lists_hold_the_census_counts_off_m_4(even_only, off_4):
    # even: the published counts; all integers: test_all_integer_counts's frozen ones
    exceptions = bounds._exceptions(even_only)
    assert {m: len(ns) for m, ns in exceptions.items()} == off_4
    threshold = bounds.analytic_threshold(even_only=even_only).threshold
    step = 2 if even_only else 1
    for m, ns in exceptions.items():
        assert ns == sorted(ns)
        assert all(n < threshold and n % step == 0 for n in ns), m


def test_certified_min_matches_reference():
    for n in range(2, 3001):
        assert _certificate(n) == _scan(n) == certified_min_reference(n)
        # a cap of 8 leaves some n uncertified (n = 3 certifies at m = 11)
        assert _certificate(n, 8) == _scan(n, 8) == certified_min_reference(n, 8)


@pytest.mark.parametrize("n", [10**30 - 1, 10**30, 10**30 + 1, 10**30 + 10**15,
                               2 * 10**30 + 1, 4 * 10**30, (10**15 + 1) ** 2])
def test_certified_min_matches_reference_near_1e30(n):
    assert _certificate(n) == _scan(n) == certified_min_reference(n)
    assert _certificate(n, 8) == _scan(n, 8) == certified_min_reference(n, 8)


@pytest.mark.parametrize("scan_cap", [DEFAULT_SCAN_CAP, 8])
def test_certified_min_matches_reference_near_1e40(scan_cap):
    rng = random.Random(20200817)
    for n in [rng.randint(10**39, 10**40) for _ in range(200)]:
        want = certified_min_reference(n, scan_cap)
        assert _certificate(n, scan_cap) == _scan(n, scan_cap) == want, n


@pytest.mark.parametrize("scan_cap", [DEFAULT_SCAN_CAP, 8])
def test_certified_min_matches_reference_at_and_next_to_squares(scan_cap):
    # n = k^2 takes the linear a == 0 branch at m = 2 (ratio 2k/2 = sqrt(n)),
    # and integer running minima the strict q == 1 branch
    ns = [k * k + e for k in range(1, 301) for e in (-1, 0, 1) if k * k + e >= 2]
    for n in ns + [(10**20 + 1) ** 2]:
        want = certified_min_reference(n, scan_cap)
        assert _certificate(n, scan_cap) == _scan(n, scan_cap) == want, n


#: the ranges the certified_min references run on: a range, near 1e30, near
#: 1e40, and at and next to squares
SCAN_NS = [*range(2, 3001),
           10**30 - 1, 10**30, 10**30 + 1, 10**30 + 10**15, 2 * 10**30 + 1, 4 * 10**30,
           (10**15 + 1) ** 2,
           *(random.Random(20200817).randint(10**39, 10**40) for _ in range(200)),
           *(k * k + e for k in range(1, 301) for e in (-1, 0, 1) if k * k + e >= 2),
           (10**20 + 1) ** 2]


def _assert_scans_match_reference(start: int, stop: int, scan_cap: int) -> None:
    """The window [start, stop] of the core, N by N, against the reference scan."""
    scans = list(bounds._certified_scans(start, stop, scan_cap))
    assert len(scans) == max(0, stop - start + 1), (start, stop, scan_cap)
    for n, (best_d, best_m, argmins, scanned_to, certified) in enumerate(scans, start):
        ref_d, ref_m, ref_argmins, ref_scanned_to, tail = certified_scan_reference(n, scan_cap)
        assert (best_d, best_m, argmins, scanned_to) == (ref_d, ref_m, ref_argmins,
                                                         ref_scanned_to), (n, start, scan_cap)
        assert certified is (tail is not None), (n, start, scan_cap)


@pytest.mark.parametrize("scan_cap", [8, 9, 11, 12, DEFAULT_SCAN_CAP])
def test_scan_core_matches_the_cutoff_per_improvement_reference(scan_cap):
    # one-N windows, each taking every degree from d_min; n = 3 certifies at
    # m = 11, so caps 8, 9 leave it uncertified and 11, 12 do not
    for n in SCAN_NS:
        _assert_scans_match_reference(n, n, scan_cap)
    assert next(bounds._certified_scans(3, 3, 11))[3:] == (11, True)
    assert next(bounds._certified_scans(3, 3, 9))[3:] == (9, False)


#: windows over several N, which walk their degrees: a range; 50 N from 10^30 - 1;
#: across k^2 - 1 .. k^2 + 1 for k up to 300 and across (10^15 + 1)^2; and 200 N
#: from a seeded random N in [10^39, 10^40], the first random N of SCAN_NS
SCAN_WINDOWS = [(2, 3000), (10**30 - 1, 10**30 + 48),
                *((max(2, k * k - 1), k * k + 1) for k in range(1, 301)),
                ((10**15 + 1) ** 2 - 1, (10**15 + 1) ** 2 + 1),
                *((s, s + 199) for s in [random.Random(20200817).randint(10**39, 10**40)])]


@pytest.mark.parametrize("scan_cap", [8, 9, 11, 12, DEFAULT_SCAN_CAP])
def test_scan_windows_match_the_cutoff_per_improvement_reference(scan_cap):
    for start, stop in SCAN_WINDOWS:
        _assert_scans_match_reference(start, stop, scan_cap)


def test_stop_from_is_the_first_n_of_the_stop_test():
    # per running minimum d/q and j = m + 1, the reference holds exactly from
    # T = _stop_from(d, q, j) on: it equals n >= T on [T - 50, T + 50], so it
    # fails at T - 1, where a witness starts (n = ceil(d^2/q^2)), and, strict,
    # at and next to n = p^2 (a = 0) and at the zero discriminant
    # 7n = 8p^2 - 4p + 4 (p = 2 mod 7); d lies on both sides of q*sqrt(n0)
    seen = Counter()
    for q in range(2, 13):
        ds = {d for n0 in (2, 50, 10**6, (10**20 // q) ** 2)
              for r in [isqrt(q * q * n0)] for d in range(r - 3, r + 4)}
        ds |= {q * p for p in (*range(1, 12), 16, 23, 1000, 10**20 // q, 10**20 // q + 1)}
        for j in range(q + 1, q + 13):
            for d in ds:
                t = bounds._stop_from(d, q, j)
                ns = {*range(max(1, t - 50), t + 51), -(-d * d // (q * q))}
                if d % q == 0:
                    p = d // q
                    seven_n = 8 * p * p - 4 * p + 4
                    ns |= {p * p - 1, p * p, p * p + 1}
                    holds = stop_test_reference(p * p, d, q, j)
                    seen["a = 0 holds" if holds else "a = 0 fails"] += 1
                    if seven_n % 7 == 0:
                        ns.add(seven_n // 7)
                        seen["zero discriminant"] += 1
                for n in ns - {0}:
                    assert stop_test_reference(n, d, q, j) == (n >= t), (n, d, q, j, t)
                seen["strict" if d % q == 0 else "non-strict"] += 1
                seen["d near 10^20"] += d > 10**19
    assert all(seen[kind] for kind in ("zero discriminant", "strict", "non-strict",
                                       "a = 0 holds", "a = 0 fails", "d near 10^20")), seen


@pytest.mark.parametrize("scan_cap", [8, 9, 12, DEFAULT_SCAN_CAP])
def test_scan_windows_equal_their_one_n_windows(scan_cap):
    # a window keeps the state after each m and reads it while no degree at or
    # below m moves; a one-N window keeps none, so a stale state would show
    for start, stop in [(2, 20000), *SCAN_WINDOWS]:
        window = list(bounds._certified_scans(start, stop, scan_cap))
        assert window == [next(bounds._certified_scans(n, n, scan_cap))
                          for n in range(start, stop + 1)], (start, stop, scan_cap)


def _count_tail_cutoff(monkeypatch) -> list[tuple[int, Fraction]]:
    """Patch bounds._tail_cutoff to record the arguments of each call."""
    called, cutoff = [], bounds._tail_cutoff

    def counted(n, threshold):
        called.append((n, threshold))
        return cutoff(n, threshold)

    monkeypatch.setattr(bounds, "_tail_cutoff", counted)
    return called


def test_tail_cutoff_runs_once_per_certificate_and_never_in_the_sweep(monkeypatch):
    called = _count_tail_cutoff(monkeypatch)
    assert verify.agreement_sweep(1000) == ([], [])
    assert called == []
    for cap in (8, DEFAULT_SCAN_CAP):
        for n in range(2, 1001):
            called.clear()
            cert = certified_min(n, cap)
            want = [(n, cert.value)] if cert.certified else []
            assert called == want, (n, cap)
    called.clear()
    assert CliRunner().invoke(cli, ["bound", "--n", "3", "--scan-cap", "8"]).exit_code == 1
    assert called == []  # uncertified
    assert CliRunner().invoke(cli, ["bound", "--n", "3"]).exit_code == 0
    assert called == [(3, Fraction(5, 3))]


def test_certified_min_builds_one_witness(monkeypatch):
    ns, caps = range(2, 3001), (DEFAULT_SCAN_CAP, 8)
    expected = {(n, cap): certified_min_reference(n, cap) for n in ns for cap in caps}
    built = []

    def counted_witness(*fields):
        built.append(fields)
        return TailWitness(*fields)

    monkeypatch.setattr(bounds, "TailWitness", counted_witness)
    for (n, cap), want in expected.items():
        before = len(built)
        assert _certificate(n, cap) == want, (n, cap)
        assert len(built) - before == (want[3] is not None), (n, cap)
    uncertified = sum(want[3] is None for want in expected.values())
    assert 0 < uncertified and len(built) == len(expected) - uncertified


def test_dominance_check_matches_reference():
    for n in range(2, 2001):
        assert comparison.dominance_check(n) == dominance_check_reference(n)


@pytest.mark.parametrize("name, broken", [
    ("abelian_7_8", (Fraction(1, 2), 14)),  # above g(n,2)
    ("hr_093", (Fraction(94, 100), 1)),  # above sqrt(14N)/4
    ("ssz_7_9", (Fraction(1, 3), 8)),  # above 0.93 sqrt(N)
])
def test_dominance_check_matches_reference_on_broken_chains(monkeypatch, name, broken):
    monkeypatch.setitem(comparison.PRIOR_BOUNDS, name, broken)
    assert comparison.prior_bound(name, 5) == RadicalBound(broken[0], broken[1] * 5)
    for n in range(2, 200):
        assert comparison.dominance_check(n) is dominance_check_reference(n) is False
    with pytest.raises(AssertionError, match="dominance chain violated"):
        comparison.comparison_table([5])


def test_dominance_check_fails_when_the_ceiling_link_breaks(monkeypatch):
    # one below the ceiling, d_min(n,m)^2 < n*(2+m(m-1)) for every m; the
    # reference reads bounds.d_min, so it still holds the chain
    monkeypatch.setattr(comparison, "d_min", lambda n, m: bounds.d_min(n, m) - 1)
    for n in range(2, 200):
        assert comparison.dominance_check(n) is False
        assert dominance_check_reference(n) is True
    with pytest.raises(AssertionError, match="^dominance chain violated at n=5$"):
        comparison.comparison_table([5])


def analytic_per_m_reference(step: int) -> dict[int, int]:
    """First n of the parity after the last failure of 4*sqrt((m^2-m+2)n) >=
    m*sqrt(14n) + m in [2, 20000]; the truth set is a final segment."""
    per_m = {}
    for m in (2, 3, 5, 6, 7):
        fails = [n for n in range(2, 20_001, step)
                 if not sqrt_linear_cmp(4, m * (m - 1) + 2, m, 14, m, n)]
        per_m[m] = fails[-1] + step if fails else 2
    return per_m


def ceiling_threshold_reference(even_only: bool):
    step = 2 if even_only else 1
    per_m = analytic_per_m_reference(step)
    analytic = max(per_m.values())
    last_failure = None
    for n in range(2, analytic, step):
        if 4 not in lower_bound_small(n).argmins:
            last_failure = n
    threshold = 2 if last_failure is None else last_failure + step
    return threshold, last_failure, analytic - 1, per_m


@pytest.mark.parametrize("even_only", [True, False])
def test_ceiling_threshold_matches_reference(even_only):
    rep = ceiling_threshold(even_only=even_only)
    assert rep.analytic.even_only is even_only
    assert (rep.threshold, rep.last_failure, rep.scanned_to, rep.analytic.per_m) == \
        ceiling_threshold_reference(even_only)


def census_reference(start: int, stop: int, even_only: bool):
    """The brute census: lower_bound_small at every n of the parity in [start, stop]."""
    ns = range(start + start % 2, stop + 1, 2) if even_only else range(start, stop + 1)
    return map(lower_bound_small, ns)


#: ranges that start and end on both sides of 8775/8776, odd starts, pure
#: tail ranges, and single points at the thresholds
CENSUS_RANGES = [(2, 10_000), (5000, 8775), (5000, 8776), (5000, 8777), (8000, 9000),
                 (8775, 9500), (8776, 9500), (8777, 9500), (3, 9001), (4001, 8775),
                 (8771, 8781), (8773, 8779), (9001, 12_000), (10**6 + 1, 10**6 + 500)]
CENSUS_RANGES += [(n, n) for n in range(8774, 8779)]
#: ranges that start or stop on the first or last n, in either parity, whose
#: smallest argmin is m != 4, where the census bisects: m = 2 at 4; m = 3 at
#: 2, 1012 and 1081; m = 5 at 13, 20, 4980 and 5285; m = 6 at 9, 30, 294 and
#: 413; m = 7 at 5, 42 and 93; and the largest table key, 8601
CENSUS_RANGES += [(2, 2), (4, 4), (5, 9), (9, 13), (13, 20), (20, 30), (30, 42), (42, 93),
                  (93, 294), (294, 413), (1012, 1081), (1081, 4980), (4980, 5285),
                  (5285, 5286), (8601, 8601)]


@pytest.mark.parametrize("even_only", [True, False])
@pytest.mark.parametrize("start, stop", CENSUS_RANGES)
def test_census_matches_brute_reference(start, stop, even_only):
    report = census(start, stop, even_only=even_only)
    want = list(census_reference(start, stop, even_only))
    assert list(report.listing()) == want
    assert report.n_examined == len(want)
    assert report.counts == dict(sorted(Counter(min(b.argmins) for b in want).items()))


def test_even_census_counts_match_brute_reference_to_1e6():
    report = census(2, 10**6)
    want = Counter(min(b.argmins) for b in census_reference(2, 10**6, True))
    assert report.counts == dict(sorted(want.items()))
    assert report.n_examined == sum(want.values())


@pytest.mark.parametrize("even_only", [True, False])
@pytest.mark.parametrize("start, stop", [(7001, 10_500), (8000, 8999), (8775, 12_000)])
def test_census_splits_across_the_threshold_add_up(start, stop, even_only):
    whole = census(start, stop, even_only=even_only)
    for parts in (1, 2, 8):
        edges = [start + (i * (stop - start)) // parts for i in range(parts)] + [stop + 1]
        pieces = [census(edges[i], edges[i + 1] - 1, even_only=even_only)
                  for i in range(parts)]
        assert sum(piece.n_examined for piece in pieces) == whole.n_examined
        assert sum((Counter(piece.counts) for piece in pieces), Counter()) == \
            Counter(whole.counts)
        assert [b for piece in pieces for b in piece.listing()] == list(whole.listing())


def _count_kernel_windows(monkeypatch) -> list[tuple[int, int]]:
    """Patch bounds._small_columns to record each window (start, stop) it evaluates, in order."""
    called, kernel = [], bounds._small_columns

    def counted(start, stop):
        called.append((start, stop))
        return kernel(start, stop)

    monkeypatch.setattr(bounds, "_small_columns", counted)
    return called


@pytest.mark.parametrize("even_only", [True, False])
def test_census_never_brute_forces_past_its_rechecked_analytic_threshold(
        monkeypatch, fresh_small_table, even_only):
    called = _count_kernel_windows(monkeypatch)
    threshold = census(2, 2, even_only=even_only).analytic.threshold
    # one table for both parities, one window over each n below the even
    # analytic threshold; so the all-integer census evaluates its own
    # threshold 8775, and that is its only evaluation at or past it
    assert called == [(2, bounds.analytic_threshold(even_only=True).threshold - 1)] == \
        [(2, 8775)]
    assert [n for n in range(2, called[0][1] + 1) if n >= threshold] == \
        ([] if even_only else [8775])
    for start, stop in CENSUS_RANGES + [(2, 10**30), (10**30, 10**30 + 10**6)]:
        called.clear()  # the table is built once; later counts and listings call nothing
        report = census(start, stop, even_only=even_only)
        analytic = report.analytic
        list(takewhile(lambda b: b.n < analytic.threshold, report.listing()))
        assert called == [], (start, stop)
    assert analytic.even_only is even_only
    assert analytic.threshold == max(analytic.per_m.values())
    for m, cert in analytic.certificates.items():
        printed = {"threshold": cert.threshold, "poly": list(cert.poly)}
        even_first = analytic.per_m[m] if even_only else None
        assert check_sqrt_linear((4, m * m - m + 2, m, 14, m), printed, even_first) == [], m
        assert even_only or analytic.per_m[m] == cert.threshold


def test_analytic_thresholds_are_derived_once_per_parity(monkeypatch, fresh_small_table):
    # the first census or ceiling_threshold of each parity derives the five
    # per-m certificates; every later one, of either kind, derives none
    called, derive = [], bounds.sqrt_linear_threshold

    def counted(*params):
        called.append(params)
        return derive(*params)

    monkeypatch.setattr(bounds, "sqrt_linear_threshold", counted)
    per_m = [bounds.SQRT_LINEAR[m] for m in (2, 3, 5, 6, 7)]
    census(2, 10**6, even_only=True)
    ceiling_threshold(even_only=True)
    assert called == per_m
    ceiling_threshold(even_only=False)
    census(2, 10**6, even_only=False)
    assert called == per_m * 2
    called.clear()
    for even_only in (True, False):
        report = census(3, 10**9, even_only=even_only)
        list(takewhile(lambda b: b.n < report.analytic.threshold, report.listing()))
        ceiling_threshold(even_only=even_only)
    assert called == []


def test_verify_evaluates_each_n_below_the_threshold_once(monkeypatch, fresh_small_table):
    # the shared table's one window over [2, 8775], then the agreement
    # sweep's one window over [2, agreement_to] (agreement_to = 2); a second
    # run in the process makes only the sweep's window
    called = _count_kernel_windows(monkeypatch)
    verify.run(2, 8)
    assert called == [(2, 8775), (2, 2)]
    called.clear()
    verify.run(2, 8)
    assert called == [(2, 2)]


def test_agreement_sweep_compares_the_kernel_and_reads_no_table(monkeypatch):
    # a kernel off by 1/420 at N = 3 must show as a disagreement: neither
    # certified_min nor a table may stand in for the kernel
    kernel = bounds._small_columns

    def off_at_3(start, stop):
        return tuple(map(add, column, (n == 3 for n in count(start)))
                     for column in kernel(start, stop))

    def no_table():
        raise AssertionError("agreement_sweep read the shared table")

    monkeypatch.setattr(bounds, "_small_columns", off_at_3)
    monkeypatch.setattr(bounds, "_small_table", no_table)
    assert verify.agreement_sweep(50) == ([3], [])


def test_agreement_sweep_compares_the_scan_core(monkeypatch):
    # a core off by one degree at N = 3, or uncertified at N = 5, must show:
    # the sweep reads the core at certified_min's default cap
    core, caps = bounds._certified_scans, set()

    def mutated(start, stop, scan_cap):
        caps.add(scan_cap)
        for n, (best_d, best_m, argmins, scanned_to, certified) in enumerate(
                core(start, stop, scan_cap), start):
            yield best_d + (n == 3), best_m, argmins, scanned_to, False if n == 5 else certified

    monkeypatch.setattr(bounds, "_certified_scans", mutated)
    assert verify.agreement_sweep(50) == ([3], [5])
    assert caps == {DEFAULT_SCAN_CAP}


def test_agreement_sweep_builds_no_certificate(monkeypatch):
    def refuse(*_):
        raise AssertionError("agreement_sweep built a certificate object")

    for name in ("certified_min", "BoundCertificate", "TailWitness", "Fraction"):
        monkeypatch.setattr(bounds, name, refuse)
    assert verify.agreement_sweep(50) == ([], [])


def test_box_minimum_without_ceil_sqrt():
    # smallest d with d^2 >= N*(m^2-m+2), walked upward from its value at
    # N - 1 (it never decreases in N); the box is m in [2, 40]
    ms = range(2, 41)
    d = dict.fromkeys(ms, 1)
    for n in range(2, 501):
        for m in ms:
            while d[m] * d[m] < n * (m * m - m + 2):
                d[m] += 1
        ratios = {m: Fraction(d[m], m) for m in ms}
        box = min(ratios.values())
        box_argmins = {m for m, r in ratios.items() if r == box}
        cert, small = certified_min(n), lower_bound_small(n)
        assert cert.value == small.value == box
        assert cert.argmins <= box_argmins
        assert small.argmins == box_argmins & set(SMALL_MS)
        assert cert.scanned_to <= 40


def test_m_max_matches_bisection_reference():
    for n in range(1, 401):
        for d in range(1, 401):
            assert m_max(n, d) == m_max_reference(n, d), (n, d)


def test_m_max_matches_bisection_reference_at_boundaries():
    # d^2 = n*(m^2-m+2) exactly, or just either side of it
    for n in range(1, 200):
        for m in range(2, 200):
            s = isqrt(n * (m * m - m + 2))
            for d in (s - 1, s, s + 1):
                assert m_max(n, d) == m_max_reference(n, d), (n, d)


def test_m_max_matches_bisection_reference_below_1e40():
    rng = random.Random(20200817)
    for _ in range(10_000):
        n, d = rng.randint(1, 10**40), rng.randint(1, 10**22)
        assert m_max(n, d) == m_max_reference(n, d), (n, d)
    for _ in range(10_000):
        n, m = rng.randint(1, 10**40), rng.randint(2, 10**6)
        d = isqrt(n * (m * m - m + 2)) + rng.randint(0, 1)
        assert m_max(n, d) == m_max_reference(n, d), (n, d)


def test_tail_cutoff_matches_search_reference():
    # the running-minimum thresholds d/m near d_min(n, m)/m, and integers
    for n in range(2, 401):
        thresholds = {Fraction(d_min(n, m) + k, m) for m in range(2, 30) for k in range(-2, 3)}
        thresholds.update(Fraction(p) for p in range(1, 30))
        for threshold in thresholds:
            assert bounds._tail_cutoff(n, threshold) == tail_cutoff_reference(n, threshold), \
                (n, threshold)


def test_tail_cutoff_matches_search_reference_below_1e40():
    rng = random.Random(20200817)
    for _ in range(2_000):
        n, m = rng.randint(2, 10**40), rng.randint(2, 40)
        root = isqrt(n)
        for threshold in (Fraction(d_min(n, m) + rng.randint(-2, 2), m),
                          Fraction(root), Fraction(root - 1)):
            assert bounds._tail_cutoff(n, threshold) == tail_cutoff_reference(n, threshold), \
                (n, threshold)


def test_check_f7_lists_every_violation_by_a_brute_scan():
    # the witness check_f7 returns is the search reference's at f(n,7), and
    # its scan ends just below that cutoff; the brute scan runs far past it
    certified, deepest = 0, 0
    for n in range(2, 1071):
        report = check_f7(n, 10**5)
        if report.status == "uncertified":
            continue
        certified += 1
        d7 = d_min(n, 7)
        reference = tail_cutoff_reference(n, Fraction(d7, 7))
        assert report.tail_witness == reference, n
        scanned_to = max(7, report.tail_witness.cutoff - 1)
        deepest = max(deepest, scanned_to)
        brute = [m for m in range(8, 4 * scanned_to + 51) if 7 * d_min(n, m) < d7 * m]
        assert report.violations == tuple((m, Fraction(d_min(n, m), m)) for m in brute), n
        assert report.status == ("counterexamples_complete" if brute else "holds_scanned"), n
        assert reference.cutoff <= scanned_to + 1, n
    assert (certified, deepest) == (1068, 56)


def test_sqrt_linear_threshold_matches_search_reference():
    grid = [(p, a, q, b, c) for p in range(1, 7) for a in range(1, 21) for q in range(1, 7)
            for b in range(1, 21, 3) for c in (1, 2, 3, 5)]
    rng = random.Random(20200817)
    grid += [(rng.randint(1, 50), rng.randint(1, 10**4), rng.randint(1, 50),
              rng.randint(1, 10**4), rng.randint(1, 100)) for _ in range(300)]
    grid += bounds.SQRT_LINEAR.values()
    for params in grid:
        assert sqrt_linear_threshold(*params) == sqrt_linear_threshold_reference(*params), params


#: every p/q with p < 50 and q < 30, and radicands 0..49, k^2 for 8 <= k < 120
#: and 4k^2 for k < 40: small, square and even-square values, 0 included
RADICAL_COEFS = sorted({Fraction(p, q) for p in range(50) for q in range(1, 30)})
RADICANDS = sorted(set(range(50)) | {k * k for k in range(8, 120)}
                   | {4 * k * k for k in range(40)})


@pytest.mark.parametrize("decimals", [0, 1, 2, 4, 7])
def test_radical_decimal_matches_two_path_reference(decimals):
    for coef in RADICAL_COEFS:
        for radicand in RADICANDS:
            rb = RadicalBound(coef, radicand)
            for trim in (True, False):
                assert rb.decimal(decimals, trim) == radical_decimal_reference(
                    rb, decimals, trim), (coef, radicand, trim)


def _reference_triples(n: int, max_m: int) -> list[tuple[int, int, str]]:
    """candidate_values_reference(n, max_m) as lowest-terms (p, q, kind), the package's shape."""
    return [(v.numerator, v.denominator, kind) for v, kind in candidate_values_reference(n, max_m)]


@pytest.mark.parametrize("max_m", range(2, 13))
def test_candidate_values_match_reference_on_a_range(max_m):
    for n in range(2, 301):
        assert candidate_values_integer_reference(n, max_m) == _reference_triples(n, max_m), n
    for n in range(2, 3001):
        values = candidate_values(n, max_m)
        assert all(gcd(p, q) == 1 and 1 <= q <= max_m for p, q, _ in values), n
        assert values == candidate_values_integer_reference(n, max_m), n


def test_candidate_values_match_reference_on_random_n_and_near_squares():
    rng = random.Random(20200817)
    ns = [rng.randint(2, 10**5) for _ in range(500)]
    ns += [n for k in range(2, 300) for n in (k * k - 1, k * k, k * k + 1)]
    for n in ns:
        expected = _reference_triples(n, 7)
        assert candidate_values(n, 7) == expected, n
        assert candidate_values_integer_reference(n, 7) == expected, n


@pytest.mark.parametrize("n,max_m", [(2, 2000), (3, 5000)])
def test_candidate_values_match_reference_at_a_large_key_scale(n, max_m):
    expected = _reference_triples(n, max_m)
    assert candidate_values(n, max_m) == expected
    assert candidate_values_integer_reference(n, max_m) == expected


def test_candidate_values_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(bounds, "Fraction", refuse)
    values = candidate_values(99991, 7)
    assert len(values) > 600
    assert all(type(p) is int and type(q) is int for p, q, _ in values)


#: signed p/q with |p| < 60 and q < 40 or a power of ten times 1, 2, 3 or 7,
#: halves at every scale (the rounding ties) and ints
DECIMAL_VALUES = sorted(
    {Fraction(p, q) for p in range(-60, 60) for q in range(1, 40)}
    | {Fraction(p, c * 10**e) for p in range(-30, 30) for c in (1, 2, 3, 7) for e in range(9)}
    | {Fraction(2 * p + 1, 2 * 10**e) for p in range(-20, 20) for e in range(13)})
DECIMAL_INTS = [0, 1, -1, 7, -12, 10**6, -(10**20) - 3]


@pytest.mark.parametrize("decimals", range(13))
def test_decimal_core_matches_reference(decimals):
    for trim in (True, False):
        for value in DECIMAL_VALUES:
            p, q = value.numerator, value.denominator
            assert _decimal(p, q, decimals, trim) == format_decimal_reference(
                Fraction(p, q), decimals, trim), (value, trim)


@pytest.mark.parametrize("decimals", range(13))
def test_format_decimal_matches_reference(decimals):
    for trim in (True, False):
        for value in DECIMAL_VALUES:
            assert format_decimal(value, decimals, trim) == format_decimal_reference(
                value, decimals, trim), (value, trim)
        for value in DECIMAL_INTS:
            assert format_decimal(value, decimals, trim) == format_decimal_reference(
                value, decimals, trim), (value, trim)
