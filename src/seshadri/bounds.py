"""Certified minimum-ratio machinery over the admissible (degree, multiplicity) set.

For an ample line bundle with self-intersection N >= 2 on a surface where
irreducible curves with C^2 > 0 satisfy C^2 >= m(m-1) + 2, a submaximal
Seshadri constant is a ratio d/m with

    Omega(N) = { (d, m) : d^2 >= N*(2 + m*(m-1)), m >= 2 }.

This module computes, entirely in exact integer arithmetic:

  * membership in Omega, and its extremal coordinates d_min(N, m) and
    m_max(N, d);
  * the finite minimum  min{ d_min(N,m)/m : m in 2..7 }  together with its
    attaining multiplicities: per N through d_min (lower_bound_small), and
    over a window through one kernel (_small_columns: per m a lazy column of
    numerators over 420, read run by run with no isqrt per N); census, its
    listing and ceiling_threshold read one sparse table of the n below the
    analytic threshold whose argmins are not {4}, built once per process in
    one pass over the kernel's rows;
  * the same minimum certified over ALL m >= 2, via a quadratic
    tail-domination certificate that replaces the infinite case check by
    a finite scan: an integer core over a window of n (_certified_scans:
    per n the running minimum as an unreduced pair, the argmins as a list,
    and whether its witness holds from the next m on, which for a fixed
    minimum and m holds exactly from a first n on (_stop_from); each
    degree from d_min the first time the window reaches its m, and walked
    up from its last value after that, with no square root; per m the
    state after m, rebuilt only from the first m whose degree moved),
    which verify's agreement sweep reads over [2, stop], and certified_min
    over one n, computing the cutoff once and building the certificate
    objects;
  * the per-multiplicity comparison f(N,m) >= f(N,7) for m >= 8, with a
    complete, certified list of violations where they exist;
  * one integer core for every tail witness (_tail_cutoff, which returns
    the TailWitness it proves, or None), and both reports carry the witness
    it returns;
  * the exact thresholds from which the minimum settles at m = 4: the
    analytic one, read once per parity off the table SQRT_LINEAR of analytic
    steps, and the sharp ceiling-aware one, with integer-polynomial certificates;
  * a census classifying each N by the smallest minimizing multiplicity;
  * the merged list of candidate values, the ratios below sqrt(N) and the
    integers up to it, as lowest-terms (p, q).

Self-intersections of ample line bundles on abelian and on bielliptic
surfaces are even (L^2 = 2*d1*d2, resp. L^2 = 2*a*b), so the census and
threshold sweeps restrict to even N by default; every operation also
supports the unrestricted integer range.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import chain, repeat, tee
from math import gcd, isqrt, lcm
from operator import floordiv, sub
from typing import NamedTuple

from .exactmath import ceil_sqrt, sqrt_linear_cmp

SMALL_MS = (2, 3, 4, 5, 6, 7)

# 420: d/m for m in SMALL_MS is the integer d*(420//m) over 420
SMALL_MS_LCM = lcm(*SMALL_MS)

DEFAULT_SCAN_CAP = 10**6
MIN_SCAN_CAP = 8

#: (p, a, q, b, c) of each p*sqrt(a*N) >= q*sqrt(b*N) + c, with g(N,m) = sqrt(N*(m^2-m+2))/m:
#: "f7" is g(N,8) >= g(N,7) + 1/7 (check_f7), m is g(N,m) >= g(N,4) + 1/4 (analytic_threshold)
SQRT_LINEAR = {"f7": (7, 58, 8, 44, 8),
               **{m: (4, m * m - m + 2, m, 14, m) for m in (2, 3, 5, 6, 7)}}


def _require(what: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")


def omega_contains(n: int, d: int, m: int) -> bool:
    """Whether (d, m) lies in Omega(n): d^2 >= n*(2 + m*(m-1))."""
    _require("multiplicity", m, 2)
    _require("degree", d, 1)
    _require("self-intersection", n, 1)
    return d * d >= n * (m * (m - 1) + 2)


def d_min(n: int, m: int) -> int:
    """Smallest degree d with (d, m) in Omega(n): ceil(sqrt(n*(2+m(m-1))))."""
    if m < 2 or n < 1:  # one test per call; _require words the error, m first
        _require("multiplicity", m, 2)
        _require("self-intersection", n, 1)
    return ceil_sqrt(n * (m * (m - 1) + 2))


def m_max(n: int, d: int) -> int | None:
    """Largest m >= 2 with (d, m) in Omega(n), or None if there is none.

    Exact closed form: n*(m^2 - m + 2) <= d^2 is equivalent to
    (2m - 1)^2 <= (4d^2 - 7n)/n, and floor(sqrt(x)) = isqrt(floor(x)) for
    x >= 0, so the largest such m is (1 + isqrt((4d^2 - 7n) // n)) // 2.
    """
    _require("degree", d, 1)
    _require("self-intersection", n, 1)
    if 4 * d * d < 7 * n:
        return None
    m = (1 + isqrt((4 * d * d - 7 * n) // n)) // 2
    return m if m >= 2 else None


class SmallBound(NamedTuple):
    """min{ d_min(n,m)/m : m in 2..7 } and the multiplicities attaining it."""

    n: int
    value: Fraction
    argmins: frozenset[int]


def _small_columns(start: int, stop: int) -> tuple[Iterator[int], ...]:
    """Per m in SMALL_MS, d_min(n, m)*(SMALL_MS_LCM // m) for n = start..stop, lazily.

    d_min(n, m) is the ceiling square root of n*k, k = m^2 - m + 2, so it is d exactly
    when (d-1)^2 // k < n <= d^2 // k: a column repeats d over that run, with two isqrt
    per column and one division per d, none per n, holding only the current run.
    start >= 1 is the caller's to ensure; stop < start gives empty columns.  The
    six-term numerator over SMALL_MS_LCM is map(min, *columns).
    """
    columns = []
    for m in SMALL_MS:
        k, scale = m * m - m + 2, SMALL_MS_LCM // m
        first, last = isqrt(start * k - 1) + 1, isqrt(max(stop * k - 1, 0)) + 1
        ends, starts = tee(map(floordiv, map(pow, range(first, last), repeat(2)), repeat(k)))
        runs = map(sub, chain(ends, (stop,)), chain((start - 1,), starts))
        columns.append(chain.from_iterable(
            map(repeat, range(first * scale, (last + 1) * scale, scale), runs)))
    return tuple(columns)


def lower_bound_small(n: int) -> SmallBound:
    """The six-term minimum over m in 2..7, as an exact rational.

    The ratios are compared as numerators over the common denominator
    SMALL_MS_LCM; only the returned minimum becomes a Fraction.  This is
    the per-N definition, through d_min; the census and verify's agreement
    sweep use the kernel _small_columns, which the tests hold equal to it.
    """
    _require("self-intersection", n, 2)
    scaled = {m: d_min(n, m) * (SMALL_MS_LCM // m) for m in SMALL_MS}
    best = min(scaled.values())
    argmins = frozenset(m for m, v in scaled.items() if v == best)
    return SmallBound(n, Fraction(best, SMALL_MS_LCM), argmins)


#: the argmins of every n >= 2 that _small_table leaves out
ONLY_4 = frozenset({4})


@cache
def _small_table() -> dict[int, frozenset[int]]:
    """The kernel's argmins of the n below the even analytic threshold, once per process.

    Only the n whose argmins are not {4} are keys, 1,327 of the n in
    [2, 8775]; every other n >= 2 has the argmins ONLY_4, below the
    threshold by the kernel and from it on by the threshold's certificates.
    Keys ascend, and equal sets are one object.  One pass over the rows of
    one kernel window: a row whose m = 4 entry is its only minimum costs one
    comparison, and only the other rows build a set.  The even threshold
    (8776) is the larger of the two parities, so both read it.
    """
    table: dict[int, frozenset[int]] = {}
    interned: dict[frozenset[int], frozenset[int]] = {}
    rows = zip(*_small_columns(2, analytic_threshold(even_only=True).threshold - 1))
    for n, row in enumerate(rows, 2):
        best = min(row)
        if row[2] != best or row.count(best) > 1:  # row[2] is the m = 4 entry
            argmins = frozenset(m for m, v in zip(SMALL_MS, row) if v == best)
            table[n] = interned.setdefault(argmins, argmins)
    return table


# ---------------------------------------------------------------------------
# tail-domination certificates
# ---------------------------------------------------------------------------


class TailWitness(NamedTuple):
    """Witness that d_min(n,m)/m >= threshold for every m >= cutoff.

    _tail_cutoff is the only code that builds one.  poly holds (A, B, C)
    with the guarantee that A*m^2 + B*m + C > 0 (strict=True) resp. >= 0
    (strict=False) for all m >= cutoff, where

      strict (threshold = p with q = 1):
          A, B, C = n - p^2, 2p - n, 2n - 1
          positivity gives n*(m^2-m+2) > (p*m - 1)^2, so the integer
          ceil(sqrt(n*(m^2-m+2))) is >= p*m;

      non-strict (q >= 2):
          A, B, C = n*q^2 - p^2, -n*q^2, 2*n*q^2
          non-negativity gives q^2*n*(m^2-m+2) >= p^2*m^2, i.e. already
          the un-ceiled bound sqrt(n*(m^2-m+2))/m >= p/q.

    Either form implies the weaker published shape
    (n*q^2 - p^2)*m^2 + (2pq - n*q^2)*m + q^2*(2n - 1) > 0.
    """

    threshold: Fraction
    cutoff: int
    poly: tuple[int, int, int]
    strict: bool


def _tail_cutoff(n: int, threshold: Fraction) -> TailWitness | None:
    """The TailWitness that d_min(n,m)/m >= threshold from its cutoff on, or None.

    threshold = p/q >= 0 is a Fraction, so in lowest terms; the arithmetic is
    all integer.  The cutoff is the first m >= max(2, ceil(vertex)) at which
    poly holds; past the vertex -B/(2A) the upward parabola does not
    decrease.  poly may hold below the cutoff: at n = 249, threshold 15 the
    cutoff is 5, although 24m^2 - 219m + 497 > 0 for all m >= 2.  None means
    that no quadratic certificate exists, which happens exactly when
    threshold > sqrt(n), or when threshold = sqrt(n) >= 3.
    """
    p, q = threshold.numerator, threshold.denominator
    nq2 = n * q * q
    if p * p > nq2:
        return None  # threshold above sqrt(n): the parabola opens downward
    if q == 1:
        a, b, c = n - p * p, 2 * p - n, 2 * n - 1
        strict = True
    else:
        # equality with sqrt(n) is impossible for q >= 2, so a > 0 here
        a, b, c = nq2 - p * p, -nq2, 2 * nq2
        strict = False

    poly = (a, b, c)
    if a == 0:
        # n = p^2: linear with c = 2n - 1 > 0, so it holds from m = 2 iff b >= 0
        return TailWitness(threshold, 2, poly, strict) if b >= 0 else None
    disc = b * b - 4 * a * c
    if disc < 0 or (disc == 0 and not strict):
        return TailWitness(threshold, 2, poly, strict)
    # floor((-b + isqrt(disc)) / 2a) is the floor of the larger root r; poly
    # fails on [ceil(vertex), r) and holds past r
    m = max(2, -(b // (2 * a)), (-b + isqrt(disc)) // (2 * a))
    m += (a * m + b) * m + c < strict  # poly holds at m iff poly(m) >= strict
    return TailWitness(threshold, m, poly, strict)


class BoundCertificate(NamedTuple):
    """Result of a certified minimum of d_min(n,m)/m over all m >= 2.

    value is the minimum over the scanned range [2, scanned_to]; when
    tail_witness is present, every m >= 2 satisfies d_min(n,m)/m >= value
    (scanned range checked explicitly, tail by the witness polynomial,
    cutoff <= scanned_to + 1).  argmins are the scanned minimizers.
    tail_witness is _tail_cutoff's record at threshold value, and None
    exactly when the result is uncertified.
    """

    value: Fraction
    argmins: frozenset[int]
    scanned_to: int
    tail_witness: TailWitness | None

    @property
    def certified(self) -> bool:
        return self.tail_witness is not None


def _stop_from(d: int, q: int, j: int) -> int:
    """The first n >= 1 from which _certified_scans's stop test at m = j - 1 holds
    for the running minimum d/q; _certified_scans has the derivation."""
    if d % q:  # non-strict: the vertex and poly(j) conditions; a witness follows
        dd, qq = d * d, q * q
        return max(-(-2 * j * dd // (qq * (2 * j - 1))),
                   -(-j * j * dd // (qq * (j * j - j + 2))))
    p = d // q  # strict: the witness, then the discriminant or (vertex and poly(j))
    vertex = -((2 * p - 2 * j * p * p) // (2 * j - 1))
    poly = (p * j - 1) ** 2 // (j * j - j + 2) + 1
    return max(p * p, min((8 * p * p - 4 * p + 4) // 7 + 1, max(vertex, poly)))


def _certified_scans(start: int, stop: int,
                     scan_cap: int) -> Iterator[tuple[int, int, list[int], int, bool]]:
    """certified_min's scan in integers, per n = start..stop: (best_d, best_m,
    argmins, scanned_to, certified).

    The running minimum best_d/best_m is compared with each d_min(n,m)/m
    by cross-multiplication; it starts at 1/0, which that comparison
    places above every ratio, and is yielded unreduced (best_m is the
    first argmin).  argmins lists the scanned minimizers in ascending
    order; the list may be shared between the tuples of a window, so it is
    the caller's to copy, not to change.  certified says that the witness
    of the minimum holds from scanned_to + 1 on; it is False when none
    does by scan_cap.  start >= 2 and scan_cap >= MIN_SCAN_CAP are the
    caller's to ensure.

    The degrees d_min(n, m) come from d_min the first time the window
    reaches an m, so a one-n window calls d_min for every m it scans.
    After that the last degree found for m is walked up while d*d < n*k,
    k = m^2 - m + 2, with no square root: d_min(n, m) does not decrease in
    n and the window ascends, so the walk starts at or below d_min(n, m).
    Over the window it takes about sqrt(k)*(sqrt(stop) - sqrt(start))
    steps per m, on average fewer than m/2 per n.

    The witness of a minimum d/q at n is the polynomial (a, b, c) of
    _tail_cutoff scaled by q^2/gcd(d, q)^2, which has the sign, the vertex
    and the roots of the reduced one, and whose integer values are
    positive exactly where the reduced one's are.  There is none when
    d^2 > n*q^2.  When q divides d it is the strict form at p = d/q,
    q^2*(n - p^2, 2p - n, 2n - 1), which holds from m = 2 on when its
    discriminant is negative; otherwise it is the non-strict form
    (n*q^2 - d^2, -n*q^2, 2*n*q^2).  The scan stops at m, with j = m + 1,
    iff a witness exists and either (strict) its discriminant is negative,
    or 2*a*j + b >= 0 and poly(j) holds (> 0 strict, >= 0 non-strict).
    With a > 0 that is exactly _tail_cutoff(...).cutoff <= m + 1: j >= 3
    lies past the vertex -b/(2a) iff 2*a*j + b >= 0, and poly does not
    decrease past it; a non-strict discriminant <= 0 (cutoff 2) puts the
    vertex at most 4, while j >= 4, since d_min(n, 2)^2 >= 4n puts every
    non-strict minimum at q >= 3.  certified_min's assert checks this at
    every certificate it builds.

    With d, q and j fixed, each condition is an inequality linear in n
    with a positive coefficient of n, so it holds exactly from a first n
    on, and so does any and/or of them; _stop_from(d, q, j) is the first n
    of the whole test:
      * non-strict: 2*a*j + b >= 0 is n*q^2*(2j - 1) >= 2j*d^2 (vertex),
        and poly(j) >= 0 is n*q^2*(j^2 - j + 2) >= j^2*d^2 (poly); each
        implies the witness n*q^2 >= d^2, as 2j > 2j - 1 and
        j^2 > j^2 - j + 2 for j >= 3;
      * strict, divided by q^2: the witness is n >= p^2; 2*a*j + b >= 0 is
        n*(2j - 1) >= 2j*p^2 - 2p (vertex); poly(j) > 0 is
        n*(j^2 - j + 2) > (p*j - 1)^2 (poly); the discriminant
        n*(8p^2 - 4p + 4 - 7n) is negative iff 7n > 8p^2 - 4p + 4 (disc).
    So the first n is max(vertex, poly) non-strict and
    max(p^2, min(disc, max(vertex, poly))) strict, each term the first n
    of its condition.

    Per m the scan keeps the state after m, (best_d, best_m, argmins,
    threshold), which depends on the degrees at 2..m alone.  At each n the
    scan is fresh from the first m whose degree the walk moved or d_min
    gave; there it rebuilds the state from the one after m - 1, at every
    other m it reads the kept one, and it stops at the first m whose
    threshold n has reached.  A kept state stays valid while no degree at
    or below m moves.  By induction on n, every m up to where the last n
    stopped holds its current degree and state, so the next n reads them
    correctly up to there.  It goes further only past a fresh m: with no
    degree moved it meets the same thresholds, and the last, smaller n
    had already reached one of them.  Past a fresh m every state is
    rebuilt.
    """
    # degrees[m]: the last d_min(n, m) found and states[m]: the state after m, for m <= known
    degrees, states, known, ms = [0, 0], [None, None], 1, range(2, scan_cap + 1)
    for n in range(start, stop + 1):
        best_d, best_m, argmins, fresh = 1, 0, [], False  # 1/0: above every ratio
        for m in ms:
            if m <= known:
                d, k = degrees[m], m * m - m + 2
                while d * d < n * k:
                    d += 1
                    degrees[m], fresh = d, True
            else:
                degrees.append(d := d_min(n, m))
                states.append(None)
                known, fresh = m, True
            if fresh:
                if d * best_m < best_d * m:
                    best_d, best_m, argmins = d, m, [m]
                elif d * best_m == best_d * m:
                    argmins = [*argmins, m]
                t = _stop_from(best_d, best_m, m + 1)
                states[m] = best_d, best_m, argmins, t
            else:
                best_d, best_m, argmins, t = states[m]
            if n >= t:
                yield best_d, best_m, argmins, m, True
                break
        else:
            yield best_d, best_m, argmins, scan_cap, False


def certified_min(n: int, scan_cap: int = DEFAULT_SCAN_CAP) -> BoundCertificate:
    """Scan m = 2, 3, ... until the running minimum dominates its own tail.

    Raises no error on exhaustion: a certificate with tail_witness=None is
    the explicit "uncertified" outcome.  Termination of certification for
    every swept n relies on the running minimum dropping strictly below
    sqrt(n): the ratios approach sqrt(n) from within distance 1/m, so for
    every n with some ratio below sqrt(n) the scan reaches one, after which
    the quadratic certificate exists.

    The scan is a one-n window of the integer core _certified_scans, which
    takes every degree from d_min and only decides whether the witness
    holds from scanned_to + 1 on.  The Fraction, the frozenset of argmins
    and the BoundCertificate are built here, once, from its result; a
    certified result takes the TailWitness that one _tail_cutoff of the
    reduced minimum returns, and an uncertified one calls none.
    """
    _require("self-intersection", n, 2)
    _require("scan_cap", scan_cap, MIN_SCAN_CAP)
    # unpacking runs the one-n window to its end, so closing it throws nothing into it
    [(best_d, best_m, argmins, scanned_to, certified)] = _certified_scans(n, n, scan_cap)
    value = Fraction(best_d, best_m)
    witness = _tail_cutoff(n, value) if certified else None
    assert not certified or witness.cutoff <= scanned_to + 1
    return BoundCertificate(value, frozenset(argmins), scanned_to, witness)


# ---------------------------------------------------------------------------
# f(N, m) >= f(N, 7) for m >= 8
# ---------------------------------------------------------------------------


class F7Report(NamedTuple):
    """Outcome of checking f(n,m) >= f(n,7) for all m >= 8.

    status:
      "holds_analytic"            -- short-circuited by the exact inequality
                                     7*sqrt(58N) >= 8*sqrt(44N) + 8 plus
                                     monotonicity of the un-ceiled ratio in m
                                     on (4, oo);
      "holds_scanned"             -- no violation among the scanned m in
                                     [8, max(7, cutoff - 1)], tail certified
                                     by tail_witness from cutoff on;
      "counterexamples_complete"  -- the violations listed are ALL of them
                                     (same certification as above);
      "uncertified"               -- no tail certificate within scan_cap (none
                                     exists when f(n,7) > sqrt(n)); nothing is
                                     scanned, so violations is empty.

    violations lists each m with f(n,m) < f(n,7) as (m, f(n,m)).
    tail_witness is _tail_cutoff's record at threshold f(n,7) for the two
    scanned statuses, and None for "holds_analytic" and "uncertified".
    """

    status: str
    violations: tuple[tuple[int, Fraction], ...]
    tail_witness: TailWitness | None


def check_f7(n: int, scan_cap: int = DEFAULT_SCAN_CAP) -> F7Report:
    """Decide f(n,m) >= f(n,7) for all m >= 8, listing every violation.

    Where SQRT_LINEAR["f7"] holds (exactly, via sqrt_linear_cmp: for n >= 1072)
    the chain f(n,m) >= g(n,m) >= g(n,8) >= g(n,7) + 1/7 >= f(n,7) applies,
    so no scan is needed.  Otherwise the comparison is checked exactly per m, and the
    tail-domination certificate at threshold f(n,7), the TailWitness that
    _tail_cutoff returns, bounds the search to m < its cutoff and is returned
    with the report; where that certificate does not exist or starts past
    scan_cap, nothing is scanned.
    """
    _require("self-intersection", n, 2)
    _require("scan_cap", scan_cap, MIN_SCAN_CAP)
    d7 = d_min(n, 7)
    if sqrt_linear_cmp(*SQRT_LINEAR["f7"], n):
        return F7Report("holds_analytic", (), None)
    tail = _tail_cutoff(n, Fraction(d7, 7))
    if tail is None or tail.cutoff - 1 > scan_cap:
        # a list of violations up to the cap would be an arbitrary prefix
        return F7Report("uncertified", (), None)
    violations = tuple(
        (m, Fraction(dm, m))
        for m in range(8, tail.cutoff)
        if 7 * (dm := d_min(n, m)) < d7 * m  # d_min(n,m)/m < d_min(n,7)/7
    )
    status = "counterexamples_complete" if violations else "holds_scanned"
    return F7Report(status, violations, tail)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


class CensusReport(NamedTuple):
    """Classification of each examined n under its smallest minimizing m.

    Ties are credited to the smallest attaining multiplicity; this is the
    convention that reproduces the published occurrence counts (n=4 under
    m=2, n=2 -- where 3 and 6 tie -- under m=3).

    Past analytic.threshold f(n,m) >= g(n,m) >= g(n,4) + 1/4 > f(n,4) for
    m != 4, so there every n has the argmins ONLY_4; below it, every n
    absent from the shared table has them too.  listing reads that table and
    computes each value on each read, at one ceil_sqrt per n.  The parity of
    the examined n is analytic.even_only.
    """

    start: int
    stop: int
    counts: dict[int, int]
    n_examined: int
    analytic: AnalyticThreshold

    def listing(self) -> Iterator[SmallBound]:
        """Every examined n in order, valued d_min(n, m)/m at its smallest argmin m."""
        step = 2 if self.analytic.even_only else 1
        table = _small_table()
        for n in range(self.start + self.start % step, self.stop + 1, step):
            m = min(argmins := table.get(n, ONLY_4))
            yield SmallBound(n, Fraction(d_min(n, m), m), argmins)


@cache
def _exceptions(even_only: bool) -> dict[int, list[int]]:
    """Per m != 4, the n of the parity whose smallest argmin is m, ascending.

    Read once per process and parity off the shared table; every listed n
    lies below the analytic threshold.
    """
    step = 2 if even_only else 1
    smallest = {n: min(argmins) for n, argmins in _small_table().items() if n % step == 0}
    return {m: [n for n, s in smallest.items() if s == m] for m in SMALL_MS if m != 4}


def census(start: int, stop: int, *, even_only: bool = True) -> CensusReport:
    """Census of smallest-argmin classes over [start, stop].

    even_only restricts to even n (the self-intersections that occur on
    abelian and bielliptic surfaces, and the domain of the published
    counts).  Each m != 4 counts its exceptions in the range by bisection,
    and m = 4 takes the rest, so a census costs O(1) wherever its range
    lies.  Classes with no n are left out.
    """
    if not 2 <= start <= stop:
        raise ValueError(f"census needs 2 <= start <= stop, got [{start}, {stop}]")
    n_examined = stop // 2 - (start - 1) // 2 if even_only else stop - start + 1
    counts = {m: bisect_right(ns, stop) - bisect_left(ns, start)
              for m, ns in _exceptions(even_only).items()}
    counts[4] = n_examined - sum(counts.values())
    return CensusReport(start, stop, {m: c for m, c in sorted(counts.items()) if c},
                        n_examined, analytic_threshold(even_only=even_only))


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


class SqrtLinearThreshold(NamedTuple):
    """Smallest n from which p*sqrt(a*n) >= q*sqrt(b*n) + c holds for good.

    The truth set in n is a final segment whenever p^2*a > q^2*b: with
    alpha = p^2*a - q^2*b, the inequality holds iff

        h(n) = alpha^2*n^2 - (2*alpha*c^2 + 4*q^2*c^2*b)*n + c^4 >= 0
               and n >= c^2/alpha,

    and h's larger root lies above c^2/alpha.  poly records h; threshold
    is the first integer in the truth set, and the preceding integer falls
    outside it.
    """

    threshold: int
    poly: tuple[int, int, int]


def sqrt_linear_threshold(p: int, a: int, q: int, b: int, c: int) -> SqrtLinearThreshold | None:
    """Exact first integer from which the inequality holds for all larger ones.

    Read off poly: h(c^2/alpha) = -e*c^2/alpha < 0 with e = 4*q^2*c^2*b,
    so the truth set is [r, oo) for h's larger root
    r = (2*alpha*c^2 + e + sqrt(e*(4*alpha*c^2 + e))) / (2*alpha^2), and
    the threshold is max(1, ceil(r)): the integer part of r from one isqrt,
    plus one exact check.  Returns None when p^2*a <= q^2*b (it then fails
    for every n >= 1).
    """
    alpha = p * p * a - q * q * b
    if alpha <= 0:
        return None
    e = 4 * q * q * c * c * b
    poly = (alpha * alpha, -(2 * alpha * c * c + e), c**4)
    h2, h1, h0 = poly  # h1^2 - 4*h2*h0 = e*(4*alpha*c^2 + e)
    lo = max(1, (-h1 + isqrt(h1 * h1 - 4 * h2 * h0)) // (2 * h2))
    lo += not sqrt_linear_cmp(p, a, q, b, c, lo)
    return SqrtLinearThreshold(lo, poly)


def sqrt58_threshold() -> int:
    """Smallest N with SQRT_LINEAR["f7"], 7*sqrt(58N) >= 8*sqrt(44N) + 8 (exact): 1072.

    From there check_f7's analytic tail argument covers all m >= 8 in one stroke.
    """
    return sqrt_linear_threshold(*SQRT_LINEAR["f7"]).threshold


class AnalyticThreshold(NamedTuple):
    """max over m in {2,3,5,6,7} of the first n with g(n,m) >= g(n,4) + 1/4.

    g(n,m) = sqrt(n*(2+m(m-1)))/m.  Past the max threshold the minimum of
    the ceiled ratios settles at m = 4 for every larger n (of the chosen
    parity).  per_m holds the first n of that parity; certificates are the
    per-m integer polynomials of the all-integer thresholds, which prove
    their inequality for every n from there on, the first even n included.
    """

    threshold: int
    per_m: dict[int, int]
    certificates: dict[int, SqrtLinearThreshold]
    even_only: bool


@cache
def analytic_threshold(*, even_only: bool = False) -> AnalyticThreshold:
    """Per-m thresholds for g(n,m) >= g(n,4) + 1/4, all m != 4 in 2..7.

    Clearing denominators, the m-th inequality is SQRT_LINEAR[m],
    4*sqrt((m^2-m+2)*n) >= m*sqrt(14*n) + m.  Over all integers the max is
    8775; restricted to even n it is 8776.  Built once per parity: every
    caller shares per_m and certificates, which none mutates.
    """
    certs = {m: sqrt_linear_threshold(*SQRT_LINEAR[m]) for m in SMALL_MS if m != 4}
    per_m = {m: c.threshold + (c.threshold % 2 if even_only else 0) for m, c in certs.items()}
    return AnalyticThreshold(max(per_m.values()), per_m, certs, even_only)


class CeilingThreshold(NamedTuple):
    """Sharp first n from which min{d_min(n,m)/m : m in 2..7} = d_min(n,4)/4.

    Certification: the shared table's exact argmins below the analytic
    threshold, analytic tail from it on.  last_failure is the largest
    examined n below it where the equality fails (None if it never fails).
    The parity of the examined n is analytic.even_only.
    """

    threshold: int
    last_failure: int | None
    scanned_to: int
    analytic: AnalyticThreshold


def ceiling_threshold(*, even_only: bool = True) -> CeilingThreshold:
    """Exact threshold for the ceiled minimum settling at m = 4.

    The equality fails exactly at the n whose argmins lack 4.  Below the
    analytic threshold those are keys of the shared table, none recomputed,
    and the last of the parity is read off its descending keys; from the
    threshold on there are none.  Over even n (self-intersections realized on
    abelian and bielliptic surfaces) the sharp value is 4982; over all
    integers it is 5286 (largest failure at n = 5285).
    """
    analytic = analytic_threshold(even_only=even_only)
    step = 2 if even_only else 1
    last_failure = next((n for n, argmins in reversed(_small_table().items())
                         if n % step == 0 and 4 not in argmins), None)
    threshold = 2 if last_failure is None else last_failure + step
    return CeilingThreshold(threshold, last_failure, analytic.threshold - 1, analytic)


# ---------------------------------------------------------------------------
# candidate values
# ---------------------------------------------------------------------------

OMEGA_KIND = "omega"
FIBER_KIND = "integer_fiber"

#: most (d, m) pairs plus fiber integers candidate_values lists: about 2.45*sqrt(n) at max_m 7
MAX_CANDIDATES = 10**5


def candidate_values(n: int, max_m: int) -> list[tuple[int, int, str]]:
    """Sorted candidate Seshadri values, ratios below sqrt(n) and integers up to it.

    As (p, q, kind) in lowest terms, merges (a) every ratio d/m with m in
    [2, max_m], (d, m) in Omega(n) and d/m < sqrt(n) exactly, tagged
    "omega", and (b) the integers 1..floor(sqrt(n)) realized by elliptic
    curves resp. fibers, tagged "integer_fiber".  Values shared by several
    (d, m) pairs are listed once per kind; ties across kinds order
    "integer_fiber" first.

    Values are ordered and deduplicated on one integer key, floor(v * S)
    with S = max_m^2: d*S // m for d/m and k*S for the integer k.  The key
    is exact.  Two distinct rationals with denominators at most max_m
    differ by at least 1/max_m^2 = 1/S, so v < w gives w*S >= v*S + 1 and
    floor(v*S) < floor(w*S); equal values give equal keys.  So two values
    share a key exactly when they are equal, and keys order as values do.
    Each listed pair is reduced by its gcd at the end; no Fraction is built,
    and the integer k is listed as (k, 1, "integer_fiber").

    Raises ValueError, before listing anything, when max_m, or the number
    of pairs and integers together, exceeds MAX_CANDIDATES.
    """
    _require("self-intersection", n, 2)
    _require("max_m", max_m, 2)
    if max_m > MAX_CANDIDATES:  # per_m would hold a range per m, listed or not
        raise ValueError(f"max_m must not exceed {MAX_CANDIDATES}, got {max_m}")
    per_m: list[tuple[int, range]] = []
    total = isqrt(n)
    for m in range(2, max_m + 1):
        degrees = range(d_min(n, m), isqrt(m * m * n - 1) + 1)  # up to d/m < sqrt(n)
        total += len(degrees)
        if total > MAX_CANDIDATES:
            raise ValueError(
                f"candidates for N = {n} up to max_m = {max_m} exceed "
                f"{MAX_CANDIDATES} (d, m) pairs and integers"
            )
        per_m.append((m, degrees))
    scale = max_m * max_m
    omega: dict[int, tuple[int, int]] = {}
    for m, degrees in per_m:
        mmn = m * m * n
        for d in degrees:
            assert d * d < mmn  # d/m < sqrt(n)
            omega[d * scale // m] = (d, m)
    # (key, kind index, d, m): "integer_fiber" is 0, so it leads a tie
    keyed = [(key, 1, d, m) for key, (d, m) in omega.items()]
    keyed.extend((k * scale, 0, k, 1) for k in range(1, isqrt(n) + 1))
    keyed.sort()
    kinds = (FIBER_KIND, OMEGA_KIND)
    return [(d // (g := gcd(d, m)), m // g, kinds[kind]) for _, kind, d, m in keyed]
