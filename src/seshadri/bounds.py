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
    in bulk through one integer kernel (_small_min: one isqrt per m, the
    minimum as a numerator over 420 and the argmins as a bitmask); census,
    per_n and ceiling_threshold read one table of that kernel's results
    below the analytic threshold, built once per process;
  * the same minimum certified over ALL m >= 2, via a quadratic
    tail-domination certificate that replaces the infinite case check by
    a finite scan: an integer core (_certified_scan: the running minimum
    as an unreduced pair, the argmins as a list, and whether its witness
    holds from the next m on, decided by a few integer products per m),
    which verify's agreement sweep reads, wrapped by certified_min, which
    computes the cutoff once and builds the certificate objects;
  * the per-multiplicity comparison f(N,m) >= f(N,7) for m >= 8, with a
    complete, certified list of violations where they exist;
  * one integer core for every witness polynomial and cutoff
    (_tail_cutoff), which certified_min and check_f7 both call;
  * the exact thresholds from which the minimum settles at m = 4: the
    analytic one, read once per parity off the table SQRT_LINEAR of analytic
    steps, and the sharp ceiling-aware one, with integer-polynomial certificates;
  * a census classifying each N by the smallest minimizing multiplicity;
  * the merged list of candidate values below sqrt(N), as lowest-terms (p, q).

Self-intersections of ample line bundles on abelian and on bielliptic
surfaces are even (L^2 = 2*d1*d2, resp. L^2 = 2*a*b), so the census and
threshold sweeps restrict to even N by default; every operation also
supports the unrestricted integer range.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd, isqrt, lcm
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


#: (m, m^2 - m + 2, SMALL_MS_LCM // m) for m in SMALL_MS: d_min(n, m) is the ceiling
#: square root of n*(m^2 - m + 2), and d_min(n, m)/m is d_min(n, m)*(420//m) over 420
_SMALL_TERMS = tuple((m, m * m - m + 2, SMALL_MS_LCM // m) for m in SMALL_MS)


def _small_min(n: int) -> tuple[int, int]:
    """The six-term minimum as (numerator over SMALL_MS_LCM, argmin bitmask).

    Bit m of the mask is set when m attains the minimum.  n >= 1 is the
    caller's to ensure: then n*(m^2 - m + 2) >= 1, and its ceiling square
    root is isqrt(n*(m^2 - m + 2) - 1) + 1.
    """
    best, mask = None, 0
    for m, k, scale in _SMALL_TERMS:
        v = (isqrt(n * k - 1) + 1) * scale
        if best is None or v < best:
            best, mask = v, 1 << m
        elif v == best:
            mask |= 1 << m
    return best, mask


def lower_bound_small(n: int) -> SmallBound:
    """The six-term minimum over m in 2..7, as an exact rational.

    The ratios are compared as numerators over the common denominator
    SMALL_MS_LCM; only the returned minimum becomes a Fraction.  This is
    the per-N definition, through d_min; the census and verify's agreement
    sweep use the integer kernel _small_min, which the tests hold equal to it.
    """
    _require("self-intersection", n, 2)
    scaled = {m: d_min(n, m) * (SMALL_MS_LCM // m) for m in SMALL_MS}
    best = min(scaled.values())
    argmins = frozenset(m for m, v in scaled.items() if v == best)
    return SmallBound(n, Fraction(best, SMALL_MS_LCM), argmins)


@cache
def _small_table() -> tuple[array, array]:
    """_small_min of every n below the even analytic threshold, built once per process.

    Entry n of the first array is the numerator over SMALL_MS_LCM, entry n of
    the second the argmin bitmask; both are 0 for n < 2.  The even threshold
    (8776) is the larger of the two parities, so both read this one table.
    """
    nums, masks = array("L", [0, 0]), array("B", [0, 0])
    for n in range(2, analytic_threshold(even_only=True).threshold):
        num, mask = _small_min(n)
        nums.append(num)
        masks.append(mask)
    return nums, masks


# ---------------------------------------------------------------------------
# tail-domination certificates
# ---------------------------------------------------------------------------


class TailWitness(NamedTuple):
    """Witness that d_min(n,m)/m >= threshold for every m >= cutoff.

    poly holds (A, B, C) with the guarantee that A*m^2 + B*m + C > 0
    (strict=True) resp. >= 0 (strict=False) for all m >= cutoff, where

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


#: _tail_cutoff's (poly, strict, cutoff)
_Tail = tuple[tuple[int, int, int], bool, int]


def _tail_cutoff(n: int, p: int, q: int) -> _Tail | None:
    """(poly, strict, cutoff) of the TailWitness at threshold p/q, or None.

    p/q must be in lowest terms with p >= 0; the arithmetic is all integer.
    The cutoff is the first m >= max(2, ceil(vertex)) at which poly holds;
    past the vertex -B/(2A) the upward parabola does not decrease.  poly may
    hold below the cutoff: at n = 249, p/q = 15 the cutoff is 5, although
    24m^2 - 219m + 497 > 0 for all m >= 2.  None means that no quadratic
    certificate exists, which happens exactly when p/q > sqrt(n), or when
    p/q = sqrt(n) >= 3.
    """
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
        return (poly, strict, 2) if b >= 0 else None
    disc = b * b - 4 * a * c
    if disc < 0 or (disc == 0 and not strict):
        return poly, strict, 2
    # floor((-b + isqrt(disc)) / 2a) is the floor of the larger root r; poly
    # fails on [ceil(vertex), r) and holds past r
    m = max(2, -(b // (2 * a)), (-b + isqrt(disc)) // (2 * a))
    v = (a * m + b) * m + c
    return poly, strict, m if (v > 0 if strict else v >= 0) else m + 1


class BoundCertificate(NamedTuple):
    """Result of a certified minimum of d_min(n,m)/m over all m >= 2.

    value is the minimum over the scanned range [2, scanned_to]; when
    tail_witness is present, every m >= 2 satisfies d_min(n,m)/m >= value
    (scanned range checked explicitly, tail by the witness polynomial,
    cutoff <= scanned_to + 1).  argmins are the scanned minimizers.
    """

    n: int
    value: Fraction
    argmins: frozenset[int]
    scanned_to: int
    tail_witness: TailWitness | None

    @property
    def certified(self) -> bool:
        return self.tail_witness is not None


def _certified_scan(n: int, scan_cap: int) -> tuple[int, int, list[int], int, bool]:
    """certified_min's scan in integers: (best_d, best_m, argmins, scanned_to, certified).

    The running minimum best_d/best_m is compared with each d_min(n,m)/m
    by cross-multiplication; it starts at 1/0, which that comparison
    places above every ratio, and is returned unreduced (best_m is the
    first argmin).  argmins lists the scanned minimizers in ascending
    order.  certified says that the witness of the minimum holds from
    scanned_to + 1 on; it is False when none does by scan_cap.  n >= 2 and
    scan_cap >= MIN_SCAN_CAP are the caller's to ensure.

    At each new minimum d/m the witness polynomial (a, b, c) of
    _tail_cutoff is set up without reducing d/m.  There is none when
    d^2 > n*m^2.  When m divides d it is the strict form at p = d/m,
    (n - p^2, 2p - n, 2n - 1).  With a = 0 (n = p^2) it is linear with
    c > 0 and holds from m = 2 on iff b >= 0; with a negative discriminant
    it holds from m = 2 on; in both cases the scan stops at once.
    Otherwise it is the non-strict form scaled by g^2 = gcd(d, m)^2,
    (n*m^2 - d^2, -n*m^2, 2*n*m^2), which has the sign, the vertex and the
    roots of the reduced one; here a > 0, as d/m = sqrt(n) needs m | d.

    With a > 0 the scan stops at m iff, with k = m + 1, 2*a*k + b >= 0
    and poly(k) holds (> 0 strict, >= 0 non-strict).  That is exactly
    _tail_cutoff(...)[2] <= m + 1: the cutoff is the first integer
    >= max(2, ceil(vertex)) at which poly holds, k >= 3 lies past the
    vertex -b/(2a) iff 2*a*k + b >= 0, and poly does not decrease past its
    vertex.  _tail_cutoff's cutoff 2 for a non-strict discriminant <= 0
    needs no case of its own: that discriminant is n*m^2*(n*m^2 - 8a), so
    poly >= 0 everywhere and the vertex is at most 4, while k >= 4, since
    d_min(n, 2)^2 >= 4n puts every non-strict minimum at m >= 3.  So the
    cutoff itself is computed only by certified_min, once, where a
    certificate is built.
    """
    best_d, best_m = 1, 0
    argmins: list[int] = []
    a = 0  # no witness to test
    for m in range(2, scan_cap + 1):
        d = d_min(n, m)
        if d * best_m < best_d * m:
            best_d, best_m, argmins = d, m, [m]
            nmm = n * m * m
            a = 0
            if d * d <= nmm:
                if d % m:
                    a, b, c, strict = nmm - d * d, -nmm, 2 * nmm, False
                else:
                    p = d // m
                    a, b, c, strict = n - p * p, 2 * p - n, 2 * n - 1, True
                    if (b >= 0) if a == 0 else (b * b < 4 * a * c):
                        return best_d, best_m, argmins, m, True
        elif d * best_m == best_d * m:
            argmins.append(m)
        if a:
            k = m + 1
            if 2 * a * k + b >= 0:
                v = (a * k + b) * k + c
                if v > 0 or (v == 0 and not strict):
                    return best_d, best_m, argmins, m, True
    return best_d, best_m, argmins, scan_cap, False


def certified_min(n: int, scan_cap: int = DEFAULT_SCAN_CAP) -> BoundCertificate:
    """Scan m = 2, 3, ... until the running minimum dominates its own tail.

    Raises no error on exhaustion: a certificate with tail_witness=None is
    the explicit "uncertified" outcome.  Termination of certification for
    every swept n relies on the running minimum dropping strictly below
    sqrt(n): the ratios approach sqrt(n) from within distance 1/m, so for
    every n with some ratio below sqrt(n) the scan reaches one, after which
    the quadratic certificate exists.

    The scan is the integer core _certified_scan, which only decides
    whether the witness holds from scanned_to + 1 on.  The Fraction, the
    frozenset of argmins and the BoundCertificate are built here, once,
    from its result; a certified result takes its witness from one
    _tail_cutoff of the reduced minimum, and an uncertified one from none.
    """
    _require("self-intersection", n, 2)
    _require("scan_cap", scan_cap, MIN_SCAN_CAP)
    best_d, best_m, argmins, scanned_to, certified = _certified_scan(n, scan_cap)
    value = Fraction(best_d, best_m)
    witness = None
    if certified:
        poly, strict, cutoff = _tail_cutoff(n, value.numerator, value.denominator)
        assert cutoff <= scanned_to + 1
        witness = TailWitness(value, cutoff, poly, strict)
    return BoundCertificate(n, value, frozenset(argmins), scanned_to, witness)


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
      "holds_scanned"             -- no violation up to scanned_to, tail
                                     certified from cutoff <= scanned_to + 1;
      "counterexamples_complete"  -- the violations listed are ALL of them
                                     (same certification as above);
      "uncertified"               -- no tail certificate within scan_cap (none
                                     exists when f(n,7) > sqrt(n)); nothing is
                                     scanned, so violations is empty and
                                     scanned_to is None.

    violations lists each m with f(n,m) < threshold as (m, f(n,m)).
    """

    n: int
    threshold: Fraction  # f(n, 7), in lowest terms
    status: str
    violations: tuple[tuple[int, Fraction], ...]
    scanned_to: int | None


def check_f7(n: int, scan_cap: int = DEFAULT_SCAN_CAP) -> F7Report:
    """Decide f(n,m) >= f(n,7) for all m >= 8, listing every violation.

    Where SQRT_LINEAR["f7"] holds (exactly, via sqrt_linear_cmp: for n >= 1072)
    the chain f(n,m) >= g(n,m) >= g(n,8) >= g(n,7) + 1/7 >= f(n,7) applies,
    so no scan is needed.  Otherwise the comparison is checked exactly per m, and the
    tail-domination certificate at threshold f(n,7), whose cutoff _tail_cutoff
    derives, bounds the search; where that certificate does not exist or
    starts past scan_cap, nothing is scanned.
    """
    _require("self-intersection", n, 2)
    _require("scan_cap", scan_cap, MIN_SCAN_CAP)
    d7 = d_min(n, 7)
    threshold = Fraction(d7, 7)
    if sqrt_linear_cmp(*SQRT_LINEAR["f7"], n):
        return F7Report(n, threshold, "holds_analytic", (), None)
    tail = _tail_cutoff(n, threshold.numerator, threshold.denominator)
    if tail is None or tail[2] - 1 > scan_cap:
        # a list of violations up to the cap would be an arbitrary prefix
        return F7Report(n, threshold, "uncertified", (), None)
    scan_to = max(7, tail[2] - 1)
    violations = tuple(
        (m, Fraction(dm, m))
        for m in range(8, scan_to + 1)
        if 7 * (dm := d_min(n, m)) < d7 * m  # d_min(n,m)/m < d_min(n,7)/7
    )
    status = "counterexamples_complete" if violations else "holds_scanned"
    return F7Report(n, threshold, status, violations, scan_to)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


class CensusReport(NamedTuple):
    """Classification of each examined n under its smallest minimizing m.

    Ties are credited to the smallest attaining multiplicity; this is the
    convention that reproduces the published occurrence counts (n=4 under
    m=2, n=2 -- where 3 and 6 tie -- under m=3).

    per_n lists the n below analytic.threshold; it is computed on each
    read, in O(range).  Past the threshold f(n,m) >= g(n,m) >= g(n,4) + 1/4
    > f(n,4) for m != 4, so the rest is counted under m = 4.  The parity of
    the examined n is analytic.even_only.
    """

    start: int
    stop: int
    counts: dict[int, int]
    n_examined: int
    analytic: AnalyticThreshold

    @property
    def per_n(self) -> dict[int, SmallBound]:
        """Exact bounds of the examined n below the threshold, built on each read in O(range)."""
        step = 2 if self.analytic.even_only else 1
        stop = min(self.stop, self.analytic.threshold - 1)
        nums, masks = _small_table()
        return {n: SmallBound(n, Fraction(nums[n], SMALL_MS_LCM),
                              frozenset(m for m in SMALL_MS if masks[n] >> m & 1))
                for n in range(self.start + self.start % step, stop + 1, step)}

    def listing(self) -> Iterator[SmallBound]:
        """Every examined n in order: per_n, then the tail at one ceil_sqrt per n."""
        yield from self.per_n.values()
        step = 2 if self.analytic.even_only else 1
        first = max(self.start, self.analytic.threshold)
        for n in range(first + first % step, self.stop + 1, step):
            yield SmallBound(n, Fraction(d_min(n, 4), 4), frozenset({4}))


def census_size(start: int, stop: int, *, even_only: bool) -> int:
    """How many n of the census parity lie in [start, stop], in O(1)."""
    return max(0, stop // 2 - (start - 1) // 2 if even_only else stop - start + 1)


@cache
def _argmin_prefix_counts(even_only: bool) -> dict[int, array]:
    """Per m, entry k counts the n < k of the parity with smallest argmin m.

    It covers every n below the analytic threshold.  Built once per process
    and parity from the shared table, so that a census counts any range in
    O(1).  The lowest set bit of a mask is the smallest argmin; the mask 0
    of n < 2 reads as -1, which no m counts.
    """
    step = 2 if even_only else 1
    masks = _small_table()[1][:analytic_threshold(even_only=even_only).threshold]
    smallest = [(mask & -mask).bit_length() - 1 if n % step == 0 else 0
                for n, mask in enumerate(masks)]
    return {m: array("H", accumulate((s == m for s in smallest), initial=0))
            for m in SMALL_MS}


def census(start: int, stop: int, *, even_only: bool = True) -> CensusReport:
    """Census of smallest-argmin classes over [start, stop].

    even_only restricts to even n (the self-intersections that occur on
    abelian and bielliptic surfaces, and the domain of the published
    counts).  The n below the analytic threshold are counted from prefix
    sums of their smallest argmins, the rest under m = 4, so a census costs
    O(1) wherever its range lies.
    """
    if not 2 <= start <= stop:
        raise ValueError(f"census needs 2 <= start <= stop, got [{start}, {stop}]")
    analytic = analytic_threshold(even_only=even_only)
    lo, hi = min(start, analytic.threshold), min(stop + 1, analytic.threshold)
    tail = census_size(max(start, analytic.threshold), stop, even_only=even_only)
    counts = Counter({m: prefix[hi] - prefix[lo]
                      for m, prefix in _argmin_prefix_counts(even_only).items()})
    counts += Counter({4: tail})
    return CensusReport(start, stop, dict(sorted(counts.items())),
                        census_size(start, stop, even_only=even_only), analytic)


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

    Certification: the shared table's exact ceilings up to the analytic
    threshold, analytic tail beyond it.  last_failure is the largest
    examined n below it where the equality fails (None if it never fails).
    The parity of the examined n is analytic.even_only.
    """

    threshold: int
    last_failure: int | None
    scanned_to: int
    analytic: AnalyticThreshold


def ceiling_threshold(*, even_only: bool = True) -> CeilingThreshold:
    """Exact threshold for the ceiled minimum settling at m = 4.

    Every n of the parity below the analytic threshold is decided by bit 4
    of its argmin mask in the shared table; none is recomputed.  Over even n
    (self-intersections realized on abelian and bielliptic surfaces) the
    sharp value is 4982; over all integers it is 5286 (largest failure at
    n = 5285).
    """
    analytic = analytic_threshold(even_only=even_only)
    step = 2 if even_only else 1
    masks = _small_table()[1]
    last_failure = max((n for n in range(2, analytic.threshold, step) if not masks[n] >> 4 & 1),
                       default=None)
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
    """Sorted candidate Seshadri values below sqrt(n), as (p, q, kind) in lowest terms.

    Merges (a) every ratio d/m with m in [2, max_m], (d, m) in Omega(n)
    and d/m < sqrt(n) exactly, tagged "omega", and (b) the integers
    1..floor(sqrt(n)) realized by elliptic curves resp. fibers, tagged
    "integer_fiber".  Values shared by several (d, m) pairs are listed
    once per kind; ties across kinds order "integer_fiber" first.

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
