"""Certified minimum-ratio machinery over the admissible (degree, multiplicity) set.

For an ample line bundle with self-intersection N >= 2 on a surface where
irreducible curves with C^2 > 0 satisfy C^2 >= m(m-1) + 2, a submaximal
Seshadri constant is a ratio d/m with

    Omega(N) = { (d, m) : d^2 >= N*(2 + m*(m-1)), m >= 2 }.

This module computes, entirely in exact integer arithmetic:

  * membership in Omega, and its extremal coordinates d_min(N, m) and
    m_max(N, d);
  * the finite minimum  min{ d_min(N,m)/m : m in 2..7 }  together with its
    attaining multiplicities;
  * the same minimum certified over ALL m >= 2, via a quadratic
    tail-domination certificate that replaces the infinite case check by
    a finite scan;
  * the per-multiplicity comparison f(N,m) >= f(N,7) for m >= 8, with a
    complete, certified list of violations where they exist;
  * the exact thresholds from which the minimum settles at m = 4, both
    the analytic (real-inequality) threshold and the sharp ceiling-aware
    one, with integer-polynomial certificates;
  * a census classifying each N by the smallest minimizing multiplicity;
  * the merged list of candidate rational values below sqrt(N).

Self-intersections of ample line bundles on abelian and on bielliptic
surfaces are even (L^2 = 2*d1*d2, resp. L^2 = 2*a*b), so the census and
threshold sweeps restrict to even N by default; every operation also
supports the unrestricted integer range.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .exactmath import ceil_sqrt, rat_cmp_sqrt, sqrt_linear_cmp

SMALL_MS = (2, 3, 4, 5, 6, 7)

# N*(2 + m*(m-1)) for m = 2..7: radicand multipliers 4, 8, 14, 22, 32, 44
RADICAND_MULTIPLIERS = {m: m * (m - 1) + 2 for m in SMALL_MS}

DEFAULT_SCAN_CAP = 10**6
MIN_SCAN_CAP = 8


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"self-intersection must be >= 2, got {n}")


def _check_m(m: int) -> None:
    if m < 2:
        raise ValueError(f"multiplicity must be >= 2, got {m}")


def omega_contains(n: int, d: int, m: int) -> bool:
    """Whether (d, m) lies in Omega(n): d^2 >= n*(2 + m*(m-1))."""
    _check_m(m)
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return d * d >= n * (m * (m - 1) + 2)


def d_min(n: int, m: int) -> int:
    """Smallest degree d with (d, m) in Omega(n): ceil(sqrt(n*(2+m(m-1))))."""
    _check_m(m)
    if n < 1:
        raise ValueError(f"self-intersection must be >= 1, got {n}")
    return ceil_sqrt(n * (m * (m - 1) + 2))


def m_max(n: int, d: int) -> int | None:
    """Largest m >= 2 with (d, m) in Omega(n), or None if there is none.

    Computed by exact bisection on the defining inequality
    n*(2 + m*(m-1)) <= d^2; the closed-form floor expression is kept as a
    cross-check only (m_max_closed_form), since naive floating evaluation
    of floor(1/2 + sqrt(d^2/n - 7/4)) can err at boundaries.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
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


def m_max_closed_form(n: int, d: int) -> int | None:
    """floor(1/2 + sqrt(d^2/n - 7/4)) evaluated in exact integers.

    Equals floor((1 + floor(sqrt((4d^2 - 7n) // n))) / 2) because the
    half-integer thresholds of (1+t)/2 sit at integers.
    """
    if 4 * d * d < 7 * n:
        return None
    m = (1 + isqrt((4 * d * d - 7 * n) // n)) // 2
    return m if m >= 2 else None


@dataclass(frozen=True)
class SmallBound:
    """min{ d_min(n,m)/m : m in 2..7 } and the multiplicities attaining it."""

    n: int
    value: Fraction
    argmins: frozenset[int]

    @property
    def smallest_argmin(self) -> int:
        return min(self.argmins)


def lower_bound_small(n: int) -> SmallBound:
    """The six-term minimum over m in 2..7, as an exact rational."""
    _check_n(n)
    ratios = {m: Fraction(d_min(n, m), m) for m in SMALL_MS}
    value = min(ratios.values())
    argmins = frozenset(m for m, v in ratios.items() if v == value)
    return SmallBound(n, value, argmins)


# ---------------------------------------------------------------------------
# tail-domination certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailWitness:
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

    def holds_at(self, m: int) -> bool:
        a, b, c = self.poly
        v = (a * m + b) * m + c
        return v > 0 if self.strict else v >= 0


def tail_cutoff(n: int, threshold: Fraction) -> TailWitness | None:
    """Smallest certified cutoff for the given threshold, or None.

    None means no quadratic certificate exists at this threshold, which
    happens exactly when threshold > sqrt(n) (the relevant parabola opens
    downward), or threshold = sqrt(n) with sqrt(n) >= 3.
    """
    if rat_cmp_sqrt(threshold, n) > 0:
        return None  # threshold above sqrt(n): the parabola opens downward
    p, q = threshold.numerator, threshold.denominator
    if q == 1:
        a, b, c = n - p * p, 2 * p - n, 2 * n - 1
        strict = True
    else:
        # equality with sqrt(n) is impossible for q >= 2, so a > 0 here
        nq2 = n * q * q
        a, b, c = nq2 - p * p, -nq2, 2 * nq2
        strict = False

    def ok(m: int) -> bool:
        v = (a * m + b) * m + c
        return v > 0 if strict else v >= 0

    witness = lambda m: TailWitness(threshold, m, (a, b, c), strict)
    if a == 0:
        # linear; certifiable iff nondecreasing and eventually satisfied
        if b > 0 or (b == 0 and ok(2)):
            m = 2
            while not ok(m):
                m += 1
            return witness(m)
        return None
    disc = b * b - 4 * a * c
    if disc < 0 or (disc == 0 and not strict):
        return witness(2)
    # upward parabola, nondecreasing from its vertex ceil(-b/2a)
    vertex = max(2, -(b // (2 * a)))
    m = max(vertex, (-b + isqrt(disc)) // (2 * a) - 2)
    while not ok(m):
        m += 1
    while m > vertex and ok(m - 1):
        m -= 1
    return witness(m)


@dataclass(frozen=True)
class BoundCertificate:
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


def certified_min(n: int, scan_cap: int = DEFAULT_SCAN_CAP) -> BoundCertificate:
    """Scan m = 2, 3, ... until the running minimum dominates its own tail.

    Raises no error on exhaustion: a certificate with tail_witness=None is
    the explicit "uncertified" outcome.  Termination of certification for
    every swept n relies on the running minimum dropping strictly below
    sqrt(n) (detected via rat_cmp_sqrt through the witness algebra): the
    ratios approach sqrt(n) from within distance 1/m, so for every n with
    some ratio below sqrt(n) the scan reaches one, after which the
    quadratic certificate exists.
    """
    _check_n(n)
    if scan_cap < MIN_SCAN_CAP:
        raise ValueError(f"scan_cap must be >= {MIN_SCAN_CAP}, got {scan_cap}")
    best: Fraction | None = None
    argmins: set[int] = set()
    tail: TailWitness | None = None
    m = 2
    while m <= scan_cap:
        ratio = Fraction(d_min(n, m), m)
        if best is None or ratio < best:
            best, argmins = ratio, {m}
            tail = tail_cutoff(n, best)
        elif ratio == best:
            argmins.add(m)
        if tail is not None and tail.cutoff <= m + 1:
            return BoundCertificate(n, best, frozenset(argmins), m, tail)
        m += 1
    assert best is not None
    return BoundCertificate(n, best, frozenset(argmins), scan_cap, None)


# ---------------------------------------------------------------------------
# f(N, m) >= f(N, 7) for m >= 8
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class F7Report:
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
      "uncertified"               -- scan_cap reached without a certificate;
                                     violations listed are those found so far.
    """

    n: int
    threshold: Fraction  # f(n, 7), in lowest terms
    status: str
    violations: tuple[tuple[int, Fraction, Fraction], ...]
    scanned_to: int | None
    tail_witness: TailWitness | None

    @property
    def holds_for_all_m(self) -> bool:
        return self.status in ("holds_analytic", "holds_scanned")


def check_f7(n: int, scan_cap: int = DEFAULT_SCAN_CAP) -> F7Report:
    """Decide f(n,m) >= f(n,7) for all m >= 8, listing every violation.

    For n >= 1072 the analytic argument applies: sqrt(58N)/8 >=
    sqrt(44N)/7 + 1/7 (exactly decided by sqrt_linear_cmp with the chain
    f(n,m) >= g(n,m) >= g(n,8) >= g(n,7) + 1/7 >= f(n,7)), so no scan is
    needed.  Otherwise the comparison is checked exactly per m, and the
    tail-domination certificate at threshold f(n,7) bounds the search.
    """
    _check_n(n)
    if n >= 1072 and sqrt_linear_cmp(7, 58, 8, 44, 8, n):
        return F7Report(n, Fraction(d_min(n, 7), 7), "holds_analytic", (), None, None)
    d7 = d_min(n, 7)
    threshold = Fraction(d7, 7)
    tail = tail_cutoff(n, threshold)
    if tail is not None and tail.cutoff - 1 <= scan_cap:
        scan_to = max(7, tail.cutoff - 1)
    else:
        tail, scan_to = None, scan_cap  # no certificate reachable below the cap
    violations = tuple(
        (m, Fraction(dm, m), threshold)
        for m in range(8, scan_to + 1)
        if 7 * (dm := d_min(n, m)) < d7 * m  # d_min(n,m)/m < d_min(n,7)/7
    )
    if tail is None:
        return F7Report(n, threshold, "uncertified", violations, scan_to, None)
    status = "counterexamples_complete" if violations else "holds_scanned"
    return F7Report(n, threshold, status, violations, scan_to, tail)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusReport:
    """Classification of each examined n under its smallest minimizing m.

    Ties are credited to the smallest attaining multiplicity; this is the
    convention that reproduces the published occurrence counts (n=4 under
    m=2, n=2 -- where 3 and 6 tie -- under m=3).
    """

    start: int
    stop: int
    even_only: bool
    per_n: dict[int, SmallBound] = field(repr=False)
    counts: dict[int, int]

    @property
    def n_examined(self) -> int:
        return len(self.per_n)


def census(start: int, stop: int, *, even_only: bool = True) -> CensusReport:
    """Census of smallest-argmin classes over [start, stop].

    even_only restricts to even n (the self-intersections that occur on
    abelian and bielliptic surfaces, and the domain of the published
    counts).
    """
    if not 2 <= start <= stop:
        raise ValueError(f"census needs 2 <= start <= stop, got [{start}, {stop}]")
    ns = range(start + start % 2, stop + 1, 2) if even_only else range(start, stop + 1)
    per_n = {n: lower_bound_small(n) for n in ns}
    counts = Counter(bound.smallest_argmin for bound in per_n.values())
    return CensusReport(start, stop, even_only, per_n, dict(sorted(counts.items())))


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqrtLinearThreshold:
    """Smallest n from which p*sqrt(a*n) >= q*sqrt(b*n) + c holds for good.

    The truth set in n is a final segment whenever p^2*a > q^2*b: with
    alpha = p^2*a - q^2*b, the inequality holds iff

        h(n) = alpha^2*n^2 - (2*alpha*c^2 + 4*q^2*c^2*b)*n + c^4 >= 0
               and n >= c^2/alpha,

    and h's larger root lies above c^2/alpha.  poly records h; threshold
    is the first integer (of the requested parity) in the truth set, and
    the preceding integer of that parity falls outside it.
    """

    params: tuple[int, int, int, int, int]  # (p, a, q, b, c)
    threshold: int
    poly: tuple[int, int, int]
    even_only: bool

    def normalized_poly(self) -> tuple[int, int, int]:
        """poly divided by its content; equal params give equal certificates."""
        from math import gcd

        a2, a1, a0 = self.poly
        g = gcd(gcd(a2, a1), a0)
        return (a2 // g, a1 // g, a0 // g) if g else self.poly


def sqrt_linear_threshold(
    p: int, a: int, q: int, b: int, c: int, *, even_only: bool = False
) -> SqrtLinearThreshold | None:
    """Exact first integer from which the inequality holds for all larger ones.

    Returns None when p^2*a <= q^2*b (the inequality then fails for every
    n >= 1).  With even_only, "integer" means "even integer".
    """
    alpha = p * p * a - q * q * b
    if alpha <= 0:
        return None
    e = 4 * q * q * c * c * b
    poly = (alpha * alpha, -(2 * alpha * c * c + e), c**4)
    lo, hi = 1, 1
    while not sqrt_linear_cmp(p, a, q, b, c, hi):
        lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if sqrt_linear_cmp(p, a, q, b, c, mid):
            hi = mid
        else:
            lo = mid + 1
    threshold = lo
    if even_only and threshold % 2:
        threshold += 1
    return SqrtLinearThreshold((p, a, q, b, c), threshold, poly, even_only)


#: the inequality sqrt(58N)/8 >= sqrt(44N)/7 + 1/7, cleared of denominators
SQRT58_PARAMS = (7, 58, 8, 44, 8)


def sqrt58_threshold() -> int:
    """Smallest integer N with 7*sqrt(58N) >= 8*sqrt(44N) + 8 (exact).

    This is the threshold from which the analytic tail argument covers all
    m >= 8 in one stroke; the known value is 1072.
    """
    t = sqrt_linear_threshold(*SQRT58_PARAMS)
    assert t is not None
    return t.threshold


@dataclass(frozen=True)
class AnalyticThreshold:
    """max over m in {2,3,5,6,7} of the first n with g(n,m) >= g(n,4) + 1/4.

    g(n,m) = sqrt(n*(2+m(m-1)))/m.  Past the max threshold the minimum of
    the ceiled ratios settles at m = 4 for every larger n (of the chosen
    parity).  Certificates are per-m integer polynomials.
    """

    threshold: int
    per_m: dict[int, int]
    certificates: dict[int, SqrtLinearThreshold]
    even_only: bool


def analytic_threshold(*, even_only: bool = False) -> AnalyticThreshold:
    """Per-m thresholds for g(n,m) >= g(n,4) + 1/4, all m != 4 in 2..7.

    Clearing denominators, the m-th inequality reads
    4*sqrt((m^2-m+2)*n) >= m*sqrt(14*n) + m.  Over all integers the max is
    8775; restricted to even n it is 8776.
    """
    per_m: dict[int, int] = {}
    certs: dict[int, SqrtLinearThreshold] = {}
    for m in (2, 3, 5, 6, 7):
        cert = sqrt_linear_threshold(
            4, m * (m - 1) + 2, m, 14, m, even_only=even_only
        )
        assert cert is not None  # (m-4)^2 > 0 for m != 4
        per_m[m] = cert.threshold
        certs[m] = cert
    return AnalyticThreshold(max(per_m.values()), per_m, certs, even_only)


@dataclass(frozen=True)
class CeilingThreshold:
    """Sharp first n from which min{d_min(n,m)/m : m in 2..7} = d_min(n,4)/4.

    Certification: brute-force scan with exact ceilings up to the analytic
    threshold, analytic tail beyond it.  last_failure is the largest
    scanned n where the equality fails (None if it never fails).
    """

    threshold: int
    last_failure: int | None
    scanned_to: int
    analytic: AnalyticThreshold
    even_only: bool


def ceiling_threshold(*, even_only: bool = True) -> CeilingThreshold:
    """Exact threshold for the ceiled minimum settling at m = 4.

    Over even n (self-intersections realized on abelian and bielliptic
    surfaces) the sharp value is 4982; over all integers it is 5286
    (largest failure at n = 5285).
    """
    analytic = analytic_threshold(even_only=even_only)
    scan_to = analytic.threshold - 1
    last_failure = None
    first = 2
    step = 2 if even_only else 1
    for n in range(first, scan_to + 1, step):
        small = lower_bound_small(n)
        if small.value != Fraction(d_min(n, 4), 4):
            last_failure = n
    threshold = first if last_failure is None else last_failure + step
    return CeilingThreshold(threshold, last_failure, scan_to, analytic, even_only)


# ---------------------------------------------------------------------------
# candidate values
# ---------------------------------------------------------------------------

OMEGA_KIND = "omega"
FIBER_KIND = "integer_fiber"


def candidate_values(
    n: int, max_m: int
) -> list[tuple[Fraction, str]]:
    """Sorted candidate Seshadri values below sqrt(n).

    Merges (a) every ratio d/m with m in [2, max_m], (d, m) in Omega(n)
    and d/m < sqrt(n) exactly, tagged "omega", and (b) the integers
    1..floor(sqrt(n)) realized by elliptic curves resp. fibers, tagged
    "integer_fiber".  Values shared by several (d, m) pairs are listed
    once per kind; ties across kinds order "integer_fiber" first.
    """
    _check_n(n)
    if max_m < 2:
        raise ValueError(f"max_m must be >= 2, got {max_m}")
    omega_vals: set[Fraction] = set()
    for m in range(2, max_m + 1):
        lo = d_min(n, m)
        hi = isqrt(m * m * n - 1)  # largest d with d/m < sqrt(n)
        for d in range(lo, hi + 1):
            value = Fraction(d, m)
            assert rat_cmp_sqrt(value, n) < 0
            omega_vals.add(value)
    merged = [(v, OMEGA_KIND) for v in omega_vals]
    merged.extend((Fraction(k), FIBER_KIND) for k in range(1, isqrt(n) + 1))
    merged.sort(key=lambda item: (item[0], item[1]))
    return merged
