"""Re-check printed certificates without importing seshadri.

check_certified_min(n, cert) takes one certificate in the JSON shape that
`seshadri bound --format json` prints under certificates.certified_min
and returns the checks it fails (an empty list when it holds).  It uses
math.isqrt and integer arithmetic only, so it shares no derivation with
the package.

A certified certificate with value p/q (lowest terms) states that
ceil(sqrt(n*(m^2-m+2)))/m >= p/q for every m >= 2.  The scanned range
[2, scanned_to] is recomputed ratio by ratio, and the ratios must equal
p/q exactly at argmins.  The tail m >= cutoff rests on the polynomial
P(m) = A*m^2 + B*m + C, which must be derived from (n, p/q):

  q = 1, strict:      (n - p^2, 2p - n, 2n - 1); P(m) > 0 means
                      n*(m^2-m+2) > (p*m - 1)^2, so the ceiling is >= p*m;
  q >= 2, not strict: (n*q^2 - p^2, -n*q^2, 2*n*q^2); P(m) >= 0 means
                      q^2*n*(m^2-m+2) >= p^2*m^2.

P must hold at every m >= cutoff, with 2 <= cutoff <= scanned_to + 1: either
P holds at cutoff and does not decrease from there (A >= 0 and
P(cutoff + 1) - P(cutoff) = A*(2*cutoff + 1) + B >= 0; the steps only grow
after that), or A > 0 and P has no real root (a double root is allowed
when not strict).  The second case covers cutoff 2 where P is still
decreasing at 2 but positive everywhere.

check_sqrt_linear(params, cert) takes the certificate {"threshold": t,
"poly": h} of one inequality p*sqrt(a*n) >= q*sqrt(b*n) + c, with
params = (p, a, q, b, c) positive integers, such as an entry of the
certificates.analytic_threshold block that `seshadri verify --format json`
prints, where (p, a, q, b, c) = (4, m^2-m+2, m, 14, m) states
g(n,m) >= g(n,4) + 1/4.  Squaring twice, the inequality holds iff
alpha*n >= c^2 and h(n) >= 0, where alpha = p^2*a - q^2*b and

  h(n) = alpha^2*n^2 - (2*alpha*c^2 + 4*q^2*c^2*b)*n + c^4

is the square of alpha*n - c^2 minus 4*q^2*c^2*b*n.  Both conditions
persist for every n >= t once they hold at t and t is at or past h's
vertex, so the threshold t is sound; it is the first such n when the
inequality fails at t - 1.

check_ceiling_threshold(cert, even_only) takes the
certificates.ceiling_threshold block that `seshadri verify --format json`
prints: the claim that m = 4 attains min{ceil(sqrt(n*(m^2-m+2)))/m : m in
2..7} for every n of the parity from threshold on, and at last_failure,
the n of the parity just below threshold, it does not.  It recomputes the
six ceilings at every n of the parity in [threshold, scanned_to] and at
last_failure.  Past scanned_to the claim rests on the analytic
certificates, whose first n of the parity are analytic_per_m: the scan
must reach the largest of them.
"""

from math import isqrt


def _ceil_sqrt(x: int) -> int:
    s = isqrt(x)
    return s if s * s == x else s + 1


def _lowest_terms(p: int, q: int) -> bool:
    while q:
        p, q = q, p % q
    return p == 1


def _parse(value: str) -> tuple[int, int]:
    p, _, q = value.partition("/")
    return int(p), int(q or 1)


def _tail_problems(n: int, p: int, q: int, tail: dict, scanned_to: int) -> list[str]:
    problems = []
    if _parse(tail["threshold"]) != (p, q):
        problems.append("tail threshold differs from value")
    nq2 = n * q * q
    if q == 1:
        derived, strict = (n - p * p, 2 * p - n, 2 * n - 1), True
    else:
        derived, strict = (nq2 - p * p, -nq2, 2 * nq2), False
    if tuple(tail["poly"]) != derived:
        problems.append("poly is not derived from (n, value)")
    if tail["strict"] is not strict:
        problems.append("strict is not q == 1")
    a, b, c = tail["poly"]
    cutoff = tail["cutoff"]
    if not 2 <= cutoff <= scanned_to + 1:
        problems.append("cutoff outside [2, scanned_to + 1]")
    v = (a * cutoff + b) * cutoff + c
    holds = v > 0 if tail["strict"] else v >= 0
    disc = b * b - 4 * a * c
    rising = holds and a >= 0 and a * (2 * cutoff + 1) + b >= 0
    no_root = a > 0 and (disc < 0 or (disc == 0 and not tail["strict"]))
    if not (rising or no_root):
        problems.append("poly does not hold from cutoff on")
    return problems


def check_certified_min(n: int, cert: dict) -> list[str]:
    """The checks that cert fails as a certified_min certificate of n."""
    p, q = _parse(cert["value"])
    problems = [] if p >= 0 and q >= 1 and _lowest_terms(p, q) else ["value not in lowest terms"]
    scanned_to = cert["scanned_to"]
    equal = set()
    for m in range(2, scanned_to + 1):
        d = _ceil_sqrt(n * (m * m - m + 2))
        if d * q < p * m:
            problems.append(f"ratio at m={m} below value")
        elif d * q == p * m:
            equal.add(m)
    if equal != set(cert["argmins"]):
        problems.append("argmins are not the scanned minimizers")
    if cert["certified"] != ("tail" in cert):
        problems.append("certified flag disagrees with the tail")
    if "tail" in cert:
        problems += _tail_problems(n, p, q, cert["tail"], scanned_to)
    return problems


def check_sqrt_linear(params: tuple[int, int, int, int, int], cert: dict,
                      even_first: int | None = None) -> list[str]:
    """The checks that cert fails as the threshold certificate of params.

    even_first, when given, is the first even n of that inequality's truth
    set, as printed under certificates.ceiling_threshold.analytic_per_m.
    """
    p, a, q, b, c = params
    alpha = p * p * a - q * q * b
    h = (alpha * alpha, -(2 * alpha * c * c + 4 * q * q * c * c * b), c**4)
    t = cert["threshold"]

    def holds(n: int) -> bool:
        return alpha * n >= c * c and (h[0] * n + h[1]) * n + h[2] >= 0

    problems = []
    if tuple(cert["poly"]) != h:
        problems.append("poly is not h of (p, a, q, b, c)")
    if not holds(t):
        problems.append("inequality fails at threshold")
    if 2 * h[0] * t + h[1] < 0:
        problems.append("threshold before the vertex of h")
    if holds(t - 1):
        problems.append("inequality holds at threshold - 1")
    if even_first is not None and even_first != t + t % 2:
        problems.append("even threshold is not the first even n from threshold")
    return problems


def _four_attains_the_minimum(n: int) -> bool:
    d4 = _ceil_sqrt(14 * n)
    return all(d4 * m <= _ceil_sqrt(n * (m * m - m + 2)) * 4 for m in (2, 3, 5, 6, 7))


def check_ceiling_threshold(cert: dict, even_only: bool) -> list[str]:
    """The checks that cert fails as the ceiling threshold of the parity."""
    step = 2 if even_only else 1
    threshold, last_failure = cert["threshold"], cert["last_failure"]
    scanned_to = cert["scanned_to"]
    problems = []
    if threshold % step or threshold < 2:
        problems.append("threshold is not an n >= 2 of the parity")
    if last_failure is None:
        if threshold != 2:
            problems.append("no last failure, but the threshold is not 2")
    else:
        if last_failure != threshold - step:
            problems.append("last failure is not the n of the parity before the threshold")
        if _four_attains_the_minimum(last_failure):
            problems.append("m = 4 attains the minimum at the last failure")
    if scanned_to + 1 < max(cert["analytic_per_m"].values()):
        problems.append("scan stops before the analytic threshold")
    failures = [n for n in range(threshold, scanned_to + 1, step)
                if not _four_attains_the_minimum(n)]
    if failures:
        problems.append(f"m = 4 does not attain the minimum at n = {failures[0]}")
    return problems
