"""The paper's bound against exact Seshadri constants from Pell's equation.

Th. Bauer (Math. Ann. 312, 1998) computes the Seshadri constant of a
(1, d)-polarized abelian surface with Picard number 1.  With N = 2d it is
sqrt(N) when N is a square, and otherwise N*k0/l0, where (l0, k0) is the
primitive solution of l^2 - N*k^2 = 1.  The paper's bound holds on every
abelian surface, so lower_bound_small(N) <= eps_Pell(N) <= sqrt(N).  The
value N*k0/l0 is also realized by (d, m) = (N*k0, l0) in Omega(N), so it
is one of the listed candidates whenever l0 is within max_m.

The oracle solves the equation by the integer continued fraction of
sqrt(N) and shares no code with the package.
"""

from fractions import Fraction
from math import isqrt

from seshadri.bounds import candidate_values, lower_bound_small, omega_contains

PELL_TO = 2 * 10**4
PELL_MAX_M = 12


def pell_primitive(n: int) -> tuple[int, int]:
    """The primitive (l0, k0) of l^2 - n*k^2 = 1, n > 0 not a square.

    Walks the continued fraction of sqrt(n) in integers: with
    a_j = floor((a0 + r_j) / s_j), r_{j+1} = a_j*s_j - r_j and
    s_{j+1} = (n - r_{j+1}^2) / s_j, the convergents h/k of [a0; a1, ...]
    reach the primitive solution first among those with h^2 - n*k^2 = 1.
    """
    a0 = isqrt(n)
    r, s, a = 0, 1, a0
    h, h_prev, k, k_prev = a0, 1, 1, 0
    while h * h - n * k * k != 1:
        r = a * s - r
        s = (n - r * r) // s
        a = (a0 + r) // s
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, k


def test_pell_primitive_small_cases():
    assert pell_primitive(2) == (3, 2)
    assert pell_primitive(6) == (5, 2)
    assert pell_primitive(8) == (3, 1)
    assert pell_primitive(13) == (649, 180)
    assert pell_primitive(94) == (2143295, 221064)


def test_bound_is_at_most_the_pell_seshadri_constant():
    equal, listed = [], []
    for n in range(2, PELL_TO + 1, 2):
        bound = lower_bound_small(n).value
        p, q = bound.numerator, bound.denominator
        s = isqrt(n)
        if s * s == n:
            assert p <= s * q, n  # the bound is at most sqrt(N)
            if p == s * q:
                equal.append(n)
            continue
        l0, k0 = pell_primitive(n)
        assert l0 * l0 == 1 + n * k0 * k0
        assert p * l0 <= n * k0 * q, n  # bound <= N*k0/l0
        assert n * k0 * k0 < l0 * l0  # N*k0/l0 < sqrt(N)
        assert omega_contains(n, n * k0, l0), n
        if p * l0 == n * k0 * q:
            equal.append(n)
        if l0 <= PELL_MAX_M:
            assert (Fraction(n * k0, l0), "omega") in candidate_values(n, PELL_MAX_M), n
            listed.append(n)
    assert equal == [2, 4, 8]
    assert len(listed) == 10
