"""Bound machinery: admissible set, certified minima, thresholds, census."""

import random
from fractions import Fraction

import pytest

from seshadri.bounds import (
    RADICAND_MULTIPLIERS,
    analytic_threshold,
    candidate_values,
    ceiling_threshold,
    census,
    certified_min,
    check_f7,
    d_min,
    lower_bound_small,
    m_max,
    m_max_closed_form,
    omega_contains,
    sqrt58_threshold,
    sqrt_linear_threshold,
    tail_cutoff,
)
from seshadri.exactmath import is_square

SEED = 20200817


class TestOmega:
    def test_membership_examples(self):
        assert omega_contains(2, 3, 2)       # 9 >= 2*4
        assert not omega_contains(2, 3, 3)   # 9 < 2*8
        assert omega_contains(2, 4, 3)       # 16 = 16 boundary

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            omega_contains(2, 3, 1)
        with pytest.raises(ValueError):
            omega_contains(2, 0, 2)

    def test_d_min_examples(self):
        assert d_min(2, 3) == 4
        assert d_min(100, 5) == 47
        assert d_min(5000, 4) == 265

    def test_d_min_is_extremal(self):
        rng = random.Random(SEED)
        for _ in range(1000):
            n, m = rng.randint(1, 5000), rng.randint(2, 50)
            d = d_min(n, m)
            assert omega_contains(n, d, m)
            assert d == 1 or not omega_contains(n, d - 1, m)

    def test_m_max_examples(self):
        assert m_max(1, 4) == 4     # m=4: 14 <= 16; m=5: 22 > 16
        assert m_max(2, 3) == 2
        assert m_max(2, 2) is None  # 4 < 8

    def test_m_max_agrees_with_closed_form(self):
        rng = random.Random(SEED)
        for _ in range(1000):
            n, d = rng.randint(1, 500), rng.randint(1, 200)
            assert m_max(n, d) == m_max_closed_form(n, d)

    def test_duality(self):
        # omega_contains(n,(d,m)) <=> d >= d_min(n,m) <=> m <= m_max(n,d)
        rng = random.Random(SEED + 2)
        for _ in range(1500):
            n = rng.randint(2, 500)
            d = rng.randint(1, 200)
            m = rng.randint(2, 50)
            member = omega_contains(n, d, m)
            assert member == (d >= d_min(n, m))
            top = m_max(n, d)
            assert member == (top is not None and m <= top)


class TestLowerBoundSmall:
    def test_radicand_multipliers(self):
        assert RADICAND_MULTIPLIERS == {2: 4, 3: 8, 4: 14, 5: 22, 6: 32, 7: 44}

    def test_examples(self):
        b2 = lower_bound_small(2)
        assert (b2.value, b2.argmins) == (Fraction(4, 3), frozenset({3, 6}))
        b100 = lower_bound_small(100)
        assert (b100.value, b100.argmins) == (Fraction(47, 5), frozenset({5}))
        b4 = lower_bound_small(4)
        assert b4.value == 2
        assert b4.argmins == frozenset({2, 3, 4, 5, 6, 7})

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            lower_bound_small(1)

    def test_g_monotonicity_cross_multiplied(self):
        # (m2^2-m2+2) m1^2 > (m1^2-m1+2) m2^2 for 4 <= m1 < m2, reversed below 4
        rng = random.Random(SEED)
        for _ in range(1000):
            m1 = rng.randint(4, 999)
            m2 = rng.randint(m1 + 1, 1000)
            assert (m2 * m2 - m2 + 2) * m1 * m1 > (m1 * m1 - m1 + 2) * m2 * m2
        for m1, m2 in ((2, 3), (2, 4), (3, 4)):
            assert (m2 * m2 - m2 + 2) * m1 * m1 < (m1 * m1 - m1 + 2) * m2 * m2

    def test_f_dominates_g_with_equality_iff_square(self):
        rng = random.Random(SEED + 3)
        for _ in range(1000):
            n, m = rng.randint(2, 2000), rng.randint(2, 40)
            radicand = n * (m * (m - 1) + 2)
            d = d_min(n, m)
            assert d * d >= radicand  # f >= g after clearing the common 1/m
            assert (d * d == radicand) == is_square(radicand)


class TestCertifiedMin:
    def test_agrees_with_small_minimum(self):
        for n in (2, 4, 100, 4981, 9999):
            cert = certified_min(n)
            assert cert.certified
            assert cert.value == lower_bound_small(n).value

    def test_n2(self):
        cert = certified_min(2, scan_cap=10**4)
        assert cert.value == Fraction(4, 3)
        assert cert.certified

    def test_n4_linear_case(self):
        cert = certified_min(4, scan_cap=10**4)
        assert cert.value == 2
        w = cert.tail_witness
        assert w is not None
        assert w.poly == (0, 0, 7) and w.strict  # 0*m^2 + 0*m + 7 > 0

    def test_n100(self):
        cert = certified_min(100, scan_cap=10**4)
        assert cert.value == Fraction(47, 5)
        assert cert.certified

    def test_certificate_shape(self):
        cert = certified_min(360)
        ratios = {m: Fraction(d_min(360, m), m) for m in range(2, cert.scanned_to + 1)}
        assert cert.value == min(ratios.values())
        assert cert.argmins == frozenset(
            m for m, v in ratios.items() if v == cert.value
        )
        assert cert.tail_witness.cutoff <= cert.scanned_to + 1

    def test_tail_soundness_spot_checks(self):
        rng = random.Random(SEED)
        for n in (2, 4, 9, 37, 360, 4981):
            cert = certified_min(n)
            w = cert.tail_witness
            for _ in range(1000):
                m = rng.randint(w.cutoff, w.cutoff + 10**6)
                assert w.holds_at(m)
                assert Fraction(d_min(n, m), m) >= cert.value

    def test_witness_implies_published_quadratic(self):
        # the stored polynomial is at least as strong as
        # (n q^2 - p^2) m^2 + (2pq - n q^2) m + q^2 (2n - 1) > 0
        rng = random.Random(SEED + 4)
        for _ in range(200):
            n = rng.randint(2, 5000)
            cert = certified_min(n)
            w = cert.tail_witness
            p, q = w.threshold.numerator, w.threshold.denominator
            for _ in range(5):
                m = rng.randint(w.cutoff, w.cutoff + 10**4)
                weak = (n * q * q - p * p) * m * m + (2 * p * q - n * q * q) * m \
                    + q * q * (2 * n - 1)
                assert weak > 0

    def test_uncertified_is_explicit(self):
        # N=3 certifies only at m=11; a cap of 8 must say so, not partial-answer
        cert = certified_min(3, scan_cap=8)
        assert not cert.certified
        assert cert.tail_witness is None
        assert cert.scanned_to == 8
        assert cert.value == Fraction(5, 3)

    def test_tail_cutoff_impossible_above_sqrt(self):
        # threshold above sqrt(n): parabola opens downward, no certificate
        assert tail_cutoff(2, Fraction(3, 2)) is None
        assert tail_cutoff(9, Fraction(3)) is None  # = sqrt(9), p >= 3


class TestCheckF7:
    def test_analytic_shortcircuit(self):
        report = check_f7(1072)
        assert report.status == "holds_analytic"
        assert report.holds_for_all_m
        assert not report.violations

    def test_n2_uncertified_with_violations(self):
        report = check_f7(2, scan_cap=2000)
        assert report.threshold == Fraction(10, 7)
        assert report.status == "uncertified"
        # e.g. m = 10: ceil(sqrt(2*92)) = 14, and 14/10 < 10/7
        assert any(m == 10 for m, _, _ in report.violations)
        assert Fraction(d_min(2, 10), 10) < Fraction(10, 7)

    def test_n3_certified_counterexamples(self):
        report = check_f7(3, scan_cap=10**4)
        assert report.status == "counterexamples_complete"
        found = {m for m, _, _ in report.violations}
        assert {9, 10, 13}.issubset(found)
        for m, value, threshold in report.violations:
            assert value == Fraction(d_min(3, m), m)
            assert value < threshold

    def test_violation_free_case(self):
        report = check_f7(5, scan_cap=10**4)
        assert report.status in ("holds_scanned", "holds_analytic")
        assert report.holds_for_all_m

    def test_sweep_summary(self):
        # frozen by an exhaustive run: 74 certified violation lists in
        # [2, 1070], N = 2 the only uncertified value
        with_viol = 0
        uncertified = []
        for n in range(2, 1071):
            report = check_f7(n, scan_cap=10**5)
            if report.status == "uncertified":
                uncertified.append(n)
            elif report.violations:
                with_viol += 1
        assert with_viol == 74
        assert uncertified == [2]


class TestCensus:
    def test_single_points(self):
        assert census(4, 4).counts == {2: 1}
        assert census(42, 42).counts == {7: 1}

    def test_even_counts_match_published(self):
        report = census(2, 10_000, even_only=True)
        assert report.counts == {2: 1, 3: 59, 4: 4656, 5: 274, 6: 9, 7: 1}
        by_class: dict[int, list[int]] = {}
        for n, bound in report.per_n.items():
            by_class.setdefault(bound.smallest_argmin, []).append(n)
        assert by_class[2] == [4]
        assert max(by_class[3]) == 1012
        assert max(by_class[5]) == 4980
        assert max(by_class[6]) == 294
        assert by_class[7] == [42]

    def test_all_integer_counts(self):
        # no published anchor; frozen from an exhaustive run of this code
        # and an independent brute-force min over m in 2..7
        report = census(2, 10_000, even_only=False)
        assert report.counts == {2: 1, 3: 111, 4: 9319, 5: 541, 6: 21, 7: 6}
        assert report.n_examined == 9999

    def test_per_n_consistency(self):
        report = census(600, 700, even_only=False)
        for n, bound in report.per_n.items():
            assert bound == lower_bound_small(n)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            census(1, 10)
        with pytest.raises(ValueError):
            census(10, 2)


class TestThresholds:
    def test_sqrt58(self):
        assert sqrt58_threshold() == 1072

    def test_sqrt_linear_threshold_none_when_unreachable(self):
        assert sqrt_linear_threshold(1, 4, 1, 4, 1) is None

    def test_analytic_per_m(self):
        report = analytic_threshold()
        assert report.per_m == {2: 15, 3: 1143, 5: 8775, 6: 1143, 7: 421}
        assert report.threshold == 8775

    def test_analytic_per_m2_by_hand(self):
        # smallest N with sqrt(N)*(4 - sqrt(14)) >= 1: 4 N^2 - 60 N + 1 >= 0
        # via the reduced parameters (4, 1, 1, 14, 1)
        reduced = sqrt_linear_threshold(4, 1, 1, 14, 1)
        assert reduced.threshold == 15
        assert 4 * 15 * 15 - 60 * 15 + 1 >= 0
        assert 4 * 14 * 14 - 60 * 14 + 1 < 0

    def test_m3_equals_m6_certificate_identity(self):
        report = analytic_threshold()
        c3, c6 = report.certificates[3], report.certificates[6]
        assert c3.threshold == c6.threshold
        assert c3.normalized_poly() == c6.normalized_poly() == (4, -4572, 81)

    def test_analytic_even_domain(self):
        report = analytic_threshold(even_only=True)
        assert report.per_m == {2: 16, 3: 1144, 5: 8776, 6: 1144, 7: 422}
        assert report.threshold == 8776

    def test_ceiling_even(self):
        report = ceiling_threshold(even_only=True)
        assert report.threshold == 4982
        assert report.last_failure == 4980

    def test_ceiling_all_integers(self):
        # frozen from the exhaustive scan; the odd value 5285 still has its
        # minimum at m = 5
        report = ceiling_threshold(even_only=False)
        assert report.threshold == 5286
        assert report.last_failure == 5285

    def test_ceiling_sanity_points(self):
        b4980 = lower_bound_small(4980)
        assert 4 not in b4980.argmins or b4980.value != Fraction(d_min(4980, 4), 4)
        assert lower_bound_small(4982).value == Fraction(d_min(4982, 4), 4)


class TestCandidateValues:
    def test_fiber_part(self):
        fibers = [v for v, kind in candidate_values(10, 2) if kind == "integer_fiber"]
        assert fibers == [1, 2, 3]

    def test_omega_part_starts_above_excluded_ratio(self):
        omega = [v for v, kind in candidate_values(2, 3) if kind == "omega"]
        assert omega[0] == Fraction(4, 3)
        assert Fraction(3, 2) not in omega  # 3/2 > sqrt(2)

    def test_boundary_exclusion(self):
        omega = [v for v, kind in candidate_values(4, 2) if kind == "omega"]
        assert omega == []  # d_min(4,2)/2 = 2 = sqrt(4), not strictly below

    def test_sorted_and_deduplicated(self):
        values = candidate_values(50, 9)
        assert values == sorted(values, key=lambda item: (item[0], item[1]))
        omega = [v for v, kind in values if kind == "omega"]
        assert len(omega) == len(set(omega))
