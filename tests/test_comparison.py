"""Prior bounds, the dominance chain, and table regeneration."""

from fractions import Fraction

import pytest

from seshadri.bounds import SMALL_MS
from seshadri.comparison import (
    KNOWN_TABLE_ERRATA,
    PAPER_TABLE_NS,
    PAPER_TABLE_PRINTED,
    PRIOR_BOUNDS,
    comparison_table,
    dominance_check,
    prior_bound,
    table_vs_printed,
)
from seshadri.exactmath import RadicalBound, format_decimal


class TestPriorBounds:
    def test_definitions(self):
        assert prior_bound("ssz_7_9", 9) == RadicalBound(Fraction(1, 3), 63)
        assert prior_bound("abelian_7_8", 8) == RadicalBound(Fraction(1, 4), 112)
        assert prior_bound("hr_093", 5) == RadicalBound(Fraction(93, 100), 5)

    def test_renderings(self):
        assert prior_bound("abelian_7_8", 2).decimal() == "1.3229"
        assert prior_bound("hr_093", 2).decimal() == "1.3152"
        assert prior_bound("ssz_7_9", 9).decimal() == "2.6458"  # sqrt(7)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            prior_bound("nope", 2)


def _square(name: str, n: int) -> tuple[int, int]:
    """The square p^2*k/q^2 of the prior bound (p/q)*sqrt(k), as (p^2*k, q^2)."""
    bound = prior_bound(name, n)
    return bound.coef.numerator ** 2 * bound.radicand, bound.coef.denominator ** 2


class TestDominance:
    def test_examples(self):
        assert dominance_check(2)
        assert dominance_check(20000)

    def test_final_link_strict_at_n1(self):
        # 0.93 > sqrt(7/9): (93/100)^2 vs 7/9 in integers, 77841 > 70000
        hr_num, hr_den = _square("hr_093", 1)
        ssz_num, ssz_den = _square("ssz_7_9", 1)
        assert hr_num * ssz_den > ssz_num * hr_den
        assert 8649 * 9 > 7 * 10000

    def test_prior_links_for_every_n(self):
        # sqrt(14N)/4 > 0.93*sqrt(N) for every N >= 1: 14/16 > 8649/10000
        # with N cancelled, 140000 > 138384
        assert 14 * 10000 > 8649 * 16
        for n in (1, 2, 17, 1000, 10**30 + 7):
            ab_num, ab_den = _square("abelian_7_8", n)
            hr_num, hr_den = _square("hr_093", n)
            ssz_num, ssz_den = _square("ssz_7_9", n)
            assert ab_num * hr_den > hr_num * ab_den
            assert hr_num * ssz_den > ssz_num * hr_den

    def test_links_as_identities_free_of_n(self):
        # g(n,m) >= sqrt(14N)/4 is 16n(m^2-m+2) >= 14n m^2, and the difference
        # over n is 2(m-4)^2 >= 0
        for m in SMALL_MS:
            assert 16 * (m * m - m + 2) - 14 * m * m == 2 * (m - 4) ** 2
        # with N cancelled, each prior bound (p/q)*sqrt(c*N) squares to p^2*c over q^2
        (ab, ab_den), (hr, hr_den), (ssz, ssz_den) = (
            (coef.numerator**2 * c, coef.denominator**2)
            for coef, c in (PRIOR_BOUNDS[name] for name in ("abelian_7_8", "hr_093", "ssz_7_9")))
        assert (ab, ab_den, hr, hr_den, ssz, ssz_den) == (14, 16, 8649, 10**4, 7, 9)
        assert ab * hr_den >= hr * ab_den  # 14*10^4 >= 16*8649: sqrt(14N)/4 >= 0.93*sqrt(N)
        assert hr * ssz_den > ssz * hr_den  # 9*8649 > 7*10^4: 0.93*sqrt(N) > sqrt(7N)/3

    def test_sweep(self):
        assert all(dominance_check(n) for n in range(2, 2001))

    def test_new_bound_beats_abelian_at_2(self):
        # 4/3 > sqrt(7/8)*sqrt(2): (4/3)^2 = 16/9 vs (7/8)*2 = 7/4, 64 > 63
        ab_num, ab_den = _square("abelian_7_8", 2)
        assert 4 * 4 * ab_den > ab_num * 3 * 3
        assert 16 * 4 > 7 * 9


class TestTable:
    def test_new_bound_column(self):
        rows = comparison_table(list(PAPER_TABLE_NS))
        rendered = [format_decimal(r.new_bound.value) for r in rows]
        assert rendered == ["1.3333", "2.3333", "2.6667", "3", "6.6667", "9.4",
                            "66.25", "132.5"]

    def test_hr_column_matches_printed(self):
        rows = comparison_table(list(PAPER_TABLE_NS))
        for row in rows:
            assert row.hr_093.decimal() == PAPER_TABLE_PRINTED[row.n][1]

    def test_abelian_column_known_errata_only(self):
        rows = comparison_table(list(PAPER_TABLE_NS))
        for row in rows:
            computed = row.abelian_7_8.decimal()
            printed = PAPER_TABLE_PRINTED[row.n][0]
            erratum = KNOWN_TABLE_ERRATA.get((row.n, "abelian_7_8"))
            if erratum is None:
                assert computed == printed
            else:
                assert (printed, computed) == erratum

    def test_diff_flags_only_documented_cells(self):
        diffs = table_vs_printed()
        assert all(d.documented for d in diffs)
        assert {(d.n, d.column) for d in diffs} == set(KNOWN_TABLE_ERRATA)

    def test_errata_cells_disagree_with_own_formula(self):
        # sqrt(4375) and sqrt(17500) provably round away from the printed
        # digits: bracket the printed value between consecutive squares
        assert 661437**2 < 4375 * 10**8 < 661438**2        # sqrt in (66.1437, 66.1438)
        assert (2 * 661437 + 1) ** 2 < 4 * 4375 * 10**8    # above midpoint -> 66.1438
        assert 1322875**2 < 17500 * 10**8 < 1322876**2     # sqrt in (132.2875, 132.2876)
        assert (2 * 1322875 + 1) ** 2 < 4 * 17500 * 10**8  # above midpoint -> 132.2876

    def test_regeneration_is_deterministic(self):
        first = [
            (r.n, r.abelian_7_8.decimal(), r.hr_093.decimal(),
             format_decimal(r.new_bound.value))
            for r in comparison_table(list(PAPER_TABLE_NS))
        ]
        second = [
            (r.n, r.abelian_7_8.decimal(), r.hr_093.decimal(),
             format_decimal(r.new_bound.value))
            for r in comparison_table(list(PAPER_TABLE_NS))
        ]
        assert first == second
