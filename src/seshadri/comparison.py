"""Earlier lower bounds, the dominance chain, and the comparison table.

Three previously known lower bounds apply to the surfaces at hand, all of
the form (irrational constant) * sqrt(N):

    ssz_7_9      sqrt(7/9)*sqrt(N)  = (1/3)*sqrt(7N)   (any smooth surface,
                                      very general point)
    abelian_7_8  sqrt(7/8)*sqrt(N)  = (1/4)*sqrt(14N)  (abelian surfaces)
    hr_093       0.93*sqrt(N)                          (bielliptic surfaces)

prior_bound holds each as a RadicalBound (p/q)*sqrt(k), k = c*N, for
display.  Comparisons read p/q and c from PRIOR_BOUNDS, the table
prior_bound reads, and decide in integers, by cross-multiplying squares;
per unit N a prior bound squares to the pair (p^2*c, q^2).  The chain

    d_min(N,m)/m >= sqrt(N(2+m(m-1)))/m >= sqrt(14N)/4
                 >= 0.93*sqrt(N) > sqrt(7/9)*sqrt(N)

holds link by link for every m in 2..7 and every N >= 2 (the last link
strictly for every N >= 1).  dominance_check, its one owner, verifies it
in integers: only the first link, f >= g, reads N, and the other three
are decided on the (p^2*c, q^2) pairs.  comparison_table asks it per row.

The eight-row comparison table is regenerated from the exact values.  Two
of the sixteen prior-bound cells as printed in the source table disagree
with their own defining formulas (both in the abelian column: N=5000
prints 66.1439 where sqrt(4375) rounds to 66.1438, and N=20000 prints
132.2676 where sqrt(17500) rounds to 132.2876).  These are recorded in
KNOWN_TABLE_ERRATA; regeneration reports them as documented discrepancies
rather than silently matching either side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bounds import SMALL_MS, SmallBound, _require, d_min, lower_bound_small
from .exactmath import RadicalBound, format_decimal

#: name -> (p/q, c): the earlier bound (p/q)*sqrt(c*N), in the order bound prints them
PRIOR_BOUNDS = {
    "abelian_7_8": (Fraction(1, 4), 14),
    "hr_093": (Fraction(93, 100), 1),
    "ssz_7_9": (Fraction(1, 3), 7),
}

#: the printed columns of the comparison table, after n
TABLE_COLUMNS = ("abelian_7_8", "hr_093", "new_bound")


def prior_bound(name: str, n: int) -> RadicalBound:
    """The named earlier bound at self-intersection n, as an exact radical."""
    _require("self-intersection", n, 1)
    if name not in PRIOR_BOUNDS:
        raise ValueError(f"unknown prior bound {name!r}; expected one of {tuple(PRIOR_BOUNDS)}")
    coef, c = PRIOR_BOUNDS[name]
    return RadicalBound(coef, c * n)


class TableRow(NamedTuple):
    n: int
    abelian_7_8: RadicalBound
    hr_093: RadicalBound
    new_bound: SmallBound

    def cells(self, decimals: int = 4, trim: bool = True) -> tuple[str, str, str]:
        """The TABLE_COLUMNS cells rendered at decimals digits."""
        return (self.abelian_7_8.decimal(decimals, trim), self.hr_093.decimal(decimals, trim),
                format_decimal(self.new_bound.value, decimals, trim))


def comparison_table(ns: list[int]) -> list[TableRow]:
    """One row per n: the two prior bounds and the new minimum.

    Each row is guarded by dominance_check(n), so every link of the chain
    is checked exactly (not at rendered precision), the unprinted ssz_7_9
    link included; a violation raises.
    """
    rows = []
    for n in ns:
        if not dominance_check(n):
            raise AssertionError(f"dominance chain violated at n={n}")
        rows.append(TableRow(n, prior_bound("abelian_7_8", n), prior_bound("hr_093", n),
                             lower_bound_small(n)))
    return rows


def dominance_check(n: int) -> bool:
    """Every link of the chain, exactly, for all m in 2..7.

    Each link compares squares by integer cross-multiplication, with each
    prior bound read once per call from PRIOR_BOUNDS, the table prior_bound
    reads, so the bounds checked are the ones printed.  Only f >= g, the
    ceiling property d_min(n,m)^2 >= n*(2+m(m-1)), reads n; the other three
    are decided on the pairs (p^2*c, q^2), each prior square per unit n:
    g >= sqrt(14N)/4 is 16*(2+m(m-1)) >= 14*m^2, that is (m-4)^2 >= 0;
    sqrt(14N)/4 >= 0.93*sqrt(N) is 14*10000 >= 8649*16;
    the final link is strict: 8649*9 > 7*10000.
    """
    _require("self-intersection", n, 2)
    coef, c = PRIOR_BOUNDS["abelian_7_8"]
    ab_num, ab_den = coef.numerator ** 2 * c, coef.denominator ** 2
    coef, c = PRIOR_BOUNDS["hr_093"]
    hr_num, hr_den = coef.numerator ** 2 * c, coef.denominator ** 2
    coef, c = PRIOR_BOUNDS["ssz_7_9"]
    ssz_num, ssz_den = coef.numerator ** 2 * c, coef.denominator ** 2
    for m in SMALL_MS:
        g_num = m * (m - 1) + 2  # g(n,m)^2 = n * g_num / m^2
        if d_min(n, m) ** 2 < n * g_num:  # f >= g
            return False
        if g_num * ab_den < ab_num * m * m:  # g >= sqrt(14N)/4
            return False
    return (ab_num * hr_den >= hr_num * ab_den  # sqrt(14N)/4 >= 0.93 sqrt(N)
            and hr_num * ssz_den > ssz_num * hr_den)  # strict final link


#: the source table: columns (abelian_7_8, hr_093, new_bound), decimal
#: comma normalized to ".", at 4 digits with exact values printed minimally
PAPER_TABLE_NS = (2, 6, 8, 10, 50, 100, 5000, 20000)
PAPER_TABLE_PRINTED = {
    2: ("1.3229", "1.3152", "1.3333"),
    6: ("2.2913", "2.2780", "2.3333"),
    8: ("2.6458", "2.6304", "2.6667"),
    10: ("2.9580", "2.9409", "3"),
    50: ("6.6144", "6.5761", "6.6667"),
    100: ("9.3541", "9.3", "9.4"),
    5000: ("66.1439", "65.7609", "66.25"),
    20000: ("132.2676", "131.5219", "132.5"),
}

#: printed cells that provably contradict their own defining formula:
#: (n, column) -> (printed, exact rendering)
KNOWN_TABLE_ERRATA = {
    (5000, "abelian_7_8"): ("66.1439", "66.1438"),
    (20000, "abelian_7_8"): ("132.2676", "132.2876"),
}


class CellDiscrepancy(NamedTuple):
    n: int
    column: str
    printed: str
    computed: str
    documented: bool  # True when listed in KNOWN_TABLE_ERRATA


def table_vs_printed() -> list[CellDiscrepancy]:
    """Regenerate the source table and diff it cell-by-cell.

    Returns the list of cells whose exact rendering differs from the
    printed value; entries found in KNOWN_TABLE_ERRATA are flagged as
    documented.  An empty list apart from documented entries means the
    regeneration byte-matches the source after separator normalization.
    """
    discrepancies = []
    for row in comparison_table(list(PAPER_TABLE_NS)):
        for col, have, want in zip(TABLE_COLUMNS, row.cells(), PAPER_TABLE_PRINTED[row.n]):
            if have != want:
                documented = KNOWN_TABLE_ERRATA.get((row.n, col)) == (want, have)
                discrepancies.append(CellDiscrepancy(row.n, col, want, have, documented))
    return discrepancies
