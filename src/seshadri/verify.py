"""Every finite check of the paper, re-run in exact arithmetic.

run() returns one Check per anchored expectation and per investigation,
in the order `seshadri verify` prints them, each with the certificate
blocks that back it (the ceiling and analytic thresholds carry one each;
`seshadri verify` prints their union).  Anchored expectations are
figures the source states exactly (the 1072 inequality threshold, the
even-N ceiling threshold 4982, the census counts, the comparison table,
chain dominance, theorem-level agreement); they pass or fail.
Investigations are under-specified quantities (the exact analytic
threshold against the stated 8776, the per-multiplicity comparison
against m = 7, the all-integer variants); they are reported and never
fail.  agreement_sweep and f7_survey return the raw results of the two
long sweeps.
"""

from __future__ import annotations

from typing import NamedTuple

from . import bounds, comparison

__all__ = ["Check", "agreement_sweep", "f7_survey", "run"]

#: the even-N census counts over [2, 10000] stated in the source
EXPECTED_CENSUS = {2: 1, 3: 59, 4: 4656, 5: 274, 6: 9, 7: 1}


class Check(NamedTuple):
    """One check: passed is True/False when anchored, None for an investigation;
    certificates holds its JSON certificate blocks by key."""

    name: str
    passed: bool | None
    detail: str
    certificates: dict


def agreement_sweep(stop: int) -> tuple[list[int], list[int]]:
    """N in [2, stop] where the certified minimum disagrees with the
    six-term minimum, and N where it is uncertified.

    The certified minimum comes from certified_min's integer core
    bounds._certified_scans, one window over [2, stop] at certified_min's
    default scan cap, as an unreduced pair best_d/best_m with a flag that
    says whether it is certified; no witness or certificate object is built.
    The window takes d_min only the first time it reaches an m, and walks
    each degree up from its last value after that, with no square root; per
    m it keeps the running minimum after m and the first N from which its
    witness holds from m + 1 on, and recomputes them only from the first m
    whose degree moved, so most N cost a walk test and a comparison per m.
    The six-term minimum comes from the kernel bounds._small_columns, with no
    square root per N, as a numerator over SMALL_MS_LCM.  The two are
    compared by cross-multiplication.  The sweep reads no table and the scan
    does not use the kernel, so the two sides share no computation.
    """
    disagreements, uncertified = [], []
    smalls = map(min, *bounds._small_columns(2, stop))
    scans = bounds._certified_scans(2, stop, bounds.DEFAULT_SCAN_CAP)
    for n, small, (best_d, best_m, _, _, certified) in zip(range(2, stop + 1), smalls, scans):
        if not certified:
            uncertified.append(n)
        elif best_d * bounds.SMALL_MS_LCM != small * best_m:
            disagreements.append(n)
    return disagreements, uncertified


def f7_survey(scan_cap: int) -> tuple[int, list[int]]:
    """check_f7 over N in [2, 1070], below the analytic 1072 threshold:
    the count of N with a certified violation list, and the uncertified N."""
    with_violations, uncertified = 0, []
    for n in range(2, 1071):
        report = bounds.check_f7(n, scan_cap=scan_cap)
        if report.status == "uncertified":
            uncertified.append(n)
        elif report.violations:
            with_violations += 1
    return with_violations, uncertified


def run(agreement_to: int, scan_cap: int) -> list[Check]:
    """Re-run every check; agreement_to ends the agreement sweep and
    scan_cap bounds the per-multiplicity comparison."""
    t = bounds.sqrt58_threshold()
    cens = bounds.census(2, 10_000)
    ceiling = bounds.ceiling_threshold(even_only=True)
    diffs = comparison.table_vs_printed()
    bad, unc = agreement_sweep(agreement_to)
    dom_bad = [n for n in range(2, 10_001) if not comparison.dominance_check(n)]
    f7_viol, f7_unc = f7_survey(scan_cap)
    all_int_census = bounds.census(2, 10_000, even_only=False)
    all_int_ceiling = bounds.ceiling_threshold(even_only=False)
    analytic = all_int_ceiling.analytic
    return [
        Check("sqrt58_threshold", t == 1072, f"computed {t}, expected 1072", {}),
        Check("ceiling_threshold_even", ceiling.threshold == 4982,
              f"computed {ceiling.threshold} (last failure N={ceiling.last_failure}, "
              f"scan to {ceiling.scanned_to} + analytic tail), expected 4982",
              {"ceiling_threshold": {"threshold": ceiling.threshold,
                                     "last_failure": ceiling.last_failure,
                                     "scanned_to": ceiling.scanned_to,
                                     "analytic_per_m": ceiling.analytic.per_m}}),
        Check("census_even_counts", cens.counts == EXPECTED_CENSUS,
              f"computed {cens.counts}, expected {EXPECTED_CENSUS}", {}),
        Check("table_regeneration", all(d.documented for d in diffs),
              "all cells match the printed table" if not diffs else
              "; ".join(f"({d.n},{d.column}): computed {d.computed}, printed {d.printed}"
                        f"{' [documented erratum]' if d.documented else ''}" for d in diffs),
              {}),
        Check("theorem_agreement", not bad and not unc,
              f"swept N in [2, {agreement_to}]: {len(bad)} disagreements {bad[:5]}, "
              f"{len(unc)} uncertified {unc[:5]}", {}),
        Check("dominance_chain", not dom_bad,
              f"swept N in [2, 10000]: {len(dom_bad)} violations {dom_bad[:5]}", {}),
        Check("analytic_threshold", None,
              f"all-integer {analytic.threshold} (per-m {analytic.per_m}), "
              f"even-N {ceiling.analytic.threshold} (per-m {ceiling.analytic.per_m}); "
              f"stated figure 8776",
              {"analytic_threshold": {m: {"threshold": c.threshold, "poly": list(c.poly)}
                                      for m, c in ceiling.analytic.certificates.items()}}),
        Check("per_m_comparison_f7", None,
              f"N in [2, 1070]: {f7_viol} values with certified violation lists, "
              f"uncertified at {f7_unc} (threshold above sqrt(N) there); "
              f"theorem-level minimum unaffected (see theorem_agreement)", {}),
        Check("all_integer_variants", None,
              f"census over all N in [2, 10000]: {all_int_census.counts}; "
              f"ceiling threshold over all integers: {all_int_ceiling.threshold} "
              f"(last failure N={all_int_ceiling.last_failure})", {}),
    ]
