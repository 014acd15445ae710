"""Command-line front end.

Subcommands: bound, omega, candidates, census, verify, table, and the
bielliptic group (types, intersect, fiber-degrees, star-check, ratio).
Output formats: aligned text (default), CSV (RFC-style commas, "."
decimal points), and JSON.

Each command computes its values once into one report dict, which is
its JSON output, and hands it to _emit.  The command's text and CSV
renderers only read that dict, so the three formats cannot disagree.
_emit alone fills in the schema keys, writes and exits.

Every JSON report carries the keys {command, inputs, status,
exact_values, decimal_renderings, certificates, paper_expectations}.
Exact rationals appear as "p/q" strings; radicals as {"coef": "p/q",
"radicand": "n"}.  Decimal renderings never feed back into computation.

Exit codes: 0 all checks pass (status "ok"); 1 a verification produced a
discrepancy, counterexample or uncertified result; 2 usage error.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections.abc import Callable
from fractions import Fraction
from typing import NoReturn

import click

from . import bielliptic, bounds, comparison
from .exactmath import RadicalBound, format_decimal

EXIT_OK = 0
EXIT_DISCREPANCY = 1

FORMATS = ("text", "csv", "json")
NO_CSV = ("text", "json")

#: schema keys of every JSON report, with the values a report may leave out
SCHEMA_DEFAULTS = {
    "command": None, "inputs": {}, "status": "ok", "exact_values": {},
    "decimal_renderings": {}, "certificates": {}, "paper_expectations": {},
}

#: prior-bound columns in the order bound prints them
PRIOR_COLUMNS = ("abelian_7_8", "hr_093", "ssz_7_9")
#: columns of the comparison table
TABLE_COLUMNS = ("n", "abelian_7_8", "hr_093", "new_bound")


def _rat_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _radical_json(rb: RadicalBound) -> dict:
    return {"coef": _rat_str(rb.coef), "radicand": str(rb.radicand)}


def _join(values, sep: str = " ") -> str:
    return sep.join(map(str, values))


def _emit(fmt: str, report: dict, text: Callable, csv_table: Callable | None = None) -> NoReturn:
    """Write the report in fmt and exit 0 if its status is "ok", else 1.

    text(report) gives the lines of the text rendering and csv_table(report)
    the CSV header and rows; only the one for fmt is called.
    """
    if fmt == "json":
        click.echo(json.dumps({**SCHEMA_DEFAULTS, **report}, sort_keys=True, indent=2))
    elif fmt == "csv":
        header, rows = csv_table(report)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo("\n".join(text(report)))
    sys.exit(EXIT_OK if report.get("status", "ok") == "ok" else EXIT_DISCREPANCY)


def _format_option(formats: tuple[str, ...] = FORMATS):
    return click.option("--format", "fmt", type=click.Choice(formats), default="text")


_decimals_option = click.option("--decimals", default=4, show_default=True,
                                type=click.IntRange(min=0))
_full_precision_option = click.option("--full-precision", is_flag=True,
                                      help="Keep trailing zeros in decimals.")


def _positive_int(_ctx, param, value):
    if value is not None and value < 2:
        raise click.UsageError(f"--{param.name} must be >= 2, got {value}")
    return value


_n_option = click.option("--n", required=True, type=int, callback=_positive_int,
                         help="Self-intersection N = L^2 (>= 2).")


@click.group()
def cli() -> None:
    """Exact Seshadri-constant lower bounds on abelian and bielliptic surfaces."""


@cli.command()
@_n_option
@click.option("--scan-cap", default=bounds.DEFAULT_SCAN_CAP, show_default=True,
              type=click.IntRange(min=bounds.MIN_SCAN_CAP))
@_decimals_option
@_format_option()
@_full_precision_option
def bound(n: int, scan_cap: int, decimals: int, fmt: str, full_precision: bool) -> None:
    """Certified lower bound for epsilon(L, x) at self-intersection N.

    The status is "discrepancy" when the certified minimum over all m
    differs from the six-term minimum printed as the bound.
    """
    trim = not full_precision
    small = bounds.lower_bound_small(n)
    cert = bounds.certified_min(n, scan_cap)
    priors = {name: comparison.prior_bound(name, n) for name in comparison.PRIOR_BOUND_NAMES}
    if not cert.certified:
        status = "uncertified"
    elif cert.value != small.value:
        status = "discrepancy"
    else:
        status = "ok"
    _emit(fmt, {
        "command": "bound",
        "inputs": {"n": n, "scan_cap": scan_cap, "decimals": decimals},
        "status": status,
        "exact_values": {
            "lower_bound": _rat_str(small.value),
            "priors": {k: _radical_json(v) for k, v in priors.items()},
        },
        "decimal_renderings": {
            "lower_bound": format_decimal(small.value, decimals, trim),
            "priors": {k: v.decimal(decimals, trim) for k, v in priors.items()},
        },
        "argmins": sorted(small.argmins),
        "certificates": {"certified_min": _cert_json(cert)},
    }, _bound_text, _bound_csv)


def _bound_text(r: dict) -> list[str]:
    decimal = r["decimal_renderings"]
    cert = r["certificates"]["certified_min"]
    lines = [
        f"N = {r['inputs']['n']}",
        f"lower bound: {r['exact_values']['lower_bound']} = {decimal['lower_bound']}"
        f"   (minimizing m: {{{_join(r['argmins'], ', ')}}})",
    ]
    lines += [f"prior {name:<12} {decimal['priors'][name]}" for name in PRIOR_COLUMNS]
    if cert["certified"]:
        lines.append(f"certified over all m >= 2 (scanned to m={cert['scanned_to']}, "
                     f"tail cutoff m={cert['tail']['cutoff']})")
    else:
        lines.append(f"UNCERTIFIED at scan cap {r['inputs']['scan_cap']}")
    if r["status"] == "discrepancy":
        lines.append(f"DISCREPANCY: the certified minimum is {cert['value']}")
    return lines


def _bound_csv(r: dict) -> tuple[list[str], list[list]]:
    decimal = r["decimal_renderings"]
    return (
        ["n", "bound", "bound_decimal", "argmins", *PRIOR_COLUMNS, "status"],
        [[r["inputs"]["n"], r["exact_values"]["lower_bound"], decimal["lower_bound"],
          _join(r["argmins"]), *(decimal["priors"][k] for k in PRIOR_COLUMNS),
          r["status"]]],
    )


def _cert_json(cert: bounds.BoundCertificate) -> dict:
    out = {
        "value": _rat_str(cert.value),
        "argmins": sorted(cert.argmins),
        "scanned_to": cert.scanned_to,
        "certified": cert.certified,
    }
    if cert.tail_witness is not None:
        w = cert.tail_witness
        out["tail"] = {
            "threshold": _rat_str(w.threshold),
            "cutoff": w.cutoff,
            "poly": list(w.poly),
            "strict": w.strict,
        }
    return out


@cli.command()
@_n_option
@click.option("--d", type=int, default=None, help="Degree L.C.")
@click.option("--m", type=int, default=None, help="Multiplicity (>= 2).")
@_format_option()
def omega(n: int, d: int | None, m: int | None, fmt: str) -> None:
    """Membership and extremal coordinates of the admissible set."""
    if d is None and m is None:
        raise click.UsageError("provide --d, --m, or both")
    info: dict = {}
    if m is not None:
        if m < 2:
            raise click.UsageError(f"--m must be >= 2, got {m}")
        info["d_min"] = bounds.d_min(n, m)
    if d is not None:
        if d < 1:
            raise click.UsageError(f"--d must be >= 1, got {d}")
        info["m_max"] = bounds.m_max(n, d)
    if d is not None and m is not None:
        info["contains"] = bounds.omega_contains(n, d, m)
    _emit(fmt, {
        "command": "omega",
        "inputs": {"n": n, "d": d, "m": m},
        "membership": info,
    }, lambda r: [f"{key}: {value}" for key, value in r["membership"].items()], _omega_csv)


def _omega_csv(r: dict) -> tuple[list[str], list[list]]:
    header = ["n", "d", "m", "contains", "d_min", "m_max"]
    row = {**r["inputs"], **r["membership"]}
    return header, [[row.get(key) for key in header]]


@cli.command()
@_n_option
@click.option("--max-m", default=7, show_default=True, type=int)
@_decimals_option
@_format_option()
def candidates(n: int, max_m: int, decimals: int, fmt: str) -> None:
    """Candidate values below sqrt(N): admissible ratios and fiber integers."""
    if max_m < 2:
        raise click.UsageError(f"--max-m must be >= 2, got {max_m}")
    values = bounds.candidate_values(n, max_m)
    _emit(fmt, {
        "command": "candidates",
        "inputs": {"n": n, "max_m": max_m},
        "exact_values": {"candidates": [{"value": _rat_str(v), "kind": kind}
                                        for v, kind in values]},
        "decimal_renderings": {"candidates": [format_decimal(v, decimals) for v, _ in values]},
    }, _candidates_text, lambda r: (["value", "decimal", "kind"], _candidate_rows(r)))


def _candidates_text(r: dict) -> list[str]:
    return [f"{value:>12}  {decimal:>10}  {kind}" for value, decimal, kind in _candidate_rows(r)]


def _candidate_rows(r: dict) -> list[list[str]]:
    return [[c["value"], decimal, c["kind"]] for c, decimal in zip(
        r["exact_values"]["candidates"], r["decimal_renderings"]["candidates"])]


@cli.command()
@click.option("--from", "start", required=True, type=int)
@click.option("--to", "stop", required=True, type=int)
@click.option("--include-odd", is_flag=True,
              help="Census all integers, not just even self-intersections.")
@click.option("--per-n", "verbose", is_flag=True, help="List every examined N.")
@_format_option()
def census(start: int, stop: int, include_odd: bool, verbose: bool, fmt: str) -> None:
    """Classify each N by the smallest minimizing multiplicity."""
    if not 2 <= start <= stop:
        raise click.UsageError(f"need 2 <= from <= to, got [{start}, {stop}]")
    result = bounds.census(start, stop, even_only=not include_odd)
    report = {
        "command": "census",
        "inputs": {"from": start, "to": stop, "even_only": result.even_only},
        "counts": {str(k): v for k, v in result.counts.items()},
        "n_examined": result.n_examined,
    }
    if verbose:
        report["per_n"] = {
            str(n): {"value": _rat_str(b.value), "argmins": sorted(b.argmins)}
            for n, b in sorted(result.per_n.items())
        }
    _emit(fmt, report, _census_text, _census_csv)


def _census_text(r: dict) -> list[str]:
    inputs = r["inputs"]
    domain = "even N" if inputs["even_only"] else "all N"
    lines = [f"census over {domain} in [{inputs['from']}, {inputs['to']}]: "
             f"{r['n_examined']} values"]
    lines += [f"  m={m}: {count}" for m, count in r["counts"].items()]
    lines += [f"  N={n}: {b['value']} at {{{_join(b['argmins'], ', ')}}}"
              for n, b in r.get("per_n", {}).items()]
    return lines


def _census_csv(r: dict) -> tuple[list[str], list[list]]:
    if "per_n" not in r:
        return ["m", "count"], [[m, c] for m, c in r["counts"].items()]
    return (["n", "value", "argmins", "smallest_argmin"],
            [[n, b["value"], _join(b["argmins"]), b["argmins"][0]]
             for n, b in r["per_n"].items()])


@cli.command()
@click.option("--preset", type=click.Choice(["paper"]), default=None,
              help="Use the eight published self-intersections.")
@click.option("--ns", default=None, help="Comma-separated self-intersections.")
@_decimals_option
@_full_precision_option
@_format_option()
def table(preset: str | None, ns: str | None, decimals: int, full_precision: bool,
          fmt: str) -> None:
    """Comparison table: prior bounds versus the new bound."""
    if preset == "paper":
        values = list(comparison.PAPER_TABLE_NS)
    elif ns:
        try:
            values = [int(part) for part in ns.split(",")]
        except ValueError as exc:
            raise click.UsageError(f"bad --ns list: {exc}")
    else:
        raise click.UsageError("provide --preset paper or --ns")
    if any(v < 2 for v in values):
        raise click.UsageError("every N must be >= 2")
    trim = not full_precision
    rows = comparison.comparison_table(values)
    _emit(fmt, {
        "command": "table",
        "inputs": {"ns": values, "decimals": decimals},
        "exact_values": {"rows": [
            {"n": row.n,
             "abelian_7_8": _radical_json(row.abelian_7_8),
             "hr_093": _radical_json(row.hr_093),
             "new_bound": _rat_str(row.new_bound.value)}
            for row in rows
        ]},
        "decimal_renderings": {"rows": [
            {"n": row.n,
             "abelian_7_8": row.abelian_7_8.decimal(decimals, trim),
             "hr_093": row.hr_093.decimal(decimals, trim),
             "new_bound": format_decimal(row.new_bound.value, decimals, trim)}
            for row in rows
        ]},
    }, _table_text, lambda r: (list(TABLE_COLUMNS), _table_rows(r)))


def _table_rows(r: dict) -> list[list]:
    return [[row[key] for key in TABLE_COLUMNS] for row in r["decimal_renderings"]["rows"]]


def _table_text(r: dict) -> list[str]:
    lines = [f"{'L^2':>8}  {'abelian_7_8':>12}  {'hr_093':>10}  {'new_bound':>10}"]
    lines += [f"{n:>8}  {ab:>12}  {hr:>10}  {nb:>10}" for n, ab, hr, nb in _table_rows(r)]
    return lines


@cli.command()
@click.option("--agreement-to", default=100_000, show_default=True, type=int,
              help="Upper end of the certified-minimum agreement sweep.")
@click.option("--scan-cap", default=100_000, show_default=True, type=int,
              help="Scan cap for the per-multiplicity comparison sweep.")
@_format_option(NO_CSV)
def verify(agreement_to: int, scan_cap: int, fmt: str) -> None:
    """Re-run every finite computation and compare against expectations.

    Expectations that the source states exactly (the 1072 inequality
    threshold, the even-N ceiling threshold 4982, the census counts, the
    comparison table, chain dominance, theorem-level agreement) must
    match and drive the exit code.  Under-specified quantities (the exact
    analytic threshold against the stated 8776, the per-multiplicity
    violation census) are reported as investigations and never fail.
    """
    anchored: dict[str, dict] = {}
    investigations: dict[str, str] = {}

    def anchor(name: str, passed: bool, detail: str) -> None:
        anchored[name] = {"pass": passed, "detail": detail}

    t = bounds.sqrt58_threshold()
    anchor("sqrt58_threshold", t == 1072, f"computed {t}, expected 1072")

    ceiling = bounds.ceiling_threshold(even_only=True)
    anchor("ceiling_threshold_even", ceiling.threshold == 4982,
           f"computed {ceiling.threshold} (last failure N={ceiling.last_failure}, "
           f"scan to {ceiling.scanned_to} + analytic tail), expected 4982")

    expected_counts = {2: 1, 3: 59, 4: 4656, 5: 274, 6: 9, 7: 1}
    cens = bounds.census(2, 10_000, even_only=True)
    anchor("census_even_counts", cens.counts == expected_counts,
           f"computed {cens.counts}, expected {expected_counts}")

    diffs = comparison.table_vs_printed()
    anchor("table_regeneration", all(d.documented for d in diffs),
           "all cells match the printed table" if not diffs else
           "; ".join(f"({d.n},{d.column}): computed {d.computed}, printed {d.printed}"
                     f"{' [documented erratum]' if d.documented else ''}" for d in diffs))

    agree_bad = []
    uncertified = []
    for n in range(2, agreement_to + 1):
        cert = bounds.certified_min(n)
        if not cert.certified:
            uncertified.append(n)
        elif cert.value != bounds.lower_bound_small(n).value:
            agree_bad.append(n)
    anchor("theorem_agreement", not agree_bad and not uncertified,
           f"swept N in [2, {agreement_to}]: "
           f"{len(agree_bad)} disagreements {agree_bad[:5]}, "
           f"{len(uncertified)} uncertified {uncertified[:5]}")

    dom_bad = [n for n in range(2, 10_001) if not comparison.dominance_check(n)]
    anchor("dominance_chain", not dom_bad,
           f"swept N in [2, 10000]: {len(dom_bad)} violations {dom_bad[:5]}")

    analytic = bounds.analytic_threshold()
    analytic_even = bounds.analytic_threshold(even_only=True)
    investigations["analytic_threshold"] = (
        f"all-integer {analytic.threshold} (per-m {analytic.per_m}), "
        f"even-N {analytic_even.threshold} (per-m {analytic_even.per_m}); "
        f"stated figure 8776"
    )

    f7_viol = 0
    f7_unc = []
    for n in range(2, 1071):
        rep = bounds.check_f7(n, scan_cap=scan_cap)
        if rep.status == "uncertified":
            f7_unc.append(n)
        elif rep.violations:
            f7_viol += 1
    investigations["per_m_comparison_f7"] = (
        f"N in [2, 1070]: {f7_viol} values with certified violation lists, "
        f"uncertified at {f7_unc} (threshold above sqrt(N) there); "
        f"theorem-level minimum unaffected (see theorem_agreement)"
    )

    all_int_census = bounds.census(2, 10_000, even_only=False)
    all_int_ceiling = bounds.ceiling_threshold(even_only=False)
    investigations["all_integer_variants"] = (
        f"census over all N in [2, 10000]: {all_int_census.counts}; "
        f"ceiling threshold over all integers: {all_int_ceiling.threshold} "
        f"(last failure N={all_int_ceiling.last_failure})"
    )

    ok = all(check["pass"] for check in anchored.values())
    _emit(fmt, {
        "command": "verify",
        "inputs": {"agreement_to": agreement_to, "scan_cap": scan_cap},
        "status": "ok" if ok else "discrepancy",
        "paper_expectations": anchored,
        "investigations": investigations,
        "certificates": {
            "ceiling_threshold": {
                "threshold": ceiling.threshold,
                "last_failure": ceiling.last_failure,
                "scanned_to": ceiling.scanned_to,
                "analytic_per_m": ceiling.analytic.per_m,
            },
            "analytic_threshold": {
                m: {"threshold": c.threshold, "poly": list(c.poly)}
                for m, c in analytic.certificates.items()
            },
        },
    }, _verify_text)


def _verify_text(r: dict) -> list[str]:
    lines = ["anchored expectations:"]
    lines += [f"  [{'PASS' if check['pass'] else 'FAIL'}] {name}: {check['detail']}"
              for name, check in r["paper_expectations"].items()]
    lines.append("investigations (reported, not gating):")
    lines += [f"  [INFO] {name}: {detail}" for name, detail in r["investigations"].items()]
    lines.append("verify: " + ("all anchored checks pass" if r["status"] == "ok"
                               else "DISCREPANCY"))
    return lines


# ---------------------------------------------------------------------------
# bielliptic subcommands
# ---------------------------------------------------------------------------


@cli.group(name="bielliptic")
def bielliptic_group() -> None:
    """Intersection lattice of the seven bielliptic surface types."""


def _parse_class(text: str) -> bielliptic.DivisorClass:
    try:
        a, b = (int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"divisor class must be 'a,b', got {text!r}")
    return bielliptic.DivisorClass(a, b)


_type_option = click.option("--type", "type_index", required=True,
                            type=click.IntRange(1, 7))


@bielliptic_group.command(name="types")
@_format_option()
def bielliptic_types(fmt: str) -> None:
    """Dump the seven-row table of numerical invariants."""
    _emit(fmt, {
        "command": "bielliptic types",
        "types": [
            {"type": k.type_index, "group": k.group, "gamma": k.group_order,
             "multiplicities": list(k.fiber_multiplicities), "mu": k.mu,
             "basis": list(k.basis_labels)}
            for k in bielliptic.SURFACE_KINDS
        ],
    }, _types_text, _types_csv)


def _types_text(r: dict) -> list[str]:
    lines = [f"{'type':>4}  {'group':<6} {'gamma':>5}  {'mults':<10} {'mu':>2}  basis"]
    lines += [f"{k['type']:>4}  {k['group']:<6} {k['gamma']:>5}  "
              f"{_join(k['multiplicities'], ','):<10} {k['mu']:>2}  {_join(k['basis'], ', ')}"
              for k in r["types"]]
    return lines


def _types_csv(r: dict) -> tuple[list[str], list[list]]:
    return (["type", "group", "gamma", "multiplicities", "mu", "basis"],
            [[k["type"], k["group"], k["gamma"], _join(k["multiplicities"]), k["mu"],
              _join(k["basis"])] for k in r["types"]])


@bielliptic_group.command(name="intersect")
@_type_option
@click.option("--c1", required=True)
@click.option("--c2", required=True)
@_format_option(NO_CSV)
def bielliptic_intersect(type_index: int, c1: str, c2: str, fmt: str) -> None:
    """Intersection number of two divisor classes."""
    kind = bielliptic.surface_kind(type_index)
    d1, d2 = _parse_class(c1), _parse_class(c2)
    _emit(fmt, {
        "command": "bielliptic intersect",
        "inputs": {"type": type_index, "c1": str(d1), "c2": str(d2)},
        "exact_values": {"intersection": str(bielliptic.intersect(kind, d1, d2))},
    }, lambda r: [r["exact_values"]["intersection"]])


@bielliptic_group.command(name="fiber-degrees")
@_type_option
@click.option("--class", "divisor", required=True, help="Divisor class a,b.")
@_format_option(NO_CSV)
def bielliptic_fiber_degrees(type_index: int, divisor: str, fmt: str) -> None:
    """Degrees L.E and L.F of a divisor class against the two fibrations."""
    kind = bielliptic.surface_kind(type_index)
    cls = _parse_class(divisor)
    deg_e, deg_f = bielliptic.fiber_degrees(kind, cls)
    _emit(fmt, {
        "command": "bielliptic fiber-degrees",
        "inputs": {"type": type_index, "class": str(cls)},
        "exact_values": {"deg_E": str(deg_e), "deg_F": str(deg_f)},
    }, lambda r: [f"L.E = {r['exact_values']['deg_E']}",
                  f"L.F = {r['exact_values']['deg_F']}"])


@bielliptic_group.command(name="star-check")
@click.option("--c2", "c2_value", required=True, type=int, help="Self-intersection C^2.")
@click.option("--mults", default="", help="Comma-separated multiplicities >= 2.")
@click.option("--components", "r", default=None, type=int,
              help="Component count for the reduced-curve form.")
@_format_option(NO_CSV)
def bielliptic_star_check(c2_value: int, mults: str, r: int | None, fmt: str) -> None:
    """Check C^2 against 2r + sum m_i(m_i - 1)  (r = 1: irreducible form)."""
    try:
        mult_list = [int(part) for part in mults.split(",") if part]
    except ValueError:
        raise click.UsageError(f"bad --mults list: {mults!r}")
    try:
        if r is None:
            passed = bielliptic.star_check_irreducible(c2_value, mult_list)
        else:
            passed = bielliptic.star_check_reducible(c2_value, r, mult_list)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(fmt, {
        "command": "bielliptic star-check",
        "inputs": {"c2": c2_value, "mults": mult_list, "components": r},
        "status": "ok" if passed else "violation",
        "holds": passed,
    }, lambda report: ["true" if report["holds"] else "false"])


@bielliptic_group.command(name="ratio")
@_type_option
@click.option("--ample", required=True, help="Ample class a,b.")
@click.option("--curve", required=True, help="Curve class a,b.")
@click.option("--m", default=1, show_default=True, type=int)
@_decimals_option
@_format_option(NO_CSV)
def bielliptic_ratio(type_index: int, ample: str, curve: str, m: int,
                     decimals: int, fmt: str) -> None:
    """L.C / m as an exact rational."""
    kind = bielliptic.surface_kind(type_index)
    try:
        value = bielliptic.seshadri_ratio(kind, _parse_class(ample), _parse_class(curve), m)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(fmt, {
        "command": "bielliptic ratio",
        "inputs": {"type": type_index, "ample": ample, "curve": curve, "m": m},
        "exact_values": {"ratio": _rat_str(value)},
        "decimal_renderings": {"ratio": format_decimal(value, decimals)},
    }, lambda r: [f"{r['exact_values']['ratio']} = {r['decimal_renderings']['ratio']}"])


def main() -> None:
    cli(prog_name="seshadri")


if __name__ == "__main__":
    main()
