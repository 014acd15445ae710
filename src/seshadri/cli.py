"""Command-line front end.

Subcommands: bound, omega, candidates, census, verify, table, and the
bielliptic group (types, intersect, fiber-degrees, star-check, ratio).
Output formats: aligned text (default), CSV (RFC-style commas, "."
decimal points), and JSON.

Each command is a function from its own options to one report dict, its
JSON output.  click types read every option value.  _command registers the
command, appends --format (csv only where it has a CSV renderer) and is the
one writer of every report, with the schema keys and the command's name,
and of every library refusal, a ValueError, as a usage error.  The
renderers only read the report, so formats cannot disagree.  Every usage
error, click's own too, leaves through the root context, which cuts it.

Every JSON report carries the keys {command, inputs, status,
exact_values, decimal_renderings, certificates, paper_expectations}.
_json writes it directly, byte for byte json.dumps(sort_keys=True, indent=2).
Exact rationals appear as "p/q" strings; radicals as {"coef": "p/q",
"radicand": "n"}.  Decimal renderings never feed back into computation.

Exit codes: 0 all checks pass (status "ok"); 1 a discrepancy, counterexample
or uncertified result; 2 a usage error or any argument the library refuses.
"""

from __future__ import annotations

import io
import json
import re
import sys
from collections.abc import Callable
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _ascii
from typing import NoReturn

import click

from . import bielliptic, bounds, comparison
from .exactmath import RadicalBound, _decimal, format_decimal

EXIT_OK = 0
EXIT_DISCREPANCY = 1

#: most N that census --per-n lists; each one costs a ceil_sqrt
MAX_CENSUS_LISTING = 10**5

#: most N that table --ns takes; each one costs a dominance check and a rendered row
MAX_TABLE_NS = 1000

#: largest --decimals, and most digits of every integer input.  A radicand,
#: certificate coefficient or intersection number then has about 2*MAX_N_DIGITS
#: digits, and a rendered decimal about 2*MAX_N_DIGITS + MAX_DECIMALS (a
#: bielliptic ratio), whose integer part and decimals are converted apart.  Each
#: conversion stays below Python's default limit of 4300 digits on int to string.
MAX_DECIMALS = 2000
MAX_N_DIGITS = 2000

#: most decimals that candidates renders in all, its value count times --decimals.
#: table needs no check of its own: MAX_TABLE_NS rows of 3 cells at MAX_DECIMALS
#: are 6*10^6 decimals
MAX_RENDERED_DECIMALS = 10**7

#: most digits of a number, and most printed characters of other values, that a usage error shows
MAX_QUOTED = 20

FORMATS = ("text", "csv", "json")
NO_CSV = ("text", "json")

#: schema keys of every JSON report, with the values a report may leave out
SCHEMA_DEFAULTS = {
    "inputs": {}, "status": "ok", "exact_values": {},
    "decimal_renderings": {}, "certificates": {}, "paper_expectations": {},
}


def _rat_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _radical_json(rb: RadicalBound) -> dict:
    return {"coef": _rat_str(rb.coef), "radicand": str(rb.radicand)}


def _join(values, sep: str = " ") -> str:
    return sep.join(map(str, values))


def _json(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, written directly.

    With an indent json runs its pure-Python encoder.  This writer sorts
    dict items on their original keys as json does, escapes every str with
    json's C encode_basestring_ascii, writes str leaves inline, and leaves
    a top-level str, bools, None, floats, non-str keys (json.dumps({key: 0})
    is '{"key": 0}') and the TypeError of anything else to json.dumps.
    """
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{\n" + inner + sep.join([
            f"{_ascii(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]}: "
            f"{_ascii(v) if isinstance(v, str) else _json(v, inner)}"
            for k, v in sorted(value.items())]) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[\n" + inner + sep.join([_ascii(v) if isinstance(v, str) else _json(v, inner)
                                         for v in value]) + "\n" + indent + "]"
    return json.dumps(value)


#: a str as repr writes it (its quote, its text), and whole printed characters of such a
#: text; re compiles each on the first usage error, not at every start
_LITERAL = r"(?s)(['\"])((?:(?!\1)[^\\]|\\.)*)\1"
_PRINTED = r"(?:\\(?:x[0-9a-f]{2}|u[0-9a-f]{4}|U[0-9a-f]{8}|[^xuU])|[^\\])*"
_LONG_NUMBER = re.compile(rf"\d{{{MAX_QUOTED + 1},}}")


def _short(message: str) -> str:
    """message with click's extra arguments (quoted first), each literal and each digit run
    past MAX_QUOTED printed characters cut to its first ones and its length.  It evaluates
    nothing, and a second pass, which a subcommand's error gets, changes nothing."""
    extra = re.fullmatch(r"(?s)(Got unexpected extra arguments?) \((.*)\)", message)
    if extra and len(repr(extra[2])) - 2 > MAX_QUOTED:
        message = f"{extra[1]} {extra[2]!r}"
    message = re.sub(_LITERAL, lambda lit: lit[0] if len(lit[2]) <= MAX_QUOTED else
                     f"{lit[1]}{re.match(_PRINTED, lit[2][:MAX_QUOTED])[0]}{lit[1]}"
                     f"... ({len(lit[2])} characters)", message)
    return _LONG_NUMBER.sub(lambda run: f"{run[0][:MAX_QUOTED]}... ({len(run[0])} digits)", message)


class _Context(click.Context):
    """The root context: every usage error leaves the CLI through its __exit__."""

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, click.ClickException):
            exc.message = _short(exc.message)
        return super().__exit__(exc_type, exc, tb)


class _Int(click.types.IntParamType):
    """The type of every unbounded integer option.  It refuses a value past
    MAX_N_DIGITS digits unread; int() refuses one past 4300."""

    def convert(self, value, param, ctx):
        if isinstance(value, str) and len(value.strip().lstrip("+-")) > MAX_N_DIGITS:
            self.fail(f"an integer input has at most {MAX_N_DIGITS} digits", param, ctx)
        return super().convert(value, param, ctx)


class _IntRange(click.IntRange):
    """The type of every bounded integer option; it reads its value as _Int does."""

    def convert(self, value, param, ctx):
        return super().convert(_Int().convert(value, param, ctx), param, ctx)


class _IntList(click.ParamType):
    """Comma-separated integers, each read by item, "" as []; with a size, that many."""

    name = "text"

    def __init__(self, item: click.ParamType, size: int | None = None) -> None:
        self.item, self.size = item, size

    def convert(self, value, param, ctx) -> list[int]:
        parts = value.split(",") if value else []
        if self.size is not None and len(parts) != self.size:
            self.fail(f"expected {self.size} integers, got {value!r}", param, ctx)
        return [self.item.convert(part, param, ctx) for part in parts]


_decimals_option = click.option("--decimals", default=4, show_default=True,
                                type=_IntRange(0, MAX_DECIMALS))
_full_precision_option = click.option("--full-precision", is_flag=True,
                                      help="Keep trailing zeros in decimals.")
_n_option = click.option("--n", required=True, type=_IntRange(min=2),
                         help="Self-intersection N = L^2 (>= 2).")


@click.group()
def cli() -> None:
    """Exact Seshadri-constant lower bounds on abelian and bielliptic surfaces."""


cli.context_class = _Context


def _command(group: click.Group, text: Callable,
             csv_table: Callable | None = None) -> Callable[[Callable[..., dict]], click.Command]:
    """Register the decorated function, from its options to its report, on group.

    click names the command after the function ("_" as "-"), and its last
    option is --format, with csv exactly when csv_table is given.  Its report's
    "command" is its name, after "bielliptic " in that group.  A ValueError of
    the library is a usage error.  Else it writes the report in
    the chosen format, text(report) giving the text lines and csv_table(report)
    the CSV header and rows, and exits 0 if the status is "ok", else 1.
    """
    def register(compute: Callable[..., dict]) -> click.Command:
        command = group.command()(compute)
        command.params.append(click.Option(["--format", "fmt"], default="text",
                                           type=click.Choice(FORMATS if csv_table else NO_CSV)))
        label = command.name if group is cli else f"{group.name} {command.name}"

        def write(fmt: str, **options) -> NoReturn:
            try:
                report = {**SCHEMA_DEFAULTS, "command": label, **compute(**options)}
            except ValueError as exc:
                raise click.UsageError(str(exc))
            if fmt == "json":
                click.echo(_json(report))
            elif fmt == "csv":
                import csv  # only CSV output needs it; every other start skips its import
                header, rows = csv_table(report)
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerows([header, *rows])
                click.echo(buf.getvalue(), nl=False)
            else:
                click.echo("\n".join(text(report)))
            sys.exit(EXIT_OK if report["status"] == "ok" else EXIT_DISCREPANCY)

        command.callback = write
        return command
    return register


def _bound_text(r: dict) -> list[str]:
    decimal = r["decimal_renderings"]
    cert = r["certificates"]["certified_min"]
    lines = [
        f"N = {r['inputs']['n']}",
        f"lower bound: {r['exact_values']['lower_bound']} = {decimal['lower_bound']}"
        f"   (minimizing m: {{{_join(r['argmins'], ', ')}}})",
    ]
    lines += [f"prior {name:<12} {value}" for name, value in decimal["priors"].items()]
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
        ["n", "bound", "bound_decimal", "argmins", *decimal["priors"], "status"],
        [[r["inputs"]["n"], r["exact_values"]["lower_bound"], decimal["lower_bound"],
          _join(r["argmins"]), *decimal["priors"].values(), r["status"]]],
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


@_command(cli, _bound_text, _bound_csv)
@_n_option
@click.option("--scan-cap", default=bounds.DEFAULT_SCAN_CAP, show_default=True,
              type=_IntRange(min=bounds.MIN_SCAN_CAP))
@_decimals_option
@_full_precision_option
def bound(n: int, scan_cap: int, decimals: int, full_precision: bool) -> dict:
    """Certified lower bound for epsilon(L, x) with L^2 = N.

    The status is "discrepancy" when the certified minimum over all m
    differs from the six-term minimum printed as the bound.
    """
    trim = not full_precision
    small = bounds.lower_bound_small(n)
    cert = bounds.certified_min(n, scan_cap)
    priors = {name: comparison.prior_bound(name, n) for name in comparison.PRIOR_BOUNDS}
    if not cert.certified:
        status = "uncertified"
    elif cert.value != small.value:
        status = "discrepancy"
    else:
        status = "ok"
    return {
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
    }


def _omega_csv(r: dict) -> tuple[list[str], list[list]]:
    header = ["n", "d", "m", "contains", "d_min", "m_max"]
    row = {**r["inputs"], **r["membership"]}
    return header, [[row.get(key) for key in header]]


@_command(cli, lambda r: [f"{key}: {value}" for key, value in r["membership"].items()],
          _omega_csv)
@_n_option
@click.option("--d", type=_IntRange(min=1), default=None, help="Degree L.C.")
@click.option("--m", type=_IntRange(min=2), default=None, help="Multiplicity (>= 2).")
def omega(n: int, d: int | None, m: int | None) -> dict:
    """Membership and extremal coordinates of the admissible set."""
    if d is None and m is None:
        raise click.UsageError("provide --d, --m, or both")
    info: dict = {}
    if m is not None:
        info["d_min"] = bounds.d_min(n, m)
    if d is not None:
        info["m_max"] = bounds.m_max(n, d)
    if d is not None and m is not None:
        info["contains"] = bounds.omega_contains(n, d, m)
    return {"inputs": {"n": n, "d": d, "m": m}, "membership": info}


def _candidate_rows(r: dict) -> list[list[str]]:
    return [[c["value"], decimal, c["kind"]] for c, decimal in zip(
        r["exact_values"]["candidates"], r["decimal_renderings"]["candidates"])]


def _candidates_text(r: dict) -> list[str]:
    return [f"{value:>12}  {decimal:>10}  {kind}" for value, decimal, kind in _candidate_rows(r)]


@_command(cli, _candidates_text, lambda r: (["value", "decimal", "kind"], _candidate_rows(r)))
@_n_option
@click.option("--max-m", default=7, show_default=True, type=_IntRange(min=2))
@_decimals_option
def candidates(n: int, max_m: int, decimals: int) -> dict:
    """Admissible ratios below sqrt(N) and fiber integers up to it."""
    values = bounds.candidate_values(n, max_m)
    if len(values) * decimals > MAX_RENDERED_DECIMALS:
        raise click.UsageError(
            f"candidates renders at most {MAX_RENDERED_DECIMALS} decimals, and "
            f"{len(values)} values at --decimals {decimals} are {len(values) * decimals}")
    return {
        "inputs": {"n": n, "max_m": max_m},
        "exact_values": {"candidates": [{"value": f"{p}/{q}", "kind": kind}
                                        for p, q, kind in values]},
        "decimal_renderings": {"candidates": [_decimal(p, q, decimals, True)
                                              for p, q, _ in values]},
    }


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


@_command(cli, _census_text, _census_csv)
@click.option("--from", "start", required=True, type=_Int())
@click.option("--to", "stop", required=True, type=_Int())
@click.option("--include-odd", is_flag=True,
              help="Census all integers, not just even self-intersections.")
@click.option("--per-n", "verbose", is_flag=True, help="List every examined N.")
def census(start: int, stop: int, include_odd: bool, verbose: bool) -> dict:
    """Classify each N by the smallest minimizing multiplicity."""
    result = bounds.census(start, stop, even_only=not include_odd)
    if verbose and result.n_examined > MAX_CENSUS_LISTING:
        raise click.UsageError(
            f"--per-n lists at most {MAX_CENSUS_LISTING} N, and the range has more")
    report = {
        "inputs": {"from": start, "to": stop, "even_only": result.analytic.even_only},
        "counts": {str(k): v for k, v in result.counts.items()},
        "n_examined": result.n_examined,
    }
    if verbose:
        report["per_n"] = {
            str(b.n): {"value": _rat_str(b.value), "argmins": sorted(b.argmins)}
            for b in result.listing()
        }
    return report


def _table_csv(r: dict) -> tuple[list[str], list[list]]:
    header = ["n", *comparison.TABLE_COLUMNS]
    return header, [[row[key] for key in header] for row in r["decimal_renderings"]["rows"]]


def _table_text(r: dict) -> list[str]:
    lines = [f"{'L^2':>8}  {'abelian_7_8':>12}  {'hr_093':>10}  {'new_bound':>10}"]
    lines += [f"{n:>8}  {ab:>12}  {hr:>10}  {nb:>10}" for n, ab, hr, nb in _table_csv(r)[1]]
    return lines


@_command(cli, _table_text, _table_csv)
@click.option("--preset", type=click.Choice(["paper"]), default=None,
              help="Use the eight published self-intersections.")
@click.option("--ns", default=None, type=_IntList(_IntRange(min=2)),
              help="Comma-separated self-intersections.")
@_decimals_option
@_full_precision_option
def table(preset: str | None, ns: list[int] | None, decimals: int, full_precision: bool) -> dict:
    """Comparison table: prior bounds versus the new bound."""
    if (preset is None) == (ns is None) or ns == []:
        raise click.UsageError("provide exactly one of --preset paper and a non-empty --ns")
    values = list(comparison.PAPER_TABLE_NS) if preset else ns
    if len(values) > MAX_TABLE_NS:
        raise click.UsageError(f"--ns lists at most {MAX_TABLE_NS} N, got {len(values)}")
    rows = comparison.comparison_table(values)
    trim = not full_precision
    return {
        "inputs": {"ns": values, "decimals": decimals},
        "exact_values": {"rows": [
            {"n": row.n,
             "abelian_7_8": _radical_json(row.abelian_7_8),
             "hr_093": _radical_json(row.hr_093),
             "new_bound": _rat_str(row.new_bound.value)}
            for row in rows
        ]},
        "decimal_renderings": {"rows": [
            {"n": row.n, **dict(zip(comparison.TABLE_COLUMNS, row.cells(decimals, trim)))}
            for row in rows
        ]},
    }


def _verify_text(r: dict) -> list[str]:
    lines = ["anchored expectations:"]
    lines += [f"  [{'PASS' if check['pass'] else 'FAIL'}] {name}: {check['detail']}"
              for name, check in r["paper_expectations"].items()]
    lines.append("investigations (reported, not gating):")
    lines += [f"  [INFO] {name}: {detail}" for name, detail in r["investigations"].items()]
    lines.append("verify: " + ("all anchored checks pass" if r["status"] == "ok"
                               else "DISCREPANCY"))
    return lines


@_command(cli, _verify_text)
@click.option("--agreement-to", default=100_000, show_default=True,
              type=_IntRange(min=2),
              help="Upper end of the certified-minimum agreement sweep.")
@click.option("--scan-cap", default=100_000, show_default=True,
              type=_IntRange(min=bounds.MIN_SCAN_CAP),
              help="Scan cap for the per-multiplicity comparison sweep.")
def verify(agreement_to: int, scan_cap: int) -> dict:
    """Re-run each finite computation and compare with expectations.

    Expectations that the source states exactly must match and drive the
    exit code; investigations are reported and never fail (see
    seshadri.verify).
    """
    from .verify import run  # only this command needs it; every other start skips its import

    checks = run(agreement_to, scan_cap)
    anchored = {c.name: {"pass": c.passed, "detail": c.detail}
                for c in checks if c.passed is not None}
    return {
        "inputs": {"agreement_to": agreement_to, "scan_cap": scan_cap},
        "status": "ok" if all(c["pass"] for c in anchored.values()) else "discrepancy",
        "paper_expectations": anchored,
        "investigations": {c.name: c.detail for c in checks if c.passed is None},
        "certificates": {key: block for c in checks for key, block in c.certificates.items()},
    }


# ---------------------------------------------------------------------------
# bielliptic subcommands
# ---------------------------------------------------------------------------


@cli.group(name="bielliptic")
def bielliptic_group() -> None:
    """Intersection lattice of the seven bielliptic surface types."""


_type_option = click.option("--type", "type_index", required=True,
                            type=_IntRange(1, 7))
_CLASS = _IntList(_Int(), size=2)


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


@_command(bielliptic_group, _types_text, _types_csv)
def types() -> dict:
    """Dump the seven-row table of numerical invariants."""
    return {"types": [
        {"type": k.type_index, "group": k.group, "gamma": k.group_order,
         "multiplicities": list(k.fiber_multiplicities), "mu": k.mu,
         "basis": list(k.basis_labels)}
        for k in bielliptic.SURFACE_KINDS
    ]}


@_command(bielliptic_group, lambda r: [r["exact_values"]["intersection"]])
@_type_option
@click.option("--c1", required=True, type=_CLASS)
@click.option("--c2", required=True, type=_CLASS)
def intersect(type_index: int, c1: list[int], c2: list[int]) -> dict:
    """Intersection number of two divisor classes."""
    d1, d2 = bielliptic.DivisorClass(*c1), bielliptic.DivisorClass(*c2)
    return {
        "inputs": {"type": type_index, "c1": str(d1), "c2": str(d2)},
        "exact_values": {"intersection": str(bielliptic.intersect(d1, d2))},
    }


@_command(bielliptic_group, lambda r: [f"L.E = {r['exact_values']['deg_E']}",
                                        f"L.F = {r['exact_values']['deg_F']}"])
@_type_option
@click.option("--class", "divisor", required=True, type=_CLASS, help="Divisor class a,b.")
def fiber_degrees(type_index: int, divisor: list[int]) -> dict:
    """Degrees L.E and L.F of a divisor class on the two fibers."""
    kind = bielliptic.surface_kind(type_index)
    cls = bielliptic.DivisorClass(*divisor)
    deg_e, deg_f = bielliptic.fiber_degrees(kind, cls)
    return {
        "inputs": {"type": type_index, "class": str(cls)},
        "exact_values": {"deg_E": str(deg_e), "deg_F": str(deg_f)},
    }


@_command(bielliptic_group, lambda r: ["true" if r["holds"] else "false"])
@click.option("--c2", "c2_value", required=True, type=_Int(), help="Self-intersection C^2.")
@click.option("--mults", default="", type=_IntList(_Int()),
              help="Comma-separated multiplicities >= 2.")
@click.option("--components", "r", default=None, type=_Int(),
              help="Component count r of a reduced curve (default: irreducible, r = 1).")
def star_check(c2_value: int, mults: list[int], r: int | None) -> dict:
    """Check C^2 >= 2r + sum m_i(m_i - 1) (r = 1: irreducible)."""
    passed = bielliptic.star_check_reducible(c2_value, 1 if r is None else r, mults)
    return {
        "inputs": {"c2": c2_value, "mults": mults, "components": r},
        "status": "ok" if passed else "violation",
        "holds": passed,
    }


@_command(bielliptic_group,
          lambda r: [f"{r['exact_values']['ratio']} = {r['decimal_renderings']['ratio']}"])
@_type_option
@click.option("--ample", required=True, type=_CLASS, help="Ample class a,b.")
@click.option("--curve", required=True, type=_CLASS, help="Curve class a,b.")
@click.option("--m", default=1, show_default=True, type=_IntRange(min=1))
@_decimals_option
def ratio(type_index: int, ample: list[int], curve: list[int], m: int, decimals: int) -> dict:
    """L.C / m as an exact rational."""
    value = bielliptic.seshadri_ratio(bielliptic.DivisorClass(*ample),
                                      bielliptic.DivisorClass(*curve), m)
    return {
        "inputs": {"type": type_index, "ample": _join(ample, ","), "curve": _join(curve, ","),
                   "m": m},
        "exact_values": {"ratio": _rat_str(value)},
        "decimal_renderings": {"ratio": format_decimal(value, decimals)},
    }


def main() -> None:
    cli(prog_name="seshadri")


if __name__ == "__main__":
    main()
