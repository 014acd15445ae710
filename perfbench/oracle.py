"""Output oracle for the seshadri CLI that shares no code with the package.

Every expected value is re-derived here from the defining inequalities
with math.isqrt and integer cross-multiplication only: no Fraction, no
float, no import from seshadri.  `check(args, code, out)` takes the
argument list of one CLI invocation, its exit code and its captured
standard output, and returns None when the output is right or a short
message saying what is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import re
from math import isqrt

SMALL_MS = (2, 3, 4, 5, 6, 7)

#: bielliptic type -> (mu, gamma): lcm of the singular-fiber multiplicities
#: and the group order, from the classification table of the paper
BIELLIPTIC_MU_GAMMA = {1: (2, 2), 2: (2, 4), 3: (4, 4), 4: (4, 8),
                       5: (3, 3), 6: (3, 9), 7: (6, 6)}

#: earlier bounds as coef_num/coef_den * sqrt(mult * N)
PRIORS = {"abelian_7_8": (1, 4, 14), "hr_093": (93, 100, 1), "ssz_7_9": (1, 3, 7)}

#: the new-bound column of the published eight-row table
PAPER_NEW_BOUND = {2: "1.3333", 6: "2.3333", 8: "2.6667", 10: "3", 50: "6.6667",
                   100: "9.4", 5000: "66.25", 20000: "132.5"}

#: census counts over even N in [2, 10000] stated in the paper
PAPER_CENSUS_EVEN = {2: 1, 3: 59, 4: 4656, 5: 274, 6: 9, 7: 1}

FLAGS = {"--per-n", "--include-odd", "--full-precision"}


class Mismatch(Exception):
    pass


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def ceil_sqrt(x: int) -> int:
    s = isqrt(x)
    return s if s * s == x else s + 1


def small_bound(n: int) -> tuple[int, int, list[int]]:
    """(d, m, argmins) with d/m = min of ceil(sqrt(n(m^2-m+2)))/m over m in 2..7."""
    best_d = best_m = 0
    argmins: list[int] = []
    for m in SMALL_MS:
        d = ceil_sqrt(n * (m * m - m + 2))
        if not argmins or d * best_m < best_d * m:
            best_d, best_m, argmins = d, m, [m]
        elif d * best_m == best_d * m:
            argmins.append(m)
    return best_d, best_m, argmins


def census_counts(start: int, stop: int, even_only: bool) -> dict[int, int]:
    """Counts of N in [start, stop] by smallest minimizing multiplicity."""
    counts: dict[int, int] = {}
    first = start + (start % 2) if even_only else start
    for n in range(first, stop + 1, 2 if even_only else 1):
        m = small_bound(n)[2][0]
        counts[m] = counts.get(m, 0) + 1
    return dict(sorted(counts.items()))


def decimal(p: int, q: int, k: int, trim: bool = True) -> str:
    """p/q >= 0 rounded to k digits, ties away from zero, trimmed if exact."""
    scale = 10**k
    t = (2 * p * scale + q) // (2 * q)
    text = str(t).rjust(k + 1, "0")
    if k:
        text = f"{text[:-k]}.{text[-k:]}"
        if trim and t * q == p * scale:
            text = text.rstrip("0").rstrip(".")
    return text


def radical_decimal(a: int, b: int, r: int, k: int, trim: bool = True) -> str:
    """(a/b)*sqrt(r) rounded to k digits; irrational values keep every digit."""
    s = isqrt(r)
    if s * s == r:
        return decimal(a * s, b, k, trim)
    t = (isqrt(4 * a * a * 10 ** (2 * k) * r) + b) // (2 * b)
    text = str(t).rjust(k + 1, "0")
    return f"{text[:-k]}.{text[-k:]}" if k else text


def _rat(text: str) -> tuple[int, int]:
    p, _, q = text.partition("/")
    return int(p), int(q)


def _same(text: str, p: int, q: int) -> bool:
    """Whether the "p/q" string equals p/q, by cross-multiplication."""
    a, b = _rat(text)
    return b > 0 and a * q == p * b


def _opts(args: list[str]) -> dict[str, str]:
    out, i = {}, 0
    while i < len(args):
        if args[i] in FLAGS:
            out[args[i]] = "1"
            i += 1
        elif args[i].startswith("--"):
            out[args[i]] = args[i + 1]
            i += 2
        else:
            i += 1
    return out


def _rows(out: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(out)))


def _argmin_list(text: str) -> list[int]:
    return [int(x) for x in re.findall(r"\d+", text)]


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _check_bound(o: dict, out: str) -> None:
    n, k, fmt = int(o["--n"]), int(o.get("--decimals", 4)), o.get("--format", "text")
    trim = "--full-precision" not in o
    d, m, argmins = small_bound(n)
    priors = {name: radical_decimal(a, b, r * n, k, trim)
              for name, (a, b, r) in PRIORS.items()}
    if fmt == "json":
        rep = json.loads(out)
        value = rep["exact_values"]["lower_bound"]
        got = (rep["argmins"], rep["decimal_renderings"]["lower_bound"],
               rep["decimal_renderings"]["priors"], rep["status"])
    elif fmt == "csv":
        (row,) = _rows(out)
        value = row["bound"]
        got = (_argmin_list(row["argmins"]), row["bound_decimal"],
               {name: row[name] for name in PRIORS}, row["status"])
    else:
        hit = re.search(r"^lower bound: (\S+) = (\S+)\s+\(minimizing m: \{([^}]*)\}\)$",
                        out, re.M)
        if hit is None or f"N = {n}\n" not in out:
            raise Mismatch("text layout not recognised")
        value = hit.group(1)
        got = (_argmin_list(hit.group(3)), hit.group(2),
               dict(re.findall(r"^prior (\S+)\s+(\S+)$", out, re.M)),
               "ok" if "\ncertified over all m >= 2" in out else "uncertified")
    if not _same(value, d, m):
        raise Mismatch(f"bound value {value}, want {d}/{m}")
    _expect("bound (argmins, decimal, priors, status)", got,
            (argmins, decimal(d, m, k, trim), priors, "ok"))


def _check_table(o: dict, out: str) -> None:
    ns = [int(x) for x in o["--ns"].split(",")]
    k, fmt = int(o.get("--decimals", 4)), o.get("--format", "text")
    trim = "--full-precision" not in o
    want = []
    for n in ns:
        d, m, _ = small_bound(n)
        want.append([str(n), radical_decimal(1, 4, 14 * n, k, trim),
                     radical_decimal(93, 100, n, k, trim), decimal(d, m, k, trim)])
    cols = ("n", "abelian_7_8", "hr_093", "new_bound")
    if fmt == "json":
        rep = json.loads(out)
        for row, n in zip(rep["exact_values"]["rows"], ns, strict=True):
            d, m, _ = small_bound(n)
            if row["n"] != n or not _same(row["new_bound"], d, m):
                raise Mismatch(f"table exact row {row}")
        got = [[str(r[c]) for c in cols] for r in rep["decimal_renderings"]["rows"]]
    elif fmt == "csv":
        got = [[r[c] for c in cols] for r in _rows(out)]
    else:
        got = [line.split() for line in out.splitlines()[1:]]
    _expect("table rows", got, want)


def _omega_member(n: int, p: int, q: int, max_m: int) -> bool:
    """Some d/m = p/q with 2 <= m <= max_m, d^2 >= n(m^2-m+2), p/q < sqrt(n)."""
    if p * p >= n * q * q:
        return False
    return any((j * p) ** 2 >= n * ((j * q) ** 2 - j * q + 2)
               for j in range(max(1, (2 + q - 1) // q), max_m // q + 1))


def _check_candidates(o: dict, out: str) -> None:
    n, max_m, fmt = int(o["--n"]), int(o.get("--max-m", 7)), o.get("--format", "text")
    k = int(o.get("--decimals", 4))
    if fmt == "json":
        rep = json.loads(out)
        items = [(c["value"], dec, c["kind"]) for c, dec in zip(
            rep["exact_values"]["candidates"], rep["decimal_renderings"]["candidates"],
            strict=True)]
    elif fmt == "csv":
        items = [(r["value"], r["decimal"], r["kind"]) for r in _rows(out)]
    else:
        items = [tuple(line.split()) for line in out.splitlines()]
    fibers = 0
    prev = None
    for value, dec, kind in items:
        p, q = _rat(value)
        if kind == "integer_fiber":
            fibers += 1
            ok = q == 1 and 1 <= p and p * p <= n
        else:
            ok = kind == "omega" and _omega_member(n, p, q, max_m)
        if not ok:
            raise Mismatch(f"candidate {value} ({kind}) is not a member")
        _expect(f"decimal of {value}", dec, decimal(p, q, k))
        if prev is not None:
            pp, pq, pkind = prev
            order = p * pq - pp * q
            if order < 0 or (order == 0 and kind <= pkind):
                raise Mismatch(f"candidates not sorted at {value}")
        prev = (p, q, kind)
    _expect("integer_fiber count", fibers, isqrt(n))


def _check_census(o: dict, out: str) -> None:
    start, stop = int(o["--from"]), int(o["--to"])
    even_only = "--include-odd" not in o
    per_n, fmt = "--per-n" in o, o.get("--format", "text")
    counts = census_counts(start, stop, even_only)
    examined = sum(counts.values())
    if fmt == "json":
        rep = json.loads(out)
        _expect("census counts", rep["counts"], {str(m): c for m, c in counts.items()})
        _expect("n_examined", rep["n_examined"], examined)
        rows = [(int(n), b["value"], b["argmins"]) for n, b in rep.get("per_n", {}).items()]
    elif fmt == "csv":
        if per_n:
            rows = [(int(r["n"]), r["value"], _argmin_list(r["argmins"])) for r in _rows(out)]
        else:
            got = {int(r["m"]): int(r["count"]) for r in _rows(out)}
            _expect("census counts", got, counts)
            rows = []
    else:
        domain = "even N" if even_only else "all N"
        if not out.startswith(f"census over {domain} in [{start}, {stop}]: "
                              f"{examined} values\n"):
            raise Mismatch("census header")
        got = {int(m): int(c) for m, c in re.findall(r"^  m=(\d+): (\d+)$", out, re.M)}
        _expect("census counts", got, counts)
        rows = [(int(n), v, _argmin_list(a))
                for n, v, a in re.findall(r"^  N=(\d+): (\S+) at \{([^}]*)\}$", out, re.M)]
    if per_n:
        _expect("per-N entries", sorted(r[0] for r in rows),
                list(range(start + (start % 2) if even_only else start, stop + 1,
                           2 if even_only else 1)))
    for n, value, argmins in rows:
        d, m, want = small_bound(n)
        if not _same(value, d, m) or argmins != want:
            raise Mismatch(f"census N={n}: {value} at {argmins}, want {d}/{m} at {want}")


def _check_omega(o: dict, out: str) -> None:
    n, fmt = int(o["--n"]), o.get("--format", "text")
    want: dict = {}
    if "--m" in o:
        m = int(o["--m"])
        want["d_min"] = ceil_sqrt(n * (m * m - m + 2))
    if "--d" in o:
        d = int(o["--d"])
        f = d * d // n - 2  # n(m^2-m+2) <= d^2  iff  m(m-1) <= f
        m_max = (isqrt(4 * f + 1) + 1) // 2 if f >= 0 else 0
        want["m_max"] = m_max if m_max >= 2 else None
    if "--m" in o and "--d" in o:
        want["contains"] = d * d >= n * (m * m - m + 2)
    if fmt == "json":
        got = json.loads(out)["membership"]
    elif fmt == "csv":
        (row,) = _rows(out)
        got = {key: row[key] for key in want}
        want = {key: "" if v is None else str(v) for key, v in want.items()}
    else:
        got = dict(line.split(": ") for line in out.splitlines())
        want = {key: str(v) for key, v in want.items()}
    _expect("omega", got, want)


def _pair(text: str) -> tuple[int, int]:
    a, b = text.split(",")
    return int(a), int(b)


def _check_bielliptic(sub: str, o: dict, out: str) -> None:
    fmt = o.get("--format", "text")
    rep = json.loads(out) if fmt == "json" else None
    if sub == "intersect":
        (a1, b1), (a2, b2) = _pair(o["--c1"]), _pair(o["--c2"])
        value = str(a1 * b2 + a2 * b1)
        got = rep["exact_values"]["intersection"] if rep else out.strip()
        _expect("intersection", got, value)
    elif sub == "fiber-degrees":
        mu, gamma = BIELLIPTIC_MU_GAMMA[int(o["--type"])]
        a, b = _pair(o["--class"])
        want = (str(mu * b), str(gamma // mu * a))
        got = ((rep["exact_values"]["deg_E"], rep["exact_values"]["deg_F"]) if rep else
               tuple(re.findall(r"^L\.[EF] = (-?\d+)$", out, re.M)))
        _expect("fiber degrees", got, want)
    elif sub == "ratio":
        (a1, b1), (a2, b2) = _pair(o["--ample"]), _pair(o["--curve"])
        p, q = a1 * b2 + a2 * b1, int(o.get("--m", 1))
        k = int(o.get("--decimals", 4))
        if rep:
            value, dec = rep["exact_values"]["ratio"], rep["decimal_renderings"]["ratio"]
        else:
            value, _, dec = out.strip().partition(" = ")
        if not _same(value, p, q):
            raise Mismatch(f"ratio {value}, want {p}/{q}")
        _expect("ratio decimal", dec, decimal(p, q, k))
    else:
        raise Mismatch(f"no oracle for bielliptic {sub}")


def _check_verify(out: str) -> None:
    rep = json.loads(out)
    _expect("verify status", rep["status"], "ok")
    exp = rep["paper_expectations"]
    failed = sorted(name for name, item in exp.items() if not item["pass"])
    _expect("failed anchored checks", failed, [])
    counts = census_counts(2, 10_000, True)
    _expect("oracle census over even [2, 10000]", counts, PAPER_CENSUS_EVEN)
    for name, needle in (("sqrt58_threshold", "computed 1072,"),
                         ("ceiling_threshold_even", "computed 4982 "),
                         ("census_even_counts", f"computed {counts},")):
        if needle not in exp[name]["detail"]:
            raise Mismatch(f"{name} detail lacks {needle!r}")
    for n, want in PAPER_NEW_BOUND.items():
        d, m, _ = small_bound(n)
        _expect(f"paper new bound at N={n}", decimal(d, m, 4), want)
    detail = exp["table_regeneration"]["detail"]
    for n, printed, exact in ((5000, "66.1439", radical_decimal(1, 4, 14 * 5000, 4)),
                              (20000, "132.2676", radical_decimal(1, 4, 14 * 20000, 4))):
        cell = (f"({n},abelian_7_8): computed {exact}, printed {printed} "
                "[documented erratum]")
        if cell not in detail:
            raise Mismatch(f"table erratum at N={n} not reported as {cell!r}")
    if "all-integer 8775" not in rep["investigations"]["analytic_threshold"] or \
            "even-N 8776" not in rep["investigations"]["analytic_threshold"]:
        raise Mismatch("analytic thresholds 8775/8776 not reported")


def check(args: list[str], code: int, out: str) -> str | None:
    """None when (code, out) is the right result of `seshadri <args>`."""
    if code != 0:
        return f"exit code {code}"
    o = _opts(args)
    try:
        if args[0] == "bielliptic":
            _check_bielliptic(args[1], o, out)
        elif args[0] == "verify":
            _check_verify(out)
        else:
            {"bound": _check_bound, "table": _check_table,
             "candidates": _check_candidates, "census": _check_census,
             "omega": _check_omega}[args[0]](o, out)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"
    return None
