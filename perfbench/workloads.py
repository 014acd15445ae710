"""Seeded inputs for the three benchmark workloads.

Each generator returns one pass: the list of CLI invocations the closed
loop repeats until its time is up.  The same seed always gives the same
pass.  Only valid inputs are generated, so every invocation should exit 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

FORMATS = ("text", "csv", "json")

#: width of the census_sweep range; its start lies below 10^4, so the sweep
#: runs far past the analytic threshold 8776
CENSUS_SPAN = 240_000

#: invocations of each kind per block of the query mix: one per example of the
#: package README's CLI section whose kind the mix covers, so `bound`, which
#: has two examples there, has weight 2.  The README's other examples are
#: left out: `verify` and `census --to 10000` are sweeps, `table --preset
#: paper` and `bielliptic types` print fixed tables, and the mix does not
#: cover `star-check`.
QUERY_MIX = {"bound": 2, "table": 1, "candidates": 1, "census": 1, "omega": 1,
             "ratio": 1, "intersect": 1, "fiber-degrees": 1}

#: blocks in one pass of the query mix: 2016 invocations, so 20 lie beyond
#: the p99 of a pass
QUERY_BLOCKS = 224


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the number of self-intersections N its arguments name.

    `verify` names none: the N it sweeps are internal to it.  It counts as
    one, so that n_per_s is never 0 and reads 1/wall_s there.
    """

    args: tuple[str, ...]
    n_examined: int


def verify(seed: int) -> list[Op]:
    del seed  # the reproduction has fixed inputs
    return [Op(("verify", "--format", "json"), 1)]


def census_sweep(seed: int) -> list[Op]:
    start = random.Random(seed).randrange(2, 10_000)
    stop = start + CENSUS_SPAN
    first = start + start % 2
    return [Op(("census", "--from", str(start), "--to", str(stop)),
               len(range(first, stop + 1, 2)))]


def _log_int(rng: random.Random, u: float, lo: int, hi: int) -> int:
    """Integer at quantile u of a log-uniform law on [lo, hi], with random low digits."""
    x = math.log10(lo) + u * (math.log10(hi) - math.log10(lo))
    tail = max(0, int(x) - 15)
    n = int(10 ** (x - tail)) * 10**tail + rng.randrange(10**tail)
    return min(max(n, lo), hi)


def _strata(rng: random.Random, k: int) -> list[float]:
    """k quantiles in increasing order, one drawn in each of k equal strata.

    Stratifying keeps the share of large inputs equal across seeds.  Callers
    also derive the options that change an invocation's cost (format,
    --max-m) from the stratum index, so the slowest invocations, which set
    the p99, are the same kind of work for every seed.
    """
    return [(i + rng.random()) / k for i in range(k)]


def _pair(rng: random.Random, lo: int, hi: int) -> str:
    return f"{rng.randint(lo, hi)},{rng.randint(lo, hi)}"


def _rendering(rng: random.Random, i: int) -> list[str]:
    args = ["--format", FORMATS[i % 3]]
    if rng.random() < 0.3:
        args += ["--decimals", str(rng.randrange(0, 11))]
    if rng.random() < 0.2:
        args.append("--full-precision")
    return args


def _query(kind: str, i: int, u: float, rng: random.Random) -> Op:
    if kind == "bound":
        n = _log_int(rng, u, 2, 10**40)
        return Op(("bound", "--n", str(n), *_rendering(rng, i)), 1)
    if kind == "table":
        ns = [_log_int(rng, rng.random(), 2, 10**12) for _ in range(1 + int(u * 8))]
        return Op(("table", "--ns", ",".join(map(str, ns)), *_rendering(rng, i)), len(ns))
    if kind == "candidates":
        n = _log_int(rng, u, 2, 10**5)
        return Op(("candidates", "--n", str(n), "--max-m", str(2 + i % 6),
                   "--format", FORMATS[i // 6 % 3]), 1)
    if kind == "census":
        start = _log_int(rng, rng.random(), 2, 10**6)
        stop = start + int(u * 40)
        return Op(("census", "--from", str(start), "--to", str(stop), "--per-n",
                   "--include-odd", "--format", FORMATS[i % 3]), stop - start + 1)
    if kind == "omega":
        n = _log_int(rng, u, 2, 10**12)
        m = rng.randint(2, 12)
        d = max(1, math.isqrt(n * (m * m - m + 2)) + rng.randint(-2, 2))
        which = (["--d", str(d)], ["--m", str(m)], ["--d", str(d), "--m", str(m)])[i % 3]
        return Op(("omega", "--n", str(n), *which, "--format", FORMATS[i // 3 % 3]), 1)
    fmt = ("text", "json")[i % 2]
    surface = str(rng.randint(1, 7))
    if kind == "ratio":
        return Op(("bielliptic", "ratio", "--type", surface, "--ample", _pair(rng, 1, 30),
                   "--curve", _pair(rng, 0, 30), "--m", str(rng.randint(1, 6)),
                   "--format", fmt), 0)
    if kind == "intersect":
        return Op(("bielliptic", "intersect", "--type", surface, "--c1", _pair(rng, -30, 30),
                   "--c2", _pair(rng, -30, 30), "--format", fmt), 0)
    return Op(("bielliptic", "fiber-degrees", "--type", surface, "--class",
               _pair(rng, -30, 30), "--format", fmt), 0)


def query_mix(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for kind, per_block in QUERY_MIX.items():
        k = per_block * QUERY_BLOCKS
        ops += [_query(kind, i, u, rng) for i, u in enumerate(_strata(rng, k))]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"verify": verify, "census_sweep": census_sweep, "query_mix": query_mix}
