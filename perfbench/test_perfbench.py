"""Tests of the benchmark itself: oracle, generators and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from seshadri import bounds  # noqa: E402
from seshadri.cli import cli  # noqa: E402
from seshadri.exactmath import RadicalBound, format_decimal  # noqa: E402

invoke = run.Invoker(cli)


def test_oracle_agrees_with_package_on_small_range():
    for n in range(2, 600):
        d, m, argmins = oracle.small_bound(n)
        small = bounds.lower_bound_small(n)
        assert Fraction(d, m) == small.value and argmins == sorted(small.argmins)
        for k in (0, 1, 4, 7):
            assert oracle.decimal(d, m, k) == format_decimal(small.value, k)
            assert oracle.decimal(d, m, k, False) == format_decimal(small.value, k, False)
            assert oracle.radical_decimal(1, 4, 14 * n, k) == \
                RadicalBound(Fraction(1, 4), 14 * n).decimal(k)
    assert oracle.census_counts(2, 3000, False) == bounds.census(2, 3000, even_only=False).counts
    assert oracle.census_counts(2, 10_000, True) == oracle.PAPER_CENSUS_EVEN


@pytest.mark.parametrize("workload", ["query_mix", "census_sweep"])
def test_oracle_accepts_package_output(workload):
    ops = workloads.WORKLOADS[workload](7)
    if workload == "census_sweep":  # same command shape over a shorter range
        ops = [workloads.Op(("census", "--from", "4000", "--to", "12000"), 0)]
    for op in ops[:300]:
        code, out = invoke(op.args)
        assert oracle.check(list(op.args), code, out) is None, op.args


CORRUPTIONS = [
    (["bound", "--n", "2"], "4/3 = ", "5/3 = "),
    (["bound", "--n", "2"], "{3, 6}", "{3}"),
    (["bound", "--n", "20000", "--format", "json"], '"132.5"', '"132.4"'),
    (["bound", "--n", "100", "--format", "csv"], "9.3541", "9.3542"),
    (["table", "--ns", "2,100", "--format", "csv"], "9.4", "9.3"),
    (["candidates", "--n", "50", "--max-m", "5"], "27/4", "29/4"),
    (["census", "--from", "2", "--to", "100", "--include-odd", "--per-n"], "m=4: ", "m=4: 1"),
    (["census", "--from", "2", "--to", "100", "--per-n", "--format", "json"], '"28/3"', '"29/3"'),
    (["omega", "--n", "2", "--d", "3", "--m", "2"], "contains: True", "contains: False"),
    (["bielliptic", "ratio", "--type", "1", "--ample", "2,3", "--curve", "1,1", "--m", "2"],
     "5/2", "5/3"),
    (["bielliptic", "fiber-degrees", "--type", "2", "--class", "3,5"], "L.E = 10", "L.E = 11"),
]


@pytest.mark.parametrize("args, old, new", CORRUPTIONS)
def test_oracle_rejects_corrupted_output(args, old, new):
    code, out = invoke(args)
    assert oracle.check(args, code, out) is None
    assert old in out
    assert oracle.check(args, code, out.replace(old, new, 1)) is not None
    assert oracle.check(args, 1, out) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    generate = workloads.WORKLOADS[name]
    assert generate(3) == generate(3)
    if name != "verify":
        assert generate(3) != generate(4)


def test_query_mix_composition_is_fixed():
    kinds = [op.args[1] if op.args[0] == "bielliptic" else op.args[0]
             for op in workloads.query_mix(5)]
    assert {k: kinds.count(k) for k in workloads.QUERY_MIX} == {
        k: n * workloads.QUERY_BLOCKS for k, n in workloads.QUERY_MIX.items()}


def test_tail_quantile_keeps_ten_samples_beyond_and_never_drops_below_median():
    assert [run.tail_quantile(n) for n in (1, 11, 15, 20, 100, 2000)] == \
        [0.5, 0.5, 0.5, 0.5, 0.9, 0.99]
    assert all(n - run.rank(n, run.tail_quantile(n)) >= 10 for n in range(20, 3000))


def test_tracer_counts_restores_and_tolerates_missing_layers(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "bounds.renamed_away", ("seshadri.bounds", "gone"))
    original = bounds.d_min
    t = tracer.Tracer()
    t.install()
    try:
        assert bounds.d_min is not original
        code, _ = invoke(["bound", "--n", "2"])
    finally:
        t.uninstall()
    assert code == 0 and bounds.d_min is original
    assert t.metric("bounds.lower_bound_small.calls") == 1
    assert t.metric("bounds.d_min.calls") == t.metric("exactmath.ceil_sqrt.calls") > 6
    assert t.metric("bounds.certified_min.certified_ratio") == 1
    assert t.metric("bounds.renamed_away.calls") is None


def test_speed_probe_is_kept_out_of_timings_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    passes = run.Passes([workloads.Op(("bound", "--n", "2"), 1)], speed.Probe())
    t0 = perf_counter()
    with passes.probe:
        while perf_counter() - t0 < 0.5:
            passes.run_pass(invoke)
    elapsed = perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(passes.probe.times) >= 5
    assert sum(passes.pass_seconds) + passes.probe.seconds <= elapsed
    assert any(r is not None for r in passes.pass_reference)
