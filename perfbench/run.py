#!/usr/bin/env python3
"""Benchmark of the seshadri CLI: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                  # every workload

Run from the root of a source checkout; the package is imported from its
src/ directory.  Each workload repeats whole passes over its seeded CLI
invocations, called in-process through `seshadri.cli.cli`, for --seconds
seconds.  Every output is checked by oracle.py, which shares no code with
the package, and by comparison with the first pass.  The last line of
standard output is one JSON object: with --trace 0 it holds the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracle
import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"

#: fresh interpreters that time `import seshadri.cli`; setup_s is their median.
#: The import is timed before `speed` is imported, so that modules both
#: import are charged to the package.
SETUP_REPEATS = 15
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import seshadri.cli; "
                "t = time.perf_counter() - t; import speed; print(speed.scaled_now(t))")


class Invoker:
    """Runs `seshadri <args>` in-process; returns its exit code and standard output.

    Every call writes to the same buffer.  click caches a text wrapper per
    stdout object and the wrapper keeps that object alive, so a fresh buffer
    per call would leak and make peak_rss_mib grow with the number of calls.
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self.buf = io.StringIO()

    def __call__(self, args) -> tuple[int, str]:
        self.buf.seek(0)
        self.buf.truncate()
        with contextlib.redirect_stdout(self.buf):
            try:
                self.cli.main(args=list(args), prog_name="seshadri", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the run goes on; the failure is counted and shown
                return -1, traceback.format_exc()
        return code, self.buf.getvalue()


class Passes:
    """Closed loop, one client: whole passes over `ops`, results kept from the first.

    Times exclude the runs of `probe` that fall inside them; `pass_reference`
    holds the mean time of those runs per pass, None where there were none.
    """

    def __init__(self, ops: list, probe: speed.Probe) -> None:
        self.ops = ops
        self.probe = probe
        self.first: list[tuple[int, str]] = []
        self.latencies = array.array("d")
        self.pass_seconds: list[float] = []
        self.pass_reference: list[float | None] = []
        self.repeat_mismatches: list[int] = []

    def run_pass(self, call) -> float:
        busy = 0.0
        probe = self.probe
        ticks = len(probe.times)
        for i, op in enumerate(self.ops):
            t0 = perf_counter()
            in_probe = probe.seconds
            result = call(op.args)
            dt = perf_counter() - t0 - (probe.seconds - in_probe)
            busy += dt
            self.latencies.append(dt)
            if len(self.first) <= i:
                self.first.append(result)
            elif result != self.first[i]:
                self.repeat_mismatches.append(i)
        self.pass_seconds.append(busy)
        self.pass_reference.append(
            statistics.fmean(probe.times[ticks:]) if len(probe.times) > ticks else None)
        return busy

    def run_for(self, call, seconds: float) -> None:
        start = perf_counter()
        self.run_pass(call)
        while perf_counter() - start < seconds:
            self.run_pass(call)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def digest(self) -> str:
        h = hashlib.sha256()
        for op, (code, out) in zip(self.ops, self.first):
            h.update(f"{' '.join(op.args)}\0{code}\0{out}\0".encode())
        return h.hexdigest()

    def check(self) -> tuple[int, list[str]]:
        """Failed invocations among all attempted, and the first few reasons."""
        bad = {}
        for i, (op, (code, out)) in enumerate(zip(self.ops, self.first)):
            reason = oracle.check(list(op.args), code, out)
            if reason is not None:
                bad[i] = f"seshadri {' '.join(op.args)}: {reason}"
        passes = self.attempted // len(self.ops)
        failed = len(bad) * passes + sum(1 for i in self.repeat_mismatches if i not in bad)
        reasons = list(bad.values())[:5] + [
            f"seshadri {' '.join(self.ops[i].args)}: output differs from the first pass"
            for i in self.repeat_mismatches[:5]]
        return failed, reasons


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-quantile among n samples."""
    return max(1, math.ceil(q * n - 1e-9))


def tail_quantile(n: int) -> float:
    """The highest percentile up to p99 with at least ten of n samples beyond it.

    Where no percentile above the median has ten samples beyond it, the
    median stands in for it.
    """
    return min(0.99, max(0.5, math.floor(100 * (n - 10) / n) / 100))


def setup_seconds(workload: str, seed: int) -> float:
    """Median fresh-interpreter import of seshadri.cli plus median input generation.

    Both are scaled to nominal machine speed (speed.py).
    """
    imports = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, check=True, timeout=60)
        imports.append(float(child.stdout))
    generate = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workloads.WORKLOADS[workload](seed)
        generate.append(speed.scaled_now(perf_counter() - t0))
    return statistics.median(imports) + statistics.median(generate)


def end_to_end(passes: Passes, setup_s: float, peak_rss_mib: float) -> dict[str, float]:
    """Timings scaled pass by pass to nominal machine speed (speed.py)."""
    per_pass = len(passes.ops)
    overall = statistics.fmean(passes.probe.times)
    scales = [speed.scale(r or overall) for r in passes.pass_reference]
    walls = [s * k for s, k in zip(passes.pass_seconds, scales)]
    latencies = [passes.latencies[i] * scales[i // per_pass]
                 for i in range(len(passes.latencies))]
    q = tail_quantile(per_pass)
    tails = [sorted(latencies[i:i + per_pass])[rank(per_pass, q) - 1]
             for i in range(0, len(latencies), per_pass)]
    wall = statistics.median(walls)
    print(f"  op samples {len(latencies)} in {len(walls)} passes; op_p99_ms is the "
          f"median over passes of p{100 * q:g}, with {per_pass - rank(per_pass, q)} "
          f"of {per_pass} samples beyond it in each pass")
    print(f"  {len(passes.probe.times)} reference runs; speed scale per pass "
          + " ".join(f"{k:.3f}" for k in scales))
    print("  pass seconds measured " + " ".join(f"{s:.4f}" for s in passes.pass_seconds))
    print("  pass seconds scaled   " + " ".join(f"{s:.4f}" for s in walls))
    return {
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "wall_s": wall,
        "n_per_s": sum(op.n_examined for op in passes.ops) / wall,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": statistics.median(tails) * 1e3,
    }


#: alternating pairs of workers=1 and workers=2 census runs behind pool_speedup
POOL_PAIRS = 3


def pool_speedup(bounds, ops) -> float | None:
    """Median over alternating pairs of census time with workers=1 over workers=2.

    None when not measurable.  Each pair swaps which worker count runs first,
    so that a drift in machine speed does not favour either.
    """
    workers = min(2, os.cpu_count() or 1)
    if workers < 2 or "workers" not in inspect.signature(bounds.census).parameters:
        return None
    start, stop = int(ops[0].args[2]), int(ops[0].args[4])
    ratios = []
    for pair in range(POOL_PAIRS):
        seconds = {}
        for w in ((1, workers) if pair % 2 == 0 else (workers, 1)):
            t0 = perf_counter()
            bounds.census(start, stop, workers=w)
            seconds[w] = perf_counter() - t0
        ratios.append(seconds[1] / seconds[workers])
    print("  pool_speedup per pair " + " ".join(f"{r:.3f}" for r in ratios))
    return statistics.median(ratios)


def traced(invoke: Invoker, passes: Passes, args, spec) -> dict[str, float]:
    """Untraced passes for half the time, then exactly one traced pass."""
    from seshadri import bounds

    passes.run_for(invoke, args.seconds / 2)
    untraced = statistics.median(passes.pass_seconds)
    extra = {"bounds.census.pool_speedup": (
        pool_speedup(bounds, passes.ops) if args.workload == "census_sweep" else None)}
    tracer = Tracer()
    tracer.install()
    traced_invoke = tracer.wrap("cli", invoke)
    out_bytes = 0

    def call(a):
        nonlocal out_bytes
        tracer.op += 1
        result = traced_invoke(a)
        out_bytes += len(result[1].encode())
        return result

    try:
        traced_s = passes.run_pass(call)
    finally:
        tracer.uninstall()
    passes.pass_seconds.pop()  # keep the traced pass out of any timing
    extra["cli.output_bytes"] = out_bytes
    extra["tracer.overhead_ratio"] = traced_s / untraced
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.csv"
    tracer.write_spans(span_file)
    print(f"  spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, in {span_file}")
    print(f"  tracing overhead: traced pass {traced_s:.4f} s, untraced median "
          f"{untraced:.4f} s")
    metrics = {}
    for item in spec["per_layer"]:
        name = item["name"]
        value = extra[name] if name in extra else tracer.metric(name)
        if value is None:
            print(f"  absent or not measured on this workload: {name}")
            value = 0
        metrics[name] = value
    return metrics


def run_workload(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    import seshadri
    from seshadri.cli import cli

    if Path(seshadri.__file__).resolve().parent != SRC / "seshadri":
        print(f"error: imported seshadri from {seshadri.__file__}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed)
    probe = speed.Probe()
    passes = Passes(ops, probe)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} invocations per pass")
    if args.trace:
        values = traced(Invoker(cli), passes, args, spec)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        with probe:
            passes.run_for(Invoker(cli), args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(passes, setup_s, peak)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failed, reasons = passes.check()
    for reason in reasons:
        print(f"  FAILED {reason}")
    print(f"  error_ratio {failed / passes.attempted} ({failed}/{passes.attempted})")
    print(f"  digest {args.workload} seed {args.seed}: sha256 {passes.digest()}")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args, spec) -> int:
    """Each workload in a fresh process; the worst exit code wins."""
    worst = 0
    for name in (w["name"] for w in spec["workloads"]):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], check=False)
        worst = max(worst, child.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "seshadri" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} is not a seshadri source checkout "
              "(needs src/seshadri and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
