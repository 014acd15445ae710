"""Per-layer tracing of the seshadri package, installed from outside it.

`Tracer.install()` wraps the public functions named in LAYERS.  A function
is replaced wherever the package holds it, so `d_min` is traced whether it
is reached as `bounds.d_min` or through `from .bounds import d_min` in
`comparison`.  Each wrapper counts calls, adds its self time (its span
minus the spans of wrapped callees) and keeps up to SPAN_CAP spans in
memory.  A function that no longer exists is reported absent instead of
failing the run.  Untraced runs never create a Tracer.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from time import perf_counter

#: metric prefix -> (module, attribute path); "bielliptic" stands for every
#: public function of that module
LAYERS = {
    "bounds.lower_bound_small": ("seshadri.bounds", "lower_bound_small"),
    "bounds.d_min": ("seshadri.bounds", "d_min"),
    "exactmath.ceil_sqrt": ("seshadri.exactmath", "ceil_sqrt"),
    "bounds.certified_min": ("seshadri.bounds", "certified_min"),
    "bounds.tail_cutoff": ("seshadri.bounds", "tail_cutoff"),
    "comparison.dominance_check": ("seshadri.comparison", "dominance_check"),
    "exactmath.RadicalBound.cmp": ("seshadri.exactmath", "RadicalBound.cmp"),
    "bounds.check_f7": ("seshadri.bounds", "check_f7"),
    "bounds.ceiling_threshold": ("seshadri.bounds", "ceiling_threshold"),
    "exactmath.sqrt_linear_cmp": ("seshadri.exactmath", "sqrt_linear_cmp"),
    "bounds.census": ("seshadri.bounds", "census"),
    "exactmath.format_decimal": ("seshadri.exactmath", "format_decimal"),
    "exactmath.RadicalBound.decimal": ("seshadri.exactmath", "RadicalBound.decimal"),
    "comparison.comparison_table": ("seshadri.comparison", "comparison_table"),
    "bounds.candidate_values": ("seshadri.bounds", "candidate_values"),
    "bielliptic": ("seshadri.bielliptic", None),
}

#: the self-intersection from which the analytic tail decides the census
ANALYTIC_THRESHOLD_EVEN = 8776

SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # layer -> [calls, self_s, depth]
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self.spans: list[tuple] = []  # (id, parent id, op, layer, start, end)
        self.dropped = 0
        self.op = -1
        self._stack: list[list] = [[0.0, -1]]  # [child seconds, span id]
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, observe=None):
        """fn with a span named `layer`; observe(args, result) runs on return."""
        stat = self.stats.setdefault(layer, [0, 0.0, 0])
        stack, spans, ids = self._stack, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            stack.append(frame)
            stat[2] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stat[2] -= 1
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - frame[0]
                parent = stack[-1]
                parent[0] += dt
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent[1], self.op, layer, t0, t1))
                else:
                    self.dropped += 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _patch_everywhere(self, layer: str, original, observe=None) -> None:
        traced = self.wrap(layer, original, observe)
        for name, module in list(sys.modules.items()):
            if name != "seshadri" and not name.startswith("seshadri."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for layer, (module_name, path) in LAYERS.items():
            module = sys.modules.get(module_name)
            if module is None:
                self.absent.add(layer)
            elif path is None:
                functions = [fn for name, fn in vars(module).items()
                             if inspect.isfunction(fn) and not name.startswith("_")
                             and fn.__module__ == module_name]
                for fn in functions:
                    self._patch_everywhere(layer, fn)
                if not functions:
                    self.absent.add(layer)
            elif "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is None:
                    self.absent.add(layer)
                else:
                    setattr(cls, method, self.wrap(layer, original))
                    self._patched.append((cls, method, original))
            else:
                original = getattr(module, path, None)
                if original is None:
                    self.absent.add(layer)
                else:
                    self._patch_everywhere(layer, original, self._observer(layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _observer(self, layer: str):
        """Work counters read from a layer's arguments and results."""
        census = self.stats.setdefault("bounds.census", [0, 0.0, 0])

        def certified_min(_args, cert):
            self._count("bounds.certified_min.m_scanned", cert.scanned_to - 1)
            self._count("bounds.certified_min.certified", bool(cert.certified))
            top = self.counters.get("bounds.certified_min.scanned_to_max", 0)
            self.counters["bounds.certified_min.scanned_to_max"] = max(top, cert.scanned_to)

        def tail_cutoff(_args, witness):
            self._count("bounds.tail_cutoff.witnesses", witness is not None)

        def check_f7(_args, report):
            self._count("bounds.check_f7.analytic", report.status == "holds_analytic")

        def census_done(_args, report):
            self._count("bounds.census.n_examined", report.n_examined)

        def lower_bound_small(args, _bound):
            if census[2] and args[0] >= ANALYTIC_THRESHOLD_EVEN:
                self._count("bounds.census.brute_n_past_analytic")

        observers = {"bounds.certified_min": certified_min,
                     "bounds.tail_cutoff": tail_cutoff, "bounds.check_f7": check_f7,
                     "bounds.census": census_done,
                     "bounds.lower_bound_small": lower_bound_small}
        observe = observers.get(layer)
        if observe is None:
            return None

        def tolerant(args, result):
            try:
                observe(args, result)
            except (AttributeError, IndexError, TypeError):
                self.absent.add(f"{layer}.counters")

        return tolerant

    def metric(self, name: str) -> float | None:
        """Value of a per-layer metric, or None when it is absent."""
        layer, _, field = name.rpartition(".")
        counters_broken = f"{layer}.counters" in self.absent
        if layer in self.absent or (counters_broken and field not in ("calls", "self_s")):
            return None
        calls = self.stats.get(layer, [0, 0.0])[0]
        if field == "calls":
            return calls
        if field == "self_s":
            return self.stats.get(layer, [0, 0.0])[1]
        ratios = {"certified_ratio": "certified", "witness_ratio": "witnesses",
                  "analytic_ratio": "analytic"}
        if field in ratios:
            hits = self.counters.get(f"{layer}.{ratios[field]}", 0)
            return hits / calls if calls else 0.0
        return self.counters.get(name, 0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,op,layer,start_s,end_s\n")
            for span in self.spans:
                out.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)
