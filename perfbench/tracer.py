"""In-memory span tracing of svineq's modules, installed from outside.

``Tracer.install`` wraps every public function of each layer module, and
the LAPACK entry points of ``numpy.linalg``, wherever the name is looked
up: ``from .x import f`` binds ``f`` in the importing module too, so
every svineq module attribute that *is* the original function is
replaced.  Each call records a span (id, parent id, name, start, end);
spans and per-name totals stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
The program is single-threaded, so spans nest and no layer waits on
another.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("randgen", "decomp", "numkernel", "inequalities", "fuzzer", "serialize", "cli")

# Real flops per n x n operand, times n**3, for the LAPACK drivers numpy
# calls (Golub & Van Loan operation counts); complex operands count 4x.
LAPACK_FLOPS = {"eigvalsh": 4 / 3, "eigh": 9.0, "qr": 8 / 3, "svd": 8 / 3}
SVD_WITH_VECTORS_FLOPS = 21.0

# Span names whose outermost calls are summed into a busy time.
BUSY_GROUPS = {
    "inequalities.check": "check",
    "serialize.parse_matrix_text": "parse",
    "serialize.dumps": "dump",
    "serialize.dumps_compact": "dump",
    "serialize.document": "dump",
    "serialize.campaign_document": "dump",
    "serialize.report_document": "dump",
    "serialize.witness_document": "dump",
}


def _lapack_flops(name, args, kwargs) -> float:
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0.0
    coef = LAPACK_FLOPS[name]
    if name == "svd" and kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
        coef = SVD_WITH_VECTORS_FLOPS
    complex_factor = 4.0 if getattr(a, "dtype", None) is not None and a.dtype.kind == "c" else 1.0
    return coef * complex_factor * math.prod(shape[:-2]) * float(min(shape[-2:])) ** 3


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.busy_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._open_groups: Counter[str] = Counter()
        self._search_depth = 0
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _span(self, name, fn, enter=None, leave=None):
        group = BUSY_GROUPS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            if group:
                self._open_groups[group] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dur = t1 - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if group:
                    self._open_groups[group] -= 1
                    if not self._open_groups[group]:
                        self.busy_s[group] += dur
                self.spans.append((sid, parent, name, t0, t1))
                if leave is not None:
                    leave(result)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # --- hooks -------------------------------------------------------------

    def _enter_check(self, args, kwargs):
        if self._search_depth:
            self.counters["fuzzer.search.candidates"] += 1

    def _enter_search(self, args, kwargs):
        self._search_depth += 1

    def _leave_search(self, witness):
        self._search_depth -= 1
        if witness is not None:
            self.counters["fuzzer.search.witnesses"] += 1

    def _enter_parse(self, args, kwargs):
        self.counters["serialize.bytes_in"] += len(args[0] if args else kwargs["text"])

    def _leave_dump(self, text):
        if text is not None:
            self.counters["serialize.bytes_out"] += len(text)

    def _lapack_enter(self, name):
        def enter(args, kwargs):
            self.counters["numkernel.lapack.flops_est"] += _lapack_flops(name, args, kwargs)

        return enter

    # --- install / uninstall -------------------------------------------------

    def install(self) -> None:
        import numpy.linalg

        hooks = {
            "inequalities.check": (self._enter_check, None),
            "fuzzer.search_counterexample": (self._enter_search, self._leave_search),
            "serialize.parse_matrix_text": (self._enter_parse, None),
            "serialize.dumps": (None, self._leave_dump),
            "serialize.dumps_compact": (None, self._leave_dump),
        }
        modules = [m for k, m in sys.modules.items() if k == "svineq" or k.startswith("svineq.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"svineq.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._span(name, fn, *hooks.get(name, (None, None)))
                for m in modules:
                    for alias, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, alias, wrapper)

        randgen = sys.modules["svineq.randgen"]
        raw = randgen.Stream.raw

        def counted_raw(stream, count):
            self.counters["randgen.words"] += count
            return raw(stream, count)

        self._patch(randgen.Stream, "raw", counted_raw)
        for fname in LAPACK_FLOPS:
            fn = getattr(numpy.linalg, fname)
            self._patch(
                numpy.linalg, fname, self._span(f"lapack.{fname}", fn, self._lapack_enter(fname))
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # --- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def metrics(self, ops: int, traced_s: float, overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); ``traced_s`` is the
        traced wall time, the base of the LAPACK share."""
        c, s = self.calls, self.self_s
        lapack = [k for k in self.calls if k.startswith("lapack.")]
        lapack_s = sum(self.total_s[k] for k in lapack)
        candidates = self.counters["fuzzer.search.candidates"]
        witnesses = self.counters["fuzzer.search.witnesses"]
        return {
            "randgen.prng_stream.calls": (c["randgen.prng_stream"], "count"),
            "randgen.sample.calls": (c["randgen.sample"], "count"),
            "randgen.sample.self_s": (s["randgen.sample"], "s"),
            "randgen.words": (self.counters["randgen.words"], "count"),
            "decomp.classify.calls": (c["decomp.classify"], "count"),
            "decomp.classify.per_op": (c["decomp.classify"] / ops, "calls/op"),
            "decomp.classify.self_s": (s["decomp.classify"], "s"),
            "decomp.cartesian.calls": (c["decomp.cartesian"], "count"),
            "decomp.jordan.calls": (c["decomp.jordan"], "count"),
            "decomp.self_s": (self.layer_self_s("decomp"), "s"),
            "numkernel.singular_values.calls": (c["numkernel.singular_values"], "count"),
            "numkernel.abs_op.calls": (c["numkernel.abs_op"], "count"),
            "numkernel.psd_sqrt.calls": (c["numkernel.psd_sqrt"], "count"),
            "numkernel.loewner_leq.calls": (c["numkernel.loewner_leq"], "count"),
            "numkernel.self_s": (self.layer_self_s("numkernel"), "s"),
            "numkernel.lapack.calls": (sum(c[k] for k in lapack), "count"),
            "numkernel.lapack.s": (lapack_s, "s"),
            "numkernel.lapack.share": (lapack_s / traced_s, "frac"),
            "numkernel.lapack.flops_est": (self.counters["numkernel.lapack.flops_est"], "flop"),
            "inequalities.check.calls": (c["inequalities.check"], "count"),
            "inequalities.check.busy_s": (self.busy_s["check"], "s"),
            "inequalities.self_s": (self.layer_self_s("inequalities"), "s"),
            "fuzzer.self_s": (self.layer_self_s("fuzzer"), "s"),
            "fuzzer.search.candidates": (candidates, "count"),
            "fuzzer.search.witness_ratio": (witnesses / candidates if candidates else 0.0, "frac"),
            "fuzzer.replay.calls": (c["fuzzer.replay"], "count"),
            "serialize.parse.calls": (c["serialize.parse_matrix_text"], "count"),
            "serialize.parse.busy_s": (self.busy_s["parse"], "s"),
            "serialize.dump.busy_s": (self.busy_s["dump"], "s"),
            "serialize.bytes_in": (self.counters["serialize.bytes_in"], "B"),
            "serialize.bytes_out": (self.counters["serialize.bytes_out"], "B"),
            "cli.main.calls": (c["cli.main"], "count"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
            "trace.ops": (ops, "count"),
            "trace.wall_s": (traced_s, "s"),
            "trace.overhead_frac": (overhead, "frac"),
        }

    def write(self, path) -> None:
        """Write the spans: a name table plus [id, parent, name index, start, end]."""
        names = sorted({sp[2] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = min((sp[3] for sp in self.spans), default=0.0)
        rows = [
            [sid, parent, index[name], round(t0 - origin, 9), round(t1 - origin, 9)]
            for sid, parent, name, t0, t1 in sorted(self.spans)
        ]
        columns = ["id", "parent", "name", "start_s", "end_s"]
        path.write_text(json.dumps({"names": names, "columns": columns, "spans": rows}))
