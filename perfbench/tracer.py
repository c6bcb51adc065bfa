"""Layer tracer for one CLI job, and the arithmetic on its spans.

Run as ``python tracer.py SPANS_FILE -- ARGV...`` with ``betadio``
importable.  It times ``import betadio.cli``, wraps the public functions and
public methods of the seven library modules in every ``betadio`` namespace
that binds them, calls ``betadio.cli.main(ARGV)`` and exits with its code.
Spans (name, start, end, parent) stay in memory and are written to
SPANS_FILE at exit, with the call counters and the per-layer tallies below.
The library itself is not changed.

Per-digit and per-operation helpers get a call counter instead of a span:
a span on each would cost more than the work it times.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

clock = time.perf_counter

LAYERS = ("numerics", "words", "bary", "beta_shift", "constructions", "measures_dim", "cli")
IMPORT = "import:betadio.cli"

# qualified names that are counted, not spanned
COUNTED = {
    "numerics": {"Dyadic.of", "round_down", "round_up", "dyadic_from_fraction",
                 "Scalar.exact", "Scalar.from_int", "Scalar.from_fraction", "Scalar.hull",
                 "Scalar.scale_int", "Scalar.reciprocal", "Scalar.pow_int", "Scalar.compare",
                 "Scalar.floor_certified", "Scalar.contains", "poly_eval", "poly_trim",
                 "poly_sub", "poly_mul", "poly_divmod", "poly_gcd"},
    "words": {"PeriodicWord.prefix", "PeriodicWord.shift", "PeriodicWord.normalized",
              "PeriodicWord.from_finite", "compare_words", "word_cmp_prefix",
              "DigitWord.from_bytes", "DigitWord.digits", "DigitStream.prefix"},
    "beta_shift": {"AdmissibilityAutomaton.step", "AdmissibilityAutomaton.walk",
                   "BetaSystem.d1_star_digit", "BetaSystem.beta_scalar", "is_admissible",
                   "is_self_admissible", "word_value"},
    "constructions": {"ScheduledRuns.gap"},
}
# Scalar arithmetic, counted together as numerics.scalar_ops
SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.calls: dict[str, list[int]] = {}  # counted name -> [calls]
        self.stats: dict[str, float] = {}
        self.depth: dict[str, int] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount

    def span(self, fn, name: str):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, name: str):
        cell = self.calls.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def outermost(self, fn, key: str, tally):
        """Call ``tally(self, args, result)`` only for calls not nested in
        another call with the same key (a construction inside a construction)."""
        def inner(*args, **kwargs):
            self.depth[key] = self.depth.get(key, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.depth[key] -= 1
            if not self.depth[key]:
                tally(self, args, result)
            return result
        return inner

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "stats": self.stats,
                       "calls": {k: v[0] for k, v in self.calls.items()}}, fh)


# ---------------------------------------------------------------------------
# tallies taken from call arguments and results


def _clamps(result) -> int:
    clamps = getattr(result, "clamps", None)
    return len(clamps if clamps is not None else result.construction.clamps)


def _construction(tr, args, result):
    tr.add("constructions.digits", len(result.word))
    tr.add("constructions.clamps", _clamps(result))


def _points(tr, args, result):
    tr.add("measures_dim.points", len(getattr(result, "trajectory", ())) or 1)


def _with_tallies(tr: Tracer, layer: str, qualname: str, fn):
    """Wrap fn (inside its span) to record the tallies its layer reports."""
    if layer == "numerics" and qualname == "PolyRoot.refine":
        def refine(self, target_bits, *a, **k):
            tr.add("numerics.refine_bits", target_bits)
            return fn(self, target_bits, *a, **k)
        return refine
    if layer == "beta_shift" and qualname == "AdmissibilityAutomaton.count_words":
        seen = set()

        def count_words(self, n, *a, **k):
            key = (id(self), n)
            tr.add("beta_shift.count_cache_hits", key in seen)
            seen.add(key)
            return fn(self, n, *a, **k)
        return count_words
    if layer == "constructions" and qualname.startswith("generate_"):
        return tr.outermost(fn, "construction", _construction)
    if layer == "measures_dim" and (qualname.startswith("local_dimension_")
                                    or qualname.startswith("measure_")):
        return tr.outermost(fn, "measure", _points)
    if layer == "bary" and qualname == "run_decomposition":
        def run_decomposition(digits, *a, **k):
            result = fn(digits, *a, **k)
            tr.add("bary.digits_scanned", len(digits))
            tr.add("bary.runs", len(result.runs))
            return result
        return run_decomposition
    if layer == "words" and qualname == "read_digit_file":
        def read_digit_file(stream, *a, **k):
            tr.add("words.bytes_read", os.fstat(stream.fileno()).st_size)
            return fn(stream, *a, **k)
        return read_digit_file
    if layer == "words" and qualname == "write_digit_file":
        def write_digit_file(stream, *a, **k):
            seekable = stream.seekable()  # stdout to a pipe is not
            start = stream.tell() if seekable else 0
            result = fn(stream, *a, **k)
            if seekable:
                tr.add("words.bytes_written", stream.tell() - start)
            return result
        return write_digit_file
    return fn


# ---------------------------------------------------------------------------
# installing the wrappers


def _wrap(tr: Tracer, layer: str, qualname: str, fn):
    if qualname in COUNTED.get(layer, ()) or inspect.isgeneratorfunction(fn):
        return tr.counter(fn, f"{layer}:{qualname}")
    return tr.span(_with_tallies(tr, layer, qualname, fn), f"{layer}:{qualname}")


def _wrap_class(tr: Tracer, layer: str, cls) -> None:
    for name, attr in list(vars(cls).items()):
        qual = f"{cls.__name__}.{name}"
        if layer == "numerics" and cls.__name__ == "Scalar" and name in SCALAR_OPS:
            setattr(cls, name, tr.counter(attr, "numerics:Scalar.ops"))
        elif name.startswith("_"):
            continue
        elif isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(_wrap(tr, layer, qual, attr.__func__)))
        elif isinstance(attr, classmethod):
            setattr(cls, name, classmethod(_wrap(tr, layer, qual, attr.__func__)))
        elif inspect.isfunction(attr):
            setattr(cls, name, _wrap(tr, layer, qual, attr))


def install(tr: Tracer) -> None:
    """Wrap every public function and method defined in the seven modules,
    rebinding each function in every betadio namespace that imported it."""
    replaced = {}
    for layer in LAYERS:
        mod = sys.modules[f"betadio.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tr, layer, obj)
            elif inspect.isfunction(obj):
                replaced[id(obj)] = _wrap(tr, layer, name, obj)
    for modname, mod in list(sys.modules.items()):
        if modname == "betadio" or modname.startswith("betadio."):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, name, replaced[id(obj)])


# ---------------------------------------------------------------------------
# span arithmetic (used by the benchmark after the job ends)


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def inclusive(spans, name: str) -> tuple[int, float]:
    """(calls, total duration) of the spans with this name; a span nested in
    another of the same name adds a call but no time."""
    calls, total = 0, 0.0
    for _n, start, end, parent in (s for s in spans if s[0] == name):
        calls += 1
        if not _has_ancestor(spans, parent, name):
            total += end - start
    return calls, total


def _has_ancestor(spans, i: int, name: str) -> bool:
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][3]
    return False


# ---------------------------------------------------------------------------
# per-layer metrics of a job and of a pass

# metric -> span names whose outermost calls it times (as <metric>_calls, _s)
INCLUSIVE = {
    "numerics.ln": ("numerics:ln", "numerics:ln_int"),
    "numerics.refine": ("numerics:PolyRoot.refine",),
    "beta_shift.count": ("beta_shift:AdmissibilityAutomaton.count_words",),
    "words.read": ("words:read_digit_file",),
    "words.write": ("words:write_digit_file",),
}
COUNTERS = {
    "numerics.scalar_ops": "numerics:Scalar.ops",
    "beta_shift.step_calls": "beta_shift:AdmissibilityAutomaton.step",
}
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("numerics.self_s", "s"), ("numerics.ln_calls", "count"), ("numerics.ln_s", "s"),
    ("numerics.refine_calls", "count"), ("numerics.refine_bits", "bits"),
    ("numerics.refine_s", "s"), ("numerics.scalar_ops", "count"),
    ("beta_shift.self_s", "s"), ("beta_shift.count_calls", "count"),
    ("beta_shift.count_s", "s"), ("beta_shift.count_cache_hit_ratio", "ratio"),
    ("beta_shift.step_calls", "count"),
    ("constructions.self_s", "s"), ("constructions.digits", "count"),
    ("constructions.clamps", "count"),
    ("words.self_s", "s"), ("words.read_s", "s"), ("words.bytes_read", "bytes"),
    ("words.write_s", "s"), ("words.bytes_written", "bytes"),
    ("bary.self_s", "s"), ("bary.digits_scanned", "count"), ("bary.runs", "count"),
    ("measures_dim.self_s", "s"), ("measures_dim.points", "count"),
] + [(f"{layer}.calls", "count") for layer in LAYERS] + [("trace.untraced_s", "s")]


def job_metrics(doc: dict, wall: float) -> dict[str, float]:
    """Additive per-layer figures of one traced job of wall time ``wall``.

    The layers' self times, the import and ``trace.untraced_s`` (interpreter
    start, wrapping, writing the spans) add up to ``wall``.
    """
    spans, calls, stats = doc["spans"], doc["calls"], doc["stats"]
    selfs = self_times(spans)
    m = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    m["cli.import_s"] = selfs.get(layer_of(IMPORT), 0.0)
    m["trace.untraced_s"] = wall - sum(selfs.values())
    for layer in LAYERS:
        m[f"{layer}.calls"] = (sum(layer_of(s[0]) == layer for s in spans)
                               + sum(n for k, n in calls.items() if layer_of(k) == layer))
    for key, names in INCLUSIVE.items():
        pairs = [inclusive(spans, name) for name in names]
        m[f"{key}_calls"] = sum(c for c, _t in pairs)
        m[f"{key}_s"] = sum(t for _c, t in pairs)
    for key, name in COUNTERS.items():
        m[key] = calls.get(name, 0)
    m.update(stats)
    return m


def pass_metrics(jobs: list[dict]) -> dict[str, float]:
    """The PER_LAYER metrics of one pass: sums over its jobs, and the
    count-cache hit ratio of the summed calls."""
    total: dict[str, float] = {}
    for m in jobs:
        for k, v in m.items():
            total[k] = total.get(k, 0) + v
    calls = total.get("beta_shift.count_calls", 0)
    total["beta_shift.count_cache_hit_ratio"] = (
        total.get("beta_shift.count_cache_hits", 0) / calls if calls else 0.0)
    return {name: total.get(name, 0) for name, _unit in PER_LAYER}


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- ARGV...")
    tr = Tracer()
    rec = [IMPORT, clock(), 0.0, -1]
    import betadio.cli
    rec[2] = clock()
    tr.spans.append(rec)
    install(tr)
    try:
        return betadio.cli.main(cli_argv)  # the wrapped main: span cli:main
    finally:
        tr.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
