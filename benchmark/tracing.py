"""Benchmark-side tracing of seqdetect's layers.

While a `Tracer` is installed, every public function of the seqdetect
modules is replaced by a wrapper that records a span (name, start, end,
parent).  The same function object is patched under every name it is bound
to, so names a module imported from another one (``cli.load_config``,
``montecarlo.sum_inv_b_sq``, ...) are traced too.  A few methods are wrapped
as well: the noise samplers and the vectorised spectra, whose counts
(draws, terms) are recorded at the boundary.  Spans stay in memory;
`layer_metrics` turns one traced unit's spans into the per-layer metrics.

Nothing inside seqdetect is edited: the wrappers are installed on entry and
the original attributes are restored on exit.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("config", "cli", "sequences", "detector", "bounds", "noise", "montecarlo")

#: Methods traced besides the module-level functions, as (layer, class) ->
#: method names.  ``sample_block`` is wrapped on every concrete noise class.
_METHODS = {
    ("sequences", "OperatorFamily"): ("inv_sq_array",),
    ("sequences", "SmoothnessFamily"): ("inv_sq_array",),
    ("noise", "NoiseModel"): ("sample",),
}

_RNG = "montecarlo.replication_rng"
ESTIMATES = ("montecarlo.estimate_type1", "montecarlo.estimate_type2")
_SAMPLERS_SUFFIXES = (".sample", ".sample_block")


def _size(result) -> int:
    return int(result.size)


def _reps(result) -> int:
    return int(result.reps)


#: Counts recorded at a wrapper, keyed by span name or method name.
_COUNTED = {
    "inv_sq_array": ("terms", _size),
    "sample_block": ("draws", _size),
    "montecarlo.estimate_type1": ("reps", _reps),
    "montecarlo.estimate_type2": ("reps", _reps),
}


def _modules():
    return {layer: importlib.import_module(f"seqdetect.{layer}") for layer in LAYERS}


def _noise_classes(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    ``only`` restricts the wrapped names (span names such as
    ``montecarlo.estimate_type1``).  Spans are recorded from one thread only:
    the stack of open spans is not shared safely between threads, so a run
    with worker threads must restrict ``only`` to names called from the
    main thread.
    """

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name: str, fn, count=None):
        """``count`` is (key, measure): measure(result) is added to counts[key]."""
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            stack = tracer._stack
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                tracer.counts[count[0]] += count[1](result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wanted(self, name: str) -> bool:
        return self.only is None or name in self.only

    def __enter__(self) -> "Tracer":
        mods = _modules()
        namespaces = [*mods.values(), sys.modules["seqdetect"]]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or not self._wanted(f"{layer}.{attr}"):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, obj, _COUNTED.get(name))
                for ns in namespaces:
                    for bound_name, bound in list(vars(ns).items()):
                        if bound is obj:
                            self._patch(ns, bound_name, wrapped)
        for (layer, cls_name), methods in _METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                if self._wanted(name):
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth], _COUNTED.get(meth)))
        for cls in _noise_classes(mods["noise"].NoiseModel):
            name = f"noise.{cls.__name__}.sample_block"
            if "sample_block" in cls.__dict__ and not inspect.isabstract(cls) and self._wanted(name):
                self._patch(cls, "sample_block", self._wrap(name, cls.__dict__["sample_block"], _COUNTED["sample_block"]))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: Path, origin: float) -> None:
        """Write the recorded spans as gzipped CSV, times relative to ``origin``."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent])


class SpanTable:
    """Durations, self times and nesting of one traced unit's spans."""

    def __init__(self, spans):
        self.names = [s[0] for s in spans]
        self.parents = [s[3] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def outermost(self, match) -> list[int]:
        """Indices of matching spans with no matching ancestor."""
        covered = [False] * len(self.names)
        out = []
        for i, (name, p) in enumerate(zip(self.names, self.parents)):
            inside = p >= 0 and covered[p]
            hit = match(name)
            covered[i] = inside or hit
            if hit and not inside:
                out.append(i)
        return out

    def count_within(self, match, outer) -> int:
        """Number of spans matching ``match`` that have an ``outer`` ancestor."""
        under = [False] * len(self.names)
        n = 0
        for i, p in enumerate(self.parents):
            under[i] = p >= 0 and (under[p] or outer(self.names[p]))
            if under[i] and match(self.names[i]):
                n += 1
        return n

    def inclusive(self, match) -> float:
        return sum(self.dur[i] for i in self.outermost(match))

    def self_sum(self, match) -> float:
        return sum(t for name, t in zip(self.names, self.self_time) if match(name))

    def count(self, match) -> int:
        return sum(1 for name in self.names if match(name))


def _named(*names):
    wanted = set(names)
    return lambda name: name in wanted


def _layer(layer):
    prefix = layer + "."
    return lambda name: name.startswith(prefix)


def _sampler(name):
    return name.startswith("noise.") and name.endswith(_SAMPLERS_SUFFIXES)


def layer_metrics(
    spans, counts: Counter, wall: float, untraced_wall: float, bytes_written: int
) -> dict[str, float]:
    """Per-layer metrics of one traced unit (times in s, counts as numbers)."""
    t = SpanTable(spans)
    solves = len(t.outermost(_named("montecarlo.empirical_separation_radius")))
    probes = t.count_within(
        _named("montecarlo.estimate_type2"), _named("montecarlo.empirical_separation_radius")
    )
    return {
        "montecarlo.rng_streams": t.count(_named(_RNG)),
        "montecarlo.rng_s": t.inclusive(_named(_RNG)),
        "montecarlo.self_s": t.self_sum(lambda n: n.startswith("montecarlo.") and n != _RNG),
        "montecarlo.estimate_s": t.inclusive(_named(*ESTIMATES)),
        "montecarlo.estimate_calls": len(t.outermost(_named(*ESTIMATES))),
        "montecarlo.reps": counts["reps"],
        "montecarlo.probes": probes / solves if solves else 0.0,
        "montecarlo.divergence_s": t.inclusive(
            _named("montecarlo.chi_sq_divergence", "montecarlo.chi_sq_divergence_mc",
                   "montecarlo.direction_stats")
        ),
        "noise.sample_s": t.inclusive(_sampler),
        "noise.sample_calls": len(t.outermost(_sampler)),
        "noise.draws": counts["draws"],
        "noise.self_s": t.self_sum(_layer("noise")),
        "sequences.scan_s": t.inclusive(_named("sequences.scan_bandwidth")),
        "sequences.terms_evaluated": counts["terms"],
        "sequences.partial_sum_s": t.inclusive(
            _named("sequences.sum_inv_b_sq", "sequences.sum_inv_b_4", "sequences.compensated_sum")
        ),
        "sequences.ellipsoid_s": t.inclusive(_named("sequences.ellipsoid_membership")),
        "sequences.self_s": t.self_sum(_layer("sequences")),
        "detector.calibrate_s": t.inclusive(_named("detector.calibrate")),
        "detector.select_bandwidth_s": t.inclusive(_named("detector.select_bandwidth")),
        "detector.threshold_s": t.inclusive(_named("detector.threshold")),
        "detector.self_s": t.self_sum(_layer("detector")),
        "bounds.theorem1_s": t.inclusive(_named("bounds.theorem1_bounds")),
        "bounds.classical_s": t.inclusive(_named("bounds.classical_upper_radius_sq")),
        "bounds.fit_s": t.inclusive(_named("bounds.fit_rate")),
        "bounds.self_s": t.self_sum(_layer("bounds")),
        "config.load_s": t.inclusive(_named("config.load_config")),
        "config.self_s": t.self_sum(_layer("config")),
        "cli.self_s": t.self_sum(_layer("cli")),
        "cli.bytes_written": bytes_written,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.unaccounted_s": wall - sum(t.self_time),
    }


def median_metrics(per_unit: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced units."""
    return {k: statistics.median(u[k] for u in per_unit) for k in per_unit[0]}
