"""Span and counter tracing of ``gnncert`` from outside the package.

``Tracer.install`` wraps the public functions named in ``SPANS`` and
``COUNTERS`` and rebinds every module attribute of the package that refers
to the original function.  Rebinding by identity patches each name where it
is looked up, including the copies ``from ... import`` made (``cli`` holds
its own ``receptive_field``, ``estimator`` its own ``normalized_adjacency``).

Spans record start and end time and their parent span.  Each thread keeps
its own span stack, span list and counters, so the hot path takes no lock;
a span opened on a thread with an empty stack (the CLI's thread pool) is
parented to the run's root span.  Functions called hundreds of thousands of
times per run (the per-subset exact evaluations) only bump a counter.
Everything stays in memory until ``summary`` folds it into per-layer
metrics at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict

PACKAGE = "gnncert"
LAYERS = ("graph", "smoothing", "gcn", "estimator", "bounds", "derandomize")
ROOT = 0

SPANS = {
    "graph": ("load_graph", "receptive_field"),
    "smoothing": ("sample",),
    "gcn": ("normalized_adjacency", "forward_all", "train", "load_checkpoint",
            "load_votes"),
    "estimator": ("estimate_all", "estimate", "clopper_pearson", "certify", "report"),
    "bounds": ("worst_case_curve",),
    "derandomize": ("enumerate_representatives", "exact_label_probs"),
}
COUNTERS = {
    "bounds": ("delta_tree_exact", "delta_exact_ie", "delta_single_source",
               "levine_delta"),
}


def _observe(counts, name, args, kwargs, result) -> None:
    """Counts derived from a traced call's arguments and result."""
    if name == "gcn.normalized_adjacency":
        counts["gcn.normalized_adjacency.bytes_computed"] += 8 * int(args[0]) ** 2
    elif name == "graph.receptive_field":
        counts["graph.field_members.sum"] += result.size
        counts["graph.field_members.max"] = max(counts["graph.field_members.max"],
                                                result.size)
        counts["graph.simple_paths"] += sum(len(p) for p in result.paths.values())
    elif name == "derandomize.enumerate_representatives":
        rf, k = args[0], args[1]
        counts["derandomize.representatives"] += len(result)
        counts["derandomize.support"] += math.comb(len(rf.members) - 1, k)
    elif name == "gcn.load_votes":
        counts["gcn.load_votes.rows"] += sum(len(v) for v in result.votes.values())
    elif name == "gcn.train":
        history = kwargs.get("history", args[3] if len(args) > 3 else None)
        counts["gcn.train.epochs"] += len(history or ())


class _Record:
    """What one thread traced: its open-span stack, closed spans and counters."""

    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()


class _PerThread(threading.local):
    """Gives each thread its own ``_Record`` and registers it for the summary."""

    def __init__(self, registry: list, lock: threading.Lock):
        self.record = _Record()
        with lock:
            registry.append(self.record)


class Tracer:
    """Collects spans and counters for one run of the CLI."""

    def __init__(self):
        self._lock = threading.Lock()
        self._records: list[_Record] = []
        self._local = _PerThread(self._records, self._lock)
        self._ids = itertools.count(ROOT + 1)
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = local.record
            stack = record.stack
            parent = stack[-1] if stack else ROOT
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                record.spans.append((sid, parent, name, start, end))
            _observe(record.counts, name, args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        local = self._local
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.record.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> list[str]:
        """Wrap the traced functions and rebind every package name bound to them.

        Returns the listed functions the package no longer has; their
        metrics read 0.
        """
        missing = []
        for kind, table in ((self._span, SPANS), (self._counter, COUNTERS)):
            for layer, names in table.items():
                module = importlib.import_module(f"{PACKAGE}.{layer}")
                for fname in names:
                    original = getattr(module, fname, None)
                    if original is None:
                        missing.append(f"{layer}.{fname}")
                        continue
                    wrapped = kind(f"{layer}.{fname}", original)
                    for mod in list(sys.modules.values()):
                        if not getattr(mod, "__name__", "").startswith(PACKAGE):
                            continue
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)
                                self._patched.append((mod, attr, original))
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- summary -----------------------------------------------------------

    def summary(self, run_s: float) -> dict:
        """Per-layer metrics for a run whose root span lasted ``run_s`` seconds."""
        spans = [s for r in self._records for s in r.spans]
        counts: Counter = Counter()
        for r in self._records:
            for key, value in r.counts.items():
                if key.endswith(".max"):
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value

        child_s: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in spans:
            child_s[parent] += end - start
        durations: dict[str, list[float]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in spans:
            durations[name].append(end - start)
            self_s[name] += end - start - child_s[sid]

        out: dict[str, float] = dict(counts)
        for name, ds in durations.items():
            ds.sort()
            out[f"{name}.calls"] = len(ds)
            out[f"{name}.s"] = math.fsum(ds)
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.p50_ms"] = 1e3 * _quantile(ds, 0.50)
            out[f"{name}.p99_ms"] = 1e3 * _quantile(ds, 0.99)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = math.fsum(
                v for k, v in self_s.items() if k.split(".")[0] == layer)
        # cli has no spans of its own: it is whatever the top-level spans leave
        out["cli.self_s"] = run_s - child_s[ROOT]
        out["trace.run_s"] = run_s
        return out


def layer_metrics(summary: dict, train_summary: dict) -> dict:
    """Per-layer metrics of a measured call, plus ``gcn.train.*`` from set-up.

    Ratios whose base is 0 (the layer did not run) are reported as 0.
    """
    m = dict(summary)
    for key in ("gcn.train.s", "gcn.train.epochs"):
        m[key] = train_summary.get(key, 0)

    def ratio(a, b):
        return m.get(a, 0) / m[b] if m.get(b) else 0.0

    m["estimator.samples_per_s"] = ratio("smoothing.sample.calls", "estimator.estimate_all.s")
    m["graph.field_members.mean"] = ratio("graph.field_members.sum", "graph.receptive_field.calls")
    m["derandomize.eval_ratio"] = ratio("derandomize.representatives", "derandomize.support")
    m["bounds.refused"] = m.get("bounds.worst_case_curve.raised.ResourceLimitError", 0)
    return m


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
