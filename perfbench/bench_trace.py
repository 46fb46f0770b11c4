"""Spans around treescore's public functions, patched in at run time.

Nothing in the library is instrumented: :class:`Tracer` replaces every
binding of each traced function (``from .x import f`` copies ``f`` into other
modules) with a wrapper that records a span, and puts the originals back on
:meth:`Tracer.uninstall`. A span records name, start, end, parent span and
op id; self time is a span's duration minus the time its child spans cover.
A generator is timed across each ``next()`` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter_ns

# Traced functions per module of src/treescore; "Class.method" patches a class attribute.
TARGETS = {
    "cli": ("main",),
    "graphs": (
        "load_graph",
        "induced_subgraph",
        "EmbeddedMultiGraph.is_connected",
        "EmbeddedMultiGraph.edges_dict",
        "EmbeddedMultiGraph.trace_faces",
    ),
    "_linalg": ("det_bareiss", "laplacian_minor_det"),
    "spectral": ("count_spanning_trees",),
    "sampler": (
        "sample_tree_resistance",
        "sample_deletion_run",
        "replay_decisions",
        "sample_tree_wilson",
        "find_bridges",
    ),
    "partition": (
        "enumerate_partitions",
        "spanning_tree_score",
        "validate_partition",
        "cut_edges",
        "spanning_tree_distribution",
    ),
    "recom": (
        "run_chain",
        "recom_step",
        "check_tolerant_partition",
        "balance_edges",
        "adjacent_district_pairs",
    ),
    "pebbles": ("verify_run_products", "check_prefix_products", "track_pebbles"),
    "bounds": ("verify_score_ratios", "verify_score_ratio", "partition_deletion_set"),
}

# Work counts read from arguments and return values at the traced boundaries.
COUNTERS = (
    "linalg.det_bareiss.dim_sum",
    "linalg.det_bareiss.cubic_ops",
    "linalg.det_bareiss.result_bits_sum",
    "sampler.steps",
    "sampler.forced_steps",
    "partition.partitions_enumerated",
    "recom.trees_drawn",
    "recom.skipped_steps",
)

# Spans kept for the JSON file; calls beyond it are still timed and counted.
SPAN_CAP = 200_000


def _count_det(counts: dict, args, result) -> None:
    n = len(args[0])
    counts["linalg.det_bareiss.dim_sum"] += n
    counts["linalg.det_bareiss.cubic_ops"] += n**3 / 3
    counts["linalg.det_bareiss.result_bits_sum"] += abs(result).bit_length()


def _count_trace(counts: dict, args, trace) -> None:
    counts["sampler.steps"] += len(trace.steps)
    counts["sampler.forced_steps"] += sum(1 for s in trace.steps if s.forced)


def _count_partition(counts: dict, args, partition) -> None:
    counts["partition.partitions_enumerated"] += 1


def _count_step(counts: dict, args, step) -> None:
    counts["recom.trees_drawn"] += step.resamples
    counts["recom.skipped_steps"] += step.skipped


OBSERVERS = {
    "linalg.det_bareiss": _count_det,
    "sampler.sample_tree_resistance": _count_trace,
    "sampler.sample_deletion_run": _count_trace,
    "sampler.replay_decisions": _count_trace,
    "partition.enumerate_partitions": _count_partition,
    "recom.recom_step": _count_step,
}


def _span_name(mod: str, qual: str) -> str:
    # Metric names start with a letter, so module _linalg is reported as linalg.
    return f"{mod.lstrip('_')}.{qual.split('.')[-1]}"


def span_names() -> list[str]:
    """``<module>.<function>`` for every traced function, in TARGETS order."""
    return [_span_name(mod, qual) for mod, quals in TARGETS.items() for qual in quals]


class Tracer:
    """Span recorder whose wrappers are patched into treescore on install()."""

    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_ns = dict.fromkeys(span_names(), 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []
        self.span_total = 0
        self.op = None
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._patches = self._plan()

    # --- spans ---------------------------------------------------------------

    def _timed(self, name: str, call):
        stack = self._stack
        sid = self.span_total
        self.span_total += 1
        frame = [sid, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return call()
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - start
            self.self_ns[name] += dur - frame[1]
            parent = None
            if stack:
                stack[-1][1] += dur
                parent = stack[-1][0]
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, name, start, end, parent, self.op))

    def _wrap(self, name: str, f):
        observe = OBSERVERS.get(name)
        if inspect.isgeneratorfunction(f):

            @functools.wraps(f)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._iterate(name, f(*args, **kwargs), args, observe)

            return gen_wrapper

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = self._timed(name, lambda: f(*args, **kwargs))
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def _iterate(self, name: str, gen, args, observe):
        done = object()
        while True:
            item = self._timed(name, lambda: next(gen, done))
            if item is done:
                return
            if observe is not None:
                observe(self.counts, args, item)
            yield item

    # --- patching ------------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding of every target."""
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "treescore" or k.startswith("treescore."))
        ]
        plan = []
        for mod_name, quals in TARGETS.items():
            mod = importlib.import_module(f"treescore.{mod_name}")
            for qual in quals:
                name = _span_name(mod_name, qual)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[attr]
                    plan.append((owner, attr, original, self._wrap(name, original)))
                    continue
                original = getattr(mod, qual)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in vars(m).items():
                        if value is original:
                            plan.append((m, key, original, wrapper))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------------

    def metrics(self, wall_ns: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and self time per function, counters, unattributed time."""
        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        for key, value in self.counts.items():
            out[key] = (value, "count")
        drawn = self.counts["recom.trees_drawn"]
        accepted = self.calls["recom.recom_step"] - self.counts["recom.skipped_steps"]
        out["recom.split_ratio"] = (accepted / drawn if drawn else 0.0, "ratio")
        out["trace.wall_s"] = (wall_ns / 1e9, "s")
        out["trace.unattributed_s"] = ((wall_ns - sum(self.self_ns.values())) / 1e9, "s")
        out["trace.spans"] = (self.span_total, "count")
        return out

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON (times in ns from perf_counter_ns)."""
        payload = {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "dropped": self.span_total - len(self.spans),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
