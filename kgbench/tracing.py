"""Spans and counts recorded around calls into kgray, from outside it.

The benchmark process replaces public driver-side functions of kgray
with thin wrappers (``Tracer.wrap``) for the length of a traced run.
Each call becomes a span (name, start, end, parent, run id) kept in
memory; counts are attached at the same boundaries.  Nothing inside
kgray changes and nothing is recorded in Ray worker processes: work a
lazy Dataset defers runs inside whichever wrapped call consumes it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass

# Spans whose self time is the part of their wall that no named child
# covers; the metric says so in its name.
CONTAINER_SPANS = ("pipeline.kg_construct", "bench.op")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run_id: int


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def metric_name(span_name: str) -> str:
    suffix = "self_s" if span_name in CONTAINER_SPANS else "s"
    return f"{span_name}.{suffix}"


def per_run_metrics(spans: list[Span], counts) -> dict[int, dict[str, float]]:
    """run id -> {metric: value}: self time summed per span name, and
    counts (run_id, name, value) summed per name."""
    out: dict[int, dict[str, float]] = {}
    for s, t in zip(spans, self_times(spans)):
        m = out.setdefault(s.run_id, {})
        key = metric_name(s.name)
        m[key] = m.get(key, 0.0) + t
    for run_id, name, value in counts:
        m = out.setdefault(run_id, {})
        m[name] = m.get(name, 0) + value
    return out


def median_over_runs(per_run: dict[int, dict[str, float]],
                     names) -> dict[str, float]:
    """Median of each metric over runs; a run without the metric counts 0."""
    return {
        n: float(statistics.median([m.get(n, 0.0) for m in per_run.values()]))
        if per_run else 0.0
        for n in names
    }


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, float]] = []
        self.run_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name: str):
        return _SpanCtx(self, name)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts.append((self.run_id, name, value))

    def wrap(self, module, attr: str, name, counter=None) -> None:
        """Replace ``module.attr`` with a traced wrapper.  ``name`` is a
        span name or ``f(bound_arguments) -> name``; ``counter(bound
        arguments, result) -> {count name: value}`` runs after the call."""
        orig = getattr(module, attr)
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            label = name(bound.arguments) if callable(name) else name
            with self.span(label):
                out = orig(*args, **kwargs)
            if counter is not None:
                for k, v in counter(bound.arguments, out).items():
                    self.count(k, v)
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def dump(self, path: str) -> None:
        """Write every span and count as JSON lines."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"span": asdict(s)}) + "\n")
            for run_id, name, value in self.counts:
                f.write(json.dumps(
                    {"count": {"run_id": run_id, "name": name,
                               "value": value}}) + "\n")


class _SpanCtx:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        with self.tracer._lock:
            self.index = len(self.tracer.spans)
            # placeholder keeps the index stable while children append
            self.tracer.spans.append(None)
        stack.append(self.index)
        self.run_id = self.tracer.run_id
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans[self.index] = Span(
            self.name, self.start, end, self.parent, self.run_id)
        return False


def install_kgray_spans(tracer: Tracer) -> None:
    """Wrap the driver-side public functions of kgray that kg_construct
    and extraction call, so each call is a span named after its module."""
    from kgray import io, pipeline, util
    from kgray.ops import canonical, joins, linking

    def write_span(args) -> str:
        table = os.path.basename(os.path.normpath(args["path"]))
        return f"io.write_partitioned.{table}"

    def rows_bytes(args, manifest):
        parts = manifest.get("partitions", {}).values()
        return {
            f"{write_span(args)}.rows": sum(int(p["rows"]) for p in parts),
            f"{write_span(args)}.bytes": sum(int(p["bytes"]) for p in parts),
        }

    tracer.wrap(pipeline, "kg_construct", "pipeline.kg_construct")
    tracer.wrap(pipeline, "extract_triples", "pipeline.extract_triples")
    tracer.wrap(io, "read_parquet_clean", "io.read_parquet_clean")
    tracer.wrap(io, "write_partitioned", write_span, rows_bytes)
    tracer.wrap(io, "read_table", "io.read_table",
                lambda a, out: {"io.read_table.calls": 1})
    tracer.wrap(io, "commit_txn", "io.commit_txn")
    tracer.wrap(linking, "mentions_from_triples", "linking.mentions_from_triples")
    tracer.wrap(
        linking, "link_from_mentions", "linking.link_from_mentions",
        lambda a, out: {"linking.new_keys": len(a["new_keys"] or ())},
    )
    tracer.wrap(util, "pairs_within_groups", "util.pairs_within_groups",
                lambda a, out: {"util.pairs_within_groups.pairs_out": len(out)})
    tracer.wrap(canonical, "connected_components",
                "canonical.connected_components")
    tracer.wrap(canonical, "canonicalize_triples",
                "canonical.canonicalize_triples")
    tracer.wrap(joins, "semi_join", "joins.semi_join")
