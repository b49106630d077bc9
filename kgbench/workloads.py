"""The three workloads.  Each generates its inputs from the seed through
``kgray.corpus``, runs a timed operation through kgray's public
functions, and checks what the operation wrote.

* ``extract-bulk``: read stored docs and extract triples, counting them.
  Exercises span reassembly, classify and label kernels under Ray Data;
  linking, canonicalization and partitioned writes do nothing here, so
  it is the bypass case for link-side changes.
* ``construct-fresh``: ``kg_construct`` of a fixed corpus into an empty
  directory.  The generator's entity pools are fixed, so mention keys
  saturate and linking stays a large share of wall.
* ``append-stream``: after an untimed base build, ``kg_construct`` with
  ``append=True`` over a sequence of small batches: persisted-table
  reads, the anti semi-join for first-seen mention keys, incremental
  linking and kept-partition writes.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from kgbench import checks

WARM_DOCS = 200        # input of the warm pass inside each set-up
SAMPLE_DOCS = 4_000    # block the extraction kernels are timed on


@dataclass
class OpResult:
    triples: int                       # triples the operation produced
    counts: dict = field(default_factory=dict)  # table-level counts


def gen_docs(seed: int, start: int, stop: int, path: str) -> int:
    """Write docs [start, stop) of the seeded corpus to one parquet file
    in the interleaved-spans shape; return how many gold triples they
    hold."""
    from kgray import corpus
    from kgray.schema import DOCUMENTS_INTERLEAVED

    rows = [corpus.make_sentence(seed, d)
            for d in corpus.doc_ids_for_range(start, stop)]
    docs = [corpus.interleave(seed, r) for r in rows]
    pq.write_table(pa.Table.from_pylist(docs, schema=DOCUMENTS_INTERLEAVED),
                   path)
    return sum(len(r["spo_list"]) for r in rows)


def gen_parts(seed: int, start: int, n_docs: int, n_parts: int,
              out_dir: str) -> int:
    """Generate ``n_docs`` docs from ``start`` as ``n_parts`` files, one
    Ray task per file; return their gold triple count."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    task = ray.remote(gen_docs)
    bounds = [start + n_docs * i // n_parts for i in range(n_parts + 1)]
    refs = [task.remote(seed, lo, hi,
                        os.path.join(out_dir, f"part-{i:03d}.parquet"))
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    return sum(ray.get(refs))


def gold(seed: int, start: int, stop: int) -> pd.DataFrame:
    """The generator's gold triples of docs [start, stop)."""
    from kgray import corpus

    return corpus.golden_triples_table(
        corpus.doc_ids_for_range(start, stop), seed).to_pandas()


def manifest_rows(manifests: dict) -> dict[str, int]:
    return {t: sum(int(p["rows"]) for p in m.get("partitions", {}).values())
            for t, m in manifests.items()}


def read_tables(out_dir: str, names) -> dict[str, pd.DataFrame]:
    return {t: checks.read_output_table(out_dir, t).to_pandas() for t in names}


CONSTRUCT_TABLES = ("triples", "mentions", "edges", "entities",
                    "triples_canonical")


class Workload:
    """Sizes scale with ``scale`` (1.0 for the benchmark, small in tests)."""

    name = ""
    max_ops: int | None = None  # timed operations the inputs allow
    extraction_only = False     # the operation is extraction and nothing else

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        self.seed, self.workdir, self.scale = seed, workdir, scale
        self.warm_path = os.path.join(workdir, "in", "warm.parquet")
        self.violations: list[str] = []

    def n(self, docs: int) -> int:
        return max(20, int(docs * self.scale))

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def write_warm_input(self) -> None:
        os.makedirs(os.path.dirname(self.warm_path), exist_ok=True)
        # doc ids far above any timed input, so the warm pass shares no docs
        gen_docs(self.seed, 90_000_000, 90_000_000 + WARM_DOCS,
                 self.warm_path)

    def warm(self, rep: int) -> None:
        """The untimed first pass that ends each set-up: it starts the
        Ray workers and imports kgray in each of them."""
        from kgray import io, pipeline

        pipeline.extract_triples(io.read_parquet_clean(self.warm_path)).count()

    def prepare(self) -> None:
        """Generate inputs and do any untimed preliminary work."""

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def verify(self) -> dict:
        """Untimed checks after the timed loop: appends to
        ``self.violations`` and returns ``{"spo": spo_scores(...)}`` plus
        any workload-specific figure."""
        raise NotImplementedError

    def sample_docs(self) -> pa.Table:
        raise NotImplementedError

    def docs_per_op(self) -> int:
        raise NotImplementedError

    def _spo(self, pred: pd.DataFrame, gold: pd.DataFrame) -> dict:
        s = checks.spo_scores(pred, gold)
        self.violations += checks.spo_violations(s)
        return s


class ExtractBulk(Workload):
    name = "extract-bulk"
    DOCS, PARTS = 48_000, 6
    extraction_only = True

    def prepare(self) -> None:
        self.docs_dir = self.path("in", "bulk")
        self.gold_total = gen_parts(self.seed, 0, self.n(self.DOCS),
                                    self.PARTS, self.docs_dir)
        # the fixed slice scored against gold: the first part's docs
        self.slice_path = os.path.join(self.docs_dir, "part-000.parquet")
        self.slice_gold = gold(self.seed, 0, self.n(self.DOCS) // self.PARTS)
        self.expected = None

    def op(self, i: int) -> OpResult:
        from kgray import io, pipeline

        n = pipeline.extract_triples(io.read_parquet_clean(self.docs_dir)).count()
        if self.expected is None:
            self.expected = n
        if n != self.expected:
            raise checks.CheckFailed(f"pass {i} counted {n} triples, "
                                     f"pass 0 counted {self.expected}")
        if not checks.RECALL_FLOOR * self.gold_total <= n <= self.gold_total:
            raise checks.CheckFailed(f"{n} triples from docs with "
                                     f"{self.gold_total} gold triples")
        return OpResult(n)

    def verify(self) -> dict:
        from kgray import io, pipeline

        pred = pipeline.extract_triples(
            io.read_parquet_clean(self.slice_path)).to_pandas()
        return {"spo": self._spo(pred, self.slice_gold)}

    def sample_docs(self) -> pa.Table:
        return pq.read_table(self.slice_path).slice(0, SAMPLE_DOCS)

    def docs_per_op(self) -> int:
        return self.n(self.DOCS)


class ConstructFresh(Workload):
    name = "construct-fresh"
    DOCS, PARTS = 4_000, 4

    def prepare(self) -> None:
        self.docs_dir = self.path("in", "docs")
        gen_parts(self.seed, 0, self.n(self.DOCS), self.PARTS, self.docs_dir)
        self.gold = gold(self.seed, 0, self.n(self.DOCS))
        self.builds: list[tuple[str, dict]] = []

    def op(self, i: int) -> OpResult:
        from kgray import io, pipeline

        out = self.path(f"build-{i}")
        rows = manifest_rows(pipeline.kg_construct(
            io.read_parquet_clean(self.docs_dir), out))
        self.builds.append((out, rows))
        return OpResult(rows["triples"], {
            "linking.mentions_in": rows["mentions"],
            "linking.edges_out": rows["edges"],
            "canonical.entities_out": rows["entities"],
        })

    def verify(self) -> dict:
        scores = []
        for out, rows in self.builds:
            if rows != self.builds[0][1]:
                self.violations.append(
                    f"{out}: table rows {rows} differ from the first "
                    f"build's {self.builds[0][1]}")
            tables = read_tables(out, CONSTRUCT_TABLES)
            self.violations += [f"{out}: {v}" for v in
                                checks.construct_violations(tables)]
            scores.append(self._spo(tables["triples"], self.gold))
            shutil.rmtree(out)
        return {"spo": scores[0]} if scores else {}

    def sample_docs(self) -> pa.Table:
        return pq.read_table(self.docs_dir).slice(0, SAMPLE_DOCS)

    def docs_per_op(self) -> int:
        return self.n(self.DOCS)


class AppendStream(Workload):
    name = "append-stream"
    BASE_DOCS, BATCH_DOCS = 3_000, 500
    max_ops = 10

    def prepare(self) -> None:
        from kgray import io, pipeline

        self.base, self.batch = self.n(self.BASE_DOCS), self.n(self.BATCH_DOCS)
        self.base_dir = self.path("in", "base")
        gen_parts(self.seed, 0, self.base, 2, self.base_dir)
        batches_dir = self.path("in", "batches")
        gen_parts(self.seed, self.base, self.batch * (self.max_ops + 1),
                  self.max_ops + 1, batches_dir)
        self.batch_paths = [os.path.join(batches_dir, f"part-{k:03d}.parquet")
                            for k in range(self.max_ops + 1)]
        self.out = self.path("stream")
        self.rows = manifest_rows(pipeline.kg_construct(
            io.read_parquet_clean(self.base_dir), self.out,
            input_fingerprint="base"))
        self.applied = 0
        # the session's first append pays one-off costs the later ones
        # do not (measured: the first batches ran up to 25 % slower)
        self._append()

    def op(self, i: int) -> OpResult:
        return self._append()

    def _append(self) -> OpResult:
        """Apply the next batch; count what it added."""
        from kgray import io, pipeline

        k, before = self.applied, self.rows
        self.rows = manifest_rows(pipeline.kg_construct(
            io.read_parquet_clean(self.batch_paths[k]), self.out,
            append=True, input_fingerprint=f"batch-{k}"))
        self.applied = k + 1
        return OpResult(self.rows["triples"] - before["triples"], {
            "linking.mentions_in": self.rows["mentions"],
            "linking.edges_out": self.rows["edges"] - before["edges"],
            "canonical.entities_out": self.rows["entities"],
        })

    def verify(self) -> dict:
        """Invariants of the appended output, its SPO score, and how many
        canonical rows differ from a fresh build over the same docs."""
        from kgray import io, pipeline

        fresh_in = self.path("in", "fresh")
        os.makedirs(fresh_in)
        files = sorted(os.listdir(self.base_dir))
        for f in files:
            os.link(os.path.join(self.base_dir, f), os.path.join(fresh_in, f))
        for k in range(self.applied):
            os.link(self.batch_paths[k],
                    os.path.join(fresh_in, f"part-batch-{k:03d}.parquet"))
        fresh_out = self.path("fresh")
        pipeline.kg_construct(io.read_parquet_clean(fresh_in), fresh_out)

        appended = read_tables(self.out, CONSTRUCT_TABLES)
        fresh = read_tables(fresh_out, ("triples", "triples_canonical"))
        self.violations += checks.construct_violations(appended)
        cols = checks.SPO_COLS
        if checks.stale_rows(appended["triples"][cols], fresh["triples"][cols]):
            self.violations.append("appended triples differ from a fresh "
                                   "build's")
        n_docs = self.base + self.applied * self.batch
        return {
            "spo": self._spo(appended["triples"], gold(self.seed, 0, n_docs)),
            "append.stale_rows": checks.stale_rows(
                appended["triples_canonical"], fresh["triples_canonical"]),
        }

    def sample_docs(self) -> pa.Table:
        return pq.read_table(self.base_dir).slice(0, SAMPLE_DOCS)

    def docs_per_op(self) -> int:
        return self.n(self.BATCH_DOCS)


WORKLOADS = {w.name: w for w in (ExtractBulk, ConstructFresh, AppendStream)}


def time_kernels(docs: pa.Table, reps: int = 3) -> dict[str, float]:
    """Time the extraction kernels in this process on one block, the
    same composition ``extract_triples`` fuses into one map task.
    Seconds are medians over ``reps``; counts describe the block."""
    from kgray.ops.classify import CueClassifier, fanout, threshold_and_fallback
    from kgray.ops.label import TemplateLabeler
    from kgray.ops.spans import reassemble_text
    from kgray.pipeline import PipelineConfig

    cfg = PipelineConfig()
    clf, lab = CueClassifier(), TemplateLabeler()
    steps = [
        ("spans.reassemble_text", lambda b: reassemble_text(b, keep_spans=False)),
        ("classify.CueClassifier", clf),
        ("classify.threshold_and_fallback",
         lambda b: threshold_and_fallback(b, cfg.threshold, cfg.fallback_top_k)),
        ("classify.fanout", fanout),
        ("label.TemplateLabeler", lab),
    ]
    times: dict[str, list[float]] = {name: [] for name, _ in steps}
    for _ in range(reps):
        b = docs
        for name, fn in steps:
            t0 = time.perf_counter()
            b = fn(b)
            times[name].append(time.perf_counter() - t0)
            if name == "classify.fanout":
                fan_rows = b.num_rows
    out = {f"{name}.s": statistics.median(ts) for name, ts in times.items()}
    hit = b.select(["doc_id", "schema_id"]).group_by(
        ["doc_id", "schema_id"]).aggregate([]).num_rows
    out.update({
        "classify.fanout.rows_out": fan_rows,
        "label.triples_out": b.num_rows,
        "label.yield": hit / fan_rows if fan_rows else 0.0,
    })
    return out
