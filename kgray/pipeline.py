"""Pipeline assembly: Dataset -> Dataset steps, extraction pipeline.

The reference runs its stages as separate OS processes glued by files
(SURVEY.md §3.1); here each stage is a Ray Data transform on one lazy,
streaming Dataset — the executor pipelines and applies backpressure.
Scorer and labeler stay pluggable through ``PipelineConfig``'s
``classifier_cls`` / ``labeler_cls``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from kgray.ops.classify import CueClassifier, fanout, threshold_and_fallback
from kgray.ops.label import TemplateLabeler
from kgray.ops.spans import reassemble_text


@dataclass
class PipelineConfig:
    # Execution mode for the two model stages.
    #   "tasks"  (default): stage state is constructed on the driver and
    #     shipped inside the task closure.  Right when state build cost is
    #     tiny vs one batch of work (CueClassifier: 50 strings;
    #     TemplateLabeler: 50 compiled regexes ~10ms) — tasks fuse with the
    #     read, scale elastically to every core, and skip actor ramp-up.
    #     Measured on this pipeline: 285k rows/s at 32 cpus vs 116k with
    #     actor pools (the ramp + fixed pool caps dominate short stages).
    #   "actors": callable-CLASS actor pools (state built once per actor in
    #     __init__) — required when state is heavy (torch model weights,
    #     big vocabs) or GPU-resident; the reference's real scorers/labelers
    #     (classification/model.py:7-157, labeling/model.py:14-162) belong
    #     here.  Pool caps scale with cluster CPUs: capping below cluster
    #     width strangles the fused read->classify chain (measured 0.35
    #     scaling efficiency with cpus//4 caps).
    execution: str = "tasks"
    threshold: float = 0.5                # prob2res.py:14 knob
    fallback_top_k: int = 10              # prepare_data_for_labeling_infer.py:28
    classifier_cls: type = CueClassifier  # pluggable scorer (A1-A3 slot)
    labeler_cls: type = TemplateLabeler   # pluggable labeler (A4-A5 slot)


def flatten_documents(docs):
    """interleaved documents -> (doc_id, text) rows; spans dropped here so
    downstream shuffles move only what they need (re-joined by doc_id at
    materialization time)."""
    return docs.map_batches(
        lambda b: reassemble_text(b, keep_spans=False),
        batch_format="pyarrow",
    )


def extract_triples(docs, cfg: PipelineConfig | None = None):
    """Flagship extraction: interleaved docs -> SPO triple Dataset.

    read -> span reassembly -> stage-1 classifier (actor pool) ->
    threshold+fallback -> fan-out -> stage-2 labeler (actor pool, emits
    tags -> decode -> assemble inside the batch).  One streaming pipeline,
    all stages zero-copy Arrow (SURVEY.md §3.1 Ray-native restatement).
    """
    cfg = cfg or PipelineConfig()
    if cfg.execution != "actors":
        # Tasks mode: ONE map_batches running all four stage functions
        # in-heap.  Ray Data rebuilds an output block at every MapBatches
        # boundary; on this pipeline the three interior boundaries cost
        # ~20% of wall (interleaved A/B at 4M docs: 608k vs 471k
        # triples/s).  The stage functions stay separate (and actor mode
        # keeps them as separate pool stages) — only the composition is
        # collapsed.
        clf = cfg.classifier_cls()   # state built once, shipped in closure
        lab = cfg.labeler_cls()
        thr, top_k = cfg.threshold, cfg.fallback_top_k

        def fused_extract(b: pa.Table) -> pa.Table:
            flat = reassemble_text(b, keep_spans=False)
            return lab(fanout(threshold_and_fallback(clf(flat), thr, top_k)))

        # batch_size stays Ray's default (one batch per block: fewer
        # slice/dispatch overheads; measured 24.3s -> 17.7s at 32 cpus on
        # a 2M-doc run vs batch_size=4096)
        return docs.map_batches(fused_extract, batch_format="pyarrow")

    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    pool = (1, max(2, cpus))  # each actor pool spans (1, cluster CPUs)
    # the two pools' minimum actors must leave a CPU to the read and map
    # tasks that feed them: at 2 CPUs two 1-CPU actors held every CPU and
    # the read never ran (no progress), so an actor asks for at most half
    # of what that CPU leaves
    actor_cpus = min(1.0, (cpus - 1) / 2)
    ds = flatten_documents(docs)
    ds = ds.map_batches(
        cfg.classifier_cls,
        batch_format="pyarrow",
        concurrency=pool,
        num_cpus=actor_cpus,
    )
    ds = ds.map_batches(
        lambda b: fanout(
            threshold_and_fallback(b, cfg.threshold, cfg.fallback_top_k)
        ),
        batch_format="pyarrow",
    )
    ds = ds.map_batches(
        cfg.labeler_cls,
        batch_format="pyarrow",
        concurrency=pool,
        num_cpus=actor_cpus,
    )
    return ds


def golden_triples(sentences):
    """Explode golden spo_list rows (doc_id, text, postag, spo_list) ->
    flat triple rows — the eval oracle side (calc_pr.py:89-119 analogue).
    Vectorized list-explode on Arrow offsets."""

    def explode(batch: pa.Table) -> pa.Table:
        spo = batch["spo_list"]
        if isinstance(spo, pa.ChunkedArray):
            spo = spo.combine_chunks()
        lengths = pc.list_value_length(spo).fill_null(0).to_numpy(zero_copy_only=False)
        take = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
        flat = spo.flatten()
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(pa.array(take)),
                "subject": flat.field("subject"),
                "subject_type": flat.field("subject_type"),
                "predicate": flat.field("predicate"),
                "object": flat.field("object"),
                "object_type": flat.field("object_type"),
            }
        )

    return sentences.map_batches(explode, batch_format="pyarrow")


# kg_construct's tables in stage order: io.write_partitioned layouts.
# doc_id zone maps: partitions are assigned by crc32(doc_id), which
# scatters ids uniformly, so each partition's zone spans ~the whole
# doc_id range and range pruning here is best-effort only (it never
# wrongly prunes; it mostly helps a reader probing a range narrower
# than the corpus, or a corpus whose id space is sparse/segmented).
# The zones' primary value on these tables is the audit trail: min/max
# per partition attests which id universe each partition covers.
_TABLES = {
    "triples": dict(key_col="doc_id", stage="extract",
                    stats_cols=("doc_id",), bloom_cols=("doc_id",)),
    "mentions": dict(key_col="mention_key", stage="mentions"),
    "edges": dict(key_col="u", stage="link"),
    "entities": dict(key_col="node", stage="link+canonicalize"),
    "triples_canonical": dict(key_col="doc_id", stage="materialize",
                              stats_cols=("doc_id",),
                              bloom_cols=("doc_id", "subject_canonical")),
}


# _entities_changed's in-process diff gate: rows of each entity map (read
# at call time)
MAX_DRIVER_ROWS = 1_000_000


def _entities_changed(old_entities, entity_map) -> bool:
    """Did any OLD node's component change under the new entity map?

    Appends only ADD edges, so components only merge and nodes never
    disappear; a changed old component is the one case that invalidates
    previously-canonicalized partitions.  Entity maps are alias-graph
    scale (nodes with >= 1 edge): when BOTH maps have at most
    ``MAX_DRIVER_ROWS`` rows the diff is one pandas merge; otherwise (or
    under KGRAY_FORCE_DISTRIBUTED) a partitioned bucket join."""
    from kgray.util import collect_small

    old_mat = old_entities.materialize()
    old_tbl = collect_small(old_mat, max_rows=MAX_DRIVER_ROWS)
    new_tbl = None if old_tbl is None else \
        collect_small(entity_map, max_rows=MAX_DRIVER_ROWS)
    if new_tbl is not None:
        j = old_tbl.to_pandas().merge(new_tbl.to_pandas(), on="node",
                                      how="left", suffixes=("_old", "_new"))
        return bool((j["component_old"] != j["component_new"]).any())
    from kgray.ops.joins import bucket_join

    j = bucket_join(old_mat, entity_map, on="node", how="left",
                    right_suffix="_new")
    return (
        j.map_batches(
            lambda b: pa.table(
                {"diff": pc.not_equal(b["component"], b["component_new"])}
            ),
            batch_format="pyarrow",
        ).filter(expr="diff == True").count() > 0
    )


def kg_construct(
    docs,
    out_dir: str,
    cfg: PipelineConfig | None = None,
    num_partitions: int = 16,
    tau: float = 0.6,
    input_fingerprint: str = "",
    resume: bool = True,
    append: bool = False,
):
    """Full KG construction: extract -> link -> canonicalize -> materialize.

    Writes five partitioned, manifested tables under ``out_dir``:
    ``triples/`` (hash(doc_id) layout, resumable), ``mentions/`` (the
    cumulative distinct-mention checkpoint), ``edges/`` (verified link
    edges), ``entities/`` (the mention -> canonical component map) and
    ``triples_canonical/``.  Returns the manifests dict.

    Each stage after extraction is skipped when its stored manifest
    carries its upstream's content hash (lineage; checked first in
    append mode too), else written with its layout from ``_TABLES``; an
    upstream table without rows (``io.read_table``: None) writes it empty.

    ``resume=True`` keeps the stored triples partitions only when
    ``input_fingerprint`` equals the stored one; the default empty
    fingerprint names no input, so extraction reruns over all of
    ``docs`` (a rebuild, not an append).  Downstream stages still skip
    by content hash either way.

    ``append=True`` (incremental / standing-pipeline mode): ``docs`` is
    an INCREMENTAL batch of new documents (doc_ids disjoint from prior
    runs).  Only new-batch work runs at corpus scale:

    * extraction runs over the new docs only; their triple slices append
      additively into the existing hash partitions (``write_partitioned``
      keeps every attested old file and merges the manifest entries);
    * the persisted ``mentions/`` table unions with the new batch's
      partials (mention scale); linking runs over that materialized
      union (no re-read of ``mentions/``) and enumerates ONLY the pairs
      touching a first-seen mention key
      (``link_from_mentions(new_keys=...)``), so pair work scales with
      the batch; its edges union with the persisted ``edges/`` —
      old-old pairs are never regenerated;
    * connected components rerun over the unioned edge set (edge scale);
    * canonicalization: if NO old node's component changed (the common
      case — appends only merge components), only the new triples are
      canonicalized and appended; otherwise the canonical table is
      rebuilt in full (correctness over cleverness, and the condition is
      detected, not assumed).
    """
    import os

    import ray.data as rd
    from ray.data.aggregate import Sum

    from kgray import io
    from kgray.ops import canonical, joins, linking
    from kgray.util import collect_table, empty_table

    cfg = cfg or PipelineConfig()
    dirs = {t: os.path.join(out_dir, t) for t in _TABLES}
    # every stored manifest, read once before the first write
    stored = {t: io.read_manifest(d) for t, d in dirs.items()}
    prior = stored if resume else {}  # lineage trusts them on resume only
    manifests = {}

    def read(table, f=None, *args, **kwargs):
        """A stored table, or ``f`` over it; None when it has no rows."""
        ds = io.read_table(dirs[table])
        return ds if ds is None or f is None else f(ds, *args, **kwargs)

    def step(table, fp, build, keep=None, skip=None):
        """Keep the stored manifest when ``skip`` (default: its lineage
        equals ``fp``), else write and return ``build()`` under ``fp``;
        None (an upstream table without rows) writes the table empty."""
        if skip is None:
            skip = (prior.get(table) or {}).get("input_fingerprint") == fp
        if skip:
            manifests[table] = stored[table]
            return None
        ds = build()
        if ds is None:
            key = _TABLES[table]["key_col"]
            ds = rd.from_arrow(empty_table(**{key: pa.string()}))
        manifests[table] = io.write_partitioned(
            ds, dirs[table], num_partitions=num_partitions,
            input_fingerprint=fp, keep_partitions=keep, **_TABLES[table],
        )
        return ds

    new_triples = None  # materialized new-batch triples (append mode)
    if append:
        tr_m = stored["triples"]
        if tr_m is None:
            raise ValueError(
                "append=True requires an existing kg_construct output "
                f"(no manifest under {dirs['triples']})"
            )
        num_partitions = int(tr_m.get("num_partitions", num_partitions))
        # idempotence: the manifest's fingerprint chain records every
        # applied batch; re-running the same append (driver retry) is a
        # no-op resume, NOT a duplicate write, and downstream falls to
        # the lineage skips
        chain = tr_m.get("input_fingerprint", "")
        # materialized: reused below for mentions + canonical append
        # without re-reading mixed old/new partition files
        new_triples = step(
            "triples", f"{chain}+{input_fingerprint}",
            lambda: extract_triples(docs, cfg).materialize(),
            keep={int(p) for p in tr_m.get("partitions", {})},
            skip=bool(input_fingerprint) and input_fingerprint in chain.split("+"))
    else:
        done = io.completed_partitions(dirs["triples"], input_fingerprint) \
            if resume else set()
        # NOTE: per-partition resume appends only missing partitions; the
        # written layout is the checkpoint (io.py docstring).
        step("triples", input_fingerprint, lambda: extract_triples(
            io.filter_pending(docs, "doc_id", num_partitions, done), cfg),
            keep=done, skip=False)

    # Downstream stages carry LINEAGE fingerprints: each stage's
    # input_fingerprint is the content fingerprint of its upstream
    # manifest(s), so a resume in which the upstream did not change skips
    # the stage entirely (incremental recompute — the manifest attests
    # both the bytes and the derivation).
    tr_fp = io.manifest_content_hash(manifests["triples"])
    new_keys: frozenset | None = None

    def mentions():
        nonlocal new_keys
        old = read("mentions") if new_triples is not None else None
        if old is None:
            return read("triples", lambda t: linking.mentions_from_triples(
                t).materialize())
        new_partials = linking.mentions_from_triples(new_triples).materialize()
        # first-seen keys: batch scale (they broadcast into the verify)
        new_only = joins.semi_join(new_partials, old, on="mention_key",
                                   anti=True)
        new_keys = frozenset(
            collect_table(new_only)["mention_key"].to_pylist()
        )
        # union + re-aggregate, MATERIALIZED before the rewrite (the
        # lazy union reads the very files the write hygiene deletes)
        return (
            old.union(new_partials)
            .groupby("mention_key")
            .aggregate(Sum("n", alias_name="n"))
            .materialize()
        )

    def edges():
        # link over the (materialized) mention table the mentions step
        # just wrote; read it back only when lineage skipped that step
        ments = built_ments
        if ments is None:
            ments = read("mentions")
        elif not ments.count():
            ments = None
        old = read("edges") if new_keys is not None else None
        if old is None:
            return None if ments is None else \
                linking.link_from_mentions(ments, tau=tau)
        if new_keys:
            old = old.union(linking.link_from_mentions(
                ments, new_keys=new_keys, tau=tau))
        return old.materialize()

    # no old component changed (the entities stage checks): old
    # canonical partitions are still valid verbatim — canonicalize ONLY
    # the new batch and append
    old_canon = prior.get("triples_canonical")
    batch_only = new_triples is not None and old_canon is not None

    def entities():
        nonlocal batch_only
        old = read("entities") if batch_only else None
        entity_map = read(
            "edges", lambda e: canonical.connected_components(e).materialize())
        if old is not None and entity_map is not None:
            batch_only = not _entities_changed(old, entity_map)
        return entity_map

    def canonicalize(triples):
        return canonical.canonicalize_triples(
            triples, read("entities"), num_partitions=num_partitions)

    built_ments = step("mentions", tr_fp, mentions)
    step("edges", io.manifest_content_hash(manifests["mentions"]), edges)
    step("entities", io.manifest_content_hash(manifests["edges"]), entities)
    step("triples_canonical",
         f"{tr_fp}+{io.manifest_content_hash(manifests['entities'])}",
         lambda: canonicalize(new_triples) if batch_only
         else read("triples", canonicalize),
         keep={int(p) for p in old_canon["partitions"]} if batch_only
         else None)
    # one atomic commit point over the three tables: a crash anywhere
    # above leaves the PREVIOUS txn's consistent view in force, so
    # io.read_txn_table readers never see a triples/entities/canonical
    # mix from different runs
    io.commit_txn(out_dir, {t: dirs[t] for t in (
        "triples", "entities", "triples_canonical")}, note="kg_construct")
    return manifests


def forget_docs(out_dir: str, doc_ids, hard: bool = False) -> dict:
    """Right-to-be-forgotten over a ``kg_construct`` output: remove the
    given documents' rows from every doc-keyed table, rewriting ONLY the
    hash partitions that can contain them (``io.delete_rows``).  Derived
    tables (mentions/edges/entities) are NOT rewritten here — the
    triples manifest's content hash changes, so their lineage
    fingerprints go stale and the next ``kg_construct`` run over the
    same output rebuilds them without the forgotten docs (correctness
    via the existing skip machinery, not a parallel code path).

    ``hard=True`` additionally expires old snapshots and vacuums, so the
    forgotten bytes are DESTROYED rather than merely unreferenced (the
    GDPR-compliance step; without it the pre-delete snapshot remains
    time-travel-readable)."""
    import os

    from kgray import io

    out = {}
    for t in (t for t, kw in _TABLES.items() if kw["key_col"] == "doc_id"):
        path = os.path.join(out_dir, t)
        if io.read_manifest(path) is None:
            continue
        out[t] = io.delete_rows(path, doc_ids)
        if hard:
            io.expire_versions(path, keep_last=1)
    if hard:
        # destroying pinned snapshot bytes is the point of a hard
        # forget, but the txn records that pinned them must not keep
        # promising a readable version — mark them destroyed
        out["txn_pins_destroyed"] = io.prune_txn_pins(out_dir)
    return out
