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
    # actor-pool sizing when execution="actors"; None = (1, cluster CPUs)
    classifier_concurrency: tuple[int, int] | None = None
    labeler_concurrency: tuple[int, int] | None = None

    def resolved_concurrency(self) -> tuple[tuple[int, int], tuple[int, int]]:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        cls_c = self.classifier_concurrency or (1, max(2, cpus))
        lbl_c = self.labeler_concurrency or (1, max(2, cpus))
        return cls_c, lbl_c
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

    ds = flatten_documents(docs)
    cls_c, lbl_c = cfg.resolved_concurrency()
    ds = ds.map_batches(
        cfg.classifier_cls,
        batch_format="pyarrow",
        concurrency=cls_c,
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
        concurrency=lbl_c,
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


def _edges_or_empty(edges_ds):
    """read_table returns None for an empty persisted table (a corpus
    with zero link edges is legal); CC needs a typed empty Dataset."""
    if edges_ds is not None:
        return edges_ds
    import ray.data as rd

    return rd.from_arrow(pa.table(
        {"u": pa.array([], pa.string()), "v": pa.array([], pa.string()),
         "sim": pa.array([], pa.float64())}
    ))


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

    ``append=True`` (incremental / standing-pipeline mode): ``docs`` is
    an INCREMENTAL batch of new documents (doc_ids disjoint from prior
    runs).  Only new-batch work runs at corpus scale:

    * extraction runs over the new docs only; their triple slices append
      additively into the existing hash partitions (``write_partitioned``
      keeps every attested old file and merges the manifest entries);
    * the persisted ``mentions/`` table unions with the new batch's
      partials (mention scale); linking verifies ONLY pairs touching a
      first-seen mention key (``link_from_mentions(new_keys=...)``) and
      unions with the persisted ``edges/`` — old-old edges are never
      recomputed;
    * connected components rerun over the unioned edge set (edge scale);
    * canonicalization: if NO old node's component changed (the common
      case — appends only merge components), only the new triples are
      canonicalized and appended; otherwise the canonical table is
      rebuilt in full (correctness over cleverness, and the condition is
      detected, not assumed).
    """
    import os

    from kgray import io
    from kgray.ops.canonical import canonicalize_triples, connected_components
    from kgray.ops.linking import link_from_mentions, mentions_from_triples
    from kgray.util import collect_table

    cfg = cfg or PipelineConfig()
    manifests = {}

    triples_dir = os.path.join(out_dir, "triples")
    new_triples = None  # materialized new-batch triples (append mode)
    if append:
        old_tr_m = io.read_manifest(triples_dir)
        if old_tr_m is None:
            raise ValueError(
                "append=True requires an existing kg_construct output "
                f"(no manifest under {triples_dir})"
            )
        num_partitions = int(old_tr_m.get("num_partitions", num_partitions))
        # idempotence: the manifest's fingerprint chain records every
        # applied batch; re-running the same append (driver retry) is a
        # no-op resume, NOT a duplicate write
        applied = old_tr_m.get("input_fingerprint", "").split("+")
        if input_fingerprint and input_fingerprint in applied:
            manifests["triples"] = old_tr_m
            append = False  # downstream falls to fingerprint-skip paths
        else:
            keep = {int(p) for p in old_tr_m.get("partitions", {})}
            combined_fp = (
                f"{old_tr_m.get('input_fingerprint', '')}+{input_fingerprint}"
            )
            # materialized: reused below for mentions + canonical append
            # without re-reading mixed old/new partition files
            new_triples = extract_triples(docs, cfg).materialize()
            manifests["triples"] = io.write_partitioned(
                new_triples, triples_dir, "doc_id", num_partitions,
                stage="extract", input_fingerprint=combined_fp,
                keep_partitions=keep, stats_cols=("doc_id",),
                bloom_cols=("doc_id",),
            )
    if not append and "triples" not in manifests:
        done = io.completed_partitions(triples_dir, input_fingerprint) if resume else set()
        pending_docs = io.filter_pending(docs, "doc_id", num_partitions, done)
        # NOTE: per-partition resume appends only missing partitions; the
        # written layout is the checkpoint (io.py docstring).
        triples = extract_triples(pending_docs, cfg)
        # doc_id zone maps: partitions are assigned by crc32(doc_id), which
        # scatters ids uniformly, so each partition's zone spans ~the whole
        # doc_id range and range pruning here is best-effort only (it never
        # wrongly prunes; it mostly helps a reader probing a range narrower
        # than the corpus, or a corpus whose id space is sparse/segmented).
        # The zones' primary value on this table is the audit trail: min/max
        # per partition attests which id universe each partition covers.
        manifests["triples"] = io.write_partitioned(
            triples, triples_dir, "doc_id", num_partitions,
            stage="extract", input_fingerprint=input_fingerprint,
            keep_partitions=done, stats_cols=("doc_id",),
            bloom_cols=("doc_id",),
        )

    # Downstream stages carry LINEAGE fingerprints: each stage's
    # input_fingerprint is the content fingerprint of its upstream
    # manifest(s), so a resume in which the upstream did not change skips
    # the stage entirely (incremental recompute — the manifest attests
    # both the bytes and the derivation).
    tr_fp = io.manifest_content_hash(manifests["triples"])
    ments_dir = os.path.join(out_dir, "mentions")
    edges_dir = os.path.join(out_dir, "edges")
    ments_m = io.read_manifest(ments_dir) if resume else None
    new_keys: frozenset | None = None
    old_ments = io.read_table(ments_dir) if append else None
    if append and old_ments is not None:
        from ray.data.aggregate import Sum

        from kgray.ops.joins import semi_join

        new_partials = mentions_from_triples(new_triples).materialize()
        # first-seen keys: batch scale (they broadcast into the verify)
        new_only = semi_join(new_partials, old_ments, on="mention_key",
                             anti=True)
        new_keys = frozenset(
            collect_table(new_only)["mention_key"].to_pylist()
        )
        # union + re-aggregate, MATERIALIZED before the rewrite (the
        # lazy union reads the very files the write hygiene deletes)
        ments = (
            old_ments.union(new_partials)
            .groupby("mention_key")
            .aggregate(Sum("n", alias_name="n"))
            .materialize()
        )
        manifests["mentions"] = io.write_partitioned(
            ments, ments_dir, "mention_key", num_partitions,
            stage="mentions", input_fingerprint=tr_fp,
        )
    elif ments_m is not None and ments_m.get("input_fingerprint") == tr_fp:
        manifests["mentions"] = ments_m  # unchanged upstream: skipped
    else:
        ments = mentions_from_triples(io.read_table(triples_dir))
        manifests["mentions"] = io.write_partitioned(
            ments, ments_dir, "mention_key", num_partitions,
            stage="mentions", input_fingerprint=tr_fp,
        )

    ments_fp = io.manifest_content_hash(manifests["mentions"])
    edges_m = io.read_manifest(edges_dir) if resume else None
    stored_edges = io.read_table(edges_dir) if append else None
    if append and stored_edges is not None and new_keys is not None:
        if new_keys:
            new_edges = link_from_mentions(
                io.read_table(ments_dir), new_keys=new_keys, tau=tau,
            )
            edges_all = stored_edges.union(new_edges).materialize()
        else:
            edges_all = stored_edges.materialize()
        manifests["edges"] = io.write_partitioned(
            edges_all, edges_dir, "u", num_partitions,
            stage="link", input_fingerprint=ments_fp,
        )
    elif edges_m is not None and edges_m.get("input_fingerprint") == ments_fp:
        manifests["edges"] = edges_m
    else:
        ments_ds = io.read_table(ments_dir)
        edges = (
            link_from_mentions(ments_ds, tau=tau) if ments_ds is not None
            else _edges_or_empty(None)
        )
        manifests["edges"] = io.write_partitioned(
            edges, edges_dir, "u", num_partitions,
            stage="link", input_fingerprint=ments_fp,
        )

    edges_fp = io.manifest_content_hash(manifests["edges"])
    ent_dir = os.path.join(out_dir, "entities")
    ent_m = io.read_manifest(ent_dir) if resume else None
    old_entities = io.read_table(ent_dir) if append else None
    entities_changed = False
    if ent_m is not None and ent_m.get("input_fingerprint") == edges_fp:
        manifests["entities"] = ent_m  # unchanged edges: stage skipped
    else:
        entity_map = connected_components(
            _edges_or_empty(io.read_table(edges_dir))
        ).materialize()
        if append and old_entities is not None:
            entities_changed = _entities_changed(old_entities, entity_map)
        manifests["entities"] = io.write_partitioned(
            entity_map, ent_dir, "node", num_partitions,
            stage="link+canonicalize", input_fingerprint=edges_fp,
        )

    canon_fp = f"{tr_fp}+{io.manifest_content_hash(manifests['entities'])}"
    canon_dir = os.path.join(out_dir, "triples_canonical")
    canon_m = io.read_manifest(canon_dir) if resume else None
    if canon_m is not None and canon_m.get("input_fingerprint") == canon_fp:
        manifests["triples_canonical"] = canon_m
    elif (append and not entities_changed and canon_m is not None
          and new_triples is not None):
        # no old component changed: old canonical partitions are still
        # valid verbatim — canonicalize ONLY the new batch and append
        canon_new = canonicalize_triples(
            new_triples, io.read_table(ent_dir),
            num_partitions=num_partitions,
        )
        manifests["triples_canonical"] = io.write_partitioned(
            canon_new, canon_dir, "doc_id", num_partitions,
            stage="materialize", input_fingerprint=canon_fp,
            keep_partitions={int(p) for p in canon_m.get("partitions", {})},
            stats_cols=("doc_id",),
            bloom_cols=("doc_id", "subject_canonical"),
        )
    else:
        canon = canonicalize_triples(
            io.read_table(triples_dir), io.read_table(ent_dir),
            num_partitions=num_partitions,
        )
        manifests["triples_canonical"] = io.write_partitioned(
            canon, canon_dir, "doc_id",
            num_partitions, stage="materialize", input_fingerprint=canon_fp,
            stats_cols=("doc_id",),
            bloom_cols=("doc_id", "subject_canonical"),
        )
    # one atomic commit point over the three tables: a crash anywhere
    # above leaves the PREVIOUS txn's consistent view in force, so
    # io.read_txn_table readers never see a triples/entities/canonical
    # mix from different runs
    io.commit_txn(out_dir, {
        "triples": triples_dir,
        "entities": ent_dir,
        "triples_canonical": canon_dir,
    }, note="kg_construct")
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
    for t in ("triples", "triples_canonical"):
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
