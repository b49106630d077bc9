"""Entity linking: mention table -> MinHash/LSH blocking -> scored edges.

North-rule extension (SURVEY.md §7.1 step 8) — the reference has no
near-dup machinery; this follows the standard MinHash-LSH construction
(Broder 1997; Leskovec-Rajaraman-Ullman ch.3):

  mentions  = distinct (entity_type, normalized surface) from both triple
              sides, with occurrence counts (pre-aggregated per batch
              before the groupby so the shuffle moves one row per distinct
              mention per block, not one per triple — head entities like
              主演 objects would otherwise hot-spot the exchange);
  signature = k minhashes over char-2-gram shingles;
  blocking  = b bands x r rows; band hash -> candidate block; pairwise
              within a block only (blocks are capped — identical surfaces
              were already collapsed, so a block holds distinct strings);
  edges     = candidate pairs verified by exact shingle Jaccard >= tau.

The MinHash scheme itself — hash params, signatures, band rows,
candidate pairs and the exact-Jaccard verify — is the one in
kgray.ops.dedup that document near-dup runs; linking adds the mention
shingles (char 2-grams of the name), the same-type gate and, in append
mode, ``only_involving``: the first-seen keys whose pairs are the only
ones enumerated.

All stages are map_batches + one groupby per hop; pair verification runs
where the block lives (inside ``grouped_map``), never on the driver.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from kgray.ops.dedup import (
    _band_rows,
    _candidate_pairs,
    _hash_params,
    _verify_jaccard,
)
from kgray.ops.tagging import normalize_entity
from kgray.util import collect_small, grouped_map

_SEP = "\x1f"


def shingles(s: str, n: int = 2) -> set[str]:
    if len(s) < n:
        return {s} if s else set()
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def _name_shingles(key: str) -> set[str]:
    """Char-2-gram shingles of a mention key's surface name."""
    return shingles(key.split(_SEP, 1)[1])


def jaccard(a: str, b: str, n: int = 2) -> float:
    """Char-n-gram shingle Jaccard; 0 when either string has none."""
    js = _verify_jaccard([a], [b], [a], [b], lambda s: shingles(s, n), 0.0)[2]
    return js[0] if js else 0.0


def _edge_frame(us: list, vs: list, sims: list) -> pd.DataFrame:
    """Linking edges (u, v mention keys; sim) as typed columns."""
    return pd.DataFrame({"u": pd.array(us, dtype="string"),
                         "v": pd.array(vs, dtype="string"),
                         "sim": pd.array(sims, dtype="float64")})


def mention_key(entity_type: str, name: str) -> str:
    return f"{entity_type}{_SEP}{name}"


def mentions_from_triples(triples):
    """Distinct (entity_type, mention) rows with counts.

    Per-batch partial aggregation first (combiner), then a small groupby —
    the skew-defusing pattern for head entities (SURVEY.md §4).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "t": pd.concat(
                    [
                        batch["subject_type"].to_pandas(),
                        batch["object_type"].to_pandas(),
                    ],
                    ignore_index=True,
                ),
                "m": pd.concat(
                    [
                        batch["subject"].to_pandas().map(normalize_entity),
                        batch["object"].to_pandas().map(normalize_entity),
                    ],
                    ignore_index=True,
                ),
            }
        )
        g = df.groupby(["t", "m"], sort=True).size().reset_index(name="n")
        return pa.table(
            {
                "mention_key": pa.array(g["t"] + _SEP + g["m"], pa.string()),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    return (
        triples.map_batches(partial, batch_format="pyarrow")
        .groupby("mention_key")
        .aggregate(Sum("n", alias_name="n"))
    )


def _mention_bands(keys, params: np.ndarray, bands: int) -> pa.Table:
    """(band_key, mention_key) rows of the mention keys ``keys``."""
    keys = pc.cast(keys, pa.string())
    return _band_rows(keys, [_name_shingles(k) for k in keys.to_pylist()],
                      params, bands, "mention_key")


def BandEmitter(num_hashes: int = 64, bands: int = 32):
    """mention batch -> (band_key, mention_key) rows: the distributed
    linking path's band stage, minhash params built once and shipped in
    the closure (a task stage, never an actor pool)."""
    assert num_hashes % bands == 0
    params = _hash_params(num_hashes)

    def emit(batch: pa.Table) -> pa.Table:
        return _mention_bands(batch["mention_key"], params, bands)

    return emit


def mention_embeddings(ments, dim: int = 64):
    """Deterministic char-bigram hashed-TF embedding per mention (the
    dependency-free stand-in for a learned encoder; the Ray-side plumbing
    — schema, normalization, blocking — is what a real encoder would
    use).  Output: (mention_key, embedding fixed_size_list<float32>[dim])."""

    def embed(batch: pa.Table) -> pa.Table:
        keys = batch["mention_key"].to_pylist()
        mat = np.zeros((len(keys), dim), np.float32)
        for i, mk in enumerate(keys):
            name = mk.split(_SEP, 1)[1]
            for g in shingles(name):
                mat[i, zlib.crc32(g.encode()) % dim] += 1.0
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat /= np.where(norms == 0, 1, norms)
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.reshape(-1), pa.float32()), dim
        )
        return pa.table(
            {"mention_key": pa.array(keys, pa.string()), "embedding": emb}
        )

    return ments.map_batches(embed, batch_format="pyarrow")


def link_mentions_embedding(
    triples,
    tau: float = 0.85,
    dim: int = 64,
    num_centroids: int = 32,
    max_block: int = 1024,
):
    """Embedding-blocked linking variant (north-star: "minhash/embedding
    blocking"): mentions -> hashed-bigram embeddings -> IVF coarse buckets
    (k-means quantizer as the blocking key) -> in-bucket pairwise cosine
    >= tau, same-type gate.  The quantizer bounds the candidate set the
    same way LSH bands do; ``max_block`` caps degenerate buckets.
    """
    from ray.data.aggregate import Max

    from kgray.ops.similarity import fit_centroids, ivf_bucketize

    ments = mentions_from_triples(triples)
    emb = mention_embeddings(ments, dim).materialize()
    # blocking granularity scales with the mention count: aim for ~64+
    # mentions per bucket so small corpora still form candidate blocks
    n_mentions = emb.count()
    k = max(1, min(num_centroids, n_mentions // 64))
    C = fit_centroids(emb, k, vec_col="embedding")
    bucketed = ivf_bucketize(emb, C)

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        us, vs, sims = [], [], []
        for _, g in df.groupby("bucket", sort=False):
            if not (2 <= len(g) <= max_block):
                continue
            keys = g["mention_key"].to_numpy()
            mat = np.vstack([np.asarray(v, np.float64) for v in g["embedding"]])
            s = mat @ mat.T
            iu, jv = np.nonzero(np.triu(s >= tau, 1))
            for i, j in zip(iu, jv):
                ku, kv = sorted((keys[i], keys[j]))
                tu = ku.split(_SEP, 1)[0]
                tv = kv.split(_SEP, 1)[0]
                if tu != tv:  # schema-constrained: same entity type only
                    continue
                us.append(ku)
                vs.append(kv)
                sims.append(float(s[i, j]))
        return _edge_frame(us, vs, sims)

    return (
        grouped_map(bucketed, "bucket", bucket_pairs, num_buckets=16)
        .groupby(["u", "v"])
        .aggregate(Max("sim", alias_name="sim"))
    )


def _bucket_verify_df(df: pd.DataFrame, tau: float,
                      max_block: int = 256,
                      only_involving: frozenset | None = None) -> pd.DataFrame:
    """Candidate pairs + same-type gate + exact-Jaccard verify over
    (band_key, mention_key) rows.  The shared kernel of BOTH linking
    execution paths (distributed cogroup buckets and the driver-gate
    single call), so the two can never drift semantically.

    ``only_involving``: when set (append-mode incremental linking), only
    pairs with >= 1 endpoint in the set are enumerated (the set is
    ``_candidate_pairs``' ``anchors``) — old-old pairs are already
    persisted by the previous run, so they are neither generated nor
    verified."""
    pairs = _candidate_pairs(df, "mention_key", max_block, dtype="string",
                             anchors=only_involving)
    # schema-constrained: same entity type only
    def etype(col):
        return col.str.split(_SEP, n=1).str[0]

    pairs = pairs[etype(pairs["u"]) == etype(pairs["v"])]
    us, vs = pairs["u"].tolist(), pairs["v"].tolist()
    return _edge_frame(*_verify_jaccard(us, vs, us, vs, _name_shingles, tau))


def _driver_link(mention_keys: pa.Array, num_hashes: int, bands: int,
                 tau: float, max_block: int = 256,
                 only_involving: frozenset | None = None) -> pa.Table:
    """Small-side linking: banding + verify in one in-process call (the
    same kernels — ``_mention_bands``/``_bucket_verify_df`` — as the
    distributed path)."""
    band_rows = _mention_bands(mention_keys, _hash_params(num_hashes), bands)
    edges = _bucket_verify_df(band_rows.to_pandas(), tau, max_block,
                              only_involving=only_involving)
    return pa.Table.from_pandas(edges, preserve_index=False) \
        .replace_schema_metadata(None)


def link_mentions(
    triples,
    num_hashes: int = 64,
    bands: int = 32,
    tau: float = 0.6,
):
    """Full linking pipeline: triples -> verified same-entity edges.

    ``mentions_from_triples`` then ``link_from_mentions`` over the
    materialized mention table: the small-side gate (at or under
    ``MAX_DRIVER_MENTIONS`` distinct mentions the whole LSH+verify runs
    as one in-process call) and the distributed banded-cogroup path both
    live there, so the two entry points cannot drift."""
    return link_from_mentions(
        mentions_from_triples(triples).materialize(),
        num_hashes=num_hashes, bands=bands, tau=tau,
    )


# link_from_mentions' in-process gate (mention rows, read at call time)
MAX_DRIVER_MENTIONS = 200_000


def link_from_mentions(
    ments,
    new_keys: frozenset | None = None,
    num_hashes: int = 64,
    bands: int = 32,
    tau: float = 0.6,
):
    """Linking over a (mention_key, n) table.

    ``new_keys=None``: full linking (every verified pair), the stage
    kg_construct runs from its ``mentions/`` checkpoint.

    ``new_keys`` set (append mode): only edges with >= 1 endpoint in the
    set.  ``ments`` is the FULL cumulative mention table (mention scale,
    not corpus scale); ``new_keys`` is the set of mention keys first seen
    in the appended batch (batch scale — it broadcasts).  Band rows are
    emitted for every mention (a mention-scale map, no pair work), but
    inside each band bucket pairs are enumerated only from the new keys
    (each new key against its bucket's other members), so pair
    generation and Jaccard verify scale with the batch: old-old edges
    are already persisted by the previous run and are UNIONED by the
    caller, never regenerated.

    Auto-gated like connected_components: at or under
    ``MAX_DRIVER_MENTIONS`` mention rows the whole LSH+verify runs as one
    in-process call (the cogroup shuffles cost seconds even for tens of
    edges); above it, or under KGRAY_FORCE_DISTRIBUTED, the distributed
    banded-cogroup path is the 100-TB route.  Both paths share the
    signature/banding/verify kernels (``_bucket_verify_df``)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Max

    tbl = collect_small(ments, max_rows=MAX_DRIVER_MENTIONS)
    if tbl is not None:
        keys = pc.unique(tbl["mention_key"]) if tbl.num_rows \
            else pa.array([], pa.string())
        return rd.from_arrow(
            _driver_link(keys, num_hashes, bands, tau,
                         only_involving=new_keys)
        )
    banded = ments.map_batches(
        BandEmitter(num_hashes=num_hashes, bands=bands),
        batch_format="pyarrow",
    )
    # ONE band-bucket cogroup runs ``_bucket_verify_df`` where the block
    # lives; cross-bucket duplicate candidates verify redundantly
    # (deterministic, tiny) and collapse in a final Max-aggregate: 2
    # shuffles total.  ``new_keys`` ships via the object store once.
    ref = ray.put(new_keys)
    return (
        grouped_map(banded, "band_key",
                    lambda df: _bucket_verify_df(
                        df, tau, only_involving=ray.get(ref)))
        .groupby(["u", "v"])
        .aggregate(Max("sim", alias_name="sim"))
    )
