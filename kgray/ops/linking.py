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

All stages are map_batches + one groupby per hop; pair verification runs
where the block lives (map_groups), never on the driver.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from kgray.ops.tagging import normalize_entity

from kgray.util import collect_small

_SEP = "\x1f"


def shingles(s: str, n: int = 2) -> set[str]:
    if len(s) < n:
        return {s} if s else set()
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def _hash32(s: str) -> int:
    return zlib.crc32(s.encode())


# fixed random-odd multipliers for the k universal hash functions
def _hash_params(k: int, seed: int = 1234) -> np.ndarray:
    rs = np.random.RandomState(seed)
    a = rs.randint(1, 2**31 - 1, size=k, dtype=np.int64) * 2 + 1
    b = rs.randint(0, 2**31 - 1, size=k, dtype=np.int64)
    return np.stack([a, b])


_MERSENNE = (1 << 61) - 1


def minhash_signature(s: str, params: np.ndarray) -> np.ndarray:
    """k-wide minhash over char-2-gram crc32 shingle hashes."""
    sh = shingles(s)
    if not sh:
        return np.zeros(params.shape[1], np.uint64)
    hv = np.fromiter((_hash32(x) for x in sh), np.int64, len(sh))
    a, b = params
    # (k, n) universal hashes, min over shingles
    m = (hv[None, :] * a[:, None] + b[:, None]) % _MERSENNE
    return m.min(axis=1).astype(np.uint64)


def jaccard(a: str, b: str, n: int = 2) -> float:
    sa, sb = shingles(a, n), shingles(b, n)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


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


class BandEmitter:
    """mention -> (band_key, mention_key) rows; minhash params built once
    per actor (stateful-stage pattern, SURVEY.md §2.3)."""

    def __init__(self, num_hashes: int = 64, bands: int = 32):
        assert num_hashes % bands == 0
        self.params = _hash_params(num_hashes)
        self.bands = bands
        self.rows = num_hashes // bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        from kgray.ops.dedup import band_keys, batch_signatures

        keys = batch["mention_key"].to_pylist()
        names = [mk.split(_SEP, 1)[1] for mk in keys]
        sigs = batch_signatures([shingles(n) for n in names], self.params)
        out_key = np.repeat(np.asarray(keys, object), self.bands)
        return pa.table(
            {
                "band_key": pa.array(band_keys(sigs, self.bands)),
                "mention_key": pa.array(out_key, pa.string()),
            }
        )


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
    import pandas as pd

    from kgray.ops.similarity import fit_centroids, ivf_bucketize
    from kgray.util import grouped_map

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
        return pd.DataFrame(
            {
                "u": pd.array(us, dtype="string"),
                "v": pd.array(vs, dtype="string"),
                "sim": pd.array(sims, dtype="float64"),
            }
        )

    from ray.data.aggregate import Max

    return (
        grouped_map(bucketed, "bucket", bucket_pairs, num_buckets=16)
        .groupby(["u", "v"])
        .aggregate(Max("sim", alias_name="sim"))
    )


def _bucket_verify_df(df: pd.DataFrame, tau: float,
                      max_block: int = 256,
                      only_involving: frozenset | None = None) -> pd.DataFrame:
    """Pair-gen + in-bucket dedup + same-type gate + exact-Jaccard verify
    over (band_key, mention_key) rows.  The shared kernel of BOTH linking
    execution paths (distributed cogroup buckets and the driver-gate
    single call), so the two can never drift semantically.

    ``only_involving``: when set (append-mode incremental linking), only
    pairs with >= 1 endpoint in the set are verified — old-old pairs are
    already persisted by the previous run and the Jaccard work (the
    expensive part) is skipped for them."""
    from kgray.util import pairs_within_groups

    pairs = pairs_within_groups(
        df, "band_key", "mention_key", max_block, dtype="string"
    )
    if len(pairs):
        pairs = pairs.drop_duplicates(ignore_index=True)
    if only_involving is not None and len(pairs):
        keep = pairs["u"].isin(only_involving) | pairs["v"].isin(
            only_involving)
        pairs = pairs[keep]
    cache: dict[str, set] = {}

    def sh(key: str) -> set:
        s = cache.get(key)
        if s is None:
            s = cache[key] = shingles(key.split(_SEP, 1)[1])
        return s

    us, vs, sims = [], [], []
    for u, v in zip(pairs["u"].tolist(), pairs["v"].tolist()):
        if u.split(_SEP, 1)[0] != v.split(_SEP, 1)[0]:
            continue  # schema-constrained: same entity type only
        sa, sb = sh(u), sh(v)
        if not sa or not sb:
            continue
        sim = len(sa & sb) / len(sa | sb)
        if sim >= tau:
            us.append(u)
            vs.append(v)
            sims.append(sim)
    return pd.DataFrame(
        {
            "u": pd.array(us, dtype="string"),
            "v": pd.array(vs, dtype="string"),
            "sim": pd.array(sims, dtype="float64"),
        }
    )


def _verified_pairs_fused(banded, tau: float, max_block: int = 256,
                          only_involving: frozenset | None = None):
    """Fused distributed path: ONE band-bucket cogroup runs
    ``_bucket_verify_df`` where the block lives; cross-bucket duplicate
    candidates verify redundantly (deterministic, tiny) and collapse in a
    final Max-aggregate.  2 shuffles total.  ``only_involving`` ships via
    the object store once (ray.put) for the append-mode restriction."""
    import ray
    from ray.data.aggregate import Max

    from kgray.util import grouped_map

    ref = ray.put(only_involving) if only_involving is not None else None

    def bucket_verify(df: pd.DataFrame) -> pd.DataFrame:
        new_set = ray.get(ref) if ref is not None else None
        return _bucket_verify_df(df, tau, max_block,
                                 only_involving=new_set)

    return (
        grouped_map(banded, "band_key", bucket_verify)
        .groupby(["u", "v"])
        .aggregate(Max("sim", alias_name="sim"))
    )


def _driver_link(mention_keys: list[str], num_hashes: int, bands: int,
                 tau: float, max_block: int = 256,
                 only_involving: frozenset | None = None) -> pa.Table:
    """Small-side linking: signatures + banding + verify in one in-process
    call (same kernels — ``batch_signatures``/``band_keys``/
    ``_bucket_verify_df`` — as the distributed path)."""
    from kgray.ops.dedup import band_keys, batch_signatures

    params = _hash_params(num_hashes)
    names = [mk.split(_SEP, 1)[1] for mk in mention_keys]
    sigs = batch_signatures([shingles(n) for n in names], params)
    bk = band_keys(sigs, bands)
    df = pd.DataFrame(
        {
            "band_key": bk,
            "mention_key": np.repeat(np.asarray(mention_keys, object), bands),
        }
    )
    edges = _bucket_verify_df(df, tau, max_block,
                              only_involving=only_involving)
    if len(edges):
        edges = (
            edges.groupby(["u", "v"], sort=False)["sim"].max().reset_index()
        )
    return pa.table(
        {
            "u": pa.array(edges["u"].tolist(), pa.string()),
            "v": pa.array(edges["v"].tolist(), pa.string()),
            "sim": pa.array(edges["sim"].tolist(), pa.float64()),
        }
    )


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
    pair generation + Jaccard verify inside each band bucket keeps only
    pairs touching a new key: old-old edges are already persisted by the
    previous run and are UNIONED by the caller, never recomputed.

    Auto-gated like connected_components: at or under
    ``MAX_DRIVER_MENTIONS`` mention rows the whole LSH+verify runs as one
    in-process call (the cogroup shuffles cost seconds even for tens of
    edges); above it, or under KGRAY_FORCE_DISTRIBUTED, the distributed
    banded-cogroup path is the 100-TB route.  Both paths share the
    signature/banding/verify kernels (``_bucket_verify_df``)."""
    import pyarrow.compute as pc
    import ray.data as rd

    tbl = collect_small(ments, max_rows=MAX_DRIVER_MENTIONS)
    if tbl is not None:
        keys = pc.unique(tbl["mention_key"]).to_pylist() \
            if tbl.num_rows else []
        return rd.from_arrow(
            _driver_link(keys, num_hashes, bands, tau,
                         only_involving=new_keys)
        )
    banded = ments.map_batches(
        BandEmitter(num_hashes=num_hashes, bands=bands),
        batch_format="pyarrow",
    )
    return _verified_pairs_fused(banded, tau=tau, only_involving=new_keys)
