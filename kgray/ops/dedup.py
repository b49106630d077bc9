"""Deduplication family for training-data pipelines.

Exact dedup, word-n-gram Jaccard near-dup, MinHash-LSH near-dup, SimHash
near-dup, embedding-cosine near-dup — each expressed as Ray Data
shuffles with per-batch combiners (no driver-side row loops):

* exact: hash-partition on content -> per-group first (D3 first-wins);
* n-gram Jaccard: inverted shingle index -> shared-count pairs ->
  bucket-join doc shingle counts -> jaccard = shared/(na+nb-shared);
* MinHash-LSH: the engine's one MinHash scheme lives here and also
  serves entity linking (kgray.ops.linking) — ``_hash_params`` ->
  ``batch_signatures`` -> ``band_keys``, emitted as (band_key, id) rows
  by ``_band_rows``; ``_candidate_pairs`` (``util.pairs_within_groups``
  + dedup) makes the in-bucket pairs — for append-mode linking it
  enumerates only the pairs touching a first-seen key (``anchors``),
  it never filters a full pair set — and ``_verify_jaccard`` is the one
  exact-Jaccard verify, parameterized by the shingle function (word
  3-grams of a document here, char 2-grams of a mention name there);
  ``_minhash_verify`` is the bucket kernel of both small-side plans;
* SimHash: 64-bit signatures, banded by 16-bit chunks, pairs from
  ``util.pairs_within_groups``, vectorized-popcount hamming verify;
* embedding: exact brute force against a broadcast matrix, exact
  block-pair cogroup, or multi-probe IVF buckets — each emits through
  ``_cos_pairs`` (u < v orientation, rounded cosine, typed empty).

The word n-gram explode (every occurrence, or each distinct shingle) is
``_explode_ngrams``, shared by decontamination and dup-n-gram stats.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# pairs_within_groups is looked up on the module at call time, so a
# wrapper installed on kgray.util (kgbench's tracer) sees every call
from kgray import util
from kgray.util import (
    collect_small,
    collect_table,
    empty_table,
    fits_small,
    force_distributed,
    grouped_map,
    round_half_up,
)

# Small-side gates, read at call time (KGRAY_FORCE_DISTRIBUTED collapses
# each to 0):
# rows of a shingle-scale fold broadcast once (set_jaccard_pairs' doc
# counts, set_jaccard_pairs_prefix's token ranks, dup_ngram_stats' set)
MAX_BROADCAST_ROWS = 50_000_000
# estimated input bytes run as one in-process call (minhash, simhash)
MAX_DRIVER_BYTES = 32 << 20
# estimated input bytes for minhash's broadcast-texts plan
MAX_BROADCAST_BYTES = 1 << 31
# vectors for embedding_dup_pairs' exact brute-force broadcast
MAX_BRUTE_ROWS = 100_000


def _typed(ds, **cols):
    """``ds`` with a 0-row block of the given column types unioned in:
    Ray drops 0-row blocks through a map or groupby, so an op whose
    input (or result) is empty would otherwise return a Dataset with no
    columns."""
    import ray.data as rd

    return ds.union(rd.from_arrow(empty_table(**cols)))


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup_groups(docs, text_col: str = "text", id_col: str = "doc_id"):
    """One row per distinct content: (keep_id = min id, n_copies).

    D3 semantics (SURVEY.md §2.7): global dedup = groupby(content hash),
    first-wins by min id.  The shuffle key is the md5 DIGEST, not the
    text: the per-batch combiner already collapses duplicates, and
    hashing shrinks the shuffled key from document-sized strings to 32
    bytes — at corpus scale the exchange moves digests, never content.
    """
    import hashlib

    from ray.data.aggregate import Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        df = pd.DataFrame(
            {
                "h": [hashlib.md5(t.encode()).hexdigest() for t in texts],
                "id": batch[id_col].to_pandas(),
            }
        )
        g = df.groupby("h", sort=True).agg(
            keep_id=("id", "min"), n_copies=("id", "size")
        ).reset_index()
        return pa.table(
            {
                "h": pa.array(g["h"], pa.string()),
                "keep_id": pa.array(g["keep_id"].to_numpy(np.int64)),
                "n_copies": pa.array(g["n_copies"].to_numpy(np.int64)),
            }
        )

    return _typed(
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("h")
        .aggregate(
            Min("keep_id", alias_name="keep_id"),
            Sum("n_copies", alias_name="n_copies"),
        ),
        h=pa.string(), keep_id=pa.int64(), n_copies=pa.int64(),
    )


def exact_dedup_keep(docs, text_col: str = "text", id_col: str = "doc_id"):
    """The surviving rows (doc ids) after exact dedup."""
    groups = exact_dedup_groups(docs, text_col, id_col)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["keep_id"]})

    return _typed(groups.map_batches(project, batch_format="pyarrow"),
                  doc_id=pa.int64())


# ---------------------------------------------------------------------------
# word-n-gram Jaccard near-dup (exact, SQL-oracle-checkable)
# ---------------------------------------------------------------------------

def _word_ngrams(text: str, n: int) -> list[str]:
    """Every word n-gram occurrence of ``text``, in order.  Texts shorter
    than n tokens yield none — matches the SQL oracle's WHERE len >= n
    (a whole-text shingle made two identical short docs a jac=1.0 pair
    in Ray but zero rows in SQL)."""
    toks = text.split(" ")
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def word_shingles(text: str, n: int = 3) -> list[str]:
    return sorted(set(_word_ngrams(text, n)))


def _explode_ngrams(texts: list, n: int, distinct: bool = False):
    """(row index int64 array, grams) over every word n-gram occurrence
    of each text — or each distinct shingle when ``distinct``."""
    per = [word_shingles(t, n) if distinct else _word_ngrams(t, n)
           for t in texts]
    idx = np.repeat(np.arange(len(per), dtype=np.int64),
                    [len(g) for g in per])
    return idx, [g for gs in per for g in gs]


def ngram_jaccard_pairs(docs, tau: float = 0.8, n: int = 3,
                        text_col: str = "text", id_col: str = "doc_id",
                        num_buckets: int = 16, digits: int = 4,
                        metric: str = "jaccard"):
    """All doc pairs (u < v) with word-n-gram Jaccard >= tau.

    Exact (no sketching): inverted index on distinct shingles ->
    per-shingle pair emission -> shared counts -> jaccard via per-doc
    shingle counts attached with bucket joins.  The per-shingle pair
    emission is quadratic in a shingle's doc list — acceptable because
    distinct n-grams are near-unique; a degenerate shingle shared by
    > max_block docs is dropped (same cap rationale as LSH blocks).
    NOTE: the max_block cap is an intentional divergence from the SQL
    oracle (which has no cap); it only bites when a single shingle is
    shared by >64 docs, which the oracle-checked corpora never hit.
    """
    def emit(batch: pa.Table) -> pa.Table:
        idx, grams = _explode_ngrams(batch[text_col].to_pylist(), n,
                                     distinct=True)
        return pa.table(
            {
                "shingle": pa.array(grams, pa.string()),
                "doc": pc.cast(batch[id_col], pa.int64()).take(idx),
            }
        )

    exploded = docs.map_batches(emit, batch_format="pyarrow")

    def count_shingles(batch: pa.Table) -> pa.Table:
        idx, _ = _explode_ngrams(batch[text_col].to_pylist(), n,
                                 distinct=True)
        return pa.table(
            {
                "doc": pc.cast(batch[id_col], pa.int64()),
                "nsh": pa.array(np.bincount(idx, minlength=len(batch)),
                                pa.int64()),
            }
        )

    counts = docs.map_batches(count_shingles, batch_format="pyarrow")
    return set_jaccard_pairs(
        exploded, counts, n_items=docs.count(), tau=tau, digits=digits,
        num_buckets=num_buckets, metric=metric,
    )


def set_jaccard_pairs(exploded, counts, n_items: int, tau: float,
                      digits: int = 4, num_buckets: int = 16,
                      max_block: int = 64, metric: str = "jaccard"):
    """Generic exact set-similarity self-join: all item pairs (u < v)
    with Jaccard(token sets) >= tau, from an inverted-index explode.

    ``exploded``: (shingle, doc) rows — one row per (token, item);
    ``counts``: (doc, nsh) — per-item DISTINCT token count, one row per
    item (its row count drives the broadcast-vs-distributed gate);
    ``n_items``: item count (0 short-circuits to a typed empty result).
    Shared by word-n-gram near-dup (ngram_jaccard_pairs) and graph
    adjacency link prediction (common-neighbor Jaccard), which is the
    same computation with (item=node, token=neighbor).

    ``metric="containment"`` switches the finish to the ASYMMETRIC
    containment C(A in B) = |A∩B| / |A| and emits DIRECTED rows
    (u, v, cont) for every ordered pair with cont >= tau — the
    sub/superset near-dup detector (a short doc quoted whole inside a
    long one has high containment but low Jaccard).  Shared-shingle
    blocking stays lossless: containment >= tau > 0 still requires at
    least one common shingle.  Everything upstream of the finish
    (pair emission, count attach, both gate paths) is identical."""
    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = util.pairs_within_groups(df, "shingle", "doc", max_block)
        # combiner: pre-sum (u, v) INSIDE the bucket — the same pair
        # repeats for every shared shingle hashed here, and near-unique
        # pair keys must never reach a groupby.aggregate (measured 30 s
        # for 1.1M pairs at sf0.1; the cogroup fold below is <2 s)
        if not len(out):
            return empty_table(u=pa.int64(), v=pa.int64(), shared=pa.int64())
        return (
            out.groupby(["u", "v"], sort=False).size().reset_index(
                name="shared")
        )

    # coarse-bucket cogroup (ONE fn call per bucket, per-shingle grouping
    # vectorized inside) — per-tiny-group map_groups overhead is 100x
    partials = grouped_map(exploded, "shingle", bucket_pairs,
                           num_buckets=num_buckets)

    def _jac_finish(df: pd.DataFrame) -> pd.DataFrame:
        sh = df["shared"].to_numpy(np.float64)
        na = df["nsh_u"].to_numpy(np.float64)
        nb = df["nsh_v"].to_numpy(np.float64)
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        if metric == "containment":
            cu = sh / na   # containment of u's set in v's
            cv = sh / nb   # and the reverse direction
            ku, kv = cu >= tau, cv >= tau
            cont = np.concatenate([cu[ku], cv[kv]])
            return pd.DataFrame(
                {
                    "u": pd.array(np.concatenate([u[ku], v[kv]]),
                                  dtype="int64"),
                    "v": pd.array(np.concatenate([v[ku], u[kv]]),
                                  dtype="int64"),
                    "cont": pd.array(round_half_up(cont, digits),
                                     dtype="float64"),
                }
            )
        jac = sh / (na + nb - sh)
        keep = jac >= tau
        return pd.DataFrame(
            {
                "u": pd.array(u[keep], dtype="int64"),
                "v": pd.array(v[keep], dtype="int64"),
                "jac": pd.array(round_half_up(jac[keep], digits),
                                dtype="float64"),
            }
        )

    # per-doc shingle counts are one small int row per doc.  Under
    # ``MAX_BROADCAST_ROWS`` (16 bytes x 50M = 800 MB) they collect
    # ONCE and broadcast into the fold cogroup; above it (10^9-doc
    # territory, or the forced-distributed gate) counts attach via two
    # keyed union-cogroups — pair rows NEVER pay a groupby.aggregate or
    # a join stage in either path (the tpch_q13 union-cogroup shape).
    val = "cont" if metric == "containment" else "jac"
    if n_items == 0:
        # empty item set (e.g. an upstream filter kept nothing): the
        # schema-less empty dataset can't even name its columns
        return __import__("ray").data.from_arrow(
            empty_table(u=pa.int64(), v=pa.int64(), **{val: pa.float64()}))
    counts = counts.materialize()  # gate count + collect/cogroups reuse it
    counts_tbl = collect_small(counts, max_rows=MAX_BROADCAST_ROWS)
    if counts_tbl is not None:
        import ray

        nsh_of = pd.Series(
            counts_tbl["nsh"].to_numpy(zero_copy_only=False),
            index=counts_tbl["doc"].to_numpy(zero_copy_only=False),
        )
        nsh_ref = ray.put(nsh_of)

        def fold_and_finish(df: pd.DataFrame) -> pd.DataFrame:
            nsh = ray.get(nsh_ref)
            g = df.groupby(["u", "v"], sort=False)["shared"].sum() \
                .reset_index()
            g["nsh_u"] = nsh.reindex(g["u"].to_numpy()).to_numpy()
            g["nsh_v"] = nsh.reindex(g["v"].to_numpy()).to_numpy()
            return _jac_finish(g)

        return grouped_map(partials, "u", fold_and_finish)

    # forced/scale path: union the count rows into the cogroup itself
    cnt_u = counts.map_batches(
        lambda b: pa.table(
            {"u": b["doc"], "v": pa.nulls(len(b), pa.int64()),
             "shared": pa.nulls(len(b), pa.int64()), "nsh": b["nsh"]}
        ),
        batch_format="pyarrow",
    )
    pair_u = partials.map_batches(
        lambda b: pa.table(
            {"u": b["u"], "v": b["v"], "shared": b["shared"],
             "nsh": pa.nulls(len(b), pa.int64())}
        ),
        batch_format="pyarrow",
    )

    def fold_attach_u(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df[df["nsh"].notna()]
        nsh = pd.Series(cnt["nsh"].to_numpy(np.int64),
                        index=cnt["u"].to_numpy(np.int64))
        pr = df[df["nsh"].isna()]
        if not len(pr):
            return empty_table(v=pa.int64(), u=pa.int64(), shared=pa.int64(),
                               nsh_u=pa.int64())
        g = pr.groupby(["u", "v"], sort=False)["shared"].sum().reset_index()
        g["shared"] = g["shared"].astype(np.int64)
        g["nsh_u"] = nsh.reindex(g["u"].to_numpy(np.int64)).to_numpy(
            np.int64)
        g["v"] = g["v"].astype(np.int64)
        return g[["v", "u", "shared", "nsh_u"]]

    stage_u = grouped_map(pair_u.union(cnt_u), "u", fold_attach_u)

    cnt_v = counts.map_batches(
        lambda b: pa.table(
            {"v": b["doc"], "u": pa.nulls(len(b), pa.int64()),
             "shared": pa.nulls(len(b), pa.int64()),
             "nsh_u": pa.nulls(len(b), pa.int64()), "nsh": b["nsh"]}
        ),
        batch_format="pyarrow",
    )
    stage_u2 = stage_u.map_batches(
        lambda b: b.append_column("nsh", pa.nulls(len(b), pa.int64())),
        batch_format="pyarrow",
    )

    def attach_v_finish(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df[df["nsh"].notna()]
        nsh = pd.Series(cnt["nsh"].to_numpy(np.int64),
                        index=cnt["v"].to_numpy(np.int64))
        pr = df[df["nsh"].isna()].copy()
        if not len(pr):
            return empty_table(u=pa.int64(), v=pa.int64(),
                               **{val: pa.float64()})
        pr["nsh_v"] = nsh.reindex(pr["v"].to_numpy(np.int64)).to_numpy(
            np.int64)
        pr["u"] = pr["u"].astype(np.int64)
        return _jac_finish(pr)

    return grouped_map(stage_u2.union(cnt_v), "v", attach_v_finish)


# ---------------------------------------------------------------------------
# MinHash-LSH: the one scheme behind document near-dup and entity linking
# ---------------------------------------------------------------------------

# fixed random-odd multipliers for the k universal hash functions
def _hash_params(k: int, seed: int = 1234) -> np.ndarray:
    rs = np.random.RandomState(seed)
    a = rs.randint(1, 2**31 - 1, size=k, dtype=np.int64) * 2 + 1
    b = rs.randint(0, 2**31 - 1, size=k, dtype=np.int64)
    return np.stack([a, b])


def band_keys(sigs: np.ndarray, bands: int) -> np.ndarray:
    """Vectorized LSH band keys: fold each band's signature rows into one
    int64 (splitmix-style avalanche), band index in the top byte so bands
    never collide.  Replaces the per-(doc, band) python f-string+crc loop
    (was ~30us each -> the banding stage's top cost) and shuffles 8-byte
    ints instead of 11-char strings."""
    n, k = sigs.shape
    rows = k // bands
    s = sigs.reshape(n, bands, rows).astype(np.uint64)
    h = np.full((n, bands), 0x9E3779B97F4A7C15, np.uint64)
    for r in range(rows):
        h = (h ^ s[:, :, r]) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(29)
    h = (h & np.uint64(0x00FFFFFFFFFFFFFF)) | (
        np.arange(bands, dtype=np.uint64)[None, :] << np.uint64(56)
    )
    return h.reshape(-1).view(np.int64)


_SIG_BUFFERS: dict = {}


def batch_signatures(shingle_sets: list, params: np.ndarray,
                     chunk_shingles: int = 8192) -> np.ndarray:
    """MinHash signatures for a whole batch: flatten shingle hashes, apply
    the k universal hashes as matrix ops, per-doc min via
    ``np.minimum.reduceat`` — no per-doc python loop.

    Work proceeds in doc-aligned CHUNKS through preallocated buffers
    (``out=``): one giant (k, total) temporary would be a fresh 100MB+
    allocation per call, and first-touch page faults on this class of VM
    run at ~5 MB/s (measured: 26s fresh vs 0.03s warm for the same
    multiply) — chunked+reused buffers keep every op on warm pages.
    Items with no shingles get an all-zero signature."""
    k = params.shape[1]
    n = len(shingle_sets)
    lens = np.fromiter((len(s) for s in shingle_sets), np.int64, n)
    out = np.zeros((n, k), np.uint64)
    if lens.sum() == 0:
        return out
    a, b = params
    a_col = a[:, None]
    b_col = b[:, None]
    # per-process buffer cache: pages stay warm across calls in a
    # long-lived Ray worker (first touch is the expensive part)
    key = (k, chunk_shingles)
    buf = _SIG_BUFFERS.get(key)
    if buf is None:
        buf = _SIG_BUFFERS[key] = np.empty((k, chunk_shingles), np.int64)
        buf.fill(0)  # touch every page now, once
    mersenne = (1 << 61) - 1

    start_doc = 0
    while start_doc < n:
        end_doc = start_doc
        tot = 0
        while end_doc < n and (tot == 0 or tot + lens[end_doc] <= chunk_shingles):
            tot += lens[end_doc]
            end_doc += 1
        docs = range(start_doc, end_doc)
        flat = [x for d in docs for x in shingle_sets[d]]
        if flat:
            hv = np.fromiter(
                (zlib.crc32(x.encode()) for x in flat), np.int64, len(flat)
            )
            w = buf[:, : len(hv)] if len(hv) <= chunk_shingles else np.empty(
                (k, len(hv)), np.int64
            )
            np.multiply(a_col, hv[None, :], out=w)
            np.add(w, b_col, out=w)
            np.mod(w, mersenne, out=w)
            sub_lens = lens[start_doc:end_doc]
            ne = sub_lens > 0
            offsets = np.concatenate([[0], np.cumsum(sub_lens)[:-1]])[ne]
            mins = np.minimum.reduceat(w, offsets, axis=1)
            idx = np.arange(start_doc, end_doc)[ne]
            out[idx] = mins.T.astype(np.uint64)
        start_doc = end_doc
    return out


def _band_rows(ids, shingle_sets: list, params: np.ndarray, bands: int,
               id_col: str) -> pa.Table:
    """(band_key, ``id_col``) rows, ``bands`` per item: each item's
    MinHash signature folded into LSH band keys, beside its id (an Arrow
    array, repeated in place).  The one band-row emitter of document
    near-dup and of both entity-linking paths."""
    sigs = batch_signatures(shingle_sets, params)
    return pa.table(
        {
            "band_key": pa.array(band_keys(sigs, bands)),
            id_col: ids.take(np.repeat(np.arange(len(ids)), bands)),
        }
    )


def _candidate_pairs(band_rows: pd.DataFrame, id_col: str, max_block: int,
                     dtype: str = "int64", anchors=None) -> pd.DataFrame:
    """Distinct (u < v) id pairs that share a band bucket of (band_key,
    ``id_col``) rows; buckets over ``max_block`` ids are skipped.  With
    ``anchors`` (a set of ids) only pairs with an endpoint in the set are
    enumerated (``util.pairs_within_groups``), never filtered after."""
    pairs = util.pairs_within_groups(band_rows, "band_key", id_col,
                                     max_block, dtype=dtype, anchors=anchors)
    return pairs.drop_duplicates(ignore_index=True) if len(pairs) else pairs


def _verify_jaccard(us, vs, ta, tb, shingle_set, tau: float):
    """Exact set Jaccard of candidate pairs (u, v) whose endpoints carry
    the values ``ta``/``tb``: ``shingle_set(value)`` is memoized per
    distinct value (pairs repeat endpoints heavily), and an endpoint
    with no shingles matches nothing.  Returns the (u, v, jaccard) lists
    of the pairs at or above ``tau``.  The one verify kernel of document
    near-dup (word 3-grams of the text) and entity linking (char 2-grams
    of the mention name)."""
    cache: dict = {}

    def sh(t):
        s = cache.get(t)
        if s is None:
            s = cache[t] = shingle_set(t)
        return s

    ku, kv, js = [], [], []
    for u, v, a, b in zip(us, vs, ta, tb):
        sa, sb = sh(a), sh(b)
        if not sa or not sb:
            continue
        j = len(sa & sb) / len(sa | sb)
        if j >= tau:
            ku.append(u)
            kv.append(v)
            js.append(j)
    return ku, kv, js


def _verify_docs(us, vs, ta, tb, tau: float) -> pa.Table:
    """Candidate doc pairs (u, v) with texts ``ta``/``tb`` -> verified
    (u, v, jac) rows: word-3-gram Jaccard >= tau, rounded to 4 digits."""
    ku, kv, js = _verify_jaccard(us, vs, ta, tb,
                                 lambda t: set(word_shingles(t or "")), tau)
    return pa.table(
        {
            "u": pa.array(ku, pa.int64()),
            "v": pa.array(kv, pa.int64()),
            "jac": pa.array(round_half_up(np.asarray(js, np.float64), 4),
                            pa.float64()),
        }
    )


def _minhash_verify(band_rows: pd.DataFrame, texts: pa.Table, tau: float,
                    max_block: int) -> pa.Table:
    """(band_key, doc) rows -> verified (u, v, jac) pairs, each endpoint's
    text looked up in the (doc, text) table: the bucket kernel of
    minhash_dup_pairs' in-process call and of its broadcast cogroup."""
    pairs = _candidate_pairs(band_rows, "doc", max_block)
    if not len(pairs):
        return _verify_docs([], [], [], [], tau)

    def texts_for(col):
        idx = pc.index_in(pa.array(col.to_numpy(), pa.int64()),
                          value_set=texts["doc"])
        return texts["text"].take(idx).to_pylist()

    return _verify_docs(pairs["u"].tolist(), pairs["v"].tolist(),
                        texts_for(pairs["u"]), texts_for(pairs["v"]), tau)


def minhash_dup_pairs(docs, tau: float = 0.7, text_col: str = "text",
                      id_col: str = "doc_id", num_hashes: int = 64,
                      bands: int = 32):
    """Near-dup pairs by MinHash-LSH over word-3-gram shingles.

    The execution plan follows the Dataset's estimated size: at or under
    ``MAX_DRIVER_BYTES`` (32 MiB) the whole job runs as one in-process
    call (the small-side gate — shuffle barriers dominate tiny inputs);
    at or under ``MAX_BROADCAST_BYTES`` (2 GiB) the doc->text map is
    collected once and broadcast via the object store; above it (or when
    no size estimate exists, or under KGRAY_FORCE_DISTRIBUTED) the
    partitioned ``bucket_join`` path runs — never an unbounded
    driver-side collect."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Max

    # tasks, not an actor pool: the state is 64 hash params, trivial to
    # ship in the closure, and tasks scale to every core with no pool ramp
    params = _hash_params(num_hashes)

    def doc_bands(batch: pa.Table) -> pa.Table:
        return _band_rows(
            pc.cast(batch[id_col], pa.int64()),
            [word_shingles(t) for t in batch[text_col].to_pylist()],
            params, bands, "doc",
        )

    banded = docs.map_batches(doc_bands, batch_format="pyarrow")

    max_block = 128
    texts_ds = docs.map_batches(
        lambda b: pa.table({"doc": b[id_col].cast(pa.int64()),
                            "text": b[text_col]}),
        batch_format="pyarrow",
    )

    in_process = fits_small(docs, max_bytes=MAX_DRIVER_BYTES)
    if in_process or fits_small(docs, max_bytes=MAX_BROADCAST_BYTES):
        texts = collect_table(texts_ds).combine_chunks()
        if in_process:
            # Small-side gate: signatures/banding stay DISTRIBUTED (they
            # fuse with the read); only the tiny band rows (n_docs x
            # bands x 16B) and the gated texts are collected, and the
            # pair-gen + verify shuffles become one bucket-kernel call.
            bt = collect_table(banded)
            if not bt.num_rows:
                bt = empty_table(band_key=pa.int64(), doc=pa.int64())
            return rd.from_arrow(
                _minhash_verify(bt.to_pandas(), texts, tau, max_block))
        # Fused path: the same bucket kernel inside the ONE band-bucket
        # cogroup (texts reach workers as a zero-copy Arrow broadcast);
        # cross-bucket duplicate candidates are verified redundantly
        # (deterministic, tiny) and collapse in a final Max-aggregate
        # over the verified pairs — 2 shuffles total instead of cogroup
        # + candidate groupby + 2 join stages.
        ref = ray.put(texts)
        # coalesce=False: banded inherits the read's coarse block layout
        # (~1-2 blocks/CPU), and the pre-sort repartition barrier costs
        # more than the slightly wider sort it saves (interleaved A/B at
        # sf0.1: repartition ~3.4s for 3.8 MB moved)
        verified = grouped_map(
            banded, "band_key",
            lambda df: _minhash_verify(df, ray.get(ref), tau, max_block),
            coalesce=False,
        )
        return _typed(
            verified.groupby(["u", "v"]).aggregate(
                Max(on="jac", alias_name="jac")),
            u=pa.int64(), v=pa.int64(), jac=pa.float64(),
        )

    # scale path (> MAX_BROADCAST_BYTES): candidate pairs are deduped
    # within each bucket before the global (u, v) groupby so the second
    # all-to-all moves pre-deduped rows; texts attach via bucket joins.
    from kgray.ops.joins import bucket_join

    cand = (
        grouped_map(banded, "band_key",
                    lambda df: _candidate_pairs(df, "doc", max_block),
                    coalesce=False)
        .groupby(["u", "v"])
        .aggregate(Count(alias_name="nbands"))
        .materialize()
    )
    if cand.schema() is None:
        # no candidate pair: the groupby over no rows has no schema to
        # join on; return the driver path's typed empty result
        return rd.from_arrow(_verify_docs([], [], [], [], tau))
    j1 = bucket_join(cand, texts_ds, on="u", right_on="doc", how="left",
                     right_suffix="_u")
    j2 = bucket_join(j1, texts_ds, on="v", right_on="doc", how="left",
                     right_suffix="_v")

    def verify(batch: pa.Table) -> pa.Table:
        tcols = [c for c in batch.column_names if c.startswith("text")]
        return _verify_docs(
            batch["u"].to_pylist(), batch["v"].to_pylist(),
            batch[tcols[0]].to_pylist(), batch[tcols[1]].to_pylist(), tau,
        )

    return j2.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------

def _simhash_bucket_pairs(df: pd.DataFrame, max_hamming: int,
                          max_block: int) -> pd.DataFrame:
    """In-block pair-gen (``util.pairs_within_groups`` over (block, doc))
    + each pair's signatures looked up for a vectorized-popcount hamming
    verify — the shared kernel of both simhash execution paths."""
    pairs = util.pairs_within_groups(df, "block", "doc", max_block)
    sig = df.drop_duplicates("doc").set_index("doc")["sig"]

    def sigs(col):
        return sig.reindex(col.to_numpy()).to_numpy().astype(np.uint64)

    x = sigs(pairs["u"]) ^ sigs(pairs["v"])
    # vectorized popcount via byte view
    ham = (
        np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1)
        .sum(axis=1)
        .astype(np.int64)
    )
    keep = ham <= max_hamming
    return pd.DataFrame(
        {
            "u": pairs["u"].to_numpy()[keep],
            "v": pairs["v"].to_numpy()[keep],
            "hamming": ham[keep],
        }
    )


def simhash_dup_pairs(docs, max_hamming: int = 3, text_col: str = "text",
                      id_col: str = "doc_id"):
    """Near-dup pairs by SimHash: band the 64-bit signature into 4 16-bit
    chunks (pigeonhole: hamming <= 3 implies one identical chunk), block
    on (chunk_idx, chunk_value), verify hamming distance in-block.

    Inputs estimated at or under ``MAX_DRIVER_BYTES`` (32 MiB) run as one
    in-process call through the same kernels (small-side gate: the two
    shuffle barriers dominate tiny inputs); KGRAY_FORCE_DISTRIBUTED
    forces the distributed path."""
    from kgray.ops.text import simhash64_batch

    max_block = 256

    def sig_rows(batch: pa.Table) -> pa.Table:
        """(block, doc, sig) rows: 4 pigeonhole chunks per doc (hamming
        <= 3 implies one identical 16-bit chunk); the block id packs
        (chunk_idx, chunk value) into one int64."""
        ids = np.asarray(batch[id_col].to_pylist(), np.int64)
        hs = simhash64_batch(
            [t.split(" ") for t in batch[text_col].to_pylist()])  # uint64
        cidx = np.arange(4, dtype=np.uint64)
        chunks = (hs[:, None] >> (np.uint64(16) * cidx[None, :])) \
            & np.uint64(0xFFFF)
        block = (chunks | (cidx[None, :] << np.uint64(48))).reshape(-1)
        return pa.table(
            {
                "block": pa.array(block.view(np.int64)),
                "doc": pa.array(np.repeat(ids, 4)),
                "sig": pa.array(np.repeat(hs.view(np.int64), 4)),
            }
        )

    blocked = docs.map_batches(sig_rows, batch_format="pyarrow")

    if fits_small(docs, max_bytes=MAX_DRIVER_BYTES):
        # Small-side gate: signatures stay DISTRIBUTED (fused with the
        # read); only the tiny block rows (n_docs x 4 x 24B) are collected
        # and the two shuffle barriers become one in-process call.
        import ray.data as rd

        bt = collect_table(blocked)
        if not bt.num_rows:
            bt = empty_table(block=pa.int64(), doc=pa.int64(), sig=pa.int64())
        # a pair sharing several chunks repeats with the same distance
        pairs = _simhash_bucket_pairs(bt.to_pandas(), max_hamming, max_block)
        return rd.from_arrow(pa.Table.from_pandas(
            pairs.drop_duplicates(["u", "v"], ignore_index=True),
            preserve_index=False,
        ).replace_schema_metadata(None))

    from ray.data.aggregate import Min

    return _typed(
        grouped_map(
            blocked, "block",
            lambda df: _simhash_bucket_pairs(df, max_hamming, max_block),
        )
        .groupby(["u", "v"])
        .aggregate(Min("hamming", alias_name="hamming")),
        u=pa.int64(), v=pa.int64(), hamming=pa.int64(),
    )


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------

def _cos_pairs(us: list, vs: list, cs: list, digits: int) -> pa.Table:
    """Matched vector pairs from per-block id/cosine arrays -> (u, v, cos)
    rows oriented u < v, cos rounded to ``digits``; typed empty when no
    block matched.  Shared by the brute, blocked and IVF plans."""
    if not us:
        return empty_table(u=pa.int64(), v=pa.int64(), cos=pa.float64())
    u, v = np.concatenate(us), np.concatenate(vs)
    swap = u > v
    return pa.table(
        {
            "u": pa.array(np.where(swap, v, u), pa.int64()),
            "v": pa.array(np.where(swap, u, v), pa.int64()),
            "cos": pa.array(round_half_up(np.concatenate(cs), digits),
                            pa.float64()),
        }
    )

def _embedding_dup_pairs_blocked(embeddings, tau, id_col, vec_col, digits,
                                 num_blocks: int = 8):
    """EXACT distributed all-pairs: rows hash into ``num_blocks`` blocks,
    each row replicates to every unordered block pair it belongs to
    (B copies), and a block-pair cogroup computes the cross (or
    upper-triangle intra) cosine matrix — every unordered vector pair
    lands in EXACTLY one bucket, so no cross-bucket dedup pass is
    needed.  O(n*B) shuffle rows, O(n^2) total flops spread over
    B(B+1)/2 buckets: the exact-anywhere path the forced-distributed
    gate checks.  (IVF stays the sub-quadratic 100-TB route; its
    blocking is approximate by construction.)"""
    from kgray.ops.similarity import _matrix, _normalize

    def fan_out(batch: pa.Table) -> pa.Table:
        m = _normalize(_matrix(batch, vec_col))
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        blk = (ids % num_blocks + num_blocks) % num_blocks
        reps = np.repeat(np.arange(len(ids)), num_blocks)
        other = np.tile(np.arange(num_blocks), len(ids))
        b = blk[reps]
        # each row lands in its intra bucket (b, b) once plus every
        # cross bucket (min(b,x), max(b,x)) once: B copies per row
        lo = np.minimum(b, other)
        hi = np.maximum(b, other)
        return pa.table(
            {
                "bucket": pa.array(lo * num_blocks + hi, pa.int64()),
                "blk": pa.array(b, pa.int64()),
                "vid": pa.array(ids[reps]),
                "vec": pa.array(list(m[reps])),
            }
        )

    fanned = embeddings.map_batches(fan_out, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pa.Table:
        us, vs, cs = [], [], []
        for bkey, grp in df.groupby("bucket", sort=False):
            i, j = divmod(int(bkey), num_blocks)
            ids_g = grp["vid"].to_numpy(np.int64)
            mat = np.vstack([np.asarray(x, np.float64) for x in grp["vec"]])
            blk_g = grp["blk"].to_numpy(np.int64)
            if i == j:
                sims = mat @ mat.T
                ui, vi = np.nonzero(np.triu(sims >= tau, k=1))
                cos = sims[ui, vi]
            else:
                ai = np.flatnonzero(blk_g == i)
                bi = np.flatnonzero(blk_g == j)
                if not len(ai) or not len(bi):
                    continue
                sims_ab = mat[ai] @ mat[bi].T
                uu, vv = np.nonzero(sims_ab >= tau)
                ui, vi = ai[uu], bi[vv]
                cos = sims_ab[uu, vv]
            us.append(ids_g[ui])
            vs.append(ids_g[vi])
            cs.append(cos)
        return _cos_pairs(us, vs, cs, digits)

    return grouped_map(fanned, "bucket", bucket_pairs)


def embedding_dup_pairs(embeddings, tau: float = 0.95, id_col: str = "vec_id",
                        vec_col: str = "embedding", digits: int = 4,
                        strategy: str = "auto",
                        num_centroids: int | None = None,
                        probes: int = 4, max_block: int = 4096):
    """All vector pairs with cosine >= tau.

    ``strategy`` picks the execution plan; ``"auto"`` (default) gates on
    row count:

    * ``"brute"`` (exact, <= ``MAX_BRUTE_ROWS``): the full normalized
      matrix is broadcast via the object store once and every batch
      multiplies against it — O(n^2) flops, one pass, no shuffle.  This
      is the oracle-exact small-side path, NOT the 100-TB default.
    * ``"ivf"`` (scale path): every vector is assigned to its ``probes``
      nearest coarse centroids (multi-probe blocking via
      similarity.fit_centroids); candidate pairs only form inside a
      shared bucket (grouped_map cogroup, blocks capped at ``max_block``
      rows), cosine verified exactly in-block, pairs deduped across
      buckets with a Max-aggregate.  Near-dup vectors (cos >= 0.95) land
      in the same nearest bucket with overwhelming probability; the
      multi-probe assignment covers centroid-boundary pairs.
    * ``"blocked"`` (exact, distributed): block-pair cogroup all-pairs —
      O(n*B) shuffle, O(n^2) flops spread over B(B+1)/2 buckets.  Under
      ``KGRAY_FORCE_DISTRIBUTED`` the ``auto`` fallback is this (the
      forced gate oracle-checks EXACT distributed paths; IVF's blocking
      is approximate by construction and stays the explicit sub-
      quadratic 100-TB route).
    """
    import ray
    import ray.data as rd

    from kgray.ops.similarity import _matrix, _normalize

    small = None
    if strategy == "auto":
        small = collect_small(embeddings, max_rows=MAX_BRUTE_ROWS)
        if small is not None:
            strategy = "brute"
        else:
            strategy = "blocked" if force_distributed() else "ivf"
    if strategy == "blocked":
        return _embedding_dup_pairs_blocked(
            embeddings, tau, id_col, vec_col, digits,
        )
    if strategy == "ivf":
        return _embedding_dup_pairs_ivf(
            embeddings, tau, id_col, vec_col, digits, num_centroids, probes,
            max_block,
        )

    t = small if small is not None else collect_table(embeddings)
    if not t.num_rows:
        return rd.from_arrow(_cos_pairs([], [], [], digits))

    def ids_of(tbl: pa.Table) -> np.ndarray:
        return tbl[id_col].to_numpy().astype(np.int64)

    ref_mat = ray.put((ids_of(t), _normalize(_matrix(t, vec_col))))

    def block(batch: pa.Table) -> pa.Table:
        all_ids, mat = ray.get(ref_mat)
        qids = ids_of(batch)
        sims = _normalize(_matrix(batch, vec_col)) @ mat.T
        ui, vi = np.nonzero(sims >= tau)
        keep = qids[ui] < all_ids[vi]  # each unordered pair once
        ui, vi = ui[keep], vi[keep]
        return _cos_pairs([qids[ui]], [all_ids[vi]], [sims[ui, vi]], digits)

    return embeddings.map_batches(block, batch_format="pyarrow")


def _embedding_dup_pairs_ivf(embeddings, tau, id_col, vec_col, digits,
                             num_centroids, probes, max_block):
    """Scale path: multi-probe IVF blocking -> in-bucket exact cosine.

    Shuffles (bucket, id, vec) rows — ``probes`` copies of each vector —
    instead of broadcasting the whole matrix; per-bucket work is one
    normalized matmul over <= max_block rows.  Exact within a bucket;
    misses only pairs whose probe sets are disjoint (both far from every
    shared centroid — incompatible with cos >= tau for high tau)."""
    from ray.data.aggregate import Max

    from kgray.ops.similarity import _matrix, _normalize, fit_centroids

    n = embeddings.count()
    if num_centroids is None:
        # Expected bucket occupancy is ~ n*probes/num_centroids; sqrt(n)
        # alone crosses max_block near n~1M (exactly where auto forces
        # IVF), so also scale centroids to keep expected occupancy at
        # ~max_block/4 — over-full buckets then stay rare outliers that
        # the tiled in-bucket path below still handles exactly.
        occupancy_k = -(-n * max(1, probes) * 4 // max(1, max_block))
        num_centroids = max(16, int(np.sqrt(max(n, 1))), int(occupancy_k))
    C = fit_centroids(embeddings, num_centroids, vec_col=vec_col)
    import ray

    c_ref = ray.put(np.asarray(C, np.float64))
    nprobe = max(1, min(probes, len(C)))

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        m = _normalize(_matrix(batch, vec_col))
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        top = np.argsort(-(m @ cents.T), axis=1)[:, :nprobe]
        reps = np.repeat(np.arange(len(ids)), nprobe)
        return pa.table(
            {
                "bucket": pa.array(top.reshape(-1).astype(np.int32)),
                "vid": pa.array(ids[reps]),
                "vec": pa.array(list(m[reps])),
            }
        )

    blocked = embeddings.map_batches(assign, batch_format="pyarrow")

    # Over-full buckets (beyond the one-matmul size) are processed with a
    # tiled exact matmul instead of being silently dropped; only buckets
    # past the hard cap are skipped, and loudly.
    hard_cap = 16 * max_block
    tile = min(max_block, 2048)

    def bucket_pairs(df: pd.DataFrame) -> pa.Table:
        import logging

        us, vs, cs = [], [], []
        for bkt, g in df.groupby("bucket", sort=False):
            g = g.drop_duplicates("vid")
            if len(g) < 2:
                continue
            if len(g) > hard_cap:
                logging.getLogger("kgray.dedup").warning(
                    "ivf bucket %s has %d rows (> hard cap %d); skipping "
                    "— raise num_centroids for this corpus", bkt, len(g),
                    hard_cap,
                )
                continue
            ids = g["vid"].to_numpy(np.int64)
            m = np.vstack(g["vec"].to_numpy())
            for i0 in range(0, len(m), tile):
                mi = m[i0:i0 + tile]
                for j0 in range(i0, len(m), tile):
                    sims = mi @ m[j0:j0 + tile].T
                    hits = sims >= tau
                    if j0 == i0:
                        hits = np.triu(hits, k=1)
                    ui, vi = np.nonzero(hits)
                    us.append(ids[i0 + ui])
                    vs.append(ids[j0 + vi])
                    cs.append(sims[ui, vi])
        return _cos_pairs(us, vs, cs, digits)

    return _typed(
        grouped_map(blocked, "bucket", bucket_pairs)
        .groupby(["u", "v"])
        .aggregate(Max("cos", alias_name="cos")),
        u=pa.int64(), v=pa.int64(), cos=pa.float64(),
    )


# ---------------------------------------------------------------------------
# benchmark decontamination (n-gram overlap against a held-out set)
# ---------------------------------------------------------------------------

def ngram_contamination(docs, is_test, n: int = 5,
                        text_col: str = "text", id_col: str = "doc_id"):
    """Per-training-doc count of distinct word-n-grams shared with a
    held-out (benchmark) set — the GPT-3/PaLM-style decontamination
    check.  Returns (doc_id, n_shared) for every row where
    ``is_test(id) == False``; filter ``n_shared > 0`` to drop
    contaminated documents.

    ``is_test`` is a vectorized predicate over an id numpy array (e.g.
    ``lambda ids: ids % 97 == 0``) so membership is a pure function of
    the key — the same determinism rule as ``sample.add_hash_split``.

    Scale shape: the benchmark set is small BY DEFINITION (held-out
    eval suites, not the corpus), so its distinct shingles are collected
    once (per-batch-distinct combiner first — the driver sees shingles,
    not documents) and broadcast via ``ray.put``; each training batch
    then counts membership hits with an exploded isin + groupby-sum,
    no shuffle at all on the big side.  For a benchmark too large to
    broadcast, swap the isin for joins.semi_join on the shingle column
    (same output, one cogroup shuffle).
    """
    import ray

    def test_shingles_partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        mask = np.asarray(is_test(ids), bool)
        texts = np.asarray(batch[text_col].to_pylist(), object)[mask]
        _, grams = _explode_ngrams(texts, n, distinct=True)
        return pa.table({"g": pa.array(sorted(set(grams)), pa.string())})

    # metadata-scale collect: distinct shingles of the held-out set only
    parts = collect_table(
        docs.map_batches(test_shingles_partial, batch_format="pyarrow"))
    test_set = pa.array(
        sorted(set(parts["g"].to_pylist())) if parts.num_rows else [],
        pa.string(),
    )
    test_ref = ray.put(test_set)

    def count_shared(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        keep = ~np.asarray(is_test(ids), bool)
        ids = ids[keep]
        idx, grams = _explode_ngrams(
            np.asarray(batch[text_col].to_pylist(), object)[keep], n,
            distinct=True,
        )
        hit = pc.is_in(pa.array(grams, pa.string()),
                       value_set=ray.get(test_ref))
        counts = np.zeros(len(ids), np.int64)
        np.add.at(counts, idx,
                  hit.to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "n_shared": pa.array(counts)}
        )

    return _typed(docs.map_batches(count_shared, batch_format="pyarrow"),
                  doc_id=pa.int64(), n_shared=pa.int64())


def _dup_stats_table(ids, n_dup: np.ndarray, n_tot: np.ndarray,
                     digits: int) -> pa.Table:
    """dup_ngram_stats' output rows: (doc_id, n_dup, n_total, dup_frac)."""
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_dup": pa.array(n_dup, pa.int64()),
            "n_total": pa.array(n_tot, pa.int64()),
            "dup_frac": pa.array(
                round_half_up(n_dup / n_tot.astype(np.float64), digits),
                pa.float64(),
            ),
        }
    )


def _dup_ngram_stats_distributed(docs, dup_ds, n, text_col, id_col, digits):
    """dup_ngram_stats above the broadcast gate: no driver-resident dup
    set.  (doc, shingle, count) occurrence rows semi-join (bloom +
    bucket cogroup under the forced/scale path) against the df>=2
    shingle Dataset, per-doc sums fold with combiners, and a left
    bucket_join re-attaches docs whose shingles are all unique
    (n_dup = 0).  Same output contract as the broadcast path."""
    from kgray.ops.agg import pre_aggregate
    from kgray.ops.joins import bucket_join, semi_join

    def occ_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        idx, grams = _explode_ngrams(batch[text_col].to_pylist(), n)
        cnt = (
            pd.DataFrame({"doc_id": ids[idx],
                          "g": pd.Series(grams, dtype=object)})
            .groupby(["doc_id", "g"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "doc_id": pa.array(cnt["doc_id"].to_numpy(np.int64)),
                "g": pa.array(cnt["g"].astype(str), pa.string()),
                "c": pa.array(cnt["c"].to_numpy(np.int64)),
            }
        )

    occ = docs.map_batches(occ_rows, batch_format="pyarrow").materialize()
    totals = pre_aggregate(occ, ["doc_id"], {"n_total": ("c", "sum")})
    hits = semi_join(occ, dup_ds, on="g")
    dups = pre_aggregate(hits, ["doc_id"], {"n_dup": ("c", "sum")})
    joined = bucket_join(totals, dups, on="doc_id", how="left")

    def finalize(batch: pa.Table) -> pa.Table:
        n_tot = batch["n_total"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        n_dup = np.nan_to_num(
            batch["n_dup"].to_numpy(zero_copy_only=False).astype(np.float64)
        ).astype(np.int64)
        return _dup_stats_table(batch["doc_id"].cast(pa.int64()), n_dup,
                                n_tot, digits)

    return joined.map_batches(finalize, batch_format="pyarrow")


def dup_ngram_stats(docs, n: int = 5, text_col: str = "text",
                    id_col: str = "doc_id", digits: int = 4):
    """Intra-corpus duplicated-n-gram signal (the RefinedWeb-style
    boilerplate/dup-span cue): for every doc, how many of its n-gram
    OCCURRENCES also appear in at least one OTHER document, and the
    fraction they make up.  High dup_frac = templated/boilerplate text.

    Scale shape: pass 1 folds document frequency with a per-batch
    per-doc-DISTINCT combiner (shuffle moves shingle-vocab rows, not
    occurrences); shingles with df >= 2 broadcast once as an Arrow set
    — above ``MAX_BROADCAST_ROWS`` distinct shingles swap the isin for a
    semi-join on the shingle column (same shape as
    ``ngram_contamination``'s documented fallback).  Pass 2 is
    shuffle-free: explode occurrences, one ``pc.is_in``, groupby-fold
    per doc.  Docs with fewer than n tokens emit no row (no shingles —
    matches the SQL oracle's len >= n gate).
    """
    import ray
    from ray.data.aggregate import Sum

    def df_partial(batch: pa.Table) -> pa.Table:
        # distinct within doc
        _, rows = _explode_ngrams(batch[text_col].to_pylist(), n,
                                  distinct=True)
        ser = pd.Series(rows, dtype=object).value_counts() if rows else \
            pd.Series([], dtype=np.int64)
        return pa.table(
            {
                "g": pa.array(ser.index.astype(str), pa.string()),
                "df": pa.array(ser.to_numpy(np.int64), pa.int64()),
            }
        )

    df_tbl = (
        docs.map_batches(df_partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(Sum("df", alias_name="df"))
    )
    dup_ds = df_tbl.filter(expr="df >= 2").materialize()  # shingle-vocab
    dup_tbl = collect_small(dup_ds, max_rows=MAX_BROADCAST_ROWS)
    if dup_tbl is None:
        return _dup_ngram_stats_distributed(
            docs, dup_ds, n, text_col, id_col, digits
        )
    dup_set = pa.array(dup_tbl["g"].to_pylist() if dup_tbl.num_rows else [],
                       pa.string())
    dup_ref = ray.put(dup_set)

    def count_dups(batch: pa.Table) -> pa.Table:
        dset = ray.get(dup_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        idx, grams = _explode_ngrams(texts, n)
        hit = pc.is_in(pa.array(grams, pa.string()), value_set=dset)
        hit = hit.to_numpy(zero_copy_only=False).astype(np.int64)
        present = np.unique(idx)
        n_dup = np.zeros(len(texts), np.int64)
        n_tot = np.zeros(len(texts), np.int64)
        np.add.at(n_dup, idx, hit)
        np.add.at(n_tot, idx, 1)
        return _dup_stats_table(ids[present], n_dup[present], n_tot[present],
                                digits)

    return _typed(docs.map_batches(count_dups, batch_format="pyarrow"),
                  doc_id=pa.int64(), n_dup=pa.int64(), n_total=pa.int64(),
                  dup_frac=pa.float64())


# --- substring-level duplicate spans ----------------------------------------

_SPAN_HASH_BASE = np.uint64(1099511628211)


def _window_hashes(text: str, window: int) -> np.ndarray:
    """uint64 polynomial hashes of every length-``window`` char window
    (stride 1) — vectorized as a strided-view x powers dot with natural
    mod-2^64 wraparound; O(len x window) numpy, no per-window python."""
    cps = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    if len(cps) < window:
        return np.empty(0, np.uint64)
    sw = np.lib.stride_tricks.sliding_window_view(
        cps.astype(np.uint64), window
    )
    powers = np.empty(window, np.uint64)
    powers[-1] = np.uint64(1)
    for j in range(window - 2, -1, -1):
        powers[j] = powers[j + 1] * _SPAN_HASH_BASE
    return (sw * powers).sum(axis=1, dtype=np.uint64)


def dup_span_stats(docs, window: int = 40, text_col: str = "text",
                   id_col: str = "doc_id", use_hash: bool = False):
    """Substring-level duplicate-span statistics (the 'Deduplicating
    Training Data Makes Language Models Better' primitive, Lee et al.
    2022, in per-doc stats form): every length-``window`` character
    substring at stride 1 is a key; a window present in >= 2 DISTINCT
    docs marks a duplicated span position.  Returns one row per doc
    (with >= 1 window): n_windows, n_dup (distinct windows shared with
    another doc), dup_frac.

    Distribution: windows are deduplicated PER DOC inside each batch
    (the combiner — a doc's repeated boilerplate costs one row), ONE
    window-key cogroup counts distinct docs per window and folds per-doc
    partials, and a final combiner groupby folds partials across
    buckets.  ``use_hash=True`` ships 8-byte rolling hashes instead of
    the window strings — the 100-TB path (shuffle volume drops
    ``window/8``-fold; collision odds ~n^2/2^64).  The string path is
    bit-comparable to a DuckDB substr oracle; a test pins both paths to
    identical stats on corpora where collisions are absent."""
    from kgray.ops.agg import pre_aggregate

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        out_ids, out_w = [], []
        for i, t in zip(ids, texts):
            t = t or ""
            if len(t) < window:
                continue
            if use_hash:
                ws = np.unique(_window_hashes(t, window))
            else:
                ws = list({t[j:j + window]
                           for j in range(len(t) - window + 1)})
            out_ids.append(np.full(len(ws), i, np.int64))
            out_w.append(ws)
        if not out_ids:
            return empty_table(doc_id=pa.int64(),
                               w=pa.uint64() if use_hash else pa.string())
        ids_arr = pa.array(np.concatenate(out_ids), pa.int64())
        if use_hash:
            w_arr = pa.array(np.concatenate(out_w), pa.uint64())
        else:
            w_arr = pa.array([w for ws in out_w for w in ws], pa.string())
        return pa.table({"doc_id": ids_arr, "w": w_arr})

    wins = docs.map_batches(emit, batch_format="pyarrow")

    def per_bucket(df):
        import pandas as pd

        # a (doc, window) pair appears at most once per emitting batch;
        # drop cross-batch repeats of the same doc's window first
        df = df.drop_duplicates(["doc_id", "w"])
        nd = df.groupby("w", sort=False)["doc_id"].transform("nunique")
        df = df.assign(__dup=(nd >= 2).astype(np.int64))
        g = df.groupby("doc_id", sort=False)["__dup"]
        return pd.DataFrame(
            {
                "doc_id": g.sum().index.to_numpy(np.int64),
                "dup_part": g.sum().to_numpy(np.int64),
                "tot_part": g.size().to_numpy(np.int64),
            }
        )

    partials = grouped_map(wins, "w", per_bucket)
    folded = pre_aggregate(
        partials, ["doc_id"],
        {"n_dup": ("dup_part", "sum"), "n_windows": ("tot_part", "sum")},
    )

    def finalize(batch: pa.Table) -> pa.Table:
        nd = batch["n_dup"].to_numpy(zero_copy_only=False)
        nt = batch["n_windows"].to_numpy(zero_copy_only=False)
        frac = round_half_up(nd / np.maximum(nt, 1), 4)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_windows": pa.array(nt, pa.int64()),
                "n_dup": pa.array(nd, pa.int64()),
                "dup_frac": pa.array(frac, pa.float64()),
            }
        )

    return _typed(folded.map_batches(finalize, batch_format="pyarrow"),
                  doc_id=pa.int64(), n_windows=pa.int64(), n_dup=pa.int64(),
                  dup_frac=pa.float64())


def dup_span_purge(docs, window: int = 40, text_col: str = "text",
                   id_col: str = "doc_id"):
    """The dup-span TRANSFORM (companion to ``dup_span_stats``): cut
    every character covered by a length-``window`` substring that
    appears in >= 2 distinct docs.  Returns (doc_id, clean_text,
    n_removed) for EVERY doc (short/clean docs pass through).

    Note the deliberate divergence from Lee et al. 2022 keep-one-copy
    semantics: ALL occurrences are removed (a symmetric, order-free
    rule — keep-one needs a global doc ordering, which a streaming
    engine should not impose silently).

    Distribution: (doc, window, position) rows cogroup ONCE on the
    window key to mark duplicated positions; surviving (doc, position)
    rows then cogroup with the doc texts on doc_id (texts are tagged
    into the same stream, so it is ONE shuffle, not a join), and the
    cut itself is a numpy diff-array coverage mask + utf-32 compress
    per doc.  At 100 TB the window column would ship as a uint64
    rolling hash exactly like ``dup_span_stats(use_hash=True)``; the
    string form here is what the substr SQL oracle can check."""
    def emit(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        out_ids, out_i, out_w = [], [], []
        for i, t in zip(ids, texts):
            t = t or ""
            n = len(t) - window + 1
            if n <= 0:
                continue
            out_ids.append(np.full(n, i, np.int64))
            out_i.append(np.arange(n, dtype=np.int64))
            out_w.extend(t[j:j + window] for j in range(n))
        if not out_ids:
            return empty_table(doc_id=pa.int64(), i=pa.int64(), w=pa.string())
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_ids), pa.int64()),
                "i": pa.array(np.concatenate(out_i), pa.int64()),
                "w": pa.array(out_w, pa.string()),
            }
        )

    wins = docs.map_batches(emit, batch_format="pyarrow")

    def mark(df):
        import pandas as pd

        nd = df.groupby("w", sort=False)["doc_id"].transform("nunique")
        dup = df[nd >= 2]
        return pd.DataFrame(
            {
                "doc_id": dup["doc_id"].to_numpy(np.int64),
                "i": dup["i"].to_numpy(np.int64),
                "t": np.full(len(dup), "", dtype=object),
            }
        )

    dup_pos = grouped_map(wins, "w", mark)

    def tag_docs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch[id_col], pa.int64()),
                "i": pa.array(np.full(len(batch), -1, np.int64)),
                "t": pc.cast(batch[text_col], pa.string()),
            }
        )

    both = docs.map_batches(tag_docs, batch_format="pyarrow").union(dup_pos)

    def cut(df):
        import pandas as pd

        texts = df[df["i"] < 0]
        pos = df[df["i"] >= 0]
        starts_of = dict(iter(pos.groupby("doc_id", sort=False)["i"])) \
            if len(pos) else {}
        ids, cleans, removed = [], [], []
        for did, t in zip(texts["doc_id"].to_numpy(np.int64),
                          texts["t"].tolist()):
            t = t or ""
            s = starts_of.get(did)
            if s is None or not len(t):
                ids.append(did); cleans.append(t); removed.append(0)
                continue
            sv = s.to_numpy(np.int64)
            diff = np.zeros(len(t) + 1, np.int64)
            np.add.at(diff, sv, 1)
            np.add.at(diff, np.minimum(sv + window, len(t)), -1)
            covered = np.cumsum(diff[:-1]) > 0
            cps = np.frombuffer(t.encode("utf-32-le"), np.uint32)
            clean = cps[~covered].tobytes().decode("utf-32-le")
            ids.append(did); cleans.append(clean)
            removed.append(int(covered.sum()))
        return pd.DataFrame(
            {
                "doc_id": np.array(ids, np.int64),
                "clean_text": pd.array(cleans, dtype="str"),
                "n_removed": np.array(removed, np.int64),
            }
        )

    return _typed(grouped_map(both, "doc_id", cut), doc_id=pa.int64(),
                  clean_text=pa.string(), n_removed=pa.int64())


def minhash_cross_pairs(left, right, tau: float = 0.7,
                        text_col: str = "text", id_col: str = "doc_id",
                        offset: int = 1 << 40, **kw):
    """Near-dup pairs BETWEEN two corpora — the train-vs-heldout
    contamination audit at LSH cost (the n-gram ``ngram_contamination``
    is exact-shingle; this variant catches paraphrase-level J >= tau
    overlap and scales to huge held-out sets because neither side is
    broadcast).

    Right-side ids are shifted into a disjoint id space, ONE banded
    minhash pass (``minhash_dup_pairs`` — same auto-gated execution
    plans) runs over the union, and the verified pair stream is filtered
    to cross-side rows (``u`` left, ``v`` right, offset removed).
    Because pair orientation is always u < v and every right id exceeds
    every left id, cross pairs land exactly on (left, right)."""

    def project(side, shift):
        def f(batch: pa.Table) -> pa.Table:
            ids = pc.cast(batch[id_col], pa.int64())
            if shift:
                ids = pc.add(ids, offset)
            return pa.table({id_col: ids, text_col: batch[text_col]})

        return side.map_batches(f, batch_format="pyarrow")

    # materialize the union: (a) it is consumed TWICE inside
    # minhash_dup_pairs (banding pass + text side), so a lazy union
    # re-executes both projections per consumer; (b) a lazy union has
    # no size estimate, which silently pushed the auto-gate onto the
    # heaviest bucket-join plan at every scale (measured 10.4 s -> 2.5 s
    # at sf0.1).  The copy is the projected 2-column table only.
    union = project(left, False).union(project(right, True)).materialize()
    pairs = minhash_dup_pairs(union, tau=tau, text_col=text_col,
                              id_col=id_col, **kw)
    cross = pairs.filter(expr=f"u < {offset} and v >= {offset}")
    return _typed(
        cross.map_batches(
            lambda b: pa.table(
                {"u": b["u"], "v": pc.subtract(b["v"], offset),
                 "jac": b["jac"]}
            ),
            batch_format="pyarrow",
        ),
        u=pa.int64(), v=pa.int64(), jac=pa.float64(),
    )


def set_jaccard_pairs_prefix(exploded, tau: float, digits: int = 4,
                             num_buckets: int = 16):
    """PPJoin-style prefix-filtered exact set-similarity self-join — the
    alternative scale path to ``set_jaccard_pairs``, after Vernica,
    Carey & Li, "Efficient Parallel Set-Similarity Joins Using
    MapReduce" (SIGMOD 2010; public method).

    Why it scales differently: the inverted-index path explodes EVERY
    (token, item) row and pays a pair-count shuffle; this path indexes
    only each item's PREFIX — its ``L - floor(tau*L) + 1`` globally
    RAREST tokens (any J >= tau pair must share a prefix token) — with
    the item's full sorted token-rank array carried on the posting, so
    the verify happens INSIDE the token reducer from the carried arrays
    (no count-attach stage, no max_block cap needed for hot tokens:
    hot tokens land at the back of the frequency order and rarely enter
    a prefix).  Posting volume ~~ (1-tau) of the full explode.

    Each surviving pair is emitted at exactly ONE token — the lowest-
    rank token common to both prefixes — so no cross-bucket dedup pass
    is needed.  Token frequency ranks are a vocab-scale fold broadcast
    once (``MAX_BROADCAST_ROWS`` gate; the fit_bigram_lm memory
    argument).  Output (u, v, jac) is identical to set_jaccard_pairs
    (paths-agree tests pin it)."""
    import ray
    from ray.data.aggregate import Sum

    def tok_partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["shingle"])
            .group_by("shingle")
            .aggregate([("shingle", "count")])
        )
        return g.rename_columns(["shingle", "n"])

    freq_ds = (
        exploded.map_batches(tok_partial, batch_format="pyarrow")
        .groupby("shingle")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )
    freq_tbl = collect_small(freq_ds, max_rows=MAX_BROADCAST_ROWS)
    if freq_tbl is None:
        # vocab too large to broadcast the rank order — auto-fall back
        # to the inverted-index path, which needs no global token order
        # (counts/n_items derived here; exploded may carry duplicate
        # (doc, shingle) rows, so distinct-count per doc inside a
        # doc-keyed cogroup — every doc lives whole in one bucket)
        exploded = exploded.materialize()

        def doc_counts(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("doc", sort=False)["shingle"].nunique()
            return pd.DataFrame({
                "doc": g.index.to_numpy(),
                "nsh": g.to_numpy().astype(np.int64),
            })

        counts = grouped_map(exploded, "doc", doc_counts).materialize()
        return set_jaccard_pairs(
            exploded, counts, n_items=counts.count(), tau=tau,
            digits=digits, num_buckets=num_buckets)
    if not freq_tbl.num_rows:  # no tokens, so no pairs
        return ray.data.from_arrow(
            empty_table(u=pa.int64(), v=pa.int64(), jac=pa.float64()))
    freq = freq_tbl.to_pandas()  # token-vocab scale, never corpus scale
    # rare-first total order; ties broken on the token value
    freq = freq.sort_values(["n", "shingle"], kind="mergesort")
    rank_of = pd.Series(np.arange(len(freq), dtype=np.int64),
                        index=freq["shingle"].to_numpy())
    rank_ref = ray.put(rank_of)

    def to_ranks(df: pd.DataFrame) -> pd.DataFrame:
        ranks = ray.get(rank_ref)
        r = ranks.reindex(df["shingle"].to_numpy()).to_numpy(np.int64)
        items, arrays = [], []
        for doc, g in pd.DataFrame(
            {"doc": df["doc"].to_numpy(), "r": r}
        ).groupby("doc", sort=False):
            items.append(doc)
            arrays.append(np.sort(pd.unique(g["r"].to_numpy())))
        return pd.DataFrame({"doc": pd.array(items, dtype="int64"),
                             "ranks": arrays})

    items = grouped_map(exploded, "doc", to_ranks)

    def prefix_explode(batch: pa.Table) -> pa.Table:
        docs = batch["doc"].to_numpy(zero_copy_only=False)
        rank_lists = batch["ranks"].to_pylist()
        out_t, out_d, out_r = [], [], []
        for d, ra in zip(docs, rank_lists):
            L = len(ra)
            if L == 0:
                continue
            pfx = L - int(tau * L) + 1
            for t in ra[:pfx]:
                out_t.append(t)
                out_d.append(d)
                out_r.append(ra)
        return pa.table(
            {
                "tok": pa.array(out_t, pa.int64()),
                "doc": pa.array(out_d, pa.int64()),
                "ranks": pa.array(out_r, pa.list_(pa.int64())),
            }
        )

    postings = items.map_batches(prefix_explode, batch_format="pyarrow")

    def verify_bucket(df: pd.DataFrame) -> pd.DataFrame:
        us, vs, js = [], [], []
        for tok, g in df.groupby("tok", sort=False):
            docs = g["doc"].to_numpy(np.int64)
            arrs = [np.asarray(a, np.int64) for a in g["ranks"]]
            n = len(docs)
            for i in range(n):
                ra = arrs[i]
                for j in range(i + 1, n):
                    if docs[i] == docs[j]:
                        continue
                    rb = arrs[j]
                    common = np.intersect1d(ra, rb, assume_unique=True)
                    la, lb = len(ra), len(rb)
                    # lowest-rank token common to BOTH prefixes decides
                    # which bucket owns the pair (exactly-once emission);
                    # prefix end index = pfx-1 = L - floor(tau*L), capped
                    bound_a = ra[min(la - int(tau * la), la - 1)]
                    bound_b = rb[min(lb - int(tau * lb), lb - 1)]
                    inpfx = common[(common <= bound_a)
                                   & (common <= bound_b)]
                    if not len(inpfx) or inpfx[0] != tok:
                        continue
                    sh = len(common)
                    jac = sh / (la + lb - sh)
                    if jac >= tau:
                        u, v = sorted((int(docs[i]), int(docs[j])))
                        us.append(u)
                        vs.append(v)
                        js.append(jac)
        return pd.DataFrame(
            {
                "u": pd.array(us, dtype="int64"),
                "v": pd.array(vs, dtype="int64"),
                "jac": pd.array(round_half_up(np.asarray(js, np.float64),
                                              digits), dtype="float64"),
            }
        )

    return grouped_map(postings, "tok", verify_bucket,
                       num_buckets=num_buckets)
