"""Similarity search over an embedding column (list<float>).

* ``knn_brute`` — exact cosine top-k: the query matrix is broadcast via
  the object store ONCE; every batch does one float64 matmul and emits
  its local top-k candidates; a final tiny sort/limit picks the global
  top-k.  One pass, no shuffle of the corpus.
* ``knn_ivf`` — the scale path: a coarse k-means-style quantizer (fit on
  a deterministic sample) assigns each vector to a centroid bucket; a
  query probes only the nearest ``nprobe`` buckets.  Bucketing is a
  partitioned groupby; probing touches a fraction of blocks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    col = batch[vec_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # list<float> flatten -> (n, d) without per-row python
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(batch)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms == 0, 1, norms)


def knn_brute(embeddings, query_vec, k: int = 10, id_col: str = "vec_id",
              vec_col: str = "embedding", digits: int = 4):
    """Exact top-k by cosine: returns (vec_id, sim) sorted by
    (sim desc, vec_id asc), sim rounded to ``digits`` (ties broken on
    the rounded value so Ray and SQL oracles order identically)."""
    import ray

    q = np.asarray(query_vec, np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    q_ref = ray.put(q)

    def local_topk(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        m = _normalize(_matrix(batch, vec_col))
        from kgray.util import round_half_up

        sims = round_half_up(m @ qv, digits)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, -sims))[:k]
        return pa.table(
            {
                "vec_id": pa.array(ids[order]),
                "sim": pa.array(sims[order]),
            }
        )

    cands = embeddings.map_batches(local_topk, batch_format="pyarrow")
    return cands.sort(["sim", "vec_id"], descending=[True, False]).limit(k)


def fit_centroids(embeddings, num_centroids: int = 16, sample_rows: int = 2048,
                  iters: int = 5, vec_col: str = "embedding", seed: int = 7):
    """Deterministic mini k-means on a head sample (driver-side, small)."""
    from kgray.util import collect_table

    X = _normalize(_matrix(
        collect_table(embeddings.limit(sample_rows)), vec_col))
    rs = np.random.RandomState(seed)
    C = X[rs.choice(len(X), size=min(num_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for c in range(len(C)):
            members = X[assign == c]
            if len(members):
                C[c] = members.mean(axis=0)
        C = _normalize(C)
    return C


def ivf_bucketize(embeddings, centroids: np.ndarray):
    """Assign every vector to its nearest centroid bucket: map tasks,
    the (C, d) normalized centroids shipped in the closure."""
    centroids = np.asarray(centroids, np.float64)

    def assign(batch: pa.Table) -> pa.Table:
        m = _normalize(_matrix(batch, "embedding"))
        bucket = np.argmax(m @ centroids.T, axis=1).astype(np.int32)
        return batch.append_column("bucket", pa.array(bucket))

    return embeddings.map_batches(assign, batch_format="pyarrow")


def knn_ivf(embeddings, query_vec, k: int = 10, num_centroids: int = 16,
            nprobe: int = 4, id_col: str = "vec_id", vec_col: str = "embedding",
            digits: int = 4):
    """Approximate top-k: probe only the ``nprobe`` buckets nearest the
    query.  Recall < 1 by construction; the exactness oracle is
    ``knn_brute`` (tested at small scale)."""
    import pyarrow.compute as pc

    C = fit_centroids(embeddings, num_centroids, vec_col=vec_col)
    bucketed = ivf_bucketize(embeddings, C)
    q = np.asarray(query_vec, np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    probe = set(np.argsort(-(C @ qn))[:nprobe].tolist())

    probed = bucketed.map_batches(
        lambda b: b.filter(
            pa.array(
                np.isin(
                    b["bucket"].to_numpy(zero_copy_only=False), list(probe)
                )
            )
        ),
        batch_format="pyarrow",
    )
    return knn_brute(probed, query_vec, k, id_col, vec_col, digits)


def build_ivf_index(embeddings, path: str, num_centroids: int = 16,
                    sample_rows: int = 2048, vec_col: str = "embedding",
                    id_col: str = "vec_id", seed: int = 7) -> np.ndarray:
    """Persisted IVF-flat ANN index: every vector is assigned to its
    nearest centroid and written as ONE partition per bucket (identity
    partitioner, bucket zone maps), with the centroid matrix stored
    beside the manifest (``centroids.npy``).  The index is a normal
    partitioned table — manifest-attested, resumable, compactable,
    time-travelable — and query-time probes READ only the probed
    buckets' files via zone pruning, so at scale a query costs
    nprobe/num_centroids of the corpus scan with no resident in-memory
    index and no broadcast of the corpus."""
    import os

    from kgray import io as kio

    C = fit_centroids(embeddings, num_centroids, sample_rows,
                      vec_col=vec_col, seed=seed)
    bucketed = ivf_bucketize(embeddings, C)

    def ident(batch: pa.Table) -> np.ndarray:
        return batch["bucket"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)

    kio.write_partitioned(
        bucketed, path, key_col="bucket", num_partitions=len(C),
        partitioner=ident, partitioning_name="ivf-bucket",
        stats_cols=("bucket",),
    )
    np.save(os.path.join(path, "centroids.npy"), C)
    return C


def knn_ivf_persisted(path: str, query_vec, k: int = 10, nprobe: int = 4,
                      id_col: str = "vec_id", vec_col: str = "embedding",
                      digits: int = 4):
    """Cosine top-k against a :func:`build_ivf_index` table, reading
    ONLY the ``nprobe`` buckets nearest the query (each partition's
    bucket zone is the exact point [b, b], so pruning is FP-free).
    ``nprobe == num_centroids`` probes everything and is EXACT —
    identical to ``knn_brute`` over the source table, which is the
    oracle-checkable face; smaller nprobe is the approximate scale
    path whose probed-subset semantics are test-pinned."""
    import os

    from kgray import io as kio

    C = np.load(os.path.join(path, "centroids.npy"))
    q = np.asarray(query_vec, np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    probe = np.argsort(-(C @ qn), kind="stable")[:nprobe].tolist()
    parts = []
    for b in sorted(probe):
        ds = kio.read_table(path, columns=[id_col, vec_col],
                            zone_filter={"bucket": (b, b)})
        if ds is not None:
            parts.append(ds)
    if not parts:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "sim": pa.array([], pa.float64())})
    ds = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
    return knn_brute(ds, query_vec, k, id_col, vec_col, digits)


def label_centroids(embeddings, label_col: str = "label",
                    vec_col: str = "embedding", digits: int = 4):
    """Per-label centroid vectors (the SemDeDup / class-prototype
    aggregate): each batch folds its vectors into ONE partial-sum row
    per label (a d-dim sum plus a count — the combiner shape for vector
    aggregates), the shuffle moves label-scale rows, and the final mean
    divides the folded sums.  Emits long-form (label, dim, avg) rows so
    the result is scalar-columned (driver-hashable) and SQL-checkable
    per dimension."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from kgray.util import round_half_up

    def partial(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, vec_col)
        labels = batch[label_col].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(m)
        df["__l"] = labels
        g = df.groupby("__l", sort=False)
        sums = g.sum()
        counts = g.size()
        out = {"label": pa.array(sums.index.to_numpy(np.int64), pa.int64()),
               "n": pa.array(counts.to_numpy(np.int64), pa.int64())}
        for j in range(m.shape[1]):
            out[f"s{j}"] = pa.array(sums[j].to_numpy(np.float64),
                                    pa.float64())
        return pa.table(out)

    folded = (
        embeddings.map_batches(partial, batch_format="pyarrow")
        .groupby("label")
    )
    # dimensionality from a one-row probe (metadata-scale read)
    probe = embeddings.limit(1).take_batch(1, batch_format="pyarrow")
    d = _matrix(probe, vec_col).shape[1]
    aggs = [Sum("n", alias_name="n")] + [
        Sum(f"s{j}", alias_name=f"s{j}") for j in range(d)
    ]
    tbl = folded.aggregate(*aggs).to_pandas()  # label-scale, never rows

    labels = np.repeat(tbl["label"].to_numpy(np.int64), d)
    dims = np.tile(np.arange(1, d + 1, dtype=np.int64), len(tbl))
    sums = np.column_stack([tbl[f"s{j}"].to_numpy(np.float64)
                            for j in range(d)]).ravel()
    counts = np.repeat(tbl["n"].to_numpy(np.float64), d)
    return pa.table(
        {
            "label": pa.array(labels, pa.int64()),
            "dim": pa.array(dims, pa.int64()),
            "avg": pa.array(round_half_up(sums / counts, digits),
                            pa.float64()),
        }
    )


def kmeans_lloyd(ds, k: int = 8, iters: int = 5,
                 vec_col: str = "embedding", seed: int = 7,
                 sample_rows: int = 2048):
    """Distributed Lloyd k-means (Euclidean; the cosine quantizer for
    IVF lives in ``fit_centroids``): deterministic sample-seeded init,
    then each round is ONE streaming assignment pass against the
    broadcast centroids — per-batch partials are long-format
    (cluster, dim, sum) rows plus (cluster, -1, count), cluster-scale,
    so the per-round fold is a tiny groupby, never an all-to-all of
    vectors (the CC/PageRank round shape without the shuffle).

    Returns (centroids (k, d) ndarray, summary table with per-cluster
    size and sum of squared distances).
    """
    import ray
    from ray.data.aggregate import Sum

    from kgray.util import collect_table

    X = _matrix(collect_table(ds.limit(sample_rows)), vec_col)
    rs = np.random.RandomState(seed)
    C = X[rs.choice(len(X), size=min(k, len(X)), replace=False)].copy()
    k_eff = len(C)

    def assign(m: np.ndarray, C_: np.ndarray) -> np.ndarray:
        # argmin ||m - c||^2 = argmin ||c||^2 - 2 m.c (m-term constant)
        scores = (C_ * C_).sum(axis=1)[None, :] - 2.0 * (m @ C_.T)
        return scores.argmin(axis=1)

    for _ in range(iters):
        ref = ray.put(C)

        def partial(batch: pa.Table) -> pa.Table:
            m = _matrix(batch, vec_col).astype(np.float64)
            C_ = ray.get(ref)
            a = assign(m, C_)
            S = np.zeros((k_eff, m.shape[1]))
            np.add.at(S, a, m)
            n = np.bincount(a, minlength=k_eff).astype(np.float64)
            live = np.nonzero(n)[0]
            cs, js, vs = [], [], []
            for c in live:
                cs.append(np.full(m.shape[1], c, np.int64))
                js.append(np.arange(m.shape[1], dtype=np.int64))
                vs.append(S[c])
            cs.append(live.astype(np.int64))
            js.append(np.full(len(live), -1, np.int64))
            vs.append(n[live])
            return pa.table(
                {
                    "c": pa.array(np.concatenate(cs), pa.int64()),
                    "j": pa.array(np.concatenate(js), pa.int64()),
                    "v": pa.array(np.concatenate(vs), pa.float64()),
                }
            )

        folded = (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["c", "j"])
            .aggregate(Sum("v", alias_name="v"))
            .to_pandas()
        )
        counts = folded[folded["j"] == -1].set_index("c")["v"]
        sums = folded[folded["j"] >= 0].pivot(
            index="c", columns="j", values="v"
        )
        for c in sums.index:
            if counts.get(c, 0) > 0:
                C[c] = sums.loc[c].to_numpy() / counts[c]
        # empty clusters keep their previous centroid (deterministic)

    ref = ray.put(C)

    def metrics(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, vec_col).astype(np.float64)
        C_ = ray.get(ref)
        a = assign(m, C_)
        d2 = ((m - C_[a]) ** 2).sum(axis=1)
        n = np.bincount(a, minlength=k_eff)
        sse = np.bincount(a, weights=d2, minlength=k_eff)
        live = np.nonzero(n)[0].astype(np.int64)
        return pa.table(
            {
                "cluster": pa.array(live, pa.int64()),
                "n": pa.array(n[live].astype(np.int64), pa.int64()),
                "sse": pa.array(sse[live], pa.float64()),
            }
        )

    summary = (
        ds.map_batches(metrics, batch_format="pyarrow")
        .groupby("cluster")
        .aggregate(Sum("n", alias_name="n"), Sum("sse", alias_name="sse"))
    )
    return C, summary


def label_diversity(embeddings, label_col: str = "label",
                    vec_col: str = "embedding", digits: int = 4):
    """Per-label embedding diversity: the exact mean pairwise cosine
    over all ordered pairs within a label, WITHOUT materializing any
    pair — mean_cos = (||Σv̂||² - n) / (n(n-1)) for unit-normalized
    rows (Σ||v̂ᵢ||² = n).  Same combiner shape as ``label_centroids``:
    one (label, d-dim partial sum, count) row per batch moves through
    the shuffle; the identity is evaluated on the label-scale fold.
    Labels with a single member are dropped (the pair mean is
    undefined), matching the oracle's HAVING n >= 2."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from kgray.util import round_half_up

    def partial(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, vec_col).astype(np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        labels = batch[label_col].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(m)
        df["__l"] = labels
        g = df.groupby("__l", sort=False)
        sums = g.sum()
        counts = g.size()
        out = {"label": pa.array(sums.index.to_numpy(np.int64), pa.int64()),
               "n": pa.array(counts.to_numpy(np.int64), pa.int64())}
        for j in range(m.shape[1]):
            out[f"s{j}"] = pa.array(sums[j].to_numpy(np.float64),
                                    pa.float64())
        return pa.table(out)

    probe = embeddings.limit(1).take_batch(1, batch_format="pyarrow")
    d = _matrix(probe, vec_col).shape[1]
    folded = (
        embeddings.map_batches(partial, batch_format="pyarrow")
        .groupby("label")
        .aggregate(*([Sum("n", alias_name="n")]
                     + [Sum(f"s{j}", alias_name=f"s{j}") for j in range(d)]))
        .to_pandas()  # label-scale, never rows
    )
    n = folded["n"].to_numpy(np.float64)
    s = np.column_stack([folded[f"s{j}"].to_numpy(np.float64)
                         for j in range(d)])
    keep = n >= 2
    norm2 = (s[keep] ** 2).sum(axis=1)
    nk = n[keep]
    avg = (norm2 - nk) / (nk * (nk - 1.0))
    return pa.table(
        {
            "label": pa.array(folded["label"].to_numpy(np.int64)[keep],
                              pa.int64()),
            "n": pa.array(nk.astype(np.int64), pa.int64()),
            "avg_cos": pa.array(round_half_up(avg, digits), pa.float64()),
        }
    )


def kmeans_int(ds, k: int = 4, iters: int = 2,
               vec_col: str = "embedding", id_col: str = "vec_id",
               scale: int = 10**6, shift: int = 10**7,
               return_centroids: bool = False):
    """Integer fixed-point Lloyd k-means — the oracle-checkable face of
    the k-means family (float :func:`kmeans_lloyd` stays rows-only:
    float centroid means drift across engines).  Vectors quantize to
    int64 micro-units SHIFTED POSITIVE (round(x·1e6)+1e7): the uniform
    shift cancels in every distance, and keeping centroid sums positive
    makes floor division equal DuckDB's truncating ``//`` (the
    linkage-band lesson).  Init = the ``k`` lowest-id vectors
    (deterministic); ties in the argmin break to the LOWEST cluster id
    (numpy argmin-first == SQL MIN(k) at equal exact distances).  All
    arithmetic is exact int64 (|diff| <= ~4e6, so dist <= 64·1.6e13 ~
    1e15; dot-products <= 6.4e15), so a DuckDB oracle that unrolls the
    identical assign/update recurrence matches hash-for-hash.

    Scale shape mirrors kmeans_lloyd: centroids broadcast via ray.put,
    each round is ONE streaming pass emitting long-format
    (cluster, dim, sum) int partials + counts (cluster-scale fold, no
    vector all-to-all); empty clusters carry their previous centroid.
    Returns (id, cluster) rows from a final assignment pass."""
    import ray
    from ray.data.aggregate import Sum

    from kgray.util import round_half_up

    ds = ds.materialize()

    def quant(t: pa.Table) -> np.ndarray:
        m = _matrix(t, vec_col).astype(np.float64)
        return round_half_up(m * scale, 0).astype(np.int64) + shift

    init_t = ds.filter(expr=f"{id_col} < {k}").to_pandas() \
        .sort_values(id_col)
    C = quant(pa.Table.from_pandas(init_t[[vec_col]]))
    k_eff = len(C)
    d = C.shape[1]

    def assign(m: np.ndarray, C_: np.ndarray) -> np.ndarray:
        # argmin ||m-c||^2 == argmin ||c||^2 - 2 m.c (exact int64; the
        # dropped ||m||^2 is constant per row so ties are preserved)
        scores = (C_ * C_).sum(axis=1)[None, :] - 2 * (m @ C_.T)
        return scores.argmin(axis=1)

    for _ in range(iters):
        ref = ray.put(C)

        def partial(batch: pa.Table) -> pa.Table:
            m = quant(batch)
            a = assign(m, ray.get(ref))
            S = np.zeros((k_eff, d), np.int64)
            np.add.at(S, a, m)
            n = np.bincount(a, minlength=k_eff)
            live = np.nonzero(n)[0]
            cs = [np.repeat(live, d), live]
            js = [np.tile(np.arange(d, dtype=np.int64), len(live)),
                  np.full(len(live), -1, np.int64)]
            vs = [S[live].ravel(), n[live]]
            return pa.table(
                {
                    "c": pa.array(np.concatenate(cs), pa.int64()),
                    "j": pa.array(np.concatenate(js), pa.int64()),
                    "v": pa.array(np.concatenate(vs), pa.int64()),
                }
            )

        fold = (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["c", "j"])
            .aggregate(Sum("v", alias_name="v"))
            .to_pandas()  # cluster-scale: k x (d+1) rows
        )
        nxt = C.copy()  # empty clusters carry their previous centroid
        cnt = fold[fold["j"] == -1].set_index("c")["v"]
        sums = fold[fold["j"] >= 0]
        for c, g in sums.groupby("c"):
            n = int(cnt[c])
            row = np.zeros(d, np.int64)
            row[g["j"].to_numpy(np.int64)] = g["v"].to_numpy(np.int64)
            nxt[int(c)] = row // n
        C = nxt

    ref = ray.put(C)

    def final(batch: pa.Table) -> pa.Table:
        m = quant(batch)
        a = assign(m, ray.get(ref))
        return pa.table(
            {
                "vec_id": pc.cast(batch[id_col], pa.int64()),
                "cluster": pa.array(a.astype(np.int64)),
            }
        )

    out = ds.map_batches(final, batch_format="pyarrow")
    if return_centroids:
        # final quantized centroids (k x d int64): lets callers tag
        # clusters in their OWN stateless pass (broadcast k·d ints)
        # instead of joining the assignment back onto list-typed
        # vectors — Arrow's hash join rejects list payload columns
        return out, C
    return out
