"""Word2vec skip-gram negative-sampling (SGNS) trainer as Ray Data
dataflow — closes SURVEY.md §2 row A8 (the reference trains gensim
word2vec embeddings for its classifier inputs,
``pytorch/classification/word2vec.py:36-45``; the dataflow here is the
training-objective analogue, not a gensim port).

Design — synchronous full-batch SGNS in integer fixed point (the
kmeans_int / ALS / train.py recipe):

- Training data is the skip-gram CO-OCCURRENCE FOLD (w, c, n) over a
  distance-1..2 window (the q_word_window_pairs shift-align kernel with
  the distance lanes collapsed) — corpus passes happen ONCE; epochs
  iterate over the aggregated pair table, which is pair-vocab scale.
- Negative sampling is DETERMINISTIC and hash-slot based: word w's j-th
  negative target is slot ``md5int(w#nj) % V``; every vocab word whose
  own slot ``md5int(c) % V`` equals the target becomes a negative pair
  with weight n_w (w's positive mass).  No global vocab ORDER is
  needed — the slot match is an equi join, so the distributed path is a
  plain bucket_join and a SQL oracle reproduces the draw exactly
  (collisions/empty slots are deterministic in both engines).
- Embeddings are int64 at a fixed scale S, hash-initialized per (word,
  dim) — ``md5int(w#u<d>) % (2S+1) - S`` — so both engines start from
  the same state with no RNG.
- One round: attach U (on w) and V (on c) to the pair table (broadcast
  dict under the key gate, ``joins.bucket_join`` above it / under
  KGRAY_FORCE_DISTRIBUTED — factor tables stay Datasets, nothing
  key-scale lands on the driver on the distributed path), compute
  ``dot = U_w . V_c`` (exact int64), ``coef = label - sigmoid(dot/S^2)``
  (libm ``math.exp`` memoized per distinct dot — numpy's vectorized exp
  drifts one ulp vs DuckDB's libm exp, the tf-idf/ln lesson), quantize
  each per-pair gradient term to an integer ``floor(coef * n * V_d)``
  — INTEGER SUMS COMMUTE, so the per-word gradient fold is exact in any
  summation order — and update ``U' = U + sum // (lr_den * W_w)`` with
  ``W_w`` the word's total pair mass (normalized GD, lr = 1/lr_den).
  U and V update simultaneously from the round-start state, so a DuckDB
  oracle UNROLLS the identical round as stacked CTEs and matches
  bit-for-bit (numpy ``//`` floors; the SQL mirror shifts operands
  positive so truncation == floor, the EWMA/Holt lesson).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa


def _h13(s: str) -> int:
    """First 13 md5 hex chars as int — DuckDB's
    ``CAST('0x' || substr(md5(s), 1, 13) AS BIGINT)`` exactly."""
    return int(hashlib.md5(s.encode()).hexdigest()[:13], 16)


def window_pair_counts(docs, text_col: str = "text", window: int = 2):
    """(w, c, n) skip-gram co-occurrence fold, distances 1..window
    collapsed — numpy shift-align lanes over the flattened token
    stream, combiner-first fold."""
    from kgray.ops.agg import pre_aggregate

    def pairs(batch: pa.Table) -> pa.Table:
        toks = batch[text_col].to_pandas().str.split(" ")
        lens = toks.str.len().to_numpy(np.int64)
        flat = (np.concatenate(toks.to_numpy()) if len(toks)
                else np.array([], dtype=object))
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        w1, w2 = [], []
        for d in range(1, window + 1):
            if len(flat) <= d:
                continue
            same = doc_idx[d:] == doc_idx[:-d]
            w1.append(flat[:-d][same])
            w2.append(flat[d:][same])
        if not w1:
            return pa.table({"w": pa.array([], pa.string()),
                             "c": pa.array([], pa.string())})
        return pa.table({"w": pa.array(np.concatenate(w1)),
                         "c": pa.array(np.concatenate(w2))})

    return pre_aggregate(
        docs.map_batches(pairs, batch_format="pyarrow"),
        ["w", "c"], {"n": (None, "count")},
    )


def _init_embed(keys_ds, key_col: str, dim: int, scale: int, tag: str,
                prefix: str, init_div: int = 1):
    """Hash-initialized int64 embedding table: one row per key, columns
    ``<prefix>0..<prefix>{dim-1}`` in [-scale//init_div, scale//init_div]
    (word2vec inits small relative to the fixed-point scale so learned
    structure dominates the hash noise; the round-1 oracle pins
    init_div=1)."""
    amp = scale // init_div
    mod = 2 * amp + 1

    def init(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        cols = {key_col: batch[key_col]}
        for d in range(dim):
            cols[f"{prefix}{d}"] = pa.array(
                [(_h13(f"{k}#{tag}{d}") % mod) - amp for k in keys],
                pa.int64())
        return pa.table(cols)

    return keys_ds.map_batches(init, batch_format="pyarrow").materialize()


# embedding-table rows broadcast as a dict by _attach (read at call time)
MAX_BROADCAST_KEYS = 2_000_000


def _attach(pairs_ds, factor_ds, on: str, cols: list[str]):
    """Attach factor columns to the pair table: broadcast dict at or
    under ``MAX_BROADCAST_KEYS`` rows, bucket_join above it or under
    KGRAY_FORCE_DISTRIBUTED (factors stay a Dataset)."""
    import ray

    from kgray.ops.joins import bucket_join
    from kgray.util import collect_small

    tbl = collect_small(factor_ds, max_rows=MAX_BROADCAST_KEYS)
    if tbl is not None:
        fmap_ref = ray.put({
            k: tuple(vals) for k, *vals in zip(
                tbl[on].to_pylist(),
                *(tbl[c].to_pylist() for c in cols))
        })

        def attach(batch: pa.Table) -> pa.Table:
            fmap = ray.get(fmap_ref)
            rows = [fmap[k] for k in batch[on].to_pylist()]
            out = batch
            for i, c in enumerate(cols):
                out = out.append_column(
                    c, pa.array([r[i] for r in rows], pa.int64()))
            return out

        return pairs_ds.map_batches(attach, batch_format="pyarrow")
    return bucket_join(pairs_ds, factor_ds, on=on, how="inner")


def _sigmoid_coef(labels: np.ndarray, dots: np.ndarray,
                  s2f: float) -> np.ndarray:
    """coef = label - 1/(1+exp(-(dot/S^2))) with libm exp memoized per
    distinct dot (bit parity with DuckDB's exp; arithmetic is IEEE and
    order-matched with the SQL expression tree)."""
    uniq, inv = np.unique(dots, return_inverse=True)
    sig_u = np.fromiter(
        (1.0 / (1.0 + math.exp(-(float(d) / s2f))) for d in uniq),
        np.float64, len(uniq))
    return labels.astype(np.float64) - sig_u[inv]


def sgns_round(allp_ds, u_ds, v_ds, dim: int, scale: int, lr_den: int):
    """One synchronous SGNS round; returns (new_u_ds, new_v_ds), both
    materialized key-scale Datasets."""
    from kgray.util import grouped_map

    s2f = float(scale * scale)
    ucols = [f"u{d}" for d in range(dim)]
    vcols = [f"v{d}" for d in range(dim)]

    j = _attach(allp_ds, u_ds, "w", ucols)
    j = _attach(j, v_ds, "c", vcols)
    j = j.materialize()  # two grad folds read it; don't re-run the joins

    def grad_fold(key: str, other_cols: list[str]):
        def fold(df: pd.DataFrame) -> pd.DataFrame:
            dot = np.zeros(len(df), np.int64)
            for uc, vc in zip(ucols, vcols):
                dot += (df[uc].to_numpy(np.int64)
                        * df[vc].to_numpy(np.int64))
            coef = _sigmoid_coef(
                df["label"].to_numpy(np.int64), dot, s2f)
            nf = df["n"].to_numpy(np.int64).astype(np.float64)
            out = {key: df[key]}
            for d, oc in enumerate(other_cols):
                t = np.floor(
                    coef * nf * df[oc].to_numpy(np.int64).astype(
                        np.float64)).astype(np.int64)
                out[f"s{d}"] = t
            out["tw"] = df["n"].to_numpy(np.int64)
            g = pd.DataFrame(out).groupby(key, sort=False).sum()
            return g.reset_index()

        return grouped_map(j, key, fold)

    du = grad_fold("w", vcols).materialize()
    dv = grad_fold("c", ucols).materialize()

    def apply_update(prefix: str, key: str):
        def upd(batch: pa.Table) -> pa.Table:
            cols = {key: batch[key]}
            tw = batch["tw"].to_numpy(zero_copy_only=False).astype(np.int64)
            den = lr_den * tw
            for d in range(dim):
                e = batch[f"{prefix}{d}"].to_numpy(
                    zero_copy_only=False).astype(np.int64)
                s = batch[f"s{d}"].to_numpy(
                    zero_copy_only=False).astype(np.int64)
                # numpy // floors; the SQL mirror shifts positive first
                cols[f"{prefix}{d}"] = pa.array(e + s // den, pa.int64())
            return pa.table(cols)

        return upd

    nu = _attach(du, u_ds, "w", ucols) \
        .map_batches(apply_update("u", "w"), batch_format="pyarrow") \
        .materialize()
    nv = _attach(dv, v_ds, "c", vcols) \
        .map_batches(apply_update("v", "c"), batch_format="pyarrow") \
        .materialize()
    return nu, nv


def train_word2vec(docs, text_col: str = "text", dim: int = 4,
                   k_neg: int = 2, lr_den: int = 4, iters: int = 1,
                   scale: int = 10_000, window: int = 2,
                   init_div: int = 1):
    """Train SGNS embeddings over ``docs``; returns (u_ds, v_ds, nw_ds):
    input-embedding Dataset (w, u0..), output-embedding Dataset
    (c, v0..) and the per-word positive-mass table (w, n)."""
    from kgray.ops.agg import pre_aggregate
    from kgray.ops.joins import bucket_join

    import ray

    pairs = window_pair_counts(docs, text_col, window).materialize()
    nw = pre_aggregate(pairs, ["w"], {"n": ("n", "sum")}).materialize()
    vocab = pre_aggregate(pairs.select_columns(["c"]), ["c"],
                          {"__x": (None, "count")}) \
        .select_columns(["c"]).materialize()
    V = vocab.count()

    def slot_of(batch: pa.Table) -> pa.Table:
        cs = batch["c"].to_pylist()
        return pa.table({
            "c": batch["c"],
            "s": pa.array([_h13(c) % V for c in cs], pa.int64()),
        })

    slots = vocab.map_batches(slot_of, batch_format="pyarrow")

    def neg_targets(batch: pa.Table) -> pa.Table:
        ws = batch["w"].to_pylist()
        ns = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_w, out_s, out_n = [], [], []
        for w, n in zip(ws, ns):
            for jj in range(1, k_neg + 1):
                out_w.append(w)
                out_s.append(_h13(f"{w}#n{jj}") % V)
                out_n.append(int(n))
        return pa.table({"w": pa.array(out_w, pa.string()),
                         "s": pa.array(out_s, pa.int64()),
                         "n": pa.array(out_n, pa.int64())})

    negt = nw.map_batches(neg_targets, batch_format="pyarrow")
    negs = bucket_join(negt, slots, on="s", how="inner") \
        .select_columns(["w", "c", "n"])

    def with_label(lbl: int):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({
                "w": batch["w"], "c": batch["c"],
                "n": batch["n"].cast(pa.int64()),
                "label": pa.array(
                    np.full(batch.num_rows, lbl, np.int64)),
            })
        return f

    allp = pairs.map_batches(with_label(1), batch_format="pyarrow") \
        .union(negs.map_batches(with_label(0), batch_format="pyarrow")) \
        .materialize()

    u = _init_embed(nw.select_columns(["w"]), "w", dim, scale, "u", "u",
                    init_div)
    v = _init_embed(vocab, "c", dim, scale, "v", "v", init_div)
    for _ in range(iters):
        u, v = sgns_round(allp, u, v, dim, scale, lr_den)
    return u, v, nw
