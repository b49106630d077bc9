"""Deterministic sampling / split / quantile operators for training-data
curation (engine additions; reference has only head-N sampling,
labeling/predict.py-style, covered by T3).

Design notes for 100 TB:

- Splits and samples are pure functions of the row KEY (md5 of the id),
  never of position or RNG state — re-running any shard reproduces the
  same assignment, resumable writes stay consistent, and no coordination
  or shuffle is needed (the split is a stateless map).
- ``rank_quantiles`` shuffles only a value HISTOGRAM (one row per
  distinct value per batch, folded by groupby-sum), then ranks on the
  driver over the distinct-value table — metadata-scale for bounded
  domains (lengths, scores, counts).  For unbounded/continuous columns
  use ``grouped_rank_quantiles`` (exact per-group sort inside a cogroup
  bucket) or bin first.
- Quantile semantics are pinned to an explicit rank so a SQL oracle can
  reproduce them bit-for-bit: rank(p) = ceil(p * N) (1-indexed), value =
  the rank(p)-th smallest element — i.e. percentile_disc / the smallest
  value whose row_number() >= rank.  No interpolation, so doubles pass
  through untouched (no float-parity risk).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _md5_hex(ids) -> list[str]:
    """md5 hex digest of the decimal string of each id — the exact value
    DuckDB's md5(CAST(id AS VARCHAR)) computes, so oracles can reproduce
    split/sample membership.  Python-loop over rows is acceptable here
    for the same reason as q_fingerprint: hashlib releases the work to C
    per call and the kernel is oracle-pinned."""
    return [hashlib.md5(str(i).encode()).hexdigest() for i in ids]


def split_thresholds(ratios: dict[str, float]) -> list[tuple[str, str]]:
    """Cumulative md5-hex thresholds for a ratio dict, in insertion
    order.  A row belongs to the first split whose threshold exceeds its
    md5 hex (lexicographic compare == uniform fraction of hash space).
    The last threshold is 'g' * 32 (> any hex digest) so rounding never
    drops rows."""
    names = list(ratios)
    total = float(sum(ratios.values()))
    out: list[tuple[str, str]] = []
    acc = 0.0
    for i, name in enumerate(names):
        acc += ratios[name] / total
        if i == len(names) - 1:
            out.append((name, "g" * 32))
        else:
            frac = int(acc * 16**8)
            out.append((name, format(frac, "08x")))
    return out


def add_hash_split(ds, id_col: str, ratios: dict[str, float],
                   out_col: str = "split"):
    """Deterministic train/val/test split: assign each row to a split by
    where md5(str(id)) falls in hex space.  Stateless map — no shuffle,
    no RNG, stable under retries and resume."""
    thresholds = split_thresholds(ratios)

    def assign(batch: pa.Table) -> pa.Table:
        hs = _md5_hex(batch[id_col].to_pylist())
        splits = []
        for h in hs:
            for name, t in thresholds:
                if h < t:
                    splits.append(name)
                    break
        return batch.append_column(out_col, pa.array(splits, pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_sample(ds, strata_col: str, id_col: str, k: int):
    """Per-stratum deterministic sample: the k rows with the smallest
    md5(str(id)) in each stratum (uniform within the stratum because the
    hash is uniform).  Per-batch combiner keeps only k candidates per
    stratum per batch, so the final cogroup moves O(batches * strata * k)
    rows, never the input."""
    from kgray.util import grouped_map

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                strata_col: batch[strata_col],
                id_col: batch[id_col],
                "__h": pa.array(_md5_hex(batch[id_col].to_pylist()),
                                 pa.string()),
            }
        ).to_pandas()
        df = df.sort_values(["__h", id_col], kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby(strata_col, sort=False).head(k),
            preserve_index=False,
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["__h", id_col], kind="mergesort")
        out = df.groupby(strata_col, sort=False).head(k)
        return out[[strata_col, id_col]]

    return grouped_map(
        ds.map_batches(partial, batch_format="pyarrow"), strata_col, final
    )


# rank_quantiles' driver-side histogram gate: distinct values (read at
# call time)
MAX_DISTINCT = 2_000_000


def rank_quantiles(ds, col: str, ps: list[float],
                   labels: list[str] | None = None) -> pa.Table:
    """Exact global quantiles of ``col``: value-histogram combiner (one
    row per distinct value per batch) -> groupby-sum fold -> driver-side
    rank over the distinct-value table (metadata-scale: bounded by the
    number of DISTINCT values, not rows).  rank(p) = ceil(p*N); returns
    (q, value) rows.

    High-cardinality auto-gate: the distinct-value table is only
    driver-safe for bounded domains (lengths, scores, cents).  Above
    ``MAX_DISTINCT`` distinct values (exact count of the folded
    histogram, pre-screened by a 50k-row sample so the obvious
    continuous-column case never builds the histogram at all), the op
    switches to distributed value-range order-statistic SELECTION
    (``_range_select_quantiles``): only ranges containing a target rank
    sort locally, nothing key-scale ever lands on the driver.  Both
    paths pin the same rank(p) = ceil(p*N) element, so they are
    value-identical; ``KGRAY_FORCE_DISTRIBUTED`` collapses the gate and
    pins the range path."""
    from ray.data.aggregate import Sum

    from kgray.util import collect_small, force_distributed

    if force_distributed():
        return _range_select_quantiles(ds, col, ps, labels)
    # cheap pre-screen: a near-all-distinct sample means a continuous
    # column — skip the (distinct-scale) histogram fold
    samp = ds.limit(50_000).select_columns([col]).to_pandas()
    if len(samp) >= 50_000 and samp[col].nunique() >= 0.8 * len(samp):
        return _range_select_quantiles(ds, col, ps, labels)

    def partial(batch: pa.Table) -> pa.Table:
        vc = pa.table({col: batch[col]}).group_by(col).aggregate(
            [([], "count_all")]
        )
        return pa.table({col: vc[col], "n": vc["count_all"].cast(pa.int64())})

    hist_ds = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(col)
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )
    # exact safety net behind the sample screen: a half-distinct column
    # passes the 0.8 ratio but can still exceed the driver gate
    hist_tbl = collect_small(hist_ds, max_rows=MAX_DISTINCT)
    if hist_tbl is None:
        return _range_select_quantiles(ds, col, ps, labels)
    hist = hist_tbl.to_pandas().sort_values(col, ignore_index=True)
    total = int(hist["n"].sum())
    cum = hist["n"].cumsum().to_numpy()
    vals = hist[col].to_numpy()
    if labels is None:
        labels = [f"p{int(round(p * 100))}" for p in ps]
    out_v = []
    for p in ps:
        rank = int(np.ceil(p * total)) if p > 0 else 1
        out_v.append(vals[int(np.searchsorted(cum, rank))])
    return pa.table(
        {
            "q": pa.array(labels, pa.string()),
            "value": pa.array(np.asarray(out_v)),
        }
    )


def _range_select_quantiles(ds, col: str, ps: list[float],
                            labels: list[str] | None = None) -> pa.Table:
    """Distributed exact order-statistic selection (the
    q_events_value_deciles machinery, generalized): a value-range
    histogram (combiner fold, metadata-scale) gives every range its
    global rank offset; target ranks rank(p)=ceil(p*N) land in known
    ranges; ONLY those ranges sort locally to recover the exact
    element.  Selected values are returned UNTOUCHED (float equality is
    exact on untouched values); ties need no tie-break column because
    equal values share a range and any ordering among them yields the
    same ranked value."""
    from ray.data.aggregate import Max, Min

    from kgray.ops.agg import pre_aggregate
    from kgray.util import default_num_buckets, grouped_map

    if labels is None:
        labels = [f"p{int(round(p * 100))}" for p in ps]

    ds = ds.select_columns([col]).materialize()
    total = ds.count()
    if total == 0:
        return pa.table({"q": pa.array([], pa.string()),
                         "value": pa.array([], pa.float64())})

    # rank -> [output positions]: distinct ps can share a rank on tiny N
    targets: dict[int, list[int]] = {}
    for i, p in enumerate(ps):
        rank = int(np.ceil(p * total)) if p > 0 else 1
        targets.setdefault(rank, []).append(i)

    bounds = ds.aggregate(Min(col), Max(col))
    lo = float(bounds[f"min({col})"])
    hi = float(bounds[f"max({col})"])
    n_ranges = default_num_buckets()
    width = (hi - lo) / n_ranges or 1.0

    def rng_of(v: np.ndarray) -> np.ndarray:
        return np.clip(
            ((v.astype(np.float64) - lo) / width).astype(np.int64),
            0, n_ranges - 1)

    def range_counts(batch: pa.Table) -> pa.Table:
        r = rng_of(batch[col].to_numpy(zero_copy_only=False))
        cnt = np.bincount(r, minlength=n_ranges)
        nz = np.nonzero(cnt)[0]
        return pa.table({"rng": pa.array(nz, pa.int64()),
                         "c": pa.array(cnt[nz].astype(np.int64))})

    hist = (
        pre_aggregate(
            ds.map_batches(range_counts, batch_format="pyarrow"),
            ["rng"], {"c": ("c", "sum")},
        )
        .to_pandas().sort_values("rng")
    )
    offsets = np.zeros(n_ranges, np.int64)
    idx = hist["rng"].to_numpy(np.int64)
    csum = np.concatenate([[0],
                           np.cumsum(hist["c"].to_numpy(np.int64))[:-1]])
    offsets[idx] = csum
    ends = np.zeros(n_ranges, np.int64)
    ends[idx] = csum + hist["c"].to_numpy(np.int64)
    hot = np.fromiter(
        (int(r) for r in idx
         if any(offsets[r] < t <= ends[r] for t in targets)),
        np.int64,
    )

    def tag(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False)
        keep = np.isin(rng_of(v), hot)
        kept = batch[col].filter(pa.array(keep))
        return pa.table({
            "rng": pa.array(rng_of(v)[keep]),
            "value": kept,
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for r, grp in df.groupby("rng", sort=False):
            g = grp["value"].sort_values(kind="mergesort").to_numpy()
            base = int(offsets[int(r)])
            for t, idxs in targets.items():
                if base < t <= base + len(g):
                    for i in idxs:
                        out.append((i, g[t - base - 1]))
        return pd.DataFrame(out, columns=["i", "value"])

    res = grouped_map(tagged, "rng", pick).to_pandas()
    res = res.sort_values("i").reset_index(drop=True)
    return pa.table({
        "q": pa.array([labels[i] for i in res["i"]], pa.string()),
        "value": pa.array(res["value"].to_numpy()),
    })


def grouped_rank_quantiles(ds, key: str, col: str, ps: list[float],
                           labels: list[str] | None = None):
    """Exact per-group quantiles (rank(p) = ceil(p*n) element) via one
    coarse-bucket cogroup; the per-group sort+pick is vectorized inside
    the bucket.  Correct for continuous columns where the global
    histogram trick would shuffle ~N distinct values; the partitioning
    assumption is one GROUP fits a worker (same as any per-key window)."""
    from kgray.util import grouped_map

    if labels is None:
        labels = [f"p{int(round(p * 100))}" for p in ps]

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, col], kind="mergesort")
        sizes = df.groupby(key, sort=False)[col].size()
        starts = np.concatenate([[0], sizes.cumsum().to_numpy()[:-1]])
        vals = df[col].to_numpy()
        keys_out, q_out, v_out = [], [], []
        n = sizes.to_numpy()
        for p, lab in zip(ps, labels):
            ranks = np.maximum(np.ceil(p * n).astype(np.int64), 1)
            idx = starts + ranks - 1
            keys_out.append(sizes.index.to_numpy())
            q_out.append(np.full(len(n), lab, dtype=object))
            v_out.append(vals[idx])
        return pd.DataFrame(
            {
                key: np.concatenate(keys_out),
                "q": np.concatenate(q_out),
                "value": np.concatenate(v_out),
            }
        )

    return grouped_map(ds, key, per_bucket)


def rate_threshold(rate: float) -> str:
    """Hex-space keep-threshold for a sampling rate in [0, 1]; rates >= 1
    use a sentinel above every hex digest (keep all)."""
    if rate >= 1.0:
        return "g" * 32
    return format(int(rate * 16**8), "08x")


def downsample_sources(ds, rates: dict[str, float], source_col: str = "source",
                       id_col: str = "doc_id", default: float = 1.0,
                       salt: str = ":"):
    """Deterministic source-mixture resampling: keep a row iff
    md5(source || salt || str(id)) falls under its source's rate
    threshold.  The salt makes per-source sampling independent of any
    other hash-derived assignment over the same ids (e.g. the train/val
    split).  Stateless map — no shuffle, no RNG, stable under retries;
    the mixture is exact in expectation and concentrates at corpus
    scale."""
    th = {s: rate_threshold(r) for s, r in rates.items()}
    default_th = rate_threshold(default)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        srcs = batch[source_col].to_pylist()
        mask = [
            hashlib.md5(f"{s}{salt}{i}".encode()).hexdigest()
            < th.get(s, default_th)
            for s, i in zip(srcs, ids)
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return ds.map_batches(keep, batch_format="pyarrow")


def priority_sample(ds, id_col: str, weight_col: str, k: int,
                    salt: str = "w", keep_cols: list[str] | None = None):
    """Weighted sampling WITHOUT replacement (Efraimidis-Spirakis A-ES):
    each row gets key = u^(1/w) with u a deterministic hash-uniform of
    (salt, id) — u = (first 52 md5 bits + 0.5) / 2^52, the same value a
    SQL oracle reproduces from md5 hex — and the global top-k by key is
    the sample.  P(row in sample) follows its weight; determinism makes
    the draw retry/resume-stable and oracle-checkable.

    Scale shape: the key is a stateless per-batch map; each batch keeps
    only its local top-k (combiner), so the global sort+limit moves
    O(k x batches) rows, never the corpus.  The key column is dropped
    from the output (numpy vs SQL ``pow`` may differ in the last ulp;
    ordering is robust — order statistics gaps dwarf one ulp — but
    emitted floats must be bit-stable).  Weights must be positive.
    """

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if (w <= 0).any():
            raise ValueError("priority_sample: weights must be positive")
        hexes = [
            hashlib.md5(f"{salt}:{i}".encode()).hexdigest()[:13] for i in ids
        ]
        u = (np.array([int(h, 16) for h in hexes], np.float64) + 0.5) / float(
            1 << 52
        )
        key = u ** (1.0 / w)
        cols = keep_cols or [c for c in batch.column_names]
        take = np.argsort(-key, kind="mergesort")[:k]
        out = batch.select(cols).take(pa.array(take, pa.int64()))
        return out.append_column("__key", pa.array(key[take], pa.float64()))

    top = (
        ds.map_batches(partial, batch_format="pyarrow")
        .sort(["__key", id_col], descending=[True, False])
        .limit(k)
    )
    return top.map_batches(
        lambda b: b.drop_columns(["__key"]), batch_format="pyarrow"
    )
