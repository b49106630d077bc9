"""Rank-1 implicit-feedback ALS in integer fixed point — matrix
factorization whose every iterate is EXACTLY oracle-checkable.

Alternating least squares for a rank-1 model r_ci ~ u_c * v_i has
closed-form half-steps that are pure per-key aggregates over the rating
triples:

    u_c = sum_i r_ci * v_i / sum_i v_i^2      (items c observed)
    v_i = sum_c r_ci * u_c / sum_c u_c^2      (users that touched i)

Quantized to integers (factors carry a fixed scale S, the half-step is
``S^2 * num // den``), the recurrence is deterministic in ANY summation
order — integer sums commute — so a DuckDB oracle can UNROLL the same
iterations as stacked CTE layers and match bit-for-bit (the
pagerank_int / kmeans_int / EWMA family).  All operands are
non-negative (ratings are quantities, v0 = S > 0), so DuckDB's
truncating ``//`` equals numpy's floor division throughout.

Scale shape: the rating table streams; each half-step attaches the
opposite factor vector (broadcast dict under ``MAX_BROADCAST_KEYS``,
``joins.bucket_join`` above it or under KGRAY_FORCE_DISTRIBUTED) and
folds per-key partials batch-side before ONE aggregate-scale shuffle.
Factor tables are user-/item-key-scale, never rating-scale — and they
stay MATERIALIZED DATASETS between half-steps: the distributed path
feeds ``bucket_join`` a Dataset directly, so at billions of keys no
round ever concatenates a factor table on the driver.  Only the gated
broadcast path (<= ``MAX_BROADCAST_KEYS`` rows, or always at test
scale) collects, because a broadcast dict is driver-built by
definition.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# factor-table rows broadcast as a dict per half-step (read at call time)
MAX_BROADCAST_KEYS = 2_000_000


def _half_step(r_ds, key_col: str, other_col: str, rating_col: str,
               other_ds, scale: int):
    """One ALS half-step: new factors for ``key_col`` given the
    materialized ``other_col`` factor DATASET (columns: other_col, 'f'),
    which stays distributed on the bucket_join path — no driver concat."""
    import ray

    from kgray.ops.joins import bucket_join
    from kgray.util import collect_small

    s2 = scale * scale

    other_tbl = collect_small(other_ds, max_rows=MAX_BROADCAST_KEYS)
    if other_tbl is not None:
        # gated path only: a broadcast dict is driver-built by definition
        fmap_ref = ray.put(dict(zip(
            other_tbl[other_col].to_pylist(), other_tbl["f"].to_pylist()))
            if other_tbl.num_rows else {})

        def attach(batch: pa.Table) -> pa.Table:
            fmap = ray.get(fmap_ref)
            f = pd.Series(batch[other_col].to_pylist()).map(fmap) \
                .to_numpy(np.int64)
            return batch.append_column("f", pa.array(f))

        joined = r_ds.map_batches(attach, batch_format="pyarrow")
    else:
        joined = bucket_join(r_ds, other_ds, on=other_col, how="inner")

    # user/item keys are near-unique per batch, so a per-batch combiner
    # compresses nothing and groupby.aggregate degenerates (the repo's
    # measured near-unique-key pathology) — fold inside a coarse-bucket
    # cogroup instead: one shuffle, vectorized per-bucket groupby, and
    # every key lives entirely in one bucket so the half-step finishes
    # in the same pass.
    from kgray.util import grouped_map

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        r = df[rating_col].to_numpy(np.int64)
        fv = df["f"].to_numpy(np.int64)
        # int64 fold bound (documented, not silent): per-key sums of
        # r*f stay below 2^63 for r*f ~ S * rating ~ 1e10 up to ~1e8
        # observed pairs PER KEY — far past any real user/item history
        g = pd.DataFrame({"k": df[key_col], "num": r * fv, "den": fv * fv}) \
            .groupby("k", sort=False).sum()
        # python-int multiply: S^2 * num exceeds int64 long before the
        # fold does — the division is arbitrary precision in both
        # engines (DuckDB computes it in HUGEINT)
        out = [s2 * int(n) // int(d)
               for n, d in zip(g["num"], g["den"])]
        return pd.DataFrame({key_col: g.index, "f": out}) \
            .astype({"f": np.int64})

    # materialize: the next half-step joins against this table and
    # counts its rows — re-running the lazy join+fold per consumer
    # would re-execute the shuffle (the graph-extraction lesson)
    return grouped_map(joined, key_col, fold).materialize()


def als1(r_ds, user_col: str, item_col: str, rating_col: str,
         iters: int = 2, scale: int = 10_000):
    """Run ``iters`` full ALS rounds (u half-step then v half-step) from
    v0 = scale; returns (user_factors, item_factors) as key-scale
    Datasets with integer column ``f``.  ``r_ds`` must be the
    pre-aggregated rating triples (user, item, integer rating >= 0) —
    callers fold duplicates first so both engines see one row per
    (user, item)."""
    from kgray.ops.agg import pre_aggregate

    r_ds = r_ds.materialize()  # read once; 2*iters passes follow
    items = pre_aggregate(
        r_ds.select_columns([item_col]), [item_col], {"n": (None, "count")}
    )

    def init(batch: pa.Table) -> pa.Table:
        return pa.table({
            item_col: batch[item_col],
            "f": pa.array(np.full(len(batch), scale, np.int64)),
        })

    v_ds = items.map_batches(init, batch_format="pyarrow").materialize()
    u_ds = None
    for _ in range(iters):
        u_ds = _half_step(r_ds, user_col, item_col, rating_col, v_ds, scale)
        v_ds = _half_step(r_ds, item_col, user_col, rating_col, u_ds, scale)

    return u_ds, v_ds
