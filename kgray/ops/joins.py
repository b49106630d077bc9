"""Join strategies: broadcast small-side joins and partitioned cogroups.

The reference's only joins are line-aligned zip joins and tiny dict
lookups (SURVEY.md §2.4 J1-J2); at 100 TB those become either a broadcast
(`ray.put` once, read per task: ``broadcast_join``, ``semi_join_filter``,
``range_join_broadcast``) or a keyed shuffle, so every caller states its
choice explicitly.  Every two-input shuffle here (``bucket_join`` and its
salted/skew wrappers, ``semi_join``'s exact residual, ``asof_join``,
``interval_join``) is one ``kgray.util.cogroup``: each side reaches the
per-bucket kernel as its own typed Arrow table.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from kgray.util import cogroup, collect_table, fits_small, schema_table


def bucket_join(
    left,
    right,
    on: str | list[str],
    right_on: str | list[str] | None = None,
    how: str = "left",
    num_buckets: int | None = None,
    right_suffix: str = "_r",
):
    """Explicit partitioned hash join: ``util.cogroup`` on the key, and
    an Arrow ``pa.Table.join`` inside each bucket.

    Used where ``Dataset.join`` is fragile (its hash-shuffle builds a
    zero-column left table for left-empty partitions, which Arrow's
    acero join rejects).  Everything stays Arrow end-to-end, so an
    unmatched row's int64 columns stay int64 with nulls (pandas would
    floatify them and corrupt the bucket hash of a chained join).
    ``num_buckets`` is the shuffle fan-out (default
    ``default_num_buckets()``): size so one bucket (both sides) fits a
    worker's heap; salt skewed keys first (``salted_bucket_join``).

    ``on`` / ``right_on`` accept a list for composite keys; an int32 key
    meets its int64 twin (both widen to int64).  Right columns whose
    names clash with left ones take ``right_suffix``; a right key named
    differently from its left key is dropped (the left key carries the
    value).  Both sides' schemas are fetched up front (``ds.schema()``
    runs a lazy side to its first block), so a side with no rows still
    gives the output its typed columns; a side with no rows and no
    schema has no nameable columns: the join then keeps the other side's
    rows as they are when ``how`` keeps them, else gives no rows.
    """
    on_keys = [on] if isinstance(on, str) else list(on)
    r_keys = on_keys if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    arrow_how = {
        "left": "left outer", "left_outer": "left outer",
        "right": "right outer", "right_outer": "right outer",
        "inner": "inner", "outer": "full outer", "full_outer": "full outer",
    }[how]
    same_named = {r for l, r in zip(on_keys, r_keys) if l == r}
    typed = [schema_table(ds.schema()) for ds in (left, right)]

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt, rt = (t if t.num_columns else e for t, e in zip((lt, rt), typed))
        if not lt.num_columns or not rt.num_columns:
            kept = {"left outer": lt, "right outer": rt,
                    "full outer": lt if lt.num_columns else rt}
            return kept.get(arrow_how, pa.table({}))
        clash = (set(lt.column_names) & set(rt.column_names)) - same_named
        rt = rt.rename_columns(
            [c + right_suffix if c in clash else c for c in rt.column_names])
        rk = [k + right_suffix if k in clash else k for k in r_keys]
        for a, b in zip(on_keys, rk):
            ta, tb = lt.schema.field(a).type, rt.schema.field(b).type
            if ta != tb and pa.types.is_integer(ta) and pa.types.is_integer(tb):
                lt = lt.set_column(lt.column_names.index(a), a,
                                   lt[a].cast(pa.int64()))
                rt = rt.set_column(rt.column_names.index(b), b,
                                   rt[b].cast(pa.int64()))
        dropped = set(rk) - set(on_keys)
        cols = [*lt.column_names,
                *(c for c in rt.column_names
                  if c not in dropped and c not in lt.column_names)]
        return lt.join(rt, keys=on_keys, right_keys=rk,
                       join_type=arrow_how).select(cols).combine_chunks()

    return cogroup(left, right, on_keys, r_keys, merge, num_buckets)


def broadcast_join(
    left,
    right,
    on: str,
    right_on: str | None = None,
    how: str = "left",
    right_suffix: str = "_r",
):
    """Broadcast hash join: the SMALL right side is collected to one Arrow
    table, `ray.put` once, and every left batch Arrow-joins against the
    shared copy inside map_batches — zero shuffle, one pass over the left.

    This is the correct join for dimension tables at any scale (the
    customer/nation/region side of a fact join, a doc_id -> text map of a
    bounded working set).  Wrong for big-big joins — use ``bucket_join``.
    ``right`` may be a Dataset or a pyarrow Table.
    """
    import ray

    right_on = right_on or on
    right_tbl = right if isinstance(right, pa.Table) else collect_table(right)

    left_cols = set(left.schema().names)
    clash = (left_cols & set(right_tbl.column_names)) - (
        {on} if on == right_on else set()
    )
    if clash:
        right_tbl = right_tbl.rename_columns(
            [c + right_suffix if c in clash else c for c in right_tbl.column_names]
        )
    r_key = (right_on + right_suffix) if right_on in clash else right_on
    arrow_how = {
        "left": "left outer", "left_outer": "left outer",
        "inner": "inner",
    }[how]
    ref = ray.put(right_tbl.combine_chunks())

    def apply(batch: pa.Table) -> pa.Table:
        rt = ray.get(ref)
        out = batch.join(rt, keys=[on], right_keys=[r_key], join_type=arrow_how)
        return out.combine_chunks()

    return left.map_batches(apply, batch_format="pyarrow")


# semi_join's key-set broadcast gate: estimated raw right-side bytes
# (read at call time)
MAX_BROADCAST_BYTES = 1 << 28
# width of semi_join's Bloom prefilter on the partitioned path (2^24 bits
# = a 2 MB broadcast; read at call time)
BLOOM_BITS = 1 << 24


def semi_join(left, right, on: str, right_on: str | None = None,
              anti: bool = False):
    """Semi (EXISTS) / anti (NOT EXISTS) join of ``left`` against the key
    set of ``right``.

    The right side reduces to its per-batch distinct key column first,
    so what moves is a key set, not rows.  At or under
    ``MAX_BROADCAST_BYTES`` (estimated raw right size, 256 MB — a python
    set carries ~5-10x overhead per key, so this bounds the
    driver-resident set to low GBs worst case) the set ships via the
    object store and the filter runs inside map_batches with no shuffle
    — the right plan for dimension-sized key sets at any scale.  Above
    it (or under KGRAY_FORCE_DISTRIBUTED) a distributed Bloom filter of
    the right keys (``BLOOM_BITS`` wide) first splits the left INSIDE
    map_batches: rows it rejects are definitively absent from the right
    (no false negatives), so only the candidates pay ONE ``cogroup``
    shuffle with the keys, where the broadcast path's membership test
    runs per bucket — exact at any false-positive rate.  The anti path
    reads ``left`` twice (definite-keeps + candidates): materialize an
    expensive upstream before calling.
    """
    import ray

    from kgray.ops.bloom import bloom_mask, build_bloom

    right_on = right_on or on
    keys_ds = right.map_batches(
        lambda b: pa.table({"__k": pc_unique(b[right_on])}),
        batch_format="pyarrow",
    )
    if fits_small(right, max_bytes=MAX_BROADCAST_BYTES):
        tbl = collect_table(keys_ds)
        keys = set(tbl["__k"].to_pylist()) if tbl.num_rows else set()
        return semi_join_filter(left, keys, on, keep=not anti)

    words_ref = ray.put(build_bloom(keys_ds, "__k", n_bits=BLOOM_BITS))

    def part(candidates: bool):
        def apply(batch: pa.Table) -> pa.Table:
            m = bloom_mask(batch[on], ray.get(words_ref))
            return batch.filter(pa.array(m if candidates else ~m))

        return apply

    def member(lt: pa.Table, kt: pa.Table) -> pa.Table:
        if not kt.num_rows or not lt.num_rows:
            return lt if anti else lt.slice(0, 0)
        return lt.filter(_member_mask(lt[on], kt["__k"], not anti))

    cand = left.map_batches(part(True), batch_format="pyarrow")
    residual = cogroup(cand, keys_ds, on, "__k", member)
    if not anti:
        return residual
    definite = left.map_batches(part(False), batch_format="pyarrow")
    return definite.union(residual)


def pc_unique(col):
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.unique(col)


def _member_mask(col, keys: pa.Array, keep: bool):
    """Rows of ``col`` in ``keys`` (``keep``) or not in them: one
    ``pc.is_in`` kernel, a null probe never kept."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if keys.type != col.type:
        keys = keys.cast(col.type)
    mask = pc.is_in(col, value_set=keys)
    return pc.fill_null(mask if keep else pc.invert(mask), False)


def semi_join_filter(ds, keys, key_col: str, keep: bool = True):
    """Semi/anti join against a broadcast key set (SURVEY.md guide
    pattern): filter inside map_batches, no shuffle.

    The key set ships as an Arrow array (denser than a python set in the
    object store) and the membership test is one ``pc.is_in`` kernel per
    batch — no per-row python."""
    import ray

    value_set = keys if isinstance(keys, pa.Array) else pa.array(list(keys))
    ref = ray.put(value_set)

    def apply(batch: pa.Table) -> pa.Table:
        return batch.filter(_member_mask(batch[key_col], ray.get(ref), keep))

    return ds.map_batches(apply, batch_format="pyarrow")


def asof_join(left, right, key: str, time_col: str,
              right_time_col: str | None = None, suffix: str = "_r",
              allow_exact: bool = True):
    """As-of join (the brief's canonical missing-from-Ray-Data operator):
    for every left row, attach the LATEST right row of the same ``key``
    with right time <= left time (backward direction).

    Dataflow: ONE ``cogroup`` on hash(key) (all rows of a key colocate),
    and inside each bucket a single ``pandas.merge_asof(..., by=key)``
    over the key and time columns finds each left row's right row,
    fully vectorized — no per-key python; the right rows then attach by
    an Arrow ``take``, so every column keeps its type.  Left rows with no
    prior right row carry nulls (left-outer semantics; filter on the
    matched column for inner).  Right columns whose names clash with
    left ones take ``suffix``.  Partitioning assumption: one key's rows
    fit a bucket (same rule as every keyed cogroup here); skewed keys
    need salting by time range.
    """
    rt = right_time_col or time_col
    # fetched up front: with no right rows, left rows still carry the
    # right columns (null)
    r_typed = schema_table(right.schema())

    def bucket_asof(lt: pa.Table, rtab: pa.Table) -> pa.Table:
        rtab = rtab if rtab.num_columns else r_typed
        if not lt.num_columns or not rtab.num_columns:
            # a side with no rows and no schema: no right columns are
            # even nameable — left passes through
            return lt
        lt = lt.take(pc.sort_indices(lt, [(time_col, "ascending")]))
        rtab = rtab.take(pc.sort_indices(rtab, [(rt, "ascending")]))
        lp, rp = (pd.DataFrame({key: _np(t[key]), "t": _np(t[c])})
                  for t, c in ((lt, time_col), (rtab, rt)))
        rp["row"] = np.arange(len(rp))
        row = pd.merge_asof(lp, rp, on="t", by=key, direction="backward",
                            allow_exact_matches=allow_exact)["row"]
        picked = rtab.take(pa.array(row.fillna(-1).to_numpy(np.int64),
                                    mask=row.isna().to_numpy()))
        clash = set(lt.column_names) - {key}
        out = lt
        for c in picked.column_names:
            if c != key:
                out = out.append_column(c + suffix if c in clash else c,
                                        picked[c])
        return out

    return cogroup(left, right, key, key, bucket_asof)


def _np(col) -> np.ndarray:
    """An Arrow column as numpy, ints widened to int64 (so an int32
    column meets its int64 twin in a pandas merge)."""
    if pa.types.is_integer(col.type):
        col = pc.cast(col, pa.int64())
    return col.to_numpy(zero_copy_only=False)


def interval_join(left, right, key: str,
                  l_id: str = "l_id", r_id: str = "r_id",
                  start_col: str = "s", end_col: str = "e",
                  overlap_col: str = "ov"):
    """Keyed interval-OVERLAP join (big-big): every (left, right) pair of
    the same ``key`` whose CLOSED intervals intersect, with the overlap
    length ``min(e) - max(s)`` (touching intervals overlap with 0).

    Both sides carry columns ``[key, id, start_col, end_col]`` with
    numeric (typically integer-microsecond) bounds; ``l_id`` / ``r_id``
    name each side's INPUT id column, and the output columns are always
    ``(key, "l_id", "r_id", overlap_col)``.  Dataflow: ONE
    ``cogroup`` on hash(key); inside each bucket, per key the left
    intervals sort by start and every right row finds its candidate
    range with two binary searches — ``searchsorted(cummax(l_end),
    r_start)`` (the running-max end is monotone even when raw ends are
    not, so this is correct for ARBITRARY overlapping left intervals)
    and ``searchsorted(l_start, r_end, 'right')`` — then an exact mask
    trims the expansion.  For per-key DISJOINT intervals (sessions,
    SCD validity ranges) the candidate range is already exact and the
    cost is output-linear.  Partitioning assumption: one key's rows fit
    a bucket (the house cogroup rule); a pathological key whose
    intervals all mutually overlap is inherently output-quadratic.
    """
    def arrays(t: pa.Table, id_col: str):
        return t[key].to_pandas(), *(
            pc.cast(t[c], pa.int64()).to_numpy(zero_copy_only=False)
            for c in (id_col, start_col, end_col))

    def bucket(lt: pa.Table, rt: pa.Table):
        if not lt.num_rows or not rt.num_rows:
            return pa.table({
                key: pa.array([], lt[key].type if lt.num_columns
                              else pa.int64()),
                **{c: pa.array([], pa.int64())
                   for c in ("l_id", "r_id", overlap_col)}})
        lk, lid_all, ls_all, le_all = arrays(lt, l_id)
        rk, rid_all, rs_all, re_all = arrays(rt, r_id)
        r_groups = rk.groupby(rk, sort=False).indices
        outs = []
        for k, li in lk.groupby(lk, sort=False).indices.items():
            ri = r_groups.get(k)
            if ri is None:
                continue
            order = np.argsort(ls_all[li], kind="mergesort")
            li = li[order]
            ls, le, lid = ls_all[li], le_all[li], lid_all[li]
            le_cm = np.maximum.accumulate(le)
            rs, re_, rid = rs_all[ri], re_all[ri], rid_all[ri]
            lo = np.searchsorted(le_cm, rs, side="left")
            hi = np.searchsorted(ls, re_, side="right")
            cnt = np.maximum(hi - lo, 0)
            if not cnt.sum():
                continue
            r_rep = np.repeat(np.arange(len(ri)), cnt)
            l_pos = np.concatenate(
                [np.arange(a, a + c) for a, c in zip(lo, cnt) if c]
            )
            mask = le[l_pos] >= rs[r_rep]  # exact trim of the cummax range
            l_pos, r_rep = l_pos[mask], r_rep[mask]
            ov = (np.minimum(le[l_pos], re_[r_rep])
                  - np.maximum(ls[l_pos], rs[r_rep]))
            outs.append(pd.DataFrame({
                key: lk.to_numpy()[li][l_pos],
                "l_id": lid[l_pos], "r_id": rid[r_rep], overlap_col: ov,
            }))
        if not outs:
            return bucket(lt.slice(0, 0), rt)
        return pd.concat(outs, ignore_index=True)

    return cogroup(left, right, key, key, bucket)


def band_self_join(ds, id_col: str, value_col: str, delta: int,
                   num_buckets: int | None = None):
    """KEYLESS band self-join: every pair of rows whose integer values
    differ by at most ``delta`` — the |a - b| <= d theta-join that has
    no equi key to hash on.  Decomposition: bucket width = delta, each
    row replicates to its native bucket and the next (bounded 2x
    fan-out), any qualifying pair co-locates in the HIGHER of the two
    native buckets (|diff| <= delta implies native buckets differ by
    <= 1) and is emitted exactly there — exactly once.  Inside a
    bucket, partners are a contiguous sorted-value window found by
    binary search, so cost is output-linear; a degenerate value
    distribution (everything within delta) is inherently quadratic in
    its output.  Returns (u, v, d, vmin) with u < v by id.

    The naive SQL BETWEEN form of this join nested-loops (measured
    minutes at sf0.1); the oracle must use the same bucket-replication
    rewrite (see SQL_ORDERS_PRICE_TWINS)."""
    from kgray.util import grouped_map

    def rep(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch[id_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        c = pc.cast(batch[value_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        nb = c // delta
        return pa.table({
            "k": pa.array(np.concatenate([k, k])),
            "c": pa.array(np.concatenate([c, c])),
            "nb": pa.array(np.concatenate([nb, nb])),
            "g": pa.array(np.concatenate([nb, nb + 1])),
        })

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        # NO per-g loop (buckets are width-delta, so a coarse hash
        # bucket holds thousands of tiny g-groups — the per-tiny-group
        # pathology): encode E = g*(4*delta) + (c - (g-1)*delta),
        # order-consistent with (g, c) and gap > delta between
        # g-groups, so one global sorted searchsorted window finds
        # same-g partners for every row at once
        s = df.sort_values(["g", "c", "k"], kind="mergesort")
        g = s["g"].to_numpy(np.int64)
        c = s["c"].to_numpy(np.int64)
        k = s["k"].to_numpy(np.int64)
        nb = s["nb"].to_numpy(np.int64)
        E = g * (4 * delta) + (c - (g - 1) * delta)
        hi = np.searchsorted(E, E + delta, side="right")
        cnt = hi - np.arange(len(c)) - 1
        empty = pd.DataFrame({
            "u": pd.array([], dtype="int64"),
            "v": pd.array([], dtype="int64"),
            "d": pd.array([], dtype="int64"),
            "vmin": pd.array([], dtype="int64"),
        })
        tot = int(cnt.sum())
        if tot <= 0:
            return empty
        i = np.repeat(np.arange(len(c)), cnt)
        inc = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        j = i + 1 + inc
        keep = np.maximum(nb[i], nb[j]) == g[i]
        i, j = i[keep], j[keep]
        if not len(i):
            return empty
        return pd.DataFrame({
            "u": np.minimum(k[i], k[j]),
            "v": np.maximum(k[i], k[j]),
            "d": c[j] - c[i],
            "vmin": c[i],
        })

    tagged = ds.map_batches(rep, batch_format="pyarrow")
    return grouped_map(tagged, "g", bucket)


def range_join_broadcast(ds, bounds, value_col: str, band_col: str = "band"):
    """Broadcast range (non-equi) join: assign every row to the band whose
    [lo, hi) interval contains ``value_col``.

    ``bounds`` is a SMALL sorted list of band edges [e0, e1, ..., ek]
    defining k bands; it ships once via the object store and every batch
    does ONE vectorized ``np.searchsorted`` — the scale shape for banded
    non-equi joins (broadcast the interval table, binary-search per row;
    never an all-to-all).  Rows outside [e0, ek) get band -1.
    """
    import ray

    edges = np.asarray(sorted(bounds), np.float64)
    ref = ray.put(edges)

    def assign(batch: pa.Table) -> pa.Table:
        e = ray.get(ref)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        band = np.searchsorted(e, v, side="right") - 1
        band[(band < 0) | (band >= len(e) - 1)] = -1
        return batch.append_column(band_col, pa.array(band.astype(np.int64)))

    return ds.map_batches(assign, batch_format="pyarrow")


def table_diff(left, right, on, compare_cols: list[str],
               num_buckets: int = 32):
    """Data reconciliation between two snapshots of a keyed table:
    counts of added / removed / changed / unchanged keys.

    Each side collapses to (key, row-fingerprint) in a stateless map
    (pandas' vectorized 64-bit row hash over ``compare_cols`` — a 2^-64
    per-pair collision would miscount a changed row as unchanged;
    deterministic, documented, negligible), then ONE full-outer bucket
    cogroup on the key classifies every key, and per-batch status
    partials fold in a tiny Sum groupby.  The shuffle moves one
    (key, fp) row per input row — never the payload columns.
    """
    import pandas as pd

    from ray.data.aggregate import Sum

    on_keys = [on] if isinstance(on, str) else list(on)

    def fp(side: str):
        def apply(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            h = pd.util.hash_pandas_object(
                df[compare_cols], index=False
            ).to_numpy()
            out = {k: batch[k] for k in on_keys}
            # int64 view keeps the Arrow schema simple; hash equality is
            # preserved bijectively
            out[f"fp_{side}"] = pa.array(
                h.view(np.int64), pa.int64()
            )
            return pa.table(out)

        return apply

    l_fp = left.map_batches(fp("l"), batch_format="pyarrow")
    r_fp = right.map_batches(fp("r"), batch_format="pyarrow")
    joined = bucket_join(
        l_fp, r_fp, on=on_keys, how="outer", num_buckets=num_buckets
    )

    def classify(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        lv, rv = df["fp_l"], df["fp_r"]
        status = np.where(
            lv.isna(), "added",
            np.where(
                rv.isna(), "removed",
                np.where(lv.eq(rv), "unchanged", "changed"),
            ),
        )
        g = (
            pd.Series(status)
            .value_counts()
            .rename_axis("status")
            .reset_index(name="n")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        joined.map_batches(classify, batch_format="pyarrow")
        .groupby("status")
        .aggregate(Sum("n", alias_name="n"))
    )


def salted_bucket_join(left, right, on, salt_col: str, salt: int = 8,
                       right_on=None, how: str = "left",
                       num_buckets: int = 32, right_suffix: str = "_r"):
    """Skew-defused partitioned join: when one hot key carries a large
    fraction of the LEFT side, a plain hash join lands all of it in one
    bucket (one straggling reducer).  Here every left row gets a
    deterministic per-row salt (hash of ``salt_col`` mod ``salt``) and
    the RIGHT side replicates each row ``salt`` times — the join runs
    on the composite (key, salt) via ``bucket_join``'s multi-key path,
    spreading the hot key over ``salt`` buckets.  Replication costs
    salt x |right|: use for skewed-big-left x modest-right (tiny rights
    should broadcast; balanced keys need no salt).  Results are
    identical to the unsalted join because each left row matches
    exactly its own salt replica (test-pinned)."""
    from kgray.util import bucket_of

    on_keys = [on] if isinstance(on, str) else list(on)
    if right_on is None:
        r_keys = list(on_keys)
    else:
        r_keys = [right_on] if isinstance(right_on, str) else list(right_on)

    def salt_left(batch: pa.Table) -> pa.Table:
        s = bucket_of(batch[salt_col], salt)
        return batch.append_column("_salt", pa.array(s, pa.int64()))

    def rep_right(batch: pa.Table) -> pa.Table:
        n = len(batch)
        rep = batch.take(pa.array(np.repeat(np.arange(n), salt)))
        sal = np.tile(np.arange(salt, dtype=np.int64), n)
        return rep.append_column("_salt", pa.array(sal, pa.int64()))

    joined = bucket_join(
        left.map_batches(salt_left, batch_format="pyarrow"),
        right.map_batches(rep_right, batch_format="pyarrow"),
        on=[*on_keys, "_salt"],
        right_on=[*r_keys, "_salt"],
        how=how,
        num_buckets=num_buckets,
        right_suffix=right_suffix,
    )

    def drop_salt(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["_salt"])

    return joined.map_batches(drop_salt, batch_format="pyarrow")


def skew_join(left, right, on, right_on=None, how: str = "inner",
              hot_share: float = 0.05, max_hot_keys: int = 64,
              num_buckets: int = 32, right_suffix: str = "_r"):
    """Skew-AUTO-defused join: detect hot left keys, route them around
    the shuffle, bucket-join the rest.

    ``salted_bucket_join`` needs the caller to know the skew exists and
    pick a salt; this wrapper measures it.  Detection is one light
    census pass over the left: each batch emits its top-32 key counts
    (metadata-scale rows), the driver folds them, and keys whose
    estimated share exceeds ``hot_share`` become the hot set H (capped
    at ``max_hot_keys``).  Detection can only UNDER-estimate a key that
    never makes a batch's top-32 — a missed marginal key simply rides
    the normal join path, so correctness never depends on the census
    (equality with plain bucket_join is test-pinned).

    Routing: the right's rows for H collect once and broadcast (this
    wrapper targets skewed-big-left x key-bounded-right — a dimension
    or aggregate side; a hot key on a fat right side needs
    ``salted_bucket_join`` instead); hot left rows join against the
    broadcast with zero shuffle, cold rows take the plain bucket join,
    and the union preserves ``how`` ('inner' or 'left') because the two
    row classes partition the left exactly."""
    assert how in ("inner", "left"), "skew_join supports inner/left"
    on_keys = [on] if isinstance(on, str) else list(on)
    assert len(on_keys) == 1, "skew_join detects skew on a single key"
    key = on_keys[0]
    rkey = right_on or key

    left = left.materialize()  # census + two routed passes read it

    def census(batch: pa.Table) -> pa.Table:
        vc = pd.Series(batch[key].to_pandas()).value_counts().head(32)
        return pa.table({
            "k": pa.array(vc.index),
            "n": pa.array(vc.to_numpy(np.int64)),
        })

    cen = collect_table(left.map_batches(census, batch_format="pyarrow"))
    hot_set = set()
    if cen.num_rows:
        est = cen.to_pandas().groupby("k", sort=False)["n"].sum()
        hot = est[est >= max(1, int(hot_share * left.count()))]
        hot = hot.sort_values(ascending=False).head(max_hot_keys)
        hot_set = set(hot.index.tolist())

    if not hot_set:
        return bucket_join(left, right, on=key, right_on=rkey, how=how,
                           num_buckets=num_buckets,
                           right_suffix=right_suffix)

    doomed = pa.array(list(hot_set))

    def is_hot(batch: pa.Table, invert: bool) -> pa.Table:
        m = pc.is_in(batch[key], value_set=doomed.cast(batch[key].type))
        return batch.filter(pc.invert(m) if invert else m)

    right = right.materialize()

    def right_hot_rows(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch[rkey], value_set=doomed.cast(batch[rkey].type))
        return batch.filter(m)

    r_hot = collect_table(right.map_batches(right_hot_rows,
                                            batch_format="pyarrow"))
    if not r_hot.num_columns:
        # a right side with no rows maps to no blocks and no schema
        r_hot = collect_table(right)
    hot_joined = broadcast_join(
        left.map_batches(lambda b: is_hot(b, False),
                         batch_format="pyarrow"),
        r_hot, on=key, right_on=rkey, how=how,
        right_suffix=right_suffix)
    cold_joined = bucket_join(
        left.map_batches(lambda b: is_hot(b, True),
                         batch_format="pyarrow"),
        right, on=key, right_on=rkey, how=how,
        num_buckets=num_buckets, right_suffix=right_suffix)
    # broadcast_join's column order is bucket_join's
    cols = hot_joined.schema().names
    return hot_joined.union(cold_joined.select_columns(cols))
