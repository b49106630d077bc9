"""Join strategies: broadcast small-side join and partitioned hash join.

The reference's only joins are line-aligned zip joins and tiny dict
lookups (SURVEY.md §2.4 J1-J2); at 100 TB those become either a broadcast
(`ray.put` once, read per task: ``broadcast_join``) or an all-to-all
bucketed hash join (``bucket_join``), so every caller states its choice
explicitly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from kgray.util import collect_table, fits_small


def bucket_join(
    left,
    right,
    on: str | list[str],
    right_on: str | list[str] | None = None,
    how: str = "left",
    num_buckets: int = 32,
    right_suffix: str = "_r",
):
    """Explicit partitioned hash join: bucket both sides by key hash,
    cogroup via ONE groupby shuffle, Arrow-join inside each bucket.

    The portable pattern from the Ray Data guide — used where
    ``Dataset.join`` is fragile (its hash-shuffle builds a zero-column
    left table for left-empty partitions, which Arrow's acero join
    rejects).  Everything stays Arrow end-to-end: widening uses TYPED
    nulls and the in-bucket join is ``pa.Table.join``, so int64 keys
    never get floatified by pandas-null coercion (which would corrupt
    the bucket hash of a chained join).  ``num_buckets`` is the shuffle
    fan-out: size so one bucket (both sides) fits a worker's heap; salt
    skewed keys before calling.

    ``on`` / ``right_on`` accept a list for composite keys: the bucket
    hash combines the normalized key columns row-wise (ints widened to
    int64 first, so an int32 left key meets an int64 right key in the
    same bucket), and the in-bucket Arrow join runs on the full key
    tuple — no caller-side key concatenation needed.
    """

    import pyarrow.compute as pc

    on_keys = [on] if isinstance(on, str) else list(on)
    if right_on is None:
        r_keys = list(on_keys)
    else:
        r_keys = [right_on] if isinstance(right_on, str) else list(right_on)
    if len(on_keys) != len(r_keys):
        raise ValueError("on and right_on must have the same arity")
    on = on_keys[0]
    right_on = r_keys[0]

    l_schema, r_schema = left.schema(), right.schema()
    if l_schema is None and how in ("inner", "left", "left_outer"):
        # a left side with no rows reports no schema: it joins to no rows
        return left
    left_cols = l_schema.names
    right_cols = r_schema.names
    dunder = [c for c in (*left_cols, *right_cols)
              if c.startswith("__") and c not in ("__bucket", "__side")]
    if dunder:
        # "__" is the internal-column namespace silently stripped from
        # the in-bucket join — a payload column there would vanish from
        # the output (bit table_diff's first draft); fail loudly instead
        raise ValueError(
            f"bucket_join reserves '__'-prefixed columns; rename {dunder}"
        )
    same_named = {r for l, r in zip(on_keys, r_keys) if l == r}
    clash = (set(left_cols) & set(right_cols)) - same_named
    ren = {c: c + right_suffix for c in clash}

    def _pa_type(t) -> pa.DataType:
        # Dataset.schema() reports python types for non-Arrow blocks
        if isinstance(t, pa.DataType):
            return t
        return {
            str: pa.string(), int: pa.int64(), float: pa.float64(),
            bool: pa.bool_(), bytes: pa.binary(),
        }.get(t, pa.string())

    col_types: dict[str, pa.DataType] = {}
    for n, t in zip(l_schema.names, l_schema.types):
        col_types[n] = _pa_type(t)
    for n, t in zip(r_schema.names, r_schema.types):
        col_types[ren.get(n, n)] = _pa_type(t)
    # key dtypes must agree across sides for the in-bucket Arrow join:
    # widen integer key pairs to int64 (the tag pass casts to col_types)
    for lk, rk in zip(on_keys, [ren.get(k, k) for k in r_keys]):
        lt, rt = col_types.get(lk), col_types.get(rk)
        if lt != rt and pa.types.is_integer(lt) and pa.types.is_integer(rt):
            col_types[lk] = col_types[rk] = pa.int64()

    def tag(side: int, key_cols: list[str], rename: dict[str, str]):
        from kgray.util import bucket_of, bucket_of_multi

        def apply(batch: pa.Table) -> pa.Table:
            if rename:
                batch = batch.rename_columns(
                    [rename.get(c, c) for c in batch.column_names]
                )
            # normalize physical types to the declared schema (pandas-block
            # upstreams can report widened types)
            for c in batch.column_names:
                want = col_types.get(c)
                if want is not None and batch.schema.field(c).type != want:
                    i = batch.column_names.index(c)
                    batch = batch.set_column(i, c, batch[c].cast(want))
            eff = [rename.get(k, k) for k in key_cols]
            if len(eff) == 1:
                bucket = bucket_of(batch[eff[0]], num_buckets)
            else:
                bucket = bucket_of_multi(batch, eff, num_buckets)
            return batch.append_column("__bucket", pa.array(bucket)).append_column(
                "__side", pa.array(np.full(len(batch), side, np.int8))
            )

        return apply

    l_tagged = left.map_batches(tag(0, on_keys, {}), batch_format="pyarrow")
    r_tagged = right.map_batches(tag(1, r_keys, ren), batch_format="pyarrow")

    l_names = [*left_cols, "__bucket", "__side"]
    r_names = [*(ren.get(c, c) for c in right_cols), "__bucket", "__side"]
    all_names = list(dict.fromkeys([*l_names, *r_names]))

    def widen(names_present):
        missing = [c for c in all_names if c not in names_present]

        def apply(batch: pa.Table) -> pa.Table:
            for c in missing:
                batch = batch.append_column(
                    c, pa.nulls(len(batch), col_types.get(c, pa.string()))
                )
            return batch.select(all_names)

        return apply

    # bundle tiny upstream blocks into the widen map (same rationale as
    # util.grouped_map: the cogroup sort's fixed cost scales with input
    # block count; batch_size merges adjacent small blocks inside the
    # streaming executor with no extra stage and no barrier)
    from kgray.util import _COALESCE_BATCH_ROWS

    l_wide = l_tagged.map_batches(widen(l_names), batch_format="pyarrow",
                                  batch_size=_COALESCE_BATCH_ROWS)
    r_wide = r_tagged.map_batches(widen(r_names), batch_format="pyarrow",
                                  batch_size=_COALESCE_BATCH_ROWS)

    r_keys_eff = [ren.get(k, k) for k in r_keys]
    drop_keys = {
        r for l, r in zip(on_keys, r_keys_eff) if r != l
    }
    out_cols = [c for c in all_names if c not in ("__bucket", "__side")]
    out_cols = [c for c in out_cols if c not in drop_keys]
    arrow_how = {
        "left": "left outer", "left_outer": "left outer",
        "right": "right outer", "right_outer": "right outer",
        "inner": "inner", "outer": "full outer", "full_outer": "full outer",
    }[how]
    l_data = [c for c in l_names if not c.startswith("__")]
    r_data = [c for c in r_names if not c.startswith("__")]

    def merge(g: pa.Table) -> pa.Table:
        mask = pc.equal(g["__side"], 0)
        lp = g.filter(mask).select(l_data)
        rp = g.filter(pc.invert(mask)).select(r_data)
        m = lp.join(
            rp, keys=on_keys, right_keys=r_keys_eff, join_type=arrow_how
        )
        return m.select(out_cols).combine_chunks()

    return (
        l_wide.union(r_wide)
        .groupby("__bucket")
        .map_groups(merge, batch_format="pyarrow")
    )


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
    import pyarrow.compute as pc  # noqa: F401 (kept for callers)
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


def semi_join(left, right, on: str, right_on: str | None = None,
              anti: bool = False, bloom_bits: int | None = 1 << 24):
    """Semi (EXISTS) / anti (NOT EXISTS) join of ``left`` against the key
    set of ``right``.

    The right side reduces to its DISTINCT key column first (per-batch
    combiner -> one small groupby), so what broadcasts is a key set, not
    rows.  At or under ``MAX_BROADCAST_BYTES`` (estimated raw right
    size, 256 MB — a python set carries ~5-10x overhead per key, so this
    bounds the driver-resident set to low GBs worst case) the set ships
    via the object store and the filter runs inside map_batches with no
    shuffle — the right plan for dimension-sized key sets at any scale.
    Above it (or under KGRAY_FORCE_DISTRIBUTED), fall back to a bucket
    cogroup: both sides shuffle ONCE on the key hash and the membership
    test runs per bucket — but first, when ``bloom_bits`` is set (default
    2^24 = 2 MB broadcast), a distributed Bloom filter of the right keys
    pre-filters the left INSIDE map_batches: rows the filter rejects are
    definitively absent from the right (no false negatives), so only
    bloom-candidates pay the cogroup shuffle; false positives are
    corrected by that exact residual join, keeping results exact at any
    FP rate.  The anti path reads ``left`` twice (definite-keeps +
    candidates) — materialize an expensive upstream before calling, or
    pass ``bloom_bits=None``.
    """
    right_on = right_on or on
    keys_ds = right.map_batches(
        lambda b: pa.table({"__k": pc_unique(b[right_on])}),
        batch_format="pyarrow",
    )
    if fits_small(right, max_bytes=MAX_BROADCAST_BYTES):
        tbl = collect_table(keys_ds)
        keys = set(tbl["__k"].to_pylist()) if tbl.num_rows else set()
        return semi_join_filter(left, keys, on, keep=not anti)

    if bloom_bits:
        import ray

        from kgray.ops.bloom import bloom_mask, build_bloom

        words_ref = ray.put(build_bloom(keys_ds, "__k", n_bits=bloom_bits))

        def part(candidates: bool):
            def apply(batch: pa.Table) -> pa.Table:
                m = bloom_mask(batch[on], ray.get(words_ref))
                return batch.filter(pa.array(m if candidates else ~m))

            return apply

        cand = left.map_batches(part(True), batch_format="pyarrow")
        residual = _semi_cogroup(cand, keys_ds, on, anti)
        if not anti:
            return residual
        definite = left.map_batches(part(False), batch_format="pyarrow")
        return definite.union(residual)

    return _semi_cogroup(left, keys_ds, on, anti)


def _semi_cogroup(left, keys_ds, on: str, anti: bool):
    """Exact big-big semi/anti core: one bucket-cogroup left join against
    (distinct key, marker) rows, then keep/drop on marker presence —
    reuses bucket_join's typed-null widening so no schema drift."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    # per-batch unique is not globally unique: distinct first, or the
    # left join would duplicate left rows per surviving key copy
    distinct = keys_ds.groupby("__k").aggregate(Count(alias_name="__c"))
    marker = distinct.map_batches(
        lambda b: pa.table(
            {
                on: b["__k"],
                "_exists": pa.array(np.ones(len(b), np.int8)),
            }
        ),
        batch_format="pyarrow",
    )
    joined = bucket_join(left, marker, on=on, how="left")

    def finish(batch: pa.Table) -> pa.Table:
        present = pc.is_valid(batch["_exists"])
        mask = present if not anti else pc.invert(present)
        return batch.filter(mask).drop_columns(["_exists"])

    return joined.map_batches(finish, batch_format="pyarrow")


def pc_unique(col):
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.unique(col)


def semi_join_filter(ds, keys, key_col: str, keep: bool = True):
    """Semi/anti join against a broadcast key set (SURVEY.md guide
    pattern): filter inside map_batches, no shuffle.

    The key set ships as an Arrow array (denser than a python set in the
    object store) and the membership test is one ``pc.is_in`` kernel per
    batch — no per-row python."""
    import pyarrow.compute as pc
    import ray

    value_set = keys if isinstance(keys, pa.Array) else pa.array(list(keys))
    ref = ray.put(value_set)

    def apply(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        col = batch[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if len(ks) and ks.type != col.type:
            ks = ks.cast(col.type)
        mask = pc.is_in(col, value_set=ks)
        if not keep:
            mask = pc.invert(mask)
        return batch.filter(pc.fill_null(mask, False))

    return ds.map_batches(apply, batch_format="pyarrow")


def asof_join(left, right, key: str, time_col: str,
              right_time_col: str | None = None, suffix: str = "_r",
              allow_exact: bool = True):
    """As-of join (the brief's canonical missing-from-Ray-Data operator):
    for every left row, attach the LATEST right row of the same ``key``
    with right time <= left time (backward direction).

    Dataflow: both sides cogroup ONCE on hash(key) (all rows of a key
    colocate), and inside each bucket a single ``pandas.merge_asof(...,
    by=key)`` performs the per-key backward search fully vectorized —
    no per-key python.  Left rows with no prior right row carry nulls
    (left-outer semantics; filter on the matched column for inner).
    Partitioning assumption: one key's rows fit a bucket (same rule as
    every keyed cogroup here); skewed keys need salting by time range.
    """
    import pandas as pd

    from kgray.util import grouped_map

    rt = right_time_col or time_col
    left_cols = left.schema().names
    r_schema = right.schema()
    if r_schema is None:
        # schema-less empty right (e.g. a filter that dropped everything):
        # no right columns are even nameable — left passes through
        return left
    right_cols = r_schema.names
    clash = (set(left_cols) & set(right_cols)) - {key}
    ren = {c: c + suffix for c in clash}
    r_time_out = ren.get(rt, rt)

    def tag_left(b: pa.Table) -> pa.Table:
        return b.append_column("__side", pa.array(np.zeros(len(b), np.int8)))

    def tag_right(b: pa.Table) -> pa.Table:
        b = b.rename_columns([ren.get(c, c) for c in b.column_names])
        return b.append_column("__side", pa.array(np.ones(len(b), np.int8)))

    l_names = [*left_cols, "__side"]
    r_names = [*(ren.get(c, c) for c in right_cols), "__side"]
    all_names = list(dict.fromkeys([*l_names, *r_names]))

    l_schema, r_schema = left.schema(), right.schema()
    col_types: dict = {}
    for n, t in zip(l_schema.names, l_schema.types):
        col_types[n] = t if isinstance(t, pa.DataType) else pa.string()
    for n, t in zip(r_schema.names, r_schema.types):
        col_types[ren.get(n, n)] = t if isinstance(t, pa.DataType) else pa.string()

    def widen(present):
        missing = [c for c in all_names if c not in present]

        def apply(b: pa.Table) -> pa.Table:
            for c in missing:
                b = b.append_column(
                    c, pa.nulls(len(b), col_types.get(c, pa.string()))
                )
            return b.select(all_names)

        return apply

    both = left.map_batches(tag_left, batch_format="pyarrow").map_batches(
        widen(l_names), batch_format="pyarrow"
    ).union(
        right.map_batches(tag_right, batch_format="pyarrow").map_batches(
            widen(r_names), batch_format="pyarrow"
        )
    )

    l_data = [c for c in l_names if c != "__side"]
    r_data = [c for c in r_names if c != "__side"]

    def bucket_asof(df: pd.DataFrame) -> pd.DataFrame:
        lp = df.loc[df["__side"] == 0, l_data].sort_values(time_col)
        rp = df.loc[df["__side"] == 1, r_data].sort_values(r_time_out)
        if len(rp) == 0:
            out = lp.copy()
            for c in r_data:
                if c != key:
                    out[c] = pd.Series([None] * len(out), dtype=rp[c].dtype
                                       if c in rp else object)
            return out
        return pd.merge_asof(
            lp, rp, left_on=time_col, right_on=r_time_out, by=key,
            direction="backward", allow_exact_matches=allow_exact,
        )

    return grouped_map(both, key, bucket_asof)


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
    cogroup on hash(key); inside each bucket, per key the left
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
    import pandas as pd

    from kgray.util import grouped_map

    def tag(side: int, id_col: str):
        def apply(b: pa.Table) -> pa.Table:
            return pa.table({
                key: b[key],
                "__iid": pc.cast(b[id_col], pa.int64()),
                "__s": pc.cast(b[start_col], pa.int64()),
                "__e": pc.cast(b[end_col], pa.int64()),
                "__side": pa.array(np.full(len(b), side, np.int8)),
            })

        return apply

    both = left.map_batches(tag(0, l_id), batch_format="pyarrow").union(
        right.map_batches(tag(1, r_id), batch_format="pyarrow"))

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        side = df["__side"].to_numpy()
        outs = []
        for _, idx in df.groupby(key, sort=False).indices.items():
            li = idx[side[idx] == 0]
            ri = idx[side[idx] == 1]
            if not len(li) or not len(ri):
                continue
            ls = df["__s"].to_numpy()[li]
            order = np.argsort(ls, kind="mergesort")
            li = li[order]
            ls = ls[order]
            le = df["__e"].to_numpy()[li]
            lid = df["__iid"].to_numpy()[li]
            le_cm = np.maximum.accumulate(le)
            rs = df["__s"].to_numpy()[ri]
            re_ = df["__e"].to_numpy()[ri]
            rid = df["__iid"].to_numpy()[ri]
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
                key: df[key].to_numpy()[li][l_pos],
                "l_id": lid[l_pos], "r_id": rid[r_rep], overlap_col: ov,
            }))
        if not outs:
            return pd.DataFrame({
                key: pd.array([], dtype=df[key].dtype),
                "l_id": pd.array([], dtype="int64"),
                "r_id": pd.array([], dtype="int64"),
                overlap_col: pd.array([], dtype="int64"),
            })
        return pd.concat(outs, ignore_index=True)

    return grouped_map(both, key, bucket)


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
    import pyarrow.compute as pc

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

    cen = left.map_batches(census, batch_format="pyarrow").to_pandas()
    total = int(left.count())
    est = cen.groupby("k", sort=False)["n"].sum()
    hot = est[est >= max(1, int(hot_share * total))]
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

    r_hot = right.map_batches(right_hot_rows, batch_format="pyarrow")
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
    cols = sorted(hot_joined.schema().names)
    return hot_joined.select_columns(cols) \
        .union(cold_joined.select_columns(cols))
