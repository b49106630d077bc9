"""Small Dataset utilities shared across ops."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def force_distributed() -> bool:
    """True when ``KGRAY_FORCE_DISTRIBUTED`` is set (and not "0"): every
    small-side gate in the engine collapses to 0 so the DISTRIBUTED
    fallback path always runs — the CI mode that oracle-checks the
    100-TB code paths end-to-end instead of only via paths-agree unit
    tests (``scripts/check_correctness.py --forced``)."""
    import os

    return os.environ.get("KGRAY_FORCE_DISTRIBUTED", "") not in ("", "0")


def fits_small(ds, *, max_rows=None, max_bytes=None) -> bool:
    """The engine's one small-side decision: True when ``ds`` is at or
    under every given threshold (``max_rows`` against ``ds.count()``,
    ``max_bytes`` against ``ds.size_bytes()``; an unknown size never
    fits).  Under KGRAY_FORCE_DISTRIBUTED every threshold collapses to
    0, so only an empty input fits and the partitioned path runs.  The
    thresholds are module constants next to each op, never op
    parameters.  Sites that gate one Dataset but collect a projection of
    it call this directly; everything else goes through
    ``collect_small``."""
    if force_distributed():
        max_rows = None if max_rows is None else 0
        max_bytes = None if max_bytes is None else 0
    if max_bytes is not None:
        est = ds.size_bytes()
        if est is None or est > max_bytes:
            return False
    return max_rows is None or ds.count() <= max_rows


def collect_table(ds) -> pa.Table:
    """All rows of ``ds`` as ONE Arrow table on the driver: the
    non-empty blocks concatenated (null-typed columns promote to the
    typed twin), else a 0-row table that keeps the schema.  Unbounded:
    callers gate first (``fits_small``/``collect_small``) or collect a
    side that is small by construction."""
    import ray

    parts = ray.get(list(ds.to_arrow_refs()))
    if not parts:
        return schema_table(ds.schema())
    return pa.concat_tables([p for p in parts if p.num_rows] or parts,
                            promote_options="default")


def collect_small(ds, *, max_rows=None, max_bytes=None) -> pa.Table | None:
    """``collect_table(ds)`` when ``ds`` fits the small-side gate
    (``fits_small``), else None: the caller then takes its partitioned
    path.  Pass a materialized Dataset, or the gate's count and the
    collect each run the input."""
    if not fits_small(ds, max_rows=max_rows, max_bytes=max_bytes):
        return None
    return collect_table(ds)


def empty_table(**cols) -> pa.Table:
    """The 0-row result table with the given column types."""
    return pa.table({c: pa.array([], t) for c, t in cols.items()})


def round_half_up(x, digits: int = 4):
    """Round half-away-from-zero, matching SQL ROUND (numpy/python round
    is half-even and flips x.xxx5 boundary values vs DuckDB)."""
    scale = 10.0 ** digits
    arr = np.asarray(x, np.float64)
    return np.sign(arr) * np.floor(np.abs(arr) * scale + 0.5) / scale


def bucket_of(col, num_buckets: int) -> np.ndarray:
    """Deterministic hash buckets for an Arrow column (int: Fibonacci
    multiplicative hash; other types: pandas' vectorized siphash —
    cross-process deterministic, so every map task sends a key to the
    same bucket).  Runs on every row entering a cogroup/bucket-join
    shuffle: must never be a per-row python loop."""
    import pandas as pd

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        # unsigned keys (e.g. rolling-hash windows) overflow an int64
        # cast; both lanes land in the same uint64 domain either way
        wide = pa.uint64() if pa.types.is_unsigned_integer(col.type) \
            else pa.int64()
        k = col.cast(wide).to_numpy(zero_copy_only=False).astype(np.uint64)
        return ((k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)).astype(
            np.int64
        ) % num_buckets
    h = pd.util.hash_pandas_object(col.to_pandas(), index=False).to_numpy()
    return (h % np.uint64(num_buckets)).astype(np.int64)


def bucket_of_multi(batch: pa.Table, key_cols: list[str],
                    num_buckets: int) -> np.ndarray:
    """Composite-key hash buckets: pandas' vectorized row hash over the
    normalized key columns (ints widened to int64 so an int32 key on one
    join side lands in the same bucket as its int64 twin).  Same
    cross-process-determinism contract as ``bucket_of``."""
    import pandas as pd

    norm = {}
    for c in key_cols:
        col = batch[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_integer(col.type):
            col = col.cast(pa.int64())
        norm[c] = col.to_pandas()
    h = pd.util.hash_pandas_object(
        pd.DataFrame(norm), index=False
    ).to_numpy()
    return (h % np.uint64(num_buckets)).astype(np.int64)


def default_num_buckets() -> int:
    """Shuffle-parallelism default: one bucket per cluster CPU, floor 32.
    A fixed 32 caps shuffle parallelism at 32 workers AND makes bucket
    size grow linearly with data on a bigger cluster — scaling with
    cluster width keeps one bucket ~one worker's heap as nodes are added.
    (Not 2x CPUs: each extra bucket adds all-to-all fixed cost, measured
    +18% suite wall at 32 cpus/sf0.1 for zero tiny-scale benefit.)"""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 16)) if (
            ray.is_initialized()
        ) else 16
    except Exception:
        cpus = 16
    return max(32, cpus)


# bundle target for the bucket shuffle's tiny-block coalescing: small
# enough that a bundle of KB-scale text rows stays well under a worker's
# heap (16384 x 4 KB = 64 MB), large enough to collapse tiny-block storms
_COALESCE_BATCH_ROWS = 16384


def _bucket_ids(batch: pa.Table, keys: list[str],
                num_buckets: int) -> np.ndarray:
    """The bucket of every row: ``bucket_of`` for one key column,
    ``bucket_of_multi`` for a composite key (both widen ints, so an
    int32 key meets its int64 twin)."""
    if len(keys) == 1:
        return bucket_of(batch[keys[0]], num_buckets)
    return bucket_of_multi(batch, keys, num_buckets)


def _bucket_shuffle(sides, num_buckets: int, coalesce: bool = True):
    """The engine's one hash shuffle, under ``grouped_map`` and
    ``cogroup``: each ``(ds, tag)`` side maps through ``tag`` (which
    adds the int ``__bucket`` column), the sides union, and ONE groupby
    on ``__bucket`` follows; the caller runs ``map_groups`` on it.

    Tiny blocks coalesce first: the sort barrier's fixed cost scales
    with map_blocks x reduce_partitions (measured: 6.8s -> sub-second on
    64-tiny-block inputs).  Done by BUNDLING the tag map (batch_size
    merges adjacent small blocks inside the streaming executor: 256 tiny
    blocks -> 4, zero extra stage) — NOT by repartition(), a second
    all-to-all that also materializes the whole input before the sort's
    own shuffle.  When every side is materialized and their blocks
    number at most ``num_buckets`` the bundling is skipped (an iterative
    loop re-consuming coarse materialized outputs keeps one batch per
    block); ``num_blocks()`` raises on a lazy side, which keeps
    ``coalesce``."""
    if coalesce:
        try:
            coalesce = sum(ds.num_blocks() for ds, _ in sides) > num_buckets
        except Exception:
            pass
    kw = {"batch_size": _COALESCE_BATCH_ROWS} if coalesce else {}
    tagged = [ds.map_batches(tag, batch_format="pyarrow", **kw)
              for ds, tag in sides]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return both.groupby("__bucket")


def _as_arrow(out):
    """``fn``'s result as an Arrow block: any downstream sort/groupby
    over pandas blocks is ~12x slower (measured 7.6s vs 0.6s on a
    14k-row aggregate).  The pandas schema metadata is stripped: its
    dict payload makes the schema unhashable and Ray's block-schema
    dedup then warns "Failed to hash the schemas" on every block."""
    import pandas as pd

    if isinstance(out, pd.DataFrame):
        return pa.Table.from_pandas(
            out, preserve_index=False).replace_schema_metadata(None)
    return out


def grouped_map(ds, key: str, fn, num_buckets: int | None = None,
                coalesce: bool = True):
    """Coarse-bucket groupby: hash ``key`` into ``num_buckets`` buckets,
    ONE shuffle on the bucket (``_bucket_shuffle``), and ``fn`` (pandas
    DataFrame -> pandas DataFrame) applied once per BUCKET — the caller
    vectorizes its own per-key grouping inside (``df.groupby(key)`` in
    C).  Two inputs meet through ``cogroup``, never a union into this.

    Rationale: ``Dataset.groupby(key).map_groups`` pays per-group python +
    block-conversion overhead; with 10^4+ tiny groups (shingles, band
    keys, graph nodes) that dominates wall time by 100x.  All rows of a
    key land in one bucket, so any per-key computation stays correct;
    ``num_buckets`` is the parallelism/skew knob (same sizing rule as a
    partitioned join) and defaults to ``default_num_buckets()`` (scales
    with cluster CPUs).  ``coalesce=False`` keeps one batch per input
    block (see ``_bucket_shuffle``).
    """
    n = num_buckets or default_num_buckets()

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", pa.array(bucket_of(batch[key], n)))

    def apply(g):
        return _as_arrow(fn(g.drop(columns="__bucket")))

    return _bucket_shuffle([(ds, tag)], n, coalesce).map_groups(
        apply, batch_format="pandas")


def cogroup(left, right, on, right_on, fn, num_buckets: int | None = None):
    """Two-input bucket cogroup, the one way two Datasets meet in a hash
    bucket (joins, count attaches, paired evaluations): hash ``on`` of
    ``left`` and ``right_on`` of ``right`` (a column name or a list of
    them, same arity) into ``num_buckets`` buckets (default
    ``default_num_buckets()``), ONE shuffle (``_bucket_shuffle``), and
    ``fn(l: pa.Table, r: pa.Table)`` once per bucket; it returns a table
    or a pandas frame.

    Each side reaches ``fn`` with its own column names and types: the
    tag map splits every batch by bucket and ships each slice as one
    Arrow IPC stream, so nothing is renamed, null-padded or re-typed on
    the way.  A side with no rows in a bucket arrives as a typed 0-row
    table (every batch ships a slice, maybe empty, to every bucket).  A
    side with no rows at all arrives as the 0-row table of the schema
    Ray knows without running it (e.g. a materialized Dataset), else
    with no columns: fetching it would run the side's upstream an extra
    time, so a caller whose output must carry that side's columns
    fetches them itself (``bucket_join``, ``asof_join``).
    Keys hash by ``bucket_of``/``bucket_of_multi``, so an int32 key
    meets its int64 twin.  One key's rows must fit a bucket (salt a
    skewed key before calling)."""
    n = num_buckets or default_num_buckets()
    keys = [[k] if isinstance(k, str) else list(k) for k in (on, right_on)]
    if len(keys[0]) != len(keys[1]):
        raise ValueError("on and right_on must have the same arity")
    empty = [schema_table(ds.schema(fetch_if_missing=False))
             for ds in (left, right)]

    def tag(side: int):
        def apply(batch: pa.Table) -> pa.Table:
            batch = batch.replace_schema_metadata(None)
            b = _bucket_ids(batch, keys[side], n)
            rows = batch.take(pa.array(np.argsort(b, kind="stable")))
            ends = np.cumsum(np.bincount(b, minlength=n))
            sink, offs = pa.BufferOutputStream(), [0]
            for i in range(n):
                lo = ends[i - 1] if i else 0
                with pa.ipc.new_stream(sink, rows.schema) as w:
                    w.write_table(rows.slice(lo, ends[i] - lo))
                offs.append(sink.tell())
            blobs = pa.LargeBinaryArray.from_buffers(
                pa.large_binary(), n,
                [None, pa.py_buffer(np.asarray(offs, np.int64)),
                 sink.getvalue()])
            return pa.table({
                "__bucket": pa.array(np.arange(n, dtype=np.int64)),
                "__side": pa.array(np.full(n, side, np.int8)),
                "__rows": blobs,
            })

        return apply

    def apply(g: pa.Table):
        parts = ([], [])
        blobs = g["__rows"].combine_chunks()
        for i, s in enumerate(g["__side"].to_numpy()):
            parts[s].append(pa.ipc.open_stream(blobs[i].as_buffer()).read_all())
        l, r = (pa.concat_tables(p, promote_options="permissive") if p
                else empty[s] for s, p in enumerate(parts))
        return _as_arrow(fn(l, r))

    return _bucket_shuffle([(left, tag(0)), (right, tag(1))], n).map_groups(
        apply, batch_format="pyarrow")


def schema_table(schema) -> pa.Table:
    """A Dataset schema (``Dataset.schema()``, maybe None) as a 0-row
    Arrow table; None gives a table with no columns."""
    if schema is None:
        return pa.table({})
    base = getattr(schema, "base_schema", schema)
    if isinstance(base, pa.Schema):
        return base.empty_table()
    # pandas blocks: Ray reports a column it cannot type (object dtype)
    # as a python type
    return pa.schema([(c, t if isinstance(t, pa.DataType) else pa.string())
                      for c, t in zip(schema.names, schema.types)]).empty_table()


def pairs_within_groups(df, key: str, val: str, max_block: int,
                        dtype: str = "int64", key_out: str | None = None,
                        anchors=None):
    """All unordered pairs (u < v) of distinct ``val`` within each ``key``
    group of ``df`` — the inner kernel for LSH-block / shingle-block pair
    generation.  Groups larger than ``max_block`` are skipped (degenerate
    blocks).  Returns a DataFrame (u, v) with ``dtype`` columns; when
    ``key_out`` is set a third column carries each pair's group key (the
    wedge CENTER for per-node triangle counting).

    ``anchors`` (a set of ``val`` values): only pairs with at least one
    endpoint in the set are ENUMERATED — each anchor row expands against
    the other members of its own group, an anchor-anchor pair once — so
    cost tracks the anchors' groups, not every group (append-mode
    linking: pairs touching a first-seen mention key).

    One vectorized pass, no Python loop over groups: (key, val) codes
    are sorted so each group is a contiguous segment with its values
    ascending (groups in first-appearance order, as ``groupby(sort=
    False)``), segment offsets come from ``np.diff``, and pairs expand
    by ``np.repeat`` over those offsets; cost tracks emitted pairs.
    """
    import pandas as pd

    sub = df[[key, val]].drop_duplicates()
    kc, kuniq = pd.factorize(sub[key], sort=False)
    # values by sorted code, so position order within a segment is value
    # order (u < v); NaN gets a code too (no -1 sentinel to mis-index)
    vc, vuniq = pd.factorize(sub[val], sort=True, use_na_sentinel=False)
    live = kc >= 0  # null keys form no group (groupby's dropna)
    kc, vc = kc[live], vc[live]
    order = np.lexsort((vc, kc))
    kc, vc = kc[order], vc[order]
    starts = np.flatnonzero(np.diff(kc, prepend=-1))
    sizes = np.diff(starts, append=len(kc))
    ok = (sizes >= 2) & (sizes <= max_block)
    starts, sizes = starts[ok], sizes[ok]
    # one row per member of a kept segment: its segment and position
    seg = np.repeat(np.arange(len(starts)), sizes)
    pos = starts[seg] + _run_offsets(sizes)
    if anchors is None:
        # each member pairs with the members after it in its segment
        after = starts[seg] + sizes[seg] - 1 - pos
        up = np.repeat(pos, after)
        vp = up + 1 + _run_offsets(after)
    else:
        is_anchor = pd.Index(vuniq).isin(anchors)[vc]
        seg, ap = seg[is_anchor[pos]], pos[is_anchor[pos]]
        # an anchor pairs with every other member of its segment
        # (size - 1 rows, skipping itself); anchor-anchor pairs once
        n = sizes[seg] - 1
        ap = np.repeat(ap, n)
        other = np.repeat(starts[seg], n) + _run_offsets(n)
        other += other >= ap
        keep = ~is_anchor[other] | (other > ap)
        ap, other = ap[keep], other[keep]
        up, vp = np.minimum(ap, other), np.maximum(ap, other)
        # the full kernel's row order: by (u, v) position
        o = np.lexsort((vp, up))
        up, vp = up[o], vp[o]
    if len(up):
        vals = np.asarray(vuniq)
        out = pd.DataFrame(
            {
                "u": pd.array(vals[vc[up]], dtype=dtype),
                "v": pd.array(vals[vc[vp]], dtype=dtype),
            }
        )
        if key_out is not None:
            out[key_out] = np.asarray(kuniq)[kc[up]]
        return out
    out = pd.DataFrame(
        {"u": pd.array([], dtype=dtype), "v": pd.array([], dtype=dtype)}
    )
    if key_out is not None:
        out[key_out] = np.array([], dtype=df[key].dtype)
    return out


def _run_offsets(counts: np.ndarray) -> np.ndarray:
    """0..c-1 for each c in ``counts``, concatenated."""
    total = int(counts.sum())
    return np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)


def rename_cols(ds, mapping: dict[str, str]):
    """Rename columns via a pyarrow map_batches.

    ``Dataset.rename_columns`` projects over raw blocks and breaks when a
    block is pandas (e.g. downstream of ``map_groups(batch_format=
    "pandas")``); forcing Arrow batches here is shape-safe everywhere.
    """

    def apply(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [mapping.get(c, c) for c in batch.column_names]
        )

    return ds.map_batches(apply, batch_format="pyarrow")
