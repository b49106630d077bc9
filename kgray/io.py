"""Partitioned, resumable table materialization with lineage manifests.

Replaces the reference's whole-file pickle hand-offs and mtime-based
checkpoint discovery (/root/reference/classification/dataset.py:79-103,
legacy produce_submit_json_file.py:6-24) with the north-rule contract:

* output = hash-partitioned parquet directory (``part=<i>/``), one
  partition per key-hash bucket — a failed run reruns only missing
  partitions, never one giant file;
* ``manifest.json`` per table: {partition: {rows, content_hash}} plus the
  stage name and input fingerprint — built by reading BACK what landed on
  disk, so the manifest attests the bytes, not the intent;
* resume = drop rows whose partition is already present and verified.

The manifest is the only truth: a read, a hygiene pass and a compaction
see exactly the files the manifest attests (``_attested_files``), never
what a directory walk finds.  A table without a manifest, or whose
manifest attests no file, reads as None.
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import uuid
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

PART_COL = "part"
MANIFEST = "manifest.json"
_MOD = (1 << 61) - 1


def partition_of(keys: list[str], num_partitions: int) -> np.ndarray:
    return np.fromiter(
        (zlib.crc32(str(k).encode()) % num_partitions for k in keys),
        np.int64,
        len(keys),
    )


def add_partition_column(ds, key_col: str, num_partitions: int):
    def tag(batch: pa.Table) -> pa.Table:
        if PART_COL in batch.column_names:  # re-reading partitioned parquet
            batch = batch.drop_columns([PART_COL])  # re-adds the hive column
        part = partition_of(batch[key_col].to_pylist(), num_partitions)
        return batch.append_column(PART_COL, pa.array(part))

    return ds.map_batches(tag, batch_format="pyarrow")


def _row_hashes(df: pd.DataFrame) -> np.ndarray:
    """Vectorized per-row content hash (uint64).  ``hash_pandas_object`` is
    a cython kernel over column buffers — no per-row python.  Exotic dtypes
    (nested lists) fall back to the string-join crc path."""
    try:
        return pd.util.hash_pandas_object(df, index=False).to_numpy()
    except TypeError:
        rows = df.astype(str).agg("\x1f".join, axis=1)
        return np.fromiter(
            (zlib.crc32(r.encode()) for r in rows), np.uint64, len(rows)
        )


def _hash_sum_mod(h: np.ndarray) -> int:
    """Exact (sum of uint64 row hashes) mod ``_MOD``: the 32-bit halves
    sum without wrapping below 2^32 rows, so the result does not depend
    on how the rows were split into files, batches or appends."""
    lo = int((h & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
    hi = int((h >> np.uint64(32)).sum(dtype=np.uint64))
    return ((hi << 32) + lo) % _MOD


def _zone_min_max(col, name: str):
    """(min, max) of a stats column as JSON-encodable scalars.

    Supported zone-map types: string / integer / float / bool, plus
    temporals (timestamp/date/time), which are cast to their underlying
    epoch integers — ``zone_filter`` bounds for temporal columns must
    therefore be given as integers in the column's own unit (e.g. epoch
    microseconds for ``timestamp[us]``).  Anything else (decimal,
    binary, nested) raises up front instead of failing with an opaque
    ``json.dumps`` TypeError inside the write task."""
    import pyarrow.compute as _pc

    t = col.type
    if (pa.types.is_timestamp(t) or pa.types.is_date(t)
            or pa.types.is_time(t)):
        col = col.cast(pa.int64())
    elif not (pa.types.is_integer(t) or pa.types.is_floating(t)
              or pa.types.is_boolean(t) or pa.types.is_string(t)
              or pa.types.is_large_string(t)):
        raise TypeError(
            f"stats_cols[{name!r}]: unsupported zone-map type {t} "
            "(supported: string/int/float/bool/temporal)"
        )
    return _pc.min(col).as_py(), _pc.max(col).as_py()


_STAT_SCHEMA = pa.schema(
    [
        ("part", pa.int64()),
        ("rows", pa.int64()),
        ("bytes", pa.int64()),
        ("content", pa.uint64()),
        ("file", pa.string()),
        ("schema", pa.string()),
    ]
)

# --- per-partition Bloom indexes (point-lookup file skipping) ------------
# Zone maps prune RANGE predicates when the write key clusters the column;
# they are useless for point lookups on a column the partitioning key does
# NOT determine (hash partitioning scatters every other column uniformly).
# A small per-partition Bloom filter over such a column answers "could key
# x be in this partition?" in the manifest, before any file opens — the
# delete_rows / forget-doc / entity-lookup access path.  Superset filter:
# false positives only cost an extra partition read; absent blooms never
# prune (the zone-map rule).

BLOOM_BITS = 1 << 15  # 4 KiB per (partition, column); ~3.5k keys at 3% FP
BLOOM_K = 4


def _bloom_slice_words(col, n_bits: int, k: int) -> np.ndarray:
    from kgray.ops.bloom import _norm, _probes
    from kgray.ops.sketch import _hash_column

    words = np.zeros(n_bits // 64, np.uint64)
    h = _hash_column(_norm(col))
    for pos in _probes(h, n_bits, k):
        np.bitwise_or.at(
            words, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )
    return words


def _bloom_b64(words: np.ndarray) -> str:
    return base64.b64encode(zlib.compress(words.tobytes(), 6)).decode()


def _bloom_words(s: str) -> np.ndarray:
    return np.frombuffer(zlib.decompress(base64.b64decode(s)), np.uint64)


def _bloom_may_contain(entry: dict, values) -> bool:
    """True iff this manifest bloom entry cannot rule out EVERY probe
    value (i.e. the partition must be read)."""
    from kgray.ops.bloom import _norm, bloom_mask

    words = _bloom_words(entry["z"])
    arr = _norm(pa.array(values))
    return bool(bloom_mask(arr, words, k=int(entry["k"])).any())


def _schema_b64(schema: pa.Schema) -> str:
    # strip schema/field metadata: Ray's parquet reader requires the
    # hand-in schema to equal the projected batch schemas EXACTLY, and
    # block provenance metadata (e.g. pandas) varies per writer task
    schema = pa.schema(
        [f.remove_metadata() for f in schema], metadata=None
    )
    return base64.b64encode(schema.serialize().to_pybytes()).decode()


def _schema_from_b64(s: str) -> pa.Schema:
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(s)))


class _WriteSlices:
    """Single-pass partitioned writer: each task writes its batch's
    partition slices to uuid-named parquet files under ``part=<p>/`` and
    emits one tiny stat row per (batch, partition) — rows, bytes, the
    slice's row-hash sum mod 2^61-1 (exact and commutative, so batch
    boundaries don't matter) and the file name.  The manifest lists
    exactly the files the surviving task attempts reported; a retried
    task's orphaned first attempt is never read (read_table reads
    manifest-attested files only) and is deleted by the next write's
    hygiene pass.

    Deployment note: ``data_dir`` is opened with plain ``open()`` from
    inside map_batches tasks, so every worker must see the same
    filesystem at that path (single node, or NFS/parallel FS on a real
    cluster).  For object-store deployments route the writes through
    ``pyarrow.fs`` URIs instead — the stat-row contract is unchanged."""

    def __init__(self, data_dir: str, stats_cols: tuple[str, ...] = (),
                 bloom_cols: tuple[str, ...] = ()):
        self.data_dir = data_dir
        self.stats_cols = tuple(stats_cols)
        self.bloom_cols = tuple(bloom_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        if len(batch) == 0:
            empty = _STAT_SCHEMA.empty_table()
            for c in self.stats_cols:
                empty = empty.append_column(
                    f"zmin_{c}", pa.array([], pa.string())
                ).append_column(f"zmax_{c}", pa.array([], pa.string()))
            for c in self.bloom_cols:
                empty = empty.append_column(
                    f"bf_{c}", pa.array([], pa.string()))
            return empty
        df = batch.to_pandas()
        parts = df.pop(PART_COL).to_numpy(np.int64)
        h = _row_hashes(df)
        tbl = batch.drop_columns([PART_COL])
        order = np.argsort(parts, kind="stable")
        sp = parts[order]
        bounds = np.flatnonzero(np.r_[True, sp[1:] != sp[:-1], True])
        out = {k: [] for k in ("part", "rows", "bytes", "content", "file")}
        zmins: dict[str, list] = {c: [] for c in self.stats_cols}
        zmaxs: dict[str, list] = {c: [] for c in self.stats_cols}
        blooms: dict[str, list] = {c: [] for c in self.bloom_cols}
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            p = int(sp[lo])
            idx = order[lo:hi]
            pdir = os.path.join(self.data_dir, f"{PART_COL}={p}")
            os.makedirs(pdir, exist_ok=True)
            fname = f"{uuid.uuid4().hex}.parquet"
            fpath = os.path.join(pdir, fname)
            slice_tbl = tbl.take(pa.array(idx))
            pq.write_table(slice_tbl, fpath)
            out["part"].append(p)
            out["rows"].append(hi - lo)
            out["bytes"].append(os.path.getsize(fpath))
            out["content"].append(_hash_sum_mod(h[idx]))
            out["file"].append(f"{PART_COL}={p}/{fname}")
            for c in self.stats_cols:
                lo_v, hi_v = _zone_min_max(slice_tbl[c], c)
                # JSON-encoded so the stat stream's schema is fixed
                # across value types (and empty batches)
                zmins[c].append(json.dumps(lo_v))
                zmaxs[c].append(json.dumps(hi_v))
            for c in self.bloom_cols:
                blooms[c].append(_bloom_b64(_bloom_slice_words(
                    slice_tbl[c], BLOOM_BITS, BLOOM_K)))
        sb64 = _schema_b64(tbl.schema)
        cols = {
            "part": pa.array(out["part"], pa.int64()),
            "rows": pa.array(out["rows"], pa.int64()),
            "bytes": pa.array(out["bytes"], pa.int64()),
            "content": pa.array(out["content"], pa.uint64()),
            "file": pa.array(out["file"], pa.string()),
            "schema": pa.array([sb64] * len(out["part"]), pa.string()),
        }
        for c in self.stats_cols:
            cols[f"zmin_{c}"] = pa.array(zmins[c], pa.string())
            cols[f"zmax_{c}"] = pa.array(zmaxs[c], pa.string())
        for c in self.bloom_cols:
            cols[f"bf_{c}"] = pa.array(blooms[c], pa.string())
        return pa.table(cols)


def _hygiene(data_dir: str, keep_manifest: dict | None, keep: set[int],
             protected: dict[int, set[str]] | None = None) -> None:
    """Delete on-disk data not attested by the kept manifest partitions:
    whole dirs for partitions being rewritten, unmanifested files (crashed
    or retried attempts) inside kept partitions.  Runs before every write
    so a resumed run can never re-append next to stale bytes (the round-1
    silent-duplication hazard).  A manifest entry without a ``files``
    list attests nothing and raises KeyError before anything is deleted.

    ``protected`` (partition -> file basenames): bytes attested by an
    archived VERSION snapshot (time travel) — never deleted here; they
    are reclaimed only by :func:`expire_versions`."""
    if not os.path.isdir(data_dir):
        return
    protected = protected or {}
    kept_files: dict[int, set[str]] = {}
    if keep_manifest is not None:
        kept_files = {
            int(pstr): {os.path.basename(f) for f in meta["files"]}
            for pstr, meta in keep_manifest["partitions"].items()
        }
    for entry in os.listdir(data_dir):
        if not entry.startswith(PART_COL + "="):
            continue
        try:
            p = int(entry.split("=", 1)[1])
        except ValueError:
            continue
        pdir = os.path.join(data_dir, entry)
        prot = protected.get(p, set())
        if p not in keep and not prot:
            shutil.rmtree(pdir, ignore_errors=True)
            continue
        attested = (kept_files.get(p, set()) if p in keep else set()) | prot
        for f in os.listdir(pdir):
            if f not in attested:
                try:
                    os.remove(os.path.join(pdir, f))
                except OSError:
                    pass


def write_partitioned(
    ds,
    path: str,
    key_col: str,
    num_partitions: int = 16,
    stage: str = "",
    input_fingerprint: str = "",
    keep_partitions: set[int] | None = None,
    stats_cols: tuple[str, ...] | list[str] = (),
    bloom_cols: tuple[str, ...] | list[str] = (),
    partitioner=None,
    partitioning_name: str = "hash",
) -> dict:
    """Write ds hash-partitioned by key_col; return the lineage manifest.

    Single pass: the same tasks that write the parquet slices emit the
    per-partition rows/bytes/content-hash stats (no write-then-re-read).
    ``keep_partitions`` (resume): on-disk partitions in the set keep their
    manifest-attested files and entries; everything else on disk is
    deleted first, so only manifest-attested bytes ever survive a crash.
    The stat stream is metadata-scale (one row per task×partition) and is
    reduced on the driver.

    ``stats_cols``: column names to zone-map — each partition's manifest
    entry gains ``zones[col] = [min, max]`` folded from the same write
    tasks (no extra pass), and ``read_table(..., zone_filter=...)``
    prunes partitions whose range misses the predicate before any file
    opens (the lakehouse file-skipping move; effective when the write
    key clusters the column).  Supported stats_cols types:
    string/int/float/bool; temporal columns are zone-mapped as their
    epoch integers (pass integer bounds in zone_filter); other types
    raise TypeError up front (see ``_zone_min_max``).

    ``bloom_cols``: columns to Bloom-index per partition — each entry
    gains ``blooms[col] = {bits, k, z}`` (zlib+base64 words) OR-folded
    from the same write tasks, and ``read_table(..,
    point_filter={col: [values...]})`` / :func:`bloom_partitions`
    prunes partitions that definitively contain none of the probe
    values.  This is the point-lookup complement of zone maps: hash
    partitioning scatters non-key columns uniformly, so their zones
    span everything, but a 4 KiB bloom still localizes individual
    keys.  Appends OR-merge into kept entries; a bits/k mismatch with
    the previous manifest drops that entry's bloom to absent (absent
    never prunes)."""
    data_dir = os.path.join(path, "data")
    os.makedirs(data_dir, exist_ok=True)
    keep = set(keep_partitions or ())
    old = read_manifest(path) if keep else None
    _hygiene(data_dir, old, keep, _version_protected_files(path))

    if partitioner is None:
        tagged = add_partition_column(ds, key_col, num_partitions)
    else:
        # custom layout (e.g. z-order): ``partitioner(batch) -> int64
        # partition ids``.  Recorded in the manifest so key-targeted
        # rewrites (delete_rows) know crc32 hashing does NOT locate keys
        def tag(batch: pa.Table) -> pa.Table:
            if PART_COL in batch.column_names:
                batch = batch.drop_columns([PART_COL])
            return batch.append_column(
                PART_COL, pa.array(np.asarray(partitioner(batch),
                                              np.int64))
            )

        tagged = ds.map_batches(tag, batch_format="pyarrow")
    raw = tagged.map_batches(
        _WriteSlices(data_dir, tuple(stats_cols), tuple(bloom_cols)),
        batch_format="pyarrow",
    ).to_pandas()

    partitions: dict[str, dict] = {}
    if old is not None:
        for pstr, meta in old.get("partitions", {}).items():
            if int(pstr) in keep:
                partitions[pstr] = dict(meta)
    if len(raw):
        for p, g in raw.groupby("part"):
            e = partitions.setdefault(
                str(int(p)), {"rows": 0, "bytes": 0, "content_hash": 0, "files": []}
            )
            e["rows"] = int(e["rows"]) + int(g["rows"].sum())
            e["bytes"] = int(e["bytes"]) + int(g["bytes"].sum())
            e["content_hash"] = (int(e.get("content_hash", 0)) + sum(
                int(c) for c in g["content"])) % _MOD
            e["files"] = sorted(set(e["files"]) | set(g["file"]))
            for c in stats_cols:
                mins = [json.loads(v) for v in g[f"zmin_{c}"]]
                maxs = [json.loads(v) for v in g[f"zmax_{c}"]]
                zones = e.setdefault("zones", {})
                # fold with the kept entry's range; None = all-null slice
                prev_lo, prev_hi = zones.get(c) or (None, None)
                lo = [v for v in [prev_lo, *mins] if v is not None]
                hi = [v for v in [prev_hi, *maxs] if v is not None]
                zones[c] = [min(lo, default=None), max(hi, default=None)]
            for c in bloom_cols:
                words = np.zeros(BLOOM_BITS // 64, np.uint64)
                for s in g[f"bf_{c}"]:
                    words |= _bloom_words(s)
                bl = e.setdefault("blooms", {})
                prev_bl = bl.get(c)
                if prev_bl is not None:
                    # kept-partition append: OR-merge, but only when the
                    # filter geometry matches (a manifest already on disk
                    # may carry another) — else drop to absent (absent
                    # never prunes, so this is always safe)
                    if (int(prev_bl.get("bits", -1)) == BLOOM_BITS
                            and int(prev_bl.get("k", -1)) == BLOOM_K):
                        words |= _bloom_words(prev_bl["z"])
                    else:
                        bl[c] = None
                        continue
                bl[c] = {"bits": BLOOM_BITS, "k": BLOOM_K,
                         "z": _bloom_b64(words)}
            # an entry that received NEW rows must not keep zone/bloom
            # stats for columns this write did not cover: the stale
            # stats would under-approximate the appended rows and prune
            # wrongly.  (Entries kept verbatim — no new rows — are
            # untouched and stay fully attested.)
            if "zones" in e:
                e["zones"] = {c: v for c, v in e["zones"].items()
                              if c in set(stats_cols)}
                if not e["zones"]:
                    del e["zones"]
            if "blooms" in e:
                e["blooms"] = {c: v for c, v in e["blooms"].items()
                               if c in set(bloom_cols) and v is not None}
                if not e["blooms"]:
                    del e["blooms"]
    # schema evolution: the manifest carries the UNION of every file's
    # Arrow schema (appended batches may add columns), so read_table can
    # hand one unified schema to the scan and old files null-fill the
    # new columns.  Type CHANGES for an existing column are a genuine
    # conflict and raise here (unify_schemas), at write time — never at
    # some later read.
    schema_b64s: set[str] = set()
    if old is not None:
        schema_b64s.update(old.get("schemas", ()))
    if len(raw):
        schema_b64s.update(raw["schema"])
    manifest = {
        "stage": stage,
        "key_col": key_col,
        "num_partitions": num_partitions,
        "partitioning": partitioning_name,
        "input_fingerprint": input_fingerprint,
        "partitions": partitions,
    }
    if schema_b64s:
        manifest["schema"] = _schema_b64(pa.unify_schemas(
            [_schema_from_b64(s) for s in sorted(schema_b64s)]
        ))
        manifest["schemas"] = sorted(schema_b64s)
    _publish(path, manifest)
    return manifest


def _write_json(path: str, obj: dict) -> None:
    """Atomic JSON write: a pid-suffixed tmp file (concurrent writers of
    the same record never share one) renamed over ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _publish(path: str, manifest: dict) -> None:
    """Make ``manifest`` the table's current one under a new version."""
    # snapshot FIRST, then swap the current manifest: a crash in between
    # leaves an archived snapshot whose attested files are already on
    # disk (the write completed), never a current manifest that lacks
    # its snapshot (which would let the next write reuse its version id)
    _snapshot_version(path, manifest)
    _write_json(os.path.join(path, MANIFEST), manifest)


def _attested_files(m: dict, parts=None) -> list[str]:
    """Sorted data-relative files manifest ``m`` attests, limited to the
    partition keys (manifest strings) in ``parts`` when given."""
    return sorted(
        f for pstr, meta in m["partitions"].items()
        if parts is None or pstr in parts
        for f in meta["files"]
    )


def manifest_content_hash(manifest: dict) -> str:
    """Content-ONLY fingerprint of a manifest's attested data: the fold
    of per-partition (rows, content_hash) pairs, independent of the
    stage's own input-fingerprint chain.  This is the right DOWNSTREAM
    stage key: identical bytes -> identical key -> stage skip, even when
    the upstream's provenance chain grew (append mode re-attests the
    same edge rows with a longer chain; CC must still skip)."""
    h = 0
    for pstr in sorted(manifest.get("partitions", {})):
        meta = manifest["partitions"][pstr]
        h = (h * 1099511628211
             + zlib.crc32(
                 f"{pstr}:{meta['rows']}:{meta['content_hash']}".encode()
             )) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def manifest_fingerprint(manifest: dict) -> str:
    """Provenance fingerprint: the content hash PLUS the stage's own
    input fingerprint (the full lineage chain).  Use
    ``manifest_content_hash`` for downstream stage-skip keys."""
    return (f"{manifest.get('input_fingerprint', '')}:"
            f"{manifest_content_hash(manifest)}")


def read_manifest(path: str) -> dict | None:
    p = os.path.join(path, MANIFEST)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# snapshot versioning (Iceberg-style time travel over the same manifests)
# ---------------------------------------------------------------------------

VERSIONS_DIR = "_versions"


def _versions_dir(path: str) -> str:
    return os.path.join(path, VERSIONS_DIR)


def _numbered(d: str, prefix: str) -> dict[int, str]:
    """number -> file path of every ``<prefix>NNNNNN.json`` record in
    directory ``d`` (archived versions, committed txns)."""
    out: dict[int, str] = {}
    if not os.path.isdir(d):
        return out
    for f in os.listdir(d):
        if f.startswith(prefix) and f.endswith(".json"):
            try:
                out[int(f[len(prefix):-5])] = os.path.join(d, f)
            except ValueError:
                continue
    return out


def _existing_versions(path: str) -> dict[int, str]:
    """version number -> snapshot file path, for all archived versions."""
    return _numbered(_versions_dir(path), "v")


def _snapshot_version(path: str, manifest: dict) -> None:
    """Assign the next version number to ``manifest`` (in place) and
    archive an immutable copy under ``_versions/vNNNNNN.json``.  Every
    successful write/append/compact creates one snapshot; data files
    referenced by a snapshot are protected from hygiene until
    :func:`expire_versions` drops the snapshot."""
    vs = _existing_versions(path)
    v = (max(vs) + 1) if vs else 1
    manifest["version"] = v
    manifest["parent_version"] = max(vs) if vs else None
    d = _versions_dir(path)
    os.makedirs(d, exist_ok=True)
    _write_json(os.path.join(d, f"v{v:06d}.json"), manifest)


def read_version_manifest(path: str, version: int) -> dict:
    vs = _existing_versions(path)
    if version not in vs:
        raise FileNotFoundError(
            f"version {version} not found under {path} "
            f"(have {sorted(vs) or 'none'})"
        )
    with open(vs[version]) as f:
        return json.load(f)


def _version_protected_files(path: str) -> dict[int, set[str]]:
    """partition -> file BASENAMES attested by any archived snapshot
    (the set hygiene/compaction must never delete)."""
    out: dict[int, set[str]] = {}
    for _, fp in _existing_versions(path).items():
        try:
            with open(fp) as f:
                m = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        for pstr, meta in m.get("partitions", {}).items():
            s = out.setdefault(int(pstr), set())
            for fn in meta.get("files", ()):
                s.add(os.path.basename(fn))
    return out


def list_versions(path: str) -> list[dict]:
    """Version chain, ascending: (version, parent_version, stage, rows,
    content_hash) per snapshot — the audit/time-travel index."""
    out = []
    for v in sorted(_existing_versions(path)):
        m = read_version_manifest(path, v)
        out.append(
            {
                "version": v,
                "parent_version": m.get("parent_version"),
                "stage": m.get("stage", ""),
                "rows": sum(int(p["rows"])
                            for p in m.get("partitions", {}).values()),
                "content_hash": manifest_content_hash(m),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Multi-table transactions: one atomic commit point over several
# manifested tables (a KG-construct run writes triples + entities +
# canonical; readers need a CONSISTENT set, not whichever mix of
# versions a crash left behind)
# ---------------------------------------------------------------------------

TXNS_DIR = "_txns"


def _txns_dir(root: str) -> str:
    return os.path.join(root, TXNS_DIR)


def _existing_txns(root: str) -> dict[int, str]:
    return _numbered(_txns_dir(root), "t")


def commit_txn(root: str, tables: dict[str, str], note: str = "") -> dict:
    """Atomically commit the CURRENT version of every listed table as
    one named consistent set.  ``tables`` maps logical names to
    manifested table dirs; each entry pins (path, version,
    content_hash).  The txn file commits via tmp+rename, so it either
    exists completely or not at all — table writes + snapshots happen
    FIRST, and a crash anywhere before the rename leaves the previous
    txn (and therefore a consistent older view) in force.  Data bytes
    stay safe because pinned versions are ordinary snapshots; pass the
    pinned set to :func:`expire_versions`'s ``protect`` when expiring
    tables referenced by live txns (:func:`txn_pinned_versions`)."""
    entries: dict[str, dict] = {}
    for name, path in tables.items():
        m = read_manifest(path)
        if m is None or "version" not in m:
            raise FileNotFoundError(
                f"txn table {name!r}: no versioned manifest at {path}")
        rel = os.path.relpath(path, root)
        entries[name] = {
            "path": path if rel.startswith("..") else rel,
            "version": int(m["version"]),
            "content_hash": manifest_content_hash(m),
        }
    d = _txns_dir(root)
    os.makedirs(d, exist_ok=True)
    while True:
        txns = _existing_txns(root)
        tid = (max(txns) + 1) if txns else 1
        rec = {"txn": tid, "note": note, "tables": entries}
        tmp = os.path.join(d, f"t{tid:06d}.json.tmp.{os.getpid()}")
        with open(tmp, "w") as f:
            json.dump(rec, f, indent=1, sort_keys=True)
        # exclusive create (os.link never overwrites): two concurrent
        # committers race to the same tid, the loser retries with the
        # next id instead of silently clobbering the winner's record
        try:
            os.link(tmp, os.path.join(d, f"t{tid:06d}.json"))
        except FileExistsError:
            os.remove(tmp)
            continue
        os.remove(tmp)
        return rec


def list_txns(root: str) -> list[dict]:
    txns = _existing_txns(root)  # one listdir, not one per txn
    out = []
    for t in sorted(txns):
        with open(txns[t]) as f:
            out.append(json.load(f))
    return out


def latest_txn(root: str) -> dict | None:
    txns = _existing_txns(root)
    if not txns:
        return None
    with open(txns[max(txns)]) as f:
        return json.load(f)


def read_txn_table(root: str, name: str, txn: int | None = None,
                   **read_kwargs):
    """Read table ``name`` at the version pinned by txn ``txn`` (default
    latest committed) — the cross-table-consistent face of
    :func:`read_table`."""
    rec = latest_txn(root) if txn is None else None
    if txn is not None:
        txns = _existing_txns(root)
        if txn not in txns:
            raise FileNotFoundError(f"txn {txn} not found under {root}")
        with open(txns[txn]) as f:
            rec = json.load(f)
    if rec is None:
        raise FileNotFoundError(f"no committed txn under {root}")
    if name not in rec["tables"]:
        raise KeyError(f"txn {rec['txn']} has no table {name!r}")
    e = rec["tables"][name]
    if e.get("destroyed"):
        raise FileNotFoundError(
            f"txn {rec['txn']} table {name!r}: pinned version "
            f"{e['version']} was destroyed by a hard forget/expiry "
            "(see prune_txn_pins)")
    path = e["path"]
    if not os.path.isabs(path):
        path = os.path.join(root, path)
    return read_table(path, version=e["version"], **read_kwargs)


def txn_pinned_versions(root: str, table_path: str) -> set[int]:
    """Versions of ``table_path`` pinned by ANY committed txn — pass to
    :func:`expire_versions`'s ``protect``."""
    out: set[int] = set()
    ap = os.path.abspath(table_path)
    for rec in list_txns(root):
        for e in rec["tables"].values():
            p = e["path"]
            if not os.path.isabs(p):
                p = os.path.join(root, p)
            if os.path.abspath(p) == ap:
                out.add(int(e["version"]))
    return out


def prune_txn_pins(root: str) -> int:
    """Mark txn table pins whose snapshot version no longer EXISTS (a
    hard forget / manual expiry destroyed the bytes): the entry gains
    ``destroyed: true`` so listings are honest and
    :func:`read_txn_table` fails with a clear error instead of a
    missing-snapshot one.  Returns the number of entries marked."""
    n = 0
    for _t, fp in sorted(_existing_txns(root).items()):
        with open(fp) as f:
            rec = json.load(f)
        changed = False
        for _name, e in rec["tables"].items():
            if e.get("destroyed"):
                continue
            p = e["path"]
            if not os.path.isabs(p):
                p = os.path.join(root, p)
            m = read_manifest(p)
            current = int(m["version"]) if m and "version" in m else None
            if (e["version"] not in _existing_versions(p)
                    and e["version"] != current):
                e["destroyed"] = True
                changed = True
                n += 1
        if changed:
            _write_json(fp, rec)
    return n


def delete_rows(path: str, keys, key_col: str | None = None) -> dict:
    """Targeted delete (GDPR / right-to-be-forgotten primitive): remove
    all rows whose ``key_col`` value is in ``keys``, rewriting ONLY the
    hash partitions that can contain them — every other partition's
    files are byte-identical and kept via ``keep_partitions`` (no data
    movement outside the doomed partitions).

    The rewrite snapshots like any write, so the pre-delete state stays
    time-travel-readable until :func:`expire_versions` — HARD deletion
    (bytes destroyed) is ``delete_rows(...)`` followed by
    ``expire_versions(path, keep_last=1)``.  Downstream stage-skip keys
    change automatically (the manifest content hash covers the removed
    rows), so lineage-fingerprinted consumers rebuild on their next run.
    """
    import ray.data as rd

    m = read_manifest(path)
    if m is None:
        raise FileNotFoundError(f"no manifest under {path}")
    key_col = key_col or m.get("key_col")
    n = int(m["num_partitions"])
    key_list = list(keys)
    if m.get("partitioning", "hash") == "hash":
        targets = {int(p) for p in partition_of(key_list, n)}
    else:
        # custom layout (z-order etc.): crc32 does not locate keys —
        # rewrite every partition the zone maps cannot rule out
        targets = set()
        for pstr, meta in m.get("partitions", {}).items():
            z = meta.get("zones", {}).get(key_col)
            if z is None or z[0] is None or z[1] is None:
                targets.add(int(pstr))
                continue
            if any(z[0] <= k <= z[1] for k in key_list):
                targets.add(int(pstr))
    targets &= {int(p) for p in m.get("partitions", {})}
    # bloom narrowing: a partition whose key_col bloom definitively
    # excludes every doomed key needs no rewrite (false positives only
    # cost an unnecessary rewrite of identical rows — never wrong)
    targets = {
        p for p in targets
        if (lambda e: e is None or _bloom_may_contain(e, key_list))(
            (m["partitions"][str(p)].get("blooms") or {}).get(key_col))
    }
    if not targets:
        return m  # nothing to delete: no partition can hold these keys
    data_dir = os.path.join(path, "data")
    files = [os.path.join(data_dir, f)
             for f in _attested_files(m, {str(p) for p in targets})]
    doomed = pa.array(key_list)

    def drop(batch: pa.Table) -> pa.Table:
        if PART_COL in batch.column_names:
            batch = batch.drop_columns([PART_COL])
        col = batch[key_col]
        mask = pc.invert(
            pc.is_in(col, value_set=doomed.cast(col.type))
        )
        return batch.filter(mask)

    ds = rd.read_parquet(files).map_batches(drop, batch_format="pyarrow")
    keep = {int(p) for p in m["partitions"]} - targets
    stats_cols = tuple(
        sorted({c for meta in m["partitions"].values()
                for c in meta.get("zones", {})})
    )
    bloom_cols = tuple(
        sorted({c for meta in m["partitions"].values()
                for c in (meta.get("blooms") or {})})
    )
    return write_partitioned(
        ds, path, key_col, n, stage=m.get("stage", ""),
        input_fingerprint=f"{m.get('input_fingerprint', '')}#del",
        keep_partitions=keep, stats_cols=stats_cols,
        bloom_cols=bloom_cols,
        # non-hash layouts keep their name: rewritten partitions fall
        # back to hash placement (correct — zones are recomputed from
        # written bytes) but the table MUST keep zone-map delete
        # targeting; crc32 targeting would silently miss keys living
        # in the kept z-ordered partitions
        partitioning_name=m.get("partitioning", "hash"),
    )


def expire_versions(path: str, keep_last: int = 1,
                    protect: set[int] | None = None) -> int:
    """Drop all but the newest ``keep_last`` snapshots and vacuum data
    files referenced by neither the current manifest nor a surviving
    snapshot (the Iceberg expire-snapshots + orphan-vacuum move).
    ``protect`` (e.g. :func:`txn_pinned_versions`) exempts versions a
    live multi-table txn still references.  Returns the number of
    snapshots dropped."""
    vs = _existing_versions(path)
    drop = sorted(vs)[:-keep_last] if keep_last > 0 else sorted(vs)
    if protect:
        drop = [v for v in drop if v not in protect]
    for v in drop:
        try:
            os.remove(vs[v])
        except OSError:
            pass
    m = read_manifest(path)
    keep = {int(k) for k in (m or {}).get("partitions", {})}
    _hygiene(os.path.join(path, "data"), m, keep,
             _version_protected_files(path))
    return len(drop)


def completed_partitions(path: str, input_fingerprint: str = "") -> set[int]:
    """Partitions recorded as done for a matching input fingerprint.  An
    empty fingerprint names no input, so nothing is reusable under it."""
    m = read_manifest(path)
    if (m is None or not input_fingerprint
            or m.get("input_fingerprint") != input_fingerprint):
        return set()  # input changed or unnamed -> nothing is reusable
    return {int(k) for k in m["partitions"]}


def filter_pending(ds, key_col: str, num_partitions: int, done: set[int]):
    """Resume filter: drop rows whose partition already landed (anti-join
    against the small completed-set, broadcast — no shuffle)."""
    if not done:
        return ds
    import ray

    ref = ray.put(frozenset(done))

    def keep(batch: pa.Table) -> pa.Table:
        d = ray.get(ref)
        part = partition_of(batch[key_col].to_pylist(), num_partitions)
        mask = np.fromiter((int(p) not in d for p in part), bool, len(part))
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def read_jsonl(path: str, **kwargs):
    """S1: JSON-lines corpus reader (the reference's input format,
    classification/dataset.py:32-41) -> Dataset.  Arrow's JSON reader
    handles the nested postag/spo_list structs natively."""
    import ray.data as rd

    return rd.read_json(path, **kwargs)


def write_jsonl(ds, path: str, **kwargs):
    """S5: result JSON-lines writer (classification/predict.py:69-72,
    legacy produce_submit_json_file.py:271-316 analogue): one shard per
    block, never one giant file."""
    ds.write_json(path, **kwargs)
    return path


def zone_partitions(path: str, zone_filter: dict) -> set[str] | None:
    """Partition keys (manifest strings) whose zone ranges intersect every
    ``col: (lo, hi)`` interval in ``zone_filter`` (closed intervals; pass
    None for an open end).  Returns None when the manifest carries no
    zones for a requested column — the caller must then read everything
    (never silently prune on absent stats)."""
    return _zone_keep(read_manifest(path), zone_filter)


def bloom_partitions(path: str, point_filter: dict) -> set[str] | None:
    """Partition keys whose Bloom index cannot rule out every probe value
    for every ``col: [values...]`` in ``point_filter``.  Returns None when
    any requested column lacks a bloom in any partition — the caller must
    then read everything (the zone-map absent-stats rule: never silently
    prune on missing indexes)."""
    return _bloom_keep(read_manifest(path), point_filter)


def _bloom_keep(m: dict | None, point_filter: dict) -> set[str] | None:
    if m is None:
        return None
    keep: set[str] = set()
    for pstr, meta in m.get("partitions", {}).items():
        blooms = meta.get("blooms", {})
        ok = True
        for col, values in point_filter.items():
            entry = blooms.get(col)
            if entry is None:
                return None
            if not _bloom_may_contain(entry, list(values)):
                ok = False
                break
        if ok:
            keep.add(pstr)
    return keep


def _zone_keep(m: dict | None, zone_filter: dict) -> set[str] | None:
    if m is None:
        return None
    keep: set[str] = set()
    for pstr, meta in m.get("partitions", {}).items():
        zones = meta.get("zones", {})
        ok = True
        for col, (lo, hi) in zone_filter.items():
            z = zones.get(col)
            if z is None:
                return None
            zlo, zhi = z
            if zlo is None or zhi is None:
                continue  # all-null partition: cannot exclude
            if (hi is not None and zlo > hi) or (
                    lo is not None and zhi < lo):
                ok = False
                break
        if ok:
            keep.add(pstr)
    return keep


def _scan(paths, columns, unified: pa.Schema,
          per_file_schemas: list[pa.Schema], **kwargs):
    """The one projection rule for a parquet scan whose files may have
    evolved schemas (``unified`` is their union): no columns -> scan with
    the unified schema (files lacking a column null-fill it); every file
    has every requested column -> push the projection down to the files
    (Ray derives its data-column split from the FIRST fragment, so this
    must hold for all files, and its reader requires schema == the
    PROJECTED batch schema); otherwise scan unified, then select."""
    import ray.data as rd

    if not columns:
        return rd.read_parquet(paths, schema=unified, **kwargs)
    if all(c in s.names for s in per_file_schemas for c in columns):
        proj = pa.schema([unified.field(c) for c in columns])
        return rd.read_parquet(paths, columns=columns, schema=proj, **kwargs)
    # a requested column is missing from some file: file-level
    # projection would fail on it.  Compaction conforms files to the
    # unified schema, restoring the pushdown for later reads.
    return rd.read_parquet(paths, schema=unified, **kwargs) \
        .select_columns(list(columns))


def read_table(path: str, columns: list[str] | None = None,
               zone_filter: dict | None = None,
               point_filter: dict | None = None,
               version: int | None = None):
    """Read back a table written by write_partitioned (data lives under
    ``<path>/data``, the manifest beside it).

    Reads ONLY manifest-attested files — stale bytes from crashed or
    retried write attempts, and files kept on disk for older snapshots,
    are invisible to readers (exactly-once at the read layer).  Returns
    None when there is no manifest, or when the manifest attests no file
    after zone/bloom pruning (an empty table).

    ``version``: time travel — read the files attested by that archived
    snapshot instead of the current manifest (zone pruning then uses the
    SNAPSHOT's zones).  Raises FileNotFoundError for expired/unknown
    versions."""
    if version is not None:
        m = read_version_manifest(path, version)
    else:
        m = read_manifest(path)
    if m is None:
        return None
    keep = None
    if zone_filter:
        keep = _zone_keep(m, zone_filter)
    if point_filter:
        bkeep = _bloom_keep(m, point_filter)
        if bkeep is not None:
            keep = bkeep if keep is None else (keep & bkeep)
    files = _attested_files(m, keep)
    if not files:
        return None
    # schema evolution: scan with the manifest's unified schema so files
    # written before a column was appended null-fill it (without this,
    # the scan takes the FIRST file's schema and silently drops evolved
    # columns from the result depending on file order)
    sch = _schema_from_b64(m["schema"])
    if columns is not None:
        missing = [c for c in columns if c not in sch.names]
        if missing:
            raise KeyError(f"columns {missing} not in table schema")
    data_dir = os.path.join(path, "data")
    ds = _scan([os.path.join(data_dir, f) for f in files], columns, sch,
               [_schema_from_b64(s) for s in m["schemas"]])
    if columns:  # explicit projection: honor it verbatim
        return ds

    # drop the hive layout column: it is write-side metadata, and leaking
    # it into joins creates suffix collisions (part -> part_r twice)
    def strip(batch: pa.Table) -> pa.Table:
        if PART_COL in batch.column_names:
            return batch.drop_columns([PART_COL])
        return batch

    return ds.map_batches(strip, batch_format="pyarrow")


def compact_partitioned(path: str, target_bytes: int = 128 << 20) -> dict:
    """Merge each partition's small manifest-attested parquet files into
    ~``target_bytes`` files — the small-files compaction a standing
    append-mode pipeline needs (every append batch adds one file per
    touched partition; reads then pay per-file open cost forever).

    Crash-safe ordering: compacted files are written and row-count
    verified against the manifest BEFORE the manifest atomically swaps
    to them, and the old files are deleted only after the swap — at any
    crash point the on-disk manifest references only complete files
    (``read_table`` reads manifest-attested files only; orphans are
    swept by the next write's hygiene pass).  Partition ``rows`` /
    ``content_hash`` / ``zones`` are content-preserving by construction
    (the hash is a commutative fold over unchanged rows) and stay
    untouched, so downstream ``manifest_content_hash`` stage-skip keys
    survive compaction.  One Ray task per multi-file partition."""
    import ray

    manifest = read_manifest(path)
    if manifest is None:
        raise FileNotFoundError(f"no manifest under {path}")
    data_dir = os.path.join(path, "data")

    uni_b64 = manifest.get("schema")

    @ray.remote
    def compact_one(pstr: str, files: list[str], want_rows: int):
        import pyarrow.parquet as _pq

        # promote: appended files may carry evolved (superset) schemas —
        # missing columns null-fill so mixed-schema partitions compact
        tbl = pa.concat_tables(
            [_pq.read_table(os.path.join(data_dir, f)) for f in files],
            promote_options="default",
        )
        if tbl.num_rows != want_rows:
            raise RuntimeError(
                f"partition {pstr}: {tbl.num_rows} rows on disk vs "
                f"{want_rows} attested — refusing to compact"
            )
        if uni_b64 is not None:
            # schema healing: conform every rewritten partition to the
            # manifest's unified schema (null-fill evolved columns, fix
            # column order) so post-compaction files are homogeneous and
            # file-level column projection works again
            uni = _schema_from_b64(uni_b64)
            tbl = pa.table(
                {
                    f.name: (tbl[f.name].cast(f.type)
                             if f.name in tbl.column_names
                             else pa.nulls(tbl.num_rows, f.type))
                    for f in uni
                }
            )
        n_out = max(1, int(np.ceil(tbl.nbytes / target_bytes)))
        rows_per = int(np.ceil(tbl.num_rows / n_out))
        pdir = os.path.join(data_dir, f"{PART_COL}={pstr}")
        new_files, new_bytes = [], 0
        for i in range(n_out):
            s = tbl.slice(i * rows_per, rows_per)
            if s.num_rows == 0:
                continue
            fname = f"compact-{uuid.uuid4().hex}.parquet"
            fpath = os.path.join(pdir, fname)
            _pq.write_table(s, fpath)
            new_files.append(f"{PART_COL}={pstr}/{fname}")
            new_bytes += os.path.getsize(fpath)
        return pstr, new_files, new_bytes

    hetero = len(manifest.get("schemas", [])) > 1
    files = {p: _attested_files(manifest, {p})
             for p in manifest["partitions"]}
    todo = [p for p, fs in files.items() if len(fs) > 1 or (hetero and fs)]
    results = ray.get([
        compact_one.remote(p, files[p], int(manifest["partitions"][p]["rows"]))
        for p in todo
    ])
    old_files = []
    for pstr, new_files, new_bytes in results:
        meta = manifest["partitions"][pstr]
        old_files.extend(files[pstr])
        meta["files"] = sorted(new_files)
        meta["bytes"] = int(new_bytes)
    if results and uni_b64 is not None:
        # every rewritten file now carries the unified schema; if ALL
        # partitions were rewritten the file set is homogeneous again
        if {p for p, _, _ in results} >= {p for p, fs in files.items() if fs}:
            manifest["schemas"] = [uni_b64]
    # compaction is content-preserving but changes the file set: archive
    # it as a new snapshot so the version chain stays read-consistent
    _publish(path, manifest)
    protected = _version_protected_files(path)
    for f in old_files:  # only after the manifest swap
        p_of = int(f.split("=", 1)[1].split("/", 1)[0])
        if os.path.basename(f) in protected.get(p_of, set()):
            continue  # still attested by an archived snapshot
        try:
            os.remove(os.path.join(data_dir, f))
        except FileNotFoundError:
            pass
    return manifest


def _rank_codes(v: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    if v.dtype.kind == "M":
        v = v.astype("datetime64[us]").astype(np.int64)
    return np.searchsorted(cuts, v, side="right").astype(np.int64)


def write_zordered(
    ds,
    path: str,
    cols: list[str],
    num_partitions: int = 16,
    bits: int = 8,
    sample_n: int = 20_000,
    stage: str = "",
    input_fingerprint: str = "",
    stats_cols: tuple[str, ...] | list[str] | None = None,
) -> dict:
    """Write ``ds`` clustered by the Z-ORDER (Morton) interleave of
    ``cols`` — the multi-column layout that makes zone maps tight on
    EVERY listed column at once, so ``read_table(zone_filter=...)``
    prunes partitions for predicates on any of them (hash layouts
    scatter every column across the full range; single-key range
    layouts serve only their own key).

    Layout mechanics: each column is rank-normalized through
    ``2^bits``-quantile cuts taken from a driver-side sample
    (metadata-scale; sampling bias affects balance, never
    correctness), the per-column codes interleave bit-by-bit into a
    Morton key, and equal-width ranges of the key space become
    partitions.  Zone maps for ``cols`` are folded by the same write
    tasks (``stats_cols`` defaults to ``cols``).

    The manifest records ``partitioning="zorder"`` so key-targeted
    rewrites (:func:`delete_rows`) switch from crc32 targeting to
    zone-map targeting.  Rewrites go through the default hash
    partitioner, which keeps every read correct (zones are recomputed
    from written bytes) but loosens the rewritten partitions' layout —
    re-run ``write_zordered`` to re-cluster."""
    ds = ds.materialize()
    total = ds.count()
    if total == 0:
        return write_partitioned(
            ds, path, cols[0], num_partitions, stage=stage,
            input_fingerprint=input_fingerprint,
            partitioning_name="zorder",
            stats_cols=tuple(stats_cols or ()),
        )
    frac = min(1.0, sample_n / total)
    sample = (ds if frac >= 1.0 else ds.random_sample(frac, seed=7)) \
        .select_columns(list(cols)).to_pandas()
    qs = np.arange(1, (1 << bits)) / float(1 << bits)
    cuts = {}
    for c in cols:
        v = sample[c].to_numpy()
        if v.dtype.kind == "M":
            v = v.astype("datetime64[us]").astype(np.int64)
        cuts[c] = np.quantile(v, qs, method="lower")
    k = len(cols)

    def zpart(batch: pa.Table) -> np.ndarray:
        z = np.zeros(len(batch), np.int64)
        codes = [
            _rank_codes(
                batch[c].to_numpy(zero_copy_only=False), cuts[c]
            )
            for c in cols
        ]
        for b in range(bits):
            for ci, code in enumerate(codes):
                z |= ((code >> b) & 1) << (b * k + ci)
        return (z * num_partitions) >> (bits * k)

    return write_partitioned(
        ds, path, cols[0], num_partitions, stage=stage,
        input_fingerprint=input_fingerprint,
        stats_cols=tuple(cols if stats_cols is None else stats_cols),
        partitioner=zpart, partitioning_name="zorder",
    )


def read_parquet_clean(path, columns: list[str] | None = None, **kwargs):
    """``ray.data.read_parquet`` with the file's pandas schema metadata
    stripped (its dict payload makes block schemas unhashable and every
    operator then logs "Failed to hash the schemas").  A directory scans
    with the union of its files' footer schemas (footers only, no data
    pass), so a column present in only some files is kept and null-filled
    elsewhere; a column whose type differs between two files raises
    ValueError naming both (``write_partitioned`` refuses such a write).
    Falls back to a plain read when the footers can't be read or a
    projected column is in none of them."""
    import pyarrow.parquet as pq
    import ray.data as rd

    if kwargs.get("filter") is not None:
        # a row filter binds against the DATASET schema before the
        # column projection, so a pruned schema= breaks the binding —
        # strip via a fused metadata-only map instead
        return rd.read_parquet(path, columns=columns, **kwargs) \
            .map_batches(lambda b: b.replace_schema_metadata(None),
                         batch_format="pyarrow")
    try:
        files = [path]
        if os.path.isdir(path):  # ray-written dir: every file's footer
            files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                     if f.endswith(".parquet")]
        footers = [pq.read_schema(f).remove_metadata() for f in files]
    except (OSError, TypeError, pa.ArrowException):
        footers = []  # not local parquet footers (e.g. a list of paths)
    if not footers:
        return rd.read_parquet(path, columns=columns, **kwargs)
    sch = _unify_footers(files, footers)
    if any(c not in sch.names for c in columns or ()):
        return rd.read_parquet(path, columns=columns, **kwargs)  # Ray's error
    return _scan(path, columns, sch, footers, **kwargs)


def _unify_footers(files: list[str], footers: list[pa.Schema]) -> pa.Schema:
    """Union of the files' footer schemas.  A column typed differently in
    two files (a null-typed column merges with any type) raises
    ValueError naming the column and both files."""
    try:
        return pa.unify_schemas(footers)
    except pa.ArrowTypeError:
        first: dict[str, tuple[str, pa.DataType]] = {}
        for f, sch in zip(files, footers):
            for field in sch:
                if pa.types.is_null(field.type):
                    continue
                f0, t0 = first.setdefault(field.name, (f, field.type))
                if t0 != field.type:
                    raise ValueError(
                        f"column {field.name!r} is {t0} in {f0} but "
                        f"{field.type} in {f}") from None
        raise
