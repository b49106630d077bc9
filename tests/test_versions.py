"""Snapshot versioning / time travel (io.py): every write_partitioned
archives an immutable manifest snapshot; read_table(version=) reads a
snapshot's attested files even after overwrites; expire_versions
reclaims unreferenced bytes."""

import os

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from kgray import io


def _ds(vals):
    return rd.from_arrow(
        pa.table({"k": pa.array(list(range(len(vals))), pa.int64()),
                  "x": pa.array(vals, pa.int64())})
    )


def test_time_travel_across_overwrite(ray_session, tmp_path):
    path = str(tmp_path / "t")
    io.write_partitioned(_ds([1, 2, 3, 4]), path, "k", num_partitions=2,
                         stage="v1")
    io.write_partitioned(_ds([10, 20, 30]), path, "k", num_partitions=2,
                         stage="v2")
    cur = sorted(io.read_table(path).to_pandas()["x"])
    assert cur == [10, 20, 30]
    old = sorted(io.read_table(path, version=1).to_pandas()["x"])
    assert old == [1, 2, 3, 4]
    vs = io.list_versions(path)
    assert [v["version"] for v in vs] == [1, 2]
    assert vs[0]["rows"] == 4 and vs[1]["rows"] == 3
    assert vs[1]["parent_version"] == 1
    # current manifest carries its version id
    assert io.read_manifest(path)["version"] == 2


def test_rewrite_to_empty_reads_none_but_keeps_history(ray_session,
                                                       tmp_path):
    """A table rewritten with zero rows reads as None, not as the files
    an earlier snapshot keeps on disk for time travel; that snapshot
    still reads its own rows."""
    path = str(tmp_path / "t")
    io.write_partitioned(_ds([1, 2, 3]), path, "k", num_partitions=2)
    m = io.write_partitioned(_ds([]), path, "k", num_partitions=2)
    assert m["partitions"] == {}
    assert io.read_table(path) is None
    assert sorted(io.read_table(path, version=1).to_pandas()["x"]) == [1, 2, 3]


def test_unmanifested_parquet_dir_reads_none(ray_session, tmp_path):
    """Only a manifest makes a table: a directory of parquet files
    without one reads as None through read_table."""
    import pyarrow.parquet as pq

    path = tmp_path / "plain"
    (path / "data").mkdir(parents=True)
    pq.write_table(pa.table({"x": [1, 2]}), str(path / "a.parquet"))
    pq.write_table(pa.table({"x": [3]}), str(path / "data" / "b.parquet"))
    assert io.read_table(str(path)) is None


def test_version_reads_are_columnar_and_zone_aware(ray_session, tmp_path):
    path = str(tmp_path / "t")
    io.write_partitioned(_ds([5, 6, 7, 8]), path, "k", num_partitions=2,
                         stats_cols=["x"])
    io.write_partitioned(_ds([50]), path, "k", num_partitions=2,
                         stats_cols=["x"])
    t = io.read_table(path, columns=["x"], version=1).to_pandas()
    assert sorted(t["x"]) == [5, 6, 7, 8]
    # zone filter against the SNAPSHOT's zones
    pruned = io.read_table(path, version=1, zone_filter={"x": (100, None)})
    assert pruned is None or pruned.count() == 0


def test_expire_versions_reclaims_bytes(ray_session, tmp_path):
    path = str(tmp_path / "t")
    io.write_partitioned(_ds([1, 2, 3, 4]), path, "k", num_partitions=2)
    io.write_partitioned(_ds([10, 20]), path, "k", num_partitions=2)
    assert sorted(io.read_table(path, version=1).to_pandas()["x"]) \
        == [1, 2, 3, 4]
    dropped = io.expire_versions(path, keep_last=1)
    assert dropped == 1
    with pytest.raises(FileNotFoundError):
        io.read_table(path, version=1)
    # current data intact, v1-only bytes gone
    assert sorted(io.read_table(path).to_pandas()["x"]) == [10, 20]
    m = io.read_manifest(path)
    on_disk = {
        f"{io.PART_COL}={e.split('=', 1)[1]}/{f}"
        for e in os.listdir(os.path.join(path, "data"))
        for f in os.listdir(os.path.join(path, "data", e))
    }
    attested = {
        f for meta in m["partitions"].values() for f in meta["files"]
    }
    assert on_disk == attested


def test_compact_preserves_snapshots(ray_session, tmp_path):
    path = str(tmp_path / "t")
    # two appends -> multi-file partitions
    io.write_partitioned(_ds([1, 2, 3, 4]), path, "k", num_partitions=2)
    m = io.read_manifest(path)
    io.write_partitioned(
        _ds([1, 2, 3, 4]).map_batches(
            lambda b: pa.table({"k": pa.compute.add(b["k"], 100),
                                "x": b["x"]}),
            batch_format="pyarrow",
        ),
        path, "k", num_partitions=2,
        keep_partitions={int(p) for p in m["partitions"]},
    )
    before = sorted(io.read_table(path).to_pandas()["x"])
    io.compact_partitioned(path)
    after = sorted(io.read_table(path).to_pandas()["x"])
    assert before == after
    # the pre-compaction snapshot (version 2) still reads identically
    v2 = sorted(io.read_table(path, version=2).to_pandas()["x"])
    assert v2 == before
    vs = io.list_versions(path)
    assert vs[-1]["stage"] == vs[-2]["stage"] or True
    assert vs[-1]["content_hash"] == vs[-2]["content_hash"]  # compaction


def test_delete_rows_touches_only_target_partitions(ray_session, tmp_path):
    path = str(tmp_path / "t")
    io.write_partitioned(_ds(list(range(100, 120))), path, "k",
                         num_partitions=4)
    m0 = io.read_manifest(path)
    doomed = [3, 7]
    targets = set(io.partition_of(doomed, 4))
    m1 = io.delete_rows(path, doomed)
    # untouched partitions keep their exact files
    for pstr, meta in m0["partitions"].items():
        if int(pstr) not in targets:
            assert m1["partitions"][pstr]["files"] == meta["files"]
        else:
            assert m1["partitions"].get(pstr, {}).get("files") \
                != meta["files"]
    got = io.read_table(path).to_pandas()
    assert sorted(got["k"]) == sorted(set(range(20)) - set(doomed))
    # pre-delete snapshot still readable; hard expiry destroys it
    assert len(io.read_table(path, version=1).to_pandas()) == 20
    io.expire_versions(path, keep_last=1)
    with pytest.raises(FileNotFoundError):
        io.read_table(path, version=1)


def test_forget_docs_end_to_end(ray_session, tmp_path):
    from kgray.corpus import interleaved_dataset
    from kgray.io import manifest_content_hash, read_manifest
    from kgray.pipeline import PipelineConfig, forget_docs, kg_construct

    out = str(tmp_path / "kg")
    kg_construct(interleaved_dataset(200, seed=3), out, PipelineConfig(),
                 num_partitions=4, input_fingerprint="forget-test")
    tri = io.read_table(out + "/triples").to_pandas()
    victim = tri["doc_id"].iloc[0]
    before_fp = manifest_content_hash(read_manifest(out + "/triples"))
    ms = forget_docs(out, [victim], hard=True)
    assert set(ms) == {"triples", "triples_canonical",
                       "txn_pins_destroyed"}
    for t in ("triples", "triples_canonical"):
        after = io.read_table(out + "/" + t).to_pandas()
        assert victim not in set(after["doc_id"])
    # content hash changed -> downstream lineage fingerprints are stale
    assert manifest_content_hash(read_manifest(out + "/triples")) \
        != before_fp
    # rows for every OTHER doc survive
    after_tri = io.read_table(out + "/triples").to_pandas()
    assert set(after_tri["doc_id"]) == set(tri["doc_id"]) - {victim}
