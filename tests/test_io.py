"""Sources/sinks: S1/S5/S9 JSON-lines roundtrip, partitioned parquet."""

from __future__ import annotations

import pytest
import ray.data as rd

from kgray import io
from kgray.corpus import doc_ids_for_range, sentences_table


def test_io_jsonl(tmp_path, ray_session):
    """S1 reader + S5 writer roundtrip on the triples table (S9: reading
    an emitted submission back)."""
    from kgray.pipeline import golden_triples

    sents = rd.from_arrow(sentences_table(doc_ids_for_range(0, 50)))
    triples = golden_triples(sents)
    out = str(tmp_path / "triples_json")
    io.write_jsonl(triples, out)

    back = io.read_jsonl(out)
    a = triples.to_pandas().sort_values(
        ["doc_id", "subject", "predicate", "object"], ignore_index=True
    )
    b = back.to_pandas()[a.columns.tolist()].sort_values(
        ["doc_id", "subject", "predicate", "object"], ignore_index=True
    )
    assert a.equals(b)


def test_io_jsonl_nested(tmp_path, ray_session):
    """Nested postag/spo_list structs survive the JSON roundtrip (the
    reference's record shape, README.md:19-39)."""
    t = sentences_table(doc_ids_for_range(0, 20))
    ds = rd.from_arrow(t)
    out = str(tmp_path / "sents_json")
    io.write_jsonl(ds, out)
    back = io.read_jsonl(out).to_pandas().sort_values("doc_id", ignore_index=True)
    orig = t.to_pandas().sort_values("doc_id", ignore_index=True)
    assert back["doc_id"].tolist() == orig["doc_id"].tolist()
    assert back["text"].tolist() == orig["text"].tolist()
    # struct lists come back as lists of dicts with equal content
    for a, b in zip(orig["spo_list"], back["spo_list"]):
        assert [dict(x) for x in a] == [dict(x) for x in b]


def test_content_hash_independent_of_append_split(tmp_path, ray_session):
    """A partition written in two keep_partitions appends carries the same
    content_hash as the same rows written once (exact sum mod 2^61-1; a
    uint64 wrap before the modulus made the two differ)."""
    import pyarrow as pa

    n = 400
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": pa.array([f"row {i}" for i in range(n)])})
    once = io.write_partitioned(rd.from_arrow(tbl), str(tmp_path / "once"),
                                "doc_id", 4)
    first = io.write_partitioned(rd.from_arrow(tbl.slice(0, n // 2)),
                                 str(tmp_path / "twice"), "doc_id", 4)
    keep = {int(p) for p in first["partitions"]}
    twice = io.write_partitioned(rd.from_arrow(tbl.slice(n // 2)),
                                 str(tmp_path / "twice"), "doc_id", 4,
                                 keep_partitions=keep)

    def hashes(m):
        return {p: (e["rows"], e["content_hash"])
                for p, e in m["partitions"].items()}

    assert hashes(once) == hashes(twice)
    assert all(0 <= e["content_hash"] < (1 << 61) - 1
               for e in twice["partitions"].values())


def test_read_parquet_clean_unifies_file_schemas(tmp_path, ray_session):
    """A directory whose files carry different column sets keeps every
    column (null-filled where a file lacks it), as ray.data.read_parquet
    does — not just the first file's footer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"x": [1, 2]}), str(tmp_path / "a.parquet"))
    pq.write_table(pa.table({"x": [3], "y": ["z"]}),
                   str(tmp_path / "b.parquet"))
    df = io.read_parquet_clean(str(tmp_path)).to_pandas() \
        .sort_values("x", ignore_index=True)
    assert list(df.columns) == ["x", "y"]
    assert df["x"].tolist() == [1, 2, 3]
    assert df["y"].tolist() == [None, None, "z"]
    only_y = io.read_parquet_clean(str(tmp_path), columns=["y"]).to_pandas()
    assert sorted(only_y["y"].dropna().tolist()) == ["z"]
    assert len(only_y) == 3


def test_read_parquet_clean_refuses_type_conflict(tmp_path, ray_session):
    """Two files typing one column differently raise a ValueError that
    names the column and both files, as write_partitioned refuses such a
    write — never a Dataset whose schema() disagrees with its rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"a": [1, 2]}), str(tmp_path / "f1.parquet"))
    pq.write_table(pa.table({"a": ["x", "y"]}), str(tmp_path / "f2.parquet"))
    with pytest.raises(ValueError, match=r"'a' is int64 in .*f1\.parquet "
                       r"but string in .*f2\.parquet"):
        io.read_parquet_clean(str(tmp_path))
