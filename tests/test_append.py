"""Append-mode kg_construct (VERDICT r3 item 3): a second run over +N
docs must touch only new-batch work — old triple files byte-untouched,
dedup/link state persisted and unioned (mentions/ edges/), final tables
oracle-equal to a from-scratch build over the full corpus, and the same
batch re-applied is a no-op (idempotence under driver retries)."""

import json
import os

import pandas as pd
import pytest


def _file_stats(table_dir: str) -> dict:
    out = {}
    data = os.path.join(table_dir, "data")
    for root, _, files in os.walk(data):
        for f in files:
            p = os.path.join(root, f)
            st = os.stat(p)
            out[os.path.relpath(p, table_dir)] = (st.st_size, st.st_mtime_ns)
    return out


def _canon_df(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


def test_append_touches_only_new_work_and_matches_scratch(ray_session,
                                                          tmp_path):
    from kgray import io
    from kgray.corpus import interleaved_dataset
    from kgray.pipeline import PipelineConfig, kg_construct

    cfg = PipelineConfig()
    base = str(tmp_path / "base")
    kg_construct(interleaved_dataset(600, seed=42), base, cfg,
                 num_partitions=8, input_fingerprint="base-600")
    tr_dir = os.path.join(base, "triples")
    before = _file_stats(tr_dir)
    canon_before = _file_stats(os.path.join(base, "triples_canonical"))

    batch = interleaved_dataset(200, seed=42, start=600)
    m = kg_construct(batch, base, cfg, num_partitions=8,
                     input_fingerprint="batch-200", append=True)
    assert set(m) == {"triples", "mentions", "edges", "entities",
                      "triples_canonical"}

    # every pre-existing triples file is byte-untouched (append = only
    # new-partition work at corpus scale); new files were added
    after = _file_stats(tr_dir)
    for k, v in before.items():
        assert after[k] == v, f"old file rewritten: {k}"
    assert len(after) > len(before)
    # canonical table appended too (no old component changed)
    canon_after = _file_stats(os.path.join(base, "triples_canonical"))
    for k, v in canon_before.items():
        assert canon_after[k] == v, f"old canonical file rewritten: {k}"

    # final tables equal a from-scratch construct over all 800 docs
    scratch = str(tmp_path / "scratch")
    kg_construct(interleaved_dataset(800, seed=42), scratch, cfg,
                 num_partitions=8, input_fingerprint="scratch-800")
    for table in ("triples", "entities", "triples_canonical"):
        a = _canon_df(io.read_table(os.path.join(base, table)))
        b = _canon_df(io.read_table(os.path.join(scratch, table)))
        pd.testing.assert_frame_equal(a, b), table

    # idempotence: re-applying the same batch fingerprint is a no-op
    manifest_p = os.path.join(tr_dir, "manifest.json")
    with open(manifest_p) as f:
        m1 = json.load(f)
    kg_construct(batch, base, cfg, num_partitions=8,
                 input_fingerprint="batch-200", append=True)
    with open(manifest_p) as f:
        m2 = json.load(f)
    assert m1 == m2
    assert _file_stats(tr_dir) == after


def test_append_requires_existing_output(ray_session, tmp_path):
    from kgray.corpus import interleaved_dataset
    from kgray.pipeline import kg_construct

    with pytest.raises(ValueError):
        kg_construct(interleaved_dataset(50, seed=42),
                     str(tmp_path / "missing"), append=True,
                     input_fingerprint="x")


def test_rebuild_without_fingerprint_reuses_nothing(ray_session, tmp_path):
    """A non-append build with the default (empty) input fingerprint over
    an existing output is a rebuild: an empty fingerprint names no input,
    so no stored triples partition counts as done, and the triples hold
    exactly the new docs, as a fresh build of them does."""
    from kgray import io
    from kgray.corpus import interleaved_dataset
    from kgray.pipeline import kg_construct

    out = str(tmp_path / "kg")
    kg_construct(interleaved_dataset(40), out)
    kg_construct(interleaved_dataset(40, start=1000), out)
    fresh = str(tmp_path / "fresh")
    kg_construct(interleaved_dataset(40, start=1000), fresh)

    def doc_ids(root):
        ds = io.read_table(os.path.join(root, "triples"), columns=["doc_id"])
        return set(ds.to_pandas()["doc_id"])

    got = doc_ids(out)
    assert got and got == doc_ids(fresh)
    assert all(int(d.split("-")[1]) >= 1000 for d in got)


def test_link_from_mentions_incremental_equals_full_minus_old(ray_session):
    """Paths-agree: full link over M1+N == stored(M1) union
    incremental(new_keys=N) — on a mention table with genuine new keys
    that bridge old ones."""
    import pyarrow as pa
    import ray.data as rd

    from kgray.ops.linking import _SEP, link_from_mentions

    old_keys = [f"人物{_SEP}张三丰{i}" for i in range(20)]
    new_keys = [f"人物{_SEP}张三丰1x", f"人物{_SEP}李四新"]

    def tbl(keys):
        return rd.from_arrow(pa.table(
            {"mention_key": pa.array(keys, pa.string()),
             "n": pa.array([1] * len(keys), pa.int64())}
        ))

    full = link_from_mentions(tbl(old_keys + new_keys), tau=0.5) \
        .to_pandas().sort_values(["u", "v"], ignore_index=True)
    old = link_from_mentions(tbl(old_keys), tau=0.5).to_pandas()
    inc = link_from_mentions(tbl(old_keys + new_keys),
                             new_keys=frozenset(new_keys), tau=0.5) \
        .to_pandas()
    # incremental edges all touch a new key
    nk = set(new_keys)
    assert ((inc["u"].isin(nk)) | (inc["v"].isin(nk))).all()
    merged = pd.concat([old, inc], ignore_index=True) \
        .drop_duplicates(["u", "v"]) \
        .sort_values(["u", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(full, merged)


def test_entities_changed_detection(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from kgray.pipeline import _entities_changed

    old = rd.from_arrow(pa.table(
        {"node": pa.array(["b", "c"]), "component": pa.array(["b", "c"])}
    ))
    same = rd.from_arrow(pa.table(
        {"node": pa.array(["b", "c", "d"]),
         "component": pa.array(["b", "c", "b"])}
    ))
    merged = rd.from_arrow(pa.table(
        {"node": pa.array(["a", "b", "c"]),
         "component": pa.array(["a", "a", "c"])}
    ))
    assert not _entities_changed(old, same)   # new node joined, old kept
    assert _entities_changed(old, merged)     # old b relabeled to a


def test_entities_changed_gates_both_maps(ray_session, monkeypatch):
    """Old map under the driver gate, new (grown) map above it: the diff
    must take the partitioned bucket join, not collect the new map, and
    give the same answer as the all-driver diff."""
    import pyarrow as pa
    import ray.data as rd

    from kgray import pipeline
    from kgray.ops import joins
    from kgray.pipeline import _entities_changed

    calls = []
    real = joins.bucket_join

    def counting(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(joins, "bucket_join", counting)

    def emap(nodes, comps):
        return rd.from_arrow(pa.table(
            {"node": pa.array(nodes), "component": pa.array(comps)}))

    old = emap(["b", "c"], ["b", "c"])
    same = emap(["b", "c", "d", "e"], ["b", "c", "b", "c"])
    merged = emap(["a", "b", "c", "d"], ["a", "a", "c", "c"])
    for new, want in ((same, False), (merged, True)):
        monkeypatch.setattr(pipeline, "MAX_DRIVER_ROWS", 100)
        assert _entities_changed(old, new) is want
        assert not calls  # both maps fit: in-process diff
        monkeypatch.setattr(pipeline, "MAX_DRIVER_ROWS", 3)
        assert _entities_changed(old, new) is want
        assert calls  # 2 old rows <= 3 < 4 new rows: partitioned
        calls.clear()


def test_append_batch_without_new_mentions(ray_session, tmp_path):
    """A batch whose every mention is already known (same texts under
    fresh doc ids) appends its triples and leaves the link edges as they
    were: the empty first-seen key set must not crash the append."""
    import pyarrow.compute as pc

    from kgray import io
    from kgray.corpus import interleaved_dataset
    from kgray.pipeline import PipelineConfig, kg_construct

    cfg = PipelineConfig()
    out = str(tmp_path / "kg")
    docs = interleaved_dataset(600, seed=5).materialize()
    kg_construct(docs, out, cfg, num_partitions=4, input_fingerprint="b")
    edges0 = _canon_df(io.read_table(os.path.join(out, "edges")))
    n0 = io.read_table(os.path.join(out, "triples")).count()

    again = docs.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("doc_id"), "doc_id",
            pc.utf8_replace_slice(b["doc_id"], 0, 3, "dup")),
        batch_format="pyarrow")
    kg_construct(again, out, cfg, num_partitions=4, input_fingerprint="a1",
                 append=True)
    assert io.read_table(os.path.join(out, "triples")).count() == 2 * n0
    pd.testing.assert_frame_equal(
        _canon_df(io.read_table(os.path.join(out, "edges"))), edges0)


TABLES = ("triples", "mentions", "edges", "entities", "triples_canonical")


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced"])
@pytest.mark.parametrize("case", ["empty_build", "empty_append",
                                  "append_onto_empty"])
def test_kg_construct_empty_inputs(ray_session, tmp_path, monkeypatch,
                                   case, forced):
    """A corpus or batch without documents builds: an empty build writes
    all five tables with 0 rows, an empty append batch leaves every
    table as it was, and an append onto an empty base gives the tables a
    fresh build of the same docs gives."""
    from kgray import io
    from kgray.corpus import interleaved_dataset
    from kgray.pipeline import kg_construct

    if forced:
        monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")

    def rows(manifests):
        return {t: sum(p["rows"] for p in m["partitions"].values())
                for t, m in manifests.items()}

    def table(out, name):
        ds = io.read_table(os.path.join(out, name))
        return None if ds is None else _canon_df(ds)

    out = str(tmp_path / "kg")
    n_base = 60 if case == "empty_append" else 0
    base = kg_construct(interleaved_dataset(n_base, seed=42), out,
                        num_partitions=4, input_fingerprint="base")
    if case == "empty_build":
        assert rows(base) == dict.fromkeys(TABLES, 0)
        return
    n_batch = 0 if case == "empty_append" else 60
    before = {name: table(out, name) for name in TABLES}
    appended = kg_construct(
        interleaved_dataset(n_batch, seed=42, start=n_base), out,
        num_partitions=4, input_fingerprint="batch", append=True)
    if case == "empty_append":
        assert rows(appended) == rows(base)
        want = before
    else:
        fresh = str(tmp_path / "fresh")
        kg_construct(interleaved_dataset(60, seed=42), fresh,
                     num_partitions=4, input_fingerprint="fresh")
        want = {name: table(fresh, name) for name in TABLES}
    for name in TABLES:
        a, b = table(out, name), want[name]
        assert (a is None) == (b is None), name
        if a is not None:
            pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced"])
def test_append_links_new_keys_over_mentions_in_memory(ray_session, tmp_path,
                                                       monkeypatch, forced):
    """An append batch whose first-seen mentions share band buckets with
    old ones (each subject of 3+ chars made one char longer) adds link
    edges; the stored edges then equal a full link over the stored
    mentions, and the edges stage links over the mention table the
    mentions stage returned instead of reading ``mentions/`` back."""
    import pyarrow as pa
    import ray.data as rd

    from kgray import io
    from kgray.corpus import doc_ids_for_range, interleave, make_sentence
    from kgray.ops.linking import link_from_mentions
    from kgray.pipeline import kg_construct
    from kgray.schema import DOCUMENTS_INTERLEAVED

    if forced:
        monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")

    def docs(rows):
        return rd.from_arrow(pa.Table.from_pylist(
            [interleave(42, r) for r in rows], schema=DOCUMENTS_INTERLEAVED))

    rows = [make_sentence(42, d) for d in doc_ids_for_range(0, 40)]
    batch = []
    for i, r in enumerate(rows[:10]):
        text = r["text"]
        for spo in r["spo_list"]:
            if len(spo["subject"]) >= 3:
                text = text.replace(spo["subject"], spo["subject"] + "甲")
        batch.append({"doc_id": f"new-{i:04d}", "text": text})

    out = str(tmp_path / "kg")
    kg_construct(docs(rows), out, num_partitions=4, input_fingerprint="base")
    edges0 = io.read_table(os.path.join(out, "edges"))
    n0 = 0 if edges0 is None else edges0.count()

    reads = []
    real = io.read_table

    def counting(path, *a, **k):
        reads.append(os.path.basename(os.path.normpath(path)))
        return real(path, *a, **k)

    monkeypatch.setattr(io, "read_table", counting)
    kg_construct(docs(batch), out, num_partitions=4, input_fingerprint="b1",
                 append=True)
    # the mentions stage reads the stored table once to union the batch
    # in; the edges stage links over that union, never a second read
    assert reads.count("mentions") == 1
    monkeypatch.setattr(io, "read_table", real)

    edges = _canon_df(io.read_table(os.path.join(out, "edges")))
    assert len(edges) > n0
    full = _canon_df(link_from_mentions(
        io.read_table(os.path.join(out, "mentions"))))
    pd.testing.assert_frame_equal(edges, full)
