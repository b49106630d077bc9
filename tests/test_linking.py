"""Entity linking, canonicalization, and resumable materialization tests."""

import os

import pyarrow as pa
import pytest
import ray.data as rd

from kgray.ops.dedup import batch_signatures
from kgray.ops.linking import (
    BandEmitter,
    jaccard,
    link_mentions,
    mention_key,
    mentions_from_triples,
    _hash_params,
    shingles,
)


def _triples(rows):
    return rd.from_items(rows)


def test_shingles_and_jaccard():
    assert shingles("端脑") == {"端脑"}
    assert shingles("abc") == {"ab", "bc"}
    assert jaccard("维克多·谢阁兰", "维克多谢阁兰") > 0.5
    assert jaccard("abc", "xyz") == 0.0


def test_minhash_similarity_monotone():
    p = _hash_params(64)
    a, b, c = batch_signatures(
        [shingles(s) for s in ("维克多·谢阁兰", "维克多谢阁兰", "完全无关的字符串")],
        p,
    )
    sim_ab = (a == b).mean()
    sim_ac = (a == c).mean()
    assert sim_ab > sim_ac
    # deterministic
    assert (batch_signatures([shingles("维克多·谢阁兰")], p)[0] == a).all()


def test_mentions_dedup_and_count():
    t = _triples(
        [
            {"subject": "端脑", "subject_type": "影视作品", "predicate": "主演",
             "object": "朱元冰", "object_type": "人物"},
            {"subject": "端脑", "subject_type": "影视作品", "predicate": "主演",
             "object": "蒋依依", "object_type": "人物"},
        ]
    )
    m = mentions_from_triples(t).to_pandas()
    got = dict(zip(m["mention_key"], m["n"]))
    assert got[mention_key("影视作品", "端脑")] == 2
    assert got[mention_key("人物", "朱元冰")] == 1
    assert len(got) == 3


def test_link_mentions_finds_alias_edge():
    rows = [
        {"subject": "维克多·谢阁兰", "subject_type": "人物", "predicate": "作者",
         "object": "碑", "object_type": "图书作品"},
        {"subject": "维克多谢阁兰", "subject_type": "人物", "predicate": "作者",
         "object": "别的书", "object_type": "图书作品"},
        {"subject": "无关人名", "subject_type": "人物", "predicate": "作者",
         "object": "第三本书", "object_type": "图书作品"},
    ]
    edges = link_mentions(_triples(rows), tau=0.5).to_pandas()
    pairs = {frozenset((u, v)) for u, v in zip(edges["u"], edges["v"])}
    expected = frozenset(
        (mention_key("人物", "维克多·谢阁兰"), mention_key("人物", "维克多谢阁兰"))
    )
    assert expected in pairs
    # no cross-type or dissimilar edges
    for u, v in zip(edges["u"], edges["v"]):
        assert u.split("\x1f")[0] == v.split("\x1f")[0]


def test_connected_components_two_clusters():
    from kgray.ops.canonical import connected_components

    edges = rd.from_items(
        [
            {"u": "b", "v": "a", "sim": 1.0},
            {"u": "b", "v": "c", "sim": 1.0},
            {"u": "x", "v": "y", "sim": 1.0},
        ]
    )
    comp = connected_components(edges).to_pandas()
    m = dict(zip(comp["node"], comp["component"]))
    assert m["a"] == m["b"] == m["c"] == "a"
    assert m["x"] == m["y"] == "x"
    assert m["a"] != m["x"]


def test_connected_components_driver_and_distributed_agree(monkeypatch):
    """The small-graph driver union-find gate must emit exactly the
    distributed min-label-propagation result (incl. a 6-node chain that
    needs multiple propagation rounds)."""
    from kgray.ops.canonical import connected_components

    items = [
        {"u": f"n{i}", "v": f"n{i + 1}", "sim": 1.0} for i in range(5)
    ] + [{"u": "q2", "v": "q1", "sim": 1.0}, {"u": "z", "v": "q2", "sim": 1.0}]
    drv = (
        connected_components(rd.from_items(items))
        .to_pandas().sort_values("node", ignore_index=True)
    )
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist = (
        connected_components(rd.from_items(items))
        .to_pandas().sort_values("node", ignore_index=True)
    )
    assert drv.equals(dist)
    m = dict(zip(drv["node"], drv["component"]))
    assert all(m[f"n{i}"] == "n0" for i in range(6))
    assert m["z"] == m["q1"] == m["q2"] == "q1"


def test_canonicalize_triples_rewrites_aliases():
    from kgray.ops.canonical import canonicalize_triples

    triples = _triples(
        [
            {"doc_id": "d1", "subject": "维克多·谢阁兰", "subject_type": "人物",
             "predicate": "作者", "object": "碑", "object_type": "图书作品",
             "schema_id": 1},
            {"doc_id": "d2", "subject": "维克多谢阁兰", "subject_type": "人物",
             "predicate": "作者", "object": "碑", "object_type": "图书作品",
             "schema_id": 1},
        ]
    )
    k1 = mention_key("人物", "维克多·谢阁兰")
    k2 = mention_key("人物", "维克多谢阁兰")
    canonical = min(k1, k2)
    entity_map = rd.from_items(
        [{"node": k1, "component": canonical}, {"node": k2, "component": canonical}]
    )
    out = canonicalize_triples(triples, entity_map).to_pandas()
    assert set(out["subject_canonical"]) == {canonical}
    # objects had no component -> identity surface key
    assert set(out["object_canonical"]) == {mention_key("图书作品", "碑")}


def test_write_partitioned_manifest_and_resume(tmp_path):
    from kgray import io

    rows = [{"doc_id": f"doc-{i:04d}", "val": i} for i in range(200)]
    path = str(tmp_path / "t")
    m = io.write_partitioned(
        rd.from_items(rows), path, "doc_id", num_partitions=8,
        stage="test", input_fingerprint="fp1",
    )
    assert sum(p["rows"] for p in m["partitions"].values()) == 200
    assert len(m["partitions"]) == 8

    # determinism of the content hash
    m2 = io.read_manifest(path)
    assert m2["partitions"] == m["partitions"]

    done = io.completed_partitions(path, "fp1")
    assert done == set(range(8))
    assert io.completed_partitions(path, "other-fp") == set()

    pending = io.filter_pending(
        rd.from_items(rows), "doc_id", 8, done={0, 1, 2, 3, 4, 5, 6}
    )
    remaining = pending.count()
    assert 0 < remaining < 200
    from kgray.io import partition_of

    expect = sum(1 for r in rows if partition_of([r["doc_id"]], 8)[0] == 7)
    assert remaining == expect


def test_write_partitioned_crash_hygiene(tmp_path):
    """A file left by a crashed attempt (on disk, not in the manifest) must
    not be read back or survive a resume-write (ADVICE round 1: silent row
    duplication on resume)."""
    import shutil

    from kgray import io

    rows = [{"doc_id": f"doc-{i:04d}", "val": i} for i in range(100)]
    path = str(tmp_path / "t")
    io.write_partitioned(
        rd.from_items(rows), path, "doc_id", num_partitions=4,
        stage="test", input_fingerprint="fp1",
    )
    assert io.read_table(path).count() == 100

    # plant a stale duplicate file inside a completed partition
    data_dir = os.path.join(path, "data")
    pdir = os.path.join(data_dir, "part=0")
    legit = [f for f in os.listdir(pdir) if f.endswith(".parquet")]
    stale = os.path.join(pdir, "deadbeef-stale.parquet")
    shutil.copy(os.path.join(pdir, legit[0]), stale)

    # readers only see manifest-attested files
    assert io.read_table(path).count() == 100

    # resume-write (nothing pending) cleans the stale file, keeps the rest
    done = io.completed_partitions(path, "fp1")
    pending = io.filter_pending(rd.from_items(rows), "doc_id", 4, done)
    m = io.write_partitioned(
        pending, path, "doc_id", num_partitions=4,
        stage="test", input_fingerprint="fp1", keep_partitions=done,
    )
    assert not os.path.exists(stale)
    assert sum(p["rows"] for p in m["partitions"].values()) == 100
    assert io.read_table(path).count() == 100


def test_hygiene_spares_pre_files_manifest(tmp_path):
    """A manifest whose partitions list no files attests nothing: a
    resume-write over it and a read of it raise KeyError, and the write
    raises before any parquet file on disk is deleted (the kept
    partitions' data is never lost to a hygiene pass)."""
    import glob
    import json

    from kgray import io

    rows = [{"doc_id": f"doc-{i:04d}", "val": i} for i in range(100)]
    path = str(tmp_path / "t")
    io.write_partitioned(
        rd.from_items(rows), path, "doc_id", num_partitions=4,
        stage="test", input_fingerprint="fp1",
    )
    # rewrite the manifest as the old format: strip every 'files' list
    mpath = os.path.join(path, "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    for meta in m["partitions"].values():
        meta.pop("files")
    with open(mpath, "w") as f:
        json.dump(m, f)

    before = sorted(glob.glob(os.path.join(path, "data", "*", "*.parquet")))
    assert len(before) >= 4
    done = io.completed_partitions(path, "fp1")
    assert done == set(range(4))
    pending = io.filter_pending(rd.from_items(rows), "doc_id", 4, done)
    with pytest.raises(KeyError):
        io.write_partitioned(
            pending, path, "doc_id", num_partitions=4,
            stage="test", input_fingerprint="fp1", keep_partitions=done,
        )
    with pytest.raises(KeyError):
        io.read_table(path)
    after = sorted(glob.glob(os.path.join(path, "data", "*", "*.parquet")))
    assert before == after  # no kept-partition file was deleted


def test_kg_construct_end_to_end(tmp_path):
    from kgray.corpus import doc_ids_for_range, interleaved_table
    from kgray.pipeline import PipelineConfig, kg_construct

    docs = rd.from_arrow(interleaved_table(doc_ids_for_range(0, 60), seed=42))
    cfg = PipelineConfig()
    out = str(tmp_path / "kg")
    manifests = kg_construct(docs, out, cfg, num_partitions=4)
    assert set(manifests) == {"triples", "mentions", "edges",
                          "entities", "triples_canonical"}
    n_triples = sum(p["rows"] for p in manifests["triples"]["partitions"].values())
    n_canon = sum(
        p["rows"] for p in manifests["triples_canonical"]["partitions"].values()
    )
    assert n_triples > 50 and n_canon == n_triples
    assert os.path.exists(os.path.join(out, "triples", "manifest.json"))

    # resume: re-running with the same fingerprint extracts nothing new
    docs2 = rd.from_arrow(interleaved_table(doc_ids_for_range(0, 60), seed=42))
    manifests2 = kg_construct(docs2, out, cfg, num_partitions=4)
    n_again = sum(p["rows"] for p in manifests2["triples"]["partitions"].values())
    assert n_again == n_triples


def test_link_mentions_embedding_finds_alias_edge(ray_session):
    """The embedding-blocked variant must link the dotted/undotted alias
    surfaces of the same person (char-bigram cosine is high)."""
    import ray.data as rd

    from kgray.ops.linking import link_mentions_embedding, mention_key

    rows = []
    for i, (s, o) in enumerate(
        [("维克多·谢阁兰", "某书"), ("维克多谢阁兰", "某书"),
         ("张三", "李四"), ("完全无关", "别的")]
    ):
        rows.append(
            {
                "doc_id": f"d{i}", "subject": s, "subject_type": "人物",
                "predicate": "作者", "object": o, "object_type": "图书作品",
                "schema_id": 0,
            }
        )
    triples = rd.from_items(rows)
    edges = link_mentions_embedding(triples, tau=0.7).to_pandas()
    pair = {
        mention_key("人物", "维克多·谢阁兰"),
        mention_key("人物", "维克多谢阁兰"),
    }
    assert any(set(r) >= pair or {r[0], r[1]} == pair
               for r in edges[["u", "v"]].itertuples(index=False)), edges


def test_kg_construct_skips_downstream_on_unchanged_triples(tmp_path):
    """Lineage fingerprints: a resume whose triples are unchanged must
    SKIP link+CC and canonicalize — proven by the entities/canonical
    manifests listing the IDENTICAL files (a rerun would write new
    uuid-named files)."""
    from kgray.corpus import doc_ids_for_range, interleaved_table
    from kgray.pipeline import PipelineConfig, kg_construct

    docs = rd.from_arrow(interleaved_table(doc_ids_for_range(0, 150), seed=42))
    cfg = PipelineConfig()
    out = str(tmp_path / "kg")
    m1 = kg_construct(docs, out, cfg, num_partitions=4, tau=0.5,
                      input_fingerprint="fp-lineage")
    assert sum(
        p["rows"] for p in m1["entities"]["partitions"].values()
    ) > 0  # corpus must yield link edges or the file compare is vacuous

    docs2 = rd.from_arrow(interleaved_table(doc_ids_for_range(0, 150), seed=42))
    m2 = kg_construct(docs2, out, cfg, num_partitions=4, tau=0.5,
                      input_fingerprint="fp-lineage")

    def files(m):
        return {p: tuple(meta["files"]) for p, meta in m["partitions"].items()}

    assert files(m2["entities"]) == files(m1["entities"])
    assert files(m2["triples_canonical"]) == files(m1["triples_canonical"])
    assert files(m2["triples"]) == files(m1["triples"])

    # a CHANGED input fingerprint forces re-extraction (triples files are
    # uuid-fresh), but downstream stage keys are CONTENT hashes (round-4
    # append-mode change): identical re-extracted bytes -> entities and
    # canonical still skip.  Downstream derivations depend on upstream
    # bytes, not on the provenance chain's spelling.
    docs3 = rd.from_arrow(interleaved_table(doc_ids_for_range(0, 150), seed=42))
    m3 = kg_construct(docs3, out, cfg, num_partitions=4, tau=0.5,
                      input_fingerprint="fp-other")
    assert files(m3["triples"]) != files(m1["triples"])
    assert files(m3["entities"]) == files(m1["entities"])
    assert files(m3["triples_canonical"]) == files(m1["triples_canonical"])


def test_write_partitioned_sigkill_midwrite_resume_exactly_once(
    tmp_path, ray_session
):
    """Chaos test for the exactly-once write contract: a real writer
    process is SIGKILLed while its parquet slices are landing (after
    files exist, before its manifest commit), then the parent resumes —
    the resumed table must hold each row exactly once and byte-match a
    clean one-shot write (io.py hygiene design, proven not just argued)."""
    import subprocess
    import sys
    import time

    from kgray import io

    N, P = 3000, 8
    out = str(tmp_path / "tbl")
    data_dir = os.path.join(out, "data")

    def full_ds():
        def gen(batch):
            ids = [int(i) for i in batch["id"]]
            return pa.table(
                {
                    "doc_id": pa.array([f"d{i:05d}" for i in ids]),
                    "val": pa.array(ids, pa.int64()),
                }
            )

        return rd.range(N, override_num_blocks=30).map_batches(
            gen, batch_format="numpy", batch_size=100
        )

    # phase 1: a completed partial run attests partitions {0, 1, 2}
    from kgray.io import partition_of

    def only_first_parts(batch: pa.Table) -> pa.Table:
        part = partition_of(batch["doc_id"].to_pylist(), P)
        return batch.filter(pa.array(part < 3))

    io.write_partitioned(
        full_ds().map_batches(only_first_parts, batch_format="pyarrow"),
        out, "doc_id", P, stage="chaos", input_fingerprint="fp1",
    )
    assert io.completed_partitions(out, "fp1") == {0, 1, 2}

    # phase 2: a separate writer process resumes the remaining partitions
    # (slowly) and is SIGKILLed once its slices start landing
    child_src = f"""
import time
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False)
import ray.data as rd
import pyarrow as pa
from kgray import io

def gen(batch):
    time.sleep(0.4)  # stretch the write window for the parent's kill
    ids = [int(i) for i in batch["id"]]
    return pa.table(
        {{"doc_id": pa.array([f"d{{i:05d}}" for i in ids]),
          "val": pa.array(ids, pa.int64())}}
    )

ds = rd.range({N}, override_num_blocks=30).map_batches(
    gen, batch_format="numpy", batch_size=100
)
done = io.completed_partitions({out!r}, "fp1")
io.write_partitioned(
    io.filter_pending(ds, "doc_id", {P}, done), {out!r}, "doc_id", {P},
    stage="chaos", input_fingerprint="fp1", keep_partitions=done,
)
"""
    proc = subprocess.Popen(
        [sys.executable, "-c", child_src],
        cwd="/root/repo",
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    before = {
        f
        for m in io.read_manifest(out)["partitions"].values()
        for f in m["files"]
    }
    deadline = time.time() + 180
    killed = False
    while time.time() < deadline:
        on_disk = {
            os.path.join(e, f)
            for e in os.listdir(data_dir)
            for f in os.listdir(os.path.join(data_dir, e))
        }
        if len(on_disk - before) >= 2:  # new slices landing: kill NOW
            proc.kill()
            killed = True
            break
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    proc.wait(timeout=60)
    assert killed, "writer finished before the kill window (slow down gen)"
    # crash state: orphaned slices on disk, manifest still the phase-1 one
    assert io.completed_partitions(out, "fp1") == {0, 1, 2}

    # phase 3: resume properly in this session
    done = io.completed_partitions(out, "fp1")
    io.write_partitioned(
        io.filter_pending(full_ds(), "doc_id", P, done), out, "doc_id", P,
        stage="chaos", input_fingerprint="fp1", keep_partitions=done,
    )
    got = (
        io.read_table(out)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert len(got) == N
    assert got["doc_id"].is_unique
    clean_dir = str(tmp_path / "clean")
    io.write_partitioned(
        full_ds(), clean_dir, "doc_id", P, stage="chaos",
        input_fingerprint="fp1",
    )
    clean = (
        io.read_table(clean_dir)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert got.equals(clean)
    fp_resumed = io.manifest_fingerprint(io.read_manifest(out))
    fp_clean = io.manifest_fingerprint(io.read_manifest(clean_dir))
    assert fp_resumed == fp_clean


@pytest.mark.parametrize("with_new_keys", [False, True])
def test_link_paths_agree(ray_session, monkeypatch, with_new_keys):
    """link_from_mentions' in-process driver path and its forced
    distributed banded-cogroup path emit the same edge set, with and
    without the append-mode ``new_keys`` restriction; link_mentions is
    the same computation over triples."""
    import pyarrow as pa
    import ray.data as rd

    from kgray.ops.linking import link_from_mentions

    names = [f"维克多谢阁兰{i}" for i in range(12)] + \
        [f"维克多·谢阁兰{i}" for i in range(12)] + ["无关人名", "第三本书"]
    keys = [mention_key("人物", n) for n in names]
    ments = rd.from_arrow(pa.table({
        "mention_key": pa.array(keys, pa.string()),
        "n": pa.array([1] * len(keys), pa.int64())}))
    new_keys = frozenset(keys[::5]) if with_new_keys else None

    def edge_set(ds):
        df = ds.to_pandas()
        return {(u, v, round(s, 9))
                for u, v, s in zip(df["u"], df["v"], df["sim"])}

    driver = edge_set(link_from_mentions(ments, new_keys=new_keys, tau=0.5))
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    forced = edge_set(link_from_mentions(ments, new_keys=new_keys, tau=0.5))
    assert driver and driver == forced
    if with_new_keys:
        assert all(u in new_keys or v in new_keys for u, v, _ in driver)
    else:
        rows = [{"subject": n, "subject_type": "人物", "predicate": "作者",
                 "object": "碑", "object_type": "图书作品"} for n in names]
        via_triples = edge_set(link_mentions(_triples(rows), tau=0.5))
        assert {e for e in via_triples if e[0].startswith("人物")} == driver
