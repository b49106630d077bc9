"""At-scale default selection for the dedup family: IVF-bucketed
embedding dedup vs the exact brute oracle, and the minhash broadcast
auto-gate."""

import numpy as np
import pytest
import ray.data as rd


def _clustered_embeddings(n_clusters=40, per_cluster=5, d=16, seed=3):
    """Planted near-dup clusters: members of a cluster have cos >= ~0.99,
    cross-cluster cos well below 0.9."""
    rs = np.random.RandomState(seed)
    rows = []
    vid = 0
    for _ in range(n_clusters):
        base = rs.normal(size=d)
        base /= np.linalg.norm(base)
        for _ in range(per_cluster):
            v = base + rs.normal(scale=0.02, size=d)
            rows.append({"vec_id": vid, "embedding": (v / np.linalg.norm(v)).tolist()})
            vid += 1
    return rd.from_items(rows)


def test_ivf_matches_brute_on_near_dup_clusters(ray_session):
    """At realistic near-dup tau the bucketed scale path must find every
    pair the exact path finds (same bucket for genuinely-close vectors)."""
    from kgray.ops.dedup import embedding_dup_pairs

    emb = _clustered_embeddings()
    key = ["u", "v"]
    brute = (
        embedding_dup_pairs(emb, tau=0.95, strategy="brute")
        .to_pandas().sort_values(key, ignore_index=True)
    )
    ivf = (
        embedding_dup_pairs(emb, tau=0.95, strategy="ivf")
        .to_pandas().sort_values(key, ignore_index=True)
    )
    assert len(brute) > 100
    assert brute[key].equals(ivf[key])
    np.testing.assert_allclose(brute["cos"], ivf["cos"])


def test_auto_strategy_gates_on_row_count(ray_session, monkeypatch):
    from kgray.ops import dedup

    emb = _clustered_embeddings(n_clusters=4, per_cluster=3)
    # tiny input + auto -> brute (exact); force the gate the other way
    # (a row cap, not KGRAY_FORCE_DISTRIBUTED, so auto picks ivf)
    auto = dedup.embedding_dup_pairs(emb, tau=0.95).to_pandas()
    monkeypatch.setattr(dedup, "MAX_BRUTE_ROWS", 1)
    forced = dedup.embedding_dup_pairs(emb, tau=0.95).to_pandas()
    assert set(map(tuple, auto[["u", "v"]].values)) == set(
        map(tuple, forced[["u", "v"]].values)
    )


def test_minhash_auto_broadcast_paths_agree(ray_session, monkeypatch):
    """Auto-select, the broadcast-texts plan and the forced bucket-join
    fallback give identical pairs."""
    from kgray.ops import dedup
    from kgray.ops.dedup import minhash_dup_pairs

    rs = np.random.RandomState(11)
    words = [f"w{i}" for i in range(50)]
    docs = []
    for i in range(0, 60, 2):
        toks = [words[rs.randint(50)] for _ in range(30)]
        near = list(toks)
        near[0] = words[rs.randint(50)]
        docs.append({"doc_id": i, "text": " ".join(toks)})
        docs.append({"doc_id": i + 1, "text": " ".join(near)})
    ds = rd.from_items(docs)
    key = ["u", "v"]
    auto = (
        minhash_dup_pairs(ds, tau=0.7)
        .to_pandas().sort_values(key, ignore_index=True)
    )
    # no in-process call: the input is under the broadcast gate
    monkeypatch.setattr(dedup, "MAX_DRIVER_BYTES", 0)
    bc = (
        minhash_dup_pairs(ds, tau=0.7)
        .to_pandas().sort_values(key, ignore_index=True)
    )
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    bj = (
        minhash_dup_pairs(ds, tau=0.7)
        .to_pandas().sort_values(key, ignore_index=True)
    )
    assert len(bc) > 10
    assert bc.equals(bj)
    assert bc.equals(auto)


def test_semi_join_broadcast_and_bucket_paths_agree(ray_session,
                                                     monkeypatch):
    from kgray.ops.joins import semi_join

    left = rd.from_items(
        [{"k": i, "val": f"v{i}"} for i in range(40)]
    )
    right = rd.from_items([{"rk": i} for i in list(range(0, 40, 3)) * 2])

    for anti in (False, True):
        bc = (
            semi_join(left, right, on="k", right_on="rk", anti=anti)
            .to_pandas().sort_values("k", ignore_index=True)
        )
        monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
        bk = (
            semi_join(left, right, on="k", right_on="rk", anti=anti)
            .to_pandas().sort_values("k", ignore_index=True)
        )
        monkeypatch.delenv("KGRAY_FORCE_DISTRIBUTED")
        want = sorted(
            i for i in range(40) if (i % 3 == 0) != anti
        )
        assert bc["k"].tolist() == want
        assert bk["k"].tolist() == want
        assert bc[["k", "val"]].equals(bk[["k", "val"]])


def test_asof_join_backward_semantics(ray_session):
    import pandas as pd

    from kgray.ops.joins import asof_join

    left = rd.from_items(
        [
            {"k": 1, "t": 10, "lv": "a"},
            {"k": 1, "t": 20, "lv": "b"},
            {"k": 1, "t": 5, "lv": "c"},   # before any right row
            {"k": 2, "t": 10, "lv": "d"},  # key with no right rows
        ]
    )
    right = rd.from_items(
        [
            {"k": 1, "t": 8, "rv": "r8"},
            {"k": 1, "t": 10, "rv": "r10"},
            {"k": 1, "t": 15, "rv": "r15"},
        ]
    )
    out = (
        asof_join(left, right, key="k", time_col="t")
        .to_pandas().sort_values(["k", "t"], ignore_index=True)
    )
    got = {(r["k"], r["t"]): r["rv"] for _, r in out.iterrows()}
    assert got[(1, 10)] == "r10"   # exact match allowed
    assert got[(1, 20)] == "r15"   # latest prior
    assert pd.isna(got[(1, 5)])    # nothing before
    assert pd.isna(got[(2, 10)])   # key absent from right


def test_ngram_bucket_count_path_matches_broadcast(ray_session, monkeypatch):
    from kgray.ops.dedup import ngram_jaccard_pairs

    rs = np.random.RandomState(9)
    words = [f"w{i}" for i in range(40)]
    docs = []
    for i in range(0, 30, 2):
        toks = [words[rs.randint(40)] for _ in range(20)]
        near = list(toks)
        near[-1] = words[rs.randint(40)]
        docs.append({"doc_id": i, "text": " ".join(toks)})
        docs.append({"doc_id": i + 1, "text": " ".join(near)})
    ds = rd.from_items(docs)
    key = ["u", "v"]
    bc = (
        ngram_jaccard_pairs(ds, tau=0.7)
        .to_pandas().sort_values(key, ignore_index=True)
    )
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    bk = (
        ngram_jaccard_pairs(ds, tau=0.7)
        .to_pandas().sort_values(key, ignore_index=True)
    )
    assert len(bc) > 5
    assert bc.equals(bk)


def test_simhash_driver_and_distributed_paths_agree(ray_session,
                                                    monkeypatch):
    """The small-side in-process gate and the distributed blocked path
    return identical (u, v, hamming) rows."""
    from kgray.ops.dedup import simhash_dup_pairs

    rs = np.random.RandomState(5)
    words = [f"w{i}" for i in range(60)]
    docs = []
    for i in range(0, 50, 2):
        toks = [words[rs.randint(60)] for _ in range(40)]
        near = list(toks)
        near[3] = words[rs.randint(60)]
        docs.append({"doc_id": i, "text": " ".join(toks)})
        docs.append({"doc_id": i + 1, "text": " ".join(near)})
    ds = rd.from_items(docs)
    key = ["u", "v"]
    drv = (
        simhash_dup_pairs(ds, max_hamming=3)
        .to_pandas().sort_values(key, ignore_index=True)
    )
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist = (
        simhash_dup_pairs(ds, max_hamming=3)
        .to_pandas().sort_values(key, ignore_index=True)
    )
    assert len(drv) > 5
    assert drv.equals(dist)


def test_connected_components_int_keys(ray_session):
    """CC must preserve the edge key dtype (doc ids are int64, mention
    keys are strings)."""
    import pyarrow as pa

    from kgray.ops.canonical import connected_components

    edges = rd.from_arrow(pa.table({
        "u": pa.array([1, 2, 10], pa.int64()),
        "v": pa.array([2, 3, 11], pa.int64()),
    }))
    got = connected_components(edges).to_pandas()
    assert got["node"].dtype.kind == "i"
    comp = dict(zip(got["node"], got["component"]))
    assert comp == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}


def test_near_dup_purge_keeps_min_per_cluster(ray_session):
    """minhash pairs -> CC -> anti-join purge keeps exactly the min-id
    representative of each planted near-dup cluster plus all singletons."""
    import pyarrow as pa

    from kgray.ops.canonical import connected_components
    from kgray.ops.dedup import minhash_dup_pairs
    from kgray.ops.joins import semi_join

    base = "the quick brown fox jumps over the lazy dog again and again"
    texts = {
        5: base, 9: base + " x", 3: base + " y",       # one cluster, min 3
        20: "completely different words " * 3,          # singleton
        30: "another unrelated document body " * 3,     # singleton
    }
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[i] for i in sorted(texts)], pa.string()),
    }))
    pairs = minhash_dup_pairs(docs, tau=0.7)
    comp = connected_components(pairs)
    import pyarrow.compute as pc

    dropped = comp.map_batches(
        lambda t: pa.table(
            {"node": t.filter(pc.not_equal(t["node"], t["component"]))["node"]}
        ),
        batch_format="pyarrow",
    )
    kept = semi_join(docs, dropped, on="doc_id", right_on="node", anti=True)
    assert sorted(kept.to_pandas()["doc_id"]) == [3, 20, 30]


def test_label_centroids_match_numpy_means(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from kgray.ops.similarity import label_centroids

    rng = np.random.default_rng(3)
    n, d = 300, 5
    emb = rng.normal(size=(n, d)).astype(np.float32)
    lab = rng.integers(0, 4, n)
    df = pd.DataFrame({"label": lab, "embedding": [v.tolist() for v in emb]})
    out = label_centroids(rd.from_pandas(df, override_num_blocks=6)).to_pandas()
    assert len(out) == 4 * d
    for lbl in range(4):
        want = emb[lab == lbl].astype(np.float64).mean(axis=0)
        got = out[out.label == lbl].sort_values("dim")["avg"].to_numpy()
        assert np.allclose(got, np.round(want, 4), atol=2e-4)


def test_dup_ngram_stats_planted_boilerplate(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from kgray.ops.dedup import dup_ngram_stats

    boiler = "one two three four five"
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype=np.int64),
            "text": [
                boiler + " a b c d e",      # shares its first 5-gram
                boiler + " f g h i j",      # with doc 0
                "k l m n o p q r",          # unique
                "x y",                      # < 5 tokens: no row
            ],
        }
    )
    out = dup_ngram_stats(
        rd.from_pandas(docs, override_num_blocks=2), n=5
    ).to_pandas().set_index("doc_id")
    assert 3 not in out.index
    assert out.loc[2, "n_dup"] == 0 and out.loc[2, "n_total"] == 4
    # docs 0/1: 10 tokens -> 6 shingles; only the pure-boilerplate
    # 5-gram ("one two three four five") is shared between them
    for d in (0, 1):
        assert out.loc[d, "n_total"] == 6
        assert out.loc[d, "n_dup"] == 1
        assert abs(out.loc[d, "dup_frac"] - round(1 / 6, 4)) < 1e-9


def test_minhash_bucket_join_path_without_candidates(ray_session,
                                                     monkeypatch):
    """Docs with no shared band: the forced bucket-join path returns the
    driver path's typed empty (u, v, jac) instead of joining a
    schema-less candidate set."""
    import pyarrow as pa

    from kgray.ops.dedup import minhash_dup_pairs
    from kgray.util import collect_table

    rs = np.random.RandomState(0)
    docs = rd.from_items([
        {"doc_id": i,
         "text": " ".join(f"w{rs.randint(10**6)}" for _ in range(30))}
        for i in range(20)
    ])
    want = pa.schema([("u", pa.int64()), ("v", pa.int64()),
                      ("jac", pa.float64())])
    driver = collect_table(minhash_dup_pairs(docs, tau=0.7))
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    forced = collect_table(minhash_dup_pairs(docs, tau=0.7))
    assert driver.num_rows == forced.num_rows == 0
    assert driver.schema.equals(want) and forced.schema.equals(want)


def _docs_table(n):
    import pyarrow as pa

    rs = np.random.RandomState(5)
    words = [f"w{i}" for i in range(12)]
    texts = [" ".join(rs.choice(words, 14)) for _ in range(n)]
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))


def _embedding_table(n):
    import pyarrow as pa

    m = np.random.RandomState(5).rand(n, 4).astype(np.float32)
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(m.reshape(-1)), 4),
    }))


def _near_dup_ops():
    import pyarrow as pa

    from kgray.ops import dedup

    def shingle_rows(batch):
        rows = [(g, i) for i, t in zip(batch["doc_id"].to_pylist(),
                                       batch["text"].to_pylist())
                for g in dedup.word_shingles(t)]
        return pa.table({
            "shingle": pa.array([r[0] for r in rows], pa.string()),
            "doc": pa.array([r[1] for r in rows], pa.int64()),
        })

    return {
        "dup_ngram_stats": (_docs_table,
                            lambda d: dedup.dup_ngram_stats(d, n=3)),
        "ngram_contamination": (
            _docs_table,
            lambda d: dedup.ngram_contamination(d, lambda i: i % 2 == 0, n=3)),
        "ngram_contamination_no_test_doc": (
            _docs_table,
            lambda d: dedup.ngram_contamination(d, lambda i: i < 0, n=3)),
        "embedding_dup_pairs": (
            _embedding_table,
            lambda e: dedup.embedding_dup_pairs(e, tau=0.9)),
        "dup_span_stats": (_docs_table,
                           lambda d: dedup.dup_span_stats(d, window=8)),
        "dup_span_purge": (_docs_table,
                           lambda d: dedup.dup_span_purge(d, window=8)),
        "exact_dedup_groups": (_docs_table, dedup.exact_dedup_groups),
        "exact_dedup_keep": (_docs_table, dedup.exact_dedup_keep),
        "set_jaccard_pairs_prefix": (
            _docs_table,
            lambda d: dedup.set_jaccard_pairs_prefix(
                d.map_batches(shingle_rows, batch_format="pyarrow"),
                tau=0.3)),
        "minhash_cross_pairs": (
            _docs_table, lambda d: dedup.minhash_cross_pairs(d, d)),
    }


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced"])
@pytest.mark.parametrize("op", sorted(_near_dup_ops()))
def test_near_dup_ops_keep_schema_on_empty_input(ray_session, monkeypatch,
                                                 op, forced):
    """An empty input gives no rows and the schema a small non-empty
    input gives, on the in-process and the partitioned paths."""
    if forced:
        monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    make, run = _near_dup_ops()[op]
    want = run(make(8)).materialize().schema()
    got = run(make(0)).materialize()
    assert got.count() == 0
    assert got.schema() is not None
    assert list(zip(got.schema().names, got.schema().types)) == \
        list(zip(want.names, want.types))
