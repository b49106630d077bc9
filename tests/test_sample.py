"""Deterministic sampling / split / quantile operators (ops/sample.py)
and n-gram decontamination (ops/dedup.ngram_contamination), each checked
against an independent brute-force computation over the same rows."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def _docs(n=400, seed=7):
    rs = np.random.RandomState(seed)
    langs = rs.choice(["en", "de", "fr"], size=n)
    lens = rs.randint(1, 500, size=n)
    return pd.DataFrame(
        {"doc_id": np.arange(n, dtype=np.int64) * 3 + 1,
         "lang": langs, "n_chars": lens.astype(np.int64)}
    )


def _md5(i) -> str:
    return hashlib.md5(str(i).encode()).hexdigest()


def test_split_thresholds_cover_and_order():
    from kgray.ops.sample import split_thresholds

    th = split_thresholds({"train": 0.8, "val": 0.1, "test": 0.1})
    assert [n for n, _ in th] == ["train", "val", "test"]
    # last threshold exceeds any hex digest so no row can fall through
    assert all(_md5(i) < th[-1][1] for i in range(100))
    assert th[0][1] < th[1][1] < th[2][1]


def test_add_hash_split_deterministic_and_ratioed(ray_session):
    from kgray.ops.sample import add_hash_split, split_thresholds

    df = _docs()
    ratios = {"train": 0.8, "val": 0.1, "test": 0.1}
    out = (
        add_hash_split(rd.from_arrow(pa.Table.from_pandas(df)),
                       "doc_id", ratios)
        .to_pandas().set_index("doc_id")["split"]
    )
    # brute-force the same assignment per row
    th = split_thresholds(ratios)
    for i in df["doc_id"]:
        h = _md5(i)
        expect = next(name for name, t in th if h < t)
        assert out[i] == expect
    # uniform hash -> rough ratio sanity (loose: n=400)
    frac = (out == "train").mean()
    assert 0.7 < frac < 0.9


def test_stratified_sample_k_smallest_hash_per_stratum(ray_session):
    from kgray.ops.sample import stratified_sample

    df = _docs()
    got = (
        stratified_sample(
            rd.from_arrow(pa.Table.from_pandas(df)), "lang", "doc_id", k=5
        )
        .to_pandas().sort_values(["lang", "doc_id"], ignore_index=True)
    )
    ref = df.assign(h=[_md5(i) for i in df["doc_id"]])
    want = (
        ref.sort_values(["h", "doc_id"]).groupby("lang").head(5)
        [["lang", "doc_id"]].sort_values(["lang", "doc_id"],
                                         ignore_index=True)
    )
    pd.testing.assert_frame_equal(got[["lang", "doc_id"]], want)
    assert (got.groupby("lang").size() == 5).all()


def test_rank_quantiles_exact(ray_session):
    from kgray.ops.sample import rank_quantiles

    df = _docs()
    out = rank_quantiles(
        rd.from_arrow(pa.Table.from_pandas(df)), "n_chars", [0.5, 0.9, 0.99]
    ).to_pandas().set_index("q")["value"]
    svals = np.sort(df["n_chars"].to_numpy())
    for p, lab in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")]:
        rank = max(int(np.ceil(p * len(svals))), 1)
        assert out[lab] == svals[rank - 1], lab


def test_rank_quantiles_duplicate_heavy(ray_session):
    """Histogram fold must weight duplicates: 90% zeros -> p50 is 0."""
    from kgray.ops.sample import rank_quantiles

    vals = np.array([0] * 90 + list(range(1, 11)), dtype=np.int64)
    out = rank_quantiles(
        rd.from_arrow(pa.table({"v": vals})), "v", [0.5, 0.95]
    ).to_pandas().set_index("q")["value"]
    assert out["p50"] == 0
    svals = np.sort(vals)
    assert out["p95"] == svals[int(np.ceil(0.95 * 100)) - 1]


def test_grouped_rank_quantiles_match_per_group_brute(ray_session):
    from kgray.ops.sample import grouped_rank_quantiles

    df = _docs()
    got = (
        grouped_rank_quantiles(
            rd.from_arrow(pa.Table.from_pandas(df)), "lang", "n_chars",
            [0.5, 0.9],
        )
        .to_pandas().sort_values(["lang", "q"], ignore_index=True)
    )
    rows = []
    for lang, g in df.groupby("lang"):
        sv = np.sort(g["n_chars"].to_numpy())
        for p, lab in [(0.5, "p50"), (0.9, "p90")]:
            rank = max(int(np.ceil(p * len(sv))), 1)
            rows.append({"lang": lang, "q": lab, "value": sv[rank - 1]})
    want = pd.DataFrame(rows).sort_values(["lang", "q"], ignore_index=True)
    pd.testing.assert_frame_equal(
        got[["lang", "q", "value"]].astype({"value": np.int64}), want
    )


def test_ngram_contamination_counts_distinct_shared(ray_session):
    from kgray.ops.dedup import ngram_contamination, word_shingles

    texts = {
        0: "a b c d e f g h",          # test doc (id % 5 == 0)
        1: "a b c d e x y z",          # shares 'a b c d e'
        2: "c d e f g h q r",          # shares 2 of doc-0's 5-grams
        3: "u v w x y z q r",          # shares nothing
        4: "a b",                      # too short: zero shingles
        5: "z z z z z",                # test doc, all-dup shingle
        6: "z z z z z z z",            # shares the single distinct 'z z z z z'
    }
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[i] for i in sorted(texts)], pa.string()),
    }))
    out = (
        ngram_contamination(docs, lambda ids: ids % 5 == 0, n=5)
        .to_pandas().set_index("doc_id")["n_shared"]
    )
    # brute force: distinct shingles of the test set vs each train doc
    test_set = set()
    for i in (0, 5):
        test_set |= set(word_shingles(texts[i], 5))
    for i in (1, 2, 3, 4, 6):
        want = len(set(word_shingles(texts[i], 5)) & test_set)
        assert out[i] == want, i
    assert set(out.index) == {1, 2, 3, 4, 6}
    assert out[1] == 1 and out[3] == 0 and out[4] == 0 and out[6] == 1


def test_tfidf_top_terms_matches_brute(ray_session):
    import math

    from kgray.ops.text import tfidf_top_terms
    from kgray.util import round_half_up

    texts = {
        1: "apple banana apple cherry",
        2: "banana banana durian",
        3: "apple cherry cherry cherry fig",
        4: "fig",
    }
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[i] for i in sorted(texts)], pa.string()),
    }))
    got = (
        tfidf_top_terms(docs, k=2)
        .to_pandas().sort_values(["doc_id", "token"], ignore_index=True)
    )
    # brute force
    n = float(len(texts))
    df: dict[str, int] = {}
    for t in texts.values():
        for w in set(t.split(" ")):
            df[w] = df.get(w, 0) + 1
    rows = []
    for i, t in sorted(texts.items()):
        tf: dict[str, int] = {}
        for w in t.split(" "):
            tf[w] = tf.get(w, 0) + 1
        scored = sorted(
            ((w, c * math.log(n / df[w])) for w, c in tf.items()),
            key=lambda x: (-x[1], x[0]),
        )[:2]
        for w, s in scored:
            rows.append({"doc_id": i, "token": w,
                         "tfidf": float(round_half_up(np.float64(s), 4))})
    want = pd.DataFrame(rows).sort_values(["doc_id", "token"],
                                          ignore_index=True)
    pd.testing.assert_frame_equal(got, want)
    # docs with fewer than k distinct tokens emit what they have
    assert (got["doc_id"] == 4).sum() == 1


def test_downsample_sources_deterministic_and_rated(ray_session):
    from kgray.ops.sample import downsample_sources, rate_threshold

    n = 600
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "source": np.array(["a", "b", "c"])[np.arange(n) % 3],
    })
    rates = {"a": 0.0, "b": 0.5, "c": 1.0}
    got = (
        downsample_sources(rd.from_arrow(pa.Table.from_pandas(df)), rates)
        .to_pandas()
    )
    # brute-force the same membership rule per row
    keep = [
        hashlib.md5(f"{s}:{i}".encode()).hexdigest()
            < rate_threshold(rates[s])
        for s, i in zip(df["source"], df["doc_id"])
    ]
    want = df[np.asarray(keep)].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id", ignore_index=True), want
    )
    by = got.groupby("source").size()
    assert "a" not in by.index            # rate 0 drops everything
    assert by.get("c", 0) == n // 3        # rate 1 keeps everything
    assert 0.3 * n / 3 < by.get("b", 0) < 0.7 * n / 3


def test_repetition_stats_hand_worked(ray_session):
    from kgray.ops.text import repetition_stats

    texts = {
        1: "a a a b",        # top 3/4; 2-grams: aa,aa,ab -> dist 2/3
        2: "x y z",          # top 1/3; all 2-grams distinct -> 0
        3: "w",              # single token: top 1/1, dup 0.0
        4: "q q q q",        # top 1.0; 2-grams all 'q q' -> 1 - 1/3
    }
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[i] for i in sorted(texts)], pa.string()),
    }))
    out = (
        docs.map_batches(repetition_stats, batch_format="pyarrow")
        .to_pandas().set_index("doc_id")
    )
    assert out.loc[1, "top_word_frac"] == 0.75
    assert out.loc[1, "dup_2gram_frac"] == round(1 - 2 / 3, 4)
    assert out.loc[2, "top_word_frac"] == round(1 / 3, 4)
    assert out.loc[2, "dup_2gram_frac"] == 0.0
    assert out.loc[3, "top_word_frac"] == 1.0
    assert out.loc[3, "dup_2gram_frac"] == 0.0
    assert out.loc[4, "top_word_frac"] == 1.0
    assert out.loc[4, "dup_2gram_frac"] == round(1 - 1 / 3, 4)


def test_priority_sample_matches_brute(ray_session):
    from kgray.ops.sample import priority_sample

    rng = np.random.default_rng(31)
    n = 800
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "w": rng.integers(1, 200, n).astype(np.int64),
        }
    )
    got = (
        priority_sample(
            rd.from_pandas(df, override_num_blocks=7), "doc_id", "w", k=25
        )
        .to_pandas()["doc_id"]
        .tolist()
    )
    u = np.array(
        [
            (int(hashlib.md5(f"w:{i}".encode()).hexdigest()[:13], 16) + 0.5)
            / float(1 << 52)
            for i in df["doc_id"]
        ]
    )
    key = u ** (1.0 / df["w"].to_numpy(np.float64))
    want = df["doc_id"].to_numpy()[np.argsort(-key, kind="mergesort")][:25]
    assert sorted(got) == sorted(want.tolist())


def test_priority_sample_prefers_heavy_weights(ray_session):
    from kgray.ops.sample import priority_sample

    n = 2000
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            # first half weight 1, second half weight 50
            "w": np.r_[np.ones(n // 2), np.full(n // 2, 50.0)],
        }
    )
    got = priority_sample(
        rd.from_pandas(df, override_num_blocks=4), "doc_id", "w", k=100
    ).to_pandas()
    heavy = (got["doc_id"] >= n // 2).mean()
    assert heavy > 0.85  # weight-50 rows dominate the draw


def test_priority_sample_rejects_nonpositive_weights(ray_session):
    import pytest

    from kgray.ops.sample import priority_sample

    df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                       "w": np.array([1, 0, 2], np.int64)})
    with pytest.raises(Exception):
        priority_sample(rd.from_pandas(df), "doc_id", "w", k=2).to_pandas()


def test_rank_quantiles_range_path_matches_histogram(ray_session, monkeypatch):
    """High-cardinality auto-gate: the distributed range-selection path
    (pinned via KGRAY_FORCE_DISTRIBUTED) returns the exact same ranked
    elements as the histogram path on a continuous float column with
    duplicates and a skewed spike."""
    from kgray.ops.sample import rank_quantiles

    rs = np.random.RandomState(11)
    vals = np.concatenate([
        rs.normal(100.0, 25.0, 3000),
        np.full(500, 42.5),          # duplicate spike crossing ranks
        rs.uniform(-50.0, 900.0, 1500),
    ])
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.float64())}))
    ps = [0.05, 0.5, 0.9, 0.99]

    hist = rank_quantiles(ds, "v", ps).to_pandas()
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    rng = rank_quantiles(ds, "v", ps).to_pandas()
    monkeypatch.delenv("KGRAY_FORCE_DISTRIBUTED")

    pd.testing.assert_frame_equal(hist, rng)
    sv = np.sort(vals)
    for p, lab in zip(ps, hist["q"]):
        rank = max(int(np.ceil(p * len(sv))), 1)
        assert hist.set_index("q")["value"][lab] == sv[rank - 1]


def test_rank_quantiles_exact_safety_net(ray_session, monkeypatch):
    """A half-distinct column passes the 0.8 sample screen but must
    still be exact through whichever path the gate picks (a tiny
    MAX_DISTINCT forces the exact-count fallback to the range path)."""
    from kgray.ops import sample
    from kgray.ops.sample import rank_quantiles

    monkeypatch.setattr(sample, "MAX_DISTINCT", 10)

    rs = np.random.RandomState(3)
    vals = np.repeat(rs.uniform(0, 1000, 800), 2)  # distinct = n/2
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.float64())}))
    out = rank_quantiles(ds, "v", [0.5, 0.9]).to_pandas()
    sv = np.sort(vals)
    assert out.set_index("q")["value"]["p50"] == sv[int(np.ceil(0.5 * len(sv))) - 1]
    assert out.set_index("q")["value"]["p90"] == sv[int(np.ceil(0.9 * len(sv))) - 1]
