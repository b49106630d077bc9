"""Curation/analytics batch 3 (kgray/queries.py): chunking, per-lang
top terms, cohort retention, column profiler, cross-split contamination,
inverted index, z-score outliers — each pinned against a brute-force
pandas/python reference on synthetic inputs."""

import hashlib

import numpy as np
import pandas as pd


def _docs(n=40, seed=11):
    rng = np.random.default_rng(seed)
    vocab = np.array(["alpha", "beta", "gamma", "delta", "eps", "zeta"])
    texts = [
        " ".join(rng.choice(vocab, rng.integers(3, 30)))
        for _ in range(n)
    ]
    return pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": texts,
            "lang": rng.choice(["en", "fr"], n),
            "source": "syn",
            "n_chars": np.array([len(t) for t in texts], np.int64),
        }
    )


def _events(n=250, users=9, seed=3):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 6 * 86400, n), unit="s"),
            "user_id": rng.integers(0, users, n).astype(np.int64),
            "event_type": rng.choice(["a", "b", "c"], n),
            "value": np.round(rng.uniform(0, 50, n), 2),
        }
    )


def test_doc_chunks_cover_every_doc_exactly(ray_session, tmp_path):
    from kgray.queries import q_doc_chunks

    df = _docs()
    # force boundary lengths: below, at, just above the window, multiple
    df.loc[0, "n_chars"] = 120
    df.loc[1, "n_chars"] = 121
    df.loc[2, "n_chars"] = 90
    df.loc[3, "n_chars"] = 300
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    got = (
        q_doc_chunks(str(tmp_path))
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    rows = []
    for _, r in df.iterrows():
        n = int(r["n_chars"])
        k = 1 + max(0, -(-(n - 120) // 90))
        for i in range(k):
            rows.append((r["doc_id"], i, i * 90, min(i * 90 + 120, n)))
    want = pd.DataFrame(rows, columns=["doc_id", "chunk_id", "cstart", "cstop"])
    pd.testing.assert_frame_equal(
        got.astype(np.int64), want.astype(np.int64)
    )
    # invariants: first chunk starts at 0, last chunk ends at n_chars,
    # consecutive chunks overlap by width - stride = 30
    for doc, g in got.groupby("doc_id"):
        g = g.sort_values("chunk_id")
        assert g["cstart"].iloc[0] == 0
        assert g["cstop"].iloc[-1] == df.set_index("doc_id").loc[doc, "n_chars"]
        if len(g) > 1:
            assert (g["cstart"].iloc[1:].to_numpy()
                    < g["cstop"].iloc[:-1].to_numpy()).all()


def test_lang_top_terms_rank_and_tiebreak(ray_session, tmp_path):
    from kgray.queries import q_lang_top_terms

    df = _docs(60, seed=7)
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    got = (
        q_lang_top_terms(str(tmp_path))
        .to_pandas()
        .sort_values(["lang", "rank"])
        .reset_index(drop=True)
    )
    e = df[["doc_id", "lang"]].join(
        df["text"].str.split(" ").rename("term")
    ).explode("term")
    e = e[e["term"] != ""].drop_duplicates(["doc_id", "term"])
    dfreq = e.groupby(["lang", "term"]).size().reset_index(name="df")
    dfreq = dfreq.sort_values(
        ["lang", "df", "term"], ascending=[True, False, True]
    )
    dfreq["rank"] = dfreq.groupby("lang").cumcount() + 1
    want = dfreq[dfreq["rank"] <= 3].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got,
        want.astype({"df": np.int64, "rank": np.int64})[got.columns],
    )


def test_events_retention_matches_brute(ray_session, tmp_path):
    from kgray.queries import q_events_retention

    df = _events()
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (
        q_events_retention(str(tmp_path))
        .to_pandas()
        .sort_values(["cohort_day", "offset_d"])
        .reset_index(drop=True)
    )
    e = df.assign(day=df["ts"].dt.normalize())
    cohort = e.groupby("user_id")["day"].min().rename("cohort")
    e = e.join(cohort, on="user_id")
    e["cohort_day"] = e["cohort"].dt.strftime("%Y-%m-%d")
    e["offset_d"] = (e["day"] - e["cohort"]).dt.days.astype(np.int64)
    want = (
        e.groupby(["cohort_day", "offset_d"])["user_id"]
        .nunique()
        .reset_index(name="n_users")
        .sort_values(["cohort_day", "offset_d"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"n_users": np.int64}), want.astype({"n_users": np.int64})
    )
    # day-0 retention of a cohort equals its cohort size
    day0 = got[got["offset_d"] == 0].set_index("cohort_day")["n_users"]
    sizes = (
        e.drop_duplicates("user_id").groupby("cohort_day")["user_id"].size()
    )
    assert day0.sort_index().tolist() == sizes.sort_index().tolist()


def test_column_profile_handles_nulls(ray_session, tmp_path):
    from kgray.queries import q_column_profile

    df = pd.DataFrame(
        {
            "o_custkey": pd.array([5, 2, None, 9, 2], dtype="Int64"),
            "o_totalprice": [10.5, 3.25, 99.0, np.nan, 3.25],
            "o_orderpriority": ["1-URGENT", "3-MEDIUM", "1-URGENT",
                                "5-LOW", "2-HIGH"],
        }
    )
    df.to_parquet(tmp_path / "orders.parquet", index=False)
    got = q_column_profile(str(tmp_path)).to_pandas().set_index("col")
    assert got.loc["o_custkey", "n_null"] == 1
    assert got.loc["o_custkey", "n_distinct"] == 3
    assert got.loc["o_custkey", "min_s"] == "2"
    assert got.loc["o_custkey", "max_s"] == "9"
    assert got.loc["o_totalprice", "n_null"] == 1
    assert got.loc["o_totalprice", "n_distinct"] == 3
    assert got.loc["o_totalprice", "min_s"] == "3.25"
    assert got.loc["o_totalprice", "max_s"] == "99.0"
    assert got.loc["o_orderpriority", "n_null"] == 0
    assert got.loc["o_orderpriority", "n_distinct"] == 4
    assert got.loc["o_orderpriority", "min_s"] == "1-URGENT"
    assert got.loc["o_orderpriority", "max_s"] == "5-LOW"


def test_split_contamination_matches_brute(ray_session, tmp_path):
    from kgray.ops.dedup import word_shingles
    from kgray.ops.sample import split_thresholds
    from kgray.queries import q_split_contamination

    df = _docs(80, seed=23)
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    got = int(
        q_split_contamination(str(tmp_path)).to_pandas()["n_overlap"][0]
    )
    (_, t_train), (_, t_val), _ = split_thresholds(
        {"train": 0.8, "val": 0.1, "test": 0.1}
    )
    train, test = set(), set()
    for _, r in df.iterrows():
        h = hashlib.md5(str(int(r["doc_id"])).encode()).hexdigest()
        if t_train <= h < t_val:
            continue
        tgt = train if h < t_train else test
        tgt.update(word_shingles(r["text"], 5))
    assert got == len(train & test)
    assert got > 0  # the synthetic corpus must actually exercise overlap


def test_term_postings_df_and_first5(ray_session, tmp_path):
    from kgray.queries import q_term_postings

    df = _docs(50, seed=31)
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    got = (
        q_term_postings(str(tmp_path))
        .to_pandas()
        .sort_values("term")
        .reset_index(drop=True)
    )
    e = df[["doc_id"]].join(
        df["text"].str.split(" ").rename("term")
    ).explode("term")
    e = e[e["term"] != ""].drop_duplicates(["term", "doc_id"])
    want = (
        e.sort_values(["term", "doc_id"])
        .groupby("term")
        .agg(
            df=("doc_id", "size"),
            ids=("doc_id", lambda s: ",".join(str(int(i)) for i in s[:5])),
        )
        .reset_index()
        .sort_values("term")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"df": np.int64}), want.astype({"df": np.int64})
    )


def test_zscore_outliers_matches_brute(ray_session, tmp_path):
    from kgray.queries import q_events_zscore_outliers

    df = _events(400, seed=17)
    # plant extreme points so every type has outliers
    df.loc[:2, "value"] = 1e4
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (
        q_events_zscore_outliers(str(tmp_path))
        .to_pandas()
        .set_index("event_type")["n_outliers"]
    )
    want = {}
    for t, g in df.groupby("event_type"):
        v = g["value"].to_numpy(np.float64)
        mu = v.sum() / len(v)
        sd = np.sqrt(max((v * v).sum() / len(v) - mu * mu, 0.0))
        n = int((np.abs(v - mu) > 2 * sd).sum())
        if n:
            want[t] = n
    assert dict(got) == want


def test_bpe_train_matches_sennrich_example(ray_session, tmp_path):
    """Hand-worked classic BPE example (low x5, lower x2, newest x6,
    widest x3): first five merges are e+s(9), es+t(9), est+</w>(9),
    l+o(7), lo+w(7) under (freq DESC, pair ASC) tie-break."""
    import ray.data as rd

    from kgray.ops.text import bpe_train

    texts = (
        ["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3
    )
    # spread the words across docs so the distributed fold is exercised
    docs = rd.from_items(
        [{"text": " ".join(texts[i::4])} for i in range(4)]
    )
    got = bpe_train(docs, num_merges=5).to_pandas()
    assert list(zip(got["left"], got["right"], got["freq"])) == [
        ("e", "s", 9),
        ("es", "t", 9),
        ("est", "</w>", 9),
        ("l", "o", 7),
        ("lo", "w", 7),
    ]
    assert got["rank"].tolist() == [0, 1, 2, 3, 4]


def test_bpe_train_deterministic_and_composable(ray_session):
    import ray.data as rd

    from kgray.ops.text import bpe_train

    docs = rd.from_items(
        [{"text": "ab abc abcd ab ab abc"}, {"text": "abcd abcd ab"}]
    )
    a = bpe_train(docs, num_merges=8).to_pandas()
    b = bpe_train(docs, num_merges=8).to_pandas()
    pd.testing.assert_frame_equal(a, b)
    # every merge operand is either a single char, </w>, or the product
    # of an earlier merge — the invariant that makes the list a tokenizer
    known = {"</w>"}
    for _, r in a.iterrows():
        for side in (r["left"], r["right"]):
            assert len(side) == 1 or side in known
        known.add(r["left"] + r["right"])


def test_events_outer_activity_both_null_sides(ray_session, tmp_path):
    from kgray.queries import q_events_outer_activity

    df = _events(300, users=12, seed=41)
    df["event_type"] = np.where(
        np.arange(len(df)) % 3 == 0, "click",
        np.where(np.arange(len(df)) % 3 == 1, "purchase", "view"),
    )
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (
        q_events_outer_activity(str(tmp_path))
        .to_pandas()
        .sort_values(["user_id", "day"])
        .reset_index(drop=True)
    )
    e = df.assign(day=df["ts"].dt.strftime("%Y-%m-%d"))
    c = (
        e[e["event_type"] == "click"]
        .groupby(["user_id", "day"])
        .size()
        .rename("n_click")
    )
    p = (
        e[e["event_type"] == "purchase"]
        .groupby(["user_id", "day"])
        .size()
        .rename("n_purchase")
    )
    want = (
        pd.concat([c, p], axis=1)
        .fillna(0)
        .astype(np.int64)
        .reset_index()
        .sort_values(["user_id", "day"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want[got.columns])
    # the outer join must produce rows missing on each side
    assert (got["n_click"] == 0).any() and (got["n_purchase"] == 0).any()


def test_events_value_trend_matches_numpy_polyfit(ray_session, tmp_path):
    from kgray.queries import q_events_value_trend

    df = _events(400, seed=29)
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (
        q_events_value_trend(str(tmp_path))
        .to_pandas()
        .set_index("event_type")
        .sort_index()
    )
    base = pd.Timestamp("2024-01-01").value // 1000
    for t, g in df.groupby("event_type"):
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        x = (ts - base) // 1_000_000 / 86400.0
        y = g["value"].to_numpy(np.float64)
        slope, icept = np.polyfit(x, y, 1)
        assert abs(got.loc[t, "slope"] - slope) < 1e-3
        assert abs(got.loc[t, "icept"] - icept) < 1e-3


def test_events_interval_merge_hand_worked(ray_session, tmp_path):
    """User 1: events at 0min, 10min (overlap -> one island), 100min
    (second island).  User 2: one event = one island of exactly 30min."""
    from kgray.queries import q_events_interval_merge

    t0 = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "ts": [t0, t0 + pd.Timedelta(minutes=10),
                   t0 + pd.Timedelta(minutes=100), t0],
            "user_id": np.array([1, 1, 1, 2], np.int64),
        }
    )
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (
        q_events_interval_merge(str(tmp_path))
        .to_pandas()
        .set_index("user_id")
        .sort_index()
    )
    m = 60 * 1_000_000
    assert got.loc[1, "n_islands"] == 2
    assert got.loc[1, "covered_us"] == 40 * m + 30 * m
    assert got.loc[2, "n_islands"] == 1
    assert got.loc[2, "covered_us"] == 30 * m


def test_events_interval_merge_total_coverage_bounds(ray_session, tmp_path):
    from kgray.queries import q_events_interval_merge

    df = _events(300, users=6, seed=13)
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = q_events_interval_merge(str(tmp_path)).to_pandas()
    span = 30 * 60 * 1_000_000
    per_user = df.groupby("user_id").size()
    for _, r in got.iterrows():
        n_ev = per_user[r["user_id"]]
        # covered time is at most n_events * span and at least one span,
        # and islands can never outnumber events
        assert span <= r["covered_us"] <= n_ev * span
        assert 1 <= r["n_islands"] <= n_ev


def test_events_rolling_active_matches_brute(ray_session, tmp_path):
    from kgray.queries import q_events_rolling_active

    df = _events(300, users=8, seed=47)
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (
        q_events_rolling_active(str(tmp_path))
        .to_pandas()
        .sort_values("hour")
        .reset_index(drop=True)
    )
    e = df.assign(h=df["ts"].dt.floor("h"))
    pairs = e[["h", "user_id"]].drop_duplicates()
    hours = sorted(pairs["h"].unique())
    rows = []
    for h in hours:
        lo = h - pd.Timedelta(hours=23)
        n = pairs.loc[
            (pairs["h"] >= lo) & (pairs["h"] <= h), "user_id"
        ].nunique()
        rows.append((h.strftime("%Y-%m-%d %H:00"), n))
    want = pd.DataFrame(rows, columns=["hour", "n_active"])
    pd.testing.assert_frame_equal(
        got.astype({"n_active": np.int64}),
        want.astype({"n_active": np.int64}),
    )


def test_orders_large_baskets_matches_brute(ray_session, tmp_path):
    from kgray.queries import q_orders_large_baskets

    rng = np.random.default_rng(53)
    n_orders = 60
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(n_orders, dtype=np.int64),
            "o_custkey": rng.integers(0, 10, n_orders).astype(np.int64),
            "o_orderdate": pd.Timestamp("1995-01-01")
            + pd.to_timedelta(rng.integers(0, 1000, n_orders), unit="D"),
            "o_totalprice": np.round(rng.uniform(1e3, 5e5, n_orders), 2),
        }
    )
    li = pd.DataFrame(
        {
            "l_orderkey": np.repeat(orders["o_orderkey"].to_numpy(), 5),
            "l_quantity": rng.integers(1, 100, n_orders * 5).astype(
                np.float64
            ),
        }
    )
    cust = pd.DataFrame(
        {
            "c_custkey": np.arange(10, dtype=np.int64),
            "c_name": [f"Customer#{i:09d}" for i in range(10)],
        }
    )
    orders.to_parquet(tmp_path / "orders.parquet", index=False)
    li.to_parquet(tmp_path / "lineitem.parquet", index=False)
    cust.to_parquet(tmp_path / "customer.parquet", index=False)
    got = q_orders_large_baskets(str(tmp_path)).to_pandas()
    s = li.groupby("l_orderkey")["l_quantity"].sum()
    keep = s[s > 300.0]
    want = (
        orders[orders["o_orderkey"].isin(keep.index)]
        .merge(cust, left_on="o_custkey", right_on="c_custkey")
        .assign(sum_qty=lambda d: d["o_orderkey"].map(keep))
        .sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        )
        .head(10)
    )
    assert got["o_orderkey"].tolist() == want["o_orderkey"].tolist()
    assert got["c_name"].tolist() == want["c_name"].tolist()
    assert np.allclose(got["sum_qty"], want["sum_qty"])
    assert (
        got["o_orderdate"].tolist()
        == want["o_orderdate"].dt.strftime("%Y-%m-%d").tolist()
    )


def test_embed_quantize_error_matches_numpy(ray_session, tmp_path):
    from kgray.queries import q_embed_quantize_error

    rng = np.random.default_rng(61)
    n, d = 200, 64
    m = rng.normal(0, 2, (n, d)).astype(np.float32)
    emb = pd.DataFrame(
        {
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": [row for row in m],
            "label": "x",
        }
    )
    emb.to_parquet(tmp_path / "embeddings.parquet", index=False)
    got = q_embed_quantize_error(str(tmp_path)).to_pandas()
    md = m.astype(np.float64)
    scale = np.abs(md).max(axis=0)
    rec = np.floor(md / scale * 127.0 + 0.5) * scale / 127.0
    mse = ((md - rec) ** 2).mean(axis=0)
    assert got["dim"].tolist() == list(range(1, d + 1))
    assert np.allclose(got["scale"], np.round(scale, 4), atol=1e-4)
    assert np.allclose(got["mse"], mse, atol=1e-6)
    # int8 range actually used: every quantized value fits in [-127, 127]
    q = np.floor(md / scale * 127.0 + 0.5)
    assert q.min() >= -127 and q.max() <= 127


def test_cms_overestimates_only_and_exact_when_wide(ray_session):
    import ray.data as rd

    from kgray.ops.sketch import cms_value_counts

    rng = np.random.default_rng(71)
    vals = rng.choice([f"k{i}" for i in range(50)], 5000,
                      p=np.arange(50, 0, -1) / np.arange(50, 0, -1).sum())
    ds = rd.from_pandas(pd.DataFrame({"v": vals}))
    true = pd.Series(vals).value_counts()

    # tiny width forces collisions: estimates may only OVERestimate
    narrow = cms_value_counts(ds, "v", width=16, depth=3).to_pandas()
    est = narrow.set_index("v")["est"]
    assert (est[true.index] >= true).all()
    assert (est[true.index] > true).any()  # collisions actually happened

    # wide grid: exact (no key collides in all rows at 50 keys / 4096)
    wide = cms_value_counts(ds, "v", width=4096, depth=4).to_pandas()
    est_w = wide.set_index("v")["est"]
    assert (est_w[true.index] == true).all()

    # determinism across rebuilds (block layout independence)
    again = cms_value_counts(
        ds.repartition(7), "v", width=16, depth=3
    ).to_pandas()
    pd.testing.assert_frame_equal(narrow, again)


def test_table_diff_matches_brute(ray_session):
    import ray.data as rd

    from kgray.ops.joins import table_diff

    rng = np.random.default_rng(83)
    n = 300
    base = pd.DataFrame(
        {
            "k": np.arange(n, dtype=np.int64),
            "a": rng.integers(0, 5, n).astype(np.int64),
            "b": rng.choice(["x", "y"], n),
        }
    )
    old = base[base["k"] % 7 != 0]                    # 0 mod 7 -> added
    new = base[base["k"] % 11 != 0].copy()            # 0 mod 11 -> removed
    chg = new["k"] % 5 == 0
    new.loc[chg, "a"] = new.loc[chg, "a"] + 100       # mod 5 -> changed
    got = (
        table_diff(
            rd.from_pandas(old), rd.from_pandas(new),
            on="k", compare_cols=["a", "b"], num_buckets=4,
        )
        .to_pandas()
        .set_index("status")["n"]
    )
    m = old.merge(new, on="k", how="outer", suffixes=("_l", "_r"),
                  indicator=True)
    want = {
        "added": int((m["_merge"] == "right_only").sum()),
        "removed": int((m["_merge"] == "left_only").sum()),
    }
    both = m[m["_merge"] == "both"]
    same = (both["a_l"] == both["a_r"]) & (both["b_l"] == both["b_r"])
    want["changed"] = int((~same).sum())
    want["unchanged"] = int(same.sum())
    assert dict(got) == {k: v for k, v in want.items() if v}
    assert len(got) == 4  # every status exercised


def test_doc_entropy_matches_scipy_formula(ray_session, tmp_path):
    from kgray.queries import q_doc_entropy

    df = _docs(30, seed=91)
    # planted extremes: single repeated token -> 0; all-distinct -> ln(n)
    df.loc[0, "text"] = "alpha alpha alpha alpha"
    df.loc[1, "text"] = "alpha beta gamma delta"
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    got = (
        q_doc_entropy(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")["entropy"]
    )
    for _, r in df.iterrows():
        toks = [t for t in r["text"].split(" ") if t]
        vc = pd.Series(toks).value_counts().to_numpy(np.float64)
        p = vc / vc.sum()
        want = float(-(p * np.log(p)).sum())
        assert abs(got[r["doc_id"]] - want) < 1e-3
    assert got[0] == 0.0
    assert abs(got[1] - np.log(4)) < 1e-3


def test_events_transitions_matches_brute(ray_session, tmp_path):
    from kgray.queries import q_events_transitions

    df = _events(350, users=7, seed=97)
    df["event_type"] = np.random.default_rng(5).choice(
        ["a", "b", "c"], len(df)
    )
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (
        q_events_transitions(str(tmp_path))
        .to_pandas()
        .set_index(["prev_type", "next_type"])["n"]
        .sort_index()
    )
    s = df.sort_values(["user_id", "ts", "event_id"])
    prev = s.groupby("user_id")["event_type"].shift(1)
    pairs = pd.DataFrame(
        {"prev_type": prev, "next_type": s["event_type"]}
    ).dropna()
    want = (
        pairs.groupby(["prev_type", "next_type"]).size().sort_index()
    )
    assert got.tolist() == want.tolist()
    assert got.index.tolist() == want.index.tolist()
    # transition counts conserve: total = events - users-with-events
    assert got.sum() == len(df) - df["user_id"].nunique()


def test_events_chi2_matches_scipy_formula(ray_session, tmp_path):
    from kgray.queries import q_events_chi2

    df = _events(500, users=10, seed=101)
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = q_events_chi2(str(tmp_path)).to_pandas()
    e = df.assign(dow=(df["ts"].dt.dayofweek + 1) % 7)  # 0=Sunday
    piv = (
        e.groupby(["event_type", "dow"])
        .size()
        .unstack(fill_value=0)
        .to_numpy(np.float64)
    )
    n = piv.sum()
    exp = piv.sum(1, keepdims=True) * piv.sum(0, keepdims=True) / n
    chi2 = ((piv - exp) ** 2 / exp).sum()
    assert abs(got["chi2"][0] - chi2) < 1e-3
    assert got["dof"][0] == (piv.shape[0] - 1) * (piv.shape[1] - 1)


def test_embed_covariance_and_pca_match_numpy(ray_session, tmp_path):
    from kgray.queries import q_embed_covariance, q_embed_pca_variance

    rng = np.random.default_rng(107)
    n, d = 300, 64
    # planted low-rank structure: 3 strong directions + noise
    basis = rng.normal(0, 1, (3, d))
    m = (rng.normal(0, 1, (n, 3)) * [5, 3, 2]) @ basis
    m = (m + rng.normal(0, 0.1, (n, d))).astype(np.float32)
    pd.DataFrame(
        {
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": [row for row in m],
            "label": "x",
        }
    ).to_parquet(tmp_path / "embeddings.parquet", index=False)

    got_cov = q_embed_covariance(str(tmp_path)).to_pandas()
    md = m.astype(np.float64)
    want_cov = np.cov(md, rowvar=False, bias=True)
    grid = got_cov.pivot(index="i", columns="j", values="cov").to_numpy()
    assert np.allclose(grid, want_cov, atol=1e-4)

    got_pca = q_embed_pca_variance(str(tmp_path)).to_pandas()
    w = np.linalg.eigvalsh(want_cov)[::-1]
    assert np.allclose(got_pca["eigenvalue"], w[:8], atol=1e-3)
    # 3 planted directions dominate the spectrum
    assert got_pca["explained"][:3].sum() > 0.95
    assert abs(got_pca["explained"].sum() - (w[:8] / w.sum()).sum()) < 1e-2


def test_kmeans_lloyd_recovers_planted_blobs(ray_session, tmp_path):
    import ray.data as rd

    from kgray.ops.similarity import kmeans_lloyd

    rng = np.random.default_rng(113)
    centers = np.array(
        [[10.0] * 8, [-10.0] * 8, [10.0] * 4 + [-10.0] * 4]
    )
    sizes = [120, 80, 100]
    m = np.vstack(
        [
            c + rng.normal(0, 0.5, (s, 8))
            for c, s in zip(centers, sizes)
        ]
    ).astype(np.float32)
    perm = rng.permutation(len(m))
    m = m[perm]
    pd.DataFrame({"embedding": [row for row in m]}).to_parquet(
        tmp_path / "emb.parquet", index=False
    )
    ds = rd.read_parquet(str(tmp_path / "emb.parquet")).repartition(5)
    C, summary = kmeans_lloyd(ds, k=3, iters=5)
    got = summary.to_pandas().sort_values("n")["n"].tolist()
    assert got == sorted(sizes)
    # every learned centroid sits on one planted center
    md = m.astype(np.float64)
    for c in C:
        d = np.abs(centers - c).max(axis=1).min()
        assert d < 0.2
    # SSE equals the within-cluster residual of the learned partition
    assign = np.argmin(
        ((md[:, None, :] - C[None, :, :]) ** 2).sum(-1), axis=1
    )
    want = sum(
        ((md[assign == c] - C[c]) ** 2).sum() for c in range(3)
    )
    got_sse = summary.to_pandas()["sse"].sum()
    assert abs(got_sse - want) / want < 1e-6


def test_kmeans_lloyd_block_layout_invariant(ray_session, tmp_path):
    import ray.data as rd

    from kgray.ops.similarity import kmeans_lloyd

    rng = np.random.default_rng(127)
    m = rng.normal(0, 1, (400, 8)).astype(np.float32)
    pd.DataFrame({"embedding": [row for row in m]}).to_parquet(
        tmp_path / "emb.parquet", index=False
    )
    ds = rd.read_parquet(str(tmp_path / "emb.parquet"))
    C1, s1 = kmeans_lloyd(ds.repartition(3), k=4, iters=3)
    C2, s2 = kmeans_lloyd(ds.repartition(11), k=4, iters=3)
    assert np.allclose(C1, C2, atol=1e-9)
    pd.testing.assert_frame_equal(
        s1.to_pandas().sort_values("cluster").reset_index(drop=True),
        s2.to_pandas().sort_values("cluster").reset_index(drop=True),
    )


def test_events_mad_outliers_matches_brute(ray_session, tmp_path):
    from kgray.queries import q_events_mad_outliers

    df = _events(400, seed=131)
    df.loc[:3, "value"] = 500.0  # planted gross outliers
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (
        q_events_mad_outliers(str(tmp_path))
        .to_pandas()
        .set_index("event_type")
        .sort_index()
    )

    def pdisc(v, p=0.5):
        s = np.sort(v)
        return s[max(int(np.ceil(p * len(s))), 1) - 1]

    for t, g in df.groupby("event_type"):
        v = g["value"].to_numpy(np.float64)
        med = pdisc(v)
        mad = pdisc(np.abs(v - med))
        n = int((np.abs(v - med) > 1.5 * mad).sum())
        assert got.loc[t, "med"] == med
        assert got.loc[t, "mad"] == mad
        assert got.loc[t, "n_outliers"] == n
    # the planted 500s must be counted, proving MAD is not broken by them
    assert got["n_outliers"].sum() >= 4


def test_bm25_matches_brute_formula(ray_session, tmp_path):
    import math

    from kgray.queries import q_bm25_topk
    from kgray.queries.analytics1 import _BM25_TERMS

    rng = np.random.default_rng(137)
    vocab = np.array(_BM25_TERMS + ["alpha", "beta", "gamma"])
    texts = [
        " ".join(rng.choice(vocab, rng.integers(3, 25)))
        for _ in range(60)
    ]
    pd.DataFrame(
        {
            "doc_id": np.arange(60, dtype=np.int64),
            "text": texts,
        }
    ).to_parquet(tmp_path / "documents.parquet", index=False)
    got = q_bm25_topk(str(tmp_path)).to_pandas()

    toks = [t.split(" ") for t in texts]
    dls = np.array([len(t) for t in toks], np.float64)
    n, avgdl = float(len(toks)), dls.mean()
    k1, b = 1.2, 0.75
    scores = {}
    for i, ws in enumerate(toks):
        s = 0.0
        for t in _BM25_TERMS:
            df_t = sum(1 for w in toks if t in w)
            tf = float(ws.count(t))
            if tf:
                idf = math.log((n - df_t + 0.5) / (df_t + 0.5) + 1.0)
                s += idf * tf * (k1 + 1) / (
                    tf + k1 * (1 - b + b * dls[i] / avgdl)
                )
        if s > 0:
            scores[i] = round(s, 4)
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    assert got["doc_id"].tolist() == [d for d, _ in want]
    assert np.allclose(got["score"], [s for _, s in want], atol=1e-4)
    # a doc with more query-term hits outranks a same-length doc without
    assert got["score"].is_monotonic_decreasing


def test_user_activity_gini_known_distributions(ray_session, tmp_path):
    from kgray.queries import q_user_activity_gini

    # perfectly equal activity -> gini 0
    ev = pd.DataFrame(
        {
            "event_id": np.arange(40, dtype=np.int64),
            "user_id": np.repeat(np.arange(8, dtype=np.int64), 5),
        }
    )
    ev.to_parquet(tmp_path / "events.parquet", index=False)
    got = q_user_activity_gini(str(tmp_path)).to_pandas()
    assert got["gini"][0] == 0.0
    assert got["p99_over_p50"][0] == 1.0
    assert got["n_keys"][0] == 8

    # one user owns nearly everything -> gini near (k-1)/k
    skew = pd.DataFrame(
        {
            "event_id": np.arange(108, dtype=np.int64),
            "user_id": np.concatenate(
                [np.arange(8, dtype=np.int64), np.full(100, 0, np.int64)]
            ),
        }
    )
    skew.to_parquet(tmp_path / "events.parquet", index=False)
    got2 = q_user_activity_gini(str(tmp_path)).to_pandas()
    assert got2["gini"][0] > 0.75
    assert got2["p99_over_p50"][0] > 50


def test_events_user_ewma_matches_recursive_loop(ray_session, tmp_path):
    from kgray.queries import q_events_user_ewma

    df = _events(300, users=6, seed=139)
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (
        q_events_user_ewma(str(tmp_path))
        .to_pandas()
        .set_index("user_id")
        .sort_index()
    )
    a = 1.0 / 3.0
    for u, g in df.sort_values(["ts", "event_id"]).groupby("user_id"):
        y = None
        for x in g["value"]:
            y = x if y is None else (1 - a) * y + a * x
        assert abs(got.loc[u, "ewma"] - y) < 1e-3
        assert got.loc[u, "n"] == len(g)
