"""Session-6 operator batch (integer PageRank, bounded BFS, daily
KL divergence, Welch t, SCD-2 history, dense rank) — DuckDB-oracle
parity on edge-case fixtures PLUS paths-agree pins for the graph ops'
distributed rounds (the in-process gate hides them at fixture scale, so
``KGRAY_FORCE_DISTRIBUTED`` forces the bucket-join/frontier path and the
results must be row-identical)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from kgray.queries import CATALOG


def _write(tmp_path, name, df):
    df.to_parquet(tmp_path / f"{name}.parquet", index=False)


def _oracle(tmp_path, sql, tables):
    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{tmp_path}/{t}.parquet')"
        )
    return con.execute(sql).df()


def _run(qname, tmp_path):
    fn, sql = CATALOG[qname]
    res = fn(str(tmp_path))
    got = res.to_pandas() if hasattr(res, "to_pandas") else res
    return got, sql


def _cmp(got, exp, sort_cols):
    got = got.sort_values(sort_cols).reset_index(drop=True)
    exp = exp.sort_values(sort_cols).reset_index(drop=True)
    assert len(got) == len(exp), (len(got), len(exp))
    for c in exp.columns:
        assert got[c].tolist() == exp[c].tolist(), c


def _lineitem(tmp_path):
    # bipartite supplier-part graph: suppliers 1..4, parts 1..5
    # (offset +10M in the query).  Supplier 1 -> {p1, p2};
    # p2 also supplied by 2; supplier 3 shares p3 with 2; supplier 4
    # only supplies p5 (disconnected from node 1's component).
    rows = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 5),
            (1, 1)]  # duplicate pair: DISTINCT must collapse
    df = pd.DataFrame(rows, columns=["l_suppkey", "l_partkey"])
    df["l_suppkey"] = df["l_suppkey"].astype(np.int64)
    df["l_partkey"] = df["l_partkey"].astype(np.int64)
    _write(tmp_path, "lineitem", df)
    return df


def _documents(tmp_path):
    texts = [
        "query window scan merge",        # all three terms
        "query query query",              # tf saturation
        "window only here",
        "nothing relevant at all",        # zero score
        "",                               # empty doc
        "scan scan window query scan x y z w longer doc padding tokens",
    ]
    df = pd.DataFrame(
        {
            "doc_id": np.arange(len(texts), dtype=np.int64),
            "text": texts,
            "n_chars": np.array([len(t) for t in texts], np.int64),
        }
    )
    _write(tmp_path, "documents", df)
    return df


def _events(tmp_path):
    rows = []
    t0 = pd.Timestamp("2025-03-01 00:00:00")
    rng = np.random.default_rng(11)
    eid = 0
    # day 0: exactly the global mix ratios would need all days equal;
    # instead: day 1 heavily skewed -> larger KL than the balanced day 0
    for day, types in [
        (0, ["a", "b"] * 6),           # balanced
        (1, ["a"] * 10 + ["b"] * 2),   # skewed
    ]:
        for i, et in enumerate(types):
            uid = int(rng.integers(1, 4))
            rows.append(
                (eid, t0 + pd.Timedelta(days=day, minutes=i), uid, et,
                 float(rng.uniform(0, 100)))
            )
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type", "value"])
    df["event_id"] = df["event_id"].astype(np.int64)
    df["user_id"] = df["user_id"].astype(np.int64)
    df["ts"] = df["ts"].astype("datetime64[us]")
    _write(tmp_path, "events", df)
    return df


# ---------------------------------------------------------------- graph


def test_pagerank_int_oracle(ray_session, tmp_path):
    _lineitem(tmp_path)
    got, sql = _run("part_supplier_pagerank", tmp_path)
    exp = _oracle(tmp_path, sql, ["lineitem"])
    _cmp(got, exp, ["node"])
    g = got.set_index("node")["r"]
    # p2 (two suppliers) outranks p1 (one supplier, shared neighbor)
    assert g.loc[10000002] > g.loc[10000001]
    # isolated 2-cycle (supplier 4 <-> p5): both ends equal by symmetry
    assert g.loc[4] == g.loc[10000005]


def test_pagerank_int_distributed_path_agrees(ray_session, tmp_path,
                                              monkeypatch):
    import ray.data as rd

    from kgray.ops.graph import pagerank_int

    _lineitem(tmp_path)
    edges = rd.read_parquet(f"{tmp_path}/lineitem.parquet").map_batches(
        lambda df: pd.DataFrame(
            {"u": df["l_suppkey"].astype(np.int64),
             "v": (df["l_partkey"] + 10_000_000).astype(np.int64)}
        ).drop_duplicates(),
        batch_format="pandas",
    )
    gate = pagerank_int(edges, iters=4).to_pandas()
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist = pagerank_int(edges, iters=4)
    dist = dist.to_pandas() if hasattr(dist, "to_pandas") else dist
    _cmp(dist, gate, ["node"])


def test_pagerank_int_kernel_conserves_mass():
    from kgray.ops.graph import _pagerank_int_kernel

    # triangle: symmetric edges, all nodes equivalent
    src = np.array([0, 1, 1, 2, 2, 0])
    dst = np.array([1, 0, 2, 1, 0, 2])
    r = _pagerank_int_kernel(src, dst, 3, iters=10, scale=10**12)
    assert len(set(r.tolist())) == 1  # symmetry -> equal ranks
    # floor division only loses mass, never creates it
    assert r.sum() <= 10**12


def test_bfs_hops_oracle_and_levels(ray_session, tmp_path):
    _lineitem(tmp_path)
    got, sql = _run("graph_bfs_hops", tmp_path)
    exp = _oracle(tmp_path, sql, ["lineitem"])
    _cmp(got, exp, ["node"])
    d = got.set_index("node")["dist"]
    assert d.loc[1] == 0
    assert d.loc[10000001] == 1 and d.loc[10000002] == 1
    assert d.loc[2] == 2
    assert d.loc[10000003] == 3
    # supplier 3 is 4 hops away -> beyond max_hops=3, excluded;
    # supplier 4 / p5 are in another component, excluded
    for absent in (3, 10000004, 4, 10000005):
        assert absent not in d.index


def test_bfs_hops_distributed_path_agrees(ray_session, tmp_path,
                                          monkeypatch):
    import ray.data as rd

    from kgray.ops.graph import bfs_hops

    _lineitem(tmp_path)
    edges = rd.read_parquet(f"{tmp_path}/lineitem.parquet").map_batches(
        lambda df: pd.DataFrame(
            {"u": df["l_suppkey"].astype(np.int64),
             "v": (df["l_partkey"] + 10_000_000).astype(np.int64)}
        ).drop_duplicates(),
        batch_format="pandas",
    )
    gate = bfs_hops(edges, seeds=[1], max_hops=3).to_pandas()
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist = bfs_hops(edges, seeds=[1], max_hops=3)
    dist = dist.to_pandas() if hasattr(dist, "to_pandas") else dist
    _cmp(dist, gate, ["node"])


# --------------------------------------------------------------- events


def test_events_kl_daily(ray_session, tmp_path):
    _events(tmp_path)
    got, sql = _run("events_kl_daily", tmp_path)
    exp = _oracle(tmp_path, sql, ["events"])
    _cmp(got, exp, ["day"])
    k = got.set_index("day")["kl"]
    assert k.loc["2025-03-02"] > k.loc["2025-03-01"]  # skewed day drifts
    assert (got["kl"] >= 0).all()  # KL nonnegativity


def test_events_welch_t(ray_session, tmp_path):
    _events(tmp_path)
    got, sql = _run("events_welch_t", tmp_path)
    exp = _oracle(tmp_path, sql, ["events"])
    _cmp(got, exp, ["event_type"])
    # two complementary groups: t(a) vs rest == -(t(b) vs rest)
    t = got.set_index("event_type")["t"]
    assert t.loc["a"] == pytest.approx(-t.loc["b"], abs=2e-4)


def test_user_scd2(ray_session, tmp_path):
    _events(tmp_path)
    got, sql = _run("user_scd2", tmp_path)
    exp = _oracle(tmp_path, sql, ["events"])
    _cmp(got, exp, ["user_id", "version"])
    sentinel = pd.Timestamp("9999-12-31")
    for _, grp in got.groupby("user_id"):
        grp = grp.sort_values("version")
        # versions are 1..k dense
        assert grp["version"].tolist() == list(range(1, len(grp) + 1))
        # intervals chain: valid_to == next valid_from, last one open
        assert (grp["valid_to"].iloc[:-1].to_numpy()
                == grp["valid_from"].iloc[1:].to_numpy()).all()
        assert grp["valid_to"].iloc[-1] == sentinel
        # consecutive versions always change type (runs were collapsed)
        assert (grp["event_type"].iloc[:-1].to_numpy()
                != grp["event_type"].iloc[1:].to_numpy()).all()


def test_doc_dense_rank(ray_session, tmp_path):
    docs = _documents(tmp_path)
    # force a tie: two docs share a length
    got, sql = _run("doc_dense_rank", tmp_path)
    exp = _oracle(tmp_path, sql, ["documents"])
    _cmp(got, exp, ["doc_id"])
    # dense: ranks are 1..n_distinct with no gaps
    n_distinct = docs["n_chars"].nunique()
    assert sorted(got["dr"].unique().tolist()) == list(
        range(1, n_distinct + 1)
    )
