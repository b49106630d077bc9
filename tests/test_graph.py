"""Graph analytics (ops/graph.py): degrees + PageRank vs a numpy brute
power iteration of the identical formulation."""

import numpy as np
import pandas as pd
import ray.data as rd

from kgray.ops.graph import node_degrees, pagerank


def _edges(n_nodes=40, n_edges=120, seed=11):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    v = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    keep = u != v
    return pd.DataFrame({"u": u[keep], "v": v[keep]}).drop_duplicates()


def _brute_pagerank(df, iters=10, d=0.85):
    sym = pd.concat(
        [df, df.rename(columns={"u": "v", "v": "u"})], ignore_index=True
    )
    nodes = np.sort(pd.unique(sym[["u", "v"]].to_numpy().ravel()))
    idx = {x: i for i, x in enumerate(nodes)}
    n = len(nodes)
    deg = sym.groupby("u").size()
    degv = np.array([deg.get(x, 0) for x in nodes], np.float64)
    rank = np.full(n, 1.0 / n)
    src = sym["u"].map(idx).to_numpy()
    dst = sym["v"].map(idx).to_numpy()
    for _ in range(iters):
        dangling = rank[degv == 0].sum()
        contrib = np.zeros(n)
        np.add.at(contrib, dst, rank[src] / degv[src])
        rank = (1 - d) / n + d * contrib + d * dangling / n
    return nodes, rank


def test_node_degrees_match_brute(ray_session):
    df = _edges()
    got = (
        node_degrees(rd.from_pandas(df, override_num_blocks=3))
        .to_pandas()
        .set_index("node")["degree"]
    )
    sym = pd.concat(
        [df, df.rename(columns={"u": "v", "v": "u"})], ignore_index=True
    )
    want = sym.groupby("u").size()
    assert len(got) == len(want)
    for node, deg in want.items():
        assert got[node] == deg


def test_pagerank_matches_brute_power_iteration(ray_session):
    df = _edges()
    got = (
        pagerank(rd.from_pandas(df, override_num_blocks=3), iters=8)
        .to_pandas()
        .set_index("node")["rank"]
    )
    nodes, want = _brute_pagerank(df, iters=8)
    # ranks form a distribution (each rank is rounded to 6 digits, so
    # the sum drifts by up to n_nodes * 5e-7)
    assert abs(got.sum() - 1.0) < 1e-4
    for node, r in zip(nodes, want):
        assert abs(got[node] - r) < 1e-6, node


def test_pagerank_star_center_dominates(ray_session):
    # star graph: the hub must carry the highest rank
    df = pd.DataFrame({"u": np.zeros(6, np.int64),
                       "v": np.arange(1, 7, dtype=np.int64)})
    got = pagerank(rd.from_pandas(df), iters=12).to_pandas()
    top = got.sort_values("rank", ascending=False).iloc[0]
    assert top["node"] == 0


def test_triangle_count_matches_brute(ray_session):
    from itertools import combinations

    from kgray.ops.graph import triangle_count

    df = _edges(n_nodes=25, n_edges=140, seed=47)
    got = triangle_count(
        rd.from_pandas(df, override_num_blocks=3)
    )["n_triangles"][0].as_py()
    adj = {}
    for u, v in zip(df["u"], df["v"]):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    want = sum(
        1
        for a, b, c in combinations(sorted(adj), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )
    assert got == want and want > 0


def test_triangle_count_known_graphs(ray_session):
    from kgray.ops.graph import triangle_count

    # K4 has 4 triangles; adding a pendant edge changes nothing
    k4 = pd.DataFrame(
        {"u": np.array([0, 0, 0, 1, 1, 2, 3], np.int64),
         "v": np.array([1, 2, 3, 2, 3, 3, 9], np.int64)}
    )
    got = triangle_count(rd.from_pandas(k4))["n_triangles"][0].as_py()
    assert got == 4


def test_pagerank_paths_agree(ray_session, monkeypatch):
    from kgray.ops.graph import pagerank

    df = _edges(n_nodes=30, n_edges=100, seed=5)
    ds = rd.from_pandas(df, override_num_blocks=4)
    gated = pagerank(ds, iters=6).to_pandas().set_index("node")["rank"]
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist = pagerank(ds, iters=6).to_pandas()
    dist = dist.set_index("node")["rank"]
    assert len(gated) == len(dist)
    for node in gated.index:
        assert abs(gated[node] - dist[node]) < 1e-9, node


def test_triangle_paths_agree(ray_session, monkeypatch):
    from kgray.ops.graph import triangle_count

    df = _edges(n_nodes=25, n_edges=140, seed=47)
    ds = rd.from_pandas(df, override_num_blocks=3)
    gated = triangle_count(ds)["n_triangles"][0].as_py()
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist = triangle_count(ds)["n_triangles"][0].as_py()
    assert gated == dist
