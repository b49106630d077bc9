"""HITS / per-node triangles / label propagation (ops/graph.py):
hand-computed tiny-graph values + in-process-vs-distributed paths-agree
(``KGRAY_FORCE_DISTRIBUTED`` forces the bucket-join/cogroup path)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from kgray.ops.graph import hits_int, lpa_labels, node_triangles


def _rand_edges(n_nodes=30, n_edges=90, seed=7):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    v = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    keep = u != v
    return pd.DataFrame({"u": u[keep], "v": v[keep]}).drop_duplicates()


def test_hits_int_hand_computed(ray_session):
    # u1 -> {v10, v11}, u2 -> {v11}; S=1e6, 2 iterations (worked by hand)
    ds = rd.from_pandas(
        pd.DataFrame({"u": [1, 1, 2], "v": [10, 11, 11]})
    )
    t = hits_int(ds, iters=2, scale=10**6)
    got = {(r["side"], r["node"]): r["score"]
           for r in t.to_pylist()}
    assert got == {
        ("hub", 1): 1_000_000, ("hub", 2): 625_000,
        ("auth", 10): 600_000, ("auth", 11): 1_000_000,
    }


def test_hits_paths_agree(ray_session, monkeypatch):
    df = _rand_edges()
    ds = rd.from_pandas(df, override_num_blocks=3)
    inproc = pd.DataFrame(hits_int(ds, iters=2).to_pydict())
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist = (
        hits_int(rd.from_pandas(df, override_num_blocks=3), iters=2)
        .to_pandas()
    )
    key = ["side", "node"]
    a = inproc.sort_values(key).reset_index(drop=True)
    b = dist.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_node_triangles_hand_computed(ray_session):
    # K4 minus edge (3,4): triangles {1,2,3} and {1,2,4}
    df = pd.DataFrame({"u": [1, 1, 1, 2, 2], "v": [2, 3, 4, 3, 4]})
    t = node_triangles(rd.from_pandas(df))
    got = dict(zip(t["node"].to_pylist(), t["tri"].to_pylist()))
    assert got == {1: 2, 2: 2, 3: 1, 4: 1}


def test_node_triangles_paths_agree_and_sum_to_3x(ray_session, monkeypatch):
    from kgray.ops.graph import triangle_count

    df = _rand_edges(n_nodes=20, n_edges=80)
    inproc = node_triangles(rd.from_pandas(df))
    inproc = dict(zip(inproc["node"].to_pylist(), inproc["tri"].to_pylist()))
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist_t = node_triangles(
        rd.from_pandas(df, override_num_blocks=3)
    ).to_pandas()
    monkeypatch.delenv("KGRAY_FORCE_DISTRIBUTED")
    dist = dict(zip(dist_t["node"], dist_t["tri"]))
    assert inproc == dist
    total = triangle_count(rd.from_pandas(df))["n_triangles"][0].as_py()
    assert sum(inproc.values()) == 3 * total


def test_lpa_hand_computed_star(ray_session):
    # star 1-{2,3,4} with self-votes: round 1 every vote set ties
    # (all counts 1) -> MIN label 1 everywhere; stable thereafter
    ds = rd.from_pandas(pd.DataFrame({"u": [1, 1, 1], "v": [2, 3, 4]}))
    t = lpa_labels(ds, rounds=3)
    got = dict(zip(t["node"].to_pylist(), t["lbl"].to_pylist()))
    assert got == {1: 1, 2: 1, 3: 1, 4: 1}


def test_lpa_two_node_community_converges(ray_session):
    # without the self-vote a 2-node community oscillates forever;
    # with it both nodes settle on the min id in one round
    ds = rd.from_pandas(pd.DataFrame({"u": [7], "v": [3]}))
    t = lpa_labels(ds, rounds=3)
    got = dict(zip(t["node"].to_pylist(), t["lbl"].to_pylist()))
    assert got == {3: 3, 7: 3}


def test_lpa_paths_agree(ray_session, monkeypatch):
    df = _rand_edges(seed=13)
    inproc = lpa_labels(rd.from_pandas(df), rounds=3)
    inproc = dict(zip(inproc["node"].to_pylist(), inproc["lbl"].to_pylist()))
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist_t = lpa_labels(
        rd.from_pandas(df, override_num_blocks=3), rounds=3,
    ).to_pandas()
    dist = dict(zip(dist_t["node"], dist_t["lbl"]))
    assert inproc == dist


_OPS = {
    "node_degrees": lambda g, e: g.node_degrees(e),
    "pagerank": lambda g, e: g.pagerank(e),
    "triangle_count": lambda g, e: g.triangle_count(e),
    "pagerank_int": lambda g, e: g.pagerank_int(e, seeds=[1]),
    "bfs_hops": lambda g, e: g.bfs_hops(e, seeds=[1]),
    "landmark_distances": lambda g, e: g.landmark_distances(e, [1]),
    "greedy_matching": lambda g, e: g.greedy_matching(e),
    "kcore": lambda g, e: g.kcore(e, 1),
    "hits_int": lambda g, e: g.hits_int(e),
    "node_triangles": lambda g, e: g.node_triangles(e),
    "lpa_labels": lambda g, e: g.lpa_labels(e),
    "bellman_ford": lambda g, e: g.bellman_ford(e, seeds=[1]),
    "ppr_int": lambda g, e: g.ppr_int(e, seeds=[1]),
    "luby_mis": lambda g, e: g.luby_mis(e),
    "neighborhood_hll": lambda g, e: g.neighborhood_hll(e),
}


@pytest.mark.parametrize("source", ["arrow", "pandas"])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_empty_edges_keep_schema(ray_session, op, source):
    """Every graph op returns on empty int64 edges the schema it returns
    on a one-edge int64 graph — never a Python exception, a schema-less
    Dataset or a null/string node column.  ``pandas`` is Ray's empty
    pandas block, whose columns arrive null-typed."""
    from kgray.ops import graph
    from kgray.util import collect_table

    def edges(n):
        cols = {c: np.full(n, x, np.int64)
                for c, x in (("u", 1), ("v", 2), ("w", 3))}
        if source == "arrow":
            return rd.from_arrow(pa.table(cols))
        return rd.from_pandas(pd.DataFrame(cols))

    def run(n):
        t = _OPS[op](graph, edges(n))
        t = t if isinstance(t, pa.Table) else collect_table(t)
        return t.replace_schema_metadata(None)

    empty, one = run(0), run(1)
    assert empty.schema.equals(one.schema), (empty.schema, one.schema)
    assert empty.to_pylist() == (
        [{"n_triangles": 0}] if op == "triangle_count" else [])


def test_bellman_ford_two_hop_beats_direct(ray_session):
    from kgray.ops.graph import bellman_ford

    # direct 1-3 costs 10; 1-2-3 costs 2+3=5; node 4 reachable in 3 hops
    df = pd.DataFrame(
        {"u": [1, 2, 1, 3], "v": [2, 3, 3, 4], "w": [2, 3, 10, 1]}
    )
    t = bellman_ford(rd.from_pandas(df), seeds=[1], rounds=3)
    got = dict(zip(t["node"].to_pylist(), t["dist"].to_pylist()))
    assert got == {1: 0, 2: 2, 3: 5, 4: 6}


def test_bellman_ford_paths_agree(ray_session, monkeypatch):
    from kgray.ops.graph import bellman_ford

    df = _rand_edges(seed=23)
    rng = np.random.default_rng(5)
    df["w"] = rng.integers(1, 9, len(df)).astype(np.int64)
    inproc = bellman_ford(rd.from_pandas(df), seeds=[0, 5], rounds=3)
    inproc = dict(zip(inproc["node"].to_pylist(),
                      inproc["dist"].to_pylist()))
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    dist_t = bellman_ford(
        rd.from_pandas(df, override_num_blocks=3), seeds=[0, 5], rounds=3,
    ).to_pandas()
    dist = dict(zip(dist_t["node"], dist_t["dist"]))
    assert inproc == dist


@pytest.mark.parametrize("op", ["bfs_hops", "bellman_ford"])
def test_no_seed_present_gives_typed_empty(ray_session, monkeypatch, op):
    """With every seed absent from the graph both paths return the same
    typed empty (node, dist), never a schema-less Dataset or an
    exception."""
    from kgray.ops import graph
    from kgray.util import collect_table

    df = pd.DataFrame({"u": [1, 2], "v": [2, 3], "w": [4, 5]})
    got = []
    for forced in ("", "1"):
        monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", forced)
        t = getattr(graph, op)(rd.from_pandas(df), seeds=[99])
        t = t if isinstance(t, pa.Table) else collect_table(t)
        got.append(t.replace_schema_metadata(None))
    want = pa.schema([("node", pa.int64()), ("dist", pa.int64())])
    assert [t.num_rows for t in got] == [0, 0]
    assert all(t.schema.equals(want) for t in got), got


def test_bellman_ford_absent_seed_dropped(ray_session, monkeypatch):
    from kgray.ops.graph import bellman_ford

    df = pd.DataFrame({"u": [1], "v": [2], "w": [4]})
    for forced in ("", "1"):
        monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", forced)
        t = bellman_ford(rd.from_pandas(df), seeds=[1, 99], rounds=2)
        got = dict(zip(
            (t["node"].to_pylist() if isinstance(t, pa.Table)
             else t.to_pandas()["node"].tolist()),
            (t["dist"].to_pylist() if isinstance(t, pa.Table)
             else t.to_pandas()["dist"].tolist()),
        ))
        assert got == {1: 0, 2: 4}
