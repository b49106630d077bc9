"""Graph analytics over edge datasets (beyond connected components).

Edges are plain (u, v) rows — the output shape of ``linking.
link_mentions`` / ``dedup.*_dup_pairs`` — so these compose directly
with the KG linking chain.  Both ops treat the graph as UNDIRECTED
(each edge contributes in both directions), matching the mention-link
semantics.

* ``node_degrees`` — one symmetric explode + count-combiner groupby.
* ``pagerank`` — K rounds of power iteration; each round is ONE
  bucket join (ranks onto edge sources) + ONE groupby (contributions
  per destination), the same two-barrier round shape as
  ``canonical.connected_components``.  Driver state is two scalars
  (N, dangling mass) per round — never node-scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from kgray.util import collect_small


def _symmetric(edges, u_col: str = "u", v_col: str = "v"):
    def sym(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [batch[u_col].combine_chunks(),
                     batch[v_col].combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [batch[v_col].combine_chunks(),
                     batch[u_col].combine_chunks()]
                ),
            }
        )

    return edges.map_batches(sym, batch_format="pyarrow")


# The in-process gate every op below shares: at or under this many edge
# rows the op runs its index-array kernel on the driver
MAX_INPROCESS_EDGES = 1_000_000


def _small_graph(edges, u_col: str = "u", v_col: str = "v",
                 dedup: bool = False):
    """The in-process gate of the index-array kernels below: None above
    ``MAX_INPROCESS_EDGES`` edges (or under KGRAY_FORCE_DISTRIBUTED; the
    caller runs its partitioned path), else
    ``(df, nodes, src, dst)`` — the collected edge frame (``dedup`` drops
    repeated (u, v) rows), the sorted distinct endpoints, and the
    symmetric edge list (every u->v row, then every v->u row) as index
    arrays into ``nodes``: ``src[:len(df)]``/``dst[:len(df)]`` are the
    edges as given."""
    tbl = collect_small(edges, max_rows=MAX_INPROCESS_EDGES)
    if tbl is None:
        return None
    df = tbl.to_pandas()
    if dedup:
        df = df.drop_duplicates([u_col, v_col])
    m = len(df)
    nodes, inv = np.unique(
        np.concatenate([df[u_col].to_numpy(), df[v_col].to_numpy()]),
        return_inverse=True,
    )
    return df, nodes, inv, np.concatenate([inv[m:], inv[:m]])


def node_degrees(edges, u_col: str = "u", v_col: str = "v"):
    """(node, degree) over the undirected edge set: symmetric explode,
    per-batch count combiner, one groupby fold."""
    from ray.data.aggregate import Sum

    sym = _symmetric(edges, u_col, v_col)

    def partial(batch: pa.Table) -> pa.Table:
        vc = pa.table({"node": batch["src"]}).group_by("node").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {"node": vc["node"],
             "degree": vc["count_all"].cast(pa.int64())}
        )

    return (
        sym.map_batches(partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("degree", alias_name="degree"))
    )


def _pagerank_kernel(src: np.ndarray, dst: np.ndarray, nodes: np.ndarray,
                     iters: int, damping: float) -> np.ndarray:
    """The power-iteration math over index arrays — shared verbatim by
    the in-process gate and (semantically) the distributed path, and by
    the brute test oracle."""
    n = len(nodes)
    deg = np.zeros(n, np.float64)
    np.add.at(deg, src, 1.0)
    rank = np.full(n, 1.0 / n)
    for _ in range(iters):
        dangling = rank[deg == 0].sum()
        contrib = np.zeros(n)
        nz = deg[src] > 0
        np.add.at(contrib, dst[nz], rank[src[nz]] / deg[src[nz]])
        rank = (1 - damping) / n + damping * contrib + \
            damping * dangling / n
    return rank


def pagerank(edges, iters: int = 10, damping: float = 0.85,
             u_col: str = "u", v_col: str = "v", digits: int = 6):
    """PageRank over the undirected edge set by ``iters`` rounds of
    power iteration: rank' = (1-d)/N + d * (Σ_{src->dst} rank/deg +
    dangling_mass/N).  Symmetric mention graphs have no dangling nodes,
    but the mass term keeps the op correct for general edge lists.

    Scale shape: state is a (node, deg, rank) dataset; each round
    bucket-joins it onto edge sources (contribution = rank/deg per edge
    row), folds contributions per destination with a Sum groupby, and
    rebuilds state with a second bucket join — materialized per round
    (the CC-loop pattern).  The driver holds only N and the dangling
    mass scalar.  Returns (node, rank) with rank rounded to ``digits``.
    """
    from ray.data.aggregate import Sum

    from kgray.ops.joins import bucket_join
    from kgray.util import round_half_up

    edges = edges.materialize()
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        # in-process small-side gate (the CC/minhash pattern: shuffle
        # barriers cost seconds even for dozens of edges; under the gate
        # the SAME power-iteration math runs once on the driver —
        # paths-agree pinned in tests/test_graph.py)
        _, nodes, src, dst = small
        if not len(nodes):
            return pa.table({"node": pa.array([], pa.string()),
                             "rank": pa.array([], pa.float64())})
        rank = _pagerank_kernel(src, dst, nodes, iters, damping)
        return pa.table(
            {"node": pa.array(nodes),
             "rank": pa.array(round_half_up(rank, digits), pa.float64())}
        )

    deg = node_degrees(edges, u_col, v_col).materialize()
    n = deg.count()
    if n == 0:
        return pa.table({"node": pa.array([], pa.string()),
                         "rank": pa.array([], pa.float64())})
    base = (1.0 - damping) / n
    init = 1.0 / n

    def with_rank(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "rank", pa.array(np.full(len(batch), init), pa.float64())
        )

    state = deg.map_batches(with_rank, batch_format="pyarrow").materialize()
    sym = _symmetric(edges, u_col, v_col).materialize()

    for _ in range(iters):
        # dangling mass: rank parked on zero-degree nodes (general edge
        # lists only; a tiny filtered aggregate, not node-scale driver IO)
        dangling = state.map_batches(
            lambda b: pa.table(
                {"m": pc.if_else(pc.equal(b["degree"], 0), b["rank"], 0.0)}
            ),
            batch_format="pyarrow",
        ).sum("m") or 0.0
        contrib = bucket_join(
            sym, state, on="src", right_on="node", how="inner"
        ).map_batches(
            lambda b: pa.table(
                {
                    "dst": b["dst"],
                    "c": pc.divide(
                        b["rank"], pc.cast(b["degree"], pa.float64())
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        sums = contrib.groupby("dst").aggregate(Sum("c", alias_name="c"))
        uplift = base + damping * dangling / n

        def rebuild(batch: pa.Table, uplift=uplift) -> pa.Table:
            c = pc.fill_null(batch["c"], 0.0)
            rank = pc.add(pc.multiply(c, damping), uplift)
            return pa.table(
                {
                    "node": batch["node"],
                    "degree": batch["degree"],
                    "rank": rank,
                }
            )

        state = bucket_join(
            deg, sums, on="node", right_on="dst", how="left"
        ).map_batches(rebuild, batch_format="pyarrow").materialize()

    def finish(batch: pa.Table) -> pa.Table:
        from kgray.util import round_half_up

        return pa.table(
            {
                "node": batch["node"],
                "rank": pa.array(
                    round_half_up(
                        batch["rank"].to_numpy(zero_copy_only=False), digits
                    ),
                    pa.float64(),
                ),
            }
        )

    return state.map_batches(finish, batch_format="pyarrow")


def _triangle_kernel(df: pd.DataFrame, u_col: str, v_col: str,
                     max_degree: int) -> int:
    """Wedge-check math over a pandas edge frame — the in-process twin
    of the distributed path (same cap, same canonicalization)."""
    from kgray.util import pairs_within_groups

    u = df[u_col].to_numpy(object)
    v = df[v_col].to_numpy(object)
    sym = pd.DataFrame(
        {"center": np.concatenate([u, v]), "nbr": np.concatenate([v, u])}
    )
    dtype = df[u_col].dtype.name if df[u_col].dtype.kind in "iu" else "object"
    w = pairs_within_groups(sym, "center", "nbr", max_block=max_degree,
                            dtype=dtype)
    canon = pd.DataFrame(
        {"u": pd.array(np.minimum(u, v), dtype=dtype),
         "v": pd.array(np.maximum(u, v), dtype=dtype)}
    ).drop_duplicates()
    return len(w.merge(canon, on=["u", "v"])) // 3


def triangle_count(edges, u_col: str = "u", v_col: str = "v",
                   max_degree: int = 4096):
    """Global triangle count via the node-iterator (wedge-check) MR
    algorithm.

    Stage 1 (one cogroup on the center node): build per-node neighbor
    lists and emit each node's WEDGES — ordered neighbor pairs
    (w1 < w2).  Wedge volume is O(deg^2) per node; nodes above
    ``max_degree`` are skipped (the LSH degenerate-block cap), bounding
    the worst case.  Stage 2 (one cogroup on the pair's first element):
    a wedge closes iff its (w1, w2) pair is a canonical (u < v) edge; a
    triangle {a,b,c} contributes exactly three wedges (one per center,
    each closed by the opposite edge), so triangles = closures / 3.
    Returns a one-row (n_triangles) table."""
    import pandas as pd

    from kgray.util import grouped_map, pairs_within_groups

    edges = edges.materialize()
    small = collect_small(edges, max_rows=MAX_INPROCESS_EDGES)
    if small is not None:
        # in-process small-side gate (see pagerank): same kernel, zero
        # shuffle barriers; paths-agree pinned in tests/test_graph.py
        n = _triangle_kernel(small.to_pandas(), u_col, v_col, max_degree)
        return pa.table({"n_triangles": pa.array([n], pa.int64())})

    sym = _symmetric(edges, u_col, v_col)

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        out = pairs_within_groups(
            df.rename(columns={"src": "center", "dst": "nbr"}),
            "center", "nbr", max_block=max_degree,
            dtype=df["dst"].dtype.name if df["dst"].dtype.kind in "iu"
            else "object",
        )
        out["is_edge"] = pd.array(np.zeros(len(out), np.int8), dtype="int8")
        return out  # (u, v, is_edge=0): one row per wedge

    wedge_rows = grouped_map(sym, "src", wedges)

    def canon(batch: pa.Table) -> pa.Table:
        u, v = batch[u_col], batch[v_col]
        return pa.table(
            {
                "u": pc.min_element_wise(u, v),
                "v": pc.max_element_wise(u, v),
                "is_edge": pa.array(np.ones(len(batch), np.int8)),
            }
        )

    edge_rows = edges.map_batches(canon, batch_format="pyarrow")

    def close(df: pd.DataFrame) -> pd.DataFrame:
        w = df[df["is_edge"] == 0]
        e = df[df["is_edge"] == 1]
        if not len(w) or not len(e):
            return pd.DataFrame({"n": pd.array([0], dtype="int64")})
        merged = w.merge(e[["u", "v"]].drop_duplicates(), on=["u", "v"])
        return pd.DataFrame({"n": pd.array([len(merged)], dtype="int64")})

    closed = grouped_map(wedge_rows.union(edge_rows), "u", close)
    total = closed.sum("n") or 0
    return pa.table({"n_triangles": pa.array([total // 3], pa.int64())})


def _pagerank_int_kernel(src: np.ndarray, dst: np.ndarray, n: int,
                         iters: int, scale: int,
                         seed_idx: np.ndarray | None = None) -> np.ndarray:
    """Fixed-point integer power iteration (damping 85/100, all ops
    int64 floor division) — bit-exact regardless of summation order,
    which is what lets the SQL oracle unroll the same recurrence with
    SUM/``//`` and match hash-for-hash (the Q9 integral-coefficient
    lesson: floats drift across engines, integers cannot).  Shared by
    the in-process gate, the distributed path and the brute test
    oracle.  ``src``/``dst`` index the SYMMETRIC edge list.
    ``seed_idx`` switches to PERSONALIZED pagerank: the 15% teleport
    mass lands only on the seed nodes (split evenly, integer floor)
    instead of uniformly."""
    deg = np.zeros(n, np.int64)
    np.add.at(deg, src, 1)
    rank = np.full(n, scale // n, np.int64)
    if seed_idx is None:
        basev = np.full(n, (15 * scale) // (100 * n), np.int64)
    else:
        basev = np.zeros(n, np.int64)
        basev[seed_idx] = (15 * scale) // (100 * len(seed_idx))
    nz = deg[src] > 0
    snz, dnz = src[nz], dst[nz]
    for _ in range(iters):
        dang = int(rank[deg == 0].sum())
        contrib = np.zeros(n, np.int64)
        np.add.at(contrib, dnz, rank[snz] // deg[snz])
        rank = basev + (85 * (contrib + dang // n)) // 100
    return rank


def pagerank_int(edges, iters: int = 4, scale: int = 10**12,
                 u_col: str = "u", v_col: str = "v",
                 seeds=None):
    """Deterministic integer-arithmetic PageRank over the undirected
    edge set: rank' = (15*S)//(100*N) + (85*(Σ rank//deg + dang//N))//100
    with S = ``scale``.  Unlike float :func:`pagerank` (whose per-node
    contribution sums are summation-order-sensitive), every operation
    here is exact int64, so a DuckDB oracle that unrolls the identical
    recurrence (integer ``//``, SUM, LEFT JOIN COALESCE 0) matches on
    the value hash — this is the oracle-checkable face of the PageRank
    family.  Same two-barrier round shape as :func:`pagerank`; returns
    (node, r) with r int64."""
    from ray.data.aggregate import Sum

    from kgray.ops.joins import bucket_join

    edges = edges.materialize()
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        _, nodes, src, dst = small
        if not len(nodes):
            return pa.table({"node": pa.array([], pa.int64()),
                             "r": pa.array([], pa.int64())})
        seed_idx = None
        if seeds is not None:
            # seeds filtered to graph nodes on BOTH paths (the
            # bellman_ford lesson: absent seeds must not carry mass)
            seed_idx = np.nonzero(
                np.isin(nodes, np.unique(np.asarray(list(seeds)))))[0]
            if not len(seed_idx):
                raise ValueError("pagerank_int: no seed is a graph node")
        rank = _pagerank_int_kernel(src, dst, len(nodes), iters, scale,
                                    seed_idx)
        return pa.table({"node": pa.array(nodes),
                         "r": pa.array(rank, pa.int64())})

    deg = node_degrees(edges, u_col, v_col).materialize()
    n = deg.count()
    if n == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "r": pa.array([], pa.int64())})
    seed_set = None
    if seeds is not None:
        import ray as _ray

        # count seeds PRESENT in the graph (distributed membership fold;
        # the seed list itself is a constant-bounded broadcast)
        sarr = np.unique(np.asarray(list(seeds)))
        sref = _ray.put(sarr)
        n_seed = int(deg.map_batches(
            lambda b: pa.table({"m": pa.array(np.isin(
                b["node"].to_numpy(zero_copy_only=False),
                _ray.get(sref)).astype(np.int64))}),
            batch_format="pyarrow").sum("m") or 0)
        if n_seed == 0:
            raise ValueError("pagerank_int: no seed is a graph node")
        seed_set = (sref, (15 * scale) // (100 * n_seed))
    base = (15 * scale) // (100 * n)
    init = scale // n

    def with_rank(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "r", pa.array(np.full(len(batch), init, np.int64))
        )

    state = deg.map_batches(with_rank, batch_format="pyarrow").materialize()
    sym = _symmetric(edges, u_col, v_col).materialize()

    for _ in range(iters):
        dangling = int(
            state.map_batches(
                lambda b: pa.table(
                    {"m": pc.if_else(pc.equal(b["degree"], 0), b["r"],
                                     pa.scalar(0, pa.int64()))}
                ),
                batch_format="pyarrow",
            ).sum("m") or 0
        )
        contrib = bucket_join(
            sym, state, on="src", right_on="node", how="inner"
        ).map_batches(
            lambda b: pa.table(
                {
                    "dst": b["dst"],
                    "c": pa.array(
                        b["r"].to_numpy() // b["degree"].to_numpy(),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        sums = contrib.groupby("dst").aggregate(Sum("c", alias_name="c"))
        uplift = dangling // n

        def rebuild(batch: pa.Table, uplift=uplift) -> pa.Table:
            c = pc.fill_null(batch["c"], pa.scalar(0, pa.int64()))
            if seed_set is None:
                bv = base
            else:
                import ray as _ray

                sref_, sbase = seed_set
                bv = np.where(
                    np.isin(batch["node"].to_numpy(zero_copy_only=False),
                            _ray.get(sref_)),
                    np.int64(sbase), np.int64(0))
            r = bv + (
                85 * (c.to_numpy(zero_copy_only=False) + uplift)
            ) // 100
            return pa.table(
                {
                    "node": batch["node"],
                    "degree": batch["degree"],
                    "r": pa.array(r, pa.int64()),
                }
            )

        state = bucket_join(
            deg, sums, on="node", right_on="dst", how="left"
        ).map_batches(rebuild, batch_format="pyarrow").materialize()

    return state.select_columns(["node", "r"])


def bfs_hops(edges, seeds, max_hops: int = 4,
             u_col: str = "u", v_col: str = "v"):
    """Bounded-depth BFS distances from a seed set over the undirected
    edge list — the transitive-closure / k-hop-neighborhood primitive.
    Exact integer min-relaxation, so the SQL oracle unrolls
    d_{i} = MIN(d_{i-1}, 1 + d_{i-1} over neighbors) ``max_hops``
    times and matches exactly.

    Distributed path is FRONTIER BFS, not full relaxation: each round
    bucket-joins only the newest level onto edge sources, min-folds
    candidate distances, and anti-joins (marker cogroup) against the
    settled set — the per-round shuffle shrinks with the frontier,
    unlike the oracle's full re-scan.  Level-order equivalence of the
    two is the classic BFS invariant (first discovery = shortest
    unweighted path).  ``seeds`` is a python list of node ids (a query
    parameter, not data-scale).  Returns (node, dist) for reached
    nodes with dist <= max_hops."""
    from ray.data.aggregate import Min

    from kgray.ops.joins import bucket_join

    edges = edges.materialize()
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        _, nodes, src, dst = small
        if not len(nodes):
            return pa.table({"node": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.int64())})
        dist = np.full(len(nodes), -1, np.int64)
        dist[np.isin(nodes, np.asarray(list(seeds)))] = 0
        frontier = dist == 0
        for h in range(1, max_hops + 1):
            hit = frontier[src]
            nxt = np.zeros(len(nodes), bool)
            nxt[dst[hit]] = True
            nxt &= dist < 0
            if not nxt.any():
                break
            dist[nxt] = h
            frontier = nxt
        keep = dist >= 0
        return pa.table({"node": pa.array(nodes[keep]),
                         "dist": pa.array(dist[keep], pa.int64())})

    sym = _symmetric(edges, u_col, v_col).materialize()
    seed_arr = pa.array(list(seeds), pa.int64())
    settled = (
        sym.map_batches(
            lambda b, s=seed_arr: pa.table(
                {"node": pc.unique(
                    b["src"].combine_chunks().filter(
                        pc.is_in(b["src"].combine_chunks(),
                                 value_set=s)
                    )
                )}
            ),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Min("node", alias_name="_"))
        .select_columns(["node"])
        .map_batches(
            lambda b: b.append_column(
                "dist", pa.array(np.zeros(len(b), np.int64))
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    frontier = settled
    for h in range(1, max_hops + 1):
        if frontier.count() == 0:
            break
        cand = (
            bucket_join(sym, frontier.select_columns(["node"]),
                        on="src", right_on="node", how="inner")
            .groupby("dst")
            .aggregate(Min("dst", alias_name="_"))
            .select_columns(["dst"])
        )
        from kgray.ops.joins import semi_join

        fresh = semi_join(
            cand, settled, on="dst", right_on="node", anti=True
        ).map_batches(
            lambda b, h=h: pa.table(
                {
                    "node": b["dst"],
                    "dist": pa.array(np.full(len(b), h, np.int64)),
                }
            ),
            batch_format="pyarrow",
        ).materialize()
        settled = settled.union(fresh).materialize()
        frontier = fresh
    return settled


def landmark_distances(edges, landmarks, max_hops: int = 3,
                       u_col: str = "u", v_col: str = "v"):
    """Multi-source BFS distance sketch: hop distances from every
    LANDMARK to every reachable node over the undirected edge list —
    the landmark/pivot distance-labeling primitive (estimate d(x, y)
    <= min_l d(x, l) + d(l, y) without all-pairs work).  Exact integer
    min-relaxation per landmark, so the SQL oracle unrolls the bfs_hops
    recurrence with a landmark dimension and matches exactly.

    Landmarks absent from the graph contribute nothing (the
    bellman_ford seed rule, applied on BOTH paths).  In-process gate:
    one numpy frontier loop per landmark over the unique-node arrays.
    Distributed path: ONE shared frontier dataset keyed (node,
    landmark) — each round bucket-joins the frontier onto edge
    sources, dedups candidate (dst, lm) pairs, and anti-joins the
    settled set on the encoded key node * 64 + lm_idx (<= 64 landmarks
    by construction); the per-round shuffle shrinks with the frontier.
    Returns (node, lm, dist) with dist <= max_hops."""
    from ray.data.aggregate import Min

    from kgray.ops.joins import bucket_join, semi_join

    lms = sorted(int(x) for x in landmarks)
    assert len(lms) <= 64, "encoded anti-join key supports <= 64 landmarks"
    idx_of = {lm: i for i, lm in enumerate(lms)}

    edges = edges.materialize()
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        _, nodes, src, dst = small
        out_n, out_l, out_d = [], [], []
        if len(nodes):
            for lm in lms:
                if lm not in nodes:
                    continue
                dist = np.full(len(nodes), -1, np.int64)
                dist[np.searchsorted(nodes, lm)] = 0
                frontier = dist == 0
                for h in range(1, max_hops + 1):
                    nxt = np.zeros(len(nodes), bool)
                    nxt[dst[frontier[src]]] = True
                    nxt &= dist < 0
                    if not nxt.any():
                        break
                    dist[nxt] = h
                    frontier = nxt
                keep = dist >= 0
                out_n.append(nodes[keep])
                out_l.append(np.full(keep.sum(), lm, np.int64))
                out_d.append(dist[keep])
        if not out_n:
            return pa.table({"node": pa.array([], pa.int64()),
                             "lm": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.int64())})
        return pa.table({
            "node": pa.array(np.concatenate(out_n).astype(np.int64)),
            "lm": pa.array(np.concatenate(out_l)),
            "dist": pa.array(np.concatenate(out_d)),
        })

    sym = _symmetric(edges, u_col, v_col).materialize()
    lm_arr = pa.array(lms, pa.int64())

    def seed_rows(b: pa.Table) -> pa.Table:
        s = pc.unique(b["src"].combine_chunks().filter(
            pc.is_in(b["src"].combine_chunks(), value_set=lm_arr)))
        n = s.to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "node": pa.array(n), "lm": pa.array(n),
            "dist": pa.array(np.zeros(len(n), np.int64)),
            "ek": pa.array(n * 64 + np.array(
                [idx_of[int(x)] for x in n], np.int64)),
        })

    settled = (
        sym.map_batches(seed_rows, batch_format="pyarrow")
        .groupby("ek").aggregate(Min("node", alias_name="node"),
                                 Min("lm", alias_name="lm"),
                                 Min("dist", alias_name="dist"))
        .materialize()
    )
    frontier = settled
    for h in range(1, max_hops + 1):
        if frontier.count() == 0:
            break
        cand = (
            bucket_join(sym, frontier.select_columns(["node", "lm"]),
                        on="src", right_on="node", how="inner")
            .groupby(["dst", "lm"]).aggregate(
                Min("lm", alias_name="_"))
            .select_columns(["dst", "lm"])
            .map_batches(
                lambda b: pa.table({
                    "node": b["dst"], "lm": b["lm"],
                    "ek": pc.add(
                        pc.multiply(pc.cast(b["dst"], pa.int64()),
                                    pa.scalar(64, pa.int64())),
                        pa.array([idx_of[int(x)]
                                  for x in b["lm"].to_pylist()],
                                 pa.int64())),
                }),
                batch_format="pyarrow")
        )
        fresh = semi_join(cand, settled, on="ek", anti=True) \
            .map_batches(
                lambda b, h=h: pa.table({
                    "node": b["node"], "lm": b["lm"],
                    "dist": pa.array(np.full(len(b), h, np.int64)),
                    "ek": b["ek"],
                }),
                batch_format="pyarrow").materialize()
        settled = settled.union(fresh).materialize()
        frontier = fresh
    return settled.select_columns(["node", "lm", "dist"])


def greedy_matching(edges, rounds: int = 3,
                    u_col: str = "u", v_col: str = "v"):
    """Distributed greedy MAXIMAL MATCHING (the parallel 'local-min
    edge' algorithm): each round every node nominates its minimum
    incident edge in the deterministic (u, v) order; an edge matched
    by BOTH endpoints joins the matching, its endpoints and their
    incident edges drop out, repeat.  ``rounds`` is fixed (with a
    converged short-circuit), so an unrolled SQL recurrence matches
    exactly — the kcore/pagerank_int oracle pattern for a
    combinatorial optimization primitive.

    Edge identity is the int64 encode u * 2^32 + v (requires ids <
    2^31 — assert-guarded); per round the distributed path pays one
    per-node min fold + two joins (edge == both endpoints' min) + two
    anti-joins (drop matched endpoints).  Returns (u, v, round)."""
    from kgray.ops.agg import pre_aggregate
    from kgray.ops.joins import bucket_join, semi_join

    def dedup_norm(batch: pa.Table) -> pa.Table:
        a = batch[u_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[v_col].to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        keep = u != v  # self-loops never match
        df = pd.DataFrame({"u": u[keep], "v": v[keep]}).drop_duplicates()
        assert (df["v"] < (1 << 31)).all(), "edge encode needs ids < 2^31"
        df["eid"] = (df["u"].to_numpy(np.int64) << 32) \
            + df["v"].to_numpy(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    e = pre_aggregate(
        edges.map_batches(dedup_norm, batch_format="pyarrow"),
        ["u", "v"], {"eid": ("eid", "min")},
    ).materialize()

    if e.count() == 0:  # e.g. only self-loops: schema-less empty
        return pa.table({"u": pa.array([], pa.int64()),
                         "v": pa.array([], pa.int64()),
                         "round": pa.array([], pa.int64())})

    small = collect_small(e, max_rows=MAX_INPROCESS_EDGES)
    if small is not None:
        df = small.to_pandas()
        uu = df["u"].to_numpy(np.int64)
        vv = df["v"].to_numpy(np.int64)
        eid = df["eid"].to_numpy(np.int64)
        alive = np.ones(len(df), bool)
        out_u, out_v, out_r = [], [], []
        for r in range(1, rounds + 1):
            if not alive.any():
                break
            au, av, ae = uu[alive], vv[alive], eid[alive]
            nodes = np.concatenate([au, av])
            eids2 = np.concatenate([ae, ae])
            order = np.lexsort((eids2, nodes))
            n_sorted = nodes[order]
            first = np.ones(len(n_sorted), bool)
            first[1:] = n_sorted[1:] != n_sorted[:-1]
            mkeys = n_sorted[first]
            mvals = eids2[order][first]
            mu = mvals[np.searchsorted(mkeys, au)]
            mv = mvals[np.searchsorted(mkeys, av)]
            m = (mu == ae) & (mv == ae)
            if not m.any():
                break
            out_u.extend(au[m].tolist())
            out_v.extend(av[m].tolist())
            out_r.extend([r] * int(m.sum()))
            dead = np.unique(np.concatenate([au[m], av[m]]))
            alive_idx = np.flatnonzero(alive)
            drop = np.isin(au, dead) | np.isin(av, dead)
            alive[alive_idx[drop]] = False
        return pa.table({"u": pa.array(out_u, pa.int64()),
                         "v": pa.array(out_v, pa.int64()),
                         "round": pa.array(out_r, pa.int64())})

    matched = None
    cur = e
    for r in range(1, rounds + 1):
        if cur.count() == 0:
            break
        sym = cur.map_batches(
            lambda b: pa.table({
                "node": pa.concat_arrays(
                    [b["u"].combine_chunks(), b["v"].combine_chunks()]),
                "eid": pa.concat_arrays(
                    [b["eid"].combine_chunks(),
                     b["eid"].combine_chunks()]),
            }),
            batch_format="pyarrow")
        nmin = pre_aggregate(sym, ["node"], {"me": ("eid", "min")})
        ju = bucket_join(cur, nmin, on="u", right_on="node", how="inner")
        ju = ju.filter(expr="eid == me").select_columns(["u", "v", "eid"])
        jv = bucket_join(ju, nmin, on="v", right_on="node", how="inner")
        mt = jv.filter(expr="eid == me") \
            .select_columns(["u", "v"]).materialize()
        if mt.count() == 0:
            break
        mrows = mt.map_batches(
            lambda b, r=r: b.append_column(
                "round", pa.array(np.full(len(b), r, np.int64))),
            batch_format="pyarrow")
        matched = mrows if matched is None else matched.union(mrows)
        matched = matched.materialize()
        dead = mt.map_batches(
            lambda b: pa.table({"node": pa.concat_arrays(
                [b["u"].combine_chunks(), b["v"].combine_chunks()])}),
            batch_format="pyarrow")
        cur = semi_join(cur, dead, on="u", right_on="node", anti=True)
        cur = semi_join(cur, dead, on="v", right_on="node",
                        anti=True).materialize()
    if matched is None:
        return pa.table({"u": pa.array([], pa.int64()),
                         "v": pa.array([], pa.int64()),
                         "round": pa.array([], pa.int64())})
    return matched


def kcore(edges, k: int, rounds: int = 3,
          u_col: str = "u", v_col: str = "v"):
    """Fixed-round k-core peeling over the undirected edge list: each
    round recomputes degrees and drops nodes with degree < ``k`` plus
    their incident edges.  Returns (node, deg) over the edge set left
    after ``rounds`` peels — degrees are exact integers, so running the
    SAME fixed round count on both engines makes the unrolled-CTE DuckDB
    oracle match by construction (the pagerank_int/bfs_hops pattern);
    at convergence (edge set stable, detected and short-circuited) the
    result is the true k-core.

    Distributed path per round: ONE symmetric-explode count-combiner
    groupby for degrees + TWO semi-joins to drop incident edges —
    edge-scale shuffles that shrink as peeling proceeds, no node-scale
    driver state.  In-process gate (``MAX_INPROCESS_EDGES``, collapsed
    by KGRAY_FORCE_DISTRIBUTED) runs the identical recurrence in numpy.
    """
    from ray.data.aggregate import Sum

    from kgray.ops.joins import semi_join

    edges = edges.materialize()
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        df, nodes, src, dst = small
        src, dst = src[:len(df)], dst[:len(df)]
        alive_e = np.ones(len(df), bool)
        for _ in range(rounds):
            deg = np.bincount(src[alive_e], minlength=len(nodes)) \
                + np.bincount(dst[alive_e], minlength=len(nodes))
            keep = deg >= k
            nxt = alive_e & keep[src] & keep[dst]
            if nxt.sum() == alive_e.sum():
                break
            alive_e = nxt
        deg = np.bincount(src[alive_e], minlength=len(nodes)) \
            + np.bincount(dst[alive_e], minlength=len(nodes))
        nz = deg > 0
        return pa.table({"node": pa.array(nodes[nz]),
                         "deg": pa.array(deg[nz], pa.int64())})

    cur = edges
    prev_count = edges.count()
    for _ in range(rounds):
        def deg_partial(batch: pa.Table) -> pa.Table:
            t = pa.table(
                {
                    "node": pa.concat_arrays(
                        [batch[u_col].combine_chunks(),
                         batch[v_col].combine_chunks()]
                    )
                }
            )
            g = t.group_by("node").aggregate([("node", "count")])
            return g.rename_columns(["node", "dn"])

        keep = (
            cur.map_batches(deg_partial, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("dn", alias_name="deg"))
            .filter(expr=f"deg >= {int(k)}")
            .select_columns(["node"])
            .materialize()
        )
        nxt = semi_join(
            semi_join(cur, keep, on=u_col, right_on="node"),
            keep, on=v_col, right_on="node",
        ).materialize()
        n = nxt.count()
        cur = nxt
        if n == prev_count:
            break
        prev_count = n

    def final_deg(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "node": pa.concat_arrays(
                    [batch[u_col].combine_chunks(),
                     batch[v_col].combine_chunks()]
                )
            }
        )
        g = t.group_by("node").aggregate([("node", "count")])
        return g.rename_columns(["node", "dn"])

    return (
        cur.map_batches(final_deg, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("dn", alias_name="deg"))
    )


def _hits_int_kernel(src: np.ndarray, dst: np.ndarray, nu: int, nv: int,
                     iters: int, scale: int):
    """Fixed-point integer HITS (Kleinberg mutual reinforcement) over a
    DIRECTED edge list indexed hub-side/auth-side separately: per round
    a = Σ_{u→v} h(u) then a ← a*S // max(a), symmetric for h — all int64
    floor arithmetic, bit-exact in any summation order (the pagerank_int
    trick), so the SQL oracle unrolls the identical recurrence.
    Normalization is by MAX (not sum) to keep every intermediate within
    deg_max·S² < 2^63 (S = 10^6 leaves headroom to deg_max ~ 9e6).
    Shared by the in-process gate and the distributed path."""
    h = np.full(nu, scale, np.int64)
    a = np.zeros(nv, np.int64)
    for _ in range(iters):
        a = np.zeros(nv, np.int64)
        np.add.at(a, dst, h[src])
        a = a * scale // max(1, int(a.max()) if len(a) else 1)
        h = np.zeros(nu, np.int64)
        np.add.at(h, src, a[dst])
        h = h * scale // max(1, int(h.max()) if len(h) else 1)
    return h, a


def hits_int(edges, iters: int = 2, scale: int = 10**6,
             u_col: str = "u", v_col: str = "v"):
    """HITS hubs & authorities over the DIRECTED (u → v) edge set —
    natural on bipartite graphs (suppliers = hubs, parts = authorities).
    Integer fixed point: h₀ = S on every source node; per round
    a(v) = Σ h(u) over in-edges, max-normalized to S by floor division,
    then h(u) = Σ a(v) over out-edges, max-normalized — deterministic
    int64, so the DuckDB oracle unrolls the same recurrence and matches
    hash-for-hash (the pagerank_int pattern).

    Distributed round = 2 bucket joins (scores onto edge endpoints) +
    2 count-combiner groupbys + 2 scalar MAX folds; driver state is two
    scalars per round.  In-process gate at or under ``MAX_INPROCESS_EDGES``
    (collapsed by KGRAY_FORCE_DISTRIBUTED) runs the same kernel.
    Returns (node, score, side) rows, side ∈ {'hub', 'auth'}."""
    from ray.data.aggregate import Sum

    from kgray.ops.joins import bucket_join

    edges = edges.materialize()
    if edges.count() == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "score": pa.array([], pa.int64()),
                         "side": pa.array([], pa.string())})
    small = collect_small(edges, max_rows=MAX_INPROCESS_EDGES)
    if small is not None:
        df = small.to_pandas()
        hubs, hi = np.unique(df[u_col].to_numpy(), return_inverse=True)
        auths, ai = np.unique(df[v_col].to_numpy(), return_inverse=True)
        h, a = _hits_int_kernel(hi, ai, len(hubs), len(auths), iters,
                                scale)
        return pa.table(
            {
                "node": pa.array(np.concatenate([hubs, auths])),
                "score": pa.array(np.concatenate([h, a]), pa.int64()),
                "side": pa.array(["hub"] * len(hubs) + ["auth"] * len(auths)),
            }
        )

    def distinct_side(col: str):
        def part(batch: pa.Table) -> pa.Table:
            return pa.table({"node": pc.unique(batch[col].combine_chunks())})

        from ray.data.aggregate import Min

        return (
            edges.map_batches(part, batch_format="pyarrow")
            .groupby("node").aggregate(Min("node", alias_name="_"))
            .select_columns(["node"])
        )

    def with_score(ds, value: int):
        return ds.map_batches(
            lambda b, value=value: b.append_column(
                "score", pa.array(np.full(len(b), value, np.int64))
            ),
            batch_format="pyarrow",
        ).materialize()

    def propagate(score_ds, join_col: str, out_col: str):
        """Σ score over edges joined on ``join_col``, grouped by
        ``out_col``, then max-normalized to ``scale``."""
        raw = (
            bucket_join(edges, score_ds, on=join_col, right_on="node",
                        how="inner")
            .map_batches(
                lambda b: pa.table({"node": b[out_col], "s": b["score"]}),
                batch_format="pyarrow",
            )
            .groupby("node")
            .aggregate(Sum("s", alias_name="s"))
            .materialize()
        )
        mx = raw.max("s") or 1

        def norm(batch: pa.Table, mx=int(mx)) -> pa.Table:
            s = batch["s"].to_numpy(zero_copy_only=False)
            return pa.table(
                {"node": batch["node"],
                 "score": pa.array(s * scale // mx, pa.int64())}
            )

        return raw.map_batches(norm, batch_format="pyarrow").materialize()

    h = with_score(distinct_side(u_col), scale)
    a = None
    for _ in range(iters):
        a = propagate(h, u_col, v_col)
        h = propagate(a, v_col, u_col)

    tag = lambda side: (  # noqa: E731
        lambda b, side=side: b.append_column(
            "side", pa.array([side] * len(b), pa.string())
        )
    )
    return h.map_batches(tag("hub"), batch_format="pyarrow").union(
        a.map_batches(tag("auth"), batch_format="pyarrow")
    )


def _node_triangle_kernel(df: pd.DataFrame, u_col: str, v_col: str,
                          max_degree: int) -> pa.Table:
    """Per-node triangle counts via wedge closure — each triangle
    {a,b,c} closes exactly ONE wedge per center, so counting closed
    wedges BY CENTER is the per-node count directly (no //3)."""
    from kgray.util import pairs_within_groups

    u = df[u_col].to_numpy()
    v = df[v_col].to_numpy()
    sym = pd.DataFrame(
        {"center": np.concatenate([u, v]), "nbr": np.concatenate([v, u])}
    )
    dtype = df[u_col].dtype.name if df[u_col].dtype.kind in "iu" else "object"
    w = pairs_within_groups(sym, "center", "nbr", max_block=max_degree,
                            dtype=dtype, key_out="center")
    canon = pd.DataFrame(
        {"u": pd.array(np.minimum(u, v), dtype=dtype),
         "v": pd.array(np.maximum(u, v), dtype=dtype)}
    ).drop_duplicates()
    closed = w.merge(canon, on=["u", "v"])
    cnt = closed.groupby("center", sort=False).size()
    return pa.table(
        {"node": pa.array(cnt.index.to_numpy()),
         "tri": pa.array(cnt.to_numpy(np.int64), pa.int64())}
    )


def node_triangles(edges, u_col: str = "u", v_col: str = "v",
                   max_degree: int = 4096):
    """Per-node triangle participation counts over the undirected edge
    set (the local-clustering-coefficient numerator).  Same wedge-check
    MR as :func:`triangle_count` but wedges CARRY their center node:
    stage 1 (center cogroup) emits (u, v, center) wedges, stage 2 (pair
    cogroup) closes them against canonical edges and folds partial
    counts per center; a final Sum groupby merges partials.  A triangle
    closes exactly one wedge per corner, so counts are per-node exact
    (nodes on no triangle are absent — join degrees downstream).  Nodes
    above ``max_degree`` are skipped, bounding wedge volume (documented
    cap, same as triangle_count)."""
    from ray.data.aggregate import Sum

    from kgray.util import grouped_map, pairs_within_groups

    edges = edges.materialize()
    small = collect_small(edges, max_rows=MAX_INPROCESS_EDGES)
    if small is not None:
        return _node_triangle_kernel(small.to_pandas(), u_col, v_col,
                                     max_degree)

    sym = _symmetric(edges, u_col, v_col)

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        out = pairs_within_groups(
            df.rename(columns={"src": "center", "dst": "nbr"}),
            "center", "nbr", max_block=max_degree,
            dtype=df["dst"].dtype.name if df["dst"].dtype.kind in "iu"
            else "object",
            key_out="center",
        )
        out["is_edge"] = pd.array(np.zeros(len(out), np.int8), dtype="int8")
        return out

    wedge_rows = grouped_map(sym, "src", wedges)

    def canon(batch: pa.Table) -> pa.Table:
        u, v = batch[u_col], batch[v_col]
        return pa.table(
            {
                "u": pc.min_element_wise(u, v),
                "v": pc.max_element_wise(u, v),
                "center": pc.min_element_wise(u, v),  # unused on edge rows
                "is_edge": pa.array(np.ones(len(batch), np.int8)),
            }
        )

    edge_rows = edges.map_batches(canon, batch_format="pyarrow")

    def close(df: pd.DataFrame) -> pd.DataFrame:
        w = df[df["is_edge"] == 0]
        e = df[df["is_edge"] == 1]
        if not len(w) or not len(e):
            return pd.DataFrame(
                {"node": pd.array([], dtype=df["center"].dtype.name),
                 "tri": pd.array([], dtype="int64")}
            )
        merged = w.merge(e[["u", "v"]].drop_duplicates(), on=["u", "v"])
        cnt = merged.groupby("center", sort=False).size()
        return pd.DataFrame(
            {"node": cnt.index.to_numpy(),
             "tri": cnt.to_numpy(np.int64)}
        )

    partial = grouped_map(wedge_rows.union(edge_rows), "u", close)
    return partial.groupby("node").aggregate(Sum("tri", alias_name="tri"))


def _lpa_kernel(src: np.ndarray, dst: np.ndarray, n: int,
                rounds: int) -> np.ndarray:
    """Synchronous label propagation over factorized SYMMETRIC edges:
    per round each node takes the most frequent label among its
    neighbors AND ITSELF (one self-vote — without it synchronous LPA
    oscillates forever on 2-node communities and bipartite blocks;
    with it every tie resolves toward the community min and the
    recurrence converges), ties broken by MIN label.  Labels are node
    indices (np.unique sorts, so index order == id order and
    min-index == min-id).  Deterministic by construction — the SQL
    oracle unrolls the identical (max count, min label) choice with a
    window MAX."""
    self_votes = np.arange(n, dtype=np.int64)
    src = np.concatenate([src, self_votes])
    dst = np.concatenate([dst, self_votes])
    lbl = np.arange(n, dtype=np.int64)
    for _ in range(rounds):
        # count (dst, lbl[src]) pairs; pick per dst: max count, min lbl
        key = dst.astype(np.int64) * n + lbl[src]
        uk, cnt = np.unique(key, return_counts=True)
        node = uk // n
        cand = uk % n
        # sort by (node, -count, cand) and take the first row per node
        order = np.lexsort((cand, -cnt, node))
        node_s = node[order]
        first = np.ones(len(node_s), bool)
        first[1:] = node_s[1:] != node_s[:-1]
        nxt = lbl.copy()
        nxt[node_s[first]] = cand[order][first]
        lbl = nxt
    return lbl


def lpa_labels(edges, rounds: int = 3,
               u_col: str = "u", v_col: str = "v"):
    """Community detection by fixed-round synchronous label propagation
    (Raghavan et al. 2007) over the undirected edge set: label(v) ←
    most-frequent label among neighbors PLUS v's own current label
    (one self-vote — the convergent synchronous formulation; pure
    neighbor voting oscillates on 2-node communities), ties → MIN
    label, ``rounds`` rounds.  Integer label ids + a deterministic
    tie-break make the recurrence engine-exact, so the DuckDB oracle
    unrolls it (counts CTE + window MAX + MIN label filter per round
    — the pagerank_int pattern).

    Distributed round = ONE bucket join (labels onto edge sources) +
    ONE dst cogroup (vectorized per-dst mode with the same tie-break);
    state is the (node, lbl) table, materialized per round (CC-loop
    shape).  Returns (node, lbl)."""
    from kgray.ops.joins import bucket_join
    from kgray.util import grouped_map

    edges = edges.materialize()
    if edges.count() == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "lbl": pa.array([], pa.int64())})
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        _, nodes, src, dst = small
        lbl = _lpa_kernel(src, dst, len(nodes), rounds)
        return pa.table({"node": pa.array(nodes),
                         "lbl": pa.array(nodes[lbl], pa.int64())})

    sym = _symmetric(edges, u_col, v_col).materialize()
    state = node_degrees(edges, u_col, v_col).map_batches(
        lambda b: pa.table({"node": b["node"],
                            "lbl": pc.cast(b["node"], pa.int64())}),
        batch_format="pyarrow",
    ).materialize()

    def mode_per_dst(df: pd.DataFrame) -> pd.DataFrame:
        c = (
            df.groupby(["dst", "lbl"], sort=False).size().rename("c")
            .reset_index()
        )
        c = c.sort_values(["dst", "c", "lbl"],
                          ascending=[True, False, True], kind="mergesort")
        top = c.drop_duplicates("dst")
        return pd.DataFrame(
            {"node": top["dst"].to_numpy(),
             "lbl": top["lbl"].to_numpy(np.int64)}
        )

    for _ in range(rounds):
        joined = bucket_join(
            sym, state, on="src", right_on="node", how="inner"
        ).map_batches(
            lambda b: pa.table({"dst": b["dst"], "lbl": b["lbl"]}),
            batch_format="pyarrow",
        )
        # the self-vote: each node's own current label joins the count
        self_votes = state.map_batches(
            lambda b: pa.table({"dst": b["node"], "lbl": b["lbl"]}),
            batch_format="pyarrow",
        )
        state = grouped_map(
            joined.union(self_votes), "dst", mode_per_dst
        ).materialize()
    return state


def bellman_ford(edges, seeds, rounds: int = 3,
                 u_col: str = "u", v_col: str = "v", w_col: str = "w"):
    """Bounded-round single-source shortest paths over the undirected
    WEIGHTED edge list (integer weights) — Bellman-Ford relaxation:
    d_i(node) = MIN(d_{i-1}(node), MIN over edges d_{i-1}(src) + w).
    All-integer arithmetic is order-exact, so the DuckDB oracle unrolls
    the identical ``rounds`` relaxations and matches hash-for-hash (the
    bfs_hops pattern, but distances CAN improve after first discovery,
    so every round re-relaxes the full reached set — no settled-set
    shortcut).  Returns (node, dist) for nodes reached within
    ``rounds`` relaxations; unreached nodes are absent (≡ +inf) in both
    engines."""
    from ray.data.aggregate import Min

    from kgray.ops.joins import bucket_join

    edges = edges.materialize()
    if edges.count() == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "dist": pa.array([], pa.int64())})
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        df, nodes, src, dst = small
        w = np.concatenate([df[w_col].to_numpy(np.int64)] * 2)
        big = np.iinfo(np.int64).max // 4
        dist = np.full(len(nodes), big, np.int64)
        dist[np.isin(nodes, np.asarray(list(seeds)))] = 0
        for _ in range(rounds):
            nxt = dist.copy()
            cand = dist[src] + w
            np.minimum.at(nxt, dst, cand)
            dist = nxt
        keep = dist < big
        return pa.table({"node": pa.array(nodes[keep]),
                         "dist": pa.array(dist[keep], pa.int64())})

    def sym_w(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [batch[u_col].combine_chunks(),
                     batch[v_col].combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [batch[v_col].combine_chunks(),
                     batch[u_col].combine_chunks()]
                ),
                "w": pa.concat_arrays(
                    [pc.cast(batch[w_col], pa.int64()).combine_chunks()] * 2
                ),
            }
        )

    sym = edges.map_batches(sym_w, batch_format="pyarrow").materialize()
    # seed init mirrors bfs_hops: only seeds PRESENT in the graph get
    # dist 0 (the in-process kernel and the SQL oracle drop absent ones)
    seed_arr = pa.array(list(seeds), pa.int64())
    state = (
        sym.map_batches(
            lambda b, s=seed_arr: pa.table(
                {"node": pc.unique(
                    b["src"].combine_chunks().filter(
                        pc.is_in(b["src"].combine_chunks(), value_set=s)
                    )
                )}
            ),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Min("node", alias_name="_"))
        .select_columns(["node"])
        .map_batches(
            lambda b: b.append_column(
                "dist", pa.array(np.zeros(len(b), np.int64))
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    for _ in range(rounds):
        cand = bucket_join(
            sym, state, on="src", right_on="node", how="inner"
        ).map_batches(
            lambda b: pa.table(
                {"node": b["dst"],
                 "dist": pc.add(b["dist"], b["w"])}
            ),
            batch_format="pyarrow",
        )
        state = (
            state.union(cand)
            .groupby("node")
            .aggregate(Min("dist", alias_name="dist"))
            .materialize()
        )
    return state


def _ppr_int_kernel(src: np.ndarray, dst: np.ndarray, n: int,
                    seed_mask: np.ndarray, iters: int,
                    scale: int) -> np.ndarray:
    """Fixed-point integer PERSONALIZED PageRank: restart mass lands on
    the seed set only — r'(v) = [v∈Q]·(15·S)//(100·q) +
    (85·Σ_in r//deg)//100 with q = |Q|.  All ops int64 floor division,
    bit-exact in any summation order (the pagerank_int lesson), so the
    SQL oracle unrolls the identical recurrence.  No dangling term: an
    undirected edge list gives every present node degree >= 1 by
    construction.  ``src``/``dst`` index the SYMMETRIC edge list."""
    deg = np.zeros(n, np.int64)
    np.add.at(deg, src, 1)
    q = int(seed_mask.sum())
    rank = np.where(seed_mask, scale // q, 0).astype(np.int64)
    base = np.where(seed_mask, (15 * scale) // (100 * q), 0) \
        .astype(np.int64)
    for _ in range(iters):
        contrib = np.zeros(n, np.int64)
        np.add.at(contrib, dst, rank[src] // deg[src])
        rank = base + (85 * contrib) // 100
    return rank


def ppr_int(edges, seeds, iters: int = 4, scale: int = 10**12,
            u_col: str = "u", v_col: str = "v"):
    """Deterministic integer personalized PageRank from a seed set over
    the undirected edge list — proximity-to-seeds ranking (the "related
    entities" primitive).  ``seeds`` is a python list of node ids (a
    query parameter, not data-scale — the bfs_hops convention); seeds
    absent from the graph are ignored on BOTH paths.  Same two-barrier
    round shape as :func:`pagerank_int`; returns (node, r) int64.
    Overflow headroom: total mass stays ~scale, so 85·contrib <=
    85·scale — safe at scale 10^12."""
    from ray.data.aggregate import Sum

    from kgray.ops.joins import bucket_join

    seed_arr = np.unique(np.asarray(list(seeds), np.int64))
    edges = edges.materialize()
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        _, nodes, src, dst = small
        if not len(nodes):
            return pa.table({"node": pa.array([], pa.int64()),
                             "r": pa.array([], pa.int64())})
        seed_mask = np.isin(nodes, seed_arr)
        if not seed_mask.any():
            return pa.table({"node": pa.array([], pa.int64()),
                             "r": pa.array([], pa.int64())})
        rank = _ppr_int_kernel(src, dst, len(nodes), seed_mask, iters,
                               scale)
        return pa.table({"node": pa.array(nodes),
                         "r": pa.array(rank, pa.int64())})

    deg = node_degrees(edges, u_col, v_col).materialize()
    # q counts seeds PRESENT in the graph (node-scale aggregate, one int)
    present = deg.map_batches(
        lambda b, s=pa.array(seed_arr, pa.int64()): pa.table(
            {"m": pc.cast(
                pc.is_in(b["node"].combine_chunks(), value_set=s),
                pa.int64(),
            )}
        ),
        batch_format="pyarrow",
    ).sum("m")
    q = int(present or 0)
    if q == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "r": pa.array([], pa.int64())})
    init = scale // q
    base_seed = (15 * scale) // (100 * q)
    seed_pa = pa.array(seed_arr, pa.int64())

    def with_rank(batch: pa.Table) -> pa.Table:
        is_seed = pc.is_in(batch["node"].combine_chunks(),
                           value_set=seed_pa)
        r = pc.if_else(is_seed, pa.scalar(init, pa.int64()),
                       pa.scalar(0, pa.int64()))
        return batch.append_column("r", pc.cast(r, pa.int64()))

    state = deg.map_batches(with_rank, batch_format="pyarrow").materialize()
    sym = _symmetric(edges, u_col, v_col).materialize()

    for _ in range(iters):
        contrib = bucket_join(
            sym, state, on="src", right_on="node", how="inner"
        ).map_batches(
            lambda b: pa.table(
                {
                    "dst": b["dst"],
                    "c": pa.array(
                        b["r"].to_numpy() // b["degree"].to_numpy(),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        sums = contrib.groupby("dst").aggregate(Sum("c", alias_name="c"))

        def rebuild(batch: pa.Table) -> pa.Table:
            c = pc.fill_null(batch["c"], pa.scalar(0, pa.int64()))
            is_seed = pc.is_in(batch["node"].combine_chunks(),
                               value_set=seed_pa)
            base = pc.if_else(is_seed, pa.scalar(base_seed, pa.int64()),
                              pa.scalar(0, pa.int64()))
            r = base.to_numpy(zero_copy_only=False) + (
                85 * c.to_numpy(zero_copy_only=False)
            ) // 100
            return pa.table(
                {
                    "node": batch["node"],
                    "degree": batch["degree"],
                    "r": pa.array(r, pa.int64()),
                }
            )

        state = bucket_join(
            deg, sums, on="node", right_on="dst", how="left"
        ).map_batches(rebuild, batch_format="pyarrow").materialize()

    return state.select_columns(["node", "r"])


def luby_mis(edges, rounds: int = 3, u_col: str = "u", v_col: str = "v"):
    """Deterministic Luby-style MAXIMAL INDEPENDENT SET over an
    undirected edge list: each round every ACTIVE node with a priority
    strictly below all its active neighbors' joins the set, its
    neighbors drop out, repeat — the classic parallel MIS, made
    oracle-unrollable by replacing randomness with the md5 hash
    priority h(node) = md5int13(str(node)) (distinctness is asserted;
    a 13-hex-char collision is ~2^-52 per pair and would make the
    round's winner ambiguous).  Isolated active nodes (no remaining
    active neighbor) are selected immediately.

    Returns (node, state) with state in {'in','out','open'} — 'open'
    counts nodes still undecided after ``rounds`` (fixed bound so the
    SQL oracle can unroll; 3 rounds settle hash-random graphs almost
    surely).  Distributed path per round: two semi-joins restrict the
    edge set to active endpoints, one min-fold computes each node's
    active-neighbor priority floor (priorities are STATELESS md5 maps,
    never joined), two anti-joins retire selected + removed — the
    greedy_matching round shape."""
    import hashlib

    import pandas as pd

    from kgray.ops.agg import pre_aggregate
    from kgray.ops.joins import semi_join

    def _h(vals) -> np.ndarray:
        return np.fromiter(
            (int(hashlib.md5(str(x).encode()).hexdigest()[:13], 16)
             for x in vals), np.int64, len(vals))

    def norm(batch: pa.Table) -> pa.Table:
        a = batch[u_col].to_numpy(zero_copy_only=False)
        b = batch[v_col].to_numpy(zero_copy_only=False)
        keep = a != b
        df = pd.DataFrame({"u": a[keep], "v": b[keep]}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False) \
            .replace_schema_metadata(None)

    e = edges.map_batches(norm, batch_format="pyarrow").materialize()

    small = _small_graph(e, dedup=True)
    if small is not None:
        _, nodes, src, dst = small
        h = _h(nodes)
        assert len(np.unique(h)) == len(nodes), \
            "luby_mis: md5 priority collision"
        state = np.zeros(len(nodes), np.int8)  # 0 open, 1 in, 2 out
        for _ in range(rounds):
            act = state == 0
            if not act.any():
                break
            ea = act[src] & act[dst]
            minnb = np.full(len(nodes), np.iinfo(np.int64).max, np.int64)
            np.minimum.at(minnb, src[ea], h[dst[ea]])
            sel = act & (h < minnb)  # no active neighbor -> max sentinel
            if not sel.any():
                break
            rm = np.zeros(len(nodes), bool)
            rm[dst[ea & sel[src]]] = True
            state[sel] = 1
            state[rm & (state == 0)] = 2
        lab = np.array(["open", "in", "out"])[state]
        return pa.table({"node": pa.array(nodes),
                         "state": pa.array(lab, pa.string())})

    def with_h(col: str, out: str):
        def f(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                out, pa.array(_h(batch[col].to_pylist()), pa.int64()))
        return f

    nodes0 = pre_aggregate(
        e.map_batches(
            lambda b: pa.table({"node": pa.concat_arrays(
                [b["u"].combine_chunks(), b["v"].combine_chunks()])}),
            batch_format="pyarrow"),
        ["node"], {"__c": (None, "count")},
    ).select_columns(["node"]).materialize()
    n_nodes = nodes0.count()
    n_h = pre_aggregate(
        nodes0.map_batches(with_h("node", "h"), batch_format="pyarrow"),
        ["h"], {"__c": (None, "count")}).count()
    assert n_h == n_nodes, "luby_mis: md5 priority collision"

    active = nodes0
    done = []  # (state_label, Dataset of nodes)
    cur_e = e
    for _ in range(rounds):
        if active.count() == 0 or cur_e.count() == 0:
            break
        cur_e = semi_join(cur_e, active, on="u", right_on="node")
        cur_e = semi_join(cur_e, active, on="v", right_on="node") \
            .materialize()
        if cur_e.count() == 0:
            # every remaining active is isolated -> all join the MIS
            # (h < min over an empty neighbor set), and the loop ends
            done.append(("in", active))
            active = None
            break

        def sym_h(batch: pa.Table) -> pa.Table:
            hu = _h(batch["u"].to_pylist())
            hv = _h(batch["v"].to_pylist())
            return pa.table({
                "node": pa.concat_arrays(
                    [batch["u"].combine_chunks(),
                     batch["v"].combine_chunks()]),
                "nbh": pa.array(np.concatenate([hv, hu]), pa.int64()),
            })

        minnb = pre_aggregate(
            cur_e.map_batches(sym_h, batch_format="pyarrow"),
            ["node"], {"m": ("nbh", "min")}).materialize()

        from kgray.ops.joins import bucket_join

        cand = bucket_join(
            active.map_batches(with_h("node", "h"),
                               batch_format="pyarrow"),
            minnb, on="node", how="left")

        def pick(batch: pa.Table) -> pa.Table:
            h = batch["h"].to_numpy(zero_copy_only=False)
            m = batch["m"].to_pandas()  # nullable: no-active-neighbor
            sel = (m.isna() | (h < m.fillna(
                np.iinfo(np.int64).max).to_numpy(np.int64))).to_numpy()
            return pa.table({"node": batch["node"].filter(pa.array(sel))})

        selected = cand.map_batches(pick, batch_format="pyarrow") \
            .materialize()
        if selected.count() == 0:
            break
        removed = pre_aggregate(
            semi_join(cur_e, selected, on="u", right_on="node")
            .map_batches(lambda b: pa.table({"node": b["v"]}),
                         batch_format="pyarrow")
            .union(
                semi_join(cur_e, selected, on="v", right_on="node")
                .map_batches(lambda b: pa.table({"node": b["u"]}),
                             batch_format="pyarrow")),
            ["node"], {"__c": (None, "count")},
        ).select_columns(["node"]).materialize()
        done.append(("in", selected))
        done.append(("out", removed))
        active = semi_join(active, selected, on="node", anti=True)
        active = semi_join(active, removed, on="node", anti=True) \
            .materialize()

    import ray.data as rd

    parts = []
    for lab, ds_ in done:
        parts.append(ds_.map_batches(
            lambda b, lab=lab: pa.table({
                "node": b["node"],
                "state": pa.array([lab] * b.num_rows, pa.string())}),
            batch_format="pyarrow"))
    if active is not None:
        parts.append(active.map_batches(
            lambda b: pa.table({
                "node": b["node"],
                "state": pa.array(["open"] * b.num_rows, pa.string())}),
            batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def neighborhood_hll(edges, hops: int = 3, p: int = 10,
                     u_col: str = "u", v_col: str = "v"):
    """HyperBall-lite (Boldi, Rosa & Vigna 2011): the approximate
    NEIGHBORHOOD FUNCTION of the undirected graph — for each hop h, the
    estimated number of (node, reachable-node) pairs within distance h
    — via per-node HyperLogLog registers that each round take the
    elementwise MAX with every neighbor's previous registers.  The
    all-pairs-BFS this replaces is O(N*E); HyperBall is O(hops*E) with
    2^p bytes of state per node, which is what makes diameter/closeness
    estimation feasible at graph scale.

    Sketch-valued (no SQL oracle; tests pin the estimate against exact
    BFS counts on small graphs within HLL error).  Registers ride as a
    BINARY column (m bytes per node) — Arrow joins accept binary
    payloads where they reject lists — so the distributed round is
    bucket_join(sym edges, regs on src) -> dst-keyed cogroup max -> a
    union-fold with the previous state; the in-process gate runs the
    same recurrence on a dense (n, m) array in edge chunks.  Reuses the
    oracle-checked HLL kernels from ops/sketch (hash, rho, estimator).
    Returns (hop, est_pairs) for h = 0..hops."""
    import pandas as pd

    from kgray.ops.agg import pre_aggregate
    from kgray.ops.sketch import (_hash_column, _registers,
                                  hll_estimate_rows)
    from kgray.util import grouped_map

    m = 1 << p

    def init_regs(nodes_col) -> np.ndarray:
        h = _hash_column(nodes_col)
        idx, rho = _registers(h, p)
        regs = np.zeros((len(h), m), np.uint8)
        regs[np.arange(len(h)), idx.astype(np.int64)] = rho
        return regs

    e = edges.materialize()
    small = _small_graph(e, u_col, v_col, dedup=True)
    if small is not None:
        _, nodes, src, dst = small
        n = len(nodes)
        if n == 0:
            return pa.table({"hop": pa.array([], pa.int64()),
                             "est_pairs": pa.array([], pa.float64())})
        regs = init_regs(pa.array(nodes))
        # per-round segment max via pandas groupby.max over the gathered
        # (E, m) matrix: 7x faster than np.maximum.reduceat on 2D
        # (measured 1.4 s vs 10.2 s at 1.2M x 1024), and the gather
        # buffer is preallocated once (fresh GB-scale numpy allocations
        # first-touch-fault on this VM — the batch_signatures lesson)
        buf = np.empty((len(src), m), np.uint8)
        out = [(0, float(n))]
        for h in range(1, hops + 1):
            gathered = np.take(regs, src, axis=0, out=buf)
            mx = pd.DataFrame(gathered).groupby(dst, sort=True).max()
            t = mx.index.to_numpy(np.int64)
            new = regs.copy()
            new[t] = np.maximum(new[t], mx.to_numpy().astype(np.uint8))
            regs = new
            # ROUND 4: absorbs cross-block float-sum ulps so the two
            # paths emit identical values regardless of block layout
            est = round(float(hll_estimate_rows(regs).sum()), 4)
            out.append((h, est))
        return pa.table({
            "hop": pa.array([o[0] for o in out], pa.int64()),
            "est_pairs": pa.array([o[1] for o in out], pa.float64()),
        })

    from kgray.ops.joins import bucket_join

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.concat_arrays([batch[u_col].combine_chunks(),
                                     batch[v_col].combine_chunks()]),
            "dst": pa.concat_arrays([batch[v_col].combine_chunks(),
                                     batch[u_col].combine_chunks()]),
        })

    sym = e.map_batches(norm, batch_format="pyarrow").materialize()
    nodes_ds = pre_aggregate(
        sym.map_batches(lambda b: pa.table({"node": b["src"]}),
                        batch_format="pyarrow"),
        ["node"], {"__c": (None, "count")},
    ).select_columns(["node"]).materialize()
    n_nodes = nodes_ds.count()

    def with_init(batch: pa.Table) -> pa.Table:
        regs = init_regs(batch["node"])
        return pa.table({
            "node": batch["node"],
            "regs": pa.array([r.tobytes() for r in regs], pa.binary()),
        })

    state = nodes_ds.map_batches(with_init, batch_format="pyarrow") \
        .materialize()
    out = [(0, float(n_nodes))]

    def fold_max(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for node, g in df.groupby("node", sort=False):
            stack = np.stack([np.frombuffer(b, np.uint8)
                              for b in g["regs"]])
            rows.append((node, stack.max(axis=0).tobytes()))
        return pd.DataFrame(rows, columns=["node", "regs"])

    for h in range(1, hops + 1):
        shipped = bucket_join(sym, state, on="src", right_on="node",
                              how="inner") \
            .map_batches(lambda b: pa.table({"node": b["dst"],
                                             "regs": b["regs"]}),
                         batch_format="pyarrow")
        state = grouped_map(state.union(shipped), "node", fold_max) \
            .materialize()

        def est(batch: pa.Table) -> pa.Table:
            mat = np.stack([np.frombuffer(b, np.uint8)
                            for b in batch["regs"].to_pylist()])
            return pa.table({"e": pa.array(hll_estimate_rows(mat),
                                           pa.float64())})

        total = state.map_batches(est, batch_format="pyarrow").sum("e")
        out.append((h, round(float(total or 0.0), 4)))

    return pa.table({
        "hop": pa.array([o[0] for o in out], pa.int64()),
        "est_pairs": pa.array([o[1] for o in out], pa.float64()),
    })
