"""Graph analytics over (u, v) edge datasets.

Edges are plain (u, v) rows — the output shape of ``linking.
link_mentions`` / ``dedup.*_dup_pairs`` — so these ops compose directly
with the KG linking chain.  Every op but :func:`hits_int` reads the
graph as UNDIRECTED (each edge contributes in both directions, matching
the mention-link semantics), so every node has degree >= 1.

Each op runs behind one in-process gate (``MAX_INPROCESS_EDGES`` edge
rows, collapsed by KGRAY_FORCE_DISTRIBUTED so that only an empty input
fits): at or under it a numpy kernel runs on the driver, above it a
partitioned path of bucket joins and groupbys.  The shared pieces:

* ``_small_graph`` — the gate plus the index arrays every kernel reads:
  the sorted distinct nodes and the symmetric src/dst edge list.  An
  empty edge list is an empty int64 graph.
* ``_symmetric`` — the partitioned twin: one map that explodes each
  (u, v) row into u->v and v->u, optionally carrying a weight column.
* ``_pagerank_int_kernel`` — the one integer rank recurrence
  r' = base + (85 * Σ r//deg) // 100 behind ``pagerank_int``, its
  ``seeds=`` form and ``ppr_int``, which differ only in the start
  vector r0 and the per-node base; ``_int_rank`` runs it on either path.
* ``_rank_rounds`` — the partitioned round of ``pagerank``,
  ``pagerank_int`` and ``ppr_int``: ranks bucket-joined onto edge
  sources, one Sum groupby per destination, the sums left-joined back.
  Callers pass the start value, the per-edge contribution and the
  per-node update as functions.
* ``_present_seeds`` — the seed rows of ``bfs_hops`` and
  ``bellman_ford``; seeds absent from the graph count on neither path.
* ``_bfs_kernel`` — the in-process frontier BFS of ``bfs_hops`` and
  ``landmark_distances``.
* ``_closed_wedges`` — closed-wedge counts per center: ``node_triangles``
  folds them per node, ``triangle_count`` sums them and divides by 3.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from kgray.util import collect_small, empty_table


def _symmetric(edges, u_col: str = "u", v_col: str = "v",
               w_col: str | None = None):
    """Each (u, v) row as the two rows (src, dst) = u->v and v->u, plus
    an int64 ``w`` column copied from ``w_col`` when it is given."""
    def sym(batch: pa.Table) -> pa.Table:
        u = batch[u_col].combine_chunks()
        v = batch[v_col].combine_chunks()
        cols = {"src": pa.concat_arrays([u, v]),
                "dst": pa.concat_arrays([v, u])}
        if w_col is not None:
            w = pc.cast(batch[w_col], pa.int64()).combine_chunks()
            cols["w"] = pa.concat_arrays([w, w])
        return pa.table(cols)

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
    edges as given.  An empty input — typed, null-typed or with no
    schema at all (a map over no rows emits no block) — is an empty
    int64 graph."""
    tbl = collect_small(edges, max_rows=MAX_INPROCESS_EDGES)
    if tbl is None:
        return None
    if not tbl.num_rows:
        tbl = empty_table(**{u_col: pa.int64(), v_col: pa.int64()})
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
    per-batch count combiner, one groupby fold.  A self-loop counts
    twice."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    edges = edges.materialize()
    if edges.count() == 0:
        # a map over no rows emits no block, and the groupby below would
        # return a Dataset without a schema
        return rd.from_arrow(empty_table(node=pa.int64(), degree=pa.int64()))

    def partial(batch: pa.Table) -> pa.Table:
        vc = pa.table({"node": batch["src"]}).group_by("node").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {"node": vc["node"],
             "degree": vc["count_all"].cast(pa.int64())}
        )

    return (
        _symmetric(edges, u_col, v_col)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("degree", alias_name="degree"))
    )


def _rank_rounds(edges, deg, iters: int, u_col: str, v_col: str,
                 r0, contrib, update):
    """``iters`` partitioned rank rounds over the undirected edge set —
    the one distributed loop of :func:`pagerank`, :func:`pagerank_int`
    and :func:`ppr_int`.  State is (node, degree, r) over the
    :func:`node_degrees` table ``deg``, starting at r = r0(node).  A
    round bucket-joins the state onto edge sources, sums
    contrib(r, degree) per destination with one groupby, and left-joins
    the sums back onto ``deg``: r' = update(node, Σ contrib), the sum
    taken as 0 for a node without one.  The functions map numpy arrays
    to numpy arrays.  Materialized per round (the CC-loop shape); the
    driver holds no node-scale state.  Returns the final state."""
    from ray.data.aggregate import Sum

    from kgray.ops.joins import bucket_join

    sym = _symmetric(edges, u_col, v_col).materialize()
    state = deg.map_batches(
        lambda b: b.append_column("r", pa.array(r0(b["node"].to_numpy()))),
        batch_format="pyarrow",
    ).materialize()
    for _ in range(iters):
        sums = bucket_join(
            sym, state, on="src", right_on="node", how="inner"
        ).map_batches(
            lambda b: pa.table({
                "dst": b["dst"],
                "c": pa.array(contrib(b["r"].to_numpy(),
                                      b["degree"].to_numpy())),
            }),
            batch_format="pyarrow",
        ).groupby("dst").aggregate(Sum("c", alias_name="c"))
        state = bucket_join(
            deg, sums, on="node", right_on="dst", how="left"
        ).map_batches(
            lambda b: pa.table({
                "node": b["node"],
                "degree": b["degree"],
                "r": pa.array(update(b["node"].to_numpy(),
                                     pc.fill_null(b["c"], 0).to_numpy())),
            }),
            batch_format="pyarrow",
        ).materialize()
    return state


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
        contrib = np.zeros(n)
        np.add.at(contrib, dst, rank[src] / deg[src])
        rank = (1 - damping) / n + damping * contrib
    return rank


def pagerank(edges, iters: int = 10, damping: float = 0.85,
             u_col: str = "u", v_col: str = "v", digits: int = 6):
    """PageRank over the undirected edge set by ``iters`` rounds of
    power iteration: rank' = (1-d)/N + d * Σ_{src->dst} rank/deg.  The
    op symmetrizes every input, so every node has degree >= 1 and no
    rank mass dangles.

    Scale shape: :func:`_rank_rounds` — per round ONE bucket join of the
    (node, degree, rank) state onto edge sources (contribution =
    rank/deg per edge row), ONE Sum groupby per destination and a
    bucket join back, materialized per round (the CC-loop pattern).
    The driver holds only N.  Returns (node, rank) with rank rounded to
    ``digits``.
    """
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
            return empty_table(node=pa.int64(), rank=pa.float64())
        rank = _pagerank_kernel(src, dst, nodes, iters, damping)
        return pa.table(
            {"node": pa.array(nodes),
             "rank": pa.array(round_half_up(rank, digits), pa.float64())}
        )

    deg = node_degrees(edges, u_col, v_col).materialize()
    n = deg.count()
    base = (1.0 - damping) / n
    state = _rank_rounds(
        edges, deg, iters, u_col, v_col,
        r0=lambda node: np.full(len(node), 1.0 / n),
        contrib=lambda r, d: r / d,
        update=lambda node, c: c * damping + base,
    )
    return state.map_batches(
        lambda b: pa.table({
            "node": b["node"],
            "rank": pa.array(round_half_up(b["r"].to_numpy(), digits),
                             pa.float64()),
        }),
        batch_format="pyarrow",
    )


def _pagerank_int_kernel(src: np.ndarray, dst: np.ndarray, n: int,
                         iters: int, scale: int, r0=None,
                         base=None) -> np.ndarray:
    """Fixed-point integer power iteration (damping 85/100, all ops
    int64 floor division): r' = base + (85 * Σ_{src->dst} r//deg) // 100
    from r = r0 — bit-exact regardless of summation order, which is what
    lets the SQL oracle unroll the same recurrence with SUM/``//`` and
    match hash-for-hash (the Q9 integral-coefficient lesson: floats
    drift across engines, integers cannot).  ``src``/``dst`` index the
    SYMMETRIC edge list, so every node has degree >= 1.  ``r0`` and
    ``base`` (arrays over the ``n`` nodes, or a scalar ``base``) default
    to the uniform start scale//n and teleport (15*scale)//(100*n);
    personalized variants put either on the seed nodes only."""
    deg = np.zeros(n, np.int64)
    np.add.at(deg, src, 1)
    rank = np.full(n, scale // n, np.int64) if r0 is None else r0
    if base is None:
        base = (15 * scale) // (100 * n)
    for _ in range(iters):
        contrib = np.zeros(n, np.int64)
        np.add.at(contrib, dst, rank[src] // deg[src])
        rank = base + (85 * contrib) // 100
    return rank


def _int_rank(edges, seeds, iters: int, scale: int, u_col: str,
              v_col: str, r0, base):
    """The integer rank recurrence of :func:`pagerank_int` and
    :func:`ppr_int` on either path: the in-process gate runs
    :func:`_pagerank_int_kernel`, the partitioned path
    :func:`_rank_rounds`.  ``r0(seed, n, q)`` and ``base(seed, n, q)``
    give the start vector and the per-node base over a block of nodes
    from its seed mask ``seed``, the node count n and the number q of
    ``seeds`` that are graph nodes (None when ``seeds`` is None; absent
    seeds are ignored on BOTH paths — the bellman_ford lesson).
    Returns (node, r) int64, or None when no seed is a graph node."""
    seed_arr = np.asarray([] if seeds is None else list(seeds))
    edges = edges.materialize()
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        _, nodes, src, dst = small
        n = len(nodes)
        q = None if seeds is None else int(np.isin(nodes, seed_arr).sum())
    else:
        deg = node_degrees(edges, u_col, v_col).materialize()
        n = deg.count()
        q = None if seeds is None else int(deg.map_batches(
            lambda b: pa.table({"m": np.isin(b["node"].to_numpy(),
                                             seed_arr).astype(np.int64)}),
            batch_format="pyarrow",
        ).sum("m") or 0)
    if not n:
        return empty_table(node=pa.int64(), r=pa.int64())
    if q == 0:
        return None
    if small is not None:
        seed = np.isin(nodes, seed_arr)
        rank = _pagerank_int_kernel(src, dst, n, iters, scale,
                                    r0(seed, n, q), base(seed, n, q))
        return pa.table({"node": pa.array(nodes),
                         "r": pa.array(rank, pa.int64())})
    return _rank_rounds(
        edges, deg, iters, u_col, v_col,
        r0=lambda node: r0(np.isin(node, seed_arr), n, q),
        contrib=lambda r, d: r // d,
        update=lambda node, c: (base(np.isin(node, seed_arr), n, q)
                                + (85 * c) // 100),
    ).select_columns(["node", "r"])


def pagerank_int(edges, iters: int = 4, scale: int = 10**12,
                 u_col: str = "u", v_col: str = "v",
                 seeds=None):
    """Deterministic integer-arithmetic PageRank over the undirected
    edge set: rank' = (15*S)//(100*N) + (85*Σ rank//deg)//100 with
    S = ``scale``, from rank = S//N.  Unlike float :func:`pagerank`
    (whose per-node contribution sums are summation-order-sensitive),
    every operation here is exact int64, so a DuckDB oracle that unrolls
    the identical recurrence (integer ``//``, SUM, LEFT JOIN COALESCE 0)
    matches on the value hash — this is the oracle-checkable face of the
    PageRank family.  ``seeds`` switches to PERSONALIZED pagerank: the
    15% teleport mass lands only on the q seeds that are graph nodes,
    (15*S)//(100*q) each, and a ValueError is raised when there is none.
    Same two-barrier round shape as :func:`pagerank`; returns (node, r)
    with r int64."""
    def base(seed, n, q):
        if q is None:
            return (15 * scale) // (100 * n)
        return np.where(seed, (15 * scale) // (100 * q), 0)

    out = _int_rank(
        edges, seeds, iters, scale, u_col, v_col,
        r0=lambda seed, n, q: np.full(len(seed), scale // n, np.int64),
        base=base,
    )
    if out is None:
        raise ValueError("pagerank_int: no seed is a graph node")
    return out


def _present_seeds(sym, seeds):
    """The ``seeds`` that are graph nodes as (node, dist=0) rows, from
    the symmetric edge set ``sym`` — the start state of
    :func:`bfs_hops` and :func:`bellman_ford` (the in-process kernels
    and the SQL oracles drop absent seeds too).  With no seed present
    the Dataset has no schema; callers return their typed empty."""
    from ray.data.aggregate import Min

    seed_arr = pa.array(list(seeds), pa.int64())
    return (
        sym.map_batches(
            lambda b: pa.table(
                {"node": pc.unique(
                    b["src"].combine_chunks().filter(
                        pc.is_in(b["src"].combine_chunks(),
                                 value_set=seed_arr)
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


def _bfs_kernel(src: np.ndarray, dst: np.ndarray, start: np.ndarray,
                max_hops: int) -> np.ndarray:
    """In-process frontier BFS over the symmetric index arrays: the hop
    distance of every node from the ``start`` node mask, -1 where it is
    not reached within ``max_hops``."""
    dist = np.where(start, 0, -1).astype(np.int64)
    frontier = start
    for h in range(1, max_hops + 1):
        nxt = np.zeros(len(dist), bool)
        nxt[dst[frontier[src]]] = True
        nxt &= dist < 0
        if not nxt.any():
            break
        dist[nxt] = h
        frontier = nxt
    return dist


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

    from kgray.ops.joins import bucket_join, semi_join

    edges = edges.materialize()
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        _, nodes, src, dst = small
        dist = _bfs_kernel(src, dst, np.isin(nodes, np.asarray(list(seeds))),
                           max_hops)
        keep = dist >= 0
        return pa.table({"node": pa.array(nodes[keep]),
                         "dist": pa.array(dist[keep], pa.int64())})

    sym = _symmetric(edges, u_col, v_col).materialize()
    settled = _present_seeds(sym, seeds)
    if settled.count() == 0:
        return empty_table(node=pa.int64(), dist=pa.int64())
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
        for lm in lms:
            if lm not in nodes:
                continue
            dist = _bfs_kernel(src, dst, nodes == lm, max_hops)
            keep = dist >= 0
            out_n.append(nodes[keep])
            out_l.append(np.full(keep.sum(), lm, np.int64))
            out_d.append(dist[keep])
        if not out_n:
            return empty_table(node=pa.int64(), lm=pa.int64(), dist=pa.int64())
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
        return empty_table(u=pa.int64(), v=pa.int64(), round=pa.int64())

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
        # project per batch: after the filter, select_columns' Dataset
        # schema still lists ``me``, and the next bucket_join trusts it
        ju = ju.filter(expr="eid == me").map_batches(
            lambda b: b.select(["u", "v", "eid"]), batch_format="pyarrow")
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
        return empty_table(u=pa.int64(), v=pa.int64(), round=pa.int64())
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

    Distributed path per round: ONE :func:`node_degrees` groupby (a
    self-loop counts twice) + TWO semi-joins to drop incident edges —
    edge-scale shuffles that shrink as peeling proceeds, no node-scale
    driver state.  In-process gate (``MAX_INPROCESS_EDGES``, collapsed
    by KGRAY_FORCE_DISTRIBUTED) runs the identical recurrence in numpy.
    """
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
        keep = (
            node_degrees(cur, u_col, v_col)
            .filter(expr=f"degree >= {int(k)}")
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
    if prev_count == 0:
        # every edge peeled: a rename over no rows passes the empty
        # degree block through unrenamed
        return empty_table(node=pa.int64(), deg=pa.int64())
    return node_degrees(cur, u_col, v_col).rename_columns({"degree": "deg"})


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
        return empty_table(node=pa.int64(), score=pa.int64(), side=pa.string())
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


def _node_triangle_kernel(nodes: np.ndarray, src: np.ndarray,
                          dst: np.ndarray, max_degree: int) -> pa.Table:
    """Per-node triangle counts via wedge closure over the symmetric
    index arrays — each triangle {a,b,c} closes exactly ONE wedge per
    center, so counting closed wedges BY CENTER is the per-node count
    directly (no //3).  Centers above ``max_degree`` are skipped."""
    from kgray.util import pairs_within_groups

    m = len(src) // 2
    w = pairs_within_groups(
        pd.DataFrame({"center": src, "nbr": dst}), "center", "nbr",
        max_block=max_degree, key_out="center",
    )
    canon = pd.DataFrame(
        {"u": np.minimum(src[:m], dst[:m]),
         "v": np.maximum(src[:m], dst[:m])}
    ).drop_duplicates()
    cnt = w.merge(canon, on=["u", "v"]).groupby("center", sort=False).size()
    return pa.table(
        {"node": pa.array(nodes[cnt.index.to_numpy(np.int64)]),
         "tri": pa.array(cnt.to_numpy(np.int64), pa.int64())}
    )


def _closed_wedges(edges, u_col: str, v_col: str, max_degree: int):
    """Closed-wedge counts (node, tri) per wedge center by the
    node-iterator (wedge-check) MR algorithm.  In process: one table
    with one row per node on a triangle.  Partitioned: stage 1 (center
    cogroup) emits each node's WEDGES — (u < v) neighbor pairs carrying
    their center; volume is O(deg^2) per node, and nodes above
    ``max_degree`` are skipped (the LSH degenerate-block cap), bounding
    the worst case — and stage 2 (pair cogroup) closes them against the
    canonical (u < v) edges, giving per-bucket partial counts (a node
    may have several rows)."""
    from kgray.util import grouped_map, pairs_within_groups

    edges = edges.materialize()
    small = _small_graph(edges, u_col, v_col)
    if small is not None:
        # in-process small-side gate (see pagerank): same wedge math,
        # zero shuffle barriers; paths-agree pinned in tests
        _, nodes, src, dst = small
        return _node_triangle_kernel(nodes, src, dst, max_degree)

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

    return grouped_map(wedge_rows.union(edge_rows), "u", close)


def node_triangles(edges, u_col: str = "u", v_col: str = "v",
                   max_degree: int = 4096):
    """Per-node triangle participation counts over the undirected edge
    set (the local-clustering-coefficient numerator): the
    :func:`_closed_wedges` counts, whose per-bucket partials a final
    Sum groupby merges on the partitioned path.  A triangle closes
    exactly one wedge per corner, so counts are per-node exact (nodes on
    no triangle are absent — join degrees downstream).  Nodes above
    ``max_degree`` are skipped, bounding wedge volume (documented cap,
    same as triangle_count)."""
    from ray.data.aggregate import Sum

    part = _closed_wedges(edges, u_col, v_col, max_degree)
    if isinstance(part, pa.Table):
        return part
    return part.groupby("node").aggregate(Sum("tri", alias_name="tri"))


def triangle_count(edges, u_col: str = "u", v_col: str = "v",
                   max_degree: int = 4096):
    """Global triangle count: a triangle {a,b,c} closes three wedges
    (one per corner), so the count is the sum of the
    :func:`_closed_wedges` counts, integer-divided by 3 — on the
    partitioned path a scalar Sum over the per-bucket partials, with no
    groupby of its own.  Nodes above ``max_degree`` are skipped (the
    node_triangles cap).  Returns a one-row (n_triangles) table."""
    part = _closed_wedges(edges, u_col, v_col, max_degree)
    if isinstance(part, pa.Table):
        total = pc.sum(part["tri"]).as_py() or 0
    else:
        total = part.sum("tri") or 0
    return pa.table({"n_triangles": pa.array([total // 3], pa.int64())})


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
        return empty_table(node=pa.int64(), dist=pa.int64())
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

    sym = _symmetric(edges, u_col, v_col, w_col).materialize()
    state = _present_seeds(sym, seeds)
    if state.count() == 0:
        return empty_table(node=pa.int64(), dist=pa.int64())
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


def ppr_int(edges, seeds, iters: int = 4, scale: int = 10**12,
            u_col: str = "u", v_col: str = "v"):
    """Deterministic integer personalized PageRank from a seed set over
    the undirected edge list — proximity-to-seeds ranking (the "related
    entities" primitive): both the start mass and the restart mass land
    on the seed set only, r0(v) = [v∈Q]·S//q and
    r'(v) = [v∈Q]·(15·S)//(100·q) + (85·Σ_in r//deg)//100 with q = |Q|,
    the :func:`pagerank_int` recurrence.  ``seeds`` is a python list of
    node ids (a query parameter, not data-scale — the bfs_hops
    convention); seeds absent from the graph are ignored on BOTH paths,
    and with none present the result is empty.  Same two-barrier round
    shape as :func:`pagerank_int`; returns (node, r) int64.  Overflow
    headroom: total mass stays ~scale, so 85·contrib <= 85·scale — safe
    at scale 10^12."""
    out = _int_rank(
        edges, seeds, iters, scale, u_col, v_col,
        r0=lambda seed, n, q: np.where(seed, scale // q, 0),
        base=lambda seed, n, q: np.where(seed, (15 * scale) // (100 * q), 0),
    )
    return empty_table(node=pa.int64(), r=pa.int64()) if out is None else out


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
            return empty_table(hop=pa.int64(), est_pairs=pa.float64())
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

    sym = _symmetric(e, u_col, v_col).materialize()
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
