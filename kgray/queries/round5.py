"""Round-5 operator batch — survival analysis, semantic dedup,
graph-based keyword extraction, and DoReMi-style mixture reweighting.

House exactness rules throughout: integer accumulations wherever a sum
crosses engines (micro-unit logs, int-grid dot products, day counts);
sequential float recurrences only where BOTH engines run the identical
ordered fold (recursive-CTE scalar state == python left fold); libm
``math.log``/``math.exp`` for transcendentals (DuckDB ln/exp parity —
the tf-idf lesson)."""

from ._common import *  # noqa: F401,F403


# ---------------------------------------------------------------------------
# Kaplan-Meier survival curve over user activity lifetimes
# ---------------------------------------------------------------------------


def q_events_km_lifetime(sf_dir: str):
    """Kaplan-Meier survival estimate of user activity lifetime (days
    between first and last event): users whose last event lands before
    the corpus's final day are OBSERVED churns, the final-day cohort is
    right-CENSORED (scale-invariant rule — a fixed horizon emptied the
    observed set on this corpus).  S(t) = prod_{u<=t} (1 - d_u/n_u)
    over observed lifetimes t; risk set n_t counts every user (observed
    or censored) with lifetime >= t.

    Scale shape: one user-keyed min/max fold (user-scale shuffle), one
    day-histogram fold (day-scale), and the day-scale cumprod runs as a
    driver left fold in ascending-t order — the oracle's RECURSIVE CTE
    multiplies the identical (1 - d/n) factors in the identical order,
    so the doubles are bit-equal (the EWMA scalar-state pattern, float
    edition)."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        return pa.table({"user_id": batch["user_id"],
                         "d": pa.array(d, pa.int64())})

    per_user = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["user_id"], {"fd": ("d", "min"), "ld": ("d", "max")},
    ).materialize()
    max_ld = int(per_user.max("ld"))

    def lifetime(batch: pa.Table) -> pa.Table:
        fd = batch["fd"].to_numpy(zero_copy_only=False).astype(np.int64)
        ld = batch["ld"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "t": pa.array(ld - fd, pa.int64()),
            "obs": pa.array((ld < max_ld).astype(np.int64)),
        })

    hist = pre_aggregate(
        per_user.map_batches(lifetime, batch_format="pyarrow"),
        ["t", "obs"], {"c": (None, "count")},
    ).to_pandas()  # day-scale: one row per (lifetime, observed) pair

    at_risk = hist.groupby("t")["c"].sum().sort_index()
    # n_t = users with lifetime >= t (suffix sum over the day histogram)
    n_of = at_risk[::-1].cumsum()[::-1]
    deaths = (hist[hist["obs"] == 1].groupby("t")["c"].sum().sort_index())
    s = 1.0
    rows = []
    for t, d in deaths.items():
        n = int(n_of.loc[int(t)])
        s = s * (1.0 - float(int(d)) / float(n))
        rows.append((int(t), int(d), n, s))
    return pa.table({
        "t": pa.array([r[0] for r in rows], pa.int64()),
        "d": pa.array([r[1] for r in rows], pa.int64()),
        "n": pa.array([r[2] for r in rows], pa.int64()),
        "surv": pa.array(
            [float(round_half_up(r[3], 6)) for r in rows], pa.float64()),
    })


SQL_EVENTS_KM_LIFETIME = """
WITH RECURSIVE
u AS (SELECT user_id,
             CAST(date_diff('day', DATE '1970-01-01', CAST(MIN(ts) AS DATE))
                  AS BIGINT) AS fd,
             CAST(date_diff('day', DATE '1970-01-01', CAST(MAX(ts) AS DATE))
                  AS BIGINT) AS ld
      FROM events GROUP BY 1),
mx AS (SELECT MAX(ld) AS m FROM u),
lif AS (SELECT ld - fd AS t,
               CASE WHEN ld < (SELECT m FROM mx) THEN 1 ELSE 0 END AS obs
        FROM u),
dt AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS d FROM lif
       WHERE obs = 1 GROUP BY 1),
rk AS (SELECT dt.t, dt.d,
              (SELECT CAST(COUNT(*) AS BIGINT) FROM lif l
               WHERE l.t >= dt.t) AS n,
              ROW_NUMBER() OVER (ORDER BY dt.t) AS i
       FROM dt),
km AS (SELECT i, t, d, n,
              1.0 * (1.0 - CAST(d AS DOUBLE) / CAST(n AS DOUBLE)) AS s
       FROM rk WHERE i = 1
       UNION ALL
       SELECT r.i, r.t, r.d, r.n,
              km.s * (1.0 - CAST(r.d AS DOUBLE) / CAST(r.n AS DOUBLE))
       FROM km JOIN rk r ON r.i = km.i + 1)
SELECT t, d, n, ROUND(s, 6) AS surv FROM km ORDER BY t
"""


# ---------------------------------------------------------------------------
# SemDeDup: cluster-blocked semantic near-duplicate audit (Abbas et al.
# 2023 — k-means clusters bound the pair search, no all-pairs scan)
# ---------------------------------------------------------------------------

_SD_TAU_NUM, _SD_TAU_DEN = 7, 20  # cos >= 0.35 on this corpus's spread
_SD_GRID = 100


def q_embed_semdedup_blocked(sf_dir: str):
    """SemDeDup semantic near-dup audit: integer k-means clusters (the
    oracle-checked ``kmeans_int``, k=4, 2 rounds) BLOCK the pair
    search; within each cluster a vector is dropped when an
    earlier-id cluster-mate sits within cosine >= 7/20 of it.  Cosine
    is decided EXACTLY on an integer grid (q = round(100x)): dot >= 0
    and 400*dot^2 >= 49*|u|^2*|v|^2 — cross-multiplied squares, no
    division, no sqrt, bit-identical in both engines (the embed_mmr
    int-grid recipe; all magnitudes < 2^53 so the SQL doubles are
    exact).  Output is the per-cluster (size, dropped) audit — the
    pair scan is cluster-local, so the blocking makes the method
    linear-ish at corpus scale while the oracle embeds the ENTIRE
    kmeans unroll as a sub-CTE (the langid-confusion composition
    move)."""
    import ray

    from kgray.ops.similarity import kmeans_int

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    _assign, C = kmeans_int(emb, k=4, iters=2, scale=10**6, shift=10**7,
                            return_centroids=True)
    # tag clusters in our OWN stateless pass with the broadcast k x d
    # centroids (Arrow's hash join rejects list payload columns, and a
    # vec->cluster dict would be key-scale driver state); the argmin
    # replicates kmeans_int's final assignment exactly: min over
    # ||c||^2 - 2 m.c on the shifted int grid, ties to lowest cluster
    cref = ray.put(C)

    def with_cluster(batch: pa.Table) -> pa.Table:
        C_ = ray.get(cref)
        m = round_half_up(
            _matrix(batch, "embedding").astype(np.float64) * 10**6, 0
        ).astype(np.int64) + 10**7
        scores = (C_ * C_).sum(axis=1)[None, :] - 2 * (m @ C_.T)
        return batch.append_column(
            "cluster", pa.array(np.argmin(scores, axis=1).astype(np.int64)))

    j = emb.map_batches(with_cluster, batch_format="pyarrow")

    def per_cluster(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for k, g in df.groupby("cluster", sort=False):
            g = g.sort_values("vec_id")
            M = np.rint(np.stack(
                [np.asarray(v, np.float64) for v in g["embedding"]]
            ) * _SD_GRID).astype(np.int64)
            G = M @ M.T
            n2 = np.diag(G).copy()
            cond = (G >= 0) & (
                _SD_TAU_DEN * _SD_TAU_DEN * G * G
                >= _SD_TAU_NUM * _SD_TAU_NUM * np.outer(n2, n2))
            dropped = np.triu(cond, 1).any(axis=0)
            out.append((int(k), len(g), int(dropped.sum())))
        return pd.DataFrame(out, columns=["cluster", "n", "n_dropped"])

    res = grouped_map(j, "cluster", per_cluster).to_pandas() \
        .sort_values("cluster", ignore_index=True)
    return pa.table({
        "cluster": pa.array(res["cluster"].to_numpy(np.int64)),
        "n": pa.array(res["n"].to_numpy(np.int64)),
        "n_dropped": pa.array(res["n_dropped"].to_numpy(np.int64)),
    })


def _semdedup_sql() -> str:
    from kgray.queries.analytics7 import _kmeans_sql

    tn2 = _SD_TAU_NUM * _SD_TAU_NUM
    td2 = _SD_TAU_DEN * _SD_TAU_DEN
    return f"""
WITH ak AS ({_kmeans_sql()}),
qi AS (SELECT vec_id,
              list_transform(embedding,
                x -> CAST(round(CAST(x AS DOUBLE) * {_SD_GRID}) AS DOUBLE))
              AS v
       FROM embeddings),
j AS (SELECT q.vec_id, q.v, a.cluster FROM qi q JOIN ak a USING (vec_id)),
nn AS (SELECT vec_id, list_dot_product(v, v) AS n2 FROM qi),
drops AS (SELECT DISTINCT b.vec_id
          FROM j a JOIN j b
            ON a.cluster = b.cluster AND a.vec_id < b.vec_id
          JOIN nn na ON na.vec_id = a.vec_id
          JOIN nn nb ON nb.vec_id = b.vec_id
          WHERE list_dot_product(a.v, b.v) >= 0
            AND {td2} * list_dot_product(a.v, b.v)
                      * list_dot_product(a.v, b.v)
                >= {tn2} * na.n2 * nb.n2)
SELECT j.cluster, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN d.vec_id IS NULL THEN 0 ELSE 1 END) AS BIGINT)
         AS n_dropped
FROM j LEFT JOIN drops d USING (vec_id)
GROUP BY 1 ORDER BY 1
"""


SQL_EMBED_SEMDEDUP_BLOCKED = _semdedup_sql()


# ---------------------------------------------------------------------------
# TextRank keyword extraction (PageRank over the word co-occurrence graph)
# ---------------------------------------------------------------------------


def q_doc_textrank_terms(sf_dir: str):
    """TextRank (Mihalcea & Tarau 2004) keyword scores: the word
    co-occurrence graph (distinct undirected token pairs within a
    distance-1..2 window — the word_window_pairs kernel) ranked by the
    oracle-checked integer fixed-point PageRank; top-30 terms.  The
    oracle composes the window-pair SQL with the pagerank_int unrolled
    recurrence over string nodes — integer arithmetic makes the
    4-iteration recurrence summation-order-exact (the
    part_supplier_pagerank pattern on a DERIVED graph)."""
    from kgray.ops.graph import pagerank_int
    from kgray.ops.word2vec import window_pair_counts

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = window_pair_counts(docs, "text", window=2)

    def undirect(batch: pa.Table) -> pa.Table:
        w = batch["w"].to_numpy(zero_copy_only=False)
        c = batch["c"].to_numpy(zero_copy_only=False)
        keep = w != c
        w, c = w[keep], c[keep]
        lo = np.minimum(w, c)
        hi = np.maximum(w, c)
        return pa.table({"u": pa.array(lo, pa.string()),
                         "v": pa.array(hi, pa.string())}) \
            .group_by(["u", "v"]).aggregate([])

    edges = pairs.map_batches(undirect, batch_format="pyarrow") \
        .materialize()
    edges = grouped_map(
        edges, "u", lambda df: df.drop_duplicates(["u", "v"]))
    ranked = pagerank_int(edges, iters=4)
    import ray.data as _rd

    if isinstance(ranked, pa.Table):
        ranked = _rd.from_arrow(ranked)
    top = ranked.sort(["r", "node"], descending=[True, False]).limit(30) \
        .to_pandas()
    return pa.table({
        "term": pa.array(top["node"], pa.string()),
        "r": pa.array(top["r"].to_numpy(np.int64)),
    })


def _textrank_sql(iters: int = 4, scale: int = 10**12) -> str:
    edge_sql = """toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS pos
  FROM documents),
e AS (SELECT DISTINCT least(t1.tok, t2.tok) AS u,
                      greatest(t1.tok, t2.tok) AS v
      FROM toks t1 JOIN toks t2
        ON t1.doc_id = t2.doc_id AND t2.pos - t1.pos BETWEEN 1 AND 2
      WHERE t1.tok <> t2.tok),
sym AS (SELECT u AS src, v AS dst FROM e
        UNION ALL SELECT v AS src, u AS dst FROM e),
deg AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS degree
        FROM sym GROUP BY 1)"""
    prev = "r0"
    ctes = [
        f"r0 AS (SELECT node, CAST({scale} // n.n AS BIGINT) AS r\n"
        "       FROM deg CROSS JOIN (SELECT CAST(COUNT(*) AS BIGINT) AS n"
        " FROM deg) n)"
    ]
    for i in range(1, iters + 1):
        ctes.append(
            f"r{i} AS (SELECT d.node, CAST((15 * {scale}) // (100 * m.n)\n"
            "         + (85 * COALESCE(c.contrib, 0)) // 100 AS BIGINT)"
            " AS r\n"
            "       FROM deg d\n"
            "       CROSS JOIN (SELECT CAST(COUNT(*) AS BIGINT) AS n"
            " FROM deg) m\n"
            "       LEFT JOIN (SELECT s.dst AS node,"
            " SUM(r.r // sd.degree) AS contrib\n"
            f"                  FROM sym s JOIN {prev} r ON s.src = r.node\n"
            "                  JOIN deg sd ON s.src = sd.node\n"
            "                  GROUP BY 1) c ON d.node = c.node)"
        )
        prev = f"r{i}"
    return (
        "WITH " + edge_sql + ",\n" + ",\n".join(ctes)
        + f"\nSELECT node AS term, r FROM {prev}"
        " ORDER BY r DESC, node LIMIT 30"
    )


SQL_DOC_TEXTRANK_TERMS = _textrank_sql()


# ---------------------------------------------------------------------------
# DoReMi-style domain mixture reweighting (one exponentiated-gradient
# round over per-source excess unigram-LM loss)
# ---------------------------------------------------------------------------


def q_doremi_weights(sf_dir: str):
    """One DoReMi-style (Xie et al. 2023) exponentiated-gradient round
    over document sources: domains whose tokens are more SURPRISING
    under the corpus-wide unigram LM (higher avg negative log-prob than
    the global baseline) get upweighted w_d ~ exp(L_d - B).  Per-token
    surprisal is quantized to integer micro-nats (floor(-1e6 *
    ln(cnt/T)), libm ln memoized per distinct count — the DSIR
    integer-log recipe), so every cross-engine SUM is exact; the <=
    20-term normalizer Z runs as an ordered left fold in BOTH engines
    (recursive-CTE scalar state — the temperature-mixture trick at a
    cardinality its 8-slot pivot can't reach)."""
    import ray

    docs = _read(sf_dir, "documents", ["source", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        t = pc.split_pattern(batch["text"], " ")
        lens = pc.list_value_length(t).to_numpy(zero_copy_only=False)
        return pa.table({
            "source": pa.array(np.repeat(
                batch["source"].to_numpy(zero_copy_only=False), lens)),
            "w": pc.list_flatten(t),
        })

    tokds = docs.map_batches(toks, batch_format="pyarrow").materialize()
    cnt = pre_aggregate(tokds, ["w"], {"n": (None, "count")}) \
        .to_pandas()  # vocab-scale fold, broadcast below (DSIR shape)
    T = int(cnt["n"].sum())
    cost_of = {}
    for w, n in zip(cnt["w"], cnt["n"]):
        n = int(n)
        if n not in cost_of:
            cost_of[n] = int(np.floor(
                -1000000.0 * math.log(float(n) / float(T))))
    cmap_ref = ray.put(dict(zip(
        cnt["w"], (cost_of[int(n)] for n in cnt["n"]))))

    def score(batch: pa.Table) -> pa.Table:
        cm = ray.get(cmap_ref)
        c = np.fromiter((cm[w] for w in batch["w"].to_pylist()),
                        np.int64, batch.num_rows)
        return pa.table({"source": batch["source"],
                         "c": pa.array(c, pa.int64())})

    per = pre_aggregate(
        tokds.map_batches(score, batch_format="pyarrow"),
        ["source"], {"s": ("c", "sum"), "n": (None, "count")},
    ).to_pandas().sort_values("source", ignore_index=True)
    S = per["s"].to_numpy(np.int64)
    N = per["n"].to_numpy(np.int64)
    B = float(int(S.sum())) / float(int(N.sum()))
    L = [float(int(s)) / float(int(n)) for s, n in zip(S, N)]
    E = [math.exp((l - B) / 1000000.0) for l in L]
    z = E[0]
    for v in E[1:]:  # ordered left fold, source order
        z = z + v
    return pa.table({
        "source": pa.array(per["source"], pa.string()),
        "n_tokens": pa.array(N),
        "excess_unats": pa.array(
            [float(round_half_up(l - B, 4)) for l in L], pa.float64()),
        "w": pa.array(
            [float(round_half_up(e / z, 6)) for e in E], pa.float64()),
    })


SQL_DOREMI_WEIGHTS = """
WITH RECURSIVE
tok AS (SELECT source, unnest(string_split(text, ' ')) AS w
        FROM documents),
cnt AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY 1),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS t FROM cnt),
cost AS (SELECT w,
                CAST(floor(-1000000.0 *
                     ln(CAST(n AS DOUBLE) / CAST((SELECT t FROM tot)
                                                 AS DOUBLE))) AS BIGINT)
                  AS c
         FROM cnt),
per AS (SELECT tok.source, CAST(SUM(cost.c) AS BIGINT) AS s,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM tok JOIN cost USING (w) GROUP BY 1),
base AS (SELECT CAST(SUM(s) AS DOUBLE) / CAST(SUM(n) AS DOUBLE) AS b
         FROM per),
r AS (SELECT source, s, n,
             CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS l,
             exp((CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
                  - (SELECT b FROM base)) / 1000000.0) AS e,
             ROW_NUMBER() OVER (ORDER BY source) AS rk
      FROM per),
zf AS (SELECT rk, e AS acc FROM r WHERE rk = 1
       UNION ALL
       SELECT r.rk, zf.acc + r.e FROM zf JOIN r ON r.rk = zf.rk + 1),
z AS (SELECT acc FROM zf ORDER BY rk DESC LIMIT 1)
SELECT r.source, r.n AS n_tokens,
       ROUND(r.l - (SELECT b FROM base), 4) AS excess_unats,
       ROUND(r.e / (SELECT acc FROM z), 6) AS w
FROM r ORDER BY r.source
"""


# ---------------------------------------------------------------------------
# Personalized PageRank (seeded teleport) over the supplier-part graph
# ---------------------------------------------------------------------------

_PPR_SEEDS = (1, 2, 3, 4)


def q_supplier_ppr(sf_dir: str):
    """PERSONALIZED integer fixed-point PageRank: the 15% teleport mass
    restarts only at seed suppliers {1..4} (split evenly), ranking the
    graph by proximity to the seed set — topic-sensitive PageRank as a
    first-class primitive (``graph.pagerank_int(seeds=...)``).  Integer
    arithmetic keeps the 4-iteration recurrence summation-order-exact;
    the oracle unrolls it with a CASE teleport term whose seed count is
    computed from the graph (seeds are filtered to present nodes on
    both paths — the bellman_ford lesson)."""
    from kgray.ops.graph import pagerank_int
    from kgray.queries.analytics4 import _part_supplier_edges

    return pagerank_int(_part_supplier_edges(sf_dir), iters=4,
                        seeds=_PPR_SEEDS)


def _ppr_sql(iters: int = 4, scale: int = 10**12) -> str:
    from kgray.queries.analytics4 import _GRAPH_EDGE_SQL

    seeds = ", ".join(str(s) for s in _PPR_SEEDS)
    prev = "r0"
    ctes = [
        f"ns AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM deg"
        f" WHERE node IN ({seeds}))",
        f"r0 AS (SELECT node, CAST({scale} // n.n AS BIGINT) AS r\n"
        "       FROM deg CROSS JOIN (SELECT CAST(COUNT(*) AS BIGINT) AS n"
        " FROM deg) n)",
    ]
    for i in range(1, iters + 1):
        ctes.append(
            f"r{i} AS (SELECT d.node, CAST(\n"
            f"         CASE WHEN d.node IN ({seeds})\n"
            f"              THEN (15 * {scale}) // (100 * (SELECT k FROM ns))\n"
            "              ELSE 0 END\n"
            "         + (85 * COALESCE(c.contrib, 0)) // 100 AS BIGINT)"
            " AS r\n"
            "       FROM deg d\n"
            "       LEFT JOIN (SELECT s.dst AS node,"
            " SUM(r.r // sd.degree) AS contrib\n"
            f"                  FROM sym s JOIN {prev} r ON s.src = r.node\n"
            "                  JOIN deg sd ON s.src = sd.node\n"
            "                  GROUP BY 1) c ON d.node = c.node)"
        )
        prev = f"r{i}"
    return (
        "WITH " + _GRAPH_EDGE_SQL + ",\n" + ",\n".join(ctes)
        + f"\nSELECT node, r FROM {prev}"
    )


SQL_SUPPLIER_PPR = _ppr_sql()


# ---------------------------------------------------------------------------
# Luby maximal independent set over the word co-occurrence graph
# ---------------------------------------------------------------------------


def q_word_mis(sf_dir: str):
    """Deterministic Luby-style maximal independent set over the word
    co-occurrence window graph (``graph.luby_mis``, 3 rounds, md5 hash
    priorities instead of randomness): per word 'in' / 'out' / 'open'.
    The classic parallel-graph primitive, oracle-unrolled — each SQL
    round selects actives with no smaller-priority active neighbor and
    retires their neighborhoods, exactly the engine's round rule."""
    from kgray.ops.graph import luby_mis
    from kgray.ops.word2vec import window_pair_counts

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = window_pair_counts(docs, "text", window=2)

    def undirect(batch: pa.Table) -> pa.Table:
        w = batch["w"].to_numpy(zero_copy_only=False)
        c = batch["c"].to_numpy(zero_copy_only=False)
        keep = w != c
        return pa.table({"u": pa.array(np.minimum(w[keep], c[keep]),
                                       pa.string()),
                         "v": pa.array(np.maximum(w[keep], c[keep]),
                                       pa.string())}) \
            .group_by(["u", "v"]).aggregate([])

    edges = pairs.map_batches(undirect, batch_format="pyarrow")
    return luby_mis(edges, rounds=3)


# every CTE is MATERIALIZED: the unrolled MIS rounds reference each
# other, and DuckDB re-expands inlined CTEs at each reference
SQL_WORD_MIS = """
WITH toks AS MATERIALIZED (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS pos
  FROM documents),
e AS MATERIALIZED (SELECT DISTINCT least(t1.tok, t2.tok) AS u,
                      greatest(t1.tok, t2.tok) AS v
      FROM toks t1 JOIN toks t2
        ON t1.doc_id = t2.doc_id AND t2.pos - t1.pos BETWEEN 1 AND 2
      WHERE t1.tok <> t2.tok),
sym AS MATERIALIZED (SELECT u AS src, v AS dst FROM e
        UNION ALL SELECT v AS src, u AS dst FROM e),
h AS MATERIALIZED (SELECT DISTINCT src AS node,
             CAST('0x' || substr(md5(src), 1, 13) AS BIGINT) AS hv
      FROM sym),
a0 AS MATERIALIZED (SELECT node FROM h),
s1 AS MATERIALIZED (SELECT a.node FROM a0 a JOIN h ha ON ha.node = a.node
       WHERE NOT EXISTS (
         SELECT 1 FROM sym s JOIN a0 b ON b.node = s.dst
         JOIN h hb ON hb.node = s.dst
         WHERE s.src = a.node AND hb.hv < ha.hv)),
rm1 AS MATERIALIZED (SELECT DISTINCT s.dst AS node
        FROM sym s JOIN s1 ON s1.node = s.src
        JOIN a0 a ON a.node = s.dst),
a1 AS MATERIALIZED (SELECT node FROM a0
       WHERE node NOT IN (SELECT node FROM s1)
         AND node NOT IN (SELECT node FROM rm1)),
s2 AS MATERIALIZED (SELECT a.node FROM a1 a JOIN h ha ON ha.node = a.node
       WHERE NOT EXISTS (
         SELECT 1 FROM sym s JOIN a1 b ON b.node = s.dst
         JOIN h hb ON hb.node = s.dst
         WHERE s.src = a.node AND hb.hv < ha.hv)),
rm2 AS MATERIALIZED (SELECT DISTINCT s.dst AS node
        FROM sym s JOIN s2 ON s2.node = s.src
        JOIN a1 a ON a.node = s.dst),
a2 AS MATERIALIZED (SELECT node FROM a1
       WHERE node NOT IN (SELECT node FROM s2)
         AND node NOT IN (SELECT node FROM rm2)),
s3 AS MATERIALIZED (SELECT a.node FROM a2 a JOIN h ha ON ha.node = a.node
       WHERE NOT EXISTS (
         SELECT 1 FROM sym s JOIN a2 b ON b.node = s.dst
         JOIN h hb ON hb.node = s.dst
         WHERE s.src = a.node AND hb.hv < ha.hv)),
rm3 AS MATERIALIZED (SELECT DISTINCT s.dst AS node
        FROM sym s JOIN s3 ON s3.node = s.src
        JOIN a2 a ON a.node = s.dst),
a3 AS MATERIALIZED (SELECT node FROM a2
       WHERE node NOT IN (SELECT node FROM s3)
         AND node NOT IN (SELECT node FROM rm3))
SELECT node, 'in' AS state FROM s1
UNION ALL SELECT node, 'out' FROM rm1
UNION ALL SELECT node, 'in' FROM s2
UNION ALL SELECT node, 'out' FROM rm2
UNION ALL SELECT node, 'in' FROM s3
UNION ALL SELECT node, 'out' FROM rm3
UNION ALL SELECT node, 'open' FROM a3
"""


# ---------------------------------------------------------------------------
# Binary-segmentation changepoint over the daily revenue series
# ---------------------------------------------------------------------------


def q_events_changepoint(sf_dir: str):
    """Single-changepoint binary segmentation over the daily events
    value series: the split k maximizing the between-segment
    sum-of-squares reduction gain(k) = (S1*n2 - S2*n1)^2 / (n1*n2*N)
    over daily cents totals.  All candidate numerators/denominators are
    EXACT integers; the gain double each engine computes is the SAME
    rounded value of the SAME exact rational (one HUGEINT-exact square,
    one division), so the argmax ordering is identical — ties break to
    the earliest day (the decision-stump raw-gain lesson).  One
    day-scale fold; the candidate sweep is day-scale driver work."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table({"d": pa.array(d, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    g = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["d"], {"s": ("c", "sum")},
    ).to_pandas().sort_values("d", ignore_index=True)  # day-scale
    y = [int(v) for v in g["s"]]
    dd = [int(v) for v in g["d"]]
    K = len(y)
    tot = sum(y)
    best = None
    pref = 0
    for k in range(1, K):
        pref += y[k - 1]
        n1, n2 = k, K - k
        num = (pref * n2 - (tot - pref) * n1) ** 2
        den = n1 * n2 * K
        gain = float(num) / float(den)
        if best is None or gain > best[0]:
            best = (gain, k, pref)
    gain, k, s1 = best
    return pa.table({
        "split_day": pa.array([dd[k - 1]], pa.int64()),
        "n1": pa.array([k], pa.int64()),
        "n2": pa.array([K - k], pa.int64()),
        "mean1": pa.array(
            [float(round_half_up(float(s1) / float(k), 4))], pa.float64()),
        "mean2": pa.array(
            [float(round_half_up(float(tot - s1) / float(K - k), 4))],
            pa.float64()),
        "gain": pa.array([float(round_half_up(gain, 4))], pa.float64()),
    })


SQL_EVENTS_CHANGEPOINT = """
WITH daily AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(SUM(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1),
o AS (SELECT d, s,
             ROW_NUMBER() OVER (ORDER BY d) AS k,
             SUM(s) OVER (ORDER BY d) AS pref
      FROM daily),
tot AS (SELECT CAST(SUM(s) AS BIGINT) AS t,
               CAST(COUNT(*) AS BIGINT) AS kk FROM daily),
cand AS (SELECT o.d, o.k, o.pref,
                CAST((o.pref * (tot.kk - o.k)
                      - (tot.t - o.pref) * o.k) AS HUGEINT) AS a,
                CAST(o.k * (tot.kk - o.k) * tot.kk AS BIGINT) AS den
         FROM o, tot WHERE o.k < tot.kk),
gains AS (SELECT d, k, pref, den,
                 CAST(a * a AS DOUBLE) / CAST(den AS DOUBLE) AS gain
          FROM cand)
SELECT g.d AS split_day,
       CAST(g.k AS BIGINT) AS n1,
       CAST(tot.kk - g.k AS BIGINT) AS n2,
       ROUND(CAST(g.pref AS DOUBLE) / CAST(g.k AS DOUBLE), 4) AS mean1,
       ROUND(CAST(tot.t - g.pref AS DOUBLE)
             / CAST(tot.kk - g.k AS DOUBLE), 4) AS mean2,
       ROUND(g.gain, 4) AS gain
FROM gains g, tot
ORDER BY g.gain DESC, g.k LIMIT 1
"""


# ---------------------------------------------------------------------------
# Cohen's kappa: langid heuristic vs labeled lang (annotator agreement)
# ---------------------------------------------------------------------------


def q_langid_kappa(sf_dir: str):
    """Cohen's kappa between the langid heuristic and the labeled lang
    column — chance-corrected agreement, the annotator-QA metric the
    raw-accuracy confusion matrix lacks.  Exact integers end-to-end:
    kappa = (agree*N - pe_num) / (N*N - pe_num) with pe_num =
    sum_l row_l * col_l, one final division (the langid-confusion
    composition: the oracle embeds the langid SQL)."""
    from kgray.queries.docs import q_langid

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    pred = q_langid(sf_dir)
    j = bucket_join(docs, pred, on="doc_id", how="inner")
    ct = pre_aggregate(
        j, ["lang", "lang_pred"], {"n": (None, "count")},
    ).to_pandas()  # label-scale contingency
    N = int(ct["n"].sum())
    agree = int(ct.loc[ct["lang"] == ct["lang_pred"], "n"].sum())
    row = ct.groupby("lang")["n"].sum()
    col = ct.groupby("lang_pred")["n"].sum()
    labels = sorted(set(row.index) | set(col.index))
    pe_num = sum(int(row.get(l, 0)) * int(col.get(l, 0)) for l in labels)
    kappa = float(agree * N - pe_num) / float(N * N - pe_num)
    return pa.table({
        "n": pa.array([N], pa.int64()),
        "agree": pa.array([agree], pa.int64()),
        "pe_num": pa.array([pe_num], pa.int64()),
        "kappa": pa.array([float(round_half_up(kappa, 6))], pa.float64()),
    })


SQL_LANGID_KAPPA = """
WITH pred AS (
WITH s AS (
  SELECT doc_id,
    CAST(contains(text, 'the ') AS INT) + CAST(contains(text, ' and ') AS INT) + CAST(contains(text, ' of ') AS INT) AS s_en,
    CAST(contains(text, 'der ') AS INT) + CAST(contains(text, ' und ') AS INT) + CAST(contains(text, ' sch') AS INT) AS s_de,
    CAST(contains(text, ' le ') AS INT) + CAST(contains(text, ' de ') AS INT) + CAST(contains(text, ' est') AS INT) AS s_fr,
    CAST(contains(text, ' el ') AS INT) + CAST(contains(text, ' de ') AS INT) + CAST(contains(text, 'ción') AS INT) AS s_es,
    CAST(contains(text, '的') AS INT) + CAST(contains(text, '是') AS INT) + CAST(contains(text, '了') AS INT) AS s_zh
  FROM documents)
SELECT doc_id,
  CASE WHEN greatest(s_en, s_de, s_fr, s_es, s_zh) = 0 THEN 'und'
       WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es AND s_en >= s_zh THEN 'en'
       WHEN s_de >= s_fr AND s_de >= s_es AND s_de >= s_zh THEN 'de'
       WHEN s_fr >= s_es AND s_fr >= s_zh THEN 'fr'
       WHEN s_es >= s_zh THEN 'es'
       ELSE 'zh' END AS lang_pred
FROM s
),
j AS (SELECT d.lang, p.lang_pred FROM documents d
      JOIN pred p ON d.doc_id = p.doc_id),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM j),
agree AS (SELECT CAST(COUNT(*) AS BIGINT) AS a FROM j
          WHERE lang = lang_pred),
row_t AS (SELECT lang AS l, CAST(COUNT(*) AS BIGINT) AS r FROM j GROUP BY 1),
col_t AS (SELECT lang_pred AS l, CAST(COUNT(*) AS BIGINT) AS c
          FROM j GROUP BY 1),
pe AS (SELECT CAST(SUM(COALESCE(row_t.r, 0) * COALESCE(col_t.c, 0))
              AS BIGINT) AS pn
       FROM row_t FULL OUTER JOIN col_t USING (l))
SELECT n.n, agree.a AS agree, pe.pn AS pe_num,
       ROUND(CAST(agree.a * n.n - pe.pn AS DOUBLE)
             / CAST(n.n * n.n - pe.pn AS DOUBLE), 6) AS kappa
FROM n, agree, pe
"""


# ---------------------------------------------------------------------------
# t-closeness privacy audit: per-source language distribution distance
# ---------------------------------------------------------------------------


def q_source_lang_tcloseness(sf_dir: str):
    """t-closeness audit (Li et al. 2007) of the source partitioning
    with lang as the sensitive attribute: per source, the total
    variation distance between its language distribution and the
    corpus-wide one — the k-anonymity/l-diversity companion that
    catches skewed (attribute-revealing) equivalence classes.  Exact
    cross-multiplied integers (tv_num = sum_l |n_sl*N - n_l*N_s|), one
    final division."""
    docs = _read(sf_dir, "documents", ["source", "lang"])
    ct = pre_aggregate(
        docs, ["source", "lang"], {"n": (None, "count")},
    ).to_pandas()  # (source x lang)-scale
    N = int(ct["n"].sum())
    lang_tot = ct.groupby("lang")["n"].sum()
    rows = []
    for s, g in ct.groupby("source"):
        Ns = int(g["n"].sum())
        have = dict(zip(g["lang"], g["n"]))
        tv_num = sum(
            abs(int(have.get(l, 0)) * N - int(lang_tot[l]) * Ns)
            for l in lang_tot.index)
        rows.append((s, Ns, tv_num,
                     float(round_half_up(tv_num / (2.0 * Ns * N), 6))))
    rows.sort()
    return pa.table({
        "source": pa.array([r[0] for r in rows], pa.string()),
        "n": pa.array([r[1] for r in rows], pa.int64()),
        "tv_num": pa.array([r[2] for r in rows], pa.int64()),
        "tv": pa.array([r[3] for r in rows], pa.float64()),
    })


SQL_SOURCE_LANG_TCLOSENESS = """
WITH ct AS (SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n
            FROM documents GROUP BY 1, 2),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS nn FROM ct),
lt AS (SELECT lang, CAST(SUM(n) AS BIGINT) AS nl FROM ct GROUP BY 1),
st AS (SELECT source, CAST(SUM(n) AS BIGINT) AS ns FROM ct GROUP BY 1)
SELECT st.source, st.ns AS n,
       CAST(SUM(abs(COALESCE(ct.n, 0) * tot.nn - lt.nl * st.ns))
            AS BIGINT) AS tv_num,
       ROUND(CAST(SUM(abs(COALESCE(ct.n, 0) * tot.nn - lt.nl * st.ns))
                  AS DOUBLE) / (2.0 * st.ns * tot.nn), 6) AS tv
FROM st CROSS JOIN lt CROSS JOIN tot
LEFT JOIN ct ON ct.source = st.source AND ct.lang = lt.lang
GROUP BY 1, 2, tot.nn
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Quality-gate rule attrition: what each filter uniquely removes
# ---------------------------------------------------------------------------


def q_quality_rule_attrition(sf_dir: str):
    """Per-rule attrition audit of a 4-rule quality gate (too-short,
    too-long, repeated-top-word, long-average-token): for each rule the
    number of failing docs and the number ONLY that rule catches — the
    ablation view a curation pipeline needs before dropping a rule.
    All rule predicates are integer cross-multiplies (no float
    thresholds), so counts are bit-exact."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def rules(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"], " ")
        nt = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        did = np.repeat(np.arange(len(nt)), nt)
        flat = pc.list_flatten(toks)
        df = pd.DataFrame({"d": did, "t": flat.to_pylist()})
        mx = df.groupby(["d", "t"], sort=False).size() \
            .groupby("d", sort=False).max() \
            .reindex(np.arange(len(nt)), fill_value=0).to_numpy(np.int64)
        tl = df["t"].str.len().to_numpy(np.int64)
        sl = np.zeros(len(nt), np.int64)
        np.add.at(sl, did, tl)
        r1 = nt < 5
        r2 = nt > 5000
        r3 = mx * 10 > nt * 3
        r4 = sl > 8 * nt
        fails = np.stack([r1, r2, r3, r4])
        only = fails & (fails.sum(axis=0) == 1)
        out = []
        for i, name in enumerate(["too_short", "too_long",
                                  "top_word_repeat", "long_tokens"]):
            out.append((name, int(fails[i].sum()), int(only[i].sum())))
        return pa.table({
            "rule": pa.array([o[0] for o in out], pa.string()),
            "n_fail": pa.array([o[1] for o in out], pa.int64()),
            "n_only": pa.array([o[2] for o in out], pa.int64()),
        })

    return pre_aggregate(
        docs.map_batches(rules, batch_format="pyarrow"),
        ["rule"], {"n_fail": ("n_fail", "sum"), "n_only": ("n_only", "sum")},
    )


SQL_QUALITY_RULE_ATTRITION = """
WITH tw AS (SELECT doc_id, MAX(c) AS mx, CAST(SUM(c * len(t)) AS BIGINT)
              AS sl
            FROM (SELECT doc_id, t, COUNT(*) AS c FROM (
                    SELECT doc_id, unnest(string_split(text, ' ')) AS t
                    FROM documents) GROUP BY 1, 2)
            GROUP BY 1),
f AS (SELECT d.doc_id,
             CASE WHEN len(string_split(d.text, ' ')) < 5
                  THEN 1 ELSE 0 END AS r1,
             CASE WHEN len(string_split(d.text, ' ')) > 5000
                  THEN 1 ELSE 0 END AS r2,
             CASE WHEN tw.mx * 10 > len(string_split(d.text, ' ')) * 3
                  THEN 1 ELSE 0 END AS r3,
             CASE WHEN tw.sl > 8 * len(string_split(d.text, ' '))
                  THEN 1 ELSE 0 END AS r4
      FROM documents d JOIN tw ON d.doc_id = tw.doc_id),
u AS (SELECT *, r1 + r2 + r3 + r4 AS tot FROM f)
SELECT 'too_short' AS rule, CAST(SUM(r1) AS BIGINT) AS n_fail,
       CAST(SUM(CASE WHEN r1 = 1 AND tot = 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_only FROM u
UNION ALL
SELECT 'too_long', CAST(SUM(r2) AS BIGINT),
       CAST(SUM(CASE WHEN r2 = 1 AND tot = 1 THEN 1 ELSE 0 END) AS BIGINT)
FROM u
UNION ALL
SELECT 'top_word_repeat', CAST(SUM(r3) AS BIGINT),
       CAST(SUM(CASE WHEN r3 = 1 AND tot = 1 THEN 1 ELSE 0 END) AS BIGINT)
FROM u
UNION ALL
SELECT 'long_tokens', CAST(SUM(r4) AS BIGINT),
       CAST(SUM(CASE WHEN r4 = 1 AND tot = 1 THEN 1 ELSE 0 END) AS BIGINT)
FROM u
"""


# ---------------------------------------------------------------------------
# Pair-counting cluster quality: kmeans_int clusters vs labels
# ---------------------------------------------------------------------------


def q_embed_cluster_pair_quality(sf_dir: str):
    """Pair-counting (Rand-style) quality of the integer k-means
    clustering against the embeddings' labels: TP = same-cluster AND
    same-label pairs, pairwise precision/recall/F1 — the standard
    entity-resolution clustering metric, exact because every term is an
    integer pair count (C(n,2) sums) with one final division.  The
    oracle embeds the full kmeans unroll (composition)."""
    from kgray.ops.similarity import kmeans_int

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"]) \
        .materialize()
    assign = kmeans_int(emb, k=4, iters=2, scale=10**6, shift=10**7)
    labels = emb.select_columns(["vec_id", "label"])
    j = bucket_join(labels, assign, on="vec_id", how="inner")
    cells = pre_aggregate(
        j, ["cluster", "label"], {"n": (None, "count")},
    ).to_pandas()  # (k x labels)-scale
    tp = int(sum(int(n) * (int(n) - 1) // 2 for n in cells["n"]))
    csz = cells.groupby("cluster")["n"].sum()
    gsz = cells.groupby("label")["n"].sum()
    pp = int(sum(int(n) * (int(n) - 1) // 2 for n in csz))
    gp = int(sum(int(n) * (int(n) - 1) // 2 for n in gsz))
    return pa.table({
        "tp_pairs": pa.array([tp], pa.int64()),
        "cluster_pairs": pa.array([pp], pa.int64()),
        "label_pairs": pa.array([gp], pa.int64()),
        "precision": pa.array(
            [float(round_half_up(tp / pp, 6))], pa.float64()),
        "recall": pa.array(
            [float(round_half_up(tp / gp, 6))], pa.float64()),
        "f1": pa.array(
            [float(round_half_up(2.0 * tp / (pp + gp), 6))], pa.float64()),
    })


def _cluster_pair_sql() -> str:
    from kgray.queries.analytics7 import _kmeans_sql

    return f"""
WITH ak AS ({_kmeans_sql()}),
cells AS (SELECT ak.cluster, e.label, CAST(COUNT(*) AS BIGINT) AS n
          FROM embeddings e JOIN ak ON ak.vec_id = e.vec_id
          GROUP BY 1, 2),
tp AS (SELECT CAST(SUM(n * (n - 1) // 2) AS BIGINT) AS v FROM cells),
pp AS (SELECT CAST(SUM(s * (s - 1) // 2) AS BIGINT) AS v FROM (
         SELECT CAST(SUM(n) AS BIGINT) AS s FROM cells GROUP BY cluster)),
gp AS (SELECT CAST(SUM(s * (s - 1) // 2) AS BIGINT) AS v FROM (
         SELECT CAST(SUM(n) AS BIGINT) AS s FROM cells GROUP BY label))
SELECT tp.v AS tp_pairs, pp.v AS cluster_pairs, gp.v AS label_pairs,
       ROUND(CAST(tp.v AS DOUBLE) / CAST(pp.v AS DOUBLE), 6) AS precision,
       ROUND(CAST(tp.v AS DOUBLE) / CAST(gp.v AS DOUBLE), 6) AS recall,
       ROUND(2.0 * tp.v / (pp.v + gp.v), 6) AS f1
FROM tp, pp, gp
"""


SQL_EMBED_CLUSTER_PAIR_QUALITY = _cluster_pair_sql()


# ---------------------------------------------------------------------------
# Sequential-pattern pair support (a-then-b, non-contiguous)
# ---------------------------------------------------------------------------


def q_events_seq_pairs(sf_dir: str):
    """Sequential-pattern mining, pair tier: for every ORDERED type pair
    (a, b), the number of users with some a-event strictly before some
    b-event — the non-contiguous "a then b" support that transition
    (adjacent-step) counts miss.  Per (user, type) min/max timestamps
    fold to integer microseconds, then a type x type sweep inside a
    user cogroup; counts are exact integers."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def us(batch: pa.Table) -> pa.Table:
        t = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[us]").astype(np.int64))
        return pa.table({"user_id": batch["user_id"],
                         "event_type": batch["event_type"],
                         "t": pa.array(t, pa.int64())})

    mm = pre_aggregate(
        ev.map_batches(us, batch_format="pyarrow"),
        ["user_id", "event_type"], {"mn": ("t", "min"), "mx": ("t", "max")},
    )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, g in df.groupby("user_id", sort=False):
            et = g["event_type"].to_numpy()
            mn = g["mn"].to_numpy(np.int64)
            mx = g["mx"].to_numpy(np.int64)
            hit = mn[:, None] < mx[None, :]
            np.fill_diagonal(hit, False)
            ia, ib = np.nonzero(hit)
            out_a.append(et[ia])
            out_b.append(et[ib])
        if not out_a:
            return pd.DataFrame({"a": pd.array([], dtype=object),
                                 "b": pd.array([], dtype=object)})
        return pd.DataFrame({"a": np.concatenate(out_a),
                             "b": np.concatenate(out_b)})

    return pre_aggregate(
        grouped_map(mm, "user_id", pairs),
        ["a", "b"], {"support": (None, "count")},
    )


SQL_EVENTS_SEQ_PAIRS = """
WITH t AS (SELECT user_id, event_type, MIN(ts) AS mn, MAX(ts) AS mx
           FROM events GROUP BY 1, 2)
SELECT a.event_type AS a, b.event_type AS b,
       CAST(COUNT(*) AS BIGINT) AS support
FROM t a JOIN t b
  ON a.user_id = b.user_id AND a.event_type <> b.event_type
 AND a.mn < b.mx
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Zipf slope per source (rank-frequency log-log OLS over top ranks)
# ---------------------------------------------------------------------------

_ZIPF_TOP = 50


def q_source_zipf_slope(sf_dir: str):
    """Per-source Zipf fit: OLS slope of ln(freq) on ln(rank) over the
    top-50 token ranks (rank ties broken by token) — the corpus-health
    diagnostic (natural text ~ -1; templated/generated text flattens).
    Both engines accumulate the four OLS sums as an EXPLICIT left fold
    in rank order (recursive-CTE scalar state — a cross-row float sum
    has no order guarantee otherwise) with libm ln (the tf-idf
    lesson)."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        t = pc.split_pattern(batch["text"], " ")
        lens = pc.list_value_length(t).to_numpy(zero_copy_only=False)
        return pa.table({
            "source": pa.array(np.repeat(
                batch["source"].to_numpy(zero_copy_only=False), lens)),
            "w": pc.list_flatten(t),
        })

    cnt = pre_aggregate(
        docs.map_batches(toks, batch_format="pyarrow"),
        ["source", "w"], {"n": (None, "count")},
    ).to_pandas()  # (source x vocab)-scale
    rows = []
    for s, g in cnt.groupby("source"):
        g = g.sort_values(["n", "w"], ascending=[False, True],
                          kind="mergesort").head(_ZIPF_TOP)
        n_r = len(g)
        sx = sy = sxy = sxx = 0.0
        for r, f in enumerate(g["n"], start=1):
            x = math.log(float(r))
            y = math.log(float(int(f)))
            sx = sx + x
            sy = sy + y
            sxy = sxy + x * y
            sxx = sxx + x * x
        slope = ((n_r * sxy - sx * sy) / (n_r * sxx - sx * sx))
        rows.append((s, n_r, float(round_half_up(slope, 6))))
    rows.sort()
    return pa.table({
        "source": pa.array([r[0] for r in rows], pa.string()),
        "n_ranks": pa.array([r[1] for r in rows], pa.int64()),
        "zipf_slope": pa.array([r[2] for r in rows], pa.float64()),
    })


SQL_SOURCE_ZIPF_SLOPE = f"""
WITH RECURSIVE
cnt AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS n FROM (
          SELECT source, unnest(string_split(text, ' ')) AS w
          FROM documents) GROUP BY 1, 2),
rk AS (SELECT source, n,
              ROW_NUMBER() OVER (PARTITION BY source
                                 ORDER BY n DESC, w) AS r
       FROM cnt),
top AS (SELECT source, r, ln(CAST(r AS DOUBLE)) AS x,
               ln(CAST(n AS DOUBLE)) AS y
        FROM rk WHERE r <= {_ZIPF_TOP}),
nr AS (SELECT source, CAST(MAX(r) AS BIGINT) AS n_r FROM top GROUP BY 1),
fold AS (SELECT source, r, x AS sx, y AS sy, x*y AS sxy, x*x AS sxx
         FROM top WHERE r = 1
         UNION ALL
         SELECT t.source, t.r, f.sx + t.x, f.sy + t.y,
                f.sxy + t.x*t.y, f.sxx + t.x*t.x
         FROM fold f JOIN top t
           ON t.source = f.source AND t.r = f.r + 1),
fin AS (SELECT f.source, f.sx, f.sy, f.sxy, f.sxx, nr.n_r
        FROM fold f JOIN nr ON nr.source = f.source AND f.r = nr.n_r)
SELECT source, n_r AS n_ranks,
       ROUND((n_r * sxy - sx * sy) / (n_r * sxx - sx * sx), 6)
         AS zipf_slope
FROM fin ORDER BY source
"""


# ---------------------------------------------------------------------------
# Key-skew census (shuffle-planning diagnostic)
# ---------------------------------------------------------------------------


def q_orders_key_skew_census(sf_dir: str):
    """Join-key skew census over orders.o_custkey: the top-10 hottest
    keys with their row share and their multiple of the mean key load —
    the diagnostic that decides salting / skew_join for a planned
    shuffle.  Counts are exact; the two ratios are single divisions of
    integers."""
    orders = _read(sf_dir, "orders", ["o_custkey"])
    cnt = pre_aggregate(
        orders, ["o_custkey"], {"n": (None, "count")},
    ).materialize()
    n_keys = cnt.count()
    total_df = pre_aggregate(
        cnt.select_columns(["n"]).map_batches(
            lambda b: pa.table({"k": pa.array(np.zeros(b.num_rows,
                                                       np.int64)),
                                "n": b["n"]}),
            batch_format="pyarrow"),
        ["k"], {"t": ("n", "sum")},
    ).to_pandas()
    total = int(total_df["t"].iloc[0])
    top = cnt.sort(["n", "o_custkey"], descending=[True, False]) \
        .limit(10).to_pandas()
    return pa.table({
        "o_custkey": pa.array(top["o_custkey"].to_numpy(np.int64)),
        "n": pa.array(top["n"].to_numpy(np.int64)),
        "share": pa.array(
            [float(round_half_up(int(v) / total, 6)) for v in top["n"]],
            pa.float64()),
        "x_mean": pa.array(
            [float(round_half_up(int(v) * n_keys / total, 4))
             for v in top["n"]], pa.float64()),
    })


SQL_ORDERS_KEY_SKEW_CENSUS = """
WITH c AS (SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n
           FROM orders GROUP BY 1),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS t,
               CAST(COUNT(*) AS BIGINT) AS k FROM c)
SELECT c.o_custkey, c.n,
       ROUND(CAST(c.n AS DOUBLE) / tot.t, 6) AS share,
       ROUND(CAST(c.n * tot.k AS DOUBLE) / tot.t, 4) AS x_mean
FROM c, tot
ORDER BY c.n DESC, c.o_custkey LIMIT 10
"""


# ---------------------------------------------------------------------------
# Nelson-Aalen cumulative hazard (sibling of the KM lifetime curve)
# ---------------------------------------------------------------------------


def q_events_nelson_aalen(sf_dir: str):
    """Nelson-Aalen cumulative hazard of user activity lifetime:
    H(t) = sum_{u<=t} d_u/n_u over the same lifetime/censoring folds as
    events_km_lifetime — the additive counterpart whose exp(-H) bounds
    the KM curve.  The day-scale running sum is an ordered left fold in
    BOTH engines (recursive-CTE scalar state)."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        return pa.table({"user_id": batch["user_id"],
                         "d": pa.array(d, pa.int64())})

    per_user = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["user_id"], {"fd": ("d", "min"), "ld": ("d", "max")},
    ).materialize()
    max_ld = int(per_user.max("ld"))

    def lifetime(batch: pa.Table) -> pa.Table:
        fd = batch["fd"].to_numpy(zero_copy_only=False).astype(np.int64)
        ld = batch["ld"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "t": pa.array(ld - fd, pa.int64()),
            "obs": pa.array((ld < max_ld).astype(np.int64)),
        })

    hist = pre_aggregate(
        per_user.map_batches(lifetime, batch_format="pyarrow"),
        ["t", "obs"], {"c": (None, "count")},
    ).to_pandas()
    at_risk = hist.groupby("t")["c"].sum().sort_index()
    n_of = at_risk[::-1].cumsum()[::-1]
    deaths = hist[hist["obs"] == 1].groupby("t")["c"].sum().sort_index()
    h = 0.0
    rows = []
    for t, d in deaths.items():
        n = int(n_of.loc[int(t)])
        h = h + float(int(d)) / float(n)
        rows.append((int(t), int(d), n, h))
    return pa.table({
        "t": pa.array([r[0] for r in rows], pa.int64()),
        "d": pa.array([r[1] for r in rows], pa.int64()),
        "n": pa.array([r[2] for r in rows], pa.int64()),
        "cum_hazard": pa.array(
            [float(round_half_up(r[3], 6)) for r in rows], pa.float64()),
    })


SQL_EVENTS_NELSON_AALEN = """
WITH RECURSIVE
u AS (SELECT user_id,
             CAST(date_diff('day', DATE '1970-01-01', CAST(MIN(ts) AS DATE))
                  AS BIGINT) AS fd,
             CAST(date_diff('day', DATE '1970-01-01', CAST(MAX(ts) AS DATE))
                  AS BIGINT) AS ld
      FROM events GROUP BY 1),
mx AS (SELECT MAX(ld) AS m FROM u),
lif AS (SELECT ld - fd AS t,
               CASE WHEN ld < (SELECT m FROM mx) THEN 1 ELSE 0 END AS obs
        FROM u),
dt AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS d FROM lif
       WHERE obs = 1 GROUP BY 1),
rk AS (SELECT dt.t, dt.d,
              (SELECT CAST(COUNT(*) AS BIGINT) FROM lif l
               WHERE l.t >= dt.t) AS n,
              ROW_NUMBER() OVER (ORDER BY dt.t) AS i
       FROM dt),
na AS (SELECT i, t, d, n,
              0.0 + CAST(d AS DOUBLE) / CAST(n AS DOUBLE) AS h
       FROM rk WHERE i = 1
       UNION ALL
       SELECT r.i, r.t, r.d, r.n,
              na.h + CAST(r.d AS DOUBLE) / CAST(r.n AS DOUBLE)
       FROM na JOIN rk r ON r.i = na.i + 1)
SELECT t, d, n, ROUND(h, 6) AS cum_hazard FROM na ORDER BY t
"""


# ---------------------------------------------------------------------------
# HyperBall neighborhood function (approximate graph analytics)
# ---------------------------------------------------------------------------


def q_supplier_neighborhood_func(sf_dir: str):
    """HyperBall-lite neighborhood function of the supplier-part graph
    (graph.neighborhood_hll): estimated reachable pairs within 0..3
    hops — the diameter/closeness primitive whose exact form is
    all-pairs BFS (O(N*E), infeasible at graph scale).  Sketch-valued:
    rows-only (tests pin the estimator against exact BFS counts on
    small graphs; the forced-distributed path is bit-identical to the
    in-process one because max-merge is deterministic)."""
    from kgray.ops.graph import neighborhood_hll
    from kgray.queries.analytics4 import _part_supplier_edges

    return neighborhood_hll(_part_supplier_edges(sf_dir), hops=3)


# ---------------------------------------------------------------------------
# Weekly seasonality strength of the daily order-revenue series
# ---------------------------------------------------------------------------


def q_orders_seasonality_strength(sf_dir: str):
    """Seasonality strength of daily order revenue: 1 minus the
    residual-to-total variance ratio after removing day-of-week
    floor-means — STL's "strength of seasonality" statistic with every
    accumulation exact-integer (daily cents, floor means, raw moments;
    HUGEINT in the oracle, python ints here), one final division."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table({"d": pa.array(d, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    g = pre_aggregate(
        orders.map_batches(days, batch_format="pyarrow"),
        ["d"], {"s": ("c", "sum")},
    ).to_pandas().sort_values("d", ignore_index=True)  # day-scale
    y = [int(v) for v in g["s"]]
    dow = [int(v) % 7 for v in g["d"]]
    n = len(y)
    sw = {}
    cw = {}
    for w, v in zip(dow, y):
        sw[w] = sw.get(w, 0) + v
        cw[w] = cw.get(w, 0) + 1
    mw = {w: sw[w] // cw[w] for w in sw}
    r = [v - mw[w] for w, v in zip(dow, y)]
    sy, syy = sum(y), sum(v * v for v in y)
    sr, srr = sum(r), sum(v * v for v in r)
    strength = 1.0 - (float(n * srr - sr * sr)
                      / float(n * syy - sy * sy))
    return pa.table({
        "n_days": pa.array([n], pa.int64()),
        "strength": pa.array(
            [float(round_half_up(strength, 6))], pa.float64()),
    })


SQL_ORDERS_SEASONALITY_STRENGTH = """
WITH daily AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01',
                        CAST(o_orderdate AS DATE)) AS BIGINT) AS d,
         CAST(SUM(CAST(round(o_totalprice * 100.0) AS BIGINT)) AS BIGINT)
           AS s
  FROM orders GROUP BY 1),
dw AS (SELECT d, s, d % 7 AS w FROM daily),
mw AS (SELECT w, CAST(SUM(s) AS BIGINT) // CAST(COUNT(*) AS BIGINT) AS m
       FROM dw GROUP BY 1),
r AS (SELECT dw.d, dw.s, dw.s - mw.m AS res FROM dw JOIN mw USING (w)),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(s) AS HUGEINT) AS sy,
               CAST(SUM(CAST(s AS HUGEINT) * s) AS HUGEINT) AS syy,
               CAST(SUM(res) AS HUGEINT) AS sr,
               CAST(SUM(CAST(res AS HUGEINT) * res) AS HUGEINT) AS srr
        FROM r)
SELECT n AS n_days,
       ROUND(1.0 - (CAST(n * srr - sr * sr AS DOUBLE)
                    / CAST(n * syy - sy * sy AS DOUBLE)), 6) AS strength
FROM agg
"""


# ---------------------------------------------------------------------------
# NB label-noise audit: rank of the GOLD label among classifier scores
# ---------------------------------------------------------------------------


def q_docs_nb_label_rank(sf_dir: str):
    """Confident-learning-lite label-noise audit: for every document,
    the RANK of its gold lang among the Naive-Bayes candidate scores
    (1 = the model agrees; higher = suspected label noise), folded to
    (lang, gold_rank, n_docs).  Model, quantization and tie rule are
    IDENTICAL to docs_nb_confusion (integer micro-unit log weights,
    min-lang tie-break); the oracle reuses that query's CTE chain
    verbatim and adds the rank join — scores are exact int64, so ranks
    are exact."""
    import ray

    from kgray.ops.dsir import _explode
    from kgray.queries.analytics8 import _NB_SCALE

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def tok_counts(batch: pa.Table) -> pa.Table:
        rows, flat = _explode(batch["text"].to_pylist())
        langs = batch["lang"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"lang": langs[rows], "t": flat})
        g = df.groupby(["lang", "t"], sort=False).size().reset_index(
            name="c")
        return pa.Table.from_pandas(g, preserve_index=False) \
            .replace_schema_metadata(None)

    counts = pre_aggregate(
        docs.map_batches(tok_counts, batch_format="pyarrow"),
        ["lang", "t"], {"c": ("c", "sum")},
    )
    dl = pre_aggregate(
        _read(sf_dir, "documents", ["lang"]),
        ["lang"], {"d": (None, "count")},
    )
    cdf = counts.to_pandas()
    ddf = dl.to_pandas().sort_values("lang").reset_index(drop=True)
    langs = ddf["lang"].tolist()
    l_of = {l: i for i, l in enumerate(langs)}
    vocab = pd.unique(cdf["t"])
    v_of = pd.Series(np.arange(len(vocab), dtype=np.int64), index=vocab)
    V = len(vocab)
    n_l = cdf.groupby("lang")["c"].sum().reindex(langs).fillna(0) \
        .to_numpy(np.int64)
    D = int(ddf["d"].sum())
    W = np.empty((len(langs), V + 1), np.int64)
    for li in range(len(langs)):
        W[li, :] = int(math.floor(
            _NB_SCALE * math.log(1.0 / float(n_l[li] + V)) + 0.5))
    li_idx = cdf["lang"].map(l_of).to_numpy(np.int64)
    ti_idx = cdf["t"].map(v_of).to_numpy(np.int64)
    cvals = cdf["c"].to_numpy(np.int64)
    W[li_idx, ti_idx] = np.fromiter(
        (math.floor(_NB_SCALE * math.log((c + 1) / float(n_l[li] + V))
                    + 0.5)
         for li, c in zip(li_idx, cvals)), np.int64, len(cvals))
    prior = np.fromiter(
        (math.floor(_NB_SCALE * math.log(d / float(D)) + 0.5)
         for d in ddf["d"].to_numpy(np.int64)), np.int64, len(langs))
    model = ray.put((W, v_of, prior, langs))

    def rank_gold(batch: pa.Table) -> pa.Table:
        Wm, vmap, pri, ls = ray.get(model)
        texts = batch["text"].to_pylist()
        rows, flat = _explode(texts)
        idx = (pd.Series(flat).map(vmap).fillna(Wm.shape[1] - 1)
               .to_numpy(np.int64))
        starts = np.searchsorted(rows, np.arange(len(texts)))
        scores = np.empty((len(texts), len(ls)), np.int64)
        for li in range(len(ls)):
            contrib = Wm[li, idx]
            sums = (np.add.reduceat(contrib, starts) if len(contrib)
                    else np.zeros(len(texts), np.int64))
            scores[:, li] = sums + pri[li]
        gold = np.fromiter(
            ((l_of.get(l, -1)) for l in
             batch["lang"].to_numpy(zero_copy_only=False)),
            np.int64, len(texts))
        gs = scores[np.arange(len(texts)), gold]
        # better = higher score, ties to the LOWER lang index
        better = (scores > gs[:, None]).sum(axis=1) + (
            (scores == gs[:, None])
            & (np.arange(len(ls))[None, :] < gold[:, None])
        ).sum(axis=1)
        out = pd.DataFrame({
            "lang": batch["lang"].to_numpy(zero_copy_only=False),
            "gold_rank": (better + 1).astype(np.int64),
        })
        g = out.groupby(["lang", "gold_rank"], sort=False).size() \
            .reset_index(name="n_docs")
        return pa.Table.from_pandas(g, preserve_index=False) \
            .replace_schema_metadata(None)

    return pre_aggregate(
        docs.map_batches(rank_gold, batch_format="pyarrow"),
        ["lang", "gold_rank"], {"n_docs": ("n_docs", "sum")},
    )


def _nb_label_rank_sql() -> str:
    from kgray.queries.analytics8 import SQL_DOCS_NB_CONFUSION

    base = SQL_DOCS_NB_CONFUSION[: SQL_DOCS_NB_CONFUSION.index("best AS")]
    return base + """gold AS (
  SELECT t.doc_id, d.lang, t.score AS gs
  FROM tot t JOIN documents d
    ON d.doc_id = t.doc_id AND d.lang = t.cand),
rk AS (SELECT g.doc_id, g.lang,
              CAST(1 + COUNT(t2.cand) AS BIGINT) AS gold_rank
       FROM gold g LEFT JOIN tot t2
         ON t2.doc_id = g.doc_id
        AND (t2.score > g.gs
             OR (t2.score = g.gs AND t2.cand < g.lang))
       GROUP BY 1, 2)
SELECT lang, gold_rank, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM rk GROUP BY 1, 2
"""


SQL_DOCS_NB_LABEL_RANK = _nb_label_rank_sql()


# ---------------------------------------------------------------------------
# Markov entropy rate of per-user event streams
# ---------------------------------------------------------------------------


def q_events_entropy_rate(sf_dir: str):
    """First-order Markov entropy rate of event-type streams:
    H = -(1/N) * sum_{a,b} n_ab * ln(n_ab / n_a) over per-user adjacent
    transitions — the predictability measure behind process-mining
    conformance.  Each transition's cost quantizes to integer
    micro-nats (floor(1e6*ln(p)), libm ln memoized per distinct
    (n_ab, n_a)), so the big sum is exact; one final division."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def trans(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        us = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        same = us[1:] == us[:-1]
        return pd.DataFrame({"a": et[:-1][same], "b": et[1:][same]})

    pairs = pre_aggregate(
        grouped_map(ev, "user_id", trans),
        ["a", "b"], {"n": (None, "count")},
    ).to_pandas()  # type^2-scale
    na = pairs.groupby("a")["n"].sum()
    N = int(pairs["n"].sum())
    total = 0
    for a, b, n in sorted(zip(pairs["a"], pairs["b"], pairs["n"])):
        n = int(n)
        c = int(np.floor(1000000.0 * math.log(
            float(n) / float(int(na[a])))))
        total += n * c
    return pa.table({
        "n_transitions": pa.array([N], pa.int64()),
        "cost_sum": pa.array([total], pa.int64()),
        "entropy_rate": pa.array(
            [float(round_half_up(-total / (1000000.0 * N), 6))],
            pa.float64()),
    })


SQL_EVENTS_ENTROPY_RATE = """
WITH s AS (SELECT user_id, event_type,
                  LEAD(event_type) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id) AS nxt
           FROM events),
p AS (SELECT event_type AS a, nxt AS b, CAST(COUNT(*) AS BIGINT) AS n
      FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2),
na AS (SELECT a, CAST(SUM(n) AS BIGINT) AS t FROM p GROUP BY 1),
c AS (SELECT p.a, p.b, p.n,
             CAST(floor(1000000.0 * ln(CAST(p.n AS DOUBLE)
                                       / CAST(na.t AS DOUBLE)))
                  AS BIGINT) AS c
      FROM p JOIN na USING (a)),
agg AS (SELECT CAST(SUM(n) AS BIGINT) AS nn,
               CAST(SUM(n * c) AS BIGINT) AS tot FROM c)
SELECT nn AS n_transitions, tot AS cost_sum,
       ROUND(-CAST(tot AS DOUBLE) / (1000000.0 * nn), 6) AS entropy_rate
FROM agg
"""


# ---------------------------------------------------------------------------
# Degree assortativity of the supplier-part graph
# ---------------------------------------------------------------------------


def q_supplier_assortativity(sf_dir: str):
    """Degree assortativity (Newman 2002) of the supplier-part graph:
    the Pearson correlation of endpoint degrees over all DIRECTED edges
    — the hub-connects-to-hub diagnostic (bipartite graphs trend
    negative).  Every moment is an exact integer over the symmetric
    edge list; the final r = cov / sqrt(vj * vk) is a mirrored float
    tree (IEEE sqrt is correctly rounded, so identical integer-valued
    operands give identical doubles)."""
    from kgray.ops.graph import node_degrees
    from kgray.queries.analytics4 import _part_supplier_edges

    edges = _part_supplier_edges(sf_dir).materialize()
    deg = node_degrees(edges).materialize()
    ju = bucket_join(edges.select_columns(["u", "v"]), deg, on="u",
                     right_on="node", how="inner")
    jb = bucket_join(ju, deg, on="v", right_on="node", how="inner",
                     right_suffix="_v")

    def moments(batch: pa.Table) -> pa.Table:
        j = batch["degree"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        k = batch["degree_v"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # symmetric edge list: every undirected edge contributes both
        # (j, k) and (k, j)
        sj = np.concatenate([j, k])
        sk = np.concatenate([k, j])
        return pa.table({
            "m": pa.array([len(sj)], pa.int64()),
            "sj": pa.array([int(sj.sum())], pa.int64()),
            "sjk": pa.array([int((sj * sk).sum())], pa.int64()),
            "sjj": pa.array([int((sj * sj).sum())], pa.int64()),
        })

    mm = pre_aggregate(
        jb.map_batches(moments, batch_format="pyarrow")
        .map_batches(lambda b: b.append_column(
            "g", pa.array(np.zeros(b.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["g"], {"m": ("m", "sum"), "sj": ("sj", "sum"),
                "sjk": ("sjk", "sum"), "sjj": ("sjj", "sum")},
    ).to_pandas()
    m = int(mm["m"].iloc[0])
    sj = int(mm["sj"].iloc[0])
    sjk = int(mm["sjk"].iloc[0])
    sjj = int(mm["sjj"].iloc[0])
    num = float(m * sjk - sj * sj)
    den = math.sqrt(float(m * sjj - sj * sj)
                    * float(m * sjj - sj * sj))
    r = num / den
    return pa.table({
        "m_directed": pa.array([m], pa.int64()),
        "assortativity": pa.array(
            [float(round_half_up(r, 6))], pa.float64()),
    })


SQL_SUPPLIER_ASSORTATIVITY = """
WITH e AS (SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS u,
                  CAST(l_partkey + 10000000 AS BIGINT) AS v
           FROM lineitem),
sym AS (SELECT u AS src, v AS dst FROM e
        UNION ALL SELECT v, u FROM e),
deg AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS d
        FROM sym GROUP BY 1),
jk AS (SELECT du.d AS j, dv.d AS k
       FROM sym s JOIN deg du ON du.node = s.src
       JOIN deg dv ON dv.node = s.dst),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS m,
               CAST(SUM(j) AS BIGINT) AS sj,
               CAST(SUM(CAST(j AS HUGEINT) * k) AS BIGINT) AS sjk,
               CAST(SUM(CAST(j AS HUGEINT) * j) AS BIGINT) AS sjj
        FROM jk)
SELECT m AS m_directed,
       ROUND(CAST(m * sjk - sj * sj AS DOUBLE)
             / sqrt(CAST(m * sjj - sj * sj AS DOUBLE)
                    * CAST(m * sjj - sj * sj AS DOUBLE)), 6)
         AS assortativity
FROM agg
"""


# ---------------------------------------------------------------------------
# Wald-Wolfowitz runs test on the daily revenue sign sequence
# ---------------------------------------------------------------------------


def q_events_runs_test(sf_dir: str):
    """Wald-Wolfowitz runs test for randomness of daily event revenue:
    the day sequence becomes +/- by comparison with the LOWER MEDIAN of
    daily cents totals (exact integer order statistic; == median counts
    as below), R = number of sign runs, and z = (R - mu)/sigma from the
    classic moments — every operand an exact integer, the final tree
    mirrored (IEEE sqrt correctly rounded).  One day-scale fold."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table({"d": pa.array(d, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    g = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["d"], {"s": ("c", "sum")},
    ).to_pandas().sort_values("d", ignore_index=True)  # day-scale
    y = g["s"].to_numpy(np.int64)
    n = len(y)
    med = int(np.sort(y)[(n - 1) // 2])  # lower median, exact
    sign = y > med
    n1 = int(sign.sum())
    n2 = n - n1
    runs = int(1 + (sign[1:] != sign[:-1]).sum()) if n else 0
    mu = 1.0 + 2.0 * n1 * n2 / float(n1 + n2)
    sig2 = (2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2)
            / (float(n1 + n2) * (n1 + n2) * (n1 + n2 - 1)))
    z = (runs - mu) / math.sqrt(sig2)
    return pa.table({
        "n_days": pa.array([n], pa.int64()),
        "n_above": pa.array([n1], pa.int64()),
        "runs": pa.array([runs], pa.int64()),
        "z": pa.array([float(round_half_up(z, 6))], pa.float64()),
    })


SQL_EVENTS_RUNS_TEST = """
WITH daily AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(SUM(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM daily),
med AS (SELECT s AS m FROM (
          SELECT s, ROW_NUMBER() OVER (ORDER BY s) AS r FROM daily)
        WHERE r = ((SELECT n FROM n) - 1) // 2 + 1),
sg AS (SELECT d, CASE WHEN s > (SELECT m FROM med) THEN 1 ELSE 0 END
              AS above
       FROM daily),
runs AS (SELECT CAST(1 + SUM(chg) AS BIGINT) AS r FROM (
           SELECT CASE WHEN above <> LAG(above) OVER (ORDER BY d)
                       THEN 1 ELSE 0 END AS chg
           FROM sg) t),
agg AS (SELECT (SELECT CAST(SUM(above) AS BIGINT) FROM sg) AS n1,
               (SELECT n FROM n) - (SELECT CAST(SUM(above) AS BIGINT)
                                    FROM sg) AS n2,
               (SELECT r FROM runs) AS r,
               (SELECT n FROM n) AS n)
SELECT n AS n_days, n1 AS n_above, r AS runs,
       ROUND((r - (1.0 + 2.0 * n1 * n2 / CAST(n1 + n2 AS DOUBLE)))
             / sqrt(2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2)
                    / (CAST(n1 + n2 AS DOUBLE) * (n1 + n2)
                       * (n1 + n2 - 1))), 6) AS z
FROM agg
"""


# ---------------------------------------------------------------------------
# Per-segment exact Gini of order values
# ---------------------------------------------------------------------------


def q_orders_gini_by_segment(sf_dir: str):
    """Exact per-segment Gini of order totals: G = (2*SUM(i*x) -
    (n+1)*SUM(x)) / (n*SUM(x)) with ascending ranks — tie ordering
    cannot change SUM(i*x) over equal values, so the integer-cents sums
    are engine-invariant.  One broadcast dim attach + one segment
    cogroup (a GROUP fits a worker — the grouped-window assumption);
    python-int folds inside the bucket are overflow-immune."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = broadcast_join(orders, cust, on="o_custkey",
                       right_on="c_custkey", how="inner")

    def per_segment(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for seg, grp in df.groupby("c_mktsegment", sort=False):
            x = np.sort(round_half_up(
                grp["o_totalprice"].to_numpy(np.float64) * 100.0, 0
            ).astype(np.int64))
            n = len(x)
            sx = int(x.sum())
            six = int((np.arange(1, n + 1, dtype=np.int64) * x).sum())
            gini = float(2 * six - (n + 1) * sx) / float(n * sx)
            out.append((seg, n, float(round_half_up(gini, 6))))
        return pd.DataFrame(out, columns=["c_mktsegment", "n", "gini"])

    return grouped_map(j, "c_mktsegment", per_segment)


SQL_ORDERS_GINI_BY_SEGMENT = """
WITH x AS (SELECT c.c_mktsegment,
                  CAST(round(o.o_totalprice * 100.0) AS BIGINT) AS v
           FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),
r AS (SELECT c_mktsegment, v,
             ROW_NUMBER() OVER (PARTITION BY c_mktsegment
                                ORDER BY v) AS i
      FROM x),
agg AS (SELECT c_mktsegment,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(v) AS BIGINT) AS sx,
               CAST(SUM(CAST(i AS HUGEINT) * v) AS HUGEINT) AS six
        FROM r GROUP BY 1)
SELECT c_mktsegment, n,
       ROUND(CAST(2 * six - (n + 1) * sx AS DOUBLE)
             / CAST(n * sx AS DOUBLE), 6) AS gini
FROM agg
"""


# ---------------------------------------------------------------------------
# Jensen-Shannon divergence matrix between source unigram distributions
# ---------------------------------------------------------------------------


def q_source_js_matrix(sf_dir: str):
    """Pairwise Jensen-Shannon divergence between source unigram
    distributions — the mixture-planning distance matrix (symmetric,
    bounded, defined on disjoint supports where KL blows up).  Each KL
    term quantizes to integer micro-nats: c = floor(1e6 * ln(2*n1*N2 /
    (n1*N2 + n2*N1))) with libm ln of a double-exact integer ratio, so
    the per-pair sums are exact; the finish is two divisions and one
    explicit 2-term sum."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        t = pc.split_pattern(batch["text"], " ")
        lens = pc.list_value_length(t).to_numpy(zero_copy_only=False)
        return pa.table({
            "source": pa.array(np.repeat(
                batch["source"].to_numpy(zero_copy_only=False), lens)),
            "w": pc.list_flatten(t),
        })

    cnt = pre_aggregate(
        docs.map_batches(toks, batch_format="pyarrow"),
        ["source", "w"], {"n": (None, "count")},
    ).to_pandas()  # (source x vocab)-scale
    piv = cnt.pivot_table(index="w", columns="source", values="n",
                          aggfunc="sum", fill_value=0).sort_index()
    sources = sorted(piv.columns)
    tot = {s: int(piv[s].sum()) for s in sources}
    rows = []
    for i, s1 in enumerate(sources):
        n1v = piv[s1].to_numpy(np.int64)
        for s2 in sources[i + 1:]:
            n2v = piv[s2].to_numpy(np.int64)
            N1, N2 = tot[s1], tot[s2]
            t1 = 0
            for n1, n2 in zip(n1v.tolist(), n2v.tolist()):
                if n1:
                    t1 += n1 * int(math.floor(1000000.0 * math.log(
                        float(2 * n1 * N2) / float(n1 * N2 + n2 * N1))))
            t2 = 0
            for n1, n2 in zip(n1v.tolist(), n2v.tolist()):
                if n2:
                    t2 += n2 * int(math.floor(1000000.0 * math.log(
                        float(2 * n2 * N1) / float(n2 * N1 + n1 * N2))))
            a = float(t1) / (1000000.0 * float(N1))
            b = float(t2) / (1000000.0 * float(N2))
            js = 0.5 * (a + b)
            rows.append((s1, s2, float(round_half_up(js, 6))))
    return pa.table({
        "s1": pa.array([r[0] for r in rows], pa.string()),
        "s2": pa.array([r[1] for r in rows], pa.string()),
        "js": pa.array([r[2] for r in rows], pa.float64()),
    })


SQL_SOURCE_JS_MATRIX = """
WITH cnt AS (SELECT source, w, CAST(COUNT(*) AS BIGINT) AS n FROM (
               SELECT source, unnest(string_split(text, ' ')) AS w
               FROM documents) GROUP BY 1, 2),
tot AS (SELECT source, CAST(SUM(n) AS BIGINT) AS t FROM cnt GROUP BY 1),
pairs AS (SELECT a.source AS s1, b.source AS s2, a.t AS t1, b.t AS t2
          FROM tot a JOIN tot b ON a.source < b.source),
u AS (SELECT p.s1, p.s2, p.t1, p.t2, v.w,
             COALESCE(c1.n, 0) AS n1, COALESCE(c2.n, 0) AS n2
      FROM pairs p
      CROSS JOIN (SELECT DISTINCT w FROM cnt) v
      LEFT JOIN cnt c1 ON c1.source = p.s1 AND c1.w = v.w
      LEFT JOIN cnt c2 ON c2.source = p.s2 AND c2.w = v.w),
terms AS (SELECT s1, s2, t1, t2,
            CASE WHEN n1 > 0 THEN n1 * CAST(floor(1000000.0 *
              ln(CAST(2 * n1 * t2 AS DOUBLE)
                 / CAST(n1 * t2 + n2 * t1 AS DOUBLE))) AS BIGINT)
                 ELSE 0 END AS c1,
            CASE WHEN n2 > 0 THEN n2 * CAST(floor(1000000.0 *
              ln(CAST(2 * n2 * t1 AS DOUBLE)
                 / CAST(n2 * t1 + n1 * t2 AS DOUBLE))) AS BIGINT)
                 ELSE 0 END AS c2
          FROM u),
agg AS (SELECT s1, s2, t1, t2,
               CAST(SUM(c1) AS BIGINT) AS tt1,
               CAST(SUM(c2) AS BIGINT) AS tt2
        FROM terms GROUP BY 1, 2, 3, 4)
SELECT s1, s2,
       ROUND(0.5 * ((CAST(tt1 AS DOUBLE) / (1000000.0 * t1))
                    + (CAST(tt2 AS DOUBLE) / (1000000.0 * t2))), 6)
         AS js
FROM agg ORDER BY s1, s2
"""


# ---------------------------------------------------------------------------
# Lag-k autocorrelation of the daily revenue series
# ---------------------------------------------------------------------------


def q_events_autocorr(sf_dir: str):
    """Lag-1 and lag-7 Pearson autocorrelation of daily event revenue —
    the trend/weekly-memory diagnostic under the forecasting family.
    For each lag the aligned-pair moments (n, Σx, Σy, Σxy, Σx², Σy²)
    are exact integers over day cents; the final correlation is one
    mirrored float tree (IEEE sqrt).  Day gaps are real gaps: pairs
    align on d and d+k PRESENT in the series, the calendar-honest
    definition."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table({"d": pa.array(d, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    g = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["d"], {"s": ("c", "sum")},
    ).to_pandas().sort_values("d", ignore_index=True)
    dd = g["d"].to_numpy(np.int64)
    yy = g["s"].to_numpy(np.int64)
    of = dict(zip(dd.tolist(), yy.tolist()))
    rows = []
    for k in (1, 7):
        xs, ys = [], []
        for d, x in zip(dd.tolist(), yy.tolist()):
            if d + k in of:
                xs.append(x)
                ys.append(of[d + k])
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        sxx = sum(a * a for a in xs)
        syy = sum(b * b for b in ys)
        r = (float(n * sxy - sx * sy)
             / math.sqrt(float(n * sxx - sx * sx)
                         * float(n * syy - sy * sy)))
        rows.append((k, n, float(round_half_up(r, 6))))
    return pa.table({
        "lag": pa.array([r[0] for r in rows], pa.int64()),
        "n_pairs": pa.array([r[1] for r in rows], pa.int64()),
        "autocorr": pa.array([r[2] for r in rows], pa.float64()),
    })


SQL_EVENTS_AUTOCORR = """
WITH daily AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(SUM(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1),
lags AS (SELECT UNNEST([1, 7]) AS k),
p AS (SELECT l.k, a.s AS x, b.s AS y
      FROM lags l JOIN daily a ON TRUE
      JOIN daily b ON b.d = a.d + l.k),
agg AS (SELECT k, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(x) AS BIGINT) AS sx,
               CAST(SUM(y) AS BIGINT) AS sy,
               CAST(SUM(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy,
               CAST(SUM(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
               CAST(SUM(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy
        FROM p GROUP BY 1)
SELECT k AS lag, n AS n_pairs,
       ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                    * CAST(n * syy - sy * sy AS DOUBLE)), 6) AS autocorr
FROM agg ORDER BY k
"""


# ---------------------------------------------------------------------------
# Supplier-concentration HHI per part brand
# ---------------------------------------------------------------------------


def q_brand_supplier_hhi(sf_dir: str):
    """Herfindahl-Hirschman concentration of supplier quantity shares
    within each part brand — the supply-risk audit.  HHI = sum s_i^2
    computed as an exact integer ratio sum(q_i^2) / (sum q_i)^2, one
    division per brand."""
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    j = broadcast_join(li, part, on="l_partkey", right_on="p_partkey",
                       how="inner")

    def qint(batch: pa.Table) -> pa.Table:
        q = round_half_up(
            batch["l_quantity"].to_numpy(zero_copy_only=False), 0
        ).astype(np.int64)
        return pa.table({"p_brand": batch["p_brand"],
                         "l_suppkey": batch["l_suppkey"],
                         "q": pa.array(q)})

    bs = pre_aggregate(
        j.map_batches(qint, batch_format="pyarrow"),
        ["p_brand", "l_suppkey"], {"q": ("q", "sum")},
    ).to_pandas()  # (brand x supplier)-scale
    rows = []
    for b, grp in bs.groupby("p_brand"):
        q = [int(v) for v in grp["q"]]
        tot = sum(q)
        num = sum(v * v for v in q)
        rows.append((b, len(q),
                     float(round_half_up(float(num) / float(tot * tot),
                                         6))))
    rows.sort()
    return pa.table({
        "p_brand": pa.array([r[0] for r in rows], pa.string()),
        "n_suppliers": pa.array([r[1] for r in rows], pa.int64()),
        "hhi": pa.array([r[2] for r in rows], pa.float64()),
    })


SQL_BRAND_SUPPLIER_HHI = """
WITH q AS (SELECT p.p_brand, l.l_suppkey,
                  CAST(SUM(CAST(round(l.l_quantity) AS BIGINT)) AS BIGINT)
                    AS q
           FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
           GROUP BY 1, 2),
agg AS (SELECT p_brand,
               CAST(COUNT(*) AS BIGINT) AS n_suppliers,
               CAST(SUM(CAST(q AS HUGEINT) * q) AS HUGEINT) AS num,
               CAST(SUM(q) AS BIGINT) AS tot
        FROM q GROUP BY 1)
SELECT p_brand, n_suppliers,
       ROUND(CAST(num AS DOUBLE)
             / CAST(CAST(tot AS HUGEINT) * tot AS DOUBLE), 6) AS hhi
FROM agg ORDER BY p_brand
"""


# ---------------------------------------------------------------------------
# RAKE keyphrase extraction (integer degree/frequency scoring)
# ---------------------------------------------------------------------------

_RAKE_STOPS = 5
_RAKE_TOP = 15


def q_doc_rake_phrases(sf_dir: str):
    """RAKE keyphrases (Rose et al. 2010) with DATA-DRIVEN stopwords
    (the corpus's top-5 tokens — no external stopword list in this
    sandbox): candidate phrases are maximal non-stopword runs, each
    word scores deg/freq over the phrase corpus, a phrase scores the
    sum of its words.  Scoring is EXACT integers end-to-end:
    score(word) = (1e6 * deg) // freq, so the phrase fold is an int
    sum and the top-15 cut is engine-invariant (score desc, phrase
    asc).  Phrase building is the gaps-and-islands rn-rt trick on
    stopword boundaries in both engines."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    tok_counts = pre_aggregate(
        docs.map_batches(
            lambda b: pa.table({
                "w": pc.list_flatten(pc.split_pattern(b["text"], " "))}),
            batch_format="pyarrow"),
        ["w"], {"n": (None, "count")},
    ).to_pandas()
    stops = set(
        tok_counts.sort_values(["n", "w"], ascending=[False, True],
                               kind="mergesort").head(_RAKE_STOPS)["w"])

    import ray

    stops_ref = ray.put(stops)

    def phrases(batch: pa.Table) -> pa.Table:
        st = ray.get(stops_ref)
        out = []
        for did, text in zip(batch["doc_id"].to_pylist(),
                             batch["text"].to_pylist()):
            run = []
            for w in text.split(" ") + [None]:
                if w is None or w in st or w == "":
                    if run:
                        out.append(" ".join(run))
                        run = []
                else:
                    run.append(w)
        return pa.table({"phrase": pa.array(out, pa.string())})

    ph = pre_aggregate(
        docs.map_batches(phrases, batch_format="pyarrow"),
        ["phrase"], {"n": (None, "count")},
    ).to_pandas()  # phrase-vocab scale
    deg = {}
    freq = {}
    for p, n in zip(ph["phrase"], ph["n"]):
        ws = p.split(" ")
        L = len(ws)
        for w in ws:
            deg[w] = deg.get(w, 0) + L * int(n)
            freq[w] = freq.get(w, 0) + int(n)
    score = {w: (1000000 * deg[w]) // freq[w] for w in deg}
    rows = []
    for p, n in zip(ph["phrase"], ph["n"]):
        s = sum(score[w] for w in p.split(" "))
        rows.append((p, int(n), s))
    rows.sort(key=lambda r: (-r[2], r[0]))
    rows = rows[:_RAKE_TOP]
    return pa.table({
        "phrase": pa.array([r[0] for r in rows], pa.string()),
        "n": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.int64()),
    })


SQL_DOC_RAKE_PHRASES = f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS pos
  FROM documents),
stops AS (SELECT tok FROM (
            SELECT tok, COUNT(*) AS n FROM toks GROUP BY 1
            ORDER BY n DESC, tok LIMIT {_RAKE_STOPS})),
kept AS (SELECT doc_id, pos, tok,
                ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY pos)
                  AS rn
         FROM toks
         WHERE tok NOT IN (SELECT tok FROM stops) AND tok <> ''),
runs AS (SELECT doc_id, pos - rn AS grp, tok, pos FROM kept),
ph AS (SELECT string_agg(tok, ' ' ORDER BY pos) AS phrase
       FROM runs GROUP BY doc_id, grp),
pc AS (SELECT phrase, CAST(COUNT(*) AS BIGINT) AS n FROM ph GROUP BY 1),
pw AS (SELECT pc.phrase, pc.n,
              unnest(string_split(pc.phrase, ' ')) AS w,
              CAST(len(string_split(pc.phrase, ' ')) AS BIGINT) AS L
       FROM pc),
wstat AS (SELECT w, CAST(SUM(L * n) AS BIGINT) AS deg,
                 CAST(SUM(n) AS BIGINT) AS freq
          FROM pw GROUP BY 1),
wsc AS (SELECT w, (1000000 * deg) // freq AS s FROM wstat),
psc AS (SELECT pw.phrase, pw.n,
               CAST(SUM(wsc.s) AS BIGINT) AS score
        FROM pw JOIN wsc USING (w) GROUP BY 1, 2)
SELECT phrase, n, score FROM psc
ORDER BY score DESC, phrase LIMIT {_RAKE_TOP}
"""


# ---------------------------------------------------------------------------
# Rich-club coefficient of the supplier-part graph
# ---------------------------------------------------------------------------

_RC_KS = (2, 4, 8, 16)


def q_supplier_rich_club(sf_dir: str):
    """Rich-club coefficient phi(k) = 2*E_k / (N_k*(N_k-1)): the
    density of the subgraph induced by nodes with degree > k, for k in
    {2,4,8,16} — do high-degree hubs preferentially interconnect?
    Exact integer edge/node counts, one division per k."""
    from kgray.ops.graph import node_degrees
    from kgray.queries.analytics4 import _part_supplier_edges

    edges = _part_supplier_edges(sf_dir).materialize()
    deg = node_degrees(edges).materialize()
    ju = bucket_join(edges.select_columns(["u", "v"]), deg, on="u",
                     right_on="node", how="inner")
    jb = bucket_join(ju, deg, on="v", right_on="node", how="inner",
                     right_suffix="_v").materialize()

    def counts(batch: pa.Table) -> pa.Table:
        du = batch["degree"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        dv = batch["degree_v"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cols = {"g": pa.array([0], pa.int64())}
        for k in _RC_KS:
            cols[f"e{k}"] = pa.array(
                [int(((du > k) & (dv > k)).sum())], pa.int64())
        return pa.table(cols)

    e_counts = pre_aggregate(
        jb.map_batches(counts, batch_format="pyarrow"),
        ["g"], {f"e{k}": (f"e{k}", "sum") for k in _RC_KS},
    ).to_pandas()

    def ncount(batch: pa.Table) -> pa.Table:
        d = batch["degree"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cols = {"g": pa.array([0], pa.int64())}
        for k in _RC_KS:
            cols[f"n{k}"] = pa.array([int((d > k).sum())], pa.int64())
        return pa.table(cols)

    n_counts = pre_aggregate(
        deg.map_batches(ncount, batch_format="pyarrow"),
        ["g"], {f"n{k}": (f"n{k}", "sum") for k in _RC_KS},
    ).to_pandas()
    rows = []
    for k in _RC_KS:
        ek = int(e_counts[f"e{k}"].iloc[0])
        nk = int(n_counts[f"n{k}"].iloc[0])
        phi = (float(2 * ek) / float(nk * (nk - 1))
               if nk > 1 else 0.0)
        rows.append((k, nk, ek, float(round_half_up(phi, 6))))
    return pa.table({
        "k": pa.array([r[0] for r in rows], pa.int64()),
        "n_k": pa.array([r[1] for r in rows], pa.int64()),
        "e_k": pa.array([r[2] for r in rows], pa.int64()),
        "phi": pa.array([r[3] for r in rows], pa.float64()),
    })


SQL_SUPPLIER_RICH_CLUB = """
WITH e AS (SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS u,
                  CAST(l_partkey + 10000000 AS BIGINT) AS v
           FROM lineitem),
sym AS (SELECT u AS src, v AS dst FROM e UNION ALL SELECT v, u FROM e),
deg AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS d
        FROM sym GROUP BY 1),
ks AS (SELECT UNNEST([2, 4, 8, 16]) AS k),
nk AS (SELECT ks.k, CAST(COUNT(deg.node) AS BIGINT) AS n_k
       FROM ks LEFT JOIN deg ON deg.d > ks.k GROUP BY 1),
ek AS (SELECT ks.k, CAST(COUNT(t.u) AS BIGINT) AS e_k
       FROM ks LEFT JOIN (
         SELECT e.u, e.v, du.d AS dju, dv.d AS djv
         FROM e JOIN deg du ON du.node = e.u
         JOIN deg dv ON dv.node = e.v) t
         ON t.dju > ks.k AND t.djv > ks.k
       GROUP BY 1)
SELECT nk.k, nk.n_k, ek.e_k,
       CASE WHEN nk.n_k > 1
            THEN ROUND(CAST(2 * ek.e_k AS DOUBLE)
                       / CAST(nk.n_k * (nk.n_k - 1) AS DOUBLE), 6)
            ELSE 0.0 END AS phi
FROM nk JOIN ek USING (k) ORDER BY nk.k
"""


# ---------------------------------------------------------------------------
# Simpson's-paradox trend audit: global vs per-segment slope signs
# ---------------------------------------------------------------------------


def q_orders_trend_sign_audit(sf_dir: str):
    """Simpson's-paradox detector for the revenue-over-time trend: the
    SIGN of an OLS slope is the sign of the integer n*Sxy - Sx*Sy, so
    global-vs-per-segment trend disagreement is decided in EXACT
    integer arithmetic (no floats anywhere).  Output: per segment, its
    slope-numerator sign and whether it contradicts the global sign —
    the aggregation-reversal audit every dashboard needs."""
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = broadcast_join(orders, cust, on="o_custkey",
                       right_on="c_custkey", how="inner")

    def prep(batch: pa.Table) -> pa.Table:
        d = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0,
            0).astype(np.int64)
        return pa.table({"seg": batch["c_mktsegment"],
                         "x": pa.array(d, pa.int64()),
                         "y": pa.array(c, pa.int64())})

    def moments(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "seg": batch["seg"].to_numpy(zero_copy_only=False),
            "n": 1,
            "sx": batch["x"].to_numpy(zero_copy_only=False),
            "sy": batch["y"].to_numpy(zero_copy_only=False),
            "sxy": (batch["x"].to_numpy(zero_copy_only=False)
                    * batch["y"].to_numpy(zero_copy_only=False)),
        })
        g = df.groupby("seg", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False) \
            .replace_schema_metadata(None)

    mm = pre_aggregate(
        j.map_batches(prep, batch_format="pyarrow")
        .map_batches(moments, batch_format="pyarrow"),
        ["seg"], {"n": ("n", "sum"), "sx": ("sx", "sum"),
                  "sy": ("sy", "sum"), "sxy": ("sxy", "sum")},
    ).to_pandas()  # segment-scale
    gn = int(mm["n"].sum())
    gsx = int(mm["sx"].sum())
    gsy = int(mm["sy"].sum())
    gsxy = int(mm["sxy"].sum())
    gnum = gn * gsxy - gsx * gsy
    gsign = (gnum > 0) - (gnum < 0)
    rows = []
    for _, r in mm.iterrows():
        num = int(r["n"]) * int(r["sxy"]) - int(r["sx"]) * int(r["sy"])
        s = (num > 0) - (num < 0)
        rows.append((r["seg"], int(r["n"]), s, gsign,
                     1 if s * gsign < 0 else 0))
    rows.sort()
    return pa.table({
        "seg": pa.array([r[0] for r in rows], pa.string()),
        "n": pa.array([r[1] for r in rows], pa.int64()),
        "seg_sign": pa.array([r[2] for r in rows], pa.int64()),
        "global_sign": pa.array([r[3] for r in rows], pa.int64()),
        "reversed": pa.array([r[4] for r in rows], pa.int64()),
    })


SQL_ORDERS_TREND_SIGN_AUDIT = """
WITH b AS (SELECT c.c_mktsegment AS seg,
                  CAST(date_diff('day', DATE '1970-01-01',
                                 CAST(o.o_orderdate AS DATE)) AS BIGINT)
                    AS x,
                  CAST(round(o.o_totalprice * 100.0) AS BIGINT) AS y
           FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey),
m AS (SELECT seg, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(x) AS BIGINT) AS sx,
             CAST(SUM(y) AS BIGINT) AS sy,
             CAST(SUM(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy
      FROM b GROUP BY 1),
g AS (SELECT CAST(SUM(n) AS HUGEINT) AS n, CAST(SUM(sx) AS HUGEINT) AS sx,
             CAST(SUM(sy) AS HUGEINT) AS sy,
             CAST(SUM(sxy) AS HUGEINT) AS sxy FROM m),
sg AS (SELECT sign(g.n * g.sxy - g.sx * g.sy) AS gs FROM g)
SELECT m.seg, m.n,
       CAST(sign(CAST(m.n AS HUGEINT) * m.sxy
                 - CAST(m.sx AS HUGEINT) * m.sy) AS BIGINT) AS seg_sign,
       CAST(sg.gs AS BIGINT) AS global_sign,
       CAST(CASE WHEN sign(CAST(m.n AS HUGEINT) * m.sxy
                           - CAST(m.sx AS HUGEINT) * m.sy) * sg.gs < 0
                 THEN 1 ELSE 0 END AS BIGINT) AS reversed
FROM m, sg ORDER BY m.seg
"""


# ---------------------------------------------------------------------------
# Heaps' law fit: vocabulary growth over the doc-ordered corpus prefix
# ---------------------------------------------------------------------------

_HEAPS_POINTS = 10


def q_docs_heaps_law(sf_dir: str):
    """Heaps'-law fit V(n) ~ K*n^beta of vocabulary growth along the
    doc_id-ordered corpus: each token's FIRST document (min doc_id —
    one vocab-scale fold) turns cumulative-distinct into a histogram,
    sampled at 10 doc-count checkpoints; beta/lnK come from a log-log
    OLS whose four sums run as an ORDERED left fold over the 10 points
    (libm ln).  Sub-linear beta (<1) is the healthy-corpus signature;
    beta ~ 1 flags boilerplate-free synthetic or exploding vocab."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def first_seen(batch: pa.Table) -> pa.Table:
        t = pc.split_pattern(batch["text"], " ")
        lens = pc.list_value_length(t).to_numpy(zero_copy_only=False)
        did = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), lens)
        df = pd.DataFrame({"w": pc.list_flatten(t).to_pylist(),
                           "d": did})
        g = df.groupby("w", sort=False)["d"].min().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False) \
            .replace_schema_metadata(None)

    first = pre_aggregate(
        docs.map_batches(first_seen, batch_format="pyarrow"),
        ["w"], {"d": ("d", "min")},
    ).to_pandas()  # vocab-scale
    ndocs_df = pre_aggregate(
        docs.select_columns(["doc_id"]),
        ["doc_id"], {"c": (None, "count")},
    ).to_pandas()
    doc_ids = np.sort(ndocs_df["doc_id"].to_numpy(np.int64))
    n = len(doc_ids)
    # tokens per doc for the x axis (cumulative token counts)
    tokc = pre_aggregate(
        docs.map_batches(
            lambda b: pa.table({
                "doc_id": b["doc_id"],
                "t": pc.list_value_length(
                    pc.split_pattern(b["text"], " ")).cast(pa.int64()),
            }), batch_format="pyarrow"),
        ["doc_id"], {"t": ("t", "sum")},
    ).to_pandas().sort_values("doc_id", ignore_index=True)
    cumtok = tokc["t"].to_numpy(np.int64).cumsum()
    firsts = np.sort(first["d"].to_numpy(np.int64))
    rows = []
    sx = sy = sxy = sxx = 0.0
    k = 0
    for i in range(1, _HEAPS_POINTS + 1):
        ci = (n * i) // _HEAPS_POINTS - 1  # checkpoint doc index
        boundary = int(doc_ids[ci])
        V = int(np.searchsorted(firsts, boundary, side="right"))
        T = int(cumtok[ci])
        x = math.log(float(T))
        y = math.log(float(V))
        k += 1
        sx = sx + x
        sy = sy + y
        sxy = sxy + x * y
        sxx = sxx + x * x
        rows.append((i, T, V))
    beta = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    out = pa.table({
        "checkpoint": pa.array([r[0] for r in rows], pa.int64()),
        "n_tokens": pa.array([r[1] for r in rows], pa.int64()),
        "vocab": pa.array([r[2] for r in rows], pa.int64()),
        "beta": pa.array(
            [float(round_half_up(beta, 6))] * len(rows), pa.float64()),
    })
    return out


SQL_DOCS_HEAPS_LAW = f"""
WITH RECURSIVE
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w
        FROM documents),
first AS (SELECT w, CAST(MIN(doc_id) AS BIGINT) AS d FROM tok GROUP BY 1),
ids AS (SELECT doc_id, ROW_NUMBER() OVER (ORDER BY doc_id) AS r,
               CAST(COUNT(*) OVER () AS BIGINT) AS n
        FROM (SELECT DISTINCT doc_id FROM documents)),
tokc AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS t
         FROM tok GROUP BY 1),
cum AS (SELECT i.doc_id, i.r, i.n,
               CAST(SUM(COALESCE(tokc.t, 0)) OVER (ORDER BY i.doc_id)
                    AS BIGINT) AS cumtok
        FROM ids i LEFT JOIN tokc USING (doc_id)),
cp AS (SELECT ck.i, c.doc_id AS boundary, c.cumtok AS n_tokens
       FROM (SELECT UNNEST(range(1, {_HEAPS_POINTS + 1})) AS i) ck
       JOIN cum c ON c.r = (c.n * ck.i) // {_HEAPS_POINTS}),
pts AS (SELECT cp.i, cp.n_tokens,
               (SELECT CAST(COUNT(*) AS BIGINT) FROM first
                WHERE d <= cp.boundary) AS vocab
        FROM cp),
fold AS (SELECT i, ln(CAST(n_tokens AS DOUBLE)) AS sx,
                ln(CAST(vocab AS DOUBLE)) AS sy,
                ln(CAST(n_tokens AS DOUBLE))
                  * ln(CAST(vocab AS DOUBLE)) AS sxy,
                ln(CAST(n_tokens AS DOUBLE))
                  * ln(CAST(n_tokens AS DOUBLE)) AS sxx
         FROM pts WHERE i = 1
         UNION ALL
         SELECT p.i, f.sx + ln(CAST(p.n_tokens AS DOUBLE)),
                f.sy + ln(CAST(p.vocab AS DOUBLE)),
                f.sxy + ln(CAST(p.n_tokens AS DOUBLE))
                      * ln(CAST(p.vocab AS DOUBLE)),
                f.sxx + ln(CAST(p.n_tokens AS DOUBLE))
                      * ln(CAST(p.n_tokens AS DOUBLE))
         FROM fold f JOIN pts p ON p.i = f.i + 1),
fin AS (SELECT sx, sy, sxy, sxx FROM fold
        ORDER BY i DESC LIMIT 1)
SELECT pts.i AS checkpoint, pts.n_tokens, pts.vocab,
       ROUND(({_HEAPS_POINTS} * fin.sxy - fin.sx * fin.sy)
             / ({_HEAPS_POINTS} * fin.sxx - fin.sx * fin.sx), 6) AS beta
FROM pts, fin ORDER BY pts.i
"""


# ---------------------------------------------------------------------------
# Granger-lite: does the click series help predict the purchase series?
# ---------------------------------------------------------------------------


def q_events_granger_lite(sf_dir: str):
    """Granger-style predictive test on daily series: does yesterday's
    CLICK revenue improve predicting today's PURCHASE revenue over its
    own lag?  Restricted (p_t ~ p_{t-1}) vs full (p_t ~ p_{t-1} +
    c_{t-1}) OLS, compared by n*RSS computed from n-scaled centered
    moments — every moment is an exact integer over day cents (days
    absent for a type count as 0, so the day grid is dense and both
    engines align identically); the two RSS trees and the F-like
    statistic mirror term-for-term (IEEE arithmetic on double-exact
    integer operands)."""
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"]).filter(
        expr="event_type == 'click' or event_type == 'purchase'")

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table({"d": pa.array(d, pa.int64()),
                         "t": batch["event_type"],
                         "c": pa.array(c, pa.int64())})

    g = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["d", "t"], {"s": ("c", "sum")},
    ).to_pandas()  # day x type scale
    lo, hi = int(g["d"].min()), int(g["d"].max())
    ndays = hi - lo + 1
    p = np.zeros(ndays, np.int64)
    c = np.zeros(ndays, np.int64)
    for _, r in g.iterrows():
        (p if r["t"] == "purchase" else c)[int(r["d"]) - lo] = int(r["s"])
    y = [int(v) for v in p[1:]]
    x1 = [int(v) for v in p[:-1]]
    x2 = [int(v) for v in c[:-1]]
    n = len(y)
    sy, s1, s2 = sum(y), sum(x1), sum(x2)
    syy = sum(v * v for v in y)
    s11 = sum(v * v for v in x1)
    s22 = sum(v * v for v in x2)
    s12 = sum(a * b for a, b in zip(x1, x2))
    s1y = sum(a * b for a, b in zip(x1, y))
    s2y = sum(a * b for a, b in zip(x2, y))
    # n-scaled centered moments (exact ints -> exact doubles)
    Cyy = float(n * syy - sy * sy)
    C11 = float(n * s11 - s1 * s1)
    C22 = float(n * s22 - s2 * s2)
    C12 = float(n * s12 - s1 * s2)
    C1y = float(n * s1y - s1 * sy)
    C2y = float(n * s2y - s2 * sy)
    rss_r = Cyy - (C1y * C1y) / C11
    det = C11 * C22 - C12 * C12
    b1 = (C22 * C1y - C12 * C2y) / det
    b2 = (C11 * C2y - C12 * C1y) / det
    rss_f = Cyy - (b1 * C1y + b2 * C2y)
    fstat = ((rss_r - rss_f) / rss_f) * float(n - 3)
    return pa.table({
        "n_days": pa.array([n], pa.int64()),
        "f_like": pa.array([float(round_half_up(fstat, 4))],
                           pa.float64()),
        "rss_ratio": pa.array(
            [float(round_half_up(rss_f / rss_r, 6))], pa.float64()),
    })


SQL_EVENTS_GRANGER_LITE = """
WITH raw AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         event_type AS t,
         CAST(SUM(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS s
  FROM events WHERE event_type IN ('click', 'purchase')
  GROUP BY 1, 2),
grid AS (SELECT UNNEST(range((SELECT MIN(d) FROM raw),
                             (SELECT MAX(d) FROM raw) + 1)) AS d),
series AS (SELECT g.d,
                  COALESCE(p.s, 0) AS p, COALESCE(c.s, 0) AS c
           FROM grid g
           LEFT JOIN raw p ON p.d = g.d AND p.t = 'purchase'
           LEFT JOIN raw c ON c.d = g.d AND c.t = 'click'),
lagd AS (SELECT d, p AS y,
                LAG(p) OVER (ORDER BY d) AS x1,
                LAG(c) OVER (ORDER BY d) AS x2
         FROM series),
rows_ AS (SELECT * FROM lagd WHERE x1 IS NOT NULL),
m AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(y) AS BIGINT) AS sy,
             CAST(SUM(x1) AS BIGINT) AS s1,
             CAST(SUM(x2) AS BIGINT) AS s2,
             CAST(SUM(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy,
             CAST(SUM(CAST(x1 AS HUGEINT) * x1) AS HUGEINT) AS s11,
             CAST(SUM(CAST(x2 AS HUGEINT) * x2) AS HUGEINT) AS s22,
             CAST(SUM(CAST(x1 AS HUGEINT) * x2) AS HUGEINT) AS s12,
             CAST(SUM(CAST(x1 AS HUGEINT) * y) AS HUGEINT) AS s1y,
             CAST(SUM(CAST(x2 AS HUGEINT) * y) AS HUGEINT) AS s2y
      FROM rows_),
cm AS (SELECT n,
              CAST(n * syy - sy * sy AS DOUBLE) AS cyy,
              CAST(n * s11 - s1 * s1 AS DOUBLE) AS c11,
              CAST(n * s22 - s2 * s2 AS DOUBLE) AS c22,
              CAST(n * s12 - s1 * s2 AS DOUBLE) AS c12,
              CAST(n * s1y - s1 * sy AS DOUBLE) AS c1y,
              CAST(n * s2y - s2 * sy AS DOUBLE) AS c2y
       FROM m),
fit AS (SELECT n, cyy, c1y, c2y,
               cyy - (c1y * c1y) / c11 AS rss_r,
               (c22 * c1y - c12 * c2y) / (c11 * c22 - c12 * c12) AS b1,
               (c11 * c2y - c12 * c1y) / (c11 * c22 - c12 * c12) AS b2
        FROM cm)
SELECT n AS n_days,
       ROUND(((rss_r - (cyy - (b1 * c1y + b2 * c2y)))
              / (cyy - (b1 * c1y + b2 * c2y))) * CAST(n - 3 AS DOUBLE),
             4) AS f_like,
       ROUND((cyy - (b1 * c1y + b2 * c2y)) / rss_r, 6) AS rss_ratio
FROM fit
"""


# ---------------------------------------------------------------------------
# Word burstiness: variance-to-mean of per-doc counts for top words
# ---------------------------------------------------------------------------

_WB_TOP = 20


def q_word_burstiness(sf_dir: str):
    """Per-word burstiness (Church & Gale): the variance-to-mean ratio
    of per-document counts for the 20 most frequent words — VMR ~ 1 is
    Poisson scatter, VMR >> 1 marks topical/bursty words.  VMR =
    (D*sum(c^2) - (sum c)^2) / (D*sum c) over ALL D docs (absent docs
    contribute zeros to both sums by construction), exact integers with
    one final division."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        t = pc.split_pattern(batch["text"], " ")
        lens = pc.list_value_length(t).to_numpy(zero_copy_only=False)
        did = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), lens)
        df = pd.DataFrame({"w": pc.list_flatten(t).to_pylist(),
                           "d": did})
        g = df.groupby(["w", "d"], sort=False).size().reset_index(
            name="c")
        return pa.Table.from_pandas(g, preserve_index=False) \
            .replace_schema_metadata(None)

    wd = pre_aggregate(
        docs.map_batches(counts, batch_format="pyarrow"),
        ["w", "d"], {"c": ("c", "sum")},
    )
    agg = pre_aggregate(
        wd, ["w"], {"s": ("c", "sum")},
    ).to_pandas()
    top = set(agg.sort_values(["s", "w"], ascending=[False, True],
                              kind="mergesort").head(_WB_TOP)["w"])
    D = int(docs.count())
    sub = wd.to_pandas()
    sub = sub[sub["w"].isin(top)]
    rows = []
    for w, g in sub.groupby("w"):
        cs = [int(v) for v in g["c"]]
        s = sum(cs)
        ss = sum(v * v for v in cs)
        vmr = float(D * ss - s * s) / float(D * s)
        rows.append((w, s, float(round_half_up(vmr, 6))))
    rows.sort()
    return pa.table({
        "w": pa.array([r[0] for r in rows], pa.string()),
        "n": pa.array([r[1] for r in rows], pa.int64()),
        "vmr": pa.array([r[2] for r in rows], pa.float64()),
    })


SQL_WORD_BURSTINESS = f"""
WITH wd AS (SELECT w, doc_id, CAST(COUNT(*) AS BIGINT) AS c FROM (
              SELECT doc_id, unnest(string_split(text, ' ')) AS w
              FROM documents) GROUP BY 1, 2),
top AS (SELECT w FROM (
          SELECT w, CAST(SUM(c) AS BIGINT) AS s FROM wd GROUP BY 1
          ORDER BY s DESC, w LIMIT {_WB_TOP})),
dd AS (SELECT CAST(COUNT(*) AS BIGINT) AS d FROM documents),
agg AS (SELECT wd.w, CAST(SUM(wd.c) AS BIGINT) AS s,
               CAST(SUM(CAST(wd.c AS HUGEINT) * wd.c) AS HUGEINT) AS ss
        FROM wd JOIN top USING (w) GROUP BY 1)
SELECT agg.w, agg.s AS n,
       ROUND(CAST(dd.d * agg.ss - CAST(agg.s AS HUGEINT) * agg.s
                  AS DOUBLE)
             / CAST(dd.d * agg.s AS DOUBLE), 6) AS vmr
FROM agg, dd ORDER BY agg.w
"""


# ---------------------------------------------------------------------------
# One-way ANOVA across day-of-week groups of daily revenue
# ---------------------------------------------------------------------------


def q_events_dow_anova(sf_dir: str):
    """One-way ANOVA F of daily revenue across day-of-week groups — the
    k-sample extension of the Welch/t family already in the catalog.
    SSB and SSW come from n-scaled integer group moments (exact; the
    grand total scales every term by N so no fractional means appear):
    N^2*SST = N*(N*Syy - Sy^2)/... — implemented as the standard
    N-scaled decomposition with every operand an exact integer, two
    final divisions mirrored."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table({"d": pa.array(d, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    g = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["d"], {"s": ("c", "sum")},
    ).to_pandas()
    g["w"] = g["d"].astype(np.int64) % 7
    groups = g.groupby("w")["s"]
    k = groups.ngroups
    N = len(g)
    Sy = int(g["s"].sum())
    Syy = sum(int(v) * int(v) for v in g["s"])
    # SSB (N-scaled x prod of group sizes trick avoided): use exact
    # rational sums via python Fractions-free integers: SSB = sum_g
    # (Tg^2/ng) - Sy^2/N -> scale by N*prod? simpler: compute the two
    # float terms from exact integer components, mirrored
    ssb = 0.0
    for _, grp in groups:
        Tg = int(grp.sum())
        ng = len(grp)
        ssb = ssb + float(Tg * Tg) / float(ng)
    ssb = ssb - float(Sy * Sy) / float(N)
    sst = float(Syy) - float(Sy * Sy) / float(N)
    ssw = sst - ssb
    f = (ssb / float(k - 1)) / (ssw / float(N - k))
    return pa.table({
        "n_days": pa.array([N], pa.int64()),
        "k": pa.array([k], pa.int64()),
        "f_stat": pa.array([float(round_half_up(f, 4))], pa.float64()),
    })


SQL_EVENTS_DOW_ANOVA = """
WITH daily AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(SUM(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1),
w AS (SELECT d % 7 AS w, s FROM daily),
grp AS (SELECT w, CAST(SUM(s) AS BIGINT) AS tg,
               CAST(COUNT(*) AS BIGINT) AS ng
        FROM w GROUP BY 1 ORDER BY w),
tot AS (SELECT CAST(SUM(s) AS BIGINT) AS sy,
               CAST(SUM(CAST(s AS HUGEINT) * s) AS HUGEINT) AS syy,
               CAST(COUNT(*) AS BIGINT) AS n FROM w),
kk AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM grp),
ssb AS (SELECT SUM(CAST(CAST(tg AS HUGEINT) * tg AS DOUBLE)
                   / CAST(ng AS DOUBLE) ORDER BY w) AS acc
        FROM grp)
SELECT tot.n AS n_days, kk.k,
       ROUND(((ssb.acc - CAST(CAST(tot.sy AS HUGEINT) * tot.sy AS DOUBLE)
                        / CAST(tot.n AS DOUBLE)) / CAST(kk.k - 1 AS DOUBLE))
             / (((CAST(tot.syy AS DOUBLE)
                 - CAST(CAST(tot.sy AS HUGEINT) * tot.sy AS DOUBLE)
                   / CAST(tot.n AS DOUBLE))
                 - (ssb.acc
                    - CAST(CAST(tot.sy AS HUGEINT) * tot.sy AS DOUBLE)
                      / CAST(tot.n AS DOUBLE)))
                / CAST(tot.n - kk.k AS DOUBLE)), 4) AS f_stat
FROM tot, kk, ssb
"""


# ---------------------------------------------------------------------------
# Mann-Kendall trend test on the daily revenue series
# ---------------------------------------------------------------------------


def q_events_mann_kendall(sf_dir: str):
    """Mann-Kendall non-parametric trend test on daily revenue: S =
    sum over day pairs i<j of sign(y_j - y_i) (a pure INTEGER — no
    distributional assumptions, robust to outliers), tie-corrected
    variance, z with the +/-1 continuity correction.  The day-scale
    O(days^2) pair sweep is driver work over the folded aggregate; the
    oracle's self-join computes the identical integers."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table({"d": pa.array(d, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    g = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["d"], {"s": ("c", "sum")},
    ).to_pandas().sort_values("d", ignore_index=True)
    y = g["s"].to_numpy(np.int64)
    n = len(y)
    diff = np.sign(y[None, :] - y[:, None])
    S = int(np.triu(diff, 1).sum())
    # tie groups over values
    _, tie_counts = np.unique(y, return_counts=True)
    tie_term = sum(int(t) * (int(t) - 1) * (2 * int(t) + 5)
                   for t in tie_counts if t > 1)
    var_s = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if S > 0:
        z = (S - 1) / math.sqrt(var_s)
    elif S < 0:
        z = (S + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    return pa.table({
        "n_days": pa.array([n], pa.int64()),
        "s_stat": pa.array([S], pa.int64()),
        "z": pa.array([float(round_half_up(z, 4))], pa.float64()),
    })


SQL_EVENTS_MANN_KENDALL = """
WITH daily AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(SUM(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM daily),
ss AS (SELECT CAST(SUM(CASE WHEN b.s > a.s THEN 1
                            WHEN b.s < a.s THEN -1 ELSE 0 END)
               AS BIGINT) AS s
       FROM daily a JOIN daily b ON b.d > a.d),
ties AS (SELECT CAST(COALESCE(SUM(t * (t - 1) * (2 * t + 5)), 0)
                 AS BIGINT) AS tt
         FROM (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM daily
               GROUP BY s HAVING COUNT(*) > 1)),
v AS (SELECT (n.n * (n.n - 1) * (2 * n.n + 5) - ties.tt) / 18.0 AS var_s
      FROM n, ties)
SELECT n.n AS n_days, ss.s AS s_stat,
       ROUND(CASE WHEN ss.s > 0
                  THEN (ss.s - 1) / sqrt(v.var_s)
                  WHEN ss.s < 0
                  THEN (ss.s + 1) / sqrt(v.var_s)
                  ELSE 0.0 END, 4) AS z
FROM n, ss, v
"""


# ---------------------------------------------------------------------------
# Lorenz curve points of daily revenue concentration
# ---------------------------------------------------------------------------


def q_events_lorenz_points(sf_dir: str):
    """Lorenz curve of daily revenue at decile ranks — the curve behind
    the catalog's Gini scalars: L(i) = share of total revenue held by
    the poorest ceil(i*n/10) days.  Cumulative sums and ranks are exact
    integers (ascending (value, day) order pins ties); one division per
    point."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table({"d": pa.array(d, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    g = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["d"], {"s": ("c", "sum")},
    ).to_pandas()
    g = g.sort_values(["s", "d"], ignore_index=True)  # ties -> day asc
    cum = g["s"].to_numpy(np.int64).cumsum()
    n = len(g)
    tot = int(cum[-1])
    rows = []
    for i in range(1, 11):
        r = (i * n + 9) // 10  # ceil
        rows.append((i, r, int(cum[r - 1]),
                     float(round_half_up(int(cum[r - 1]) / tot, 6))))
    return pa.table({
        "decile": pa.array([r[0] for r in rows], pa.int64()),
        "n_days": pa.array([r[1] for r in rows], pa.int64()),
        "cum_cents": pa.array([r[2] for r in rows], pa.int64()),
        "share": pa.array([r[3] for r in rows], pa.float64()),
    })


SQL_EVENTS_LORENZ_POINTS = """
WITH daily AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(SUM(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1),
r AS (SELECT s, ROW_NUMBER() OVER (ORDER BY s, d) AS rn,
             SUM(s) OVER (ORDER BY s, d
                          ROWS UNBOUNDED PRECEDING) AS cum
      FROM daily),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(s) AS BIGINT) AS tot FROM daily),
dec AS (SELECT q.i, ((q.i * n.n) + 9) // 10 AS rk
        FROM (SELECT UNNEST(range(1, 11)) AS i) q, n)
SELECT dec.i AS decile, CAST(dec.rk AS BIGINT) AS n_days,
       CAST(r.cum AS BIGINT) AS cum_cents,
       ROUND(CAST(r.cum AS DOUBLE) / CAST(n.tot AS DOUBLE), 6) AS share
FROM dec JOIN r ON r.rn = dec.rk CROSS JOIN n
ORDER BY dec.i
"""


# ---------------------------------------------------------------------------
# Power-law degree exponent (continuous MLE) of the supplier-part graph
# ---------------------------------------------------------------------------


def q_supplier_degree_alpha(sf_dir: str):
    """Continuous-MLE power-law exponent of the degree distribution
    (Clauset-Shalizi-Newman form with d_min = 2): alpha = 1 +
    n / sum ln(d / (d_min - 1/2)) over degrees >= d_min.  Each log term
    quantizes to integer micro-nats (floor(1e6 * ln(2d / (2*d_min -
    1))), libm ln of a double-exact integer ratio), so the big sum is
    exact and the finish is one mirrored division."""
    from kgray.ops.graph import node_degrees
    from kgray.queries.analytics4 import _part_supplier_edges

    DMIN = 2
    deg = node_degrees(_part_supplier_edges(sf_dir))
    hist = pre_aggregate(
        deg.filter(expr=f"degree >= {DMIN}"),
        ["degree"], {"c": (None, "count")},
    ).to_pandas()  # degree-vocabulary scale
    n = int(hist["c"].sum())
    total = 0
    for d, c in sorted(zip(hist["degree"], hist["c"])):
        term = int(math.floor(1000000.0 * math.log(
            float(2 * int(d)) / float(2 * DMIN - 1))))
        total += int(c) * term
    alpha = 1.0 + float(n) * 1000000.0 / float(total)
    return pa.table({
        "n_nodes": pa.array([n], pa.int64()),
        "log_sum_unats": pa.array([total], pa.int64()),
        "alpha": pa.array([float(round_half_up(alpha, 6))],
                          pa.float64()),
    })


SQL_SUPPLIER_DEGREE_ALPHA = """
WITH e AS (SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS u,
                  CAST(l_partkey + 10000000 AS BIGINT) AS v
           FROM lineitem),
sym AS (SELECT u AS src, v AS dst FROM e UNION ALL SELECT v, u FROM e),
deg AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS d
        FROM sym GROUP BY 1),
k AS (SELECT d, CAST(COUNT(*) AS BIGINT) AS c FROM deg
      WHERE d >= 2 GROUP BY 1),
agg AS (SELECT CAST(SUM(c) AS BIGINT) AS n,
               CAST(SUM(c * CAST(floor(1000000.0 *
                     ln(CAST(2 * d AS DOUBLE) / 3.0)) AS BIGINT))
                AS BIGINT) AS total
        FROM k)
SELECT n AS n_nodes, total AS log_sum_unats,
       ROUND(1.0 + CAST(n AS DOUBLE) * 1000000.0
                   / CAST(total AS DOUBLE), 6) AS alpha
FROM agg
"""


# ---------------------------------------------------------------------------
# Theil T inequality index of daily revenue
# ---------------------------------------------------------------------------


def q_events_theil_index(sf_dir: str):
    """Theil T inequality index of daily revenue — the decomposable
    entropy-based companion to the catalog's Gini/Lorenz: T = (1/n)
    sum (x/mu) ln(x/mu) = [sum x*ln(x*n/X)] / X with X = sum x.  Each
    log term quantizes to integer micro-nats (libm ln of the
    double-exact ratio x*n/X), so the weighted sum is exact; zero days
    contribute zero (lim x->0 of x ln x)."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def days(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table({"d": pa.array(d, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    g = pre_aggregate(
        ev.map_batches(days, batch_format="pyarrow"),
        ["d"], {"s": ("c", "sum")},
    ).to_pandas()
    xs = [int(v) for v in g["s"]]
    n = len(xs)
    X = sum(xs)
    total = 0
    for x in sorted(xs):
        if x > 0:
            total += x * int(math.floor(1000000.0 * math.log(
                float(x * n) / float(X))))
    theil = float(total) / (1000000.0 * float(X))
    return pa.table({
        "n_days": pa.array([n], pa.int64()),
        "weighted_unats": pa.array([total], pa.int64()),
        "theil_t": pa.array([float(round_half_up(theil, 6))],
                            pa.float64()),
    })


SQL_EVENTS_THEIL_INDEX = """
WITH daily AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         CAST(SUM(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1),
tot AS (SELECT CAST(SUM(s) AS BIGINT) AS x,
               CAST(COUNT(*) AS BIGINT) AS n FROM daily),
terms AS (SELECT CASE WHEN s > 0
                 THEN s * CAST(floor(1000000.0 *
                      ln(CAST(s * tot.n AS DOUBLE)
                         / CAST(tot.x AS DOUBLE))) AS BIGINT)
                 ELSE 0 END AS t
          FROM daily, tot),
agg AS (SELECT CAST(SUM(t) AS BIGINT) AS total FROM terms)
SELECT tot.n AS n_days, agg.total AS weighted_unats,
       ROUND(CAST(agg.total AS DOUBLE) / (1000000.0
             * CAST(tot.x AS DOUBLE)), 6) AS theil_t
FROM agg, tot
"""


# ---------------------------------------------------------------------------
# Customer spend-decile migration between the two halves of the window
# ---------------------------------------------------------------------------


def q_customer_decile_migration(sf_dir: str):
    """Spend-decile migration matrix: customers are NTILE(10)-binned by
    total spend in the FIRST and SECOND halves of the order window
    (split at the integer midpoint day) and the (tile_then, tile_now)
    transition counts show churn/upsell mobility.  NTILE's uneven-
    bucket arithmetic is exact integer math on global (spend, custkey)
    ranks (the doclen_ntile decomposition, applied per half); only
    customers active in BOTH halves appear (inner join, matching the
    SQL)."""
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        d = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = round_half_up(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0,
            0).astype(np.int64)
        return pa.table({"o_custkey": batch["o_custkey"],
                         "d": pa.array(d, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    pp = orders.map_batches(prep, batch_format="pyarrow").materialize()
    lo = int(pp.min("d"))
    hi = int(pp.max("d"))
    mid = (lo + hi) // 2  # first half: d <= mid

    def tiles_for(half_expr: str):
        spend = pre_aggregate(
            pp.filter(expr=half_expr), ["o_custkey"],
            {"s": ("c", "sum")},
        ).materialize()
        hist = pre_aggregate(
            spend, ["s"], {"c": (None, "count")},
        ).to_pandas().sort_values("s")
        base = dict(zip(
            hist["s"].to_numpy(),
            np.concatenate([[0],
                            np.cumsum(hist["c"].to_numpy())[:-1]])))
        total = int(hist["c"].sum())
        q, rem = divmod(total, 10)

        def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
            df = df.sort_values(["s", "o_custkey"], kind="mergesort")
            tie = df.groupby("s", sort=False).cumcount().to_numpy()
            r = df["s"].map(base).to_numpy(np.int64) + tie
            cut = rem * (q + 1)
            tile = np.where(
                r < cut, r // max(q + 1, 1) + 1,
                rem + (r - cut) // max(q, 1) + 1)
            return pd.DataFrame({
                "o_custkey": df["o_custkey"].to_numpy(np.int64),
                "tile": tile.astype(np.int64),
            })

        return grouped_map(spend, "s", per_bucket)

    t1 = tiles_for(f"d <= {mid}")
    t2 = tiles_for(f"d > {mid}")
    j = bucket_join(t1, t2, on="o_custkey", how="inner",
                    right_suffix="_now")
    return pre_aggregate(
        j.map_batches(
            lambda b: pa.table({"tile_then": b["tile"],
                                "tile_now": b["tile_now"]}),
            batch_format="pyarrow"),
        ["tile_then", "tile_now"], {"n": (None, "count")},
    )


SQL_CUSTOMER_DECILE_MIGRATION = """
WITH o AS (SELECT o_custkey,
                  CAST(date_diff('day', DATE '1970-01-01',
                                 CAST(o_orderdate AS DATE)) AS BIGINT)
                    AS d,
                  CAST(round(o_totalprice * 100.0) AS BIGINT) AS c
           FROM orders),
mid AS (SELECT (MIN(d) + MAX(d)) // 2 AS m FROM o),
h1 AS (SELECT o_custkey, CAST(SUM(c) AS BIGINT) AS s FROM o, mid
       WHERE d <= mid.m GROUP BY 1),
h2 AS (SELECT o_custkey, CAST(SUM(c) AS BIGINT) AS s FROM o, mid
       WHERE d > mid.m GROUP BY 1),
t1 AS (SELECT o_custkey,
              CAST(NTILE(10) OVER (ORDER BY s, o_custkey) AS BIGINT)
                AS tile
       FROM h1),
t2 AS (SELECT o_custkey,
              CAST(NTILE(10) OVER (ORDER BY s, o_custkey) AS BIGINT)
                AS tile
       FROM h2)
SELECT t1.tile AS tile_then, t2.tile AS tile_now,
       CAST(COUNT(*) AS BIGINT) AS n
FROM t1 JOIN t2 USING (o_custkey)
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Odds ratio with Woolf CI: purchase propensity across user cohorts
# ---------------------------------------------------------------------------


def q_events_odds_ratio(sf_dir: str):
    """Odds ratio of purchasing (vs clicking) between the even and odd
    user-id cohorts, with the Woolf log-normal 95% CI — the 2x2
    epidemiological effect size.  Cell counts are exact integers; ln,
    sqrt and exp appear once each in a term-for-term mirrored final
    tree (libm parity, IEEE sqrt).  A zero cell gives the SQL division
    semantics: odds_ratio NULL when b*c = 0 (else 0.0 when a*d = 0), and
    a NULL CI whenever any cell is 0."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"]).filter(
        expr="event_type == 'click' or event_type == 'purchase'")

    def cells(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        t = batch["event_type"].to_numpy(zero_copy_only=False)
        even = (u % 2) == 0
        purch = t == "purchase"
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "a": pa.array([int((even & purch).sum())], pa.int64()),
            "b": pa.array([int((even & ~purch).sum())], pa.int64()),
            "c": pa.array([int((~even & purch).sum())], pa.int64()),
            "d": pa.array([int((~even & ~purch).sum())], pa.int64()),
        })

    m = pre_aggregate(
        ev.map_batches(cells, batch_format="pyarrow"),
        ["g"], {k: (k, "sum") for k in ("a", "b", "c", "d")},
    ).to_pandas()
    a, b, c, d = (int(m[k].iloc[0]) for k in ("a", "b", "c", "d"))
    orr = lo = hi = None
    if b and c:
        orr = (float(a) * float(d)) / (float(b) * float(c))
    if a and b and c and d:
        se = math.sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d)
        lo = math.exp(math.log(orr) - 1.96 * se)
        hi = math.exp(math.log(orr) + 1.96 * se)

    def r6(x):
        return None if x is None else float(round_half_up(x, 6))

    return pa.table({
        "a": pa.array([a], pa.int64()),
        "b": pa.array([b], pa.int64()),
        "c": pa.array([c], pa.int64()),
        "d": pa.array([d], pa.int64()),
        "odds_ratio": pa.array([r6(orr)], pa.float64()),
        "ci_lo": pa.array([r6(lo)], pa.float64()),
        "ci_hi": pa.array([r6(hi)], pa.float64()),
    })


SQL_EVENTS_ODDS_RATIO = """
WITH cells AS (
  SELECT CAST(SUM(CASE WHEN user_id % 2 = 0
                        AND event_type = 'purchase'
                       THEN 1 ELSE 0 END) AS BIGINT) AS a,
         CAST(SUM(CASE WHEN user_id % 2 = 0
                        AND event_type = 'click'
                       THEN 1 ELSE 0 END) AS BIGINT) AS b,
         CAST(SUM(CASE WHEN user_id % 2 = 1
                        AND event_type = 'purchase'
                       THEN 1 ELSE 0 END) AS BIGINT) AS c,
         CAST(SUM(CASE WHEN user_id % 2 = 1
                        AND event_type = 'click'
                       THEN 1 ELSE 0 END) AS BIGINT) AS d
  FROM events WHERE event_type IN ('click', 'purchase')),
f AS (SELECT a, b, c, d,
             (CAST(a AS DOUBLE) * CAST(d AS DOUBLE))
             / (CAST(b AS DOUBLE) * CAST(c AS DOUBLE)) AS orr,
             sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d) AS se
      FROM cells)
SELECT a, b, c, d,
       ROUND(orr, 6) AS odds_ratio,
       ROUND(exp(ln(NULLIF(orr, 0)) - 1.96 * se), 6) AS ci_lo,
       ROUND(exp(ln(NULLIF(orr, 0)) + 1.96 * se), 6) AS ci_hi
FROM f
"""


# ---------------------------------------------------------------------------
# Cramer's V effect size: event type x day-of-week association
# ---------------------------------------------------------------------------


def q_events_cramers_v(sf_dir: str):
    """Cramer's V effect size of the (event_type x day-of-week)
    association — the bounded [0,1] companion to the catalog's raw chi2
    test.  chi2 accumulates per cell as ((n*o - r*c)^2) / (n*r*c) with
    every operand an exact integer (n-scaled expected counts, no
    fractional expectations), summed in (type, dow) order as an ordered
    float fold in both engines; V = sqrt(chi2 / (n * min(r-1, c-1)))."""
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        return pa.table({"t": batch["event_type"],
                         "w": pa.array(d % 7, pa.int64())})

    ct = pre_aggregate(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["t", "w"], {"n": (None, "count")},
    ).to_pandas()  # (types x 7)-scale
    types = sorted(ct["t"].unique())
    dows = sorted(ct["w"].unique())
    N = int(ct["n"].sum())
    rt = ct.groupby("t")["n"].sum()
    cw = ct.groupby("w")["n"].sum()
    have = {(r["t"], int(r["w"])): int(r["n"])
            for _, r in ct.iterrows()}
    chi2 = 0.0
    for t in types:  # ordered fold: (type, dow) ascending, both engines
        for w in dows:
            o = have.get((t, w), 0)
            r = int(rt[t])
            c = int(cw[w])
            num = (N * o - r * c)
            chi2 = chi2 + float(num * num) / float(N * r * c)
    k = min(len(types) - 1, len(dows) - 1)
    v = math.sqrt(chi2 / float(N * k))
    return pa.table({
        "n": pa.array([N], pa.int64()),
        "chi2": pa.array([float(round_half_up(chi2, 4))], pa.float64()),
        "cramers_v": pa.array([float(round_half_up(v, 6))],
                              pa.float64()),
    })


SQL_EVENTS_CRAMERS_V = """
WITH b AS (SELECT event_type AS t,
                  CAST(date_diff('day', DATE '1970-01-01',
                                 CAST(ts AS DATE)) AS BIGINT) % 7 AS w
           FROM events),
ct AS (SELECT t, w, CAST(COUNT(*) AS BIGINT) AS n FROM b GROUP BY 1, 2),
rt AS (SELECT t, CAST(SUM(n) AS BIGINT) AS r FROM ct GROUP BY 1),
cw AS (SELECT w, CAST(SUM(n) AS BIGINT) AS c FROM ct GROUP BY 1),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS n FROM ct),
kk AS (SELECT CAST(LEAST((SELECT COUNT(*) FROM rt) - 1,
                         (SELECT COUNT(*) FROM cw) - 1) AS BIGINT) AS k),
cells AS (SELECT rt.t, cw.w, rt.r, cw.c,
                 COALESCE(ct.n, 0) AS o
          FROM rt CROSS JOIN cw
          LEFT JOIN ct ON ct.t = rt.t AND ct.w = cw.w),
chi AS (SELECT SUM(
            CAST(CAST(tot.n * o - r * c AS HUGEINT)
                 * (tot.n * o - r * c) AS DOUBLE)
            / CAST(CAST(tot.n AS HUGEINT) * r * c AS DOUBLE)
            ORDER BY t, w) AS chi2
        FROM cells, tot)
SELECT tot.n, ROUND(chi.chi2, 4) AS chi2,
       ROUND(sqrt(chi.chi2 / CAST(tot.n * kk.k AS DOUBLE)), 6)
         AS cramers_v
FROM chi, tot, kk
"""
