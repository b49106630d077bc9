"""kgray.queries.analytics2 — split from the flat catalog; see _common."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from kgray.queries._common import *  # shared prelude (np/pa/pc, joins, aggs, _read)
from kgray.io import read_parquet_clean as _rpqc



def q_bpe_merges(sf_dir: str):
    """BPE tokenizer training over the corpus: ONE distributed
    word-frequency fold, then the classic merge loop on the vocab-scale
    driver table.  Rows-only: the merge loop is iterative (each round's
    pair counts depend on the previous merge), not SQL-expressible; the
    algorithm is pinned by tests/test_curation3.py against the
    hand-worked Sennrich example and a determinism check."""
    from kgray.ops.text import bpe_train

    docs = _read(sf_dir, "documents", ["text"])
    return bpe_train(docs, num_merges=20)


def q_events_outer_activity(sf_dir: str):
    """FULL OUTER join of two sparse per-(user, day) aggregates (click
    counts vs purchase counts) — the join family's outer path, exercised
    where BOTH null sides actually occur.  Each side pre-aggregates on
    the composite (user_id, day) key (combiner first), then ONE
    bucket-cogroup full-outer join on the key TUPLE (bucket_join's
    native multi-key path — no caller-side key concatenation), and a
    stateless 0-fill finish map."""

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def keyed(tp: str):
        def add_key(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["event_type"], tp))
            return pa.table(
                {
                    "user_id": t["user_id"],
                    "day": pc.strftime(t["ts"], "%Y-%m-%d"),
                }
            )

        return ev.map_batches(add_key, batch_format="pyarrow")

    clicks = pre_aggregate(
        keyed("click"), ["user_id", "day"], {"n_click": (None, "count")}
    )
    purchases = pre_aggregate(
        keyed("purchase"), ["user_id", "day"],
        {"n_purchase": (None, "count")},
    )
    joined = bucket_join(
        clicks, purchases, on=["user_id", "day"], how="outer"
    )

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table(
            {
                "user_id": pa.array(
                    df["user_id"].astype(np.int64), pa.int64()
                ),
                "day": pa.array(df["day"], pa.string()),
                "n_click": pa.array(
                    df["n_click"].fillna(0).astype(np.int64), pa.int64()
                ),
                "n_purchase": pa.array(
                    df["n_purchase"].fillna(0).astype(np.int64), pa.int64()
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


SQL_EVENTS_OUTER_ACTIVITY = """
WITH c AS (SELECT user_id, strftime(ts, '%Y-%m-%d') AS day,
                  CAST(COUNT(*) AS BIGINT) AS n_click
           FROM events WHERE event_type = 'click' GROUP BY 1, 2),
p AS (SELECT user_id, strftime(ts, '%Y-%m-%d') AS day,
             CAST(COUNT(*) AS BIGINT) AS n_purchase
      FROM events WHERE event_type = 'purchase' GROUP BY 1, 2)
SELECT COALESCE(c.user_id, p.user_id) AS user_id,
       COALESCE(c.day, p.day) AS day,
       COALESCE(n_click, 0) AS n_click,
       COALESCE(n_purchase, 0) AS n_purchase
FROM c FULL OUTER JOIN p ON c.user_id = p.user_id AND c.day = p.day
"""


def q_tpch_q4(sf_dir: str):
    """TPC-H Q4 shape (order-priority check): EXISTS semi-join of a
    date-pruned orders slice against the big lineitem side.  The
    lineitem predicate filters at the read-adjacent map, the key set
    reduces to distinct orderkeys (semi_join's combiner), and the
    broadcast-vs-bloom-cogroup gate picks the shuffle-free path when
    the surviving key set is dimension-sized.  No commit/receipt dates
    in this corpus: the lineitem EXISTS predicate is l_quantity > 45."""



    orders = _rpqc(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
        filter=(pds.field("o_orderdate") >= datetime.datetime(1995, 7, 1))
        & (pds.field("o_orderdate") < datetime.datetime(1995, 10, 1)),
    )
    hot = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        lambda b: b.filter(pc.greater(b["l_quantity"], 45.0)).select(
            ["l_orderkey"]
        ),
        batch_format="pyarrow",
    )
    kept = semi_join(orders, hot, on="o_orderkey", right_on="l_orderkey")
    return pre_aggregate(
        kept, ["o_orderpriority"], {"n_orders": (None, "count")}
    )


SQL_TPCH_Q4 = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders
WHERE o_orderdate >= DATE '1995-07-01' AND o_orderdate < DATE '1995-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_quantity > 45)
GROUP BY 1
"""


def q_tpch_q13(sf_dir: str):
    """TPC-H Q13 shape (customer order-count distribution): orders fold
    to one row per custkey FIRST (combiner groupby — the shuffle moves
    counts, not orders), then ONE cogroup against the customer keys
    preserves zero-order customers, and the distribution is a second
    tiny fold over at-most-|customer| rows."""

    def order_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("o_custkey").aggregate([([], "count_all")])
        return pa.table(
            {"key": g["o_custkey"], "c": g["count_all"].cast(pa.int64())}
        )

    orders = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        order_partial, batch_format="pyarrow"
    )
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def per_bucket(o: pa.Table, c: pa.Table) -> pd.DataFrame:
        # sum order-count partials per key, left-attach onto the
        # customer keys (zero-order customers keep c_count 0), and fold
        # straight to distribution partials — the whole LEFT JOIN + both
        # GROUP BYs in one pass over the bucket
        sums = o.to_pandas().groupby("key", sort=False)["c"].sum() \
            if o.num_rows else pd.Series([], dtype=np.int64)
        keys = c["c_custkey"].to_pandas() if c.num_rows \
            else pd.Series([], dtype=np.int64)
        dist = keys.map(sums).fillna(0).astype(np.int64).value_counts()
        return pd.DataFrame(
            {"c_count": dist.index.to_numpy(np.int64),
             "custdist": dist.to_numpy(np.int64)}
        )

    partials = cogroup(orders, cust, "key", "c_custkey", per_bucket)
    return pre_aggregate(partials, ["c_count"],
                         {"custdist": ("custdist", "sum")})


SQL_TPCH_Q13 = """
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist FROM (
  SELECT c.c_custkey, CAST(COUNT(o.o_custkey) AS BIGINT) AS c_count
  FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
  GROUP BY 1)
GROUP BY 1
"""


def q_tpch_q14(sf_dir: str):
    """TPC-H Q14 shape (promo revenue share): date-pruned lineitem read,
    part attaches via broadcast (dimension side ships once through the
    object store), and the two conditional revenue sums fold through
    per-batch partials — the driver touches exactly one row."""



    line = _rpqc(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pds.field("l_shipdate") >= datetime.datetime(1995, 9, 1))
        & (pds.field("l_shipdate") < datetime.datetime(1995, 10, 1)),
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])
    joined = broadcast_join(line, part, on="l_partkey",
                            right_on="p_partkey", how="inner")

    def partial(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        promo = pc.if_else(
            pc.equal(batch["p_type"], "PROMO"), rev, pa.scalar(0.0)
        )
        return pa.table(
            {
                "promo_rev": pa.array([pc.sum(promo).as_py() or 0.0]),
                "total_rev": pa.array([pc.sum(rev).as_py() or 0.0]),
            }
        )

    sums = joined.map_batches(partial, batch_format="pyarrow")
    promo = sums.sum("promo_rev") or 0.0
    total = sums.sum("total_rev") or 1.0
    pct = float(round_half_up(np.float64(100.0 * promo / total), 4))
    return pa.table({"promo_revenue": pa.array([pct], pa.float64())})


SQL_TPCH_Q14 = """
SELECT ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO'
                              THEN l_extendedprice * (1 - l_discount)
                              ELSE 0 END)
             / SUM(l_extendedprice * (1 - l_discount)), 4) AS promo_revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'
"""


def q_tpch_q22(sf_dir: str):
    """TPC-H Q22 shape (global-customer dormancy): a scalar subquery
    (avg positive balance — two metadata-scale folds, broadcast by
    closure) gates the customer scan, then an ANTI semi-join drops
    customers holding any urgent order (bloom-prefiltered cogroup on
    the big-big path), and the survivors fold per nation.  The corpus
    has no order-free customers, so the NOT EXISTS probes the
    urgent-priority slice instead of all orders."""

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])
    pos = cust.map_batches(
        lambda b: b.filter(pc.greater(b["c_acctbal"], 0.0)).select(
            ["c_acctbal"]
        ),
        batch_format="pyarrow",
    )
    avg_bal = pos.sum("c_acctbal") / pos.count()

    rich = cust.map_batches(
        lambda b, t=avg_bal: b.filter(pc.greater(b["c_acctbal"], t)),
        batch_format="pyarrow",
    )
    urgent = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]) \
        .map_batches(
            lambda b: b.filter(
                pc.equal(b["o_orderpriority"], "1-URGENT")
            ).select(["o_custkey"]),
            batch_format="pyarrow",
        )
    dormant = semi_join(rich, urgent, on="c_custkey", right_on="o_custkey",
                        anti=True)
    agg = pre_aggregate(
        dormant,
        ["c_nationkey"],
        {"numcust": (None, "count"), "totacctbal": ("c_acctbal", "sum")},
    )
    return _round_col(agg, "totacctbal", 2)


SQL_TPCH_Q22 = """
SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS numcust,
       ROUND(SUM(c_acctbal), 2) AS totacctbal
FROM customer c
WHERE c_acctbal > (SELECT SUM(c_acctbal) / COUNT(*) FROM customer
                   WHERE c_acctbal > 0.0)
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderpriority = '1-URGENT')
GROUP BY 1
"""


def q_events_conversion_lag(sf_dir: str):
    """First-view -> first-subsequent-purchase lag per user: every row
    of a user lands in one coarse bucket (ONE cogroup shuffle), then the
    two mask+groupby-min passes and the subtraction run vectorized per
    bucket.  Integer microsecond arithmetic end-to-end — bit-exact vs
    the SQL epoch_us oracle."""

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        fv = (
            df[df["event_type"] == "view"]
            .groupby("user_id")["ts"].min().rename("fv")
        )
        p = df[df["event_type"] == "purchase"].merge(
            fv, left_on="user_id", right_index=True
        )
        p = p[p["ts"] >= p["fv"]]
        fp = p.groupby("user_id")["ts"].min()
        lag = (
            fp.to_numpy("datetime64[us]").astype(np.int64)
            - fv.loc[fp.index].to_numpy("datetime64[us]").astype(np.int64)
        )
        return pd.DataFrame(
            {
                "user_id": fp.index.to_numpy(np.int64),
                "lag_us": lag,
            }
        )

    return grouped_map(ev, "user_id", per_bucket)


SQL_EVENTS_CONVERSION_LAG = """
WITH f AS (SELECT user_id, MIN(ts) AS fv FROM events
           WHERE event_type = 'view' GROUP BY 1),
p AS (SELECT e.user_id, MIN(e.ts) AS fp
      FROM events e JOIN f USING (user_id)
      WHERE e.event_type = 'purchase' AND e.ts >= f.fv GROUP BY 1)
SELECT p.user_id, CAST(epoch_us(fp) - epoch_us(fv) AS BIGINT) AS lag_us
FROM p JOIN f USING (user_id)
"""


def q_events_moving_avg(sf_dir: str):
    """Bounded-ROWS-frame window (AVG OVER ... ROWS 2 PRECEDING): user
    cogroup, per-bucket mergesort on (user, ts, event_id) — the tiebreak
    pins the frame deterministically — then the 3-row trailing mean via
    two in-user shifts.  Summed in FRAME ORDER (oldest first) so the
    float additions associate exactly like the window engine's running
    sum; round_half_up(4) on both sides."""

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        )
        v = df["value"].to_numpy(np.float64)
        pos = df.groupby("user_id", sort=False).cumcount().to_numpy()
        v1 = np.empty_like(v)
        v2 = np.empty_like(v)
        v1[1:], v1[:1] = v[:-1], 0.0
        v2[2:], v2[:2] = v[:-2], 0.0
        v1[pos < 1] = 0.0
        v2[pos < 2] = 0.0
        n = np.minimum(pos + 1, 3).astype(np.float64)
        mov = ((v2 + v1) + v) / n
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(np.int64),
                "mov_avg": round_half_up(mov, 4),
            }
        )

    return grouped_map(ev, "user_id", per_bucket)


SQL_EVENTS_MOVING_AVG = """
SELECT event_id,
       ROUND(AVG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW),
             4) AS mov_avg
FROM events
"""


def q_bigram_diff(sf_dir: str):
    """Distributed set difference over n-grams: bigrams of the 'en'
    slice absent from the 'zh' slice, with occurrence counts.  Both
    sides explode vectorized (the shift-pair trick, no per-row python),
    the en side folds through the combiner groupby so the anti-join
    probes distinct grams (not occurrences), and semi_join's
    broadcast/bloom gate picks the shuffle-free path for the small
    distinct-gram set."""
    from kgray.ops.text import _explode_bigrams

    docs = _read(sf_dir, "documents", ["lang", "text"])

    def grams(lang: str):
        def apply(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["lang"], lang))
            _, _, g, _, _ = _explode_bigrams(t["text"].to_pylist())
            return pa.table({"bg": pa.array(g.tolist(), pa.string())})

        return docs.map_batches(apply, batch_format="pyarrow")

    en = pre_aggregate(grams("en"), ["bg"], {"n": (None, "count")})
    return semi_join(en, grams("zh"), on="bg", anti=True)


SQL_BIGRAM_DIFF = """
WITH t AS (SELECT lang, string_split(text, ' ') AS toks FROM documents),
g AS (SELECT lang, toks[i] || ' ' || toks[i + 1] AS bg
      FROM (SELECT lang, toks, UNNEST(range(1, len(toks))) AS i FROM t)),
zh AS (SELECT DISTINCT bg FROM g WHERE lang = 'zh')
SELECT bg, CAST(COUNT(*) AS BIGINT) AS n FROM g
WHERE lang = 'en' AND bg NOT IN (SELECT bg FROM zh)
GROUP BY 1
"""


def q_quality_rules(sf_dir: str):
    """Composite Gopher-style quality gate: per-doc token count, mean
    word length and top-word fraction computed in ONE stateless pass
    (exploded-token pandas groupby per batch), each rule's fail count
    pre-summed per batch, folded by a 3-row groupby.  All three
    thresholds compare UNROUNDED integer-ratio doubles — division of
    the same integers is bit-identical in numpy and DuckDB, so the
    gate decisions match exactly."""

    docs = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        tok_lists = [t.split(" ") for t in texts]
        n = np.fromiter(
            (len(t) for t in tok_lists), np.int64, len(tok_lists)
        )
        ch = np.fromiter((len(t) for t in texts), np.int64, len(texts))
        flat = pd.DataFrame(
            {
                "i": np.repeat(np.arange(len(texts), dtype=np.int64), n),
                "tok": np.concatenate(
                    [np.asarray(t, object) for t in tok_lists]
                ) if tok_lists else np.array([], object),
            }
        )
        tf = flat.groupby(["i", "tok"], sort=False).size()
        maxc = (
            tf.groupby(level="i").max()
            .reindex(np.arange(len(texts)), fill_value=0)
            .to_numpy(np.int64)
        )
        mean_wl = (ch - (n - 1)) / n
        top = maxc / n
        fails = np.array(
            [
                int((n < 50).sum()),
                int(((mean_wl < 3.0) | (mean_wl > 10.0)).sum()),
                int((top > 0.2).sum()),
            ],
            np.int64,
        )
        return pa.table(
            {
                "rule": pa.array(
                    ["too_short", "word_len", "repetitive"], pa.string()
                ),
                "n_fail": pa.array(fails),
            }
        )

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("rule")
        .aggregate(Sum("n_fail", alias_name="n_fail"))
    )


SQL_QUALITY_RULES = """
WITH w AS (SELECT doc_id, UNNEST(string_split(text, ' ')) AS tok
           FROM documents),
tf AS (SELECT doc_id, tok, COUNT(*) AS c FROM w GROUP BY 1, 2),
mx AS (SELECT doc_id, MAX(c) AS maxc, CAST(SUM(c) AS BIGINT) AS n
       FROM tf GROUP BY 1),
m AS (SELECT mx.n, len(d.text) AS ch, mx.maxc
      FROM documents d JOIN mx USING (doc_id))
SELECT 'too_short' AS rule,
       CAST(COUNT(*) FILTER (WHERE n < 50) AS BIGINT) AS n_fail FROM m
UNION ALL
SELECT 'word_len',
       CAST(COUNT(*) FILTER (
         WHERE (ch - (n - 1)) / CAST(n AS DOUBLE) < 3.0
            OR (ch - (n - 1)) / CAST(n AS DOUBLE) > 10.0) AS BIGINT) FROM m
UNION ALL
SELECT 'repetitive',
       CAST(COUNT(*) FILTER (
         WHERE CAST(maxc AS DOUBLE) / n > 0.2) AS BIGINT) FROM m
"""


def q_basket_pairs(sf_dir: str):
    """Market-basket pair mining (co-purchase support): all rows of an
    order land in one coarse bucket (ONE cogroup shuffle), the
    within-order pair expansion is a vectorized pandas self-merge per
    bucket (baskets average ~4 items, so the blowup is bounded by
    max-basket-size squared, not bucket size), pair partials fold
    through the combiner groupby, and the top-20 by support takes the
    global sort on the already-tiny distinct-pair table."""

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        out = (
            m.groupby(["l_partkey_x", "l_partkey_y"], sort=False)
            .size().rename("n").reset_index()
        )
        return out.rename(columns={"l_partkey_x": "p1",
                                   "l_partkey_y": "p2"})

    pairs = grouped_map(line, "l_orderkey", per_bucket)

    # pair keys are near-unique (most supports are 1), so a row-level
    # groupby.aggregate fold can't compress — the Q18 lesson.  Instead
    # cogroup on p1 (a pair lives entirely in one bucket), fold AND
    # take the local top-20 there, and globally sort only B x 20 rows.
    def fold_topk(df: pd.DataFrame) -> pd.DataFrame:
        c = (
            df.groupby(["p1", "p2"], sort=False)["n"].sum()
            .rename("n_orders").reset_index()
        )
        return c.sort_values(
            ["n_orders", "p1", "p2"], ascending=[False, True, True],
            kind="mergesort",
        ).head(20)

    top = grouped_map(pairs, "p1", fold_topk)
    return top.sort(
        ["n_orders", "p1", "p2"], descending=[True, False, False]
    ).limit(20)


SQL_BASKET_PAIRS = """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
p AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2
      FROM d a JOIN d b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
s AS (SELECT p1, p2, CAST(COUNT(*) AS BIGINT) AS n_orders
      FROM p GROUP BY 1, 2)
SELECT p1, p2, n_orders FROM (
  SELECT *, ROW_NUMBER() OVER (ORDER BY n_orders DESC, p1, p2) AS r
  FROM s)
WHERE r <= 20
"""


def q_events_decay_sum(sf_dir: str):
    """Recency-weighted (exponential time-decay) per-user value sum —
    the freshness-scoring aggregate.  Day deltas are exact integers, the
    decay weight is memoized C-libm math.exp over the <=1000 distinct
    deltas (numpy's vectorized exp drifts one ulp off DuckDB's
    std::exp, same story as the tf-idf ln), and the weighted values
    fold through the combiner groupby."""


    anchor = np.datetime64("2024-03-01")
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def weight(batch: pa.Table) -> pa.Table:
        days = (
            anchor - batch["ts"].to_numpy().astype("datetime64[D]")
        ).astype(np.int64)
        uniq, inv = np.unique(days, return_inverse=True)
        w = np.array([math.exp(-d / 7.0) for d in uniq], np.float64)[inv]
        return pa.table(
            {
                "user_id": batch["user_id"],
                "wv": pa.array(
                    batch["value"].to_numpy() * w, pa.float64()
                ),
            }
        )

    ds = pre_aggregate(
        ev.map_batches(weight, batch_format="pyarrow"),
        ["user_id"],
        {"decay_sum": ("wv", "sum")},
    )
    return _round_col(ds, "decay_sum", 4)


SQL_EVENTS_DECAY_SUM = """
SELECT user_id,
       ROUND(SUM(value * exp(-CAST(date_diff('day', CAST(ts AS DATE),
                                   DATE '2024-03-01') AS DOUBLE) / 7.0)),
             4) AS decay_sum
FROM events GROUP BY 1
"""


def q_doclen_ntile(sf_dir: str):
    """Distributed NTILE(4) over a global (n_chars, doc_id) order — the
    equal-frequency binning window.  Global rank decomposes into a
    value-histogram base (combiner fold over distinct n_chars — a
    metadata-scale table broadcast by closure) plus an in-value tie
    rank from ONE n_chars-keyed cogroup; the NTILE uneven-bucket
    arithmetic is exact integer math on the rank."""

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    hist = (
        pre_aggregate(docs, ["n_chars"], {"c": (None, "count")})
        .to_pandas().sort_values("n_chars")
    )
    base = dict(
        zip(
            hist["n_chars"].to_numpy(),
            np.concatenate([[0], np.cumsum(hist["c"].to_numpy())[:-1]]),
        )
    )
    total = int(hist["c"].sum())
    k = 4
    q, rem = divmod(total, k)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_chars", "doc_id"], kind="mergesort")
        tie = df.groupby("n_chars", sort=False).cumcount().to_numpy()
        r = df["n_chars"].map(base).to_numpy(np.int64) + tie
        cut = rem * (q + 1)
        tile = np.where(
            r < cut, r // max(q + 1, 1) + 1, rem + (r - cut) // max(q, 1) + 1
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "tile": tile.astype(np.int64),
            }
        )

    return grouped_map(docs, "n_chars", per_bucket)


SQL_DOCLEN_NTILE = """
SELECT doc_id,
       CAST(NTILE(4) OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS tile
FROM documents
"""


def _copurchase_pairs(sf_dir: str):
    """Shared building block: user pairs purchasing in the same hour at
    least twice (see q_users_copurchase for the dataflow notes)."""

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def hour_user(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "purchase"))
        return pa.table(
            {
                "hr": pc.strftime(t["ts"], "%Y-%m-%d %H"),
                "user_id": t["user_id"],
            }
        )

    hu = pre_aggregate(
        ev.map_batches(hour_user, batch_format="pyarrow"),
        ["hr", "user_id"],
        {"c": (None, "count")},
    )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df[["hr", "user_id"]]
        m = d.merge(d, on="hr")
        m = m[m["user_id_x"] < m["user_id_y"]]
        out = (
            m.groupby(["user_id_x", "user_id_y"], sort=False)
            .size().rename("n").reset_index()
        )
        return out.rename(columns={"user_id_x": "u1", "user_id_y": "u2"})

    partial = grouped_map(hu, "hr", pairs)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        c = (
            df.groupby(["u1", "u2"], sort=False)["n"].sum()
            .rename("n_hours").reset_index()
        )
        return c[c["n_hours"] >= 2]

    return grouped_map(partial, "u1", fold)


def q_users_copurchase(sf_dir: str):
    """Co-occurrence similarity join: user pairs purchasing in the same
    hour at least twice.  Distinct (hour, user) pairs fold per batch
    first, the hour cogroup expands pairs with a vectorized self-merge
    (hour cohorts are bounded, so the quadratic stays local), and the
    near-unique pair keys fold inside a u1-keyed cogroup (the Q18
    lesson: a row-level groupby can't compress unique keys) with the
    support filter applied in-bucket."""
    return _copurchase_pairs(sf_dir)


SQL_USERS_COPURCHASE = """
WITH p AS (SELECT DISTINCT strftime(ts, '%Y-%m-%d %H') AS hr, user_id
           FROM events WHERE event_type = 'purchase')
SELECT a.user_id AS u1, b.user_id AS u2,
       CAST(COUNT(*) AS BIGINT) AS n_hours
FROM p a JOIN p b ON a.hr = b.hr AND a.user_id < b.user_id
GROUP BY 1, 2 HAVING COUNT(*) >= 2
"""


def q_orders_upsert(sf_dir: str):
    """SCD-1 upsert / compaction merge: a deterministic delta (updates
    for keys %10, inserts shifted by 1e6 for keys %17) unions with the
    base and latest-version-per-key wins inside ONE key cogroup — the
    lakehouse MERGE INTO shape.  No driver materialization: the delta
    derives per batch from the same pruned read."""

    base = _read(sf_dir, "orders",
                 ["o_orderkey", "o_totalprice", "o_orderstatus"])

    def tag_base(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "v", pa.array(np.zeros(len(batch), np.int64))
        )

    def make_delta(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy()
        price = batch["o_totalprice"].to_numpy()
        ins = k % 17 == 0
        upd = k % 10 == 0
        return pa.table(
            {
                "o_orderkey": np.concatenate([k[ins] + 1_000_000, k[upd]]),
                "o_totalprice": np.concatenate(
                    [price[ins], price[upd] + 100.0]
                ),
                "o_orderstatus": pa.array(
                    ["N"] * int(ins.sum()) + ["U"] * int(upd.sum()),
                    pa.string(),
                ),
                "v": np.ones(int(ins.sum()) + int(upd.sum()), np.int64),
            }
        )

    merged = base.map_batches(tag_base, batch_format="pyarrow").union(
        base.map_batches(make_delta, batch_format="pyarrow")
    )

    def latest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_orderkey", "v"], kind="mergesort")
        keep = df.groupby("o_orderkey", sort=False).tail(1)
        return pd.DataFrame(
            {
                "o_orderkey": keep["o_orderkey"].to_numpy(np.int64),
                "o_totalprice": round_half_up(
                    keep["o_totalprice"].to_numpy(np.float64), 2
                ),
                "o_orderstatus": keep["o_orderstatus"].to_numpy(),
            }
        )

    return grouped_map(merged, "o_orderkey", latest)


SQL_ORDERS_UPSERT = """
WITH delta AS (
  SELECT o_orderkey + 1000000 AS o_orderkey, o_totalprice,
         'N' AS o_orderstatus, 1 AS v
  FROM orders WHERE o_orderkey % 17 = 0
  UNION ALL
  SELECT o_orderkey, o_totalprice + 100, 'U', 1
  FROM orders WHERE o_orderkey % 10 = 0),
all_rows AS (
  SELECT o_orderkey, o_totalprice, o_orderstatus, 0 AS v FROM orders
  UNION ALL SELECT * FROM delta)
SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice, o_orderstatus
FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY o_orderkey
                                   ORDER BY v DESC) AS r
      FROM all_rows)
WHERE r = 1
"""


def q_events_out_of_order(sf_dir: str):
    """Late-data audit (streaming watermark health): per user, how many
    events arrived (in event_id order) with a timestamp behind the
    running max — a shifted cumulative-max window computed vectorized
    per user bucket on exact integer microseconds."""

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        g = df.assign(_ts=ts).groupby("user_id", sort=False)
        prev = g["_ts"].cummax().shift(1).to_numpy()
        first = g.cumcount().to_numpy() == 0
        late = ~first & (ts < np.where(first, ts, prev))
        out = (
            pd.DataFrame({"user_id": df["user_id"].to_numpy(), "l": late})
            .groupby("user_id", sort=False)["l"].sum()
        )
        return pd.DataFrame(
            {
                "user_id": out.index.to_numpy(np.int64),
                "n_late": out.to_numpy(np.int64),
            }
        )

    return grouped_map(ev, "user_id", per_bucket)


SQL_EVENTS_OUT_OF_ORDER = """
SELECT user_id, CAST(COUNT(*) FILTER (WHERE ts < mx) AS BIGINT) AS n_late
FROM (SELECT user_id, ts,
             MAX(ts) OVER (PARTITION BY user_id ORDER BY event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING) AS mx
      FROM events)
GROUP BY 1
"""


def q_top_supplier_per_nation(sf_dir: str):
    """Argmax-with-row-recovery (TPC-H Q2's core shape): per-group max
    folds through the combiner to a nation-sized table (broadcast by
    closure), the winning rows filter shuffle-free inside map_batches
    (float equality on UNTOUCHED values — no arithmetic, so bit-exact),
    and the min-suppkey tiebreak is a second metadata-scale fold."""

    sup = _read(sf_dir, "supplier",
                ["s_suppkey", "s_name", "s_nationkey", "s_acctbal"])
    mx = pre_aggregate(
        sup, ["s_nationkey"], {"mx": ("s_acctbal", "max")}
    ).to_pandas()
    mx_of = dict(zip(mx["s_nationkey"].tolist(), mx["mx"].tolist()))

    def winners(batch: pa.Table) -> pa.Table:
        nat = batch["s_nationkey"].to_numpy()
        bal = batch["s_acctbal"].to_numpy()
        keep = bal == np.array([mx_of[n] for n in nat], np.float64)
        return batch.filter(pa.array(keep))

    won = sup.map_batches(winners, batch_format="pyarrow")
    tie = pre_aggregate(
        won, ["s_nationkey"], {"s_suppkey": ("s_suppkey", "min")}
    ).to_pandas()
    pick = set(tie["s_suppkey"].tolist())

    final = sup.map_batches(
        lambda b: b.filter(
            pc.is_in(b["s_suppkey"], value_set=pa.array(sorted(pick)))
        ),
        batch_format="pyarrow",
    )
    return _round_col(final, "s_acctbal", 2)


SQL_TOP_SUPPLIER_PER_NATION = """
SELECT s_suppkey, s_name, s_nationkey, ROUND(s_acctbal, 2) AS s_acctbal
FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY s_nationkey
                                   ORDER BY s_acctbal DESC, s_suppkey)
        AS r
      FROM supplier)
WHERE r = 1
"""


def q_user_type_profile(sf_dir: str):
    """Ordered STRING_AGG feature assembly: per user, event types joined
    by frequency rank (count desc, name asc).  Counts fold through the
    combiner on the composite key, then ONE user cogroup assembles the
    profile strings — the string join runs over the tiny per-user
    ranked lists, not the raw events."""

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    counts = pre_aggregate(
        ev, ["user_id", "event_type"], {"c": (None, "count")}
    )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["user_id", "c", "event_type"],
            ascending=[True, False, True], kind="mergesort",
        )
        prof = df.groupby("user_id", sort=False)["event_type"].agg(
            ",".join
        )
        return pd.DataFrame(
            {
                "user_id": prof.index.to_numpy(np.int64),
                "profile": prof.to_numpy(),
            }
        )

    return grouped_map(counts, "user_id", per_bucket)


SQL_USER_TYPE_PROFILE = """
WITH t AS (SELECT user_id, event_type, COUNT(*) AS c FROM events
           GROUP BY 1, 2)
SELECT user_id,
       STRING_AGG(event_type, ',' ORDER BY c DESC, event_type) AS profile
FROM t GROUP BY 1
"""


def q_events_distinct_bitmap(sf_dir: str):
    """Exact distinct count via BITMAP OR-fold (the roaring-bitmap
    mechanism): each batch packs its distinct (type, user-chunk) ids
    into 8 KB bit words, the shuffle moves only the nonzero chunks
    (bounded by id-domain/65536 per type, not by row count), the
    chunk cogroup ORs and popcounts, and a final metadata-scale fold
    sums per type.  The scale alternative to a raw COUNT DISTINCT
    shuffle when ids are dense integers."""

    CHUNK_BITS = 16
    WORDS = (1 << CHUNK_BITS) >> 6

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "t": batch["event_type"].to_numpy(zero_copy_only=False),
                "u": batch["user_id"].to_numpy(),
            }
        ).drop_duplicates()
        df["chunk"] = df["u"].to_numpy() >> CHUNK_BITS
        tcs, types, bms = [], [], []
        for (t, ch), g in df.groupby(["t", "chunk"], sort=False):
            words = np.zeros(WORDS, np.uint64)
            off = (
                g["u"].to_numpy() & ((1 << CHUNK_BITS) - 1)
            ).astype(np.uint64)
            np.bitwise_or.at(
                words, (off >> np.uint64(6)).astype(np.int64),
                np.uint64(1) << (off & np.uint64(63)),
            )
            tcs.append(f"{t}:{ch}")
            types.append(t)
            bms.append(words.tobytes())
        return pa.table(
            {
                "tc": pa.array(tcs, pa.string()),
                "event_type": pa.array(types, pa.string()),
                "bm": pa.array(bms, pa.binary()),
            }
        )

    parts = ev.map_batches(partial, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        out_t, out_n = [], []
        for tc, g in df.groupby("tc", sort=False):
            acc = np.zeros(WORDS, np.uint64)
            for b in g["bm"]:
                acc |= np.frombuffer(b, np.uint64)
            n = int(np.unpackbits(acc.view(np.uint8)).sum())
            out_t.append(g["event_type"].iloc[0])
            out_n.append(n)
        return pd.DataFrame(
            {
                "event_type": out_t,
                "n_users": np.array(out_n, np.int64),
            }
        )

    partial_counts = grouped_map(parts, "tc", fold)
    return pre_aggregate(
        partial_counts, ["event_type"], {"n_users": ("n_users", "sum")}
    )


SQL_EVENTS_DISTINCT_BITMAP = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1
"""


def _skyline2d(df: pd.DataFrame) -> pd.DataFrame:
    """2-D Pareto frontier (minimize p_retailprice, maximize p_size)
    with NOT-EXISTS strict-domination semantics: duplicates of a
    frontier cell all survive.  Sort by (price asc, size desc); a row
    survives iff its size equals its price-group max AND strictly
    exceeds the running max over cheaper prices."""
    if not len(df):
        return df
    df = df.sort_values(["p_retailprice", "p_size"],
                        ascending=[True, False], kind="mergesort")
    size = df["p_size"].to_numpy(np.int64)
    grp_max = df.groupby("p_retailprice", sort=False)["p_size"].transform(
        "max"
    ).to_numpy(np.int64)
    # best size among strictly-cheaper price groups: cummax of the
    # per-group maxima, shifted by one group
    gm = df.groupby("p_retailprice", sort=False)["p_size"].max()
    gcum = np.concatenate(
        [[np.iinfo(np.int64).min],
         np.maximum.accumulate(gm.to_numpy(np.int64))[:-1]]
    )
    prev_best = df["p_retailprice"].map(
        dict(zip(gm.index.to_numpy(), gcum))
    ).to_numpy(np.int64)
    keep = (size == grp_max) & (size > prev_best)
    return df[keep]


def q_pareto_parts(sf_dir: str):
    """Distributed Pareto skyline (cheapest-per-size frontier): each
    block computes its LOCAL skyline (any global frontier point is
    locally non-dominated, so local filtering is lossless), survivors
    are frontier-sized (O(log n) expected for independent dims), and
    the exact global skyline runs once over that tiny union."""
    parts = _read(sf_dir, "part",
                  ["p_partkey", "p_retailprice", "p_size"])
    local = parts.map_batches(
        lambda b: pa.Table.from_pandas(
            _skyline2d(b.to_pandas()), preserve_index=False
        ),
        batch_format="pyarrow",
    )
    survivors = local.to_pandas()
    out = _skyline2d(survivors).sort_values("p_partkey")

    return pa.table(
        {
            "p_partkey": pa.array(out["p_partkey"].to_numpy(np.int64)),
            "p_retailprice": pa.array(
                round_half_up(out["p_retailprice"].to_numpy(np.float64), 2)
            ),
            "p_size": pa.array(out["p_size"].to_numpy(np.int32),
                               pa.int32()),
        }
    )


SQL_PARETO_PARTS = """
SELECT p_partkey, ROUND(p_retailprice, 2) AS p_retailprice, p_size
FROM part p
WHERE NOT EXISTS (
  SELECT 1 FROM part q
  WHERE q.p_retailprice <= p.p_retailprice AND q.p_size >= p.p_size
    AND (q.p_retailprice < p.p_retailprice OR q.p_size > p.p_size))
"""


def q_events_adoption(sf_dir: str):
    """Expanding-distinct window (feature-adoption curve): per active
    (user, day), how many distinct event types the user has seen so
    far.  First-occurrence days and active days both reduce inside one
    user cogroup; the cumulative count attaches with a vectorized
    per-bucket merge_asof — no inequality join ships over the wire."""

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            d=df["ts"].to_numpy("datetime64[us]").astype("datetime64[D]")
        )
        first = (
            df.groupby(["user_id", "event_type"], sort=False)["d"].min()
            .reset_index().sort_values(["user_id", "d"], kind="mergesort")
        )
        first["n_types"] = (
            first.groupby("user_id", sort=False).cumcount() + 1
        )
        # a user can adopt several types the same day: keep the day's max
        cum = (
            first.groupby(["user_id", "d"], sort=False)["n_types"].max()
            .reset_index()
        )
        days = (
            df[["user_id", "d"]].drop_duplicates()
            .sort_values("d", kind="mergesort")
        )
        merged = pd.merge_asof(
            days, cum.sort_values("d", kind="mergesort"),
            on="d", by="user_id", direction="backward",
        )
        return pd.DataFrame(
            {
                "user_id": merged["user_id"].to_numpy(np.int64),
                "day": merged["d"].dt.strftime("%Y-%m-%d").to_numpy(),
                "n_types": merged["n_types"].to_numpy(np.int64),
            }
        )

    return grouped_map(ev, "user_id", per_bucket)


SQL_EVENTS_ADOPTION = """
WITH f AS (SELECT user_id, event_type, MIN(CAST(ts AS DATE)) AS d
           FROM events GROUP BY 1, 2),
days AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS d FROM events)
SELECT days.user_id, strftime(days.d, '%Y-%m-%d') AS day,
       CAST(COUNT(*) AS BIGINT) AS n_types
FROM days JOIN f ON f.user_id = days.user_id AND f.d <= days.d
GROUP BY 1, 2
"""


def q_events_attribution(sf_dir: str):
    """Last-touch attribution: each purchase credits the user's latest
    prior click WITHIN ONE DAY (the as-of cogroup + an exact integer-us
    tolerance filter), revenue then folds per attributed click hour.
    Hour-grain output is tie-insensitive: simultaneous clicks share the
    timestamp, so whichever the as-of picks, the credited hour and the
    summed value are identical."""

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type", "value"])

    def side(event_type, cols):
        def f(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["event_type"], event_type))
            return pa.table({out: t[src] for src, out in cols})

        return ev.map_batches(f, batch_format="pyarrow")

    purchases = side("purchase", [("user_id", "user_id"), ("ts", "ts"),
                                  ("value", "value")])
    clicks = side("click", [("user_id", "user_id"), ("ts", "cts")])
    joined = asof_join(purchases, clicks, key="user_id", time_col="ts",
                       right_time_col="cts")

    def window(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["cts"].notna()]
        gap = (
            df["ts"].to_numpy("datetime64[us]").astype(np.int64)
            - df["cts"].to_numpy("datetime64[us]").astype(np.int64)
        )
        df = df[gap <= 86_400_000_000]
        return pa.table(
            {
                "hour": pa.array(
                    df["cts"].dt.strftime("%Y-%m-%d %H").to_numpy(),
                    pa.string(),
                ),
                "value": pa.array(df["value"].to_numpy(np.float64)),
            }
        )

    agg = pre_aggregate(
        joined.map_batches(window, batch_format="pyarrow"),
        ["hour"],
        {"n_purchases": (None, "count"),
         "attributed_value": ("value", "sum")},
    )
    return _round_col(agg, "attributed_value", 4)


SQL_EVENTS_ATTRIBUTION = """
WITH cl AS (SELECT user_id, ts AS cts FROM events
            WHERE event_type = 'click'),
pu AS (SELECT user_id, ts AS pts, value FROM events
       WHERE event_type = 'purchase'),
m AS (SELECT pu.value, cl.cts
      FROM pu ASOF JOIN cl
        ON pu.user_id = cl.user_id AND pu.pts >= cl.cts
      WHERE epoch_us(pu.pts) - epoch_us(cl.cts) <= 86400000000)
SELECT strftime(cts, '%Y-%m-%d %H') AS hour,
       CAST(COUNT(*) AS BIGINT) AS n_purchases,
       ROUND(SUM(value), 4) AS attributed_value
FROM m GROUP BY 1
"""


def q_embed_drift(sf_dir: str):
    """Vector-window drift: cosine similarity of each embedding to its
    predecessor (vec_id - 1) — the sequence-drift monitor for embedding
    pipelines.  The predecessor attaches via ONE bucket cogroup on a
    shifted key (vec_id == prev + 1); the cosine is a float64 row-wise
    kernel over the two list columns, rounded 4 like the knn oracles."""

    W = 4096  # id-range block: a pair (i-1, i) always shares a block

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def tag(batch: pa.Table) -> pa.Table:
        # Arrow's in-bucket join rejects list payload columns, so the
        # predecessor meets its successor by RANGE-bucketing vec_id//W
        # and duplicating each block's first id (vid % W == 0) into the
        # previous block — every consecutive pair co-locates exactly once
        vid = batch["vec_id"].to_numpy()
        extra = np.nonzero(vid % W == 0)[0]
        idx = np.concatenate([np.arange(len(vid)), extra])
        out = batch.take(pa.array(idx, pa.int64()))
        blk = np.concatenate([vid // W, vid[extra] // W - 1])
        return out.append_column("blk", pa.array(blk, pa.int64()))

    tagged = emb.map_batches(tag, batch_format="pyarrow")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["blk", "vec_id"], kind="mergesort")
        vid = df["vec_id"].to_numpy(np.int64)
        blk = df["blk"].to_numpy(np.int64)
        if not len(df):
            return pd.DataFrame({"vec_id": vid, "cos": np.array([])})
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        pair = np.zeros(len(df), bool)
        pair[1:] = (blk[1:] == blk[:-1]) & (vid[1:] == vid[:-1] + 1)
        a, b = m[pair], m[np.roll(pair, -1)]
        num = (a * b).sum(axis=1)
        den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        c = num / np.where(den == 0, 1, den)
        return pd.DataFrame(
            {"vec_id": vid[pair], "cos": round_half_up(c, 4)}
        )

    return grouped_map(tagged, "blk", per_bucket)


SQL_EMBED_DRIFT = """
SELECT a.vec_id,
       ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])),
             4) AS cos
FROM embeddings a JOIN embeddings b ON b.vec_id = a.vec_id - 1
"""


def q_part_name_fuzzy_pairs(sf_dir: str):
    """Blocked fuzzy self-join (entity-resolution shape): the corpus
    first collapses to its DISTINCT name vocabulary (combiner fold —
    the scale step: candidate generation runs on names, never rows),
    blocks on the trailing token, and the in-block pair expansion is
    filtered by the VECTORIZED Levenshtein DP (ops/fuzzy.py) at
    distance <= 2.  The blocking key is part of the op's contract and
    appears in the oracle too."""
    from kgray.ops.fuzzy import levenshtein_batch

    names = pre_aggregate(
        _read(sf_dir, "part", ["p_name"]), ["p_name"],
        {"c": (None, "count")},
    )

    def add_block(batch: pa.Table) -> pa.Table:
        nm = batch["p_name"].to_pylist()
        return pa.table(
            {
                "p_name": batch["p_name"],
                "blk": pa.array(
                    [s.rsplit(" ", 1)[-1] for s in nm], pa.string()
                ),
            }
        )

    blocked = names.map_batches(add_block, batch_format="pyarrow")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df[["blk", "p_name"]]
        m = d.merge(d, on="blk")
        m = m[m["p_name_x"] < m["p_name_y"]]
        dist = levenshtein_batch(
            m["p_name_x"].tolist(), m["p_name_y"].tolist()
        )
        keep = dist <= 2
        return pd.DataFrame(
            {
                "name_a": m["p_name_x"].to_numpy()[keep],
                "name_b": m["p_name_y"].to_numpy()[keep],
                "dist": dist[keep],
            }
        )

    return grouped_map(blocked, "blk", pairs)


SQL_PART_NAME_FUZZY_PAIRS = """
WITH n AS (SELECT DISTINCT p_name FROM part)
SELECT a.p_name AS name_a, b.p_name AS name_b,
       CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
FROM n a JOIN n b
  ON split_part(a.p_name, ' ', 2) = split_part(b.p_name, ' ', 2)
 AND a.p_name < b.p_name
WHERE levenshtein(a.p_name, b.p_name) <= 2
"""


def q_orders_weekly_growth(sf_dir: str):
    """Aggregate-then-window: weekly revenue folds through the combiner
    (the only row-scale pass), then the week-over-week percent change
    runs as a LAG window on the metadata-scale weekly series."""

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def week(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "wk": pc.strftime(batch["o_orderdate"], "%Y-%W"),
                "o_totalprice": batch["o_totalprice"],
            }
        )

    weekly = pre_aggregate(
        orders.map_batches(week, batch_format="pyarrow"),
        ["wk"], {"revenue": ("o_totalprice", "sum")},
    ).to_pandas().sort_values("wk").reset_index(drop=True)
    rev = weekly["revenue"].to_numpy(np.float64)
    growth = np.full(len(rev), np.nan)
    if len(rev) > 1:
        growth[1:] = 100.0 * (rev[1:] - rev[:-1]) / rev[:-1]
    return pa.table(
        {
            "wk": pa.array(weekly["wk"].to_numpy(), pa.string()),
            "revenue": pa.array(round_half_up(rev, 2), pa.float64()),
            "growth_pct": pa.array(round_half_up(growth, 4),
                                   pa.float64()),
        }
    )


SQL_ORDERS_WEEKLY_GROWTH = """
WITH w AS (SELECT strftime(o_orderdate, '%Y-%W') AS wk,
                  SUM(o_totalprice) AS rev
           FROM orders GROUP BY 1)
SELECT wk, ROUND(rev, 2) AS revenue,
       ROUND(100.0 * (rev - LAG(rev) OVER (ORDER BY wk))
             / LAG(rev) OVER (ORDER BY wk), 4) AS growth_pct
FROM w
"""


def q_join_stats(sf_dir: str):
    """Join-cardinality audit (the optimizer-statistics op): distinct
    keys per side, actual join cardinality, and the independence
    estimate |L|*|R|/max(ndv) — all exact integers from combiner folds,
    the actual cardinality from per-key count partials multiplied in a
    tiny cogroup (orders x customer on custkey)."""

    o = pre_aggregate(
        _read(sf_dir, "orders", ["o_custkey"]), ["o_custkey"],
        {"n_o": (None, "count")},
    )
    c = pre_aggregate(
        _read(sf_dir, "customer", ["c_custkey"]), ["c_custkey"],
        {"n_c": (None, "count")},
    )
    # ONE full-outer cogroup yields every statistic in a single pass:
    # per-key row counts multiply for the actual cardinality, null
    # sides mark keys private to one input, sums recover row counts
    j = bucket_join(o, c, on="o_custkey", right_on="c_custkey",
                    how="outer")

    def fold(batch: pa.Table) -> pa.Table:
        no = pc.fill_null(batch["n_o"], 0)
        nc = pc.fill_null(batch["n_c"], 0)

        def s(col):
            return pa.array([pc.sum(col).as_py() or 0], pa.int64())

        return pa.table(
            {
                "rows_actual": s(pc.multiply(no, nc)),
                "n_left": s(no),
                "n_right": s(nc),
                "ndv_left": pa.array(
                    [pc.sum(pc.cast(pc.greater(no, 0), pa.int64()))
                     .as_py() or 0], pa.int64()
                ),
                "ndv_right": pa.array(
                    [pc.sum(pc.cast(pc.greater(nc, 0), pa.int64()))
                     .as_py() or 0], pa.int64()
                ),
            }
        )

    parts = j.map_batches(fold, batch_format="pyarrow").to_pandas()
    rows_actual = int(parts["rows_actual"].sum())
    n_left = int(parts["n_left"].sum())
    n_right = int(parts["n_right"].sum())
    ndv_left = int(parts["ndv_left"].sum())
    ndv_right = int(parts["ndv_right"].sum())
    est = (n_left * n_right) // max(ndv_left, ndv_right)
    return pa.table(
        {
            "n_left": pa.array([n_left], pa.int64()),
            "n_right": pa.array([n_right], pa.int64()),
            "ndv_left": pa.array([ndv_left], pa.int64()),
            "ndv_right": pa.array([ndv_right], pa.int64()),
            "rows_actual": pa.array([rows_actual], pa.int64()),
            "rows_est": pa.array([est], pa.int64()),
        }
    )


SQL_JOIN_STATS = """
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM orders) AS n_left,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM customer) AS n_right,
       (SELECT CAST(COUNT(DISTINCT o_custkey) AS BIGINT) FROM orders)
         AS ndv_left,
       (SELECT CAST(COUNT(DISTINCT c_custkey) AS BIGINT) FROM customer)
         AS ndv_right,
       (SELECT CAST(COUNT(*) AS BIGINT)
        FROM orders JOIN customer ON o_custkey = c_custkey)
         AS rows_actual,
       CAST((SELECT COUNT(*) FROM orders)
            * (SELECT COUNT(*) FROM customer)
            // GREATEST(
                (SELECT COUNT(DISTINCT o_custkey) FROM orders),
                (SELECT COUNT(DISTINCT c_custkey) FROM customer))
         AS BIGINT) AS rows_est
"""


def q_hard_negatives(sf_dir: str):
    """Filtered ANN (hard-negative mining for contrastive training):
    for each query vector (vec_id < 5), the top-3 most-similar
    embeddings with a DIFFERENT label.  The 5-row query matrix ships
    once by closure; every batch computes float64 cosines against all
    queries, masks same-label rows, and emits its LOCAL top-3 per
    query; the global fold sorts only blocks x 15 candidate rows."""


    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    qdf = _rpqc(  # prune at the read: only the 5 query rows
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filter=pds.field("vec_id") < 5,
    ).to_pandas().sort_values("vec_id")
    qm = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    qm /= np.linalg.norm(qm, axis=1, keepdims=True)
    qids = qdf["vec_id"].to_numpy(np.int64)
    qlabels = qdf["label"].to_numpy()

    def local_topk(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, "embedding")
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        m = m / np.where(norms == 0, 1, norms)
        sims = m @ qm.T  # (n, 5)
        labels = batch["label"].to_numpy()
        vids = batch["vec_id"].to_numpy()
        out_q, out_v, out_s = [], [], []
        for j in range(len(qids)):
            mask = (labels != qlabels[j]) & (vids != qids[j])
            idx = np.nonzero(mask)[0]
            s = sims[idx, j]
            # deterministic top-3: sim desc, vec_id asc
            order = np.lexsort((vids[idx], -s))[:3]
            take = idx[order]
            out_q.append(np.full(len(take), qids[j], np.int64))
            out_v.append(vids[take])
            out_s.append(s[order])
        return pa.table(
            {
                "query_id": np.concatenate(out_q),
                "vec_id": np.concatenate(out_v),
                "sim": np.concatenate(out_s),
            }
        )

    cand = emb.map_batches(local_topk, batch_format="pyarrow")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["query_id", "sim", "vec_id"],
            ascending=[True, False, True], kind="mergesort",
        )
        top = df.groupby("query_id", sort=False).head(3)
        return pd.DataFrame(
            {
                "query_id": top["query_id"].to_numpy(np.int64),
                "vec_id": top["vec_id"].to_numpy(np.int64),
                "sim": round_half_up(top["sim"].to_numpy(np.float64), 4),
            }
        )

    return grouped_map(cand, "query_id", final)


SQL_HARD_NEGATIVES = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qv, label AS ql
           FROM embeddings WHERE vec_id < 5),
s AS (SELECT q.query_id, e.vec_id,
             list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                    CAST(q.qv AS DOUBLE[])) AS sim
      FROM embeddings e JOIN q
        ON e.label <> q.ql AND e.vec_id <> q.query_id)
SELECT query_id, vec_id, ROUND(sim, 4) AS sim
FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY query_id
                                   ORDER BY sim DESC, vec_id) AS r
      FROM s)
WHERE r <= 3
"""


def q_users_bfs(sf_dir: str):
    """Single-source shortest hops <= 3 over the co-purchase graph via
    the shared :func:`kgray.ops.graph.bfs_hops` kernel (frontier BFS
    distributed rounds + the in-process small-side gate; see
    graph_bfs_hops for the paths-agree pins).  The seed is the smallest
    node with an edge — u1 < u2 by pair construction, so min(u1) is the
    global min — deterministic on both engines."""
    from kgray.ops.graph import bfs_hops

    pairs = _copurchase_pairs(sf_dir).materialize()
    if pairs.count() == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "dist": pa.array([], pa.int64())})
    seed = int(pairs.min("u1"))
    return bfs_hops(pairs, seeds=[seed], max_hops=3,
                    u_col="u1", v_col="u2")


SQL_USERS_BFS = """
WITH RECURSIVE p AS (SELECT DISTINCT strftime(ts, '%Y-%m-%d %H') AS hr, user_id
           FROM events WHERE event_type = 'purchase'),
pr AS (SELECT a.user_id AS u1, b.user_id AS u2
       FROM p a JOIN p b ON a.hr = b.hr AND a.user_id < b.user_id
       GROUP BY 1, 2 HAVING COUNT(*) >= 2),
e AS (SELECT u1 AS a, u2 AS b FROM pr
      UNION ALL SELECT u2, u1 FROM pr),
seed AS (SELECT MIN(a) AS s FROM e),
bfs AS (
  SELECT s AS node, 0 AS d FROM seed
  UNION ALL
  SELECT e.b, bfs.d + 1 FROM bfs JOIN e ON e.a = bfs.node
  WHERE bfs.d < 3
)
SELECT node, CAST(MIN(d) AS BIGINT) AS dist FROM bfs GROUP BY 1
"""
