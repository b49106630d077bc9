"""Distributed SPO evaluation — the official calc_pr semantics.

Reimplements /root/reference/legacy/labeling/bert/bin/evaluation/
calc_pr.py:164-224 as a Ray Data aggregation instead of driver dicts:

* per-sentence *sets* of (lower(del_bookname(s)), predicate,
  lower(del_bookname(o))) on both sides (calc_pr.py:73-85, 112-117);
* correct = predicted spo present in the golden set, where the subject and
  object may each match under any alias surface form (broadcast alias
  dict, calc_pr.py:141-161) — a predicted triple counts at most once no
  matter how many alias combinations hit;
* micro P/R/F1 from global sums (calc_pr.py:198-214).

Dataflow (no alias): normalize both sides -> one ``cogroup`` on doc_id,
per-bucket set counts -> ``ds.sum``.  With alias: expanded predicted keys
carry an origin key and a second tiny aggregate collapses them ("matched
under any form").  No driver-side row loops; only three scalars
materialize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from kgray.ops.tagging import normalize_entity

# NB: not "\x00" — pandas elementwise string concat silently drops NUL
_SEP = "\x1f"


@dataclass
class PRF1:
    tp: int
    pred_n: int
    gold_n: int

    @property
    def precision(self) -> float:
        return self.tp / self.pred_n if self.pred_n else 0.0

    @property
    def recall(self) -> float:
        return self.tp / self.gold_n if self.gold_n else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.tp,
            "pred_n": self.pred_n,
            "gold_n": self.gold_n,
        }


def _norm_frame(batch: pa.Table) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"].to_pandas().astype(str),
            "s": batch["subject"].to_pandas().map(normalize_entity),
            "p": batch["predicate"].to_pandas(),
            "o": batch["object"].to_pandas().map(normalize_entity),
        }
    )


def _key_of(df: pd.DataFrame) -> pd.Series:
    return df["doc_id"] + _SEP + df["s"] + _SEP + df["p"] + _SEP + df["o"]


def _key_batch(batch: pa.Table) -> pa.Table:
    df = _norm_frame(batch)
    return pa.table(
        {
            "doc_id": pa.array(df["doc_id"], pa.string()),
            "key": pa.array(_key_of(df), pa.string()),
        }
    )


def _in_docs(p: pa.Table, g: pa.Table):
    """Mask of ``p``'s rows whose doc_id has a row in ``g``."""
    return pc.is_in(p["doc_id"], value_set=g["doc_id"].combine_chunks())


def spo_prf1(pred_ds, gold_ds, alias: dict[str, list[str]] | None = None,
             loc: dict[str, list[str]] | None = None) -> PRF1:
    """Micro P/R/F1 of predicted vs golden triple Datasets.

    Both inputs need columns (doc_id, subject, predicate, object).  The
    per-doc set semantics of calc_pr fall out of a per-doc keyed dedup.
    Like the reference (calc_pr.py:199-207 iterates only sentences present
    in the golden file), predicted triples for docs ABSENT from the golden
    set are ignored entirely — they count toward neither tp nor pred_n.
    One doc-bucketed cogroup shuffle; only three scalars materialize.
    """
    from kgray.util import cogroup

    if alias or loc:
        return _spo_prf1_alias(pred_ds, gold_ds, alias or {}, loc)

    def count_bucket(p: pa.Table, g: pa.Table) -> pd.DataFrame:
        gold = pred = pd.Index([])
        if g.num_rows:
            gold = pd.Index(g["key"].to_pandas()).unique()
            # restrict to docs that exist in gold (reference semantics)
            pred = pd.Index(p.filter(_in_docs(p, g))["key"].to_pandas()) \
                .unique() if p.num_rows else pred
        return pd.DataFrame(
            {
                "tp": [int(pred.isin(gold).sum())],
                "pred_n": [len(pred)],
                "gold_n": [len(gold)],
            }
        )

    sums = cogroup(
        pred_ds.map_batches(_key_batch, batch_format="pyarrow"),
        gold_ds.map_batches(_key_batch, batch_format="pyarrow"),
        "doc_id", "doc_id", count_bucket,
    ).sum(["tp", "pred_n", "gold_n"])
    return PRF1(
        tp=sums["sum(tp)"] or 0,
        pred_n=sums["sum(pred_n)"] or 0,
        gold_n=sums["sum(gold_n)"] or 0,
    )


def predicate_set_rates(pred_ds, gold_ds) -> pa.Table:
    """G6 (evaluate_classifiction.py:53-73 analogue): per-doc compare of
    the PREDICATE sets — fraction of docs where predicted == golden,
    predicted ⊆ golden, predicted ⊇ golden.

    One coarse-bucket cogroup on doc_id (sets built vectorized inside),
    then partial sums -> four scalars.
    """
    from kgray.util import cogroup

    def side_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.string()),
                "p": batch["predicate"],
            }
        )

    def sets_of(t: pa.Table) -> pd.Series:
        if not t.num_rows:
            return pd.Series([], dtype=object)
        return t.to_pandas().groupby("doc_id", sort=False)["p"].agg(set)

    def compare(p: pa.Table, g: pa.Table) -> pd.DataFrame:
        pred, gold = sets_of(p), sets_of(g)
        rows = [
            (1, int(a == b), int(a <= b), int(a >= b))
            for a, b in (
                (pred.get(d, set()), gold.get(d, set()))
                for d in pred.index.union(gold.index, sort=False)
            )
        ]
        out = np.asarray(rows, np.int64) if rows else np.zeros((0, 4), np.int64)
        return pd.DataFrame(
            {
                "n_docs": out[:, 0], "exact": out[:, 1],
                "subset": out[:, 2], "superset": out[:, 3],
            }
        )

    sums = cogroup(
        pred_ds.map_batches(side_rows, batch_format="pyarrow"),
        gold_ds.map_batches(side_rows, batch_format="pyarrow"),
        "doc_id", "doc_id", compare,
    ).sum(["n_docs", "exact", "subset", "superset"])
    n = sums["sum(n_docs)"] or 0
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "exact_rate": pa.array([round((sums["sum(exact)"] or 0) / n, 4) if n else 0.0]),
            "subset_rate": pa.array([round((sums["sum(subset)"] or 0) / n, 4) if n else 0.0]),
            "superset_rate": pa.array([round((sums["sum(superset)"] or 0) / n, 4) if n else 0.0]),
        }
    )


def span_prf1(sentences, labeler=None, encoding_type: str = "bieso") -> pa.Table:
    """G7: span-level micro P/R/F1 of predicted vs golden tag sequences.

    For every (sentence, golden schema) fan-out row: golden tags come
    from the training-target builder (bieso_tags over spo_list), predicted
    tags from the labeler; spans compare exactly on (role, start, end).
    Per-batch partial sums -> three scalars -> one row (the fastNLP
    SpanFPreRecMetric shape, computed as dataflow)."""
    from kgray.ops.label import TemplateLabeler
    from kgray.ops.tagging import bieso_tags, tag_spans
    from kgray.schema import CONCAT_TO_ID

    lab = labeler or TemplateLabeler(encoding_type)

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        spo_lists = batch["spo_list"].to_pylist()
        tp = pred_n = gold_n = 0
        for text, spo_list in zip(texts, spo_lists):
            spo_list = spo_list or []
            concats = {
                s["subject_type"] + s["predicate"] + s["object_type"]
                for s in spo_list
                if "subject" in s and "object" in s
            }
            for concat in concats:
                sid = CONCAT_TO_ID.get(concat)
                if sid is None:
                    continue
                gold = set(tag_spans(
                    bieso_tags(concat, text, spo_list, encoding_type)))
                pred = set(tag_spans(lab.predict_tags(text, sid)))
                tp += len(gold & pred)
                pred_n += len(pred)
                gold_n += len(gold)
        return pa.table(
            {
                "tp": pa.array([tp], pa.int64()),
                "pred_n": pa.array([pred_n], pa.int64()),
                "gold_n": pa.array([gold_n], pa.int64()),
            }
        )

    sums = sentences.map_batches(partial, batch_format="pyarrow").sum(
        ["tp", "pred_n", "gold_n"]
    )
    m = PRF1(
        tp=sums["sum(tp)"] or 0,
        pred_n=sums["sum(pred_n)"] or 0,
        gold_n=sums["sum(gold_n)"] or 0,
    )
    return pa.table(
        {
            "span_precision": pa.array([round(m.precision, 4)]),
            "span_recall": pa.array([round(m.recall, 4)]),
            "span_f1": pa.array([round(m.f1, 4)]),
            "tp": pa.array([m.tp], pa.int64()),
            "pred_n": pa.array([m.pred_n], pa.int64()),
            "gold_n": pa.array([m.gold_n], pa.int64()),
        }
    )


def _spo_prf1_alias(pred_ds, gold_ds, alias: dict[str, list[str]],
                    loc: dict[str, list[str]] | None = None) -> PRF1:
    """Alias/location-dict variant of calc_pr's is_spo_correct:

    * each PREDICTED triple expands across alias surface forms of its
      subject/object (calc_pr.py:146-154) but counts at most once —
      expanded rows carry the origin key ``okey`` and a second aggregate
      collapses per-origin;
    * each GOLDEN object additionally expands one-directionally through
      the location dict (calc_pr.py:155-161: a prediction with the same
      s, p and any o in loc_dict[golden_o] is correct).  Loc-expanded
      gold rows match predictions but do NOT count toward gold_n."""
    import ray
    from ray.data.aggregate import Max

    loc = loc or {}
    alias_ref = ray.put({k.lower(): [a.lower() for a in v] for k, v in alias.items()})
    loc_ref = ray.put({k.lower(): [a.lower() for a in v] for k, v in loc.items()})

    def expand(batch: pa.Table) -> pa.Table:
        amap = ray.get(alias_ref)
        df = _norm_frame(batch)
        okey = _key_of(df)
        docs, keys, okeys, orig = [], [], [], []
        for (ok, t) in zip(okey, df.itertuples(index=False)):
            for s in [t.s, *amap.get(t.s, ())]:
                for o in [t.o, *amap.get(t.o, ())]:
                    docs.append(t.doc_id)
                    keys.append(f"{t.doc_id}{_SEP}{s}{_SEP}{t.p}{_SEP}{o}")
                    okeys.append(ok)
                    # the unexpanded form: the ONLY one the loc branch may
                    # match (calc_pr.py:155-161 compares the raw s and o)
                    orig.append(1 if (s == t.s and o == t.o) else 0)
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.string()),
                "key": pa.array(keys, pa.string()),
                "okey": pa.array(okeys, pa.string()),
                "is_orig": pa.array(np.asarray(orig, np.int8)),
            }
        )

    def gold_rows(batch: pa.Table) -> pa.Table:
        lmap = ray.get(loc_ref)
        df = _norm_frame(batch)
        key = _key_of(df)
        docs = list(df["doc_id"])
        keys = list(key)
        gold_kind = [1] * len(keys)  # 1 = real golden key
        if lmap:
            for t in df.itertuples(index=False):
                for g_o in lmap.get(t.o, ()):
                    docs.append(t.doc_id)
                    keys.append(f"{t.doc_id}{_SEP}{t.s}{_SEP}{t.p}{_SEP}{g_o}")
                    gold_kind.append(2)  # 2 = loc-expanded: matches only
                    #     the RAW predicted form (no alias composition), and
                    #     does not count toward gold_n
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.string()),
                "key": pa.array(keys, pa.string()),
                "is_gold": pa.array(np.asarray(gold_kind, np.int8)),
            }
        )

    pred_keys = pred_ds.map_batches(expand, batch_format="pyarrow")
    gold_keys = gold_ds.map_batches(gold_rows, batch_format="pyarrow")

    def match_bucket(p: pa.Table, g: pa.Table) -> pd.DataFrame:
        """All docs of one hash bucket at once: hit = key has a gold row.
        Bucketing is by doc_id (keys are doc-prefixed, so a doc's pred and
        gold keys colocate); predictions for docs absent from gold are
        dropped up front, matching calc_pr.py:199-207."""
        if not p.num_rows or not g.num_rows:
            return pd.DataFrame({"okey": pd.array([], dtype="string"),
                                 "hit": pd.array([], dtype="int8")})
        gd = g.to_pandas()
        full_keys = gd.loc[gd["is_gold"] == 1, "key"].unique()
        loc_keys = gd.loc[gd["is_gold"] == 2, "key"].unique()
        preds = p.filter(_in_docs(p, g)).to_pandas()[
            ["key", "okey", "is_orig"]].drop_duplicates()
        full_hit = preds["key"].isin(full_keys).to_numpy()
        loc_hit = preds["key"].isin(loc_keys).to_numpy() & (
            preds["is_orig"].to_numpy() == 1
        )
        hit = full_hit | loc_hit
        return pd.DataFrame(
            {
                "okey": pd.array(preds["okey"].to_numpy(), dtype="string"),
                "hit": pd.array(hit.astype(np.int8), dtype="int8"),
            }
        )

    from kgray.util import cogroup

    matched = (
        cogroup(pred_keys, gold_keys, "doc_id", "doc_id", match_bucket)
        .groupby("okey")
        .aggregate(Max("hit", alias_name="hit"))
    )
    tp = int(matched.sum("hit") or 0)
    pred_n = matched.count()
    orig_gold = gold_keys.map_batches(
        lambda b: b.filter(pc.equal(b["is_gold"], 1)),
        batch_format="pyarrow",
    )
    gold_n = orig_gold.groupby("key").aggregate(Max("is_gold", alias_name="g")).count()
    return PRF1(tp=tp, pred_n=pred_n, gold_n=gold_n)
