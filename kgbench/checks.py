"""Output checks.  Each returns numbers plus a list of violations (empty
when the output is right); none raises on a wrong output, so a run
always reports."""

from __future__ import annotations

import json
import os
from collections import Counter

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SPO_COLS = ["doc_id", "subject", "subject_type", "predicate", "object",
            "object_type"]
# The template labeler misses a few gold triples (0.03 % at 150k docs);
# more than this many is a regression, not that known shortfall.
RECALL_FLOOR = 0.999


class CheckFailed(Exception):
    """An operation's output broke an invariant."""


def _rows(df: pd.DataFrame, cols) -> Counter:
    return Counter(df[cols].itertuples(index=False, name=None))


def spo_scores(pred: pd.DataFrame, gold: pd.DataFrame) -> dict:
    """Multiset precision / recall / F1 of predicted SPO rows."""
    p, g = _rows(pred, SPO_COLS), _rows(gold, SPO_COLS)
    tp = sum((p & g).values())
    n_pred, n_gold = sum(p.values()), sum(g.values())
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    return {"tp": tp, "pred": n_pred, "gold": n_gold,
            "precision": precision, "recall": recall, "f1": f1}


def spo_violations(s: dict) -> list[str]:
    out = []
    if s["pred"] > s["tp"]:
        out.append(f"{s['pred'] - s['tp']} predicted triples are not gold")
    if s["recall"] < RECALL_FLOOR:
        out.append(f"recall {s['recall']:.5f} < {RECALL_FLOOR}")
    return out


def read_output_table(out_dir: str, table: str) -> pa.Table:
    """Read a kg_construct table from the files its manifest attests,
    with plain pyarrow (independent of the reader under test)."""
    path = os.path.join(out_dir, table)
    with open(os.path.join(path, "manifest.json")) as f:
        manifest = json.load(f)
    files = [os.path.join(path, "data", name)
             for part in manifest["partitions"].values()
             for name in part["files"]]
    if not files:  # an empty table (a corpus may link no mentions)
        return pa.table({})
    return pa.concat_tables([pq.read_table(f) for f in files],
                            promote_options="default")


def construct_violations(tables: dict[str, pd.DataFrame]) -> list[str]:
    """Invariants of one kg_construct output: canonicalization keeps every
    triple row unchanged apart from the two canonical columns, and every
    link edge endpoint has a row in the entity map."""
    out = []
    triples, canon = tables["triples"], tables["triples_canonical"]
    if len(canon) != len(triples):
        out.append(f"triples_canonical has {len(canon)} rows, "
                   f"triples {len(triples)}")
    diff = _rows(triples, SPO_COLS) - _rows(canon, SPO_COLS)
    if diff:
        out.append(f"{sum(diff.values())} triples rows missing or altered "
                   "in triples_canonical")
    nodes = set(tables["entities"].get("node", ()))
    edges = tables["edges"]
    ends = set(edges.get("u", ())) | set(edges.get("v", ()))
    if ends - nodes:
        out.append(f"{len(ends - nodes)} edge endpoints are not in the "
                   "entity map")
    return out


def stale_rows(appended: pd.DataFrame, fresh: pd.DataFrame) -> int:
    """Rows of an append-built triples_canonical with no equal row in a
    fresh build over the same docs (the larger side of the multiset
    difference)."""
    cols = sorted(fresh.columns)
    a, b = _rows(appended, cols), _rows(fresh, cols)
    return max(sum((a - b).values()), sum((b - a).values()))
