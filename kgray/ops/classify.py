"""Stage-1 multi-label predicate classification + thresholding + fallback.

Mirrors the reference's stage-1 semantics with a pluggable scorer:

* ``CueClassifier`` — the deterministic scorer used in tests/bench: one
  score per schema in [0,1], 1.0 iff the schema's cue literal occurs in the
  sentence.  Plays the role of the CNN/BERT ensemble
  (/root/reference/classification/model.py:7-157, ensemble.py:17-141,
  predict.py:44-67) behind the same dataflow interface: a callable class
  for ``map_batches(..., concurrency=N)`` actor pools, patterns compiled
  once in ``__init__``, vectorized scoring per batch.
* ``threshold_and_fallback`` — M10/M11: sigmoid prob >= 0.5 -> schema set
  (classification/predict.py:15-20); empty prediction -> top-10 by score
  (legacy prepare_data_for_labeling_infer.py:22-33).

Batch format is zero-copy Arrow; scoring uses pyarrow.compute
match_substring kernels (no Python loop over rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from kgray.schema import NUM_SCHEMAS
from kgray.templates import CUES

SCORES_COL = "scores"
PRED_COL = "pred_schemas"
FALLBACK_TOP_K = 10  # prepare_data_for_labeling_infer.py:28-33


class CueClassifier:
    """Deterministic multi-label scorer: score[i] = cue_i in text.

    Stateful-stage shape (SURVEY.md §2.3 A1-A3): construction cost paid
    once per actor; ``__call__`` is pure per batch.
    """

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        # cue list in schema_id order, fixed at actor start
        self.cues: list[str] = [CUES[i] for i in range(NUM_SCHEMAS)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        n = len(batch)
        mat = np.zeros((n, NUM_SCHEMAS), dtype=np.float32)
        for sid, cue in enumerate(self.cues):
            hit = pc.match_substring(text, cue).to_numpy(zero_copy_only=False)
            mat[:, sid] = hit
        return with_scores(batch, mat)


def with_scores(batch: pa.Table, mat: np.ndarray) -> pa.Table:
    """``batch`` plus the stage-1 ``scores`` column built from an
    (n, NUM_SCHEMAS) score matrix: one fixed_size_list<float32>[50] per
    row.  The one writer of the column every scorer appends."""
    flat = pa.array(np.asarray(mat, np.float32).reshape(-1), pa.float32())
    return batch.append_column(
        SCORES_COL, pa.FixedSizeListArray.from_arrays(flat, NUM_SCHEMAS))


def scores_matrix(batch: pa.Table) -> np.ndarray:
    """The ``scores`` column back as an (n, NUM_SCHEMAS) matrix."""
    col = batch[SCORES_COL]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.flatten().to_numpy(zero_copy_only=False).reshape(
        len(batch), NUM_SCHEMAS)


def threshold_and_fallback(
    batch: pa.Table,
    threshold: float = 0.5,
    top_k: int = FALLBACK_TOP_K,
) -> pa.Table:
    """scores -> pred_schemas: list<int32> of schema ids.

    score >= threshold wins (classification/predict.py:15-20); a row with
    no winner takes the top-``top_k`` schemas by (score desc, id asc) —
    the legacy empty-prediction fallback
    (prepare_data_for_labeling_infer.py:22-33).
    """
    n = len(batch)
    mat = scores_matrix(batch)

    pos = mat >= threshold
    empty = ~pos.any(axis=1)
    if empty.any():
        # stable top-k: sort by (-score, id); argsort of -score is stable
        order = np.argsort(-mat[empty], axis=1, kind="stable")[:, :top_k]
        rows = np.nonzero(empty)[0]
        for r, ids in zip(rows, order):
            pos[r, ids] = True

    row_idx, sids = np.nonzero(pos)
    counts = np.bincount(row_idx, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    pred = pa.ListArray.from_arrays(
        pa.array(offsets), pa.array(sids.astype(np.int32), pa.int32())
    )
    return batch.drop_columns([SCORES_COL]).append_column(PRED_COL, pred)


def fanout(batch: pa.Table, keep_cols: tuple[str, ...] = ("doc_id", "text")) -> pa.Table:
    """Explode (row, pred_schemas) -> one row per (doc, schema).

    The pipeline's only cardinality-expanding op (SURVEY.md §3.1 step 3;
    legacy prepare_data_for_labeling_infer.py:63-74 / labeling/dataset.py:45-69).
    Vectorized: list offsets -> np.repeat take indices.
    """
    pred = batch[PRED_COL]
    if isinstance(pred, pa.ChunkedArray):
        pred = pred.combine_chunks()
    lengths = pc.list_value_length(pred).fill_null(0).to_numpy(zero_copy_only=False)
    take_idx = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
    cols = {
        c: batch[c].take(pa.array(take_idx)) for c in keep_cols
    }
    cols["schema_id"] = pred.flatten()
    return pa.table(cols)
