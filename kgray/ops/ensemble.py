"""Ensemble combinators for the two model stages (A3 / A7).

Reimplements, as dataflow, the reference's ensembling semantics:

* classifier ensemble (/root/reference/classification/ensemble.py:85-141):
  ``prob = sum_i(weight_i * prob_i) / sum(weight)`` over N scorers
  (production weights [1,10,30,9,100], ensemble.py:205), then the usual
  threshold+fallback consumes the averaged probs unchanged;
* labeler ensemble (/root/reference/labeling/ensemble.py:126-166): members'
  per-position tag score tensors are summed and normalized, then ONE
  decode runs on the combined scores.  (The reference normalizes by
  sum(weight) but sums unweighted member scores — a quirk of that script;
  we weight each member as the classifier ensemble does and document the
  divergence here.)

Ray-native shape: ONE ``map_batches`` stage holds every member's state
(each member is built once per actor in ``__init__``) and runs them
serially on the same in-memory batch — N members never re-read or
re-shuffle the dataset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from kgray.ops.classify import CueClassifier, scores_matrix, with_scores
from kgray.ops.crf import BIESO_TAGS, TAG2ID, ViterbiLabeler
from kgray.ops.label import TemplateLabeler
from kgray.schema import NUM_SCHEMAS
from kgray.templates import CUES


class CharOverlapClassifier:
    """Second deterministic scorer (distinct lens from CueClassifier):
    score[i] = fraction of schema i's distinct cue characters present in
    the text.  Soft scores in [0,1] — gives the ensemble real averaging
    work.  Vectorized: one match_substring kernel per distinct cue char."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.cue_chars: list[list[str]] = [
            sorted(set(CUES[i])) for i in range(NUM_SCHEMAS)
        ]
        # distinct chars across all cues -> one kernel per char, reused
        self.all_chars = sorted({c for chars in self.cue_chars for c in chars})

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        n = len(batch)
        hit = {
            c: pc.match_substring(text, c).to_numpy(zero_copy_only=False)
            for c in self.all_chars
        }
        mat = np.zeros((n, NUM_SCHEMAS), dtype=np.float32)
        for sid, chars in enumerate(self.cue_chars):
            acc = np.zeros(n, np.float32)
            for c in chars:
                acc += hit[c]
            mat[:, sid] = acc / max(len(chars), 1)
        return with_scores(batch, mat)


class EnsembleClassifier:
    """A3: weighted prob-average over N member scorers in one stage.

    ``members`` are scorer FACTORIES (callable classes); each instance is
    built once per actor.  Matches classification/ensemble.py:120-133:
    every member scores the same batch, probs combine as
    ``sum(w_i * p_i) / sum(w)`` and land in the standard scores column, so
    ``threshold_and_fallback`` composes unchanged.
    """

    def __init__(self, members: list | None = None,
                 weights: list[float] | None = None,
                 text_col: str = "text"):
        factories = members or [CueClassifier, CharOverlapClassifier]
        self.members = [
            f(text_col=text_col) if isinstance(f, type) else f
            for f in factories
        ]
        w = weights if weights is not None else [1.0] * len(self.members)
        if len(w) != len(self.members):
            raise ValueError("weights must match members")
        self.weights = np.asarray(w, np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        acc = np.zeros((len(batch), NUM_SCHEMAS), np.float32)
        for member, w in zip(self.members, self.weights):
            acc += w * scores_matrix(member(batch))
        acc /= self.weights.sum()
        return with_scores(batch, acc)


class EnsembleCrfLabeler(ViterbiLabeler):
    """A7: members emit per-position tag scores for the same fan-out rows;
    the weighted average decodes ONCE through the constrained Viterbi and
    the shared codec (labeling/ensemble.py:126-166 shape).

    Members need ``predict_tags(text, schema_id) -> list[str]`` (tag
    strings become one-hot score planes) — the same pluggable contract as
    the labeler slot itself.
    """

    def __init__(self, members: list | None = None,
                 weights: list[float] | None = None,
                 encoding_type: str = "bieso"):
        super().__init__(encoding_type)
        factories = members or [TemplateLabeler, TemplateLabeler]
        self.members = [
            f(encoding_type) if isinstance(f, type) else f for f in factories
        ]
        w = weights if weights is not None else [1.0] * len(self.members)
        if len(w) != len(self.members):
            raise ValueError("weights must match members")
        self.weights = np.asarray(w, np.float64)

    def scores(
        self, texts: list[str], sids: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        B = len(texts)
        L = max((len(t) for t in texts), default=0)
        logits = np.zeros((B, max(L, 1), len(BIESO_TAGS)), np.float64)
        mask = np.zeros((B, max(L, 1)), bool)
        for b, (text, sid) in enumerate(zip(texts, sids)):
            mask[b, : len(text)] = True
            for member, w in zip(self.members, self.weights):
                ids = [TAG2ID[t] for t in member.predict_tags(text, sid)]
                logits[b, np.arange(len(ids)), ids] += w
        logits /= self.weights.sum()
        return logits, mask
