"""Stage-2 sequence labeling + span decode + SPO assembly.

The actor-pool analogue of the reference's BiLSTM-CRF labeler
(/root/reference/labeling/model.py:14-162, predict.py:131-184): a callable
class whose state (compiled per-schema patterns — standing in for model
weights) is built once per actor; each batch of fan-out rows
(doc_id, text, schema_id) yields BIESO tag sequences, which flow through
the *real* codec path — decode_tags (labeling/predict.py:50-71) and
assemble_spo (labeling/predict.py:74-81) — to triple rows.
``triples_table`` is that assembly, the one every labeler ends in (the
Viterbi labelers of ``kgray.ops.crf`` too).

The labeler is pluggable: anything with ``predict_tags(text, schema_id) ->
list[str]`` works (mirroring the reference's task_names model dispatch,
labeling/train.py:47-71).  ``TemplateLabeler`` is the deterministic
instance; a learned model would hold tensors instead of regexes.

The per-row regex loop is inherent to sequence labeling (the reference
loops per batch row too, predict.py:146-167); state is compiled once and
the loop touches only ~300-char strings.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from kgray.ops.tagging import (
    R_OBJ,
    R_SUB,
    assemble_spo,
    decode_marks,
    decode_tags,
    find_all,
    mark_span_np,
    tags_for_pairs,
)
from kgray.schema import SCHEMAS, TRIPLES
from kgray.templates import TEMPLATES


class TemplateLabeler:
    """Deterministic stage-2 labeler: per-schema template regexes -> tags."""

    def __init__(self, encoding_type: str = "bieso"):
        self.encoding_type = encoding_type
        self.patterns: dict[int, re.Pattern] = {
            sid: tpl.regex() for sid, tpl in TEMPLATES.items()
        }
        self.multi_object: dict[int, bool] = {
            sid: tpl.multi_object for sid, tpl in TEMPLATES.items()
        }

    def predict_pairs(self, text: str, schema_id: int) -> list[tuple[str, str]]:
        pairs: list[tuple[str, str]] = []
        pattern = self.patterns[schema_id]
        for m in pattern.finditer(text):
            s, o = m.group("s"), m.group("o")
            if self.multi_object[schema_id]:
                pairs.extend((s, oo) for oo in o.split("、"))
            else:
                pairs.append((s, o))
        return pairs

    def predict_tags(self, text: str, schema_id: int) -> list[str]:
        return tags_for_pairs(
            text, self.predict_pairs(text, schema_id), self.encoding_type
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized codec path: the batch's char marks live in ONE int8
        buffer (no per-char python, no tag-string lists) written with
        ``mark_span_np`` slice writes and decoded with the event-driven
        ``decode_marks`` — fuzz-tested equal to the scalar
        tags_for_pairs/decode_tags chain.  Rows whose template does not
        fire cost zero codec work."""
        doc_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        sids = batch["schema_id"].to_pylist()
        n = len(texts)

        if type(self).predict_tags is not TemplateLabeler.predict_tags:
            # subclass supplies its own tag sequences (pluggable-labeler
            # contract): honor it through the scalar codec
            return self._call_scalar(doc_ids, texts, sids)

        lens = np.fromiter((len(t) for t in texts), np.int64, n)
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        kind = np.zeros(offsets[-1], np.int8)
        role = np.zeros(offsets[-1], np.int8)
        enc = self.encoding_type
        for r, (text, sid) in enumerate(zip(texts, sids)):
            pairs = self.predict_pairs(text, sid)
            if not pairs:
                continue
            base = int(offsets[r])
            # multi-object pairs repeat the subject surface per object;
            # memoize needle scans within the row
            row_hits: dict[str, list[int]] = {}

            def fa(needle: str) -> list[int]:
                hits = row_hits.get(needle)
                if hits is None:
                    hits = row_hits[needle] = find_all(needle, text)
                return hits

            for sub, obj in pairs:
                s_idx = fa(sub)
                o_idx = fa(obj)
                if sub == obj:
                    o_idx = [x for i, x in enumerate(s_idx) if i % 2 == 1]
                for i in s_idx:
                    mark_span_np(kind, role, base + i, len(sub), R_SUB, enc)
                for i in o_idx:
                    mark_span_np(kind, role, base + i, len(obj), R_OBJ, enc)

        return triples_table(
            doc_ids, sids, decode_marks(kind, role, offsets, texts))

    def _call_scalar(self, doc_ids, texts, sids) -> pa.Table:
        return triples_table(doc_ids, sids, [
            decode_tags(self.predict_tags(text, sid), text)
            for text, sid in zip(texts, sids)
        ])


def triples_table(doc_ids: list, sids: list[int],
                  spans: list[tuple[list[str], list[str]]]) -> pa.Table:
    """Per-row (subjects, objects) span lists -> ``schema.TRIPLES`` rows:
    the one SPO assembly of every labeler (``assemble_spo``'s deduped
    cartesian product, typed by the row's schema)."""
    out: dict[str, list] = {name: [] for name in TRIPLES.names}
    for doc_id, sid, (subs, objs) in zip(doc_ids, sids, spans):
        schema = SCHEMAS[sid]
        for spo in assemble_spo(
            subs, objs, sid, schema.subject_type, schema.predicate,
            schema.object_type,
        ):
            out["doc_id"].append(doc_id)
            for k, v in spo.items():
                out[k].append(v)
    return pa.table(out, schema=TRIPLES)
