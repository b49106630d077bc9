"""Numpy CRF decode — A6 made real without torch.

Reimplements, from behavior, the two inference-relevant pieces of the
reference's fastNLP CRF (/root/reference/labeling/crf.py):

* ``allowed_transitions`` (crf.py:12-160) — the per-encoding transition
  legality table (bio / bmes / bmeso / bieo / bieso), including the
  start/end pseudo-tags and the <pad>/<unk> skip;
* ``viterbi_decode``       (crf.py:275-335) — batched, masked, constrained
  Viterbi over per-position tag scores, as pure numpy tensor code (the
  reference's torch ops map 1:1: max over the prev-tag axis per step,
  backtrace via the modular index trick for variable-length rows).

``ViterbiTagDecoder`` packages the constrained matrix as per-actor state;
``ViterbiLabeler`` plugs it into the stage-2 labeler slot for every model
that scores tags per position (this module's ``CrfLabeler``, the labeler
ensemble, the numpy BiLSTM/transformer): the model's scores go through
Viterbi, which picks the best BIESO-legal path, and the shared codec
(decode_tags/assemble_spo) turns tags into triples — so the decode path
the reference runs after its BiLSTM (predict.py:50-81) is exercised
end-to-end.  ``CrfLabeler``'s scores are one-hot template emissions
(Viterbi is the identity on legal inputs, nearest legal repair on
corrupted ones).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from kgray.ops.label import TemplateLabeler, triples_table
from kgray.ops.tagging import decode_tags

NEG = -10000.0


def allowed_transitions(
    id2target: dict[int, str],
    encoding_type: str = "bio",
    include_start_end: bool = True,
) -> list[tuple[int, int]]:
    """All legal (from_tag_id, to_tag_id) jumps for the encoding.

    Targets may be bare tags ("B") or tag-label pairs ("B-SUB", '-'
    separated).  start/end pseudo-tags get ids n and n+1.
    """
    num_tags = len(id2target)
    start_idx, end_idx = num_tags, num_tags + 1
    encoding_type = encoding_type.lower()
    pairs = list(id2target.items())
    if include_start_end:
        pairs += [(start_idx, "start"), (end_idx, "end")]

    def split(label: str) -> tuple[str, str]:
        label = label.lower()
        if label in ("start", "end"):
            return label, ""
        return label[:1], label[2:]

    out = []
    for fid, flab in pairs:
        if flab in ("<pad>", "<unk>"):
            continue
        ftag, flabel = split(flab)
        for tid, tlab in pairs:
            if tlab in ("<pad>", "<unk>"):
                continue
            ttag, tlabel = split(tlab)
            if _transition_allowed(encoding_type, ftag, flabel, ttag, tlabel):
                out.append((fid, tid))
    return out


def _transition_allowed(enc: str, ft: str, fl: str, tt: str, tl: str) -> bool:
    if tt == "start" or ft == "end":
        return False
    if enc == "bio":
        if ft == "start":
            return tt in ("b", "o")
        if ft in ("b", "i"):
            return tt in ("end", "b", "o") or (tt == "i" and fl == tl)
        if ft == "o":
            return tt in ("end", "b", "o")
    elif enc == "bmes":
        if ft == "start":
            return tt in ("b", "s")
        if ft in ("b", "m"):
            return tt in ("m", "e") and fl == tl
        if ft in ("e", "s"):
            return tt in ("b", "s", "end")
    elif enc == "bmeso":
        if ft == "start":
            return tt in ("b", "s", "o")
        if ft in ("b", "m"):
            return tt in ("m", "e") and fl == tl
        if ft in ("e", "s", "o"):
            return tt in ("b", "s", "end", "o")
    elif enc == "bieo":
        if ft == "start":
            return tt in ("b", "o")
        if ft == "b":
            return (tt in ("i", "e") and fl == tl) or tt in ("o", "end")
        if ft == "i":
            return tt in ("i", "e") and fl == tl
        if ft in ("e", "o"):
            return tt in ("b", "end", "o")
    elif enc == "bieso":
        if ft == "start":
            return tt in ("b", "s", "o")
        if ft in ("b", "i"):
            return tt in ("i", "e") and fl == tl
        if ft in ("e", "s", "o"):
            return tt in ("b", "s", "end", "o")
    else:
        raise ValueError(f"unsupported encoding type {enc!r}")
    raise ValueError(f"unexpected tag {ft!r} for encoding {enc!r}")


def constrained_transitions(
    id2target: dict[int, str],
    encoding_type: str = "bieso",
    trans_scores: np.ndarray | None = None,
    start_scores: np.ndarray | None = None,
    end_scores: np.ndarray | None = None,
) -> np.ndarray:
    """(n+2, n+2) matrix: 0 for legal jumps, NEG for illegal, plus learned
    tag-to-tag / start / end scores when a trained model provides them
    (crf.py:295-299: constrain + trans_m + start/end rows)."""
    n = len(id2target)
    m = np.full((n + 2, n + 2), NEG, np.float64)
    for f, t in allowed_transitions(id2target, encoding_type, True):
        m[f, t] = 0.0
    if trans_scores is not None:
        m[:n, :n] += np.asarray(trans_scores, np.float64)
    if start_scores is not None:
        m[n, :n] += np.asarray(start_scores, np.float64)
    if end_scores is not None:
        m[:n, n + 1] += np.asarray(end_scores, np.float64)
    return m


def viterbi_decode(
    logits: np.ndarray,
    mask: np.ndarray,
    transitions: np.ndarray,
) -> tuple[list[list[int]], np.ndarray]:
    """Batched constrained Viterbi (crf.py:275-335 as numpy).

    logits (B, L, T) float scores; mask (B, L) bool, False = padding
    (each row's True prefix is its length); transitions (T+2, T+2) from
    ``constrained_transitions``.  Returns (paths unpadded per row, scores).
    """
    logits = np.asarray(logits, np.float64)
    mask = np.asarray(mask, bool)
    B, L, T = logits.shape
    lg = logits.transpose(1, 0, 2)  # L, B, T
    mk = mask.T  # L, B

    vpath = np.zeros((L, B, T), np.int64)
    vscore = lg[0] + transitions[T, :T][None, :]
    trans = transitions[:T, :T][None, :, :]  # 1, T, T
    for i in range(1, L):
        score = vscore[:, :, None] + trans + lg[i][:, None, :]  # B, T(prev), T(cur)
        best_dst = score.argmax(1)  # B, T
        best_score = np.take_along_axis(score, best_dst[:, None, :], 1)[:, 0, :]
        vpath[i] = best_dst
        keep = mk[i][:, None]
        vscore = np.where(keep, best_score, vscore)
    vscore = vscore + transitions[:T, T + 1][None, :]

    lens = mk.sum(0).astype(np.int64) - 1  # last valid index per row
    seq_idx = np.arange(L, dtype=np.int64)
    idxes = (lens[None, :] - seq_idx[:, None]) % L  # L, B
    batch_idx = np.arange(B, dtype=np.int64)

    ans = np.zeros((L, B), np.int64)
    last_tags = vscore.argmax(1)
    ans_score = vscore[batch_idx, last_tags]
    ans[idxes[0], batch_idx] = last_tags
    for i in range(L - 1):
        last_tags = vpath[idxes[i], batch_idx, last_tags]
        ans[idxes[i + 1], batch_idx] = last_tags
    ans = ans.T  # B, L
    paths = [ans[b, : lens[b] + 1].tolist() for b in range(B)]
    return paths, ans_score


# BIESO x {SUB, OBJ} tag vocabulary of the labeling stage (labeling
# id2target analogue; O first so padding scores default to O)
BIESO_TAGS: dict[int, str] = {
    0: "O",
    1: "B-SUB", 2: "I-SUB", 3: "E-SUB", 4: "S-SUB",
    5: "B-OBJ", 6: "I-OBJ", 7: "E-OBJ", 8: "S-OBJ",
}
TAG2ID = {t: i for i, t in BIESO_TAGS.items()}


class ViterbiTagDecoder:
    """Per-actor state: the constrained transition matrix, built once.

    ``decode(logits, mask)`` -> per-row lists of tag STRINGS (unpadded).
    """

    def __init__(self, id2target: dict[int, str] | None = None,
                 encoding_type: str = "bieso",
                 trans_scores: np.ndarray | None = None,
                 start_scores: np.ndarray | None = None,
                 end_scores: np.ndarray | None = None):
        self.id2target = dict(id2target or BIESO_TAGS)
        self.transitions = constrained_transitions(
            self.id2target, encoding_type, trans_scores, start_scores,
            end_scores,
        )

    def decode(self, logits: np.ndarray, mask: np.ndarray) -> list[list[str]]:
        paths, _ = viterbi_decode(logits, mask, self.transitions)
        return [[self.id2target[t] for t in p] for p in paths]


def one_hot_scores(
    tag_rows: list[list[str]], tag2id: dict[str, int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pad a batch of tag-string rows into (B, Lmax, T) one-hot scores +
    (B, Lmax) mask — the deterministic 'emission' bridge from the template
    labeler into the CRF decode path."""
    t2i = tag2id or TAG2ID
    B = len(tag_rows)
    L = max((len(r) for r in tag_rows), default=0)
    T = len(t2i)
    logits = np.zeros((B, max(L, 1), T), np.float64)
    mask = np.zeros((B, max(L, 1)), bool)
    for b, row in enumerate(tag_rows):
        mask[b, : len(row)] = True
        for i, tag in enumerate(row):
            logits[b, i, t2i[tag]] = 1.0
    return logits, mask


class ViterbiLabeler:
    """Stage-2 labeler slot for every model that scores tags per position.

    A subclass supplies only ``scores(texts, sids) -> (logits (B, L, T),
    mask (B, L))`` over ``BIESO_TAGS``; ``__call__`` runs it on the
    batch's non-empty rows, decodes ONCE through the constrained Viterbi
    and turns the tag strings into triples through the shared codec
    (decode_tags -> triples_table), the decode path the reference runs
    after its BiLSTM (labeling/predict.py:50-81).  The output is always
    BIESO-legal, whatever the scores."""

    def __init__(self, encoding_type: str = "bieso"):
        self.decoder = ViterbiTagDecoder(BIESO_TAGS, encoding_type)

    def scores(self, texts: list[str], sids: list[int]):
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        sids = batch["schema_id"].to_pylist()
        spans: list[tuple[list[str], list[str]]] = [([], [])] * len(texts)
        nonempty = [i for i, t in enumerate(texts) if t]
        if nonempty:
            logits, mask = self.scores(
                [texts[i] for i in nonempty], [sids[i] for i in nonempty])
            for i, tags in zip(nonempty, self.decoder.decode(logits, mask)):
                spans[i] = decode_tags(tags, texts[i])
        return triples_table(batch["doc_id"].to_pylist(), sids, spans)


class CrfLabeler(ViterbiLabeler):
    """Stage-2 labeler running the FULL reference decode chain: template
    emission scores -> constrained Viterbi -> tag strings -> decode_tags ->
    assemble_spo.  On legal emissions the Viterbi path is the identity
    (any deviation loses emission score or pays the NEG constraint), so
    output triples match TemplateLabeler bit-for-bit; on corrupted
    emissions it returns the best LEGAL path instead of crashing the
    decoder."""

    def __init__(self, encoding_type: str = "bieso"):
        super().__init__(encoding_type)
        self.emitter = TemplateLabeler(encoding_type)

    def scores(self, texts: list[str], sids: list[int]):
        return one_hot_scores([
            self.emitter.predict_tags(t, sid) for t, sid in zip(texts, sids)
        ])
