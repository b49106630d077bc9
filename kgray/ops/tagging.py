"""Pure BIESO tag codec — the reference's core extraction semantics.

Reimplements (from behavior, not code):

* ``find_all``      — /root/reference/labeling/tagging.py:4-6
* ``bieso_tags``    — M7 training-target builder, labeling/tagging.py:9-51,
                      including the subject==object odd-occurrence rule
                      (lines 25-26) and the 1/2/n-char span shapes
                      (lines 29-49); identical copy in pytorch/labeling.
* ``tag_spans``     — the one BIESO span walk, labeling/predict.py:50-71;
* ``decode_tags``   — M12 tag-seq -> (subjects, objects) span decoder,
                      that walk read off the text.
* ``assemble_spo``  — M13 cartesian sub x obj -> SPO dicts,
                      labeling/predict.py:74-81.
* ``normalize_entity`` — M14 eval normal form (lower + 《》 strip),
                      legacy/labeling/bert/bin/evaluation/calc_pr.py:41-45.

These are pure row-level functions; the pipeline calls them from inside
vectorized ``map_batches`` stages (kgray.ops.label).
"""

from __future__ import annotations

import functools
import re

TAG_O = "O"


@functools.lru_cache(maxsize=65536)
def _needle_pattern(sub: str) -> re.Pattern:
    # re's internal cache holds only 512 patterns and clears wholesale when
    # full — per-entity needles thrash it and recompilation dominated the
    # labeler profile (0.37s of 0.70s per 4k-row batch).  Entity surface
    # forms repeat heavily, so a per-process LRU keeps hits hot; bounded,
    # evicts LRU under open-vocabulary extraction.
    return re.compile(re.escape(sub), re.I)


@functools.lru_cache(maxsize=65536)
def _caseless(sub: str) -> bool:
    # No character in the needle has a case variant (CJK, digits,
    # punctuation): for such a literal, re.IGNORECASE cannot match anything
    # plain equality would not, so str.find is an exact substitute.
    return sub.lower() == sub.upper()


def find_all(sub: str, sent: str) -> list[int]:
    """All start offsets of ``sub`` in ``sent``, case-insensitive, overlaps
    not merged (tagging.py:4-6 uses re.finditer on the escaped literal,
    which yields non-overlapping matches — we preserve that).

    Caseless needles (the overwhelming majority in a CJK corpus) take a
    pure ``str.find`` loop with finditer's non-overlapping stepping —
    property-tested equal to the regex path, ~4x faster."""
    if not sub:
        return []
    if _caseless(sub):
        out: list[int] = []
        i = sent.find(sub)
        step = len(sub)
        while i != -1:
            out.append(i)
            i = sent.find(sub, i + step)
        return out
    return [m.start() for m in _needle_pattern(sub).finditer(sent)]


def _mark_span(marks: list[str], start: int, length: int, role: str,
               encoding_type: str) -> None:
    """Write one span's B/I/E/S-{role} marks (tagging.py:29-49 shape rules)."""
    if length == 1:
        marks[start] = (f"S-{role}" if encoding_type == "bieso" else f"B-{role}")
    elif length == 2:
        marks[start] = f"B-{role}"
        marks[start + 1] = f"E-{role}"
    else:
        marks[start] = f"B-{role}"
        marks[start + length - 1] = f"E-{role}"
        for i in range(1, length - 1):
            marks[start + i] = f"I-{role}"


def bieso_tags(
    spo_concat: str,
    sentence: str,
    spo_list: list[dict],
    encoding_type: str = "bieso",
) -> list[str]:
    """Per-char BIESO x {SUB,OBJ} marks for one (sentence, schema) pair.

    Reference semantics (labeling/tagging.py:9-51):
    - only spo entries whose subject_type+predicate+object_type equals
      ``spo_concat`` contribute (line 19);
    - every occurrence of subject/object in the sentence is marked;
    - subject == object: object takes the odd-indexed occurrences of the
      shared string, subject the rest (lines 25-26);
    - rows whose spo dicts lack subject/object keys yield all-O (line 15).
    """
    encoding_type = encoding_type.lower()
    if encoding_type not in ("bieo", "bieso"):
        raise ValueError(f"unknown encoding_type {encoding_type!r}")

    marks = [TAG_O] * len(sentence)
    if not spo_list or "subject" not in spo_list[0] or "object" not in spo_list[0]:
        return marks

    for spo in spo_list:
        if spo["subject_type"] + spo["predicate"] + spo["object_type"] != spo_concat:
            continue
        sub, obj = spo["subject"], spo["object"]
        s_idx = find_all(sub, sentence)
        o_idx = find_all(obj, sentence)
        if sub == obj:
            o_idx = [x for i, x in enumerate(s_idx) if i % 2 == 1]
        for i in s_idx:
            _mark_span(marks, i, len(sub), "SUB", encoding_type)
        for i in o_idx:
            _mark_span(marks, i, len(obj), "OBJ", encoding_type)
    return marks


def tags_for_pairs(
    sentence: str,
    pairs: list[tuple[str, str]],
    encoding_type: str = "bieso",
) -> list[str]:
    """Same mark-writing semantics for model-predicted (subject, object)
    pairs — the prediction-side analogue of ``bieso_tags`` used by the
    deterministic labeler (types already implied by the schema)."""
    marks = [TAG_O] * len(sentence)
    for sub, obj in pairs:
        s_idx = find_all(sub, sentence)
        o_idx = find_all(obj, sentence)
        if sub == obj:
            o_idx = [x for i, x in enumerate(s_idx) if i % 2 == 1]
        for i in s_idx:
            _mark_span(marks, i, len(sub), "SUB", encoding_type)
        for i in o_idx:
            _mark_span(marks, i, len(obj), "OBJ", encoding_type)
    return marks


def tag_spans(labels: list[str]) -> list[tuple[str, int, int]]:
    """Tag sequence -> ordered (role, start, end) spans, end inclusive:
    the one BIESO span walk, shared by the span decoder and the span-F1
    metric (fastNLP's SpanFPreRecMetric, labeling/train.py:78).

    Reference semantics (labeling/predict.py:50-71): S emits a singleton;
    B records the start; E emits start..E and consumes the start; I is
    skipped.  The reference reads an unset start on a dangling E
    (NameError in degenerate input); we skip a dangling E instead —
    unreachable for tags produced by ``bieso_tags``/a constrained CRF,
    asserted divergence documented here.
    """
    spans: list[tuple[str, int, int]] = []
    start: int | None = None
    for i, lab in enumerate(labels):
        if lab == TAG_O:
            continue
        head = lab[0]
        if head == "S":
            spans.append((lab[2:], i, i))
        elif head == "B":
            start = i
        elif head == "E" and start is not None:
            spans.append((lab[2:], start, i))
            start = None
    return spans


def decode_tags(labels: list[str], text: str) -> tuple[list[str], list[str]]:
    """M12: tag sequence -> (subject strings, object strings), the
    ``tag_spans`` walk read off ``text``."""
    subs: list[str] = []
    objs: list[str] = []
    for role, start, end in tag_spans(labels):
        (subs if "SUB" in role else objs).append(text[start : end + 1])
    return subs, objs


def assemble_spo(
    subs: list[str],
    objs: list[str],
    schema_id: int,
    subject_type: str,
    predicate: str,
    object_type: str,
    dedup: bool = True,
) -> list[dict]:
    """Cartesian product sub x obj -> triple dicts (labeling/predict.py:74-81).

    The reference appends duplicates and relies on set-eval to collapse
    them (calc_pr.py:73-85); we dedup at assembly (D3 semantics,
    SURVEY.md §2.7) keeping first occurrence order.
    """
    out: list[dict] = []
    seen: set[tuple[str, str]] = set()
    for s in subs:
        for o in objs:
            if dedup:
                if (s, o) in seen:
                    continue
                seen.add((s, o))
            out.append(
                {
                    "subject": s,
                    "subject_type": subject_type,
                    "predicate": predicate,
                    "object": o,
                    "object_type": object_type,
                    "schema_id": schema_id,
                }
            )
    return out


def word_tags(
    predicate: str,
    sentence: str,
    postag: list[dict],
    spo_list: list[dict],
) -> list[str]:
    """M8: word-level BIEO tagging refined to char tags — reimplements,
    from behavior, /root/reference/pytorch/analysis/statistic.py:6-102:

    * word start offsets come from cumulative postag word lengths (words
      overrunning the sentence are dropped, statistic.py:33-38);
    * an entity occurrence (regex offsets, case-insensitive) marks every
      word whose START offset falls inside it (cal_item_pos);
    * word-level marks use B/I/E with B for singletons;
    * word marks expand to char tags with the reference's boundary
      lookahead: a B word ends with E unless the next word continues the
      span; an E word starts with I; singleton chars copy the word mark.

    Divergence (documented): the reference IndexErrors when postag words
    overrun the sentence mid-expansion; we stop at the marked prefix.
    """
    word_list = [item["word"] for item in postag]
    token_idx = []
    start_idx = 0
    for w in word_list:
        if start_idx >= len(sentence):
            break
        token_idx.append(start_idx)
        start_idx += len(w)

    marks = [TAG_O] * len(token_idx)
    for spo in spo_list:
        if spo.get("predicate") != predicate:
            continue
        # the reference skips the WHOLE spo when either side has no
        # occurrence (len==0 check on both lists before marking)
        s_occ = [
            idxs for s in find_all(spo.get("subject", ""), sentence)
            if (idxs := [i for i, t in enumerate(token_idx)
                         if s <= t < s + len(spo.get("subject", ""))])
        ]
        o_occ = [
            idxs for s in find_all(spo.get("object", ""), sentence)
            if (idxs := [i for i, t in enumerate(token_idx)
                         if s <= t < s + len(spo.get("object", ""))])
        ]
        if not s_occ or not o_occ:
            continue
        for occ, role in ((s_occ, "SUB"), (o_occ, "OBJ")):
            for idxs in occ:
                marks[idxs[0]] = f"B-{role}"
                if len(idxs) >= 2:
                    marks[idxs[-1]] = f"E-{role}"
                for i in idxs[1:-1]:
                    marks[i] = f"I-{role}"

    # word marks -> char tags with boundary lookahead
    tags: list[str] = []
    for i in range(len(marks)):
        word = word_list[i]
        m = marks[i]
        if len(word) == 1:
            tags.append(m)
            continue
        if m in ("B-SUB", "B-OBJ"):
            role = m[2:]
            start, middle, end = m, f"I-{role}", f"I-{role}"
            nxt = marks[i + 1] if i + 1 < len(marks) else None
            if nxt not in (f"I-{role}", f"E-{role}"):
                end = f"E-{role}"
        elif m in ("E-SUB", "E-OBJ"):
            role = m[2:]
            start, middle, end = f"I-{role}", f"I-{role}", m
        else:
            start = middle = end = m
        tags.append(start)
        tags.extend([middle] * (len(word) - 2))
        tags.append(end)
    return tags


# ---------------------------------------------------------------------------
# Vectorized batch codec — numpy char-mark arrays with EXACTLY the same
# write/decode semantics as the scalar functions above (fuzz-tested
# against them).  Kills the per-char python work in the labeler hot path:
# tag lists are never materialized as python strings; decode touches only
# span *events*, not every character.
# ---------------------------------------------------------------------------

K_O, K_B, K_I, K_E, K_S = 0, 1, 2, 3, 4
R_NONE, R_SUB, R_OBJ = 0, 1, 2
_ROLE_NAME = {R_SUB: "SUB", R_OBJ: "OBJ"}
_KIND_NAME = {K_B: "B", K_I: "I", K_E: "E", K_S: "S"}

import numpy as np  # noqa: E402  (module-level, after the pure-python codec)


def mark_span_np(kind: np.ndarray, role: np.ndarray, start: int, length: int,
                 role_code: int, encoding_type: str = "bieso") -> None:
    """_mark_span on int8 arrays: same shape rules, slice writes instead
    of a per-char loop."""
    if length == 1:
        kind[start] = K_S if encoding_type == "bieso" else K_B
        role[start] = role_code
    elif length == 2:
        kind[start] = K_B
        kind[start + 1] = K_E
        role[start : start + 2] = role_code
    else:
        kind[start] = K_B
        kind[start + length - 1] = K_E
        kind[start + 1 : start + length - 1] = K_I
        role[start : start + length] = role_code


def decode_marks(
    kind: np.ndarray, role: np.ndarray, offsets: np.ndarray, texts: list[str]
) -> list[tuple[list[str], list[str]]]:
    """Vectorized ``decode_tags`` over a batch packed into one char-code
    buffer (row r occupies [offsets[r], offsets[r+1])).

    Semantics replicated exactly: S emits a singleton; each E pairs with
    the LAST B before it, valid only if that B comes after the previous E
    (a valid E consumes the start; reference predict.py:50-71) and after
    the row start; dangling Es are skipped (documented divergence in
    ``decode_tags``).  Cost scales with span EVENTS, not characters.
    """
    n_rows = len(texts)
    # rows with no events share ONE read-only empty tuple (allocating two
    # lists per row cost 5% of the labeler kernel); event rows get fresh
    # lists below.  Callers must treat results as read-only.
    empty: tuple[list[str], list[str]] = ([], [])
    out: list[tuple[list[str], list[str]]] = [empty] * n_rows
    s_pos = np.nonzero(kind == K_S)[0]
    b_pos = np.nonzero(kind == K_B)[0]
    e_pos = np.nonzero(kind == K_E)[0]
    if len(s_pos) == 0 and len(e_pos) == 0:
        return out

    row_of_e = np.searchsorted(offsets, e_pos, "right") - 1
    if len(b_pos) and len(e_pos):
        bidx = np.searchsorted(b_pos, e_pos) - 1
        prev_e = np.concatenate([[-1], e_pos[:-1]])
        thresh = np.maximum(prev_e, offsets[row_of_e] - 1)
        has_b = bidx >= 0
        b_at = np.where(has_b, b_pos[np.clip(bidx, 0, None)], -1)
        valid = has_b & (b_at > thresh)
    else:  # no B anywhere: every E dangles
        b_at = np.full(len(e_pos), -1, np.int64)
        valid = np.zeros(len(e_pos), bool)

    # merge S singletons and valid (B..E) spans in position order per row —
    # all as numpy gathers; emit positions are globally unique (a char is
    # either S or E), so a plain argsort reproduces the event order
    row_of_s = np.searchsorted(offsets, s_pos, "right") - 1
    ev_pos = np.concatenate([s_pos, e_pos[valid]])
    ev_row = np.concatenate([row_of_s, row_of_e[valid]])
    ev_start = np.concatenate([s_pos, b_at[valid]])
    order = np.argsort(ev_pos)
    ev_pos = ev_pos[order]
    ev_row = ev_row[order]
    ev_start = ev_start[order]
    ev_sub = role[ev_pos] == R_SUB
    ev_base = offsets[ev_row]
    for p, r, b, base, is_sub in zip(
        ev_pos.tolist(), ev_row.tolist(), ev_start.tolist(),
        ev_base.tolist(), ev_sub.tolist(),
    ):
        cur = out[r]
        if cur is empty:
            cur = out[r] = ([], [])
        span = texts[r][b - base : p - base + 1]
        (cur[0] if is_sub else cur[1]).append(span)
    return out


def normalize_entity(name: str) -> str:
    """Eval normal form: lower() then strip one enclosing 《》 pair
    (calc_pr.py:41-45 del_bookname composed with .lower())."""
    name = name.lower()
    if name.startswith("《") and name.endswith("》"):
        name = name[1:-1]
    return name
