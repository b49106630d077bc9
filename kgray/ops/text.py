"""Text-analysis operators for large-scale training-data pipelines.

Beyond-reference ops (per the build brief): token counting, language-ID
heuristic, quality scoring, document fingerprinting.  All vectorized per
batch; no per-row Python in hot paths except where the kernel is
inherently string-iterating (fingerprint), which stays O(len) per doc.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# tiny per-language char profiles for the n-gram language-ID heuristic.
# Declared heuristic (not learned): score(lang) = sum of marker hits.
_LANG_MARKERS = {
    "en": ["the ", " and ", " of "],
    "de": ["der ", " und ", " sch"],
    "fr": [" le ", " de ", " est"],
    "es": [" el ", " de ", "ción"],
    "zh": ["的", "是", "了"],
}

_STOPWORDS = {"the", "a", "and", "of", "to", "in"}


def add_token_count(batch: pa.Table, text_col: str = "text",
                    out_col: str = "n_tokens") -> pa.Table:
    """Whitespace token count (single-space convention, matching the
    ``string_split(text, ' ')`` SQL oracle)."""
    toks = pc.split_pattern(batch[text_col], " ")
    return batch.append_column(out_col, pc.list_value_length(toks).cast(pa.int64()))


def add_avg_token_len(batch: pa.Table, text_col: str = "text",
                      out_col: str = "avg_tok_len", digits: int = 4) -> pa.Table:
    """Quality proxy: chars per token, rounded for oracle comparison."""
    from kgray.util import round_half_up

    n_chars = pc.utf8_length(batch[text_col]).cast(pa.float64())
    n_toks = pc.list_value_length(pc.split_pattern(batch[text_col], " ")).cast(
        pa.float64()
    )
    # numpy half-away-from-zero (SQL ROUND); pc.round can leave one-ulp-off
    # quotients unchanged, mismatching DuckDB's bit pattern
    raw = pc.divide(n_chars, n_toks).to_numpy(zero_copy_only=False)
    ratio = pa.array(round_half_up(raw, digits), pa.float64())
    return batch.append_column(out_col, ratio)


_STOPWORD_SET = pa.array(sorted(_STOPWORDS), pa.string())


def add_stopword_ratio(batch: pa.Table, text_col: str = "text",
                       out_col: str = "stop_ratio", digits: int = 4) -> pa.Table:
    """Fully Arrow/numpy: split -> flat is_in kernel -> per-row sums via
    cumsum differences on the list offsets (no per-row python lambda)."""
    toks = pc.split_pattern(batch[text_col], " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat_stop = pc.is_in(toks.flatten(), value_set=_STOPWORD_SET).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    cs = np.zeros(len(flat_stop) + 1, np.int64)
    np.cumsum(flat_stop, out=cs[1:])
    ends = np.cumsum(lens)
    starts = ends - lens
    hits = cs[ends] - cs[starts]
    raw = hits / np.maximum(lens, 1)
    # half-away-from-zero (SQL ROUND), not python/numpy half-even
    scale = 10.0 ** digits
    ratio = np.floor(raw * scale + 0.5) / scale
    return batch.append_column(out_col, pa.array(ratio, pa.float64()))


def add_langid(batch: pa.Table, text_col: str = "text",
               out_col: str = "lang_pred") -> pa.Table:
    """n-gram marker heuristic; vectorized: one match_substring per marker."""
    text = batch[text_col]
    n = len(batch)
    scores = np.zeros((n, len(_LANG_MARKERS)), np.int32)
    langs = list(_LANG_MARKERS)
    for j, lang in enumerate(langs):
        for marker in _LANG_MARKERS[lang]:
            scores[:, j] += pc.match_substring(text, marker).to_numpy(
                zero_copy_only=False
            )
    arg = scores.argmax(axis=1)
    nohit = scores.max(axis=1) == 0
    best = ["und" if nohit[i] else langs[arg[i]] for i in range(n)]
    return batch.append_column(out_col, pa.array(best, pa.string()))


def fingerprint64(s: str) -> int:
    """FNV-1a rolling document fingerprint (declared, deterministic).
    Inherently a sequential fold per doc; runs on plain python ints (a
    numpy-scalar version was ~8x slower from per-byte uint64 boxing)."""
    h = 14695981039346656037
    for b in s.encode():
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def simhash64(tokens: list[str]) -> int:
    """64-bit SimHash over token crc32x2 hashes (Charikar 2002 shape)."""
    import zlib

    if not tokens:
        return 0
    acc = np.zeros(64, np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for t in tokens:
        h1 = zlib.crc32(t.encode())
        h2 = zlib.crc32(t.encode()[::-1])
        h = np.uint64((h1 << 32) | h2)  # keep in uint64: py-int >> np.arange overflows
        bits = ((h >> shifts) & np.uint64(1)).astype(np.int64)
        acc += 2 * bits - 1
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash64_batch(token_lists: list[list[str]]) -> np.ndarray:
    """Vectorized SimHash for a whole batch: one flat crc pass over every
    token, a single (tokens, 64) bit expansion, per-doc ±1 sums via
    cumsum differences — replaces the per-token 64-wide numpy ops of the
    scalar kernel (which dominated simhash wall time).  Bit-identical to
    ``simhash64`` per row."""
    import zlib

    n = len(token_lists)
    lens = np.fromiter((len(t) for t in token_lists), np.int64, n)
    total = int(lens.sum())
    out = np.zeros(n, np.uint64)
    if total == 0:
        return out
    flat = [t for toks in token_lists for t in toks]
    hv = np.fromiter(
        (
            (zlib.crc32(b) << 32) | zlib.crc32(b[::-1])
            for b in (t.encode() for t in flat)
        ),
        np.uint64,
        total,
    )
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((hv[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int32)
    signed = 2 * bits - 1  # (total, 64) of ±1
    cs = np.zeros((total + 1, 64), np.int64)
    np.cumsum(signed, axis=0, out=cs[1:])
    ends = np.cumsum(lens)
    starts = ends - lens
    acc = cs[ends] - cs[starts]  # (n, 64)
    pos = (acc > 0).astype(np.uint64)
    out = (pos << shifts[None, :]).sum(axis=1, dtype=np.uint64)
    return out


# ---------------------------------------------------------------------------
# TF-IDF top terms (two-pass: vocab-scale df fold, broadcast idf, local score)
# ---------------------------------------------------------------------------

_DOC_COUNT_SENTINEL = "\x00__docs__"


def tfidf_top_terms(docs, k: int = 3, text_col: str = "text",
                    id_col: str = "doc_id", digits: int = 4):
    """Top-``k`` space-split tokens per document by tf-idf
    (score = tf * ln(N / df), ties broken by token ascending).

    Scale shape: pass 1 folds document frequency with a per-batch
    DISTINCT-token combiner (the shuffle moves one row per distinct
    token per batch — vocab-scale, never corpus-scale) and counts N
    through a sentinel token in the same fold, so the corpus is read
    once.  The idf table is built on the driver (vocab-scale; cut with
    a min-df filter before broadcasting if the vocabulary itself is
    huge) with ``math.log`` — C libm, bit-identical to DuckDB's ``ln``,
    where numpy's vectorized log can drift one ulp — and broadcast via
    ``ray.put``.  Pass 2 is embarrassingly parallel: explode, pandas
    groupby-size tf, mapped idf, per-doc head(k) — no shuffle at all.
    """
    import math

    import ray
    from ray.data.aggregate import Sum

    from kgray.util import round_half_up

    def df_partial(batch: pa.Table) -> pa.Table:
        toks = set()
        texts = batch[text_col].to_pylist()
        rows = []
        for t in texts:
            seen = set(t.split(" "))
            for w in seen:
                rows.append(w)
        ser = pd.Series(rows, dtype=object).value_counts() if rows else \
            pd.Series([], dtype=np.int64)
        words = list(ser.index.astype(str)) + [_DOC_COUNT_SENTINEL]
        counts = list(ser.to_numpy(np.int64)) + [len(texts)]
        return pa.table({"token": pa.array(words, pa.string()),
                         "df": pa.array(counts, pa.int64())})

    df_tbl = (
        docs.map_batches(df_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("df", alias_name="df"))
        .to_pandas()  # vocab-scale (distinct tokens), not corpus-scale
    )
    n_docs = float(
        df_tbl.loc[df_tbl["token"] == _DOC_COUNT_SENTINEL, "df"].iloc[0]
    )
    df_tbl = df_tbl[df_tbl["token"] != _DOC_COUNT_SENTINEL]
    idf = pd.Series(
        [math.log(n_docs / d) for d in df_tbl["df"].to_numpy()],
        index=df_tbl["token"].to_numpy(),
    )
    idf_ref = ray.put(idf)

    def score(batch: pa.Table) -> pa.Table:
        idf_s = ray.get(idf_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        tok_lists = [t.split(" ") for t in texts]
        lens = np.fromiter((len(t) for t in tok_lists), np.int64,
                           len(tok_lists))
        flat = pd.DataFrame(
            {
                "doc_id": np.repeat(ids, lens),
                "token": np.concatenate(
                    [np.asarray(t, object) for t in tok_lists]
                ) if len(tok_lists) else np.array([], object),
            }
        )
        tf = flat.groupby(["doc_id", "token"], sort=False).size().reset_index(
            name="tf"
        )
        s = tf["tf"].to_numpy(np.float64) * \
            tf["token"].map(idf_s).to_numpy(np.float64)
        tf = tf.assign(s=s).sort_values(
            ["doc_id", "s", "token"], ascending=[True, False, True],
            kind="mergesort",
        )
        top = tf.groupby("doc_id", sort=False).head(k)
        return pa.table(
            {
                "doc_id": pa.array(top["doc_id"].to_numpy(np.int64)),
                "token": pa.array(top["token"].astype(str), pa.string()),
                "tfidf": pa.array(
                    round_half_up(top["s"].to_numpy(np.float64), digits),
                    pa.float64(),
                ),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def repetition_stats(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id", digits: int = 4) -> pa.Table:
    """Gopher-style repetition quality signals per doc: fraction of
    tokens taken by the single most frequent token, and the fraction of
    duplicated adjacent word-2-grams (1 - distinct/total; 0.0 when the
    doc has fewer than two tokens).  Pure per-batch kernel (pandas
    groupby over the exploded token table) — composes as a stateless
    map stage, no shuffle."""
    from kgray.util import round_half_up

    ids = batch[id_col].to_numpy(zero_copy_only=False)
    texts = batch[text_col].to_pylist()
    tok_lists = [t.split(" ") for t in texts]
    lens = np.fromiter((len(t) for t in tok_lists), np.int64, len(tok_lists))
    flat = pd.DataFrame(
        {
            "i": np.repeat(np.arange(len(ids), dtype=np.int64), lens),
            "token": np.concatenate(
                [np.asarray(t, object) for t in tok_lists]
            ) if len(tok_lists) else np.array([], object),
        }
    )
    tf = flat.groupby(["i", "token"], sort=False).size()
    max_tf = tf.groupby(level="i").max().reindex(
        np.arange(len(ids)), fill_value=0
    ).to_numpy(np.float64)
    top_frac = np.where(lens > 0, max_tf / np.maximum(lens, 1), 0.0)

    # adjacent 2-grams without crossing doc boundaries: pair the exploded
    # token column with its shift, keep same-doc positions, then one
    # groupby size/nunique (tokens never contain the ' ' separator, so
    # the string join is injective)
    dup_frac = np.zeros(len(ids), np.float64)
    if len(flat) >= 2:
        di = flat["i"].to_numpy()
        tok = flat["token"].to_numpy()
        same = di[:-1] == di[1:]
        if same.any():
            pairs = pd.DataFrame(
                {
                    "i": di[:-1][same],
                    "g": pd.Series(tok[:-1][same]).str.cat(
                        pd.Series(tok[1:][same]), sep=" "
                    ),
                }
            )
            per = pairs.groupby("i", sort=False)["g"].agg(["size", "nunique"])
            dup_frac[per.index.to_numpy()] = (
                1.0 - per["nunique"].to_numpy(np.float64)
                / per["size"].to_numpy(np.float64)
            )
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "top_word_frac": pa.array(
                round_half_up(top_frac, digits), pa.float64()
            ),
            "dup_2gram_frac": pa.array(
                round_half_up(dup_frac, digits), pa.float64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# bigram language-model quality scoring (KenLM-style perplexity filter)
# ---------------------------------------------------------------------------

def _explode_bigrams(texts: list[str]):
    """Explode a batch of texts into (row_idx, w1, bigram-'w1 w2') numpy
    arrays without crossing document boundaries (shift-pair trick, same
    as repetition_stats).  Tokens never contain ' ', so the joined gram
    key is injective."""
    tok_lists = [t.split(" ") for t in texts]
    lens = np.fromiter((len(t) for t in tok_lists), np.int64, len(tok_lists))
    flat_i = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    flat_t = (
        np.concatenate([np.asarray(t, object) for t in tok_lists])
        if tok_lists else np.array([], object)
    )
    if len(flat_t) < 2:
        e = np.array([], object)
        return np.array([], np.int64), e, e, flat_i, flat_t
    same = flat_i[:-1] == flat_i[1:]
    w1 = flat_t[:-1][same]
    grams = (
        pd.Series(w1).str.cat(pd.Series(flat_t[1:][same]), sep=" ")
        .to_numpy()
    )
    return flat_i[:-1][same], w1, grams, flat_i, flat_t


def _fold_gram_counts(part) -> pd.DataFrame:
    """Driver-side merge of per-batch (gram, n) combiner outputs.

    The fitted LM is broadcast whole via ``ray.put`` and is therefore
    driver-resident BY CONSTRUCTION — a distributed groupby in front of
    the ``to_pandas()`` only adds a shuffle barrier (measured: 5.1 s of
    an 8.7 s trigram fit at sf0.1 was the groupby).  Partial volume is
    gram-vocab x num-blocks, integer sums are order-exact."""
    df = part.to_pandas()
    g = df.groupby("gram", sort=False)["n"].sum()
    return pd.DataFrame(
        {"gram": g.index.to_numpy(), "n": g.to_numpy(np.int64)}
    )


def fit_bigram_lm(train, text_col: str = "text", min_count: int = 1):
    """Fit an add-one-smoothed bigram LM over a corpus in ONE read.

    Scale shape: a per-batch combiner emits (gram, n) partial counts —
    bigrams as 'w1 w2', unigrams as 'w' (disjoint key spaces: tokens
    cannot contain the separator) — so the shuffle moves one row per
    distinct gram per batch (gram-vocab scale, never corpus scale), and
    one groupby folds them.  The log-prob table is built on the DRIVER
    with ``math.log`` (C libm — bit-identical to DuckDB ``ln``; numpy's
    vectorized log drifts one ulp, see tfidf_top_terms) and is meant to
    be broadcast once via ``ray.put``.  At web scale the bigram table is
    the memory bound: raise ``min_count`` to prune the tail (standard
    KenLM practice); pruned bigrams fall back to the per-context miss
    mass, identical to genuinely-unseen pairs.

    Returns {"lp": Series 'w1 w2'->logP, "miss": Series 'w1'->logP of an
    unseen pair in that context, "lp_unk": float for unseen contexts}.
    """
    import math

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        _, _, grams, _, flat_t = _explode_bigrams(texts)
        ser = pd.concat(
            [pd.Series(grams, dtype=object), pd.Series(flat_t, dtype=object)]
        ).value_counts() if len(flat_t) else pd.Series([], dtype=np.int64)
        return pa.table(
            {
                "gram": pa.array(ser.index.astype(str), pa.string()),
                "n": pa.array(ser.to_numpy(np.int64), pa.int64()),
            }
        )

    counts = _fold_gram_counts(
        train.map_batches(partial, batch_format="pyarrow",
                          batch_size=2048)
    )
    is_bigram = counts["gram"].str.contains(" ", regex=False)
    uni = counts[~is_bigram]
    vocab = float(len(uni))
    bg = counts[is_bigram]
    if min_count > 1:
        bg = bg[bg["n"] >= min_count]
    w1 = bg["gram"].str.split(" ", n=1).str[0]
    ctx = bg.groupby(w1.to_numpy())["n"].sum()  # context totals over kept
    denom = ctx + vocab
    lp = pd.Series(
        [math.log((c + 1.0) / d) for c, d in
         zip(bg["n"].to_numpy(np.float64), w1.map(denom).to_numpy())],
        index=bg["gram"].to_numpy(),
    )
    miss = pd.Series(
        [math.log(1.0 / d) for d in denom.to_numpy(np.float64)],
        index=denom.index.to_numpy(),
    )
    return {"lp": lp, "miss": miss,
            "lp_unk": math.log(1.0 / max(vocab, 1.0))}


def bigram_lm_scores(docs, model=None, text_col: str = "text",
                     id_col: str = "doc_id", digits: int = 4):
    """Per-document mean bigram log-probability (the KenLM-style quality
    signal: low score = unnatural/garbled text).  ``model`` defaults to
    fitting on ``docs`` itself (self-scored corpus); pass a model fit on
    a held-out/train split for filtering semantics.

    The scoring pass is embarrassingly parallel: the model is broadcast
    once (``ray.put``), each batch explodes its bigrams, maps log-probs
    by lookup (seen pair -> per-context miss -> unknown context) and
    folds a per-doc mean — no shuffle on the corpus.  Documents with
    fewer than two tokens emit no row (no bigrams; matches the SQL
    oracle's inner-join semantics)."""
    import ray

    from kgray.util import round_half_up

    if model is None:
        model = fit_bigram_lm(docs, text_col=text_col)
    model_ref = ray.put(model)

    def score(batch: pa.Table) -> pa.Table:
        m = ray.get(model_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        row, w1, grams, _, _ = _explode_bigrams(texts)
        if not len(grams):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "lm_score": pa.array([], pa.float64())})
        lp = pd.Series(grams).map(m["lp"]).to_numpy(np.float64)
        hole = np.isnan(lp)
        if hole.any():
            fallback = pd.Series(w1[hole]).map(m["miss"]).fillna(
                m["lp_unk"]
            ).to_numpy(np.float64)
            lp[hole] = fallback
        per = pd.Series(lp).groupby(row).mean()
        return pa.table(
            {
                "doc_id": pa.array(ids[per.index.to_numpy()], pa.int64()),
                "lm_score": pa.array(
                    round_half_up(per.to_numpy(np.float64), digits),
                    pa.float64(),
                ),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def collocation_pmi(docs, k: int = 20, min_count: int = 5,
                    text_col: str = "text", digits: int = 4):
    """Top-``k`` adjacent-word collocations by pointwise mutual
    information: PMI(a,b) = ln(c(a,b)*T / (c1(a)*c2(b))) over bigram
    occurrences, with position-specific marginals (c1 = count as first
    word, c2 = as second) so everything derives from ONE bigram fold.

    Scale shape: the same combiner fold as ``fit_bigram_lm`` (one row
    per distinct bigram per batch); marginals, T and the PMI table are
    computed on the driver over the folded bigram table, which
    ``min_count`` prunes first (the classic collocation cut — raise it
    at web scale, the heavy-hitter tail is what matters).  ``math.log``
    on the driver keeps DuckDB ``ln`` bit-parity; ties break on
    (w1, w2) ascending."""
    import math

    from ray.data.aggregate import Sum

    from kgray.util import round_half_up

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        _, _, grams, _, _ = _explode_bigrams(texts)
        ser = pd.Series(grams, dtype=object).value_counts() if len(grams) \
            else pd.Series([], dtype=np.int64)
        return pa.table(
            {
                "gram": pa.array(ser.index.astype(str), pa.string()),
                "n": pa.array(ser.to_numpy(np.int64), pa.int64()),
            }
        )

    bg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bigram-vocab scale (min_count-prunable), not corpus
    )
    total = float(bg["n"].sum())
    halves = bg["gram"].str.split(" ", n=1)
    bg = bg.assign(w1=halves.str[0], w2=halves.str[1])
    c1 = bg.groupby("w1")["n"].sum()
    c2 = bg.groupby("w2")["n"].sum()
    kept = bg[bg["n"] >= min_count]
    pmi = np.array(
        [
            math.log((c * total) / (float(a) * float(b)))
            for c, a, b in zip(
                kept["n"].to_numpy(np.float64),
                kept["w1"].map(c1).to_numpy(np.float64),
                kept["w2"].map(c2).to_numpy(np.float64),
            )
        ]
    )
    kept = kept.assign(pmi=pmi).sort_values(
        ["pmi", "w1", "w2"], ascending=[False, True, True], kind="mergesort"
    ).head(k)
    return pa.table(
        {
            "w1": pa.array(kept["w1"].astype(str), pa.string()),
            "w2": pa.array(kept["w2"].astype(str), pa.string()),
            "pmi": pa.array(
                round_half_up(kept["pmi"].to_numpy(np.float64), digits),
                pa.float64(),
            ),
        }
    )


def bpe_train(docs, num_merges: int = 50, text_col: str = "text",
              min_freq: int = 1):
    """Byte-pair-encoding tokenizer training (Sennrich et al. 2016,
    the algorithm behind GPT-2/RoBERTa vocabularies; the reference's
    WordPiece vocab — ``legacy/labeling/bert`` — is the sibling scheme
    this engine tokenizes with in ops/wordpiece.py).

    The ONLY corpus-scale work is the distributed word-frequency fold
    (per-batch value_counts combiner -> one Sum groupby): standard BPE
    trains on the word-frequency TABLE, never the corpus, so the merge
    loop runs on the driver over vocab-scale state (~380k distinct
    words at the reference's corpus size) exactly like the CC round /
    quantile-fold driver steps elsewhere.  Ties break deterministically
    by (freq DESC, pair lexicographic ASC).

    Returns an Arrow table (rank, left, right, freq) — the ordered
    merge list that defines the learned tokenizer.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([text_col]).to_pandas()
        words = (
            df[text_col].str.split(" ").explode()
        )
        words = words[words != ""]
        vc = words.value_counts()
        return pa.table(
            {
                "w": pa.array(vc.index.astype(str), pa.string()),
                "n": pa.array(vc.to_numpy(np.int64), pa.int64()),
            }
        )

    counts = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    counts = counts[counts["n"] >= min_freq]

    words: dict[tuple, int] = {}
    for w, c in zip(counts["w"], counts["n"]):
        sym = tuple(list(w) + ["</w>"])
        words[sym] = words.get(sym, 0) + int(c)

    ranks, lefts, rights, freqs = [], [], [], []
    for rank in range(num_merges):
        pairs: dict[tuple, int] = {}
        for sym, c in words.items():
            for a, b in zip(sym, sym[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + c
        if not pairs:
            break
        (a, b), freq = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        ab = a + b
        merged: dict[tuple, int] = {}
        for sym, c in words.items():
            out = []
            i = 0
            while i < len(sym):
                if i < len(sym) - 1 and sym[i] == a and sym[i + 1] == b:
                    out.append(ab)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            t = tuple(out)
            merged[t] = merged.get(t, 0) + c
        words = merged
        ranks.append(rank)
        lefts.append(a)
        rights.append(b)
        freqs.append(freq)

    return pa.table(
        {
            "rank": pa.array(ranks, pa.int64()),
            "left": pa.array(lefts, pa.string()),
            "right": pa.array(rights, pa.string()),
            "freq": pa.array(freqs, pa.int64()),
        }
    )


# --- PII redaction -----------------------------------------------------------
# Patterns are deliberately ASCII-explicit so Python re and DuckDB's RE2
# agree character-for-character (reference: the token_stats_bpe \w lesson —
# Unicode-aware classes diverge between engines).  Compiled once at import;
# map_batches tasks reuse them (no per-batch compile).

import re as _re

_PII_EMAIL = _re.compile(r"[A-Za-z0-9._]+@[A-Za-z0-9.]+")
_PII_PHONE = _re.compile(r"[0-9]{3}-[0-9]{3,4}")
PII_EMAIL_SQL = "[A-Za-z0-9._]+@[A-Za-z0-9.]+"
PII_PHONE_SQL = "[0-9]{3}-[0-9]{3,4}"


def redact_pii(batch: pa.Table, text_col: str = "text",
               out_col: str = "red") -> pa.Table:
    """Mask email addresses and phone-shaped digit runs, and count the
    hits.  Greedy character-class quantifiers behave identically under
    Python re and RE2, so the DuckDB regexp_replace oracle is exact.
    Emails are replaced BEFORE phones (an email local part can contain
    a phone-shaped run; the oracle applies the same order)."""
    texts = batch[text_col].to_pylist()
    red, n_pii = [], []
    for t in texts:
        t = t or ""
        ne = len(_PII_EMAIL.findall(t))
        s = _PII_EMAIL.sub("<EMAIL>", t)
        np_ = len(_PII_PHONE.findall(s))
        s = _PII_PHONE.sub("<PHONE>", s)
        red.append(s)
        n_pii.append(ne + np_)
    return batch.append_column(
        out_col, pa.array(red, pa.string())
    ).append_column("n_pii", pa.array(n_pii, pa.int64()))


def _explode_trigrams(texts: list[str]):
    """(row_idx, w1, 'w1 w2', 'w2 w3', 'w1 w2 w3', w3) arrays without
    crossing doc boundaries — the two-shift extension of
    ``_explode_bigrams`` (tokens never contain ' ', keys injective)."""
    tok_lists = [t.split(" ") for t in texts]
    lens = np.fromiter((len(t) for t in tok_lists), np.int64, len(tok_lists))
    flat_i = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    flat_t = (
        np.concatenate([np.asarray(t, object) for t in tok_lists])
        if tok_lists else np.array([], object)
    )
    if len(flat_t) < 3:
        e = np.array([], object)
        return np.array([], np.int64), e, e, e, e
    same = (flat_i[:-2] == flat_i[1:-1]) & (flat_i[:-2] == flat_i[2:])
    a = flat_t[:-2][same]
    b = flat_t[1:-1][same]
    c = flat_t[2:][same]
    ab = pd.Series(a).str.cat(pd.Series(b), sep=" ").to_numpy()
    bc = pd.Series(b).str.cat(pd.Series(c), sep=" ").to_numpy()
    abc = pd.Series(ab).str.cat(pd.Series(c), sep=" ").to_numpy()
    return flat_i[:-2][same], ab, bc, abc, c


def fit_trigram_lm(train, text_col: str = "text"):
    """Count tables for an interpolated trigram LM in ONE read: the
    per-batch combiner emits (gram, n) rows for trigrams ('w1 w2 w3'),
    bigrams ('w1 w2') and unigrams ('w') — disjoint key spaces by space
    count — so the shuffle moves gram-vocab-scale rows, never corpus
    scale (the fit_bigram_lm shape, one order higher).  Returns plain
    count Series plus the total token count; the probability mixing and
    libm-log happen at SCORE time so the tables stay pure integers
    (broadcast-friendly, resumable)."""

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        rows, ab, _bc, abc, _c = _explode_trigrams(texts)
        toks = pd.Series(
            np.concatenate([t.split(" ") for t in texts])
            if texts else np.array([], object),
            dtype=object,
        )
        # bigram counts must cover the LAST position too (w2 w3 lookups),
        # so count ALL adjacent bigrams, not just trigram-leading ones
        _, _w1, bg, _, _ = _explode_bigrams(texts)
        ser = pd.concat(
            [pd.Series(abc, dtype=object), pd.Series(bg, dtype=object),
             toks]
        ).value_counts() if len(toks) else pd.Series([], dtype=np.int64)
        return pa.table(
            {
                "gram": pa.array(ser.index.astype(str), pa.string()),
                "n": pa.array(ser.to_numpy(np.int64), pa.int64()),
            }
        )

    counts = _fold_gram_counts(
        train.map_batches(partial, batch_format="pyarrow",
                          batch_size=2048)
    )
    spaces = counts["gram"].str.count(" ")
    uni = counts[spaces == 0]
    bi = counts[spaces == 1]
    tri = counts[spaces == 2]
    t_total = int(uni["n"].sum())
    return {
        "uni": pd.Series(uni["n"].to_numpy(np.int64),
                         index=uni["gram"].to_numpy()),
        "bi": pd.Series(bi["n"].to_numpy(np.int64),
                        index=bi["gram"].to_numpy()),
        "tri": pd.Series(tri["n"].to_numpy(np.int64),
                         index=tri["gram"].to_numpy()),
        "total": t_total,
    }


def trigram_lm_scores(docs, model=None, text_col: str = "text",
                      id_col: str = "doc_id", digits: int = 4,
                      lambdas=(0.6, 0.3, 0.1)):
    """Per-document mean interpolated trigram log-probability:
    p(w3|w1 w2) = l3*c(w1w2w3)/c(w1w2) + l2*c(w2w3)/c(w2) + l1*c(w3)/T,
    the Jelinek-Mercer mixture.  Self-scored by default (every unigram
    seen, so p > 0); the mixture is evaluated with the IDENTICAL
    left-to-right expression as the SQL oracle, and ln is ``math.log``
    memoized per distinct probability double (C libm == DuckDB ln; the
    doc_entropy lesson).  Scoring is shuffle-free: model broadcast once,
    per-batch lookups + a per-doc mean.  Docs with < 3 tokens emit no
    row (no trigram positions — matches the oracle's join)."""
    import math

    import ray

    from kgray.util import round_half_up

    if model is None:
        model = fit_trigram_lm(docs, text_col=text_col)
    model_ref = ray.put(model)
    l3, l2, l1 = lambdas

    def score(batch: pa.Table) -> pa.Table:
        m = ray.get(model_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        rows, ab, bc, abc, w3 = _explode_trigrams(texts)
        if not len(abc):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "lm3_score": pa.array([], pa.float64())})
        c_abc = pd.Series(abc).map(m["tri"]).fillna(0.0).to_numpy(np.float64)
        c_ab = pd.Series(ab).map(m["bi"]).fillna(0.0).to_numpy(np.float64)
        c_bc = pd.Series(bc).map(m["bi"]).fillna(0.0).to_numpy(np.float64)
        w2 = pd.Series(bc).str.split(" ", n=1).str[0]
        c_w2 = w2.map(m["uni"]).fillna(0.0).to_numpy(np.float64)
        c_w3 = pd.Series(w3).map(m["uni"]).fillna(0.0).to_numpy(np.float64)
        tot = float(m["total"])
        p3 = np.divide(c_abc, c_ab, out=np.zeros_like(c_abc),
                       where=c_ab > 0)
        p2 = np.divide(c_bc, c_w2, out=np.zeros_like(c_bc),
                       where=c_w2 > 0)
        p1 = c_w3 / tot
        p = l3 * p3 + l2 * p2 + l1 * p1
        memo: dict[float, float] = {}

        def _ln(x: float) -> float:
            v = memo.get(x)
            if v is None:
                v = math.log(x)
                memo[x] = v
            return v

        lp = np.fromiter((_ln(x) for x in p), np.float64, len(p))
        per = pd.Series(lp).groupby(rows).mean()
        return pa.table(
            {
                "doc_id": pa.array(ids[per.index.to_numpy()], pa.int64()),
                "lm3_score": pa.array(
                    round_half_up(per.to_numpy(np.float64), digits),
                    pa.float64(),
                ),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def bpe_apply_word(word: str, rank_of: dict) -> list[str]:
    """Encode ONE word with a trained merge table (greedy lowest-rank
    merge first — the standard BPE inference loop, matching how
    :func:`bpe_train`'s merge order defines the tokenizer).  Pure
    function of (word, merges); callers memoize per distinct word."""
    sym = list(word) + ["</w>"]
    while len(sym) > 1:
        best, bi = None, -1
        for i in range(len(sym) - 1):
            r = rank_of.get((sym[i], sym[i + 1]))
            if r is not None and (best is None or r < best):
                best, bi = r, i
        if best is None:
            break
        a, b = sym[bi], sym[bi + 1]
        ab = a + b
        out, i = [], 0
        while i < len(sym):
            if i < len(sym) - 1 and sym[i] == a and sym[i + 1] == b:
                out.append(ab)
                i += 2
            else:
                out.append(sym[i])
                i += 1
        sym = out
    return sym


def bpe_encode_stats(docs, merges, text_col: str = "text",
                     group_col: str = "lang"):
    """Apply a trained BPE merge table to the corpus and fold per-group
    tokenizer statistics (word count, BPE token count — fertility =
    tokens/words is the standard tokenizer-quality metric).  The merge
    table is vocab-scale: shipped ONCE via ray.put and turned into a
    (left, right) -> rank dict per task; encoding memoizes per DISTINCT
    word (Zipf makes the hit rate high), so the scan is one stateless
    shuffle-free pass + a group-scale combiner fold.  No SQL oracle
    (BPE inference is not SQL-expressible): pinned by Sennrich-example
    and round-trip property tests instead."""
    import ray

    from kgray.util import collect_table

    mt = merges if isinstance(merges, pa.Table) else collect_table(merges)
    order = np.argsort(mt["rank"].to_numpy(zero_copy_only=False))
    lefts = np.asarray(mt["left"].to_pylist(), object)[order]
    rights = np.asarray(mt["right"].to_pylist(), object)[order]
    merges_ref = ray.put(list(zip(lefts.tolist(), rights.tolist())))

    def encode(batch: pa.Table) -> pa.Table:
        pairs = ray.get(merges_ref)
        rank_of = {p: i for i, p in enumerate(pairs)}
        cache: dict = {}
        groups = batch[group_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        nw = np.zeros(len(texts), np.int64)
        nt = np.zeros(len(texts), np.int64)
        for i, t in enumerate(texts):
            words = [w for w in t.split(" ") if w]
            nw[i] = len(words)
            tot = 0
            for w in words:
                got = cache.get(w)
                if got is None:
                    got = cache[w] = len(bpe_apply_word(w, rank_of))
                tot += got
            nt[i] = tot
        df = pd.DataFrame({group_col: groups, "w": nw, "t": nt})
        g = df.groupby(group_col, sort=False).agg(
            n_docs=("w", "size"), n_words=("w", "sum"),
            n_tokens=("t", "sum"),
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from kgray.ops.agg import pre_aggregate

    return pre_aggregate(
        docs.map_batches(encode, batch_format="pyarrow"),
        [group_col],
        {"n_docs": ("n_docs", "sum"), "n_words": ("n_words", "sum"),
         "n_tokens": ("n_tokens", "sum")},
    )
