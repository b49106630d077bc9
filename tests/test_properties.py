"""Property-based tests (hypothesis) for the pure tag codec — the
invariants SURVEY.md §5 calls out: tag->decode round-trips recover planted
spans, every decoded entity is a substring of the text, tag sequences are
always text-length, and the normalizer is idempotent."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from kgray.ops.tagging import (
    decode_tags,
    find_all,
    normalize_entity,
    tags_for_pairs,
)

# CJK-ish + latin alphabet; short alphabet makes collisions (overlapping
# occurrences, sub==obj) likely — exactly the edge cases worth hammering
_ALPHA = "ab甲乙丙丁《》x"
texts = st.text(alphabet=_ALPHA, min_size=1, max_size=40)
entities = st.text(alphabet=_ALPHA.replace("《", "").replace("》", ""),
                   min_size=1, max_size=5)


@given(texts, entities, entities)
@settings(max_examples=300, deadline=None)
def test_tags_length_and_alignment(text, s, o):
    tags = tags_for_pairs(text, [(s, o)])
    assert len(tags) == len(text)


@given(texts, entities, entities)
@settings(max_examples=300, deadline=None)
def test_decoded_entities_are_substrings(text, s, o):
    tags = tags_for_pairs(text, [(s, o)])
    subs, objs = decode_tags(tags, text)
    low = text.lower()
    for e in subs + objs:
        assert e.lower() in low


@given(st.text(alphabet=_ALPHA, min_size=2, max_size=30), entities, entities)
@settings(max_examples=300, deadline=None)
def test_round_trip_recovers_planted_pair(prefix, s, o):
    """If s and o occur in the text and don't overlap each other's
    occurrences, decode must surface them (case-normalized)."""
    text = prefix + s + "的" + o
    tags = tags_for_pairs(text, [(s, o)])
    subs, objs = decode_tags(tags, text)
    if s.lower() != o.lower() and find_all(s, text) and find_all(o, text):
        joined = [e.lower() for e in subs + objs]
        # at least one side must be recovered whenever its span was marked
        if any(t != "O" for t in tags):
            assert joined, (text, s, o, tags)


@given(entities)
@settings(max_examples=200, deadline=None)
def test_normalizer_idempotent(e):
    once = normalize_entity(e)
    assert normalize_entity(once) == once
    assert once == once.lower()


@given(texts, entities)
@settings(max_examples=300, deadline=None)
def test_find_all_offsets_valid(text, sub):
    for i in find_all(sub, text):
        assert text[i:i + len(sub)].lower() == sub.lower()


# ---------------------------------------------------------------------------
# vectorized batch codec == scalar codec (kgray/ops/label.py hot path)
# ---------------------------------------------------------------------------

pair_lists = st.lists(st.tuples(entities, entities), min_size=0, max_size=3)


@given(st.lists(st.tuples(texts, pair_lists), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_decode_marks_matches_scalar_codec(rows):
    """The numpy char-mark write + event decode must reproduce the scalar
    tags_for_pairs -> decode_tags chain bit-for-bit, including overlap
    overwrites, sub==obj odd-occurrence splits and dangling-E skips."""
    import numpy as np

    from kgray.ops.tagging import (
        R_OBJ,
        R_SUB,
        decode_marks,
        mark_span_np,
    )

    texts_ = [t for t, _ in rows]
    lens = np.fromiter((len(t) for t in texts_), np.int64, len(rows))
    offsets = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(lens, out=offsets[1:])
    kind = np.zeros(offsets[-1], np.int8)
    role = np.zeros(offsets[-1], np.int8)
    for r, (text, pairs) in enumerate(rows):
        base = int(offsets[r])
        for sub, obj in pairs:
            s_idx = find_all(sub, text)
            o_idx = find_all(obj, text)
            if sub == obj:
                o_idx = [x for i, x in enumerate(s_idx) if i % 2 == 1]
            for i in s_idx:
                mark_span_np(kind, role, base + i, len(sub), R_SUB, "bieso")
            for i in o_idx:
                mark_span_np(kind, role, base + i, len(obj), R_OBJ, "bieso")
    got = decode_marks(kind, role, offsets, texts_)

    for (text, pairs), (subs, objs) in zip(rows, got):
        tags = tags_for_pairs(text, pairs, "bieso")
        want_subs, want_objs = decode_tags(tags, text)
        assert subs == want_subs, (text, pairs, subs, want_subs)
        assert objs == want_objs, (text, pairs, objs, want_objs)


# ---------------------------------------------------------------------------
# pure-kernel properties for the sketch/bloom/graph additions
# ---------------------------------------------------------------------------

import numpy as np


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40),
                min_size=1, max_size=200, unique=True))
@settings(max_examples=200, deadline=None)
def test_bloom_probe_math_no_false_negatives(keys):
    import pyarrow as pa

    from kgray.ops.bloom import _norm, _probes
    from kgray.ops.sketch import _hash_column

    n_bits, k = 1 << 12, 4
    words = np.zeros(n_bits // 64, np.uint64)
    h = _hash_column(_norm(pa.array(keys, pa.int64())))
    for pos in _probes(h, n_bits, k):
        np.bitwise_or.at(
            words, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )
    from kgray.ops.bloom import bloom_mask

    assert bloom_mask(pa.array(keys, pa.int64()), words, k).all()


@given(st.floats(min_value=1e-6, max_value=1e12,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_ddsketch_bucket_midpoint_within_alpha(x):
    alpha = 0.01
    gamma = (1 + alpha) / (1 - alpha)
    i = int(np.ceil(np.log(x) / np.log(gamma)))
    est = 2.0 * gamma ** i / (gamma + 1.0)
    assert abs(est - x) / x <= alpha * (1 + 1e-9)


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_pagerank_kernel_is_a_distribution(edge_list):
    from kgray.ops.graph import _pagerank_kernel

    pairs = [(u, v) for u, v in edge_list if u != v]
    if not pairs:
        return
    u = np.array([p[0] for p in pairs] + [p[1] for p in pairs], np.int64)
    v = np.array([p[1] for p in pairs] + [p[0] for p in pairs], np.int64)
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    src, dst = inv[: len(u)], inv[len(u):]
    rank = _pagerank_kernel(src, dst, nodes, iters=5, damping=0.85)
    assert (rank > 0).all()
    assert abs(rank.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# composite-key bucket hash (util.bucket_of_multi) — the invariants the
# multi-key join's correctness rests on
# ---------------------------------------------------------------------------

import numpy as np
import pyarrow as pa

keys_ints = st.lists(st.integers(-2**31, 2**31 - 1), min_size=1,
                     max_size=50)
keys_strs = st.lists(st.text(alphabet="abcXYZ09", max_size=6),
                     min_size=1, max_size=50)


@given(keys_ints, keys_strs, st.integers(2, 64))
@settings(max_examples=200, deadline=None)
def test_bucket_of_multi_invariances(ints, strs, buckets):
    from kgray.util import bucket_of_multi

    n = min(len(ints), len(strs))
    ints, strs = ints[:n], strs[:n]
    t1 = pa.table(
        {"a": pa.array(ints, pa.int64()), "b": pa.array(strs)}
    )
    got = bucket_of_multi(t1, ["a", "b"], buckets)
    assert ((got >= 0) & (got < buckets)).all()
    # column-name invariance: the right join side renames its keys
    t2 = pa.table(
        {"x": pa.array(ints, pa.int64()), "y": pa.array(strs)}
    )
    assert (bucket_of_multi(t2, ["x", "y"], buckets) == got).all()
    # int-width invariance: int32 keys must land with their int64 twins
    t3 = pa.table(
        {"a": pa.array(ints, pa.int32()), "b": pa.array(strs)}
    )
    assert (bucket_of_multi(t3, ["a", "b"], buckets) == got).all()
    # chunking invariance: block boundaries must not change the bucket
    if n > 1:
        t4 = pa.table(
            {
                "a": pa.chunked_array(
                    [pa.array(ints[:1], pa.int64()),
                     pa.array(ints[1:], pa.int64())]
                ),
                "b": pa.chunked_array(
                    [pa.array(strs[:1]), pa.array(strs[1:])]
                ),
            }
        )
        assert (bucket_of_multi(t4, ["a", "b"], buckets) == got).all()


@given(st.lists(st.lists(st.text(alphabet="ab甲乙 x", max_size=6), max_size=8),
                max_size=6))
@settings(max_examples=300, deadline=None)
def test_simhash64_batch_matches_scalar(token_lists):
    """The vectorized SimHash equals the scalar reference row by row,
    empty token lists and empty tokens included."""
    from kgray.ops.text import simhash64, simhash64_batch

    got = simhash64_batch(token_lists)
    assert [int(h) for h in got] == [simhash64(t) for t in token_lists]
