"""Property tests (hypothesis) for ``util.pairs_within_groups``, the one
pair kernel behind LSH-bucket linking, MinHash/SimHash/set-Jaccard
near-dup and the wedge pass: the vectorized segment-offset kernel must
emit exactly the pairs of the reference group-loop kernel kept below,
and with ``anchors`` exactly the reference pairs that touch an anchor."""

from collections import Counter

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from kgray.util import pairs_within_groups


def _reference(df, key, val, max_block, dtype="int64", key_out=None):
    """The group-loop kernel: sort each group's distinct values and
    enumerate (i < j) member pairs group by group."""
    sub = df[[key, val]].drop_duplicates()
    sizes = sub.groupby(key, sort=False)[val].transform("size")
    sub = sub[(sizes >= 2) & (sizes <= max_block)]
    us, vs, ks = [], [], []
    for k, g in sub.groupby(key, sort=False):
        members = np.sort(g[val].to_numpy())
        n = len(members)
        iu = np.repeat(np.arange(n), n - np.arange(n) - 1)
        jv = np.concatenate([np.arange(i + 1, n) for i in range(n)])
        us.append(members[iu])
        vs.append(members[jv])
        if key_out is not None:
            ks.append(np.full(len(iu), k))
    if us:
        out = pd.DataFrame(
            {
                "u": pd.array(np.concatenate(us), dtype=dtype),
                "v": pd.array(np.concatenate(vs), dtype=dtype),
            }
        )
        if key_out is not None:
            out[key_out] = np.concatenate(ks)
        return out
    out = pd.DataFrame(
        {"u": pd.array([], dtype=dtype), "v": pd.array([], dtype=dtype)}
    )
    if key_out is not None:
        out[key_out] = np.array([], dtype=df[key].dtype)
    return out


def _rows(df) -> Counter:
    return Counter(map(tuple, df.astype(object).values.tolist()))


def _assert_same(got, want):
    assert list(got.columns) == list(want.columns)
    assert list(got.dtypes) == list(want.dtypes)
    assert _rows(got) == _rows(want)


# few keys and values, so groups of several members, singleton groups
# and duplicate (key, value) rows all occur
_pairs = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 15)), min_size=0, max_size=60
)


@st.composite
def frames(draw):
    """(df, dtype, max_block, key_out): int64 or string values, int or
    string keys, max_block at 1, 2, a group's exact size or unbounded."""
    rows = draw(_pairs)
    keys = [k for k, _ in rows]
    vals = [v for _, v in rows]
    if draw(st.booleans()):
        dtype = "string"
        vals = pd.array([f"人物\x1fname{v}" for v in vals], dtype="string")
        if draw(st.booleans()):
            keys = [f"band{k}" for k in keys]
    else:
        dtype = "int64"
        vals = np.asarray(vals, np.int64)
    df = pd.DataFrame({"k": np.asarray(keys, dtype=object if keys and
                                       isinstance(keys[0], str)
                                       else np.int64),
                       "x": vals})
    sizes = sorted(set(df.drop_duplicates().groupby("k").size()))
    max_block = draw(st.sampled_from([1, 2, 1000] + sizes))
    key_out = draw(st.sampled_from([None, "center"]))
    return df, dtype, max_block, key_out


@given(frames())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_group_loop(case):
    df, dtype, max_block, key_out = case
    _assert_same(
        pairs_within_groups(df, "k", "x", max_block, dtype=dtype,
                            key_out=key_out),
        _reference(df, "k", "x", max_block, dtype=dtype, key_out=key_out),
    )


@given(frames(), st.data())
@settings(max_examples=300, deadline=None)
def test_anchors_equal_filtered_group_loop(case, data):
    df, dtype, max_block, key_out = case
    values = sorted(set(df["x"].tolist()))
    absent = "人物\x1fabsent" if dtype == "string" else 10_000
    anchors = data.draw(st.one_of(
        st.just(set()),                       # no anchor: no pair
        st.just({absent}),                    # only values not in df
        st.just(set(values)),                 # every value
        st.sets(st.sampled_from(values)) if values else st.just(set()),
    ))
    if data.draw(st.booleans()):
        anchors = anchors | {absent}
    want = _reference(df, "k", "x", max_block, dtype=dtype, key_out=key_out)
    want = want[want["u"].isin(anchors) | want["v"].isin(anchors)]
    got = pairs_within_groups(df, "k", "x", max_block, dtype=dtype,
                              key_out=key_out, anchors=frozenset(anchors))
    _assert_same(got, want)
    # each pair is ordered (min, max); an anchor-anchor pair is not
    # repeated within its group (the multiset equality above)
    assert (got["u"] < got["v"]).all()


def test_empty_frame_keeps_columns_and_dtypes():
    for dtype, vals in (("int64", np.array([], np.int64)),
                        ("string", pd.array([], dtype="string"))):
        df = pd.DataFrame({"k": np.array([], np.int64), "x": vals})
        for anchors in (None, frozenset()):
            _assert_same(
                pairs_within_groups(df, "k", "x", 8, dtype=dtype,
                                    key_out="center", anchors=anchors),
                _reference(df, "k", "x", 8, dtype=dtype, key_out="center"),
            )


def test_hand_case_order_and_anchor_pairs():
    """Groups in first-appearance order, values ascending within each;
    an anchor pairs with every other member of its groups, and a pair of
    two anchors appears once."""
    df = pd.DataFrame({"k": [7, 7, 3, 7, 3, 9, 7],
                       "x": [30, 10, 5, 20, 1, 4, 10]})
    full = pairs_within_groups(df, "k", "x", 8, key_out="k")
    assert full.values.tolist() == [
        [10, 20, 7], [10, 30, 7], [20, 30, 7], [1, 5, 3]]
    anchored = pairs_within_groups(df, "k", "x", 8, anchors={10, 30})
    assert anchored.values.tolist() == [[10, 20], [10, 30], [20, 30]]
    assert pairs_within_groups(df, "k", "x", 2, anchors={5}) \
        .values.tolist() == [[1, 5]]
