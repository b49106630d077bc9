"""Property-based differential tests for the session-22 generic
operators: interval_join against the O(n^2) overlap definition, and
greedy_matching's in-process kernel against a literal sequential
reference of the mutual-min-edge round — random small graphs/interval
sets hammer the candidate-range and drop logic nobody hand-picks."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ivals = st.lists(
    st.tuples(st.integers(1, 3),        # key
              st.integers(0, 40),       # start
              st.integers(0, 15)),      # length
    min_size=1, max_size=14)

edges_strat = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    min_size=1, max_size=20)


def _brute_overlaps(left, right):
    out = set()
    for i, (kl, sl, ll) in enumerate(left):
        for j, (kr, sr, lr) in enumerate(right):
            if kl == kr and sl <= sr + lr and sr <= sl + ll:
                out.add((kl, i, j,
                         min(sl + ll, sr + lr) - max(sl, sr)))
    return out


@given(ivals, ivals)
@settings(max_examples=25, deadline=None)
def test_interval_join_matches_brute_force(left, right):
    import ray.data as rd

    from kgray.ops.joins import interval_join

    def ds(rows):
        return rd.from_pandas(pd.DataFrame(
            {"k": [r[0] for r in rows],
             "sid": np.arange(len(rows), dtype=np.int64),
             "s": [r[1] for r in rows],
             "e": [r[1] + r[2] for r in rows]}))

    got = interval_join(ds(left), ds(right), "k",
                        l_id="sid", r_id="sid").to_pandas()
    got_set = {(r.k, r.l_id, r.r_id, r.ov) for r in got.itertuples()}
    assert got_set == _brute_overlaps(left, right)


vals_strat = st.lists(st.integers(0, 60), min_size=1, max_size=25)


@given(vals_strat, st.integers(1, 7))
@settings(max_examples=25, deadline=None)
def test_band_self_join_matches_brute_force(vals, delta):
    import ray.data as rd

    from kgray.ops.joins import band_self_join

    ds = rd.from_pandas(pd.DataFrame(
        {"k": np.arange(len(vals), dtype=np.int64), "c": vals}))
    got = band_self_join(ds, "k", "c", delta).to_pandas()
    got_set = {(r.u, r.v, r.d, r.vmin) for r in got.itertuples()}
    want = set()
    for a in range(len(vals)):
        for b in range(a + 1, len(vals)):
            if abs(vals[a] - vals[b]) <= delta:
                want.add((min(a, b), max(a, b),
                          abs(vals[a] - vals[b]),
                          min(vals[a], vals[b])))
    assert got_set == want


def _brute_matching(pairs, rounds=3):
    e = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    out = set()
    for r in range(1, rounds + 1):
        if not e:
            break
        nm = {}
        for u, v in e:
            eid = (u, v)
            for n in (u, v):
                if n not in nm or eid < nm[n]:
                    nm[n] = eid
        m = [(u, v) for u, v in e if nm[u] == (u, v) and nm[v] == (u, v)]
        if not m:
            break
        out |= {(u, v, r) for u, v in m}
        dead = {n for uv in m for n in uv}
        e = [(u, v) for u, v in e if u not in dead and v not in dead]
    return out


@given(edges_strat)
@settings(max_examples=25, deadline=None)
def test_greedy_matching_matches_sequential_reference(pairs):
    import ray.data as rd

    from kgray.ops.graph import greedy_matching

    got = greedy_matching(rd.from_pandas(pd.DataFrame(
        {"u": [p[0] for p in pairs],
         "v": [p[1] for p in pairs]}))).to_pandas()
    got_set = {(r.u, r.v, r.round) for r in got.itertuples()}
    assert got_set == _brute_matching(pairs)


def _random_multigraph(seed):
    """10-15 nodes, 40-60 edges, self-loops and duplicates included."""
    rs = np.random.RandomState(seed)
    n, m = rs.randint(10, 16), rs.randint(40, 61)
    return pd.DataFrame({"u": rs.randint(0, n, m), "v": rs.randint(0, n, m)})


# each seed's rounds bucket_join a filtered, projected side (its Dataset
# schema must not list the dropped ``me``); seed 6 also bucket_joins an
# empty, schema-less left side
@pytest.mark.parametrize("seed", [0, 1, 4, 6])
def test_greedy_matching_partitioned_path_matches_in_process(seed,
                                                             monkeypatch):
    """The partitioned rounds (bucket joins + anti semi-joins) give the
    in-process kernel's matching, rounds included."""
    import ray.data as rd

    from kgray.ops.graph import greedy_matching

    edges = _random_multigraph(seed)

    def matching():
        out = greedy_matching(rd.from_pandas(edges)).to_pandas()
        return sorted(map(tuple, out[["u", "v", "round"]].to_numpy().tolist()))

    want = matching()
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    assert matching() == want
