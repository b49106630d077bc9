"""Round-4 LLM-data operators: DSIR importance weights, k-core peeling,
adjacency-Jaccard link prediction, k-anonymity audit."""

import numpy as np
import pyarrow as pa
import pytest
import ray


def _docs_ds(rows):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
                "lang": pa.array([r[2] for r in rows], pa.string()),
            }
        )
    )


def test_dsir_ranks_target_like_docs_higher(ray_session):
    from kgray.ops.dsir import dsir_weights

    # target (en) docs use one vocabulary, raw-only (xx) another;
    # a held-out en-looking doc must outweigh an xx-looking one
    rows = []
    for i in range(20):
        rows.append((i, "alpha beta gamma delta", "en"))
    for i in range(20, 40):
        rows.append((i, "zork quux blarg frobnitz", "xx"))
    rows.append((100, "alpha beta alpha gamma", "xx"))   # en-looking held out
    rows.append((101, "zork quux zork blarg", "xx"))     # xx-looking
    out = dsir_weights(_docs_ds(rows), "lang", "en", B=256).to_pandas()
    w = dict(zip(out["doc_id"], out["w_micro"]))
    assert w[100] > 0 > w[101]
    # weights are pure integers -> rerun is bit-identical
    out2 = dsir_weights(_docs_ds(rows), "lang", "en", B=256).to_pandas()
    assert dict(zip(out2["doc_id"], out2["w_micro"])) == w


def test_dsir_weight_is_sum_of_bucket_logratios(ray_session):
    """Hand-check one doc against the published formula."""
    import hashlib
    import math

    from kgray.ops.dsir import dsir_weights

    rows = [(0, "a b", "en"), (1, "a c", "xx")]
    B = 64
    out = dsir_weights(_docs_ds(rows), "lang", "en", B=B).to_pandas()
    bkt = {t: int(hashlib.md5(t.encode()).hexdigest()[:13], 16) % B
           for t in "abc"}
    ct = {bkt["a"]: 1, bkt["b"]: 1}
    cr = {bkt["a"]: 2, bkt["b"]: 1, bkt["c"]: 1}
    tt, tr, hb = 2.0, 4.0, 0.5 * B

    def lam(b):
        x = (math.log((ct.get(b, 0) + 0.5) / (tt + hb))
             - math.log((cr.get(b, 0) + 0.5) / (tr + hb))) * 1e6
        return int(math.floor(x + 0.5))

    w = dict(zip(out["doc_id"], out["w_micro"]))
    assert w[0] == lam(bkt["a"]) + lam(bkt["b"])
    assert w[1] == lam(bkt["a"]) + lam(bkt["c"])


def _edges_ds(pairs):
    return ray.data.from_arrow(
        pa.table(
            {
                "u": pa.array([p[0] for p in pairs], pa.int64()),
                "v": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )
    )


# a 4-clique (0-3) with pendant nodes 10,11 hanging off it: the 3-core
# is exactly the clique; pendants peel in round 1
_KCORE_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                (0, 10), (1, 11)]


def test_kcore_peels_to_the_clique(ray_session):
    from kgray.ops.graph import kcore

    out = kcore(_edges_ds(_KCORE_EDGES), k=3, rounds=4).to_pandas()
    got = dict(zip(out["node"], out["deg"]))
    assert got == {0: 3, 1: 3, 2: 3, 3: 3}


def test_kcore_paths_agree(ray_session, monkeypatch):
    from kgray.ops.graph import kcore

    a = kcore(_edges_ds(_KCORE_EDGES), k=3, rounds=4).to_pandas()
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    b = kcore(_edges_ds(_KCORE_EDGES), k=3, rounds=4).to_pandas()
    sa = sorted(map(tuple, a.to_numpy()))
    sb = sorted(map(tuple, b.to_numpy()))
    assert sa == sb


def test_kcore_fixed_rounds_short_of_convergence(ray_session, monkeypatch):
    """A peel chain needs 2 rounds; rounds=1 must stop mid-peel the same
    way on both paths (the oracle-by-construction contract)."""
    from kgray.ops.graph import kcore

    # path 20-21-0: 21 peels at round 1 (deg 2 < 3)? build a chain where
    # removing a leaf drops its neighbor below k next round
    edges = _KCORE_EDGES + [(3, 12), (12, 13)]
    one = kcore(_edges_ds(edges), k=2, rounds=1).to_pandas()
    two = kcore(_edges_ds(edges), k=2, rounds=2).to_pandas()
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    one_d = kcore(_edges_ds(edges), k=2, rounds=1).to_pandas()
    assert sorted(map(tuple, one.to_numpy())) == \
        sorted(map(tuple, one_d.to_numpy()))
    # round 2 strictly shrinks: node 12 loses its leaf 13 in round 1,
    # then falls below k
    assert set(two["node"]) < set(one["node"])


def test_set_jaccard_pairs_matches_brute(ray_session):
    from kgray.ops.dedup import set_jaccard_pairs

    sets = {1: {10, 11, 12}, 2: {10, 11, 13}, 3: {20, 21}, 4: {10, 20}}
    exploded = ray.data.from_arrow(
        pa.table(
            {
                "shingle": pa.array(
                    [t for s, ts in sets.items() for t in ts], pa.int64()
                ),
                "doc": pa.array(
                    [s for s, ts in sets.items() for _ in ts], pa.int64()
                ),
            }
        )
    )
    counts = ray.data.from_arrow(
        pa.table(
            {
                "doc": pa.array(list(sets), pa.int64()),
                "nsh": pa.array([len(v) for v in sets.values()], pa.int64()),
            }
        )
    )
    out = set_jaccard_pairs(exploded, counts, n_items=4, tau=0.2).to_pandas()
    got = {(r.u, r.v): r.jac for r in out.itertuples()}
    brute = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            j = len(sets[a] & sets[b]) / len(sets[a] | sets[b])
            if j >= 0.2:
                brute[(a, b)] = round(j, 4)
    assert got == brute


def test_kanon_flags_small_groups(ray_session):
    from kgray.queries import q_kanon_audit

    out = q_kanon_audit("/root/testdata/sf0.001").to_pandas()
    assert ((out["n"] < 5) == (out["at_risk"] == 1)).all()
    assert out["n"].sum() == 500  # sf0.001 documents row count


def test_minhash_cross_pairs_planted(ray_session):
    """Planted near-dup across corpora is found; within-corpus dups and
    cross non-dups are not reported."""
    from kgray.ops.dedup import minhash_cross_pairs

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 4
    left = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                # 1 is the planted dup of right-side 10; 2 is its
                # WITHIN-left dup (must not appear in cross output)
                "text": pa.array([base, base + "mu"], pa.string()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([10, 11], pa.int64()),
                "text": pa.array(
                    [base + "nu", "totally different words here " * 8],
                    pa.string(),
                ),
            }
        )
    )
    out = minhash_cross_pairs(left, right, tau=0.7).to_pandas()
    got = set(zip(out["u"], out["v"]))
    assert (1, 10) in got and (2, 10) in got
    assert all(v in (10, 11) and u in (1, 2) for u, v in got)
    assert not any(v == 11 for _, v in got)


def _random_sets(seed, n_items=60, universe=120, lo=3, hi=25):
    import random

    rng = random.Random(seed)
    sets = {}
    for i in range(n_items):
        k = rng.randint(lo, hi)
        sets[i] = set(rng.sample(range(universe), k))
    # plant near-dup clusters so tau-survivors exist
    for b in (0, 1, 2):
        base = sets[b]
        sets[100 + b] = set(base)
        dup = set(base)
        if len(dup) > 2:
            dup.discard(next(iter(dup)))
        sets[200 + b] = dup
    return sets


def _exploded_of(sets):
    return ray.data.from_arrow(
        pa.table(
            {
                "shingle": pa.array(
                    [f"t{t}" for s, ts in sorted(sets.items())
                     for t in sorted(ts)], pa.string()
                ),
                "doc": pa.array(
                    [s for s, ts in sorted(sets.items())
                     for _ in ts], pa.int64()
                ),
            }
        )
    )


@pytest.mark.parametrize("tau", [0.5, 0.8])
@pytest.mark.parametrize("seed", [7, 11])
def test_prefix_join_paths_agree(ray_session, tau, seed):
    """The inverted-index path == brute force."""
    from kgray.ops.dedup import set_jaccard_pairs

    sets = _random_sets(seed)
    exploded = _exploded_of(sets)
    counts = ray.data.from_arrow(
        pa.table(
            {
                "doc": pa.array(sorted(sets), pa.int64()),
                "nsh": pa.array(
                    [len(sets[s]) for s in sorted(sets)], pa.int64()
                ),
            }
        )
    )
    got_i = set_jaccard_pairs(exploded, counts, n_items=len(sets),
                              tau=tau).to_pandas()
    key = lambda df: sorted(zip(df["u"], df["v"], df["jac"]))
    brute = []
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            j = len(sets[a] & sets[b]) / len(sets[a] | sets[b])
            if j >= tau:
                brute.append((a, b, round(j, 4)))
    assert key(got_i) == sorted(brute)
