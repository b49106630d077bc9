"""Distributed Bloom filter + bloom-prefiltered semi/anti join
(ops/bloom.py, joins.semi_join big-big path)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from kgray.ops.bloom import bloom_mask, build_bloom
from kgray.ops.joins import semi_join


def test_bloom_no_false_negatives_and_low_fp(ray_session):
    rng = np.random.default_rng(7)
    keys = rng.choice(1_000_000, size=20_000, replace=False).astype(np.int64)
    ds = rd.from_pandas(pd.DataFrame({"k": keys}), override_num_blocks=6)
    words = build_bloom(ds, "k", n_bits=1 << 20)
    # every inserted key must probe positive
    assert bloom_mask(pa.array(keys), words).all()
    # FP rate on definitely-absent keys stays near theory (~0.2% here)
    absent = np.arange(1_000_000, 1_050_000, dtype=np.int64)
    fp = bloom_mask(pa.array(absent), words).mean()
    assert fp < 0.02, fp


def test_bloom_width_normalized_hashing(ray_session):
    keys = np.array([-5, -1, 3], np.int64)
    ds = rd.from_pandas(pd.DataFrame({"k": keys}))
    words = build_bloom(ds, "k", n_bits=1 << 12)
    assert bloom_mask(pa.array(keys, pa.int32()).cast(pa.int32()),
                      words).all()


def _sides(n_left=5000, n_right=3000, seed=23):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 4000, n_left).astype(np.int64),
            "payload": rng.integers(0, 100, n_left).astype(np.int64),
        }
    )
    right = pd.DataFrame(
        {"k": rng.integers(2000, 6000, n_right).astype(np.int64)}
    )
    return left, right


def _expected(left, right, anti):
    present = left["k"].isin(set(right["k"]))
    return left[~present if anti else present]


def test_bloom_semi_and_anti_match_pandas(ray_session, monkeypatch):
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")  # the big-big path
    left, right = _sides()
    lds = rd.from_pandas(left, override_num_blocks=5)
    rds = rd.from_pandas(right, override_num_blocks=4)
    for anti in (False, True):
        got = (
            semi_join(lds, rds, on="k", anti=anti, bloom_bits=1 << 16)
            .to_pandas()
            .sort_values(["k", "payload"])
            .reset_index(drop=True)
        )
        want = (
            _expected(left, right, anti)
            .sort_values(["k", "payload"])
            .reset_index(drop=True)
        )
        assert got["k"].tolist() == want["k"].tolist(), anti
        assert got["payload"].tolist() == want["payload"].tolist(), anti


def test_bloom_exact_under_heavy_false_positives(ray_session, monkeypatch):
    # 256-bit filter over 3000 keys: nearly every probe is positive —
    # the exact residual join must still produce exact results
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")  # the big-big path
    left, right = _sides(seed=91)
    lds = rd.from_pandas(left, override_num_blocks=3)
    rds = rd.from_pandas(right, override_num_blocks=3)
    for anti in (False, True):
        got = semi_join(lds, rds, on="k", anti=anti,
                        bloom_bits=256).to_pandas()
        want = _expected(left, right, anti)
        assert sorted(got["k"].tolist()) == sorted(want["k"].tolist()), anti
