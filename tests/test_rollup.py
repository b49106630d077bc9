"""Incremental rollup maintenance: delta-only folds over appends,
noop on no new files, full recompute on history rewrite (compaction),
idempotent convergence across the crash window between the table write
and the state write, and mergeable-op validation."""

import json
import os
import shutil

import numpy as np
import pandas as pd
import pytest


SPECS = {"n": (None, "count"), "s": ("v", "sum"),
         "lo": ("v", "min"), "hi": ("v", "max")}


def _batch(rng, n, keys=("a", "b", "c")):
    import ray.data as rd

    df = pd.DataFrame({
        "k": rng.choice(list(keys), n),
        "v": rng.integers(0, 1000, n).astype(np.int64),
        "id": rng.integers(0, 1 << 40, n).astype(np.int64),
    })
    return rd.from_pandas(df), df


def _expected(dfs):
    full = pd.concat(dfs, ignore_index=True)
    g = full.groupby("k")["v"]
    return pd.DataFrame({
        "n": g.size().astype(np.int64), "s": g.sum(),
        "lo": g.min(), "hi": g.max(),
    }).reset_index().sort_values("k").reset_index(drop=True)


def _got(ds):
    out = ds.to_pandas()[["k", "n", "s", "lo", "hi"]]
    return out.sort_values("k").reset_index(drop=True)


def test_incremental_equals_full_and_noop(ray_session, tmp_path):
    from kgray import io as kio
    from kgray.ops.rollup import refresh_rollup

    rng = np.random.default_rng(11)
    base = str(tmp_path / "base")
    roll = str(tmp_path / "roll")
    dfs = []
    existing = None
    for i in range(3):
        ds, df = _batch(rng, 200)
        dfs.append(df)
        kio.write_partitioned(ds, base, key_col="id", num_partitions=4,
                              keep_partitions=existing)
        existing = {int(p) for p in kio.read_manifest(base)["partitions"]}
        out, info = refresh_rollup(base, roll, ["k"], SPECS)
        assert info["mode"] == ("full" if i == 0 else "incremental")
        assert info["folded_files"] > 0
        pd.testing.assert_frame_equal(_got(out), _expected(dfs),
                                      check_dtype=False)
    # no new files -> noop, same content
    out, info = refresh_rollup(base, roll, ["k"], SPECS)
    assert info == {"mode": "noop", "folded_files": 0}
    pd.testing.assert_frame_equal(_got(out), _expected(dfs),
                                  check_dtype=False)


def test_history_rewrite_forces_full(ray_session, tmp_path):
    from kgray import io as kio
    from kgray.ops.rollup import refresh_rollup

    rng = np.random.default_rng(12)
    base = str(tmp_path / "base")
    roll = str(tmp_path / "roll")
    ds, df1 = _batch(rng, 150)
    kio.write_partitioned(ds, base, key_col="id", num_partitions=4)
    refresh_rollup(base, roll, ["k"], SPECS)
    ds2, df2 = _batch(rng, 150)
    kio.write_partitioned(ds2, base, key_col="id", num_partitions=4,
                          keep_partitions={int(p) for p in
                                           kio.read_manifest(base)
                                           ["partitions"]})
    # compaction rewrites attested file names -> watermark invalid
    kio.compact_partitioned(base)
    out, info = refresh_rollup(base, roll, ["k"], SPECS)
    assert info["mode"] == "full"
    pd.testing.assert_frame_equal(_got(out), _expected([df1, df2]),
                                  check_dtype=False)


def test_crash_window_is_idempotent(ray_session, tmp_path):
    from kgray import io as kio
    from kgray.ops.rollup import refresh_rollup

    rng = np.random.default_rng(13)
    base = str(tmp_path / "base")
    roll = str(tmp_path / "roll")
    ds, df1 = _batch(rng, 150)
    kio.write_partitioned(ds, base, key_col="id", num_partitions=4)
    refresh_rollup(base, roll, ["k"], SPECS)
    state_path = os.path.join(roll, "rollup_state.json")
    with open(state_path) as f:
        old_state = f.read()
    ds2, df2 = _batch(rng, 150)
    kio.write_partitioned(ds2, base, key_col="id", num_partitions=4,
                          keep_partitions={int(p) for p in
                                           kio.read_manifest(base)
                                           ["partitions"]})
    refresh_rollup(base, roll, ["k"], SPECS)
    # simulate a crash BETWEEN the table write and the state write:
    # the table advanced but the state file still points at the prior
    # snapshot + watermark
    with open(state_path, "w") as f:
        f.write(old_state)
    out, info = refresh_rollup(base, roll, ["k"], SPECS)
    assert info["mode"] == "incremental"
    pd.testing.assert_frame_equal(_got(out), _expected([df1, df2]),
                                  check_dtype=False)
    # state recommitted: a further refresh is a clean noop
    out, info = refresh_rollup(base, roll, ["k"], SPECS)
    assert info["mode"] == "noop"
    pd.testing.assert_frame_equal(_got(out), _expected([df1, df2]),
                                  check_dtype=False)


def test_registry_refresh_all(ray_session, tmp_path):
    """Two registered rollups over one appending base: refresh_all
    folds the delta into both; a second refresh_all is a pure noop for
    both; registered specs survive the json round-trip."""
    from kgray import io as kio
    from kgray.ops.rollup import (load_registry, refresh_all,
                                  register_rollup)

    rng = np.random.default_rng(15)
    base = str(tmp_path / "base")
    reg = str(tmp_path / "reg")
    ds, df1 = _batch(rng, 150)
    kio.write_partitioned(ds, base, key_col="id", num_partitions=4)
    register_rollup(reg, "by_k", base, ["k"], SPECS)
    register_rollup(reg, "totals", base, ["k"],
                    {"n": (None, "count"), "s": ("v", "sum")})
    assert set(load_registry(reg)) == {"by_k", "totals"}
    info = refresh_all(reg)
    assert {v["mode"] for v in info.values()} == {"full"}
    ds2, df2 = _batch(rng, 150)
    kio.write_partitioned(ds2, base, key_col="id", num_partitions=4,
                          keep_partitions={int(p) for p in
                                           kio.read_manifest(base)
                                           ["partitions"]})
    info = refresh_all(reg)
    assert {v["mode"] for v in info.values()} == {"incremental"}
    info = refresh_all(reg)
    assert {v["mode"] for v in info.values()} == {"noop"}
    out = kio.read_table(str(tmp_path / "reg" / "by_k" / "table"))
    pd.testing.assert_frame_equal(_got(out), _expected([df1, df2]),
                                  check_dtype=False)


def test_non_mergeable_spec_rejected(ray_session, tmp_path):
    from kgray import io as kio
    from kgray.ops.rollup import refresh_rollup

    rng = np.random.default_rng(14)
    base = str(tmp_path / "base")
    ds, _ = _batch(rng, 50)
    kio.write_partitioned(ds, base, key_col="id", num_partitions=2)
    with pytest.raises(ValueError, match="not mergeable"):
        refresh_rollup(base, str(tmp_path / "roll"), ["k"],
                       {"m": ("v", "mean")})


def test_rollup_corrupt_state_falls_back_to_full(ray_session, tmp_path):
    """A truncated/older-schema rollup_state.json (missing
    processed_files) must trigger the safe full recompute, not
    KeyError."""
    import json
    import os

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgray import io
    from kgray.ops.rollup import refresh_rollup

    base = str(tmp_path / "base")
    roll = str(tmp_path / "roll")
    ds = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 1, 2], pa.int64()),
        "v": pa.array([10, 20, 30, 40], pa.int64()),
    }))
    io.write_partitioned(ds, base, "k", num_partitions=2)
    out, info = refresh_rollup(base, roll, ("k",), {"s": ("v", "sum")})
    assert info["mode"] == "full"
    # corrupt the state: drop processed_files (older schema)
    sp = os.path.join(roll, "rollup_state.json")
    st = json.load(open(sp))
    del st["processed_files"]
    json.dump(st, open(sp, "w"))
    out2, info2 = refresh_rollup(base, roll, ("k",), {"s": ("v", "sum")})
    assert info2["mode"] == "full"
    got = out2.to_pandas().sort_values("k", ignore_index=True)
    assert list(got["s"]) == [40, 60]


def test_cli_refresh_keeps_the_callers_ray_session(ray_session, tmp_path,
                                                   capsys):
    """`python -m kgray refresh` run inside an existing Ray session uses
    it and leaves it up: only a session the command started is shut
    down."""
    import ray

    from kgray.__main__ import main

    reg = tmp_path / "reg"
    reg.mkdir()
    assert main(["refresh", str(reg)]) == 0
    assert json.loads(capsys.readouterr().out) == {}
    assert ray.is_initialized()
