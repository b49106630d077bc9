"""Property tests (hypothesis) for ``util.cogroup``, the one two-input
shuffle, against a pandas reference, and for ``joins.bucket_join`` (which
runs on it) against ``pd.merge``."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from kgray.ops.joins import bucket_join
from kgray.util import cogroup

def _side(rng, n: int, kind: str, x_type: str) -> pa.Table:
    """``n`` rows: key column(s) of ``kind`` over a small domain (so both
    sides share keys), a row id ``rid`` and a payload ``x`` whose type
    differs between the two sides."""
    k = rng.integers(0, 6, n)
    cols = {}
    if kind == "composite":
        cols["k"] = pa.array(k, pa.int64())
        cols["k2"] = pa.array([f"s{v % 2}" for v in k], pa.string())
    elif kind == "string":
        cols["k"] = pa.array([f"key{v}" for v in k], pa.string())
    else:
        cols["k"] = pa.array(k, getattr(pa, kind)())
    cols["rid"] = pa.array(np.arange(n), pa.int64())
    cols["x"] = pa.array(rng.integers(0, 100, n), pa.int64()) \
        if x_type == "int" else pa.array([f"v{i}" for i in range(n)])
    return pa.table(cols)


def _dataset(tbl: pa.Table, blocks: int):
    """``tbl`` as a Dataset of ``blocks`` blocks (many tiny ones when
    ``blocks`` is large); ``blocks == 0`` gives a schema-less empty side
    (``Dataset.schema()`` is None).  A typed empty side is materialized:
    ``cogroup`` types a side with no rows only from a schema Ray reports
    without running the side."""
    if blocks == 0:
        return rd.range(1).filter(lambda r: False)
    if not tbl.num_rows:
        return rd.from_arrow(tbl).materialize()
    step = max(1, -(-tbl.num_rows // blocks))
    return rd.from_arrow([tbl.slice(i, step)
                          for i in range(0, tbl.num_rows, step)])


def _seen_fn():
    """The probe ``fn`` (built here so Ray pickles it by value: a
    test module is not importable on a worker)."""

    def _seen(lt: pa.Table, rt: pa.Table) -> pa.Table:
        """One row per input row fn got (side, rid, key as text, its side
        table's schema) plus one marker row per side (rid -1) recording the
        schema even when that side is empty, all tagged with this call."""
        call = uuid.uuid4().hex
        rows = []
        for side, t in enumerate((lt, rt)):
            schema = str(t.schema)
            if t.num_rows:
                keys = (t.select([c for c in ("k", "k2")
                                  if c in t.column_names])
                        .to_pandas().astype(str).agg("|".join, axis=1))
                rids = t["rid"].to_pylist()
            else:
                keys, rids = [], []
            rows += [(side, r, k, schema) for r, k in zip(rids, keys)]
            rows.append((side, -1, "", schema))
        side, rid, key, schema = zip(*rows)
        return pa.table({
            "side": pa.array(side, pa.int8()),
            "rid": pa.array(rid, pa.int64()),
            "key": pa.array(key, pa.string()), "schema": pa.array(schema),
            "call": pa.array([call] * len(rows)),
        })

    return _seen


@given(
    seed=st.integers(0, 10_000),
    n_left=st.integers(0, 40),
    n_right=st.integers(0, 40),
    kinds=st.sampled_from(
        [("int32", "int64"), ("int64", "int32"), ("string", "string"),
         ("composite", "composite"), ("int64", "int64")]),
    blocks=st.tuples(st.sampled_from([0, 1, 3, 40]),
                     st.sampled_from([0, 1, 3, 40])),
    num_buckets=st.sampled_from([1, 4, 32]),
)
# typed-empty and schema-less sides every run, not only when drawn
@example(seed=0, n_left=0, n_right=5, kinds=("int32", "int64"),
         blocks=(1, 1), num_buckets=4)
@example(seed=0, n_left=5, n_right=0, kinds=("string", "string"),
         blocks=(3, 1), num_buckets=4)
@example(seed=0, n_left=5, n_right=0, kinds=("int64", "int64"),
         blocks=(1, 0), num_buckets=4)
# no explain phase: its line tracing slows every Ray call ~100x
@settings(max_examples=25, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
def test_cogroup_every_row_once_on_its_side_with_its_types(
        seed, n_left, n_right, kinds, blocks, num_buckets):
    rng = np.random.default_rng(seed)
    lt = _side(rng, n_left, kinds[0], "int")
    rt = _side(rng, n_right, kinds[1], "str")
    if blocks[0] == 0:
        lt = lt.slice(0, 0)
    if blocks[1] == 0:
        rt = rt.slice(0, 0)
    keys = ["k", "k2"] if kinds[0] == "composite" else "k"
    out = cogroup(_dataset(lt, blocks[0]), _dataset(rt, blocks[1]),
                  keys, keys, _seen_fn(), num_buckets=num_buckets).to_pandas()
    if out.empty:
        # no side has a row, so no bucket exists
        assert not lt.num_rows and not rt.num_rows
        return
    rows = out[out["rid"] >= 0]
    for side, t in enumerate((lt, rt)):
        got = sorted(rows.loc[rows["side"] == side, "rid"])
        assert got == sorted(t["rid"].to_pylist()), side
        # a schema-less side arrives with no columns, any other with the
        # types it has
        want = str(pa.schema([]) if blocks[side] == 0 else t.schema)
        assert set(out.loc[out["side"] == side, "schema"]) == {want}, side
    # the pandas reference: every key's rows, both sides, in one call
    assert (rows.groupby("key")["call"].nunique() == 1).all()


@pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
@pytest.mark.parametrize("key_types", [("int64", "int64"), ("int32", "int64")])
def test_bucket_join_matches_pd_merge(how, key_types):
    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": rng.integers(0, 30, 120),
                         "a": rng.integers(0, 1000, 120)})
    right = pd.DataFrame({"k": rng.integers(15, 45, 80),
                          "b": rng.integers(0, 1000, 80),
                          "a": rng.integers(0, 1000, 80)})
    lt = pa.Table.from_pandas(left, preserve_index=False)
    lt = lt.set_column(0, "k", lt["k"].cast(getattr(pa, key_types[0])()))
    rt = pa.Table.from_pandas(right, preserve_index=False)
    got = bucket_join(rd.from_arrow([lt.slice(0, 60), lt.slice(60)]),
                      rd.from_arrow(rt), on="k", how=how,
                      num_buckets=8).materialize()
    # an unmatched row's int64 payload stays int64 (with nulls) in Arrow
    types = dict(zip(got.schema().names, got.schema().types))
    assert types["b"] == pa.int64() and types["a_r"] == pa.int64()
    want = left.merge(right, on="k", how=how, suffixes=("", "_r"))
    cols = ["k", "a", "b", "a_r"]
    norm = lambda df: (df[cols].astype("Float64")
                       .sort_values(cols).reset_index(drop=True))
    pd.testing.assert_frame_equal(norm(got.to_pandas()), norm(want))


@pytest.fixture(params=[False, True], ids=["plain", "forced"])
def forced(request, monkeypatch):
    if request.param:
        monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    return request.param


def test_asof_join_right_only_bucket_int_time(forced):
    """A bucket holding right rows only (key 3 has no left row) with an
    int64 time column: the bucket's left side must stay int64, or
    merge_asof rejects the float64 left time."""
    from kgray.ops.joins import asof_join

    left = pd.DataFrame({"k": np.array([1, 1, 2], np.int64),
                         "ts": np.array([10, 20, 30], np.int64)})
    right = pd.DataFrame({"k": np.array([1, 3], np.int64),
                          "ts": np.array([5, 7], np.int64),
                          "v": np.array([100, 300], np.int64)})
    got = asof_join(rd.from_pandas(left), rd.from_pandas(right), key="k",
                    time_col="ts").to_pandas()
    want = pd.merge_asof(left.sort_values("ts"),
                         right.rename(columns={"ts": "ts_r"}).sort_values(
                             "ts_r"),
                         left_on="ts", right_on="ts_r", by="k")
    norm = lambda df: (df[["k", "ts", "ts_r", "v"]].astype("Float64")
                       .sort_values(["k", "ts"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(norm(got), norm(want))


def _typed(ds):
    """(column, type) pairs and the rows, order-free (nulls as None)."""
    out = ds.materialize()
    schema = out.schema()
    return (list(zip(schema.names, schema.types)),
            sorted(repr(sorted(r.items())) for r in out.take_all()))


@pytest.mark.parametrize("how", ["inner", "left"])
def test_skew_join_empty_left_matches_bucket_join(forced, how):
    from kgray.ops.joins import skew_join

    left = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                   "a": pa.array([], pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                    "b": pa.array([5, 6], pa.int64())}))
    want = bucket_join(left, right, on="k", how=how)
    got = skew_join(left, right, on="k", how=how)
    assert _typed(got) == _typed(want)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_skew_join_typed_empty_right_matches_bucket_join(forced, how):
    from kgray.ops.joins import skew_join

    # key 1 is hot (every left row), so the broadcast path runs
    left = rd.from_arrow(pa.table({"k": pa.array([1] * 40 + [2], pa.int64()),
                                   "a": pa.array(range(41), pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "b": pa.array([], pa.int64())}))
    want = bucket_join(left, right, on="k", how=how)
    got = skew_join(left, right, on="k", how=how)
    assert _typed(got) == _typed(want)


def test_cogroup_runs_each_side_once(tmp_path):
    """``cogroup`` never runs a lazy side ahead of its shuffle (a schema
    fetch would run that side's first block an extra time): every map
    call of each side happens once, in the shuffle itself."""
    calls = str(tmp_path)

    def counted(batch: pa.Table) -> pa.Table:
        open(f"{calls}/{uuid.uuid4().hex}", "w").close()
        return batch

    lt = pa.table({"k": pa.array(range(8), pa.int64())})
    side = lambda: rd.from_arrow([lt.slice(0, 4), lt.slice(4)]).map_batches(
        counted, batch_format="pyarrow", batch_size=None)
    out = cogroup(side(), side(), "k", "k",
                  lambda l, r: pa.table({"n": [l.num_rows + r.num_rows]}),
                  num_buckets=4)
    assert sum(out.to_pandas()["n"]) == 16
    assert len(list(tmp_path.iterdir())) == 4
