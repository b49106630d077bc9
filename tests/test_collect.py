"""Contract of the engine's one small-side collect (``util.collect_small``
/ ``collect_table``): block concatenation, schema-keeping empties,
null-type promotion, the ``<=`` gate boundary for rows and bytes, and
the forced-distributed collapse."""

import pyarrow as pa
import pytest
import ray.data as rd

from kgray.util import collect_small, collect_table


def test_collect_table_zero_blocks(ray_session):
    ds = rd.range(10).limit(0).materialize()
    assert len(ds.to_arrow_refs()) == 0
    out = collect_table(ds)
    assert isinstance(out, pa.Table) and out.num_rows == 0


def test_collect_table_all_empty_blocks_keep_schema(ray_session):
    empty = pa.table({"u": pa.array([], pa.int64()),
                      "v": pa.array([], pa.string())})
    out = collect_table(rd.from_arrow([empty, empty]))
    assert out.num_rows == 0
    assert out.schema == empty.schema


def test_collect_table_concatenates_and_promotes_null_blocks(ray_session):
    a = pa.table({"k": pa.nulls(2), "n": pa.array([1, 2], pa.int64())})
    b = pa.table({"k": pa.array(["x"]), "n": pa.array([3], pa.int64())})
    out = collect_table(rd.from_arrow([a, b.slice(0, 0), b]))
    assert out.schema.field("k").type == pa.string()
    assert out["k"].to_pylist() == [None, None, "x"]
    assert out["n"].to_pylist() == [1, 2, 3]


def test_collect_small_row_gate_is_inclusive(ray_session):
    ds = rd.from_arrow(pa.table({"x": list(range(5))})).materialize()
    assert collect_small(ds, max_rows=5)["x"].to_pylist() == [0, 1, 2, 3, 4]
    assert collect_small(ds, max_rows=4) is None


def test_collect_small_byte_gate_is_inclusive(ray_session):
    ds = rd.from_arrow(pa.table({"x": list(range(100))})).materialize()
    est = ds.size_bytes()
    assert est and est > 0
    assert collect_small(ds, max_bytes=est).num_rows == 100
    assert collect_small(ds, max_bytes=est - 1) is None
    # both thresholds must hold
    assert collect_small(ds, max_rows=99, max_bytes=est) is None


@pytest.mark.parametrize("kw", [{"max_rows": 10**9},
                                {"max_bytes": 1 << 40}])
def test_force_distributed_collects_only_empty(ray_session, monkeypatch, kw):
    monkeypatch.setenv("KGRAY_FORCE_DISTRIBUTED", "1")
    ds = rd.from_arrow(pa.table({"x": [1]})).materialize()
    assert collect_small(ds, **kw) is None
    if "max_rows" in kw:  # an empty input still fits a 0-row gate
        empty = rd.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
        assert collect_small(empty, **kw).num_rows == 0
