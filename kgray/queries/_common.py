"""Driver-contract query catalog: Ray Data implementation + DuckDB oracle
SQL side by side for every operator exercised on the shared testdata
tables (TESTDATA.md).  Names of computed columns MATCH between the two
(the driver hashes values after sorting columns by name).

Float columns are rounded (ROUND n digits) on BOTH sides so value-hash
comparison is stable across summation orders.

Each Ray callable takes ``sf_dir`` and returns a Dataset / pyarrow Table;
these are wired into ``__ray_entry__.queries()`` / ``oracle_sql()``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# shared query prelude: every submodule does `from ._common import *`.
# __all__ deliberately exports underscore helpers + common third-party /
# kgray names so per-query function-local imports aren't repeated 300x.
# ---------------------------------------------------------------------------
import datetime
import math
import re

import pyarrow.dataset as pds
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from kgray.io import read_parquet_clean
from kgray.ops.agg import pre_aggregate
from kgray.ops.joins import (asof_join, broadcast_join, bucket_join,
                             salted_bucket_join, semi_join)
from kgray.ops.similarity import _matrix
from kgray.util import cogroup, grouped_map, round_half_up

__all__ = [
    "np", "pd", "pa", "pc", "pds", "rd", "datetime", "math", "re",
    "Count", "Max", "Min", "Sum",
    "pre_aggregate", "cogroup", "grouped_map", "round_half_up",
    "asof_join", "broadcast_join", "bucket_join", "salted_bucket_join",
    "semi_join", "_matrix",
    "_read", "_round_col", "_query_vec",
]


def _read(sf_dir: str, table: str, columns=None):
    """One testdata table (a parquet file, or a directory of them) with
    its footer metadata stripped."""
    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def _round_col(ds, col: str, digits: int):
    """Round half-away-from-zero (SQL ROUND semantics).  Uses the numpy
    floor(x*s+0.5)/s formulation, NOT pc.round: Arrow's scale/divide
    round-trip can leave a one-ulp-off sum unchanged (e.g. 741376803.3100001
    stays put) while DuckDB lands on the nearest double of the decimal —
    the driver value-hash then mismatches on bit pattern."""
    from kgray.util import round_half_up

    def apply(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index(col)
        vals = batch[col].to_numpy(zero_copy_only=False)
        return batch.set_column(
            i, col, pa.array(round_half_up(vals, digits), pa.float64())
        )

    return ds.map_batches(apply, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# embeddings: similarity search + near-dup
# ---------------------------------------------------------------------------

def _query_vec(sf_dir: str) -> list[float]:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    idx = t["vec_id"].to_pylist().index(0)
    return t["embedding"][idx].as_py()
