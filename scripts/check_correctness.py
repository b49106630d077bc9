"""Local replica of the driver's correctness gate: run each queries()
entry at sf0.01, run its oracle_sql() in DuckDB over the same parquet,
compare row count + order-insensitive values.  Usage:

    python scripts/check_correctness.py [--forced] [sf_dir] [query ...]

``--forced`` sets KGRAY_FORCE_DISTRIBUTED=1: every small-side gate in
the engine (driver union-find, broadcast joins/sets, in-process LSH,
brute-force ANN, ...) collapses to 0 so the DISTRIBUTED fallback path
of every operator is what gets oracle-checked end-to-end — the CI mode
that proves the 100-TB code paths, not just the tiny-input shortcuts.
"""

from __future__ import annotations

import faulthandler
import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, "/root/repo")

FORCED = "--forced" in sys.argv
args = [a for a in sys.argv[1:] if a != "--forced"]
if FORCED:
    os.environ["KGRAY_FORCE_DISTRIBUTED"] = "1"

SF_DIR = args[0] if args else "/root/testdata/sf0.01"
ONLY = set(args[1:])
# a query (Ray side or oracle) running this long dumps every driver
# thread's stack to stderr, and again each further STALL_S, so a hang
# shows where it sits instead of running silently into a timeout
STALL_S = 600

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings".split()
)


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df.reset_index(drop=True)


def main() -> int:
    import ray

    ray.init(
        address="local", num_cpus=8, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
        # gates resolve on the driver, but ship the knob to workers too
        # in case a future gate is evaluated inside a task
        runtime_env=(
            {"env_vars": {"KGRAY_FORCE_DISTRIBUTED": "1"}} if FORCED
            else None
        ),
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")

    failures = []
    for name, fn in qs.items():
        if ONLY and name not in ONLY:
            continue
        # re-arming resets the timer: it runs from this query's start
        faulthandler.dump_traceback_later(STALL_S, repeat=True, exit=False)
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(SF_DIR)))
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: ray error {type(e).__name__}: {e}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} (rows-only) [{dt:.1f}s]")
            continue
        try:
            want = canon(con.sql(oracles[name]).df())
        except Exception as e:  # e.g. DuckDB OutOfMemoryException
            failures.append(name)
            print(f"FAIL {name}: oracle error {type(e).__name__}: {e}")
            continue
        if list(got.columns) != list(want.columns):
            failures.append(name)
            print(f"FAIL {name}: columns {list(got.columns)} != {list(want.columns)}")
            continue
        if len(got) != len(want):
            failures.append(name)
            print(f"FAIL {name}: rows {len(got)} != {len(want)}")
            continue
        # Strict dtype parity first: the driver value-hashes raw values, so a
        # DuckDB HUGEINT/float where Ray emits int64 hash-mismatches even when
        # a coerced compare passes (bit us in round 1: token_stats,
        # events_sessions).  Treat dtype drift as failure, then coerce only to
        # localize the value diff.
        w = want.copy()
        g = got.copy()
        # Width drift (int32 vs int64, f32 vs f64) survived the driver's hash
        # in round 1; *kind* drift (int vs float, e.g. DuckDB HUGEINT->float64
        # vs Ray int64) did not.  Gate on kind.
        dtype_drift = [
            (c, str(g[c].dtype), str(w[c].dtype))
            for c in g.columns
            if g[c].dtype.kind != w[c].dtype.kind
        ]
        if dtype_drift:
            failures.append(name)
            print(f"FAIL {name}: dtype drift (driver hash would differ): "
                  f"{dtype_drift}")
            continue
        for c in g.columns:
            if g[c].dtype != w[c].dtype:
                try:
                    g[c] = g[c].astype(w[c].dtype)
                except Exception:
                    g[c] = g[c].astype(str)
                    w[c] = w[c].astype(str)
        eq = g.equals(w)
        if not eq:
            diff = (g != w) & ~(g.isna() & w.isna())
            ndiff = int(diff.any(axis=1).sum())
            if ndiff == 0:
                eq = True
        if eq:
            print(f"ok   {name}: rows={len(got)} MATCH [{dt:.1f}s]")
        else:
            failures.append(name)
            print(f"FAIL {name}: {ndiff} differing rows")
            mask = diff.any(axis=1)
            print("  ray:", g[mask].head(3).to_dict("records"))
            print("  sql:", w[mask].head(3).to_dict("records"))
    faulthandler.cancel_dump_traceback_later()
    ray.shutdown()
    print(f"\n{len(failures)} failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
