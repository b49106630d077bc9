"""Incrementally-maintained aggregate views over partitioned tables
(the lakehouse materialized-rollup move a standing append-mode pipeline
needs: an append batch must refresh the daily/type rollups WITHOUT
rescanning the whole base table).

Mechanics
---------
The base table is a :func:`kgray.io.write_partitioned` directory, whose
manifest attests exact per-partition FILE names.  Appends add files and
never rewrite attested ones, so file names are stable identities: the
rollup's watermark is simply the set of already-folded file names.  A
refresh folds ONLY the unseen files (one combiner-fold over the delta),
merges the delta into the stored rollup (sum/count/min/max are the
mergeable ops; count re-merges as sum), and writes the result back as a
normal manifested table.

Crash safety: the state file pins the rollup SNAPSHOT VERSION it was
derived against.  A refresh reads the rollup at that pinned version
(time travel), so a crash between the table write and the state write
leaves only an orphaned newer snapshot — the next refresh re-merges the
same delta against the same pinned version and converges to identical
content (idempotent).  The state file itself commits via tmp+rename.

Any rewrite of history (compaction, delete_rows, overwrite: a processed
file vanishing from the manifest) or a spec/key change drops to a full
recompute — incrementality is an optimization, never a correctness
assumption.
"""

from __future__ import annotations

import json
import os

import numpy as np  # noqa: F401  (kept for parity with sibling ops modules)
import pyarrow as pa  # noqa: F401

_MERGEABLE = {"sum", "count", "min", "max"}
_STATE = "rollup_state.json"
_TABLE = "table"


def _base_files(base_dir: str) -> list[str] | None:
    from kgray.io import _attested_files, read_manifest

    m = read_manifest(base_dir)
    return _attested_files(m) if m and m["partitions"] else None


def _load_state(rollup_dir: str) -> dict | None:
    p = os.path.join(rollup_dir, _STATE)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def _save_state(rollup_dir: str, state: dict) -> None:
    tmp = os.path.join(rollup_dir, _STATE + ".tmp")
    with open(tmp, "w") as f:
        json.dump(state, f)
    os.replace(tmp, os.path.join(rollup_dir, _STATE))


def refresh_rollup(base_dir: str, rollup_dir: str, keys: list[str],
                   specs: dict, columns: list[str] | None = None,
                   num_partitions: int = 8):
    """Refresh (or create) the rollup of ``base_dir`` under
    ``rollup_dir``; returns ``(dataset, info)`` where ``info`` records
    the mode (``full`` / ``incremental`` / ``noop``) and how many base
    files were folded.  ``specs`` is the :func:`pre_aggregate` shape
    ``{out: (src|None, op)}`` restricted to the mergeable ops
    sum / count / min / max."""
    import ray.data as rd

    from kgray import io as kio
    from kgray.ops.agg import pre_aggregate

    for out, (_src, op) in specs.items():
        if op not in _MERGEABLE:
            raise ValueError(
                f"rollup spec {out!r}: op {op!r} is not mergeable "
                f"(allowed: {sorted(_MERGEABLE)})")
    merge_specs = {
        out: (out, "sum" if op in ("sum", "count") else op)
        for out, (_src, op) in specs.items()
    }
    sig = {"keys": list(keys),
           "specs": {k: [v[0], v[1]] for k, v in specs.items()}}

    files = _base_files(base_dir)
    if files is None:
        raise FileNotFoundError(f"no manifested base table at {base_dir}")
    state = _load_state(rollup_dir)
    table_dir = os.path.join(rollup_dir, _TABLE)

    # defensive .get throughout: a truncated / older-schema
    # rollup_state.json must fall back to the documented safe full
    # recompute, never KeyError mid-refresh
    recorded = (state or {}).get("processed_files")
    incremental = (
        state is not None
        and state.get("sig") == sig
        and state.get("base") == base_dir
        and isinstance(recorded, list)
        # history rewrite (compact/delete/overwrite): full recompute
        and not (set(recorded) - set(files))
    )
    processed = set(recorded) if incremental else set()
    new = [f for f in files if f not in processed]
    if not new and not incremental:
        # manifested base with ZERO data files: nothing to fold and no
        # schema to type an empty delta from — refuse loudly instead of
        # rd.read_parquet([])'s opaque error
        raise FileNotFoundError(
            f"rollup refresh: base table at {base_dir} has no data files")

    if incremental and not new:
        return kio.read_table(table_dir,
                              version=state["rollup_version"]), \
            {"mode": "noop", "folded_files": 0}

    data_dir = os.path.join(base_dir, "data")
    delta_ds = rd.read_parquet([os.path.join(data_dir, f) for f in new],
                               columns=columns)
    cols = list(keys) + list(specs)  # one explicit order: union needs
    delta = pre_aggregate(delta_ds, list(keys), specs).select_columns(cols)

    if incremental and processed:
        old = kio.read_table(table_dir, version=state["rollup_version"],
                             columns=cols)
        merged = pre_aggregate(old.union(delta), list(keys),
                               merge_specs).select_columns(cols)
        mode = "incremental"
    else:
        merged = delta
        mode = "full"

    # materialize the aggregate-scale result BEFORE overwriting the
    # directory it may be lazily reading from
    mat = merged.materialize()
    os.makedirs(rollup_dir, exist_ok=True)
    manifest = kio.write_partitioned(
        mat, table_dir, key_col=list(keys)[0],
        num_partitions=num_partitions, stage="rollup")
    _save_state(rollup_dir, {
        "base": base_dir, "sig": sig,
        "processed_files": sorted(processed | set(new)),
        "rollup_version": manifest["version"],
    })
    return kio.read_table(table_dir, version=manifest["version"]), \
        {"mode": mode, "folded_files": len(new)}


# ---------------------------------------------------------------------------
# Registry: a set of named rollups refreshed together (the standing
# materialized-view catalog of an append-mode pipeline; `python -m
# kgray refresh` drives it)
# ---------------------------------------------------------------------------

_REGISTRY = "rollups.json"


def _registry_path(registry_dir: str) -> str:
    return os.path.join(registry_dir, _REGISTRY)


def load_registry(registry_dir: str) -> dict:
    p = _registry_path(registry_dir)
    if not os.path.exists(p):
        return {}
    with open(p) as f:
        return json.load(f)


def register_rollup(registry_dir: str, name: str, base_dir: str,
                    keys: list[str], specs: dict,
                    columns: list[str] | None = None) -> None:
    """Add (or replace) a named rollup definition.  Specs use the
    ``{out: (src|None, op)}`` shape; the registry file commits via
    tmp+rename like the per-rollup state."""
    for out, (_src, op) in specs.items():
        if op not in _MERGEABLE:
            raise ValueError(
                f"rollup spec {out!r}: op {op!r} is not mergeable "
                f"(allowed: {sorted(_MERGEABLE)})")
    os.makedirs(registry_dir, exist_ok=True)
    reg = load_registry(registry_dir)
    reg[name] = {
        "base": base_dir, "keys": list(keys),
        "specs": {k: [v[0], v[1]] for k, v in specs.items()},
        "columns": list(columns) if columns else None,
    }
    tmp = _registry_path(registry_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(reg, f, indent=1, sort_keys=True)
    os.replace(tmp, _registry_path(registry_dir))


def refresh_all(registry_dir: str) -> dict:
    """Refresh every registered rollup (each into
    ``registry_dir/<name>/``); returns {name: info}.  A rollup whose
    base is untouched is a noop (watermark check only — no scan), so
    running this after every append batch is cheap by construction."""
    out = {}
    for name, spec in sorted(load_registry(registry_dir).items()):
        specs = {k: (v[0], v[1]) for k, v in spec["specs"].items()}
        _ds, info = refresh_rollup(
            spec["base"], os.path.join(registry_dir, name),
            spec["keys"], specs, columns=spec["columns"])
        out[name] = info
    return out
