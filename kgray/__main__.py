"""``ray job submit`` entry point for the flagship KG-construction run.

The north rule's deployment shape is ``ray job submit -- python -m kgray
construct ...`` against a running cluster: this module is that submittable
driver.  It owns the Ray session (guarded — the job runtime may have
initialised one already), runs ``kgray.pipeline.kg_construct`` (extract ->
link -> canonicalize -> materialize, partitioned + manifested + resumable),
and prints one JSON line of per-table metrics from the manifests.

Examples (single node / sandbox):

    python -m kgray construct --synthetic 5000 --output /tmp/kg_out
    python -m kgray construct --input docs.parquet --output /tmp/kg_out \
        --partitions 64 --tau 0.6

On a cluster the same command line goes through the job API:

    ray job submit --working-dir . -- python -m kgray construct \
        --input s3://bucket/docs --output /mnt/shared/kg_out
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time


@contextlib.contextmanager
def _ray_session(**init_kwargs):
    """Run a command inside the caller's Ray session when one is up;
    otherwise start one with ``init_kwargs`` and shut it down when the
    command ends, also when it raises."""
    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(**init_kwargs)
    try:
        yield
    finally:
        if owns_session:
            ray.shutdown()


def _path_fingerprint(path: str) -> str:
    """Content-identity stand-in for an input table: path + per-file
    (name, size, mtime_ns).  Cheap (metadata only) and stable across
    resumes as long as the input bytes are unchanged."""
    h = hashlib.sha256(path.encode())
    if os.path.isdir(path):
        for root, _, files in sorted(os.walk(path)):
            for f in sorted(files):
                st = os.stat(os.path.join(root, f))
                h.update(f"{f}:{st.st_size}:{st.st_mtime_ns}".encode())
    elif os.path.exists(path):
        st = os.stat(path)
        h.update(f"{st.st_size}:{st.st_mtime_ns}".encode())
    return h.hexdigest()[:16]


def _cmd_construct(args: argparse.Namespace) -> int:
    # no address: joins the job's cluster under `ray job submit`
    with _ray_session(ignore_reinit_error=True):
        from kgray import io
        from kgray.pipeline import PipelineConfig, kg_construct

        if args.synthetic:
            from kgray.corpus import interleaved_dataset

            docs = interleaved_dataset(args.synthetic, seed=args.seed,
                                       start=args.synthetic_start)
            fp = (f"synthetic-{args.synthetic}-{args.seed}-"
                  f"{args.synthetic_start}")
        else:
            docs = io.read_parquet_clean(args.input)
            fp = _path_fingerprint(args.input)

        t0 = time.time()
        manifests = kg_construct(
            docs,
            args.output,
            PipelineConfig(execution=args.execution),
            num_partitions=args.partitions,
            tau=args.tau,
            input_fingerprint=fp,
            resume=not args.no_resume,
            append=args.append,
        )
        wall = round(time.time() - t0, 3)
    metrics = {
        name: {
            "rows": sum(p.get("rows", 0) for p in m.get("partitions", {}).values()),
            "bytes": sum(p.get("bytes", 0) for p in m.get("partitions", {}).values()),
            "partitions": len(m.get("partitions", {})),
            "stage": m.get("stage"),
        }
        for name, m in manifests.items()
    }
    print(json.dumps({
        "metric": "kg_construct wall time",
        "value": wall,
        "unit": "sec",
        "output": args.output,
        "input_fingerprint": fp,
        "tables": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m kgray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="run the full KG-construction pipeline")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="parquet path/dir of interleaved docs "
                                     "(doc_id, spans)")
    src.add_argument("--synthetic", type=int, metavar="N",
                     help="generate an N-doc deterministic corpus instead")
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--synthetic-start", type=int, default=0,
                   help="doc-id offset for --synthetic (append batches "
                        "need ids disjoint from the base corpus)")
    c.add_argument("--output", required=True, help="output directory "
                   "(triples/ entities/ triples_canonical/ + manifests)")
    c.add_argument("--partitions", type=int, default=16)
    c.add_argument("--tau", type=float, default=0.6)
    c.add_argument("--execution", choices=("tasks", "actors"), default="tasks")
    c.add_argument("--no-resume", action="store_true",
                   help="ignore existing manifests and rewrite everything")
    c.add_argument("--append", action="store_true",
                   help="incremental mode: treat --input/--synthetic as a "
                        "NEW batch of docs (disjoint doc_ids) appended to "
                        "an existing output; only new-batch work runs at "
                        "corpus scale (idempotent per batch fingerprint)")
    c.set_defaults(fn=_cmd_construct)

    k = sub.add_parser(
        "compact",
        help="merge small manifest-attested parquet files (post-append "
             "small-files cleanup; content and stage-skip keys preserved)",
    )
    k.add_argument("tables", nargs="+",
                   help="manifested table dirs (e.g. OUT/triples_canonical)")
    k.add_argument("--target-mb", type=int, default=128)
    k.set_defaults(fn=_cmd_compact)

    v = sub.add_parser(
        "versions",
        help="list a table's snapshot chain, or expire old snapshots "
             "and vacuum unreferenced bytes",
    )
    v.add_argument("tables", nargs="+", help="manifested table dirs")
    v.add_argument("--expire-keep-last", type=int, default=0,
                   help="if > 0, drop all but the newest N snapshots and "
                        "vacuum data files no surviving snapshot or the "
                        "current manifest references")
    v.set_defaults(fn=_cmd_versions)

    f = sub.add_parser(
        "forget",
        help="right-to-be-forgotten: delete docs from a kg_construct "
             "output (only affected hash partitions rewrite; derived "
             "tables rebuild on the next construct run)",
    )
    f.add_argument("out_dir", help="kg_construct output directory")
    f.add_argument("doc_ids", nargs="+", help="doc ids to forget")
    f.add_argument("--hard", action="store_true",
                   help="also expire snapshots + vacuum so the bytes are "
                        "destroyed, not merely unreferenced")
    f.set_defaults(fn=_cmd_forget)

    r = sub.add_parser(
        "refresh",
        help="refresh the registered incremental rollups (materialized "
             "aggregate views; unseen base files fold in, untouched "
             "bases are watermark-check noops)",
    )
    r.add_argument("registry_dir", help="rollup registry directory")
    r.add_argument("--register", metavar="NAME",
                   help="add/replace a rollup definition before refreshing")
    r.add_argument("--base", help="base table dir (with --register)")
    r.add_argument("--keys", help="comma-separated group keys "
                                  "(with --register)")
    r.add_argument("--agg", help="comma-separated out=src:op specs, op in "
                                 "sum/count/min/max; src '-' for count "
                                 "(with --register)")
    r.add_argument("--columns", help="comma-separated base read columns "
                                     "(optional pruning, with --register)")
    r.set_defaults(fn=_cmd_refresh)

    t = sub.add_parser(
        "txn",
        help="multi-table transactions: list the commit chain of an "
             "output dir, or show the table versions a txn pins",
    )
    t.add_argument("root", help="directory holding _txns/ (e.g. a "
                                "kg_construct output)")
    t.add_argument("--show", type=int, metavar="ID",
                   help="print one txn's pinned table set")
    t.add_argument("--prune", action="store_true",
                   help="mark pins whose snapshot was destroyed (hard "
                        "forget / manual expiry) so listings stay honest")
    t.set_defaults(fn=_cmd_txn)

    q = sub.add_parser(
        "query",
        help="run one catalog query over a testdata dir (or --list them)",
    )
    q.add_argument("name", nargs="?", help="queries() entry name")
    q.add_argument("--sf", default="/root/testdata/sf0.01",
                   help="input tables directory")
    q.add_argument("--out", help="write the result as parquet here "
                                 "instead of printing a preview")
    q.add_argument("--head", type=int, default=5,
                   help="preview rows in the printed JSON line")
    q.add_argument("--list", action="store_true",
                   help="list catalog entries (name + oracle/rows-only)")
    q.set_defaults(fn=_cmd_query)

    args = ap.parse_args(argv)
    return args.fn(args)


def _cmd_txn(args) -> int:
    import json as _json

    from kgray import io as kio

    if getattr(args, "prune", False):
        n = kio.prune_txn_pins(args.root)
        print(f"pruned {n} destroyed pin(s)")
    if args.show is not None:
        txns = {r["txn"]: r for r in kio.list_txns(args.root)}
        if args.show not in txns:
            print(f"txn {args.show} not found")
            return 1
        print(_json.dumps(txns[args.show], indent=1, sort_keys=True))
        return 0
    for r in kio.list_txns(args.root):
        tables = ", ".join(
            f"{n}@v{e['version']}" for n, e in sorted(r["tables"].items()))
        print(f"txn {r['txn']}: {r.get('note', '')} [{tables}]")
    return 0


def _cmd_refresh(args) -> int:
    import json as _json

    from kgray.ops.rollup import refresh_all, register_rollup

    if args.register:
        if not (args.base and args.keys and args.agg):
            print("--register needs --base, --keys and --agg")
            return 2
        specs = {}
        for part in args.agg.split(","):
            out, rest = part.split("=", 1)
            src, op = rest.rsplit(":", 1)
            specs[out.strip()] = (None if src.strip() == "-"
                                  else src.strip(), op.strip())
        register_rollup(
            args.registry_dir, args.register, args.base,
            [k.strip() for k in args.keys.split(",")], specs,
            columns=[c.strip() for c in args.columns.split(",")]
            if args.columns else None)
    with _ray_session(address="local", include_dashboard=False,
                      ignore_reinit_error=True):
        info = refresh_all(args.registry_dir)
    print(_json.dumps(info, sort_keys=True))
    return 0


def _cmd_query(args) -> int:
    import json as _json

    from kgray.queries import CATALOG

    if args.list or not args.name:
        for name, (fn, sql) in sorted(CATALOG.items()):
            print(f"{name}\t{'oracle' if sql else 'rows-only'}")
        return 0
    if args.name not in CATALOG:
        print(f"unknown query {args.name!r} (see --list)", file=sys.stderr)
        return 2
    fn, sql = CATALOG[args.name]
    with _ray_session(address="local", include_dashboard=False):
        t0 = time.time()
        res = fn(args.sf)
        if hasattr(res, "to_pandas"):
            df = res.to_pandas()
        else:
            df = res
        wall = round(time.time() - t0, 3)
    if args.out:
        import pyarrow as pa
        import pyarrow.parquet as pq

        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       args.out)
    print(_json.dumps({
        "query": args.name, "sf": args.sf, "rows": int(len(df)),
        "wall_s": wall, "oracle": sql is not None,
        "out": args.out or None,
        "head": _json.loads(df.head(args.head).to_json(orient="records")),
    }))
    return 0


def _cmd_forget(args) -> int:
    import json as _json

    from kgray.pipeline import forget_docs

    with _ray_session(address="local", include_dashboard=False):
        ms = forget_docs(args.out_dir, args.doc_ids, hard=args.hard)
    print(_json.dumps({
        t: {"rows": sum(int(p["rows"]) for p in m["partitions"].values()),
            "version": m.get("version")}
        for t, m in ms.items()
    }, indent=1))
    return 0


def _cmd_versions(args) -> int:
    import json as _json
    import os as _os

    from kgray.io import expire_versions, list_versions, txn_pinned_versions

    out = {}
    for path in args.tables:
        # default-protect versions pinned by committed multi-table txns
        # (kg_construct commits under the table's parent dir): expiring a
        # pinned snapshot would leave a txn record whose read raises
        protect = txn_pinned_versions(
            _os.path.dirname(_os.path.abspath(path)), path)
        dropped = (
            expire_versions(path, keep_last=args.expire_keep_last,
                            protect=protect)
            if args.expire_keep_last > 0 else 0
        )
        out[path] = {"dropped": dropped,
                     "txn_protected": sorted(protect),
                     "versions": list_versions(path)}
    print(_json.dumps(out, indent=1))
    return 0


def _cmd_compact(args) -> int:
    import json as _json

    from kgray.io import compact_partitioned

    out = {}
    with _ray_session(address="local", include_dashboard=False):
        for path in args.tables:
            m = compact_partitioned(path, target_bytes=args.target_mb << 20)
            out[path] = {
                "partitions": len(m["partitions"]),
                "files": sum(len(p["files"])
                             for p in m["partitions"].values()),
            }
    print(_json.dumps({"compacted": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
