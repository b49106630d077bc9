"""Canonicalization: connected components over link edges -> entity map.

North-rule stage (SURVEY.md §7.1 step 9).  Min-label propagation over the
candidate-edge graph, run as a bounded driver loop of Ray Data rounds —
the dataflow formulation of union-find (cf. Kiveris et al., "Connected
Components in MapReduce and Beyond", SoCC'14):

  label(v) <- min(label(v), min_{(u,v) in E} label(u))   per round

Each round is ONE ``kgray.util.cogroup`` of the edge rows with the label
rows on the node: each bucket emits its nodes' current min label to
themselves and all neighbors, and a Min-aggregate folds the candidates.
No Dataset.join in the loop (an aggregate output can carry empty
zero-schema blocks that Arrow's acero join rejects).

Link clusters here are alias groups (small diameter), so rounds ~ 2-3;
``max_rounds`` bounds the worst case at the documented O(diameter).
Every round's labels are a materialized Dataset — a resumable checkpoint.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _propagate_bucket(e: pa.Table, lab: pa.Table) -> pd.DataFrame:
    """One hash-bucket of nodes: its (src, dst) edge rows and (node,
    label) rows, all rows of a node co-located.  Emit min(own labels,
    node id) to self + neighbors — per-node grouping vectorized inside
    the bucket (kgray.util.grouped_map rationale).  Node ids keep their
    type (string mention keys, int64 doc ids), so min is numeric for int
    nodes and lexicographic for string nodes, matching the driver
    union-find per dtype."""
    src = e["src"].to_pandas()
    lab = lab.to_pandas().groupby("node", sort=False)["label"].min()
    nodes = src.unique()
    # min(own label, node id) WITHOUT a reindex NaN round-trip (reindex
    # with missing keys coerces int64 -> float64, losing exactness past
    # 2^53 doc ids)
    pos = pd.Index(lab.index).get_indexer(nodes)
    own_np = nodes.copy()
    has = pos >= 0
    lv = lab.to_numpy()
    own_np[has] = np.minimum(lv[pos[has]], nodes[has])
    edges = pd.DataFrame({"node": src, "val": e["dst"].to_pandas()}) \
        .drop_duplicates()
    own_s = pd.Series(own_np, index=nodes)
    out_nodes = np.concatenate([nodes, edges["val"].to_numpy()])
    out_labels = np.concatenate(
        # edge rows are keyed by node, so every edge node is in this
        # bucket: reindex has no misses and keeps the dtype exact
        [own_np, own_s.reindex(edges["node"].to_numpy()).to_numpy()]
    )
    return pd.DataFrame({"node": out_nodes, "label": out_labels})


def _cc_driver_unionfind(cat: pa.Table):
    """Union-find over a collected small (u, v) edge table, on the
    driver.

    O(E alpha(E)) — the same small-side gate as a broadcast join.
    Exactly the distributed semantics: component = lexicographic-min
    node id, edge-less nodes omitted."""
    import ray.data as rd

    # node dtype follows the edge key dtype (string mentions, int doc
    # ids); a schema-less empty edge set falls back to string keys
    node_type = cat.schema.field("u").type if "u" in cat.column_names \
        else pa.string()
    if not cat.num_rows:
        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], node_type),
                 "component": pa.array([], node_type)}
            )
        )
    u = cat["u"].to_pandas().to_numpy(object)
    v = cat["v"].to_pandas().to_numpy(object)
    ids, idx = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = idx[: len(u)], idx[len(u):]
    parent = np.arange(len(ids))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(iu, iv):
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by min root: the root is always the smallest index,
            # and ids is sorted, so root == lexicographic-min node id
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    comp = np.fromiter((find(i) for i in range(len(ids))), np.int64, len(ids))
    return rd.from_arrow(
        pa.table(
            {
                "node": pa.array(list(ids), node_type),
                "component": pa.array(list(ids[comp]), node_type),
            }
        )
    )


# connected_components' driver union-find gate (edge rows)
MAX_DRIVER_EDGES = 1_000_000


def connected_components(edges, max_rounds: int = 10):
    """edges (u, v[, sim]) -> Dataset (node, component), component =
    lexicographic-min node id of the component.

    Nodes appearing in no edge are not emitted (identity mapping implied).

    Auto-gated like every small-side broadcast in this repo: at or under
    ``MAX_DRIVER_EDGES`` edges the component map is computed by a driver
    union-find (alias graphs are tiny relative to the corpus — 3 shuffle
    barriers per MapReduce round cost seconds even for 42 edges); above
    it, or under KGRAY_FORCE_DISTRIBUTED, the min-label-propagation
    rounds below are the 100-TB path.
    """
    from kgray.ops.graph import _symmetric
    from kgray.util import collect_small

    edges_mat = edges.materialize()
    small = collect_small(edges_mat, max_rows=MAX_DRIVER_EDGES)
    if small is not None:
        return _cc_driver_unionfind(small)
    sym = _symmetric(edges_mat).materialize()

    # round 0 labels: own node id (derived from edge endpoints)
    def self_labels(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch["src"], "label": batch["src"]},
        )

    from kgray.ops.agg import pre_aggregate

    labels = pre_aggregate(
        sym.map_batches(self_labels, batch_format="pyarrow"),
        ["node"], {"label": ("label", "min")},
    ).materialize()

    from kgray.util import cogroup

    prev_fp = None
    converged = False
    budget, extended = max_rounds, False
    rounds = 0
    while rounds < budget:
        rounds += 1
        # both sides are materialized, so cogroup's shuffle sees their
        # block counts and skips its tiny-block bundling when they are
        # already at or under the bucket count
        new_labels = pre_aggregate(
            cogroup(sym, labels, "src", "node", _propagate_bucket),
            ["node"], {"label": ("label", "min")},
        ).materialize()
        fp = _labels_fingerprint(new_labels)
        labels = new_labels
        if fp == prev_fp:
            converged = True
            break
        prev_fp = fp
        if rounds == budget and not extended:
            # one automatic extension for long link chains, then fail loud
            import warnings

            warnings.warn(
                f"connected_components not converged after {budget} rounds; "
                f"extending once to {budget * 2}", RuntimeWarning,
            )
            budget, extended = budget * 2, True
    if not converged:
        # A component with diameter > the round budget would otherwise be
        # SILENTLY split, and canonicalize_triples would merge aliases
        # inconsistently — raise loudly instead of returning wrong maps.
        raise RuntimeError(
            f"connected_components did not converge in {budget} rounds; "
            "raise max_rounds (long link chains in the edge set)"
        )

    from kgray.util import rename_cols

    return rename_cols(labels, {"label": "component"})


def _labels_fingerprint(labels) -> int:
    """Order-independent fingerprint of the (node,label) pair set.

    Runs as one plain Ray task per MATERIALIZED block (cheaper than a
    full Ray Data job per convergence check; blocks stay remote).
    Per-block work is one Arrow string join + one vectorized row hash
    XOR-folded — no per-row python (it runs every CC round over every
    (node,label) row)."""
    import ray

    @ray.remote(num_cpus=0.5)
    def h(tbl: pa.Table) -> int:
        import pandas as pd
        import pyarrow.compute as pc

        if "node" not in tbl.column_names or tbl.num_rows == 0:
            return 0
        joined = pc.binary_join_element_wise(
            pc.cast(tbl["node"], pa.string()),
            pc.cast(tbl["label"], pa.string()),
            "->",
        )
        hv = pd.util.hash_pandas_object(
            pd.Series(joined.to_pandas()), index=False
        ).to_numpy(np.uint64)
        return int(np.bitwise_xor.reduce(hv))

    parts = ray.get([h.remote(ref) for ref in labels.to_arrow_refs()])
    acc = 0
    for p in parts:
        acc ^= p
    return acc


# canonicalize_triples' entity-map broadcast gate (map rows)
MAX_BROADCAST_MAP_ROWS = 2_000_000


def canonicalize_triples(triples, entity_map, num_partitions: int = 16):
    """Rewrite triple subject/object surfaces to canonical component ids.

    entity_map: (node=mention_key, component).  Triples whose mention has
    no component keep their own surface key (identity).  The map is the
    small side (one row per LINKED mention, not per triple): broadcast it
    when at or under ``MAX_BROADCAST_MAP_ROWS`` rows, else (or under
    KGRAY_FORCE_DISTRIBUTED) two partitioned hash joins (subject side,
    then object side).
    """
    from kgray.ops.joins import broadcast_join, bucket_join
    from kgray.ops.linking import mention_key
    from kgray.ops.tagging import normalize_entity
    from kgray.util import rename_cols

    def add_keys(batch: pa.Table) -> pa.Table:
        st = batch["subject_type"].to_pylist()
        s = batch["subject"].to_pylist()
        ot = batch["object_type"].to_pylist()
        o = batch["object"].to_pylist()
        sk = [mention_key(t, normalize_entity(x)) for t, x in zip(st, s)]
        ok = [mention_key(t, normalize_entity(x)) for t, x in zip(ot, o)]
        return batch.append_column("s_key", pa.array(sk, pa.string())).append_column(
            "o_key", pa.array(ok, pa.string())
        )

    keyed = triples.map_batches(add_keys, batch_format="pyarrow")

    from kgray.util import collect_small

    emap = pa.table({}) if entity_map is None else \
        collect_small(entity_map, max_rows=MAX_BROADCAST_MAP_ROWS)
    if emap is not None and emap.num_rows == 0:
        # no linked entities: canonical id = own surface key
        def identity(batch: pa.Table) -> pa.Table:
            out = batch.drop_columns(["s_key", "o_key"])
            return out.append_column(
                "subject_canonical", batch["s_key"]
            ).append_column("object_canonical", batch["o_key"])

        return keyed.map_batches(identity, batch_format="pyarrow")

    if emap is not None:
        # Broadcast path in ONE map-only stage: the map is collected once,
        # ray.put once, and each batch resolves BOTH sides with vectorized
        # Arrow index_in + take + coalesce — no per-stage block rebuilds,
        # no repeated small-side collection (was: 2 broadcast_joins + a
        # finalize stage, each re-collecting/rebuilding).
        import ray

        nodes = emap["node"].combine_chunks()
        comps = pc.cast(emap["component"].combine_chunks(), pa.string())
        map_ref = ray.put((nodes, comps))

        def canonize(batch: pa.Table) -> pa.Table:
            nodes_, comps_ = ray.get(map_ref)
            out = add_keys(batch)
            sk, ok = out["s_key"], out["o_key"]
            si = pc.index_in(sk, value_set=nodes_)
            oi = pc.index_in(ok, value_set=nodes_)
            sc = pc.coalesce(comps_.take(si), sk)
            oc = pc.coalesce(comps_.take(oi), ok)
            out = out.drop_columns(["s_key", "o_key"])
            return out.append_column(
                "subject_canonical", sc
            ).append_column("object_canonical", oc)

        return triples.map_batches(canonize, batch_format="pyarrow")
    else:
        j1 = bucket_join(
            keyed,
            rename_cols(entity_map, {"component": "subject_canonical"}),
            on="s_key", right_on="node", how="left",
            num_buckets=num_partitions,
        )
        j2 = bucket_join(
            j1,
            rename_cols(entity_map, {"component": "object_canonical"}),
            on="o_key", right_on="node", how="left",
            num_buckets=num_partitions,
        )

    def finalize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        def as_str(col):
            # an all-null pandas column arrives as Arrow null type
            if pa.types.is_null(
                col.type if not isinstance(col, pa.ChunkedArray) else col.type
            ):
                return col.cast(pa.string())
            return col

        sc = pc.coalesce(as_str(batch["subject_canonical"]), batch["s_key"])
        oc = pc.coalesce(as_str(batch["object_canonical"]), batch["o_key"])
        out = batch.drop_columns(
            [
                c
                for c in ("s_key", "o_key", "subject_canonical", "object_canonical")
                if c in batch.column_names
            ]
        )
        return out.append_column("subject_canonical", sc).append_column(
            "object_canonical", oc
        )

    return j2.map_batches(finalize, batch_format="pyarrow")
