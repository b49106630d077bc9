"""Degenerate-input robustness: empty corpora and empty stages must flow
through every pipeline without schema loss or crashes (a resumed run whose
pending set is empty hits exactly these paths)."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data as rd

from kgray.schema import DOCUMENTS_INTERLEAVED, TRIPLES


def _empty_docs():
    return rd.from_arrow(DOCUMENTS_INTERLEAVED.empty_table())


def test_extract_on_empty_corpus(ray_session):
    from kgray.pipeline import PipelineConfig, extract_triples

    out = extract_triples(_empty_docs(), PipelineConfig())
    assert out.count() == 0


def test_exact_dedup_empty(ray_session):
    from kgray.ops.dedup import exact_dedup_groups

    empty = rd.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    )
    assert exact_dedup_groups(empty).count() == 0


def test_eval_empty_predictions(ray_session):
    from kgray.corpus import doc_ids_for_range, sentences_table
    from kgray.ops.evaluate import spo_prf1
    from kgray.pipeline import golden_triples

    gold = golden_triples(
        rd.from_arrow(sentences_table(doc_ids_for_range(0, 20)))
    )
    pred = rd.from_arrow(TRIPLES.empty_table())
    m = spo_prf1(pred, gold)
    assert m.tp == 0 and m.pred_n == 0 and m.gold_n > 0
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


def test_linking_on_empty_triples(ray_session):
    from kgray.ops.canonical import canonicalize_triples, connected_components
    from kgray.ops.linking import link_mentions

    empty = rd.from_arrow(TRIPLES.empty_table())
    edges = link_mentions(empty, tau=0.6)
    entity_map = connected_components(edges)
    # canonicalize with an empty map: identity mapping, still empty
    out = canonicalize_triples(empty, entity_map)
    assert out.count() == 0


def test_fit_box_aspect_and_no_upscale():
    from kgray.ops.media import fit_box

    assert fit_box(1024, 512, 256, 256) == (256, 128)   # landscape
    assert fit_box(512, 1024, 256, 256) == (128, 256)   # portrait
    assert fit_box(100, 50, 256, 256) == (100, 50)      # never upscale
    assert fit_box(10000, 10, 256, 256) == (256, 1)     # extreme aspect


def test_resize_media_stage(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from kgray.ops.media import MEDIA_SCHEMA, resize_media

    rows = pa.table(
        {
            "media_ref": ["m1", "m2", "m3"],
            "kind": ["image", "image", "image"],
            "payload": pa.array([b"", b"", b""], pa.binary()),
            "width": pa.array([1024, 100, None], pa.int32()),
            "height": pa.array([512, 50, None], pa.int32()),
            "duration_ms": pa.array([None, None, None], pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )
    out = resize_media(rd.from_arrow(rows)).to_pandas().sort_values(
        "media_ref", ignore_index=True
    )
    assert list(out["width"]) == [256, 100, None] or [
        x if x == x else None for x in out["width"]
    ] == [256, 100, None]
    assert out.loc[0, "height"] == 128
    assert len(out.loc[0, "payload"]) == 32  # stub payload present
    # deterministic
    again = resize_media(rd.from_arrow(rows)).to_pandas().sort_values(
        "media_ref", ignore_index=True
    )
    assert (out["payload"] == again["payload"]).all()


@pytest.mark.parametrize("missing_purchase_parity", [1, 0])
def test_odds_ratio_zero_cell_matches_oracle(ray_session, tmp_path,
                                             missing_purchase_parity):
    """A zero 2x2 cell gives the oracle's typed row, not an exception:
    no odd-user purchase (c = 0) makes the odds ratio NULL, no even-user
    purchase (a = 0) makes it 0.0, and either leaves the CI NULL."""
    import duckdb
    import numpy as np
    import pandas as pd

    from kgray.queries import SQL_EVENTS_ODDS_RATIO, q_events_odds_ratio

    users = np.arange(1, 41, dtype=np.int64)
    types = np.where(users % 3 == 0, "purchase", "click")
    types[(users % 2 == missing_purchase_parity)] = "click"
    pd.DataFrame({"user_id": users, "event_type": types}).to_parquet(
        tmp_path / "events.parquet", index=False)

    got = q_events_odds_ratio(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    want = con.execute(SQL_EVENTS_ODDS_RATIO).df()
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got[["ci_lo", "ci_hi"]].isna().all(axis=None)
    assert got["odds_ratio"].isna().all() == (missing_purchase_parity == 1)
