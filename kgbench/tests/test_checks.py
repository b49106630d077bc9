import pandas as pd
import pytest

from kgbench import checks
from kgbench.workloads import ExtractBulk


def _triples(n: int) -> pd.DataFrame:
    return pd.DataFrame({
        "doc_id": [f"doc-{i:08d}" for i in range(n)],
        "subject": [f"s{i}" for i in range(n)],
        "subject_type": ["人物"] * n,
        "predicate": ["主演"] * n,
        "object": [f"o{i}" for i in range(n)],
        "object_type": ["影视作品"] * n,
        "schema_id": [0] * n,
    })


def _construct_tables(n: int = 50) -> dict[str, pd.DataFrame]:
    triples = _triples(n)
    canon = triples.assign(subject_canonical=triples["subject"],
                           object_canonical=triples["object"])
    canon.loc[1, "subject_canonical"] = "s0"
    return {
        "triples": triples,
        "triples_canonical": canon,
        "edges": pd.DataFrame({"u": ["s0"], "v": ["s1"], "sim": [0.8]}),
        "entities": pd.DataFrame({"node": ["s0", "s1"],
                                  "component": ["s0", "s0"]}),
    }


def test_spo_exact_match_passes():
    gold = _triples(100)
    s = checks.spo_scores(gold.sample(frac=1, random_state=0), gold)
    assert s["f1"] == 1.0 and checks.spo_violations(s) == []


def test_spo_fails_on_altered_row():
    gold = _triples(100)
    pred = gold.copy()
    pred.loc[5, "object"] = "wrong"
    s = checks.spo_scores(pred, gold)
    assert s["tp"] == 99
    assert any("not gold" in v for v in checks.spo_violations(s))


def test_spo_fails_on_dropped_row():
    gold = _triples(100)
    s = checks.spo_scores(gold.drop(index=7), gold)
    assert s["precision"] == 1.0 and s["recall"] == 0.99
    assert any("recall" in v for v in checks.spo_violations(s))


def test_spo_counts_duplicates():
    gold = _triples(100)
    s = checks.spo_scores(pd.concat([gold, gold.iloc[:1]]), gold)
    assert checks.spo_violations(s)


def test_construct_invariants_hold_on_consistent_output():
    assert checks.construct_violations(_construct_tables()) == []


@pytest.mark.parametrize("plant", ["drop_canonical", "alter_canonical",
                                   "unmapped_edge"])
def test_construct_invariants_fail_on_planted_error(plant):
    t = _construct_tables()
    if plant == "drop_canonical":
        t["triples_canonical"] = t["triples_canonical"].drop(index=3)
    elif plant == "alter_canonical":
        t["triples_canonical"].loc[4, "predicate"] = "导演"
    else:
        t["edges"] = pd.DataFrame({"u": ["s0"], "v": ["s9"], "sim": [0.7]})
    assert checks.construct_violations(t)


def test_stale_rows_counts_rows_with_another_canonical_id():
    fresh = _construct_tables()["triples_canonical"]
    appended = fresh.copy()
    assert checks.stale_rows(appended, fresh) == 0
    appended.loc[2, "object_canonical"] = "o-stale"
    assert checks.stale_rows(appended, fresh) == 1
    assert checks.stale_rows(appended.drop(index=9), fresh) == 2


class _Counted:
    def __init__(self, n):
        self.n = n

    def count(self):
        return self.n


@pytest.mark.parametrize("counts", [(100, 99), (100, 101)])
def test_extract_pass_fails_when_its_count_changes(monkeypatch, tmp_path,
                                                   counts):
    from kgray import io, pipeline

    seq = iter(counts)
    monkeypatch.setattr(io, "read_parquet_clean", lambda path: None)
    monkeypatch.setattr(pipeline, "extract_triples",
                        lambda docs: _Counted(next(seq)))
    wl = ExtractBulk(1, str(tmp_path))
    wl.docs_dir, wl.gold_total, wl.expected = "in", 100, None
    assert wl.op(0).triples == 100
    with pytest.raises(checks.CheckFailed):
        wl.op(1)


def test_extract_pass_fails_below_the_recall_floor(monkeypatch, tmp_path):
    from kgray import io, pipeline

    monkeypatch.setattr(io, "read_parquet_clean", lambda path: None)
    monkeypatch.setattr(pipeline, "extract_triples", lambda docs: _Counted(990))
    wl = ExtractBulk(1, str(tmp_path))
    wl.docs_dir, wl.gold_total, wl.expected = "in", 1000, None
    with pytest.raises(checks.CheckFailed):
        wl.op(0)
